"""The two-tier verification engine.

TIER A checks the exact order identity |H0||K0| = |G0||H0 meet K0| for a
concrete binding of a table row.  TIER B constructively builds the groups at
small parameters and certifies the factorization through the paper's two
equivalent criteria: the order identity (d) and H transitive on the cosets
of K (f).  One shared prefix builds H's chain and checks |H|; a route in
ROUTES then produces the remaining facts, the intersection order either by
an orbit/stabilizer computation on a geometric domain ("stab") or by
enumerate-and-sift with the criterion (f) cross-check ("sift").  The stab
route reads G from its shape, a classical family on H's frame; an orbit
domain is an orbit of G.  Every chain goes on the smaller of the geometric
domain and the nonzero vectors.  The first disagreeing fact is the FAIL.

The caps default to errors.DEFAULT_CAPS.  Reports are plain classes and a
crash's innermost frame is read off its traceback object, so a sweep
imports neither dataclasses nor traceback: every command-line run pays for
each module it imports.
"""

from __future__ import annotations

import os
import time

from .errors import (
    DEFAULT_CAPS,
    CapExceeded,
    DomainOverflow,
    FactorLabError,
    FieldMismatch,
    FormMismatch,
    UnboundSymbol,
)
from . import construct, perm
from .perm import _frontier_orbit, bsgs, compose, enumerate_and_sift, orbit, solvable_residual
from .shapes import arith_eval, order_of
from .tables import ConcreteCase, _derived_expansions, admissible_bindings


class VerificationReport:
    """The outcome of one case; status is PASS, FAIL or SKIPPED(reason)."""

    def __init__(self, case_id, tier, status, computed=None, expected=None, elapsed_ms=0,
                 detail=""):
        self.case_id = case_id
        self.tier = tier
        self.status = status
        self.computed = {} if computed is None else computed
        self.expected = {} if expected is None else expected
        self.elapsed_ms = elapsed_ms
        self.detail = detail

    def to_json(self):
        # elapsed_ms is intentionally left out: JSON reports are specified to
        # be byte-identical across runs
        return {
            "case": self.case_id,
            "tier": self.tier,
            "status": self.status,
            "computed": {k: str(v) for k, v in sorted(self.computed.items())},
            "expected": {k: str(v) for k, v in sorted(self.expected.items())},
            "detail": self.detail,
        }


def verify_tier_a(case: ConcreteCase) -> VerificationReport:
    """PASS iff |H0| |K0| = |G0| |H0 meet K0| exactly."""
    t0 = time.perf_counter()
    try:
        o = case.orders or {
            k: order_of(case.record.shape(k), case.bindings) for k in ("G", "H", "K", "int")
        }
    except UnboundSymbol as e:
        return VerificationReport(case.id, "A", f"SKIPPED(config: {e})")
    lhs = o["H"] * o["K"]
    rhs = o["G"] * o["int"]
    status = "PASS" if lhs == rhs else "FAIL"
    detail = "" if lhs == rhs else f"|H||K| = {lhs} != {rhs} = |G||H^K|"
    ms = int((time.perf_counter() - t0) * 1000)
    return VerificationReport(
        case.id, "A", status,
        computed={"orderG": o["G"], "orderH": o["H"], "orderK": o["K"], "orderInt": o["int"]},
        expected={"identity": rhs},
        elapsed_ms=ms, detail=detail,
    )


# -- TIER-B recipe registry ---------------------------------------------------

# Every recipe kind a TIER-B record names, with what builds it.  Builders are
# kept by name and looked up on their module when a case runs.
#   ("group", f)      construct.f(*args), a GroupPresentationSpec;
#   ("residual", f)   the solvable residual of that group, or, with f None,
#                     of the group recipe args[0];
#   ("frame", f)      perm.f(frame, *args, cap) on the frame of H;
#   ("orbit", f, s)   perm.f(frame, construct.s(frame, *args), gens, cap): an
#                     orbit of G, the orbit of a seed under G's generators.
RECIPES = {
    "classical": ("group", "gens_classical"),
    "sp_in_su": ("group", "sp_in_su"),
    "su_in_omega": ("group", "su_in_omega"),
    "ext_field_sp": ("group", "ext_field_sp"),
    "pm_residual": ("group", "pm_residual"),
    "sl_levi": ("group", "sl_levi"),
    "blowup_sigma": ("group", "blowup_sigma"),
    "gamma_o_minus_ext": ("group", "gamma_o_minus_ext"),
    "derived_of": ("residual", None),
    "parabolic_p1_residual": ("residual", "parabolic_p1_sp"),
    "NonzeroVectors": ("frame", "nonzero_vectors"),
    "NormLevelSet": ("frame", "norm_level_set"),
    "SingularNonzeroVectors": ("frame", "singular_vectors"),
    "RefinedAntiflags": ("frame", "refined_antiflags"),
    "FormOrbit": ("orbit", "form_orbit", "quadratic_form"),
    "MinusPairOrbit": ("orbit", "ordered_vector_pairs", "minus_pair"),
}


def _recipe(desc, bindings):
    """The registry entry of a recipe and its arguments, bound."""
    kind, *args = desc
    if kind not in RECIPES:
        raise FactorLabError(f"unknown recipe kind {kind!r}")
    return RECIPES[kind], [bindings.get(a, a) if isinstance(a, str) else a for a in args]


def _build_group(desc, bindings):
    """(spec, residual): the group a recipe builds, and whether the recipe
    means the solvable residual of that group."""
    (role, builder), args = _recipe(desc, bindings)
    if builder is None:
        return _build_group(args[0], bindings)[0], True
    return getattr(construct, builder)(*args), role == "residual"


def _build_chain(spec, residual, dom, caps):
    if residual:
        return solvable_residual(spec.gens, dom, cap=caps["max_group"])
    return bsgs(spec.gens, dom, target_order=spec.expected_order)


def _classical_g(case, frame):
    """(family, n, q) of G, read from its shape; G's standard frame must have
    H's field, dimension and, when it has one, form (kind, Gram, Q on the basis)."""
    node = case.record.shape("G")
    if node[0] != "family" or node[2] or len(node) != 5:
        raise FactorLabError("G is not a classical family")
    family, n, q = node[1], *(arith_eval(a, case.bindings) for a in node[3:])
    g = construct.classical_frame(family, n, q)
    if (g.field, g.n) != (frame.field, frame.n):
        raise FieldMismatch(f"G acts on {g.field}^{g.n}, H on {frame.field}^{frame.n}")
    form, h_form = (f and (f.kind, f.gram, f.qdiag) for f in (g.form, frame.form))
    if form not in (None, h_form):
        raise FormMismatch(f"G's {form[0]} form differs from H's form")
    return family, n, q


def _build_domain(desc, frame, bindings, g, cap):
    """The domain a recipe names, on H's frame; an orbit domain is an orbit of G."""
    (role, builder, *seeder), args = _recipe(desc, bindings)
    build = getattr(perm, builder)
    if role == "frame":
        return build(frame, *args, cap)
    if g is None:
        raise FactorLabError(f"domain {desc[0]} is an orbit of G, off the stab route")
    gens = construct.gens_classical(*g).gens
    return build(frame, getattr(construct, seeder[0])(frame, *args), gens, cap)


class _Mismatch(Exception):
    """A computed fact disagrees with the tables; the message is the FAIL's
    detail."""


def _require(ok, detail):
    if not ok:
        raise _Mismatch(detail)


def verify_tier_b(case: ConcreteCase, caps=None) -> VerificationReport:
    """Certify G = H K at the case's bindings.  A shared prefix builds H, G's
    frame (stab route), the domain and H's chain, and checks |H|; ROUTES adds
    the route's facts; the order identity closes.  The facts, in the order
    found, are the report's computed orders; the first that disagrees FAILs."""
    caps = {**DEFAULT_CAPS, **(caps or {})}
    t0 = time.perf_counter()
    tb = case.record.tier_b
    if not tb:
        return VerificationReport(case.id, "B", "SKIPPED(no tier-b recipe)")
    if tb["route"] not in ROUTES:
        return VerificationReport(case.id, "B", f"SKIPPED(route {tb['route']})")
    bnd = case.bindings
    exp, facts, detail = {}, {}, ""
    try:
        exp = {f"order{k.capitalize()}": order_of(case.record.shape(k), bnd)
               for k in ("G", "H", "K", "int")}
        if exp["orderH"] > caps["max_group"]:
            return VerificationReport(case.id, "B", "SKIPPED(scale)")
        spec_h, residual = _build_group(tb["H"], bnd)
        g = _classical_g(case, spec_h.frame) if tb["route"] == "stab" else None
        dom = _build_domain(tb["domain"], spec_h.frame, bnd, g, caps["max_domain"])
        # every chain goes on the smaller of dom and the nonzero vectors (both
        # faithful), since a chain's cost grows with its domain
        chain_dom = dom
        if dom.size >= spec_h.frame.field.q ** spec_h.frame.n:
            chain_dom = perm.nonzero_vectors(spec_h.frame, caps["max_domain"], dom.tables)
        h_chain = _build_chain(spec_h, residual, chain_dom, caps)
        facts["orderH"] = h_chain.order()
        _require(facts["orderH"] == exp["orderH"], "construction: |H| mismatch")
        facts["orderG"], facts["orderK"] = exp["orderG"], exp["orderK"]
        ROUTES[tb["route"]](facts, exp, tb=tb, bnd=bnd, spec_h=spec_h, h_chain=h_chain,
                            dom=dom, chain_dom=chain_dom, caps=caps)
        _require(facts["orderInt"] == exp["orderInt"], "|H meet K| mismatch")
        _require(facts["orderH"] * exp["orderK"] == exp["orderG"] * facts["orderInt"],
                 "order identity fails")
    except _Mismatch as e:
        detail = str(e)
    except (CapExceeded, DomainOverflow) as e:
        return VerificationReport(case.id, "B", f"SKIPPED(scale: {e})")
    except UnboundSymbol as e:
        return VerificationReport(case.id, "B", f"SKIPPED(config: {e})")
    except FactorLabError as e:
        detail = f"construction: {e}"
    except Exception as e:  # a bug in one case must not abort a sweep
        tb = e.__traceback__
        while tb.tb_next is not None:   # the innermost frame, where e was raised
            tb = tb.tb_next
        at = f"{os.path.basename(tb.tb_frame.f_code.co_filename)}:{tb.tb_lineno}"
        detail = f"internal: {type(e).__name__}: {e} ({at})"
    return VerificationReport(
        case.id, "B", "FAIL" if detail else "PASS",
        computed=facts, expected=exp,
        elapsed_ms=int((time.perf_counter() - t0) * 1000), detail=detail,
    )


def _stab_facts(facts, exp, *, spec_h, dom, **_):
    """dom stands for the cosets of K: it has [G:K] points and H is
    transitive on it, so |H meet K| = |H| / [G:K]."""
    index, rest = divmod(exp["orderG"], exp["orderK"])
    _require(not rest, "|K| does not divide |G|")
    facts["orbitSize"] = dom.size
    _require(dom.size == index, f"domain size {dom.size} != [G:K] = {index}")
    facts["orbitSize"] = len(orbit(spec_h.gens, dom.points[0], dom))
    _require(facts["orbitSize"] == index, "H is not transitive on [G:K]")
    _require(facts["orderH"] % index == 0, "orbit size does not divide |H|")
    facts["orderInt"] = facts["orderH"] // index


def _sift_facts(facts, exp, *, tb, bnd, h_chain, chain_dom, caps, **_):
    """|K| by its own chain, H meet K by enumerate-and-sift, then the
    criterion (f) cross-check on the cosets of K."""
    k_chain = _build_chain(*_build_group(tb["K"], bnd), chain_dom, caps)
    facts["orderK"] = k_chain.order()
    _require(facts["orderK"] == exp["orderK"], "construction: |K| mismatch")
    inter = enumerate_and_sift(h_chain, k_chain, caps["max_enum"])
    facts["orderInt"] = len(inter)
    if "residual_int" in tb:
        res = solvable_residual(inter, chain_dom, cap=caps["max_group"])
        facts["residualOrderInt"] = res.order()
        _require(res.order() == tb["residual_int"],
                 "solvable residual of the intersection mismatch")
    index, rest = divmod(exp["orderG"], exp["orderK"])
    if not rest and index <= 10 ** 5:
        facts["cosetOrbit"] = _coset_orbit_size(h_chain, k_chain, chain_dom.size)
        _require(facts["cosetOrbit"] == index, "criterion (f) disagrees with criterion (d)")


# route -> producer(facts, exp, **prefix): adds the route's facts in order
# and raises _Mismatch at the first that disagrees with the tables
ROUTES = {"stab": _stab_facts, "sift": _sift_facts}


def _coset_orbit_size(h_chain, k_chain, n_points):
    """Size of the orbit of H on the right cosets of K, each coset coded by
    its canonical key."""
    key, gens = k_chain.coset_key, h_chain.strong_gens()
    found = _frontier_orbit(key(list(range(n_points))),
                            lambda cosets: ([key(compose(c, h)) for c in cosets] for h in gens))
    return len(found)


# -- sweeping --------------------------------------------------------------------


def tier_a_cases(records, caps=None):
    caps = {**DEFAULT_CAPS, **(caps or {})}
    for rec in records:
        for case in admissible_bindings(rec, caps["max_order"]):
            yield case


def tier_b_cases(records):
    for rec in records:
        if not rec.tier_b:
            continue
        for bnd in rec.tier_b["bindings"]:
            bnd = dict(bnd)
            if rec.derived:
                expansions = _derived_expansions(rec, bnd)
                if len(expansions) == 1:
                    bnd.update(expansions[0])
            # the table orders are computed by verify_tier_b, inside its guard
            yield ConcreteCase(rec, bnd)


def sweep(records, tier="a", caps=None, seed=None):
    """Run a tier over the records; returns (reports, summary).  Nothing
    reads seed: perfbench/child.py still passes it, and the benchmark change
    of ROADMAP item 3 drops it."""
    caps = {**DEFAULT_CAPS, **(caps or {})}
    reports = []
    if tier in ("a", "both"):
        reports.extend(verify_tier_a(c) for c in tier_a_cases(records, caps))
    if tier in ("b", "both"):
        for case in tier_b_cases(records):
            reports.append(verify_tier_b(case, caps=caps))
    return reports, summarize(reports)


def summarize(reports):
    """The summary block of a report: tables touched and case counts by status."""
    return {
        "tables": len({r.case_id.split(".")[0] for r in reports}),
        "cases": len(reports),
        "pass": sum(1 for r in reports if r.status == "PASS"),
        "fail": sum(1 for r in reports if r.status == "FAIL"),
        "skipped": sum(1 for r in reports if r.status.startswith("SKIPPED")),
    }


def summary_line(summary):
    return ("tables={tables} cases={cases} pass={pass} fail={fail} "
            "skipped={skipped}".format(**summary))
