"""The two-tier verification engine.

TIER A checks the exact order identity |H0||K0| = |G0||H0 meet K0| for a
concrete binding of a table row.  TIER B constructively builds the groups at
small parameters and certifies the factorization: orders by BSGS, the
intersection order either by an orbit/stabilizer computation on a geometric
domain or by enumerate-and-sift, plus the cross-check that the transitivity
criterion agrees with the order criterion.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, field

from .errors import CapExceeded, DomainOverflow, FactorLabError, UnboundSymbol
from . import construct, perm
from .perm import bfs, bsgs, compose, enumerate_and_sift, orbit, solvable_residual
from .shapes import order_of
from .tables import ConcreteCase, _derived_expansions, admissible_bindings

DEFAULT_CAPS = {
    "max_order": 10 ** 40,      # TIER-A binding enumeration cap on |G0|
    "max_group": 10 ** 9,       # BSGS order cap
    "max_domain": 1 << 20,      # faithful domain size cap
    "max_enum": 10 ** 6,        # enumerate-and-sift cap on |H|
}


@dataclass
class VerificationReport:
    case_id: str
    tier: str
    status: str                 # PASS | FAIL | SKIPPED(reason)
    computed: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)
    elapsed_ms: int = 0
    seed: int = 0
    detail: str = ""

    def to_json(self):
        # elapsed_ms is intentionally left out: JSON reports are specified to
        # be byte-identical across runs with the same seed
        return {
            "case": self.case_id,
            "tier": self.tier,
            "status": self.status,
            "computed": {k: str(v) for k, v in sorted(self.computed.items())},
            "expected": {k: str(v) for k, v in sorted(self.expected.items())},
            "seed": self.seed,
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
#   ("orbit", f, s)   perm.f(frame, construct.s(frame, *args), gens, cap): the
#                     orbit of a seed under the generators of the ambient group.
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


def _build_chain(spec, residual, dom, seed, caps):
    if residual:
        return solvable_residual(spec.gens, dom, seed=seed, cap=caps["max_enum"])
    return bsgs(spec.gens, dom, seed=seed, target_order=spec.expected_order)


def _build_domain(desc, frame, bindings, ambient, cap):
    (role, builder, *seeder), args = _recipe(desc, bindings)
    build = getattr(perm, builder)
    if role == "frame":
        return build(frame, *args, cap)
    amb, _ = _build_group(ambient, bindings)
    return build(amb.frame, getattr(construct, seeder[0])(amb.frame, *args), amb.gens, cap)


def verify_tier_b(case: ConcreteCase, seed=0, caps=None) -> VerificationReport:
    caps = {**DEFAULT_CAPS, **(caps or {})}
    t0 = time.perf_counter()
    rec = case.record
    tb = rec.tier_b
    if not tb:
        return VerificationReport(case.id, "B", "SKIPPED(no tier-b recipe)")
    bnd = case.bindings
    exp = {}
    computed = {}
    try:
        exp = {k: order_of(rec.shape(k), bnd) for k in ("G", "H", "K", "int")}
        if exp["H"] > caps["max_group"]:
            return VerificationReport(case.id, "B", "SKIPPED(scale)", seed=seed)
        spec_h, residual = _build_group(tb["H"], bnd)
        dom = _build_domain(tb["domain"], spec_h.frame, bnd, tb.get("ambient"),
                            caps["max_domain"])
        # the stab route needs dom only for H's orbit; H's chain goes on the
        # smaller of dom and the nonzero vectors, since its cost grows with the domain
        chain_dom = dom
        if tb["route"] == "stab" and dom.size >= spec_h.frame.field.q ** spec_h.frame.n:
            chain_dom = perm.nonzero_vectors(spec_h.frame, caps["max_domain"], dom.tables)
        h_chain = _build_chain(spec_h, residual, chain_dom, seed, caps)
        computed["orderH"] = h_chain.order()
        if computed["orderH"] != exp["H"]:
            return _fail(case, computed, exp, seed, t0, "construction: |H| mismatch")
        computed["orderG"] = exp["G"]
        computed["orderK"] = exp["K"]

        if tb["route"] == "stab":
            if exp["G"] % exp["K"]:
                return _fail(case, computed, exp, seed, t0, "|K| does not divide |G|")
            index = exp["G"] // exp["K"]
            if dom.size != index:
                computed["orbitSize"] = dom.size
                return _fail(case, computed, exp, seed, t0,
                             f"domain size {dom.size} != [G:K] = {index}")
            orb = orbit(spec_h.gens, dom.points[0], dom)
            computed["orbitSize"] = len(orb)
            if len(orb) != index:
                return _fail(case, computed, exp, seed, t0, "H is not transitive on [G:K]")
            if computed["orderH"] % index:
                return _fail(case, computed, exp, seed, t0, "orbit size does not divide |H|")
            computed["orderInt"] = computed["orderH"] // index
        elif tb["route"] == "sift":
            k_chain = _build_chain(*_build_group(tb["K"], bnd), dom, seed, caps)
            computed["orderK"] = k_chain.order()
            if computed["orderK"] != exp["K"]:
                return _fail(case, computed, exp, seed, t0, "construction: |K| mismatch")
            inter = enumerate_and_sift(h_chain, k_chain, caps["max_enum"])
            computed["orderInt"] = len(inter)
            if "residual_int" in tb:
                res = solvable_residual(inter, dom, seed=seed, cap=caps["max_enum"])
                computed["residualOrderInt"] = res.order()
                if res.order() != tb["residual_int"]:
                    return _fail(case, computed, exp, seed, t0,
                                 "solvable residual of the intersection mismatch")
            # criterion (f) cross-check: H transitive on the cosets of K
            index = exp["G"] // exp["K"]
            if index * exp["K"] == exp["G"] and index <= 10 ** 5:
                n_cosets = _coset_orbit_size(h_chain, k_chain, dom.size)
                computed["cosetOrbit"] = n_cosets
                if n_cosets != index:
                    return _fail(case, computed, exp, seed, t0,
                                 "criterion (f) disagrees with criterion (d)")
        else:
            return VerificationReport(case.id, "B", f"SKIPPED(route {tb['route']})", seed=seed)

        if computed["orderInt"] != exp["int"]:
            return _fail(case, computed, exp, seed, t0, "|H meet K| mismatch")
        if computed["orderH"] * exp["K"] != exp["G"] * computed["orderInt"]:
            return _fail(case, computed, exp, seed, t0, "order identity fails")
    except (CapExceeded, DomainOverflow) as e:
        return VerificationReport(case.id, "B", f"SKIPPED(scale: {e})", seed=seed)
    except UnboundSymbol as e:
        return VerificationReport(case.id, "B", f"SKIPPED(config: {e})", seed=seed)
    except FactorLabError as e:
        return _fail(case, computed, exp, seed, t0, f"construction: {e}")
    except Exception as e:  # a bug in one case must not abort a sweep
        where = traceback.extract_tb(e.__traceback__)[-1]
        at = f"{os.path.basename(where.filename)}:{where.lineno}"
        return _fail(case, computed, exp, seed, t0, f"internal: {type(e).__name__}: {e} ({at})")
    ms = int((time.perf_counter() - t0) * 1000)
    return VerificationReport(
        case.id, "B", "PASS",
        computed=computed,
        expected=_expected(exp),
        elapsed_ms=ms, seed=seed,
    )


def _coset_orbit_size(h_chain, k_chain, n_points):
    """Size of the orbit of H on the right cosets of K, each coset coded by
    its canonical key."""
    key = k_chain.coset_key
    moves = [lambda c, h=h: key(compose(c, h)) for h in h_chain.strong_gens()]
    return len(bfs(key(list(range(n_points))), moves))


def _expected(exp):
    # empty when the table orders themselves could not be computed
    if not exp:
        return {}
    return {"orderG": exp["G"], "orderH": exp["H"], "orderK": exp["K"], "orderInt": exp["int"]}


def _fail(case, computed, exp, seed, t0, why):
    return VerificationReport(
        case.id, "B", "FAIL", computed=computed, expected=_expected(exp),
        elapsed_ms=int((time.perf_counter() - t0) * 1000), seed=seed, detail=why,
    )


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


def sweep(records, tier="a", caps=None, seed=0, table=None, row=None, sub=None):
    """Run a tier over the (filtered) records; returns (reports, summary)."""
    caps = {**DEFAULT_CAPS, **(caps or {})}
    chosen = [
        r for r in records
        if (table is None or r.table == table) and (row is None or r.row == row)
        and (sub is None or r.sub == sub)
    ]
    reports = []
    if tier in ("a", "both"):
        reports.extend(verify_tier_a(c) for c in tier_a_cases(chosen, caps))
    if tier in ("b", "both"):
        for case in tier_b_cases(chosen):
            reports.append(verify_tier_b(case, seed=seed, caps=caps))
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
