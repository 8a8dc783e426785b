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
from . import construct
from .perm import (
    bfs,
    bsgs,
    compose,
    form_orbit,
    nonzero_vectors,
    norm_level_set,
    orbit,
    refined_antiflags,
    singular_vectors,
    solvable_residual,
)
from .shapes import order_of
from .tables import ConcreteCase, admissible_bindings

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


# -- TIER-B recipe interpretation ------------------------------------------------


def _resolve(args, bindings):
    return [bindings[a] if isinstance(a, str) and a in bindings else a for a in args]


def _build_h(desc, bindings, seed):
    """Returns (gens, frame, expected_order, take_residual)."""
    kind, *args = desc
    args = _resolve(args, bindings)
    if kind == "classical":
        spec = construct.gens_classical(*args)
        return spec.gens, spec.frame, spec.expected_order, False
    if kind == "derived_of":
        gens, frame, expected, _ = _build_h(args[0], bindings, seed)
        return gens, frame, None, True
    if kind == "sp_in_su":
        spec = construct.sp_in_su(*args)
        return spec.gens, spec.frame, spec.expected_order, False
    if kind == "su_in_omega":
        spec = construct.su_in_omega(*args)
        return spec.gens, spec.frame, spec.expected_order, False
    if kind == "ext_field_sp":
        spec, _, _ = construct.ext_field_subgroup("Sp", *args)
        return spec.gens, spec.frame, spec.expected_order, False
    if kind == "pm_residual":
        spec = construct.pm_residual(*args)
        return spec.gens, spec.frame, spec.expected_order, False
    if kind == "sl_levi":
        spec = construct.pm_residual(*args, include_radical=False)
        return spec.gens, spec.frame, spec.expected_order, False
    if kind == "blowup_sigma":
        fam, n, q_ext = args
        inner = construct.gens_classical(fam, n, q_ext)
        ext = inner.frame.field
        sub = construct.FieldSpec.get(ext.p)
        gens = [construct.blowup_elem(g, sub) for g in inner.gens]
        gens.append(construct.blowup_elem(construct.frobenius_elem(inner.frame, 1), sub))
        frame = construct.classical_frame("SL", n * (ext.f // sub.f), sub.q)
        return gens, frame, ext.f // sub.f * inner.expected_order, False
    if kind == "gamma_o_minus_ext":
        # GammaO_2a^-(q^b): the Omega ext-field subgroup together with a
        # reflection of the small space and its (twisted) field automorphism
        a, b, q = args
        spec, inner, lift = construct.ext_field_subgroup("Omega", a, b, q, sign="-")
        from .linalg import reflection

        refl = reflection(inner.frame, inner.frame.basis(2 * a - 2))
        frob = construct.twisted_frobenius(inner.frame, 1)
        gens = spec.gens + [lift(refl), lift(frob)]
        ext = inner.frame.field
        sub = spec.frame.field
        expected = (ext.f // sub.f) * 2 * inner.expected_order
        return gens, spec.frame, expected, False
    raise FactorLabError(f"unknown H recipe {kind!r}")


def _build_k_chain(desc, bindings, dom, seed, caps):
    kind, *args = desc
    args = _resolve(args, bindings)
    if kind == "parabolic_p1_residual":
        spec, residual_order = construct.parabolic_p1_sp_residual(*args)
        chain = solvable_residual(spec.gens, dom, seed=seed, cap=caps["max_enum"])
        return chain, residual_order
    raise FactorLabError(f"unknown K recipe {kind!r}")


def _build_domain(desc, frame, bindings, ambient_desc, seed, caps):
    kind, *args = desc
    cap = caps["max_domain"]
    if kind == "NonzeroVectors":
        return nonzero_vectors(frame, cap)
    if kind == "NormLevelSet":
        return norm_level_set(frame, args[0], cap)
    if kind == "SingularNonzeroVectors":
        return singular_vectors(frame, cap)
    if kind == "RefinedAntiflags":
        return refined_antiflags(frame, cap)
    if kind == "FormOrbit":
        sign = args[0]
        amb = construct.gens_classical(*_resolve(ambient_desc[1:], bindings))
        seed_frame = construct.SpaceFrame.quadratic(frame.field, frame.n, sign)
        return form_orbit(amb.frame, seed_frame.form, amb.gens, cap)
    if kind == "MinusPairOrbit":
        # ordered pair (v, u) spanning a nondegenerate minus-type 2-space:
        # v = e1 + f1 and u = e1 + e2 + mu f2 with x^2 + x + mu irreducible
        from .gf import find_irreducible_mu
        from .linalg import vec_add, vec_scale
        from .perm import ordered_vector_pairs

        amb = construct.gens_classical(*_resolve(ambient_desc[1:], bindings))
        F = amb.frame.field
        mu = find_irreducible_mu(F)
        v = vec_add(F, amb.frame.basis(0), amb.frame.basis(1))
        u = vec_add(F, amb.frame.basis(0),
                    vec_add(F, amb.frame.basis(2), vec_scale(F, mu, amb.frame.basis(3))))
        return ordered_vector_pairs(amb.frame, (v, u), amb.gens, cap)
    raise FactorLabError(f"unknown domain kind {kind!r}")


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
        gens_h, frame, h_expected, take_residual = _build_h(tb["H"], bnd, seed)
        dom = _build_domain(tb["domain"], frame, bnd, tb.get("ambient"), seed, caps)
        if take_residual:
            h_chain = solvable_residual(gens_h, dom, seed=seed, cap=caps["max_enum"])
        else:
            h_chain = bsgs(gens_h, dom, seed=seed, target_order=h_expected)
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
            orb = orbit(gens_h, dom.points[0], dom)
            computed["orbitSize"] = len(orb)
            if len(orb) != index:
                return _fail(case, computed, exp, seed, t0, "H is not transitive on [G:K]")
            if computed["orderH"] % index:
                return _fail(case, computed, exp, seed, t0, "orbit size does not divide |H|")
            computed["orderInt"] = computed["orderH"] // index
        elif tb["route"] == "sift":
            k_chain, _ = _build_k_chain(tb["K"], bnd, dom, seed, caps)
            computed["orderK"] = k_chain.order()
            if computed["orderK"] != exp["K"]:
                return _fail(case, computed, exp, seed, t0, "construction: |K| mismatch")
            inter = [g for g in h_chain.elements(caps["max_enum"]) if k_chain.contains(g)]
            computed["orderInt"] = len(inter)
            if "residual_int" in tb:
                from .perm import StabChain, derived_chain

                cur = StabChain(inter, dom.size, seed=seed, known_base=dom.known_base)
                gens_cur = [list(g) for g in inter]
                while True:
                    nxt = derived_chain(gens_cur, dom.size, seed=seed, cap=caps["max_enum"],
                                        known_base=dom.known_base)
                    if nxt.order() in (cur.order(), 1):
                        break
                    cur, gens_cur = nxt, nxt.strong_gens()
                computed["residualOrderInt"] = nxt.order()
                if nxt.order() != tb["residual_int"]:
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
    from .tables import _derived_expansions

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


def sweep(records, tier="a", caps=None, seed=0, table=None, row=None, jobs=1, sub=None):
    """Run a tier over the (filtered) records; returns (reports, summary)."""
    caps = {**DEFAULT_CAPS, **(caps or {})}
    chosen = [
        r for r in records
        if (table is None or r.table == table) and (row is None or r.row == row)
        and (sub is None or r.sub == sub)
    ]
    reports = []
    if tier in ("a", "both"):
        cases = list(tier_a_cases(chosen, caps))
        if jobs > 1:
            import multiprocessing as mp

            with mp.Pool(jobs) as pool:
                reports.extend(pool.map(verify_tier_a, cases))
        else:
            reports.extend(verify_tier_a(c) for c in cases)
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
