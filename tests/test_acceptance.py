"""The acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line.  Run with `pytest -s tests/test_acceptance.py -v`
to see the lines.
"""

import copy
import json
import random
import time

import pytest

from factorlab.construct import blowup_elem, frobenius_elem, gens_classical
from factorlab.gf import FieldSpec
from factorlab.perm import (
    bsgs,
    enumerate_and_sift,
    nonzero_vectors,
    solvable_residual,
)
from factorlab.shapes import classical_order, factorize, parse_shape, ppd, print_shape
from factorlab.tables import ConcreteCase, load_db
from factorlab.verify import (
    _coset_orbit_size,
    summarize,
    sweep,
    tier_b_cases,
    verify_tier_a,
    verify_tier_b,
)
from test_perm import random_element


def _report(name, ok, extra=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({extra})" if extra else ""))
    assert ok, name


@pytest.fixture(scope="module")
def records():
    return load_db()


# -- criterion 1: ppd unit suite ------------------------------------------------


def _oracle_ppd(a, k):
    if (a, k) == (2, 6):
        return frozenset({7})
    out = set()
    for r in factorize(a ** k - 1):
        if all((a ** j - 1) % r for j in range(1, k)):
            out.add(r)
    return frozenset(out)


def test_criterion_1_ppd():
    t0 = time.time()
    assert ppd(2, 4) == frozenset({5})
    assert ppd(2, 6) == frozenset({7})
    # Mersenne exception cases: a = 2^e - 1 prime, k = 2
    assert ppd(3, 2) == frozenset()
    assert ppd(7, 2) == frozenset()
    assert ppd(5, 2) == frozenset({3})  # 5 is not Mersenne
    mismatches = [
        (a, k)
        for a in range(2, 17)
        for k in range(2, 25)
        if ppd(a, k) != _oracle_ppd(a, k)
    ]
    elapsed = time.time() - t0
    _report(
        "criterion 1: ppd suite, oracle match for a <= 16, k <= 24",
        not mismatches and elapsed < 1.0,
        f"{elapsed:.2f}s, mismatches={mismatches}",
    )


# -- criterion 2: order-formula oracle -------------------------------------------

ORACLE_GROUPS = [
    ("SL", 2, 4), ("SL", 2, 5), ("SL", 2, 7), ("SL", 2, 8), ("SL", 2, 9),
    ("SL", 2, 16), ("SL", 3, 2), ("SL", 3, 3), ("SL", 3, 4), ("SL", 4, 2),
    ("SL", 4, 3), ("SL", 5, 2),
    ("Sp", 4, 2), ("Sp", 4, 3), ("Sp", 4, 4), ("Sp", 4, 5), ("Sp", 6, 2),
    ("SU", 3, 2), ("SU", 3, 3), ("SU", 3, 4), ("SU", 4, 2), ("SU", 5, 2),
    ("Omega+", 6, 2), ("Omega-", 6, 2), ("Omega+", 6, 3), ("Omega-", 6, 3),
    ("Omega+", 8, 2), ("Omega-", 8, 2),
    ("OmegaOdd", 5, 3), ("OmegaOdd", 5, 5),
]


def test_criterion_2_order_oracle():
    t0 = time.time()
    checked = 0
    for fam, n, q in ORACLE_GROUPS:
        expected = classical_order(fam, n, q)
        assert expected <= 10 ** 9, (fam, n, q)
        spec = gens_classical(fam, n, q)
        chain = spec.validate()
        assert chain.order() == expected, (fam, n, q)
        checked += 1
    # SigmaL_2(4) = SL_2(4) with the Frobenius adjoined, order 120
    sl24 = gens_classical("SL", 2, 4)
    F2 = FieldSpec.get(2)
    big = [blowup_elem(g, F2) for g in sl24.gens]
    big.append(blowup_elem(frobenius_elem(sl24.frame, 1), F2))
    from factorlab.construct import classical_frame

    dom = nonzero_vectors(classical_frame("SL", 4, 2))
    assert bsgs(big, dom, target_order=120).order() == 120 == classical_order("SigmaL", 2, 4)
    checked += 1
    must_include = {1451520, 25920, 174182400, 120}
    seen = {classical_order(f, n, q) for f, n, q in ORACLE_GROUPS} | {120}
    elapsed = time.time() - t0
    _report(
        f"criterion 2: order oracle, {checked} groups",
        checked >= 25 and must_include <= seen and elapsed < 60,
        f"{elapsed:.1f}s",
    )


# -- criterion 3: full TIER-A sweep ----------------------------------------------


@pytest.fixture(scope="module")
def full_sweep(records):
    """One `sweep --tier both` over the bundled database, and its wall time:
    criterion 3 reads its TIER-A reports, criterion 8 compares it with a
    second run."""
    t0 = time.time()
    reports, summary = sweep(records, tier="both")
    return reports, summary, time.time() - t0


def test_criterion_3_tier_a_sweep(full_sweep):
    reports, _, elapsed = full_sweep    # the TIER-A part takes nearly all of it
    summary = summarize([r for r in reports if r.tier == "A"])
    _report(
        f"criterion 3: TIER-A sweep, {summary['cases']} cases",
        summary["fail"] == 0 and summary["cases"] >= 300 and elapsed < 60,
        f"{elapsed:.1f}s, fail={summary['fail']}",
    )


# -- criterion 4: TIER-B golden suite --------------------------------------------

GOLDEN = {
    "T1.1b[a=4,b=1,c=2,q=2]": {"orbitSize": 15, "orderInt": 24},
    "T1.3a[m=2]": {"orbitSize": 120, "orderInt": 1},
    "T2.2[m=2,q=2]": {"orbitSize": 120, "orderInt": 6},
    "T2.2[m=2,q=3]": {"orbitSize": 2160, "orderInt": 24},
    "T6.15[m=4,q=2]": {"orbitSize": 135, "orderInt": 192},
    "T5.1[m=5,q=2]": {"orbitSize": 495, "orderInt": 27648},
    "T8.1a[a=1,b=3,d=2,q=2]": {"orderInt": 4},
    "T8.14a[a=2,b=2,q=2]": {"orbitSize": 120, "orderInt": 8160},
    "T5.7[m=4]": {"orbitSize": 136, "orderInt": 120},
}


def test_criterion_4_tier_b_golden(records):
    t0 = time.time()
    seen = {}
    per_case = []
    for case in tier_b_cases(records):
        t1 = time.time()
        rep = verify_tier_b(case)
        dt = time.time() - t1
        per_case.append((case.id, rep.status, dt))
        assert rep.status == "PASS", (case.id, rep.detail)
        assert dt < 60, (case.id, dt)
        seen[case.id] = rep.computed
    for cid, want in GOLDEN.items():
        assert cid in seen, cid
        for key, val in want.items():
            assert seen[cid][key] == val, (cid, key, seen[cid])
    # the golden case with extra expectations from the statement
    assert seen["T5.7[m=4]"]["orderH"] == 16320
    elapsed = time.time() - t0
    _report(
        f"criterion 4: TIER-B golden suite, {len(seen)} cases "
        f"({len(GOLDEN)} required)",
        set(GOLDEN) <= set(seen) and elapsed < 300,
        f"{elapsed:.1f}s",
    )


# -- criterion 5: criterion (d) vs criterion (f) ---------------------------------


def test_criterion_5_criterion_equivalence():
    t0 = time.time()
    ambients = [
        ("SL", 3, 2), ("Sp", 4, 2), ("SL", 2, 8), ("SU", 3, 2), ("SL", 2, 9),
        ("SL", 3, 3),
    ]
    rng = random.Random(12345)
    pairs = 0
    factorizations = 0
    for fam, n, q in ambients:
        spec = gens_classical(fam, n, q)
        assert spec.expected_order <= 10 ** 5
        dom = nonzero_vectors(spec.frame)
        chain = bsgs(spec.gens, dom, target_order=spec.expected_order)
        order_g = chain.order()
        for _ in range(9):
            gens_h = [random_element(chain, rng) for _ in range(rng.randrange(1, 3))]
            gens_k = [random_element(chain, rng) for _ in range(rng.randrange(1, 3))]
            H = bsgs_from_perms(gens_h, dom.size)
            K = bsgs_from_perms(gens_k, dom.size)
            n_int = len(enumerate_and_sift(H, K))
            d_holds = order_g * n_int == H.order() * K.order()
            f_holds = _coset_orbit_size(H, K, dom.size) == order_g // K.order()
            assert d_holds == f_holds, (fam, n, q, H.order(), K.order())
            pairs += 1
            factorizations += d_holds
    elapsed = time.time() - t0
    _report(
        f"criterion 5: (d) vs (f) on {pairs} random pairs",
        pairs >= 50,
        f"{elapsed:.1f}s, {factorizations} factorizations among them",
    )


def bsgs_from_perms(perms, n):
    from factorlab.perm import StabChain

    return StabChain(perms, n)


# -- criterion 6: solvable residual ----------------------------------------------


def test_criterion_6_solvable_residual():
    t0 = time.time()
    sp42 = gens_classical("Sp", 4, 2)
    dom = nonzero_vectors(sp42.frame)
    res = solvable_residual(sp42.gens, dom)
    assert res.order() == 360
    # a solvable input: the Borel subgroup of SL_2(8) with the Frobenius
    F2 = FieldSpec.get(2)
    F8 = F2.extend(3)
    from factorlab.linalg import GroupElem, MatF

    w = F8.generator
    borel = [
        GroupElem(MatF(F8, ((1, 1), (0, 1)))),
        GroupElem(MatF(F8, ((w, 0), (0, F8.inv(w))))),
        GroupElem(MatF.identity(F8, 2), 1),
    ]
    from factorlab.construct import classical_frame

    dom8 = nonzero_vectors(classical_frame("SL", 2, 8))
    assert solvable_residual(borel, dom8).order() == 1
    # generator-set invariance under 10 regenerations
    chain = bsgs(sp42.gens, dom, target_order=720)
    rng = random.Random(99)
    orders = set()
    for _ in range(10):
        while True:
            pergens = [random_element(chain, rng) for _ in range(3)]
            from factorlab.perm import StabChain

            if StabChain(pergens, dom.size).order() == 720:
                break
        orders.add(solvable_residual(pergens, dom).order())
    elapsed = time.time() - t0
    _report(
        "criterion 6: solvable residual (360 for Sp_4(2); trivial for solvable; "
        "generator-set invariant)",
        orders == {360} and elapsed < 120,
        f"{elapsed:.1f}s",
    )


# -- criterion 7: grammar round-trip and mutated negatives ------------------------


def test_criterion_7_roundtrip_and_negatives(records):
    total = 0
    for r in records:
        for key, s in r.shapes.items():
            ast1 = parse_shape(s)
            printed = print_shape(ast1)
            assert parse_shape(printed) == ast1, (r.id, key)
            total += 1
    mutations = [
        ("T2.2", {"m": 2, "q": 2}, "5"),                       # wrong constant
        ("T1.1a", {"a": 2, "b": 2, "q": 2}, "q^(a*b):SL(a-1,q^b)"),  # wrong exponent
        ("T8.1a", {"a": 1, "b": 3, "q": 2, "d": 2}, "[q^d]:Sp(2*a,q^b)"),  # wrong block
    ]
    failures = 0
    for rid, bnd, bad_int in mutations:
        rec = next(r for r in records if r.id == rid)
        mutated = copy.copy(rec)
        mutated.asts = dict(rec.asts)
        mutated.asts["int"] = parse_shape(bad_int)
        rep = verify_tier_a(ConcreteCase(mutated, bnd))
        failures += rep.status == "FAIL"
    _report(
        f"criterion 7: grammar round-trip on {total} shape strings; "
        "3 mutated negatives fail TIER-A",
        failures == 3,
    )


# -- criterion 8: determinism -----------------------------------------------------


def _full_json(reports, summary):
    return json.dumps(
        {"reports": [r.to_json() for r in reports], "summary": summary},
        indent=1, sort_keys=True,
    )


def test_criterion_8_determinism(records, full_sweep):
    # the shared sweep is the first run, this one the second
    t0 = time.time()
    second = _full_json(*sweep(records, tier="both"))
    assert _full_json(*full_sweep[:2]) == second, "two runs must give byte-identical JSON"
    elapsed = full_sweep[2] + time.time() - t0
    _report("criterion 8: determinism (byte-identical JSON)", True, f"{elapsed:.1f}s")
