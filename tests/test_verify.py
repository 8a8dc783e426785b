import copy
import json

import pytest

from factorlab.shapes import parse_shape
from factorlab.tables import ConcreteCase, admissible_bindings, load_db
from factorlab.verify import (
    sweep,
    summary_line,
    tier_b_cases,
    verify_tier_a,
    verify_tier_b,
)


@pytest.fixture(scope="module")
def records():
    return load_db()


def _case(records, rid, **bindings):
    rec = next(r for r in records if r.id == rid)
    for c in admissible_bindings(rec, cap=10 ** 20):
        if all(c.bindings.get(k) == v for k, v in bindings.items()):
            return c
    raise AssertionError(f"no case {rid} {bindings}")


def test_tier_a_examples(records):
    c = _case(records, "T2.2", m=2, q=2)
    r = verify_tier_a(c)
    assert r.status == "PASS"
    assert r.computed == {"orderG": 25920, "orderH": 720, "orderK": 216, "orderInt": 6}
    c = _case(records, "T1.1a", a=2, b=2, q=2)
    r = verify_tier_a(c)
    assert r.status == "PASS"
    assert r.computed["orderH"] == 60 and r.computed["orderK"] == 1344
    assert r.computed["orderG"] == 20160 and r.computed["orderInt"] == 4


def test_tier_a_detects_mutation(records):
    rec = next(r for r in records if r.id == "T2.2")
    mutated = copy.copy(rec)
    mutated.asts = dict(rec.asts)
    mutated.asts["int"] = parse_shape("5")
    case = ConcreteCase(mutated, {"m": 2, "q": 2})
    r = verify_tier_a(case)
    assert r.status == "FAIL"
    assert "!=" in r.detail


def test_tier_b_quick_cases(records):
    wanted = {"T1.1b", "T1.3a"}
    for case in tier_b_cases(records):
        if case.record.id not in wanted:
            continue
        r = verify_tier_b(case, seed=0)
        assert r.status == "PASS", (case.id, r.detail)
        assert r.computed["orderInt"] == r.expected["orderInt"]


def test_tier_b_implies_tier_a(records):
    for case in tier_b_cases(records):
        if case.record.id != "T2.2":
            continue
        a = verify_tier_a(case)
        assert a.status == "PASS"


def test_tier_b_sift_route_cross_checks(records):
    case = next(c for c in tier_b_cases(records) if c.record.id == "T8.1a")
    r = verify_tier_b(case, seed=0)
    assert r.status == "PASS"
    assert r.computed["orderInt"] == 4
    assert r.computed["cosetOrbit"] == 126  # criterion (f) agrees


def test_seed_independence_of_tier_b(records):
    case = next(c for c in tier_b_cases(records) if c.record.id == "T2.2")
    r0 = verify_tier_b(case, seed=0)
    r1 = verify_tier_b(case, seed=7)
    assert r0.status == r1.status == "PASS"
    assert r0.computed == r1.computed
    assert r0.seed != r1.seed


def test_sweep_summary_and_reports(records):
    reports, summary = sweep(records, tier="a", table=3)
    assert summary["fail"] == 0 and summary["cases"] == len(reports) == 6
    assert summary_line(summary) == "tables=1 cases=6 pass=6 fail=0 skipped=0"
    payload = [r.to_json() for r in reports]
    assert all("elapsed_ms" not in doc for doc in payload)
    json.dumps(payload)  # serializable


def test_sweep_filter_matching_nothing(records):
    reports, summary = sweep(records, tier="a", table=3, row=99)
    assert reports == []
    assert summary == {"tables": 0, "cases": 0, "pass": 0, "fail": 0, "skipped": 0}


def test_degenerate_h_equals_g_passes(records):
    # G = HK holds trivially when H = G; the identity reads |G||K| = |G||K|
    rec = next(r for r in records if r.id == "T2.2")
    degenerate = copy.copy(rec)
    degenerate.asts = dict(rec.asts)
    degenerate.asts["H"] = rec.asts["G"]
    degenerate.asts["int"] = rec.asts["K"]
    r = verify_tier_a(ConcreteCase(degenerate, {"m": 2, "q": 2}))
    assert r.status == "PASS"


def test_tier_b_scale_cap_stops_before_building(records, monkeypatch):
    import factorlab.verify as verify

    def boom(*args, **kwargs):
        raise AssertionError("H was built although |H| exceeds max_group")

    monkeypatch.setattr(verify, "_build_h", boom)
    monkeypatch.setattr(verify, "_build_domain", boom)
    case = next(c for c in tier_b_cases(records) if c.record.id == "T2.2")
    r = verify_tier_b(case, seed=0, caps={"max_group": 10})
    assert r.status == "SKIPPED(scale)"


def test_tier_b_table_orders_are_computed_inside_the_guard(records, monkeypatch):
    import factorlab.verify as verify
    from factorlab.errors import NonIntegralQuotient

    case = next(c for c in tier_b_cases(records) if c.record.id == "T2.2")
    # an unbound symbol is a configuration problem, as in TIER A
    r = verify_tier_b(ConcreteCase(case.record, {"m": 2}), seed=0)
    assert r.status.startswith("SKIPPED(config:")

    def bad_order(shape, bindings):
        raise NonIntegralQuotient("3/2")

    monkeypatch.setattr(verify, "order_of", bad_order)
    r = verify_tier_b(case, seed=0)
    assert r.status == "FAIL" and r.detail == "construction: 3/2"
    assert r.expected == {}
    json.dumps(r.to_json())


def test_tier_b_internal_error_is_a_per_case_fail(records, monkeypatch):
    import factorlab.verify as verify

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "_build_domain", broken)
    reports, summary = sweep(records, tier="b", table=2, row=2)
    assert summary["cases"] == len(reports) == 3  # the sweep went on
    assert summary["fail"] == 3
    for r in reports:
        assert r.status == "FAIL"
        # the innermost frame is named, here the patched-in function
        assert r.detail.startswith("internal: RuntimeError: boom (test_verify.py:")


def test_tier_b_unbound_recipe_symbol_is_skipped_and_the_sweep_goes_on(records):
    rec = next(r for r in records if r.id == "T2.2")
    patched = copy.copy(rec)
    patched.tier_b = {**rec.tier_b, "bindings": [{"m": 2}]}  # q is unbound
    quick = next(r for r in records if r.id == "T1.1b")
    reports, summary = sweep([patched, quick], tier="b")
    assert [r.case_id for r in reports] == ["T2.2[m=2]", "T1.1b[a=4,b=1,c=2,q=2]"]
    assert reports[0].status.startswith("SKIPPED(config:")
    assert reports[1].status == "PASS"
    assert summary["skipped"] == 1 and summary["pass"] == 1
