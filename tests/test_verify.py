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


def _rows(records, table, row=None):
    return [r for r in records if r.table == table and row in (None, r.row)]


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
        r = verify_tier_b(case)
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
    r = verify_tier_b(case)
    assert r.status == "PASS"
    assert r.computed["orderInt"] == 4
    assert r.computed["cosetOrbit"] == 126  # criterion (f) agrees


def test_sweep_summary_and_reports(records):
    reports, summary = sweep(_rows(records, 3), tier="a")
    assert summary["fail"] == 0 and summary["cases"] == len(reports) == 6
    assert summary_line(summary) == "tables=1 cases=6 pass=6 fail=0 skipped=0"
    payload = [r.to_json() for r in reports]
    assert all("elapsed_ms" not in doc for doc in payload)
    json.dumps(payload)  # serializable


def test_sweep_filter_matching_nothing(records):
    reports, summary = sweep(_rows(records, 3, 99), tier="a")
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

    monkeypatch.setattr(verify, "_build_group", boom)
    monkeypatch.setattr(verify, "_build_domain", boom)
    case = next(c for c in tier_b_cases(records) if c.record.id == "T2.2")
    r = verify_tier_b(case, caps={"max_group": 10})
    assert r.status == "SKIPPED(scale)"


def test_tier_b_table_orders_are_computed_inside_the_guard(records, monkeypatch):
    import factorlab.verify as verify
    from factorlab.errors import NonIntegralQuotient

    case = next(c for c in tier_b_cases(records) if c.record.id == "T2.2")
    # an unbound symbol is a configuration problem, as in TIER A
    r = verify_tier_b(ConcreteCase(case.record, {"m": 2}))
    assert r.status.startswith("SKIPPED(config:")

    def bad_order(shape, bindings):
        raise NonIntegralQuotient("3/2")

    monkeypatch.setattr(verify, "order_of", bad_order)
    r = verify_tier_b(case)
    assert r.status == "FAIL" and r.detail == "construction: 3/2"
    assert r.expected == {}
    json.dumps(r.to_json())


def test_tier_b_internal_error_is_a_per_case_fail(records, monkeypatch):
    import factorlab.verify as verify

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "_build_domain", broken)
    reports, summary = sweep(_rows(records, 2, 2), tier="b")
    assert summary["cases"] == len(reports) == 3  # the sweep went on
    assert summary["fail"] == 3
    for r in reports:
        assert r.status == "FAIL"
        # the innermost frame is named, here the patched-in function
        assert r.detail.startswith("internal: RuntimeError: boom (test_verify.py:")


@pytest.fixture
def chain_domains(monkeypatch):
    """(kind, size) of the domain of every chain that _build_chain builds."""
    import factorlab.verify as verify

    seen = []
    build_chain = verify._build_chain

    def spy(spec, residual, dom, caps):
        seen.append((dom.kind, dom.size))
        return build_chain(spec, residual, dom, caps)

    monkeypatch.setattr(verify, "_build_chain", spy)
    return seen


def test_stab_route_builds_h_chain_on_the_smaller_faithful_domain(records, chain_domains):
    want = {
        "T6.19[m=4,q=2]": ("NonzeroVectors", 2 ** 8 - 1),    # not the 6720 pairs
        "T1.3a[m=2]": ("NonzeroVectors", 2 ** 4 - 1),        # not the 120 antiflags
        "T2.2[m=2,q=3]": ("NormLevelSet(1)", 2160),          # not the 9^4 - 1 vectors
    }
    got = {}
    for case in tier_b_cases(records):
        if case.id in want:
            chain_domains.clear()
            assert verify_tier_b(case).status == "PASS"
            (got[case.id],) = chain_domains
    assert got == want


def test_sift_route_builds_every_chain_on_the_smaller_faithful_domain(records, chain_domains):
    (bundled,) = tier_b_cases([r for r in records if r.id == "T8.1a"])
    (antiflags,) = tier_b_cases([_mutated(records, "T8.1a", domain=["RefinedAntiflags"])])
    want = verify_tier_b(bundled)
    chain_domains.clear()
    got = verify_tier_b(antiflags)  # 2016 antiflags, H's and K's chains on 63 vectors
    assert got.status == want.status == "PASS"
    assert got.computed == want.computed and got.computed["cosetOrbit"] == 126
    assert chain_domains == [("NonzeroVectors", 63)] * 2


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


def _recipe_kinds(desc):
    """The kind of a recipe and of every recipe nested in its arguments."""
    kind, *args = desc
    yield kind
    for a in args:
        if isinstance(a, list):
            yield from _recipe_kinds(a)


def test_every_recipe_kind_resolves_and_every_registry_entry_is_used(records):
    import factorlab.construct as construct
    import factorlab.perm as perm
    from factorlab.verify import RECIPES

    roles = {"H": {"group", "residual"}, "K": {"group", "residual"},
             "ambient": {"group", "residual"}, "domain": {"frame", "orbit"}}
    named = set()
    for rec in records:
        for key, allowed in roles.items():
            if rec.tier_b and key in rec.tier_b:
                for kind in _recipe_kinds(rec.tier_b[key]):
                    assert kind in RECIPES, (rec.id, key, kind)
                    assert RECIPES[kind][0] in allowed, (rec.id, key, kind)
                    named.add(kind)
    assert named == set(RECIPES)  # a dead entry fails here
    for kind, (role, builder, *seed) in RECIPES.items():
        module = perm if role in ("frame", "orbit") else construct
        assert builder is None or callable(getattr(module, builder, None)), kind
        assert all(callable(getattr(construct, s, None)) for s in seed), kind


def _mutated(records, rid, shapes=(), **tier_b):
    """A copy of record rid with some table shapes and recipe fields replaced."""
    rec = next(r for r in records if r.id == rid)
    mutated = copy.copy(rec)
    mutated.asts = {**rec.asts, **{k: parse_shape(v) for k, v in shapes}}
    mutated.tier_b = {**rec.tier_b, **tier_b}
    return mutated


# T1.1b runs the stab route on 15 nonzero vectors (G = 20160, H = 360,
# K = 1344, int = 24); T8.1a the sift route (G = 1451520, H = 504, K = 11520,
# int = 4, residual 1, 126 cosets)
_G1, _G8 = {"orderG": 20160}, {"orderG": 1451520}
FAIL_DETAILS = {
    "|H| mismatch": (
        ("T1.1b", [("H", "361")], {}),
        "construction: |H| mismatch", {"orderH": 360}),
    "|K| does not divide |G|": (
        ("T1.1b", [("K", "1000")], {}),
        "|K| does not divide |G|", {"orderH": 360, **_G1, "orderK": 1000}),
    "domain size": (
        ("T1.1b", [("K", "672")], {}),
        "domain size 15 != [G:K] = 30",
        {"orderH": 360, **_G1, "orderK": 672, "orbitSize": 15}),
    "not transitive": (
        # P1's residual fixes e_1, so it is far from transitive on 63 vectors
        ("T8.1a", [("H", "11520"), ("K", "23040")],
         {"route": "stab", "H": ["parabolic_p1_residual", 3, 2]}),
        "H is not transitive on [G:K]",
        {"orderH": 11520, **_G8, "orderK": 23040, "orbitSize": 1}),
    "|K| mismatch": (
        ("T8.1a", [("K", "11521")], {}),
        "construction: |K| mismatch", {"orderH": 504, **_G8, "orderK": 11520}),
    "residual mismatch": (
        ("T8.1a", [], {"residual_int": 2}),
        "solvable residual of the intersection mismatch",
        {"orderH": 504, **_G8, "orderK": 11520, "orderInt": 4, "residualOrderInt": 1}),
    "stab |H meet K|": (
        ("T1.1b", [("int", "25")], {}),
        "|H meet K| mismatch",
        {"orderH": 360, **_G1, "orderK": 1344, "orbitSize": 15, "orderInt": 24}),
    "sift |H meet K|": (
        ("T8.1a", [("int", "5")], {}),
        "|H meet K| mismatch",
        {"orderH": 504, **_G8, "orderK": 11520, "orderInt": 4, "residualOrderInt": 1,
         "cosetOrbit": 126}),
    "criterion (f)": (
        # [G:K] = 252, but H has one orbit of 126 cosets
        ("T8.1a", [("G", "2903040")], {}),
        "criterion (f) disagrees with criterion (d)",
        {"orderH": 504, "orderG": 2903040, "orderK": 11520, "orderInt": 4,
         "residualOrderInt": 1, "cosetOrbit": 126}),
    "order identity": (
        # |K| does not divide this |G|, so criterion (f) is not run
        ("T8.1a", [("G", "1451521")], {}),
        "order identity fails",
        {"orderH": 504, "orderG": 1451521, "orderK": 11520, "orderInt": 4,
         "residualOrderInt": 1}),
    # an orbit domain's ambient must act on H's space, checked before the
    # orbit is built (H's chain on an orbit in GF(97)^2 cannot run)
    "ambient of another space": (
        ("T8.2a", [], {"ambient": ["classical", "Sp", 2, 97]}),
        "construction: the ambient acts on GF(97)^2, H on GF(2)^8", {}),
    "no ambient": (
        ("T6.19", [], {"ambient": None}),
        "construction: domain MinusPairOrbit needs an ambient", {}),
}


@pytest.mark.parametrize("name", FAIL_DETAILS)
def test_tier_b_fail_details_are_pinned(records, name):
    (rid, shapes, tier_b), detail, computed = FAIL_DETAILS[name]
    (case,) = tier_b_cases([_mutated(records, rid, shapes, **tier_b)])
    r = verify_tier_b(case)
    assert (r.status, r.detail, r.computed) == ("FAIL", detail, computed)
    assert list(r.computed) == list(computed)  # facts in the order they were found
    assert set(r.expected) == {"orderG", "orderH", "orderK", "orderInt"}


def test_unknown_route_is_skipped_before_anything_is_built(records):
    # H is not even constructible: the route is looked up first
    broken = _mutated(records, "T1.1b", route="nope", H=["classical", "Sp", 3, 2])
    (case,) = tier_b_cases([broken])
    r = verify_tier_b(case)
    assert (r.status, r.detail, r.computed) == ("SKIPPED(route nope)", "", {})
