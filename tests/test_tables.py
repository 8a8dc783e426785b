import importlib.util
import json
from pathlib import Path

import pytest

from factorlab import cli
from factorlab.errors import FactorLabError, ManifestMismatch, ShapeSyntaxError
from factorlab.shapes import order_of, parse_condition, parse_shape, print_shape
from factorlab.tables import (
    admissible_bindings,
    eval_constraint,
    iter_admissible_bindings,
    load_db,
    two_part,
)


@pytest.fixture(scope="module")
def records():
    return load_db()


def test_db_loads_with_manifest(records):
    assert len(records) > 300
    ids = [r.id for r in records]
    assert len(set(ids)) == len(ids)
    tables = {r.table for r in records}
    assert tables == set(range(1, 10))


def test_manifest_mismatch_detected(tmp_path):
    from factorlab.tables import default_db_path

    doc = json.load(open(default_db_path()))
    doc["records"] = doc["records"][:-1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ManifestMismatch):
        load_db(str(bad))


def test_all_shapes_roundtrip(records):
    for r in records:
        for key, s in r.shapes.items():
            ast1 = parse_shape(s)
            printed = print_shape(ast1)
            ast2 = parse_shape(printed)
            assert ast2 == ast1, (r.id, key)
            assert print_shape(ast2) == printed


def test_constraint_evaluator():
    assert eval_constraint("a*b >= 4", {"a": 2, "b": 2})
    assert not eval_constraint("a*b >= 4", {"a": 3, "b": 1})
    assert eval_constraint("odd(m/2)", {"m": 6})
    assert not eval_constraint("odd(m/2)", {"m": 8})
    assert not eval_constraint("odd(m/2)", {"m": 7})  # inexact division => False
    assert eval_constraint("not (a*b == 2 and q == 2)", {"a": 1, "b": 2, "q": 4})
    assert eval_constraint("q^(c+1) % 4 == 0", {"q": 2, "c": 5})
    assert two_part(24) == 8


# every construct the constraint grammar reads, at one binding each
@pytest.mark.parametrize("constraint, bindings, expected", [
    ("a == 2", {"a": 2}, True),
    ("a != 2", {"a": 2}, False),
    ("a < 2", {"a": 2}, False),
    ("a <= 2", {"a": 2}, True),
    ("a > 1", {"a": 2}, True),
    ("a >= 3", {"a": 2}, False),
    ("1 < a <= 3 < b", {"a": 2, "b": 4}, True),
    ("1 < a < 2", {"a": 2}, False),
    ("b == 1 or odd(m/2)", {"b": 1, "m": 7}, True),  # or stops before m/2
    ("b == 2 and odd(m/2)", {"b": 1, "m": 7}, False),  # and stops before m/2
    ("-2^2 == -4", {}, True),
    ("2^-1 == 0", {}, False),  # a negative exponent is not an integer
    ("not a == 3", {"a": 2}, True),
    ("odd(a)", {"a": 3}, True),
    ("even(a)", {"a": 3}, False),
    ("gcd(a, 6) == 2", {"a": 4}, True),
    ("min(a, b) == 2", {"a": 2, "b": 5}, True),
    ("max(a, b) == 5", {"a": 2, "b": 5}, True),
    ("(a*b >= 3) or (q >= 4)", {"a": 1, "b": 2, "q": 4}, True),
    ("q^(c+1) % 4 == 0", {"q": 2, "c": 0}, False),
    ("odd(m/2)", {"m": 7}, False),  # inexact division makes it False
    ("f*m/2 >= 3 ", {"f": 1, "m": 5}, False),
])
def test_constraint_grammar(constraint, bindings, expected):
    assert eval_constraint(parse_condition(constraint), bindings) is expected
    assert eval_constraint(constraint, bindings) is expected


def test_grammar_rejects_what_it_does_not_read(tmp_path):
    with pytest.raises(ShapeSyntaxError):
        parse_condition("a ** 2 > 1")
    with pytest.raises(ShapeSyntaxError):
        parse_condition("a = 2")
    with pytest.raises(ShapeSyntaxError):
        parse_condition("max(a, b, 7) == 7")
    # the shape grammar reads no comparison, and allows trailing whitespace
    with pytest.raises(ShapeSyntaxError):
        parse_shape("SL(a==b,q)")
    assert parse_shape("SL(2,q) ") == parse_shape("SL(2,q)")
    # True parses as a symbol, which no record declares
    from factorlab.tables import default_db_path

    doc = json.load(open(default_db_path()))
    for spelling in ("True", "a ** 2 > 1"):
        next(r for r in doc["records"] if r["id"] == "T1.1b")["where"] = [spelling]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(FactorLabError, match=r"^T1\.1b where\[0\]: "):
            load_db(str(bad))


@pytest.mark.parametrize("text", ['{"x": ', '{"records": 3}', "[]"])
def test_malformed_database_file_is_a_one_line_usage_error(capsys, tmp_path, text):
    db = tmp_path / "db.json"
    db.write_text(text)
    code = cli.main(["sweep", "--tier", "a", "--db", str(db)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith(f"error: {db}: "), err


def test_each_distinct_string_is_parsed_once(records):
    nodes = {}
    for r in records:
        for key, s in r.shapes.items():
            assert nodes.setdefault(s, r.shape(key)) is r.shape(key), (r.id, key)


def test_admissible_bindings_unitary_row2(records):
    rec = next(r for r in records if r.id == "T2.2")
    cases = admissible_bindings(rec, cap=10 ** 8)
    got = {(c.bindings["m"], c.bindings["q"]) for c in cases}
    assert (2, 2) in got and (2, 3) in got
    for c in cases:
        assert c.orders["G"] <= 10 ** 8


def test_admissible_bindings_respects_parity(records):
    rec = next(r for r in records if r.id == "T5.4")  # m odd
    cases = admissible_bindings(rec, cap=10 ** 30)
    assert all(c.bindings["m"] % 2 == 1 for c in cases)
    assert not any(c.bindings["m"] == 4 for c in cases)


def test_sp_d_branch(records):
    rec = next(r for r in records if r.id == "T8.1a")
    cases = admissible_bindings(rec, cap=10 ** 12)
    special = [c for c in cases if (c.bindings["a"], c.bindings["b"], c.bindings["q"]) == (1, 3, 2)]
    assert len(special) == 1
    assert special[0].bindings["d"] == 2
    generic = next(c for c in cases if (c.bindings["a"], c.bindings["b"], c.bindings["q"]) == (1, 2, 4))
    assert generic.bindings["d"] == 2 * 1 * 2 - 2


def test_linear_c_branch(records):
    rec = next(r for r in records if r.id == "T1.1b")
    cases = admissible_bindings(rec, cap=10 ** 9)
    special = next(c for c in cases if (c.bindings["a"], c.bindings["b"], c.bindings["q"]) == (4, 1, 2))
    assert special.bindings["c"] == 2
    other = next(c for c in cases if (c.bindings["a"], c.bindings["b"], c.bindings["q"]) == (4, 1, 3))
    assert other.bindings["c"] == 4 * 1 - 1


def test_unitary_c_enumeration(records):
    rec = next(r for r in records if r.id == "T2.1a")
    cases = admissible_bindings(rec, cap=10 ** 30)
    # for b = 1 the only subset is I = {1}, giving c = a^2
    b1 = {c.bindings["c"] for c in cases if c.bindings["b"] == 1 and c.bindings["a"] == 2}
    assert b1 == {4}
    # b = 2: I = {1} with gcd(1, 2) = 1, (b+1)/2 not integral: c = 2 a^2 b
    b2 = {c.bindings["c"] for c in cases if c.bindings["b"] == 2 and c.bindings["a"] == 2}
    assert b2 == {16}


def test_every_record_has_a_minimal_case(records):
    for r in records:
        case = next(iter_admissible_bindings(r, cap=None))
        assert case.orders["H"] * case.orders["K"] == case.orders["G"] * case.orders["int"], r.id


def test_binding_order_is_deterministic(records):
    rec = next(r for r in records if r.id == "T1.1a")
    a = [c.bindings for c in admissible_bindings(rec, cap=10 ** 12)]
    b = [c.bindings for c in admissible_bindings(rec, cap=10 ** 12)]
    assert a == b


def test_case_orders_match_shapes(records):
    rec = next(r for r in records if r.id == "T6.15")
    case = next(c for c in admissible_bindings(rec, 10 ** 10) if c.bindings["m"] == 4 and c.bindings["q"] == 2)
    assert case.orders["G"] == 174182400
    assert case.orders["K"] == 2 ** 6 * order_of("Omega+(6,2)", {})
    assert case.orders["int"] == 2 ** 5 * 6


def test_db_env_override(monkeypatch, tmp_path):
    from factorlab import tables

    monkeypatch.setenv("FACTORLAB_DB", str(tmp_path / "nowhere.json"))
    assert tables.default_db_path() == str(tmp_path / "nowhere.json")
    monkeypatch.delenv("FACTORLAB_DB")
    assert tables.default_db_path().endswith("tables_db.json")


def test_bundled_database_is_what_the_builder_writes():
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "build_tables_db", root / "tools" / "build_tables_db.py")
    builder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(builder)
    bundled = root / "src" / "factorlab" / "data" / "tables_db.json"
    assert builder.build().encode() == bundled.read_bytes()
