import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from factorlab import cli
from factorlab.construct import (
    blowup_elem,
    frobenius_elem,
    gens_classical,
)
from factorlab.gf import FieldSpec
from factorlab.linalg import GroupElem, MatF


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list_and_show(capsys):
    code, out, _ = run(capsys, "list", "--table", "1")
    assert code == 0
    assert "T1.1a" in out
    code, out, _ = run(capsys, "show", "--table", "8", "--row", "1", "--sub", "a")
    assert code == 0
    assert "[q^d]:Sp(2*a-2,q^b)" in out and "ex:K<P1<Sp" in out


def test_show_no_match_is_usage_error(capsys):
    code, _, err = run(capsys, "show", "--table", "1", "--row", "99")
    assert code == 2
    assert err


def test_verify_tier_b_golden(capsys):
    code, out, _ = run(
        capsys, "verify", "--table", "2", "--row", "2",
        "--bind", "m=2", "--bind", "q=2", "--tier", "b",
    )
    assert code == 0
    assert "PASS" in out and "orderInt=6" in out


def test_verify_tier_a_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--table", "1", "--row", "1", "--sub", "a",
        "--bind", "a=2", "--bind", "b=2", "--bind", "q=2", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["pass"] == 1
    assert doc["reports"][0]["computed"]["orderInt"] == "4"


def test_sweep_exit_codes_and_formats(capsys, tmp_path):
    code, out, _ = run(capsys, "sweep", "--tier", "a", "--table", "3")
    assert code == 0
    assert out.strip().endswith("tables=1 cases=6 pass=6 fail=0 skipped=0")
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "sweep", "--tier", "a", "--table", "3",
                     "--format", "json", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["summary"]["fail"] == 0
    # text and json report identical numbers
    text_counts = [r["computed"]["orderG"] for r in doc["reports"]]
    assert len(text_counts) == 6


def test_export_db(capsys):
    code, out, _ = run(capsys, "export-db")
    assert code == 0
    doc = json.loads(out)
    assert doc["manifest"]["records"] == len(doc["records"])


def _genfile(path, field, n, gens):
    doc = {
        "field": field.serialize(),
        "n": n,
        "gens": [g.serialize() for g in gens],
    }
    path.write_text(json.dumps(doc))


def test_check_triple_antiflag_factorization(capsys, tmp_path):
    # G = SL_4(2), H = blown-up SigmaL_2(4), K = the SL_3(2) block stabilizer
    F2 = FieldSpec.get(2)
    G = gens_classical("SL", 4, 2)
    sl24 = gens_classical("SL", 2, 4)
    H = [blowup_elem(g, F2) for g in sl24.gens]
    H.append(blowup_elem(frobenius_elem(sl24.frame, 1), F2))
    sl32 = gens_classical("SL", 3, 2)
    K = []
    for g in sl32.gens:
        rows = [[1, 0, 0, 0]]
        for r in range(3):
            rows.append([0] + list(g.mat.rows[r]))
        K.append(GroupElem(MatF(F2, rows)))
    gpath, hpath, kpath = tmp_path / "G.json", tmp_path / "H.json", tmp_path / "K.json"
    _genfile(gpath, F2, 4, G.gens)
    _genfile(hpath, F2, 4, H)
    _genfile(kpath, F2, 4, K)
    code, out, _ = run(capsys, "check-triple", str(gpath), str(hpath), str(kpath))
    assert code == 0
    assert "orderInt = 1" in out and "factorization = True" in out


def test_check_triple_sp6_3_residual_factorization(capsys, tmp_path):
    # G = Sp_6(3), H = Sp_2(27).3, K = the solvable residual of P_1, as in
    # the triple_sp6q3 benchmark workload
    from factorlab.construct import ext_field_subgroup, parabolic_p1_sp_residual

    G = gens_classical("Sp", 6, 3)
    H, _, _ = ext_field_subgroup("Sp", 1, 3, 3)
    K, _ = parabolic_p1_sp_residual(3, 3)
    paths = []
    for name, spec in zip("GHK", (G, H, K)):
        paths.append(tmp_path / f"{name}.json")
        _genfile(paths[-1], spec.frame.field, spec.n, spec.gens)
    code, out, _ = run(capsys, "check-triple", *map(str, paths), "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "orderG": "9170703360", "orderH": "19656", "orderK": "12597120",
        "orderInt": "27", "factorization": True,
    }


def test_check_triple_non_factorization(capsys, tmp_path):
    # H = K = a point stabilizer: |H||K| != |G||H^K|
    F2 = FieldSpec.get(2)
    G = gens_classical("SL", 3, 2)
    from factorlab.construct import pm_residual

    P = pm_residual("SL", 3, 2)
    gpath, hpath, kpath = tmp_path / "G.json", tmp_path / "H.json", tmp_path / "K.json"
    _genfile(gpath, F2, 3, G.gens)
    _genfile(hpath, F2, 3, P.gens)
    _genfile(kpath, F2, 3, P.gens)
    code, out, _ = run(capsys, "check-triple", str(gpath), str(hpath), str(kpath))
    assert code == 1
    assert "factorization = False" in out


def test_check_triple_field_mismatch(capsys, tmp_path):
    F2 = FieldSpec.get(2)
    F3 = FieldSpec.get(3)
    a = gens_classical("SL", 2, 4)
    b = gens_classical("SL", 3, 3)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    _genfile(p1, a.frame.field, 2, a.gens)
    _genfile(p2, F3, 3, b.gens)
    code, _, err = run(capsys, "check-triple", str(p1), str(p2), str(p2))
    assert code == 2
    assert "field" in err.lower()


def test_sweep_json_matches_text_numbers(capsys):
    code, text_out, _ = run(capsys, "sweep", "--tier", "a", "--table", "1", "--row", "13")
    assert code == 0
    code, json_out, _ = run(capsys, "sweep", "--tier", "a", "--table", "1",
                            "--row", "13", "--format", "json")
    doc = json.loads(json_out)
    rep = doc["reports"][0]
    for key, val in rep["computed"].items():
        assert f"{key}={val}" in text_out


def test_caps_parse_exactly():
    assert cli.parse_cap("1e40") == 10 ** 40
    assert cli.parse_cap("1e9") == 10 ** 9
    assert cli.parse_cap("12345678901234567890123") == 12345678901234567890123
    assert cli.parse_cap("2.5e3") == 2500
    args = cli.build_parser().parse_args(["sweep"])
    caps = cli._caps_from(args)
    assert caps == {"max_order": 10 ** 40, "max_group": 10 ** 9,
                    "max_domain": 1 << 20, "max_enum": 10 ** 6}
    args = cli.build_parser().parse_args(["sweep", "--max-enum", "2e3"])
    assert cli._caps_from(args)["max_enum"] == 2000


def test_bad_cap_is_a_one_line_usage_error(capsys):
    for bad in ("abc", "1.5", "0", "-3", "inf", "nan"):
        code, out, err = run(capsys, "sweep", "--tier", "a", "--table", "3",
                             "--max-order", bad)
        assert code == 2, bad
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err, err


DELETE = object()  # a database value that deletes its key


@pytest.mark.parametrize("rid, path, value", [
    ("T1.1b", ("where", 0), "a*b >= "),
    ("T1.1b", ("where", 0), "foo(a) > 1"),
    ("T1.1b", ("where", 0), "a.b > 1"),
    ("T8.3", ("params", 2, "expr"), "2^"),
    ("T1.1b", ("derived", "c"), "no_such_kind"),
    ("T1.1b", ("params", 1), {"n": "b"}),
    ("T1.1a", ("shapes", "int"), DELETE),
    ("T1.1b", ("params", 2), "q"),
    ("T1.1b", ("params", 0, "min"), "2"),
    ("T1.1b", ("table",), DELETE),
    # a TIER-B recipe's keys are checked at load, whatever the tier
    ("T1.1b", ("tier_b", "route"), DELETE),
    ("T1.1b", ("tier_b", "bindings"), DELETE),
    ("T1.1b", ("tier_b", "bindings", 0), 4),
    ("T1.1b", ("tier_b", "H"), []),
    ("T1.1b", ("tier_b", "domain"), "NonzeroVectors"),
    ("T6.19", ("tier_b", "ambient"), {"kind": "classical"}),
    ("T8.1a", ("tier_b", "K"), [3, 2]),
    ("T8.1a", ("tier_b", "residual_int"), True),
    ("T1.1a", ("shapes", "H"), "z^2:SL(2,q)"),  # an undeclared symbol, as in where
    ("T1.1c", ("shapes", "H"), "G2(q^b,2)'"),  # G2 takes one argument
    ("T8.1a", ("tier_b", "K"), DELETE),  # the sift route reads K
    ("T1.1a", ("shapes", "H"), "GL(3,3)'"),  # no PRIMED row defines either '
    ("T1.1a", ("shapes", "K"), "Omega+(4,2)'"),
])
def test_bad_database_record_is_a_one_line_usage_error(capsys, tmp_path, rid, path, value):
    from factorlab.tables import default_db_path

    doc = json.load(open(default_db_path()))
    field = next(r for r in doc["records"] if r["id"] == rid)
    for key in path[:-1]:
        field = field[key]
    if value is DELETE:
        del field[path[-1]]
    else:
        field[path[-1]] = value
    db = tmp_path / "db.json"
    db.write_text(json.dumps(doc))
    code, out, err = run(capsys, "sweep", "--tier", "a", "--db", str(db))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {rid} "), err


@pytest.mark.parametrize("command, option", [
    *((cmd, opt) for cmd in ("list", "show") for opt in ("--seed", "--format")),
    ("verify", "--seed"),
    ("sweep", "--seed"),
    *(("export-db", opt) for opt in ("--table", "--row", "--sub", "--seed", "--format")),
    *(("check-triple", opt) for opt in ("--table", "--row", "--sub", "--db", "--max-order",
                                         "--max-group")),
])
def test_options_a_command_does_not_read_are_usage_errors(capsys, command, option):
    positional = ["G.json", "H.json", "K.json"] if command == "check-triple" else []
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *positional, option, "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_malformed_genfile_is_a_one_line_usage_error(capsys, tmp_path):
    good = tmp_path / "G.json"
    G = gens_classical("SL", 2, 2)
    _genfile(good, G.frame.field, 2, G.gens)
    broken = tmp_path / "broken.json"
    broken.write_text('{"field": {"p": 2, ')
    missing_key = tmp_path / "nokey.json"
    missing_key.write_text('{"n": 2, "gens": []}')
    for bad in (broken, missing_key):
        code, out, err = run(capsys, "check-triple", str(good), str(bad), str(good))
        assert code == 2
        assert err.count("\n") == 1 and str(bad) in err, err


def test_genfile_entries_are_read_exactly(capsys, tmp_path):
    # each file below used to be read modulo p or ignored: the GF(2) cell
    # [7] read as 1 (a PASS on the identity), the 3-digit GF(9) cell as the
    # element code 13 (an IndexError traceback), frob 5 over GF(2) as 0, and
    # the singular and non-square matrices failed without naming the file
    gf2, gf9 = gens_classical("SL", 2, 2), gens_classical("SL", 2, 9)
    bad = {
        "cell_mod_p": (gf2, {"matrix": [[[1], [0]], [[0], [7]]]}, "digits"),
        "cell_too_long": (gf9, {"matrix": [[[1, 1, 1], [0, 0]], [[0, 0], [1, 0]]]},
                          "digits"),
        "frob": (gf2, {"frob": 5, "matrix": [[[1], [0]], [[0], [1]]]}, "frob"),
        "singular": (gf2, {"matrix": [[[1], [1]], [[1], [1]]]}, "singular"),
        "not_square": (gf2, {"matrix": [[[1], [0]]]}, "not square"),
    }
    for name, (G, gen, why) in bad.items():
        good, path = tmp_path / f"{name}_G.json", tmp_path / f"{name}.json"
        _genfile(good, G.frame.field, 2, G.gens)
        path.write_text(json.dumps({"field": G.frame.field.serialize(), "n": 2,
                                    "gens": [gen]}))
        code, out, err = run(capsys, "check-triple", str(good), str(path), str(good))
        assert code == 2 and not out, name
        assert err.count("\n") == 1 and str(path) in err and why in err, err


@pytest.mark.parametrize("field", [
    {"p": 3, "f": 2, "modulus": [4, 3, 4]},    # used to read as x^2 + 1 modulo 3
    {"p": 3, "f": 2, "modulus": [1.0, 0, 1]},
    {"p": 3, "f": 2, "modulus": [1, 0, 1, 0]},
    {"p": 3.0, "f": 2, "modulus": [1, 0, 1]},
    {"p": 3, "f": True, "modulus": [1, 1]},
])
def test_genfile_field_is_read_exactly(capsys, tmp_path, field):
    # SL(2,9)'s generators in all three places: read modulo p, the field
    # [4, 3, 4] equalled GF(9) and check-triple said factorization = True
    G = gens_classical("SL", 2, 9)
    path = tmp_path / "G.json"
    path.write_text(json.dumps({"field": field, "n": 2,
                                "gens": [g.serialize() for g in G.gens]}))
    code, out, err = run(capsys, "check-triple", str(path), str(path), str(path))
    assert code == 2 and not out
    assert err.count("\n") == 1 and str(path) in err and "Traceback" not in err, err


def test_max_domain_is_refused_before_the_vectors_are_listed(capsys, tmp_path):
    # 3 x 3 over GF(4096) has 2^36 - 1 nonzero vectors: listing them first
    # ran out of memory
    F = FieldSpec.get(4096)
    path = tmp_path / "G.json"
    _genfile(path, F, 3, [GroupElem.identity(F, 3)])
    code, out, err = run(capsys, "check-triple", str(path), str(path), str(path),
                         "--max-domain", "1000")
    assert code == 2 and not out
    assert err == f"error: domain size {4096 ** 3 - 1} exceeds cap 1000\n"


def test_max_domain_is_refused_before_the_field_is_built(tmp_path):
    # GF(2^61 - 1): testing p by trial division took about 1.5e9 steps before
    # the cap refused the 2^61 - 2 vectors; run in a subprocess with a timeout,
    # so that a check in the old order fails instead of hanging the suite
    p = 2 ** 61 - 1
    path = tmp_path / "G.json"
    path.write_text(json.dumps({"field": {"p": p, "f": 1, "modulus": [p - 1, 1]}, "n": 1,
                                "gens": [{"matrix": [[[1]]]}]}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "factorlab.cli", "check-triple", *[str(path)] * 3,
         "--max-domain", "1000"],
        capture_output=True, text=True, env=env, timeout=5,
    )
    assert done.returncode == 2 and not done.stdout
    assert done.stderr == f"error: domain size {p - 1} exceeds cap 1000\n"


def test_a_space_too_large_to_print_is_refused_in_one_line(capsys, tmp_path):
    # 2^20000 - 1 has over 6000 digits, and str() of an int stops at 4300:
    # naming it exactly raised a ValueError with a traceback
    path = tmp_path / "G.json"
    path.write_text(json.dumps({"field": {"p": 2, "f": 1, "modulus": [1, 1]}, "n": 20000,
                                "gens": []}))
    code, out, err = run(capsys, "check-triple", *[str(path)] * 3)
    assert code == 2 and not out
    assert err == "error: domain size 2^20000 - 1 exceeds cap 1048576\n"


def test_sweep_sub_is_passed_on(capsys):
    code, out, _ = run(capsys, "sweep", "--tier", "a", "--table", "1", "--row", "1",
                       "--sub", "a", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    ids = {r["case"].split("[")[0] for r in doc["reports"]}
    assert ids == {"T1.1a"}
    code, out, _ = run(capsys, "sweep", "--tier", "a", "--table", "1", "--row", "1",
                       "--format", "json")
    ids = {r["case"].split("[")[0] for r in json.loads(out)["reports"]}
    assert ids == {"T1.1a", "T1.1b", "T1.1c"}


def test_genfile_of_the_wrong_dimension_is_a_usage_error(capsys, tmp_path):
    G = gens_classical("SL", 2, 2)
    good, bad = tmp_path / "G.json", tmp_path / "bad.json"
    _genfile(good, G.frame.field, 2, G.gens)
    _genfile(bad, G.frame.field, 3, G.gens)  # claims n = 3 for 2 x 2 matrices
    code, _, err = run(capsys, "check-triple", str(good), str(bad), str(good))
    assert code == 2
    assert err.count("\n") == 1 and str(bad) in err, err
