import json

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


def test_sweep_jobs_parallel(capsys):
    code, out, _ = run(capsys, "sweep", "--tier", "a", "--table", "3", "--jobs", "2")
    assert code == 0
    assert out.strip().endswith("tables=1 cases=6 pass=6 fail=0 skipped=0")


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
