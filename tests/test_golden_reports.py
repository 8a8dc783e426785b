"""The JSON reports of `sweep --tier b` and of `check-triple` on the
Sp_6(3) = Sp_2(27) . P_1 triple, both at seed 0, are byte-identical to the
copies under tests/data/.  A faster path must not change what is certified;
these files pin it on every run."""

import json
from pathlib import Path

from factorlab import cli
from factorlab.construct import ext_field_subgroup, gens_classical, parabolic_p1_sp_residual

DATA = Path(__file__).parent / "data"


def test_tier_b_sweep_report_is_unchanged(tmp_path):
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--tier", "b", "--seed", "0", "--format", "json", "--out", str(out)]
    assert cli.main(argv) == 0
    assert out.read_bytes() == (DATA / "sweep_tier_b_seed0.json").read_bytes()


def test_check_triple_report_is_unchanged(tmp_path):
    H, _, _ = ext_field_subgroup("Sp", 1, 3, 3)
    K, _ = parabolic_p1_sp_residual(3, 3)
    paths = []
    for name, spec in (("G", gens_classical("Sp", 6, 3)), ("H", H), ("K", K)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"field": spec.frame.field.serialize(), "n": spec.n,
                                    "gens": [g.serialize() for g in spec.gens]}))
        paths.append(str(path))
    out = tmp_path / "triple.json"
    assert cli.main(["check-triple", *paths, "--seed", "0", "--format", "json",
                     "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "check_triple_sp6q3_seed0.json").read_bytes()
