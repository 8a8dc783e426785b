"""The JSON reports of `sweep --tier b` at seeds 0 and 1 and of
`check-triple` on the Sp_6(3) = Sp_2(27) . P_1 triple at seed 0 are
byte-identical to the copies under tests/data/, and the `sweep --tier a`
report hashes to the sha256 digest kept there.  A faster path must not
change what is certified; these files pin it on every run.
`tools/write_golden.py` writes the copies with the calls in GOLDEN."""

import hashlib
import json
from pathlib import Path

from factorlab import cli
from factorlab.construct import ext_field_subgroup, gens_classical, parabolic_p1_sp_residual

DATA = Path(__file__).parent / "data"


def sweep_tier_b(out, workdir, seed):
    argv = ["sweep", "--tier", "b", "--seed", str(seed), "--format", "json", "--out", str(out)]
    return cli.main(argv)


def sweep_tier_a_digest(out, workdir, seed):
    """The sha256 hex digest of the TIER-A JSON report (about 1 MB)."""
    report = workdir / "tier_a.json"
    argv = ["sweep", "--tier", "a", "--seed", str(seed), "--format", "json", "--out", str(report)]
    code = cli.main(argv)
    out.write_text(hashlib.sha256(report.read_bytes()).hexdigest() + "\n")
    return code


def check_triple(out, workdir, seed):
    H, _, _ = ext_field_subgroup("Sp", 1, 3, 3)
    K, _ = parabolic_p1_sp_residual(3, 3)
    paths = []
    for name, spec in (("G", gens_classical("Sp", 6, 3)), ("H", H), ("K", K)):
        path = workdir / f"{name}.json"
        path.write_text(json.dumps({"field": spec.frame.field.serialize(), "n": spec.n,
                                    "gens": [g.serialize() for g in spec.gens]}))
        paths.append(str(path))
    return cli.main(["check-triple", *paths, "--seed", str(seed), "--format", "json",
                     "--out", str(out)])


# golden file -> (writer, seed); a writer returns the command's exit code
GOLDEN = {
    "sweep_tier_b_seed0.json": (sweep_tier_b, 0),
    "sweep_tier_b_seed1.json": (sweep_tier_b, 1),
    "check_triple_sp6q3_seed0.json": (check_triple, 0),
    "sweep_tier_a_seed0.sha256": (sweep_tier_a_digest, 0),
}


def _assert_unchanged(name, tmp_path):
    write, seed = GOLDEN[name]
    out = tmp_path / "report.json"
    assert write(out, tmp_path, seed) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()


def test_tier_b_sweep_report_is_unchanged(tmp_path):
    _assert_unchanged("sweep_tier_b_seed0.json", tmp_path)


def test_tier_b_sweep_seed1_report_is_unchanged(tmp_path):
    _assert_unchanged("sweep_tier_b_seed1.json", tmp_path)


def test_check_triple_report_is_unchanged(tmp_path):
    _assert_unchanged("check_triple_sp6q3_seed0.json", tmp_path)


def test_tier_a_sweep_report_is_unchanged(tmp_path):
    _assert_unchanged("sweep_tier_a_seed0.sha256", tmp_path)
