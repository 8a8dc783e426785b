"""The JSON reports of `sweep --tier b` at seeds 0 and 1 and of
`check-triple` on the Sp_6(3) = Sp_2(27) . P_1 triple at seed 0 are
byte-identical to the copies under tests/data/, and the `sweep --tier a`
report hashes to the sha256 digest kept there, as do the family orders of
`classical_order` over a fixed grid and the stabilizer chains that
`check-triple` and the TIER-B sweep build.  A faster path or a new layout
must not change what is certified; these files pin it on every run.  The
same chains also keep the base rule of perm.StabChain.
`tools/write_golden.py` writes the copies with the calls in GOLDEN."""

import hashlib
import json
from contextlib import contextmanager
from pathlib import Path

from factorlab import cli, shapes, verify
from factorlab.construct import ext_field_subgroup, gens_classical, parabolic_p1_sp_residual
from factorlab.errors import FactorLabError

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


# the family-order grid: an (n, q) family over n = 1..8 from its least
# dimension, a one-argument family over q alone, both over FAMILY_QS
FAMILY_QS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 6)
ONE_ARGUMENT = {"D", "F4", "G2", "GammaG2", "Sz", "TwoG2"}
ODD_ORTHOGONAL = {"GOOdd", "GammaOOdd", "OOdd", "OmegaOdd", "Spin"}


def family_orders_digest(out, workdir, seed):
    """The sha256 hex digest of `classical_order`, the value or the error's
    class name, for every family on the grid with and without the prime."""
    lines = []
    for name in sorted(shapes.FAMILIES):
        if name in ONE_ARGUMENT:
            grid = [(q,) for q in FAMILY_QS]
        else:
            least = 3 if name in ODD_ORTHOGONAL else 2 if name[-1] in "+-" else 1
            grid = [(n, q) for n in range(least, 9) for q in FAMILY_QS]
        for args in grid:
            for primed in (False, True):
                try:
                    value = shapes.classical_order(name, *args, primed=primed)
                except FactorLabError as e:
                    value = type(e).__name__
                mark = "'" if primed else ""
                lines.append(f"{name}{args}{mark} {value}")
    out.write_text(hashlib.sha256("\n".join(lines).encode()).hexdigest() + "\n")
    return 0


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


@contextmanager
def _chains_built_by(module, name, chains):
    """Append to chains every chain that module.name returns meanwhile."""
    build = getattr(module, name)

    def spy(*args, **kwargs):
        chain = build(*args, **kwargs)
        chains.append(chain)
        return chain

    setattr(module, name, spy)
    try:
        yield
    finally:
        setattr(module, name, build)


def stab_chains_digest(out, workdir, seed):
    """The sha256 hex digest of the base points and the strong generators,
    level by level, of every chain that `check-triple` on the Sp_6(3) triple
    (G, H, K) and `sweep --tier b` (each case's H and, on the sift route,
    K) build, at seeds 0 and 1.  No seed reaches a chain, so both seeds
    must build the same chains."""
    halves = []
    for run_seed in (0, 1):
        chains = []
        with _chains_built_by(cli, "bsgs", chains):
            assert check_triple(workdir / "triple.json", workdir, run_seed) == 0
        with _chains_built_by(verify, "_build_chain", chains):
            assert sweep_tier_b(workdir / "tier_b.json", workdir, run_seed) == 0
        halves.append([repr([(lvl.base, lvl.gens) for lvl in chain.levels]) for chain in chains])
    assert halves[0] == halves[1], "a seed changed a stabilizer chain"
    digest = hashlib.sha256()
    for chain in halves[0] + halves[1]:
        digest.update(chain.encode())
    out.write_text(f"{len(halves[0]) + len(halves[1])} chains {digest.hexdigest()}\n")
    return 0


# golden file -> (writer, seed); a writer returns the command's exit code, and
# a seed of None marks a file that no seed changes
GOLDEN = {
    "sweep_tier_b_seed0.json": (sweep_tier_b, 0),
    "sweep_tier_b_seed1.json": (sweep_tier_b, 1),
    "check_triple_sp6q3_seed0.json": (check_triple, 0),
    "sweep_tier_a_seed0.sha256": (sweep_tier_a_digest, 0),
    "family_orders.sha256": (family_orders_digest, None),
    "stab_chains.sha256": (stab_chains_digest, None),
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


def test_family_orders_are_unchanged(tmp_path):
    _assert_unchanged("family_orders.sha256", tmp_path)


def test_stab_chains_are_unchanged(tmp_path):
    _assert_unchanged("stab_chains.sha256", tmp_path)


def test_chain_levels_keep_the_base_rule(tmp_path):
    """In every chain that `check-triple` and `sweep --tier b` build, a
    level's base is the first point its first strong generator moves, and
    each strong generator first recorded at a level moves that level's base:
    a sift residue is recorded at the level the sift stopped at."""
    chains = []
    with _chains_built_by(cli, "bsgs", chains):
        assert check_triple(tmp_path / "triple.json", tmp_path, 0) == 0
    with _chains_built_by(verify, "_build_chain", chains):
        assert sweep_tier_b(tmp_path / "tier_b.json", tmp_path, 0) == 0
    assert chains
    for chain in chains:
        recorded_at = {}     # a strong generator lies in every level up to its own
        for lvl in chain.levels:
            assert lvl.base == next(x for x, y in enumerate(lvl.gens[0]) if x != y)
            recorded_at.update((id(g), (g, lvl.base)) for g in lvl.gens)
        assert all(g[base] != base for g, base in recorded_at.values())
