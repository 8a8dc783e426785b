#!/usr/bin/env python3
"""List the functions of src/factorlab that nothing but the tests reaches.

Run from the repo root:  python3 tools/reach.py

Under sys.setprofile it runs every command of the command line, the
bad-input exits included, a check-triple over a field too large for a
half-code addition table, tools/build_tables_db.build(), every GOLDEN writer
of tests/test_golden_reports.py and perfbench's check-triple prepare step,
all in-process and with every file written into a temporary directory.  It
then prints each function (methods and nested functions included) that no
call entered, with its line count, and the totals.  A function counts as
reached when a profiled call's code object starts on its first line, which
for a decorated function is the line of its first decorator.
"""

import ast
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "factorlab"
sys.path[:0] = [str(ROOT / d) for d in ("src", "tests", "tools", "perfbench")]


def functions():
    """(path, first line) -> (qualified name, line count) for every def in
    src/factorlab, the first line being the first decorator's if any."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                out[(path, first)] = (name, child.end_lineno - first + 1)
                walk(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), str(path), "")
    return out


def _cli(argv):
    from factorlab import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as e:     # argparse's own usage errors
            return e.code


def run_everything(tmp):
    """Every command, tool and prepare step; returns (command line, exit
    code) per command run, the command line without the directory tmp."""
    import build_tables_db
    import child
    from test_golden_reports import GOLDEN

    child._triple_prepare(str(tmp))
    triple = [str(tmp / name) for name in child.TRIPLE_FILES]
    bad_json = tmp / "bad.json"
    bad_json.write_text('{"x": ')
    db = json.loads((SRC / "data" / "tables_db.json").read_text())
    db["records"][0]["shapes"]["H"] = "SL(a,"
    bad_shape = tmp / "bad_shape.json"
    bad_shape.write_text(json.dumps(db))
    bad_field = tmp / "bad_field.json"
    bad_field.write_text(json.dumps({"field": {"p": 15, "f": 1, "modulus": [0, 1]},
                                     "n": 1, "gens": []}))
    gf2 = {"p": 2, "f": 1, "modulus": [1, 1]}
    bad_dim = tmp / "bad_dim.json"
    bad_dim.write_text(json.dumps({"field": gf2, "n": 2, "gens": [{"matrix": [[[1]]]}]}))
    other_field = tmp / "other_field.json"
    other_field.write_text(json.dumps({"field": gf2, "n": 1, "gens": [{"matrix": [[[1]]]}]}))
    gf9 = {"p": 3, "f": 2, "modulus": [1, 0, 1]}
    bad_modulus = tmp / "bad_modulus.json"     # x^2 + 1 only modulo 3
    bad_modulus.write_text(json.dumps({"field": {**gf9, "modulus": [4, 3, 4]}, "n": 1,
                                       "gens": [{"matrix": [[[1, 0]]]}]}))
    gf4096 = {"p": 2, "f": 12, "modulus": [1, 0, 0, 1] + [0] * 8 + [1]}
    one, zero = [1] + [0] * 11, [0] * 12
    big = tmp / "gf4096.json"                  # the identity on 2^36 - 1 nonzero vectors
    big.write_text(json.dumps({"field": gf4096, "n": 3, "gens": [
        {"matrix": [[one if i == j else zero for j in range(3)] for i in range(3)]}]}))
    large = tmp / "gf65537.json"              # -1 on GF(65537)^1: codes added one by one
    large.write_text(json.dumps({"field": {"p": 65537, "f": 1, "modulus": [65536, 1]},
                                 "n": 1, "gens": [{"matrix": [[[65536]]]}]}))
    p61 = 2 ** 61 - 1
    big_prime = tmp / "gf_p61.json"           # p tested by trial division before the cap
    big_prime.write_text(json.dumps({"field": {"p": p61, "f": 1, "modulus": [p61 - 1, 1]},
                                     "n": 1, "gens": [{"matrix": [[[1]]]}]}))
    bad_entries = []    # a GF(2) cell [7], a 3-digit GF(9) cell, frob 5 over GF(2), det 0
    for name, field, gen in (
            ("bad_cell", gf2, {"matrix": [[[1], [0]], [[0], [7]]]}),
            ("long_cell", gf9, {"matrix": [[[1, 1, 1], [0, 0]], [[0, 0], [1, 0]]]}),
            ("bad_frob", gf2, {"frob": 5, "matrix": [[[1], [0]], [[0], [1]]]}),
            ("singular", gf2, {"matrix": [[[1], [1]], [[1], [1]]]})):
        bad_entries.append(tmp / f"{name}.json")
        bad_entries[-1].write_text(json.dumps({"field": field, "n": 2, "gens": [gen]}))
    out = str(tmp / "out.txt")
    commands = [
        ["list"],
        ["list", "--table", "1", "--out", out],
        ["show", "--table", "1", "--row", "1"],
        ["show", "--table", "99"],
        ["verify", "--table", "1", "--row", "1", "--sub", "a", "--bind", "a=2", "--bind", "q=2"],
        ["verify", "--tier", "b", "--table", "1", "--row", "1", "--sub", "b", "--format", "json"],
        ["verify", "--table", "1", "--row", "1", "--sub", "a", "--bind", "q"],
        ["verify", "--table", "1", "--row", "1", "--sub", "a", "--bind", "q=1"],
        ["verify", "--table", "99"],
        ["sweep", "--tier", "a", "--format", "json", "--out", out],
        ["sweep", "--tier", "b"],
        ["sweep", "--tier", "both", "--table", "5", "--max-order", "1e12", "--max-group", "1e5"],
        ["sweep", "--tier", "a", "--max-order", "x"],
        ["sweep", "--db", str(bad_json)],
        ["list", "--db", str(bad_shape)],
        ["export-db", "--out", out],
        ["check-triple", *triple],
        ["check-triple", *triple, "--format", "json", "--out", out],
        ["check-triple", *triple, "--max-enum", "10"],
        ["check-triple", str(bad_json), *triple[1:]],
        ["check-triple", str(bad_field), *triple[1:]],
        ["check-triple", str(bad_modulus), *triple[1:]],
        ["check-triple", str(big), str(big), str(big), "--max-domain", "1000"],
        ["check-triple", str(large), str(large), str(large)],
        ["check-triple", str(big_prime), str(big_prime), str(big_prime), "--max-domain", "1000"],
        ["check-triple", str(bad_dim), *triple[1:]],
        ["check-triple", str(tmp / "missing.json"), *triple[1:]],
        ["check-triple", str(other_field), *triple[1:]],
        *(["check-triple", str(path), *triple[1:]] for path in bad_entries),
        ["check-triple", triple[2], triple[0], triple[2]],
    ]
    codes = [(" ".join(argv).replace(f"{tmp}/", ""), _cli(argv)) for argv in commands]

    build_tables_db.build()
    for name, write in GOLDEN.items():
        work = tmp / name.replace(".", "_")
        work.mkdir()
        write(work / name, work)
    return codes


def main():
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp:
        sys.setprofile(hook)
        try:
            codes = run_everything(Path(tmp))
        finally:
            sys.setprofile(None)
    # build_tables_db puts tools/../src on the path, so file names are resolved
    reached = {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in entered}
    defs = functions()
    missed = sorted(key for key in defs if key not in reached)
    for line, code in codes:
        print(f"exit {code}: {line}")
    print()
    for path, line in missed:
        name, lines = defs[(path, line)]
        print(f"{Path(path).relative_to(ROOT)}:{line}  {name}  ({lines} lines)")

    def span(keys):
        # the lines of the functions, a nested function's counted once
        return len({(path, x) for path, line in keys for x in range(line, line + defs[(path, line)][1])})

    print(f"\nunreached: {len(missed)} of {len(defs)} functions, "
          f"{span(missed)} of {span(defs)} function lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
