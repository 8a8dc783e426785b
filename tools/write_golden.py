#!/usr/bin/env python3
"""Write the golden reports tests/data/*.json with the calls that
tests/test_golden_reports.py checks them with.

Run from the repo root:  python3 tools/write_golden.py [NAME ...]

With no NAME it writes every file in GOLDEN.  Like
perfbench/make_reference.py, run it only on a commit whose output is
trusted: the files pin what a faster path must not change.  A report whose
command exits nonzero (a FAIL or an error) is not written.
"""

import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_golden_reports import DATA, GOLDEN  # noqa: E402


def write_golden(name):
    write, seed = GOLDEN[name]
    with tempfile.TemporaryDirectory() as workdir:
        out = Path(workdir) / name
        code = write(out, Path(workdir), seed)
        if code != 0:
            raise SystemExit(f"{name}: the command exited {code}; nothing written")
        shutil.copyfile(out, DATA / name)
    print(f"{(DATA / name).relative_to(ROOT)}: written")


def main(names):
    unknown = [name for name in names if name not in GOLDEN]
    if unknown:
        raise SystemExit(f"unknown golden file(s) {unknown}; known: {sorted(GOLDEN)}")
    for name in names or sorted(GOLDEN):
        write_golden(name)


if __name__ == "__main__":
    main(sys.argv[1:])
