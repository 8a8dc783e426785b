"""Each command imports only the modules it runs.

Every invocation of the command line compiles or loads each module it
imports, so a module that check-triple or a sweep never calls is start-up
cost paid for nothing.  Each check runs in a fresh interpreter, since this
process has imported the whole package already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from factorlab.construct import gens_classical

SRC = str(Path(__file__).resolve().parents[1] / "src")

# what check-triple runs: the group and field code, and nothing of the tables
CLI_MODULES = ["factorlab", "factorlab.cli", "factorlab.errors", "factorlab.gf",
               "factorlab.linalg", "factorlab.perm"]


def _loaded(code):
    """The modules loaded after a fresh interpreter runs code: the factorlab
    ones, and which of dataclasses, inspect and traceback."""
    script = code + """
import json, sys
print(json.dumps({
    "factorlab": sorted(m for m in sys.modules if m.split(".")[0] == "factorlab"),
    "std": [m for m in ("dataclasses", "inspect", "traceback") if m in sys.modules],
}))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    return json.loads(done.stdout)


def test_importing_the_command_line_loads_only_what_check_triple_runs():
    assert _loaded("import factorlab.cli")["factorlab"] == CLI_MODULES


def test_check_triple_loads_nothing_more(tmp_path):
    G = gens_classical("SL", 2, 3)
    path = tmp_path / "G.json"
    path.write_text(json.dumps({"field": G.frame.field.serialize(), "n": G.n,
                                "gens": [g.serialize() for g in G.gens]}))
    out = tmp_path / "out.json"
    loaded = _loaded(f"""
from factorlab import cli
assert cli.main(["check-triple", *[{str(path)!r}] * 3, "--out", {str(out)!r}]) == 0
""")
    assert loaded["factorlab"] == CLI_MODULES
    assert out.read_text().endswith("factorization = True\n")


def test_the_sweep_modules_import_no_introspection():
    # dataclasses pulls in inspect, ast and dis; traceback was read only
    # on the crash path of verify_tier_b
    assert _loaded("from factorlab import tables, verify")["std"] == []
