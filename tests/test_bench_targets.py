"""Every function the traced benchmark wraps still exists under its name.

`perfbench/tracing.py` patches factorlab's public functions by name; if one
is renamed or removed, `perfbench/run.py --trace 1` breaks.  The module is
read here without calling its `install`, so nothing is patched.
"""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_targets_resolve_on_factorlab():
    ns = runpy.run_path(str(TRACING))
    targets = [(mod, attr) for mod, attr, _, _ in ns["TARGETS"]]
    targets += [("construct", f) for f in ns["CONSTRUCT_BUILDERS"]]
    targets += [("perm", f) for f in ns["DOMAIN_BUILDERS"]]
    targets.append(("perm", "StabChain.elements"))
    missing = []
    for mod, attr in targets:
        obj = importlib.import_module(f"factorlab.{mod}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(obj, cls_name, None)
            # install() wraps vars(cls)[meth], so the method must be defined
            # on the class itself
            if cls is None or meth not in vars(cls):
                missing.append(f"{mod}.{attr}")
        elif not callable(getattr(obj, attr, None)):
            missing.append(f"{mod}.{attr}")
    assert not missing, missing
