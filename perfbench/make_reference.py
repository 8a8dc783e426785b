"""Write reference/WORKLOAD.json from one untraced sample of each workload.

    python3 perfbench/make_reference.py [WORKLOAD ...]

The reference holds, per case, the fields run.py checks: for the sweeps the
status and the four orders, for check-triple its five output fields.  It is
taken once from a commit whose output is trusted, and refuses to write a
reference in which a case did not PASS.
"""

from __future__ import annotations

import json
import sys
import tempfile

from run import HERE, ROOT, WORKLOADS, Runner


def write_reference(workload):
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        runner = Runner(workload, 0, workdir)
        runner.prepare()
        cases = runner.child("run")["cases"]
    bad = [case for case, fields in cases.items()
           if fields.get("status", "PASS") != "PASS" or fields.get("factorization") is False]
    if not cases or bad:
        raise SystemExit(f"{workload}: refusing a reference with failing cases {bad[:5]}")
    lines = [f"  {json.dumps(case)}: {json.dumps(fields, sort_keys=True)}"
             for case, fields in sorted(cases.items())]
    path = HERE / "reference" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(f'{{"workload": "{workload}", "cases": {{\n' + ",\n".join(lines) + "\n}}\n")
    print(f"{path.relative_to(ROOT)}: {len(cases)} cases")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(WORKLOADS):
        write_reference(name)
