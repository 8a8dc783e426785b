"""Checks of the benchmark itself.

    python3 perfbench/selfcheck.py [WORKLOAD ...]

1. BENCHMARK.json names the metrics, with the units, that run.py prints.
2. Two traced samples of each workload with the same seed give identical
   counts: every layer metric whose unit is count, and the checked outputs.
   Later changes can then cite a count without timing noise.
3. tier_a_full enumerates exactly 3036 bindings.

Exits 1 and names the failure if a check fails.
"""

from __future__ import annotations

import json
import sys
import tempfile

from run import END_TO_END, ROOT, WORKLOADS, Runner
from tracing import LAYER_METRICS

TIER_A_BINDINGS = 3036


def check_definition():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
    errors = [] if declared == LAYER_METRICS else ["per_layer differs from tracing.LAYER_METRICS"]
    if {m["name"]: m["unit"] for m in doc["end_to_end"]} != END_TO_END:
        errors.append("end_to_end differs from run.END_TO_END")
    if sorted(w["name"] for w in doc["workloads"]) != sorted(WORKLOADS):
        errors.append("workloads differ from child.WORKLOADS")
    return errors


def check_counts(workload):
    counted = [name for name, (unit, _) in LAYER_METRICS.items() if unit == "count"]
    runs = []
    for _ in range(2):
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
            runner = Runner(workload, 0, workdir)
            runner.prepare()
            runs.append(runner.child("trace"))
    first, second = ({name: r["layers"][name] for name in counted} for r in runs)
    print(workload, json.dumps(first))
    errors = [f"{workload}: {name} {first[name]} then {second[name]}"
              for name in counted if first[name] != second[name]]
    if runs[0]["cases"] != runs[1]["cases"]:
        errors.append(f"{workload}: outputs differ between the two traced samples")
    if workload == "tier_a_full" and first["tables.bindings"] != TIER_A_BINDINGS:
        errors.append(f"tier_a_full: {first['tables.bindings']} bindings, "
                      f"expected {TIER_A_BINDINGS}")
    return errors


def main(argv):
    errors = check_definition()
    for workload in argv or sorted(WORKLOADS):
        errors += check_counts(workload)
    for e in errors:
        print("FAIL", e)
    print("selfcheck", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
