"""factorlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every sample is a fresh single-threaded Python process (child.py), because a
command-line user pays the lazy set-up on every invocation.  The run measures
samples one after another while one more fits in S seconds (at least one),
checks every sample's output against reference/NAME.json, and prints as its
last line one JSON object with correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics: wall_s (median time of the main
call, JSON serialization included), setup_s (median time to import factorlab
and load the database; for triple_sp6q3, to import factorlab.cli; taken in
every sample and in three set-up-only processes before each) and
peak_rss_mb (median peak RSS of a sample process).  wall_s and setup_s are
scaled to a reference CPU speed (child.SpeedProbe); the lines above the
result also give the unscaled wall_raw_s and setup_raw_s.  --trace 1 reports
the layer metrics of one extra traced sample (tracing.py), unscaled, plus
trace.overhead_s, its wall time minus the untraced median, both unscaled.

attempted counts the reference cases checked over all samples; a case fails
if it is missing, its status is not PASS, or a checked field differs from
the reference.  fail_ratio = failed / attempted.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS_PER_SAMPLE = 3
TIME_LIMIT_S = 170
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
sys.path.insert(0, str(HERE))

from child import WORKLOADS  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402


class BenchError(Exception):
    pass


class Runner:
    """Starts child processes for one workload and seed, within the time limit."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = time.monotonic() + TIME_LIMIT_S
        pythonpath = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in pythonpath if p))

    def child(self, mode):
        cmd = [sys.executable, str(HERE / "child.py"), mode, self.workload,
               str(self.seed), self.workdir]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} sample exceeded the {TIME_LIMIT_S} s limit") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} sample exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1])

    def prepare(self):
        """Write the workload's input files, if it has any."""
        if WORKLOADS[self.workload][0] is not None:
            self.child("prepare")

    def samples(self, seconds, setups_per_sample):
        """Whole samples, each after setups_per_sample set-up-only samples, for
        as long as one more round fits in seconds (at least one round); returns
        (whole samples, all samples)."""
        out, every = [], []
        t0 = time.monotonic()
        while True:
            t_round = time.monotonic()
            every += [self.child("setup") for _ in range(setups_per_sample)]
            out.append(self.child("run"))
            every.append(out[-1])
            now = time.monotonic()
            if now - t0 + (now - t_round) > seconds:
                return out, every


def check(samples, reference):
    """(attempted, failed) over all samples against the reference cases."""
    attempted = failed = 0
    for sample in samples:
        got = sample["cases"]
        for case, want in reference.items():
            attempted += 1
            have = got.get(case)
            if (have is None or have.get("status", "PASS") != "PASS"
                    or any(have.get(k) != v for k, v in want.items())):
                failed += 1
    return attempted, failed


def describe(name, values, unit):
    """Median, quartiles as statistics.quantiles gives them, and sample count."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"{name}: median {med:.4f} {unit}, quartiles {q1:.4f}..{q3:.4f}, n={len(values)}"


def measure(args, workdir):
    runner = Runner(args.workload, args.seed, workdir)
    reference = json.loads((HERE / "reference" / f"{args.workload}.json").read_text())["cases"]
    runner.prepare()
    runner.child("setup")  # warm-up: writes the byte-code caches; not counted
    samples, every = runner.samples(args.seconds, 0 if args.trace else SETUPS_PER_SAMPLE)
    series = {key: [s[key] for s in samples] for key in ("wall_s", "wall_raw_s", "rss_mb")}
    series.update({key: [s[key] for s in every] for key in ("setup_s", "setup_raw_s")})
    checked = list(samples)
    report = [describe(key, series[key], "MiB" if key == "rss_mb" else "s") for key in series]
    if args.trace:
        traced = runner.child("trace")
        checked.append(traced)
        values = dict(traced["layers"])
        values["trace.overhead_s"] = traced["wall_raw_s"] - statistics.median(series["wall_raw_s"])
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        report.append(f"traced wall_raw_s: {traced['wall_raw_s']:.4f} s")
    else:
        values = {"wall_s": statistics.median(series["wall_s"]),
                  "setup_s": statistics.median(series["setup_s"]),
                  "peak_rss_mb": statistics.median(series["rss_mb"])}
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    attempted, failed = check(checked, reference)
    report.append(f"fail_ratio: {failed / attempted} ({failed} of {attempted} cases, "
                  f"{len(reference)} per sample, {len(checked)} samples)")
    return attempted, failed, metrics, report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "factorlab" / "__init__.py").is_file():
        print(f"error: no factorlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
            attempted, failed, metrics, report = measure(args, workdir)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in report:
        print("  " + line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
