"""One measured factorlab process.

    python3 child.py MODE WORKLOAD SEED WORKDIR

with the repository's src/ on PYTHONPATH.  MODE is one of

    prepare  write the workload's input files into WORKDIR (not timed);
    setup    time the set-up only;
    run      time the set-up and the workload's main call;
    trace    as run, with timing spans around the public functions.

Prints one JSON object: setup_raw_s, and for run and trace also wall_raw_s,
rss_mb (this process's peak RSS), the checked output fields of every case,
and for trace the layer metrics.  Modes setup and run also give setup_s and
wall_s, the same intervals at the reference CPU speed (SpeedProbe).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

TRIPLE_FILES = ("G.json", "H.json", "K.json")

PROBE_STEPS = 3000
PROBE_INTERVAL_S = 0.02
PROBE_BURST = 5
# a probe tick on an uncontended core of a 2 GHz Xeon, the speed the scaled
# times refer to
REFERENCE_TICK_S = 2.0e-4


def _probe_loop():
    t = time.perf_counter()
    x = 0
    for i in range(PROBE_STEPS):
        x += i * i % 7
    return t, time.perf_counter() - t


class SpeedProbe:
    """Tracks the CPU speed this process gets while it runs.

    On a shared host the speed of a core drifts by up to 1.5x, in phases of
    seconds to minutes, and wall times drift with it.  A SIGALRM handler
    times a fixed pure-Python loop (a tick) every PROBE_INTERVAL_S.  Across
    triple_sp6q3 samples, the mean tick and the wall time correlate at 0.97.
    scale() turns an interval into seconds at the reference speed: its
    elapsed time, less the ticks inside it, times REFERENCE_TICK_S over the
    mean tick.  The mean includes PROBE_BURST ticks run just after the
    interval, so that a short interval has enough of them.
    """

    def __init__(self):
        self.ticks = []  # (start, duration)
        signal.signal(signal.SIGALRM, lambda *_: self.ticks.append(_probe_loop()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def scale(self, t0, t1):
        inside = [d for start, d in self.ticks if t0 <= start < t1]
        burst = [_probe_loop()[1] for _ in range(PROBE_BURST)]
        return (t1 - t0 - sum(inside)) * REFERENCE_TICK_S / statistics.fmean(inside + burst)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def _sweep_setup():
    from factorlab import tables, verify  # noqa: F401  (verify is part of the set-up)

    return tables.load_db()


def _sweep(tier):
    def main(records, seed, workdir):
        from factorlab import verify

        reports, summary = verify.sweep(records, tier=tier, seed=seed)
        return json.dumps({"reports": [r.to_json() for r in reports], "summary": summary},
                          indent=1, sort_keys=True)

    return main


def _sweep_cases(text):
    cases = {}
    for rep in json.loads(text)["reports"]:
        fields = {k: rep["computed"].get(k) for k in ("orderG", "orderH", "orderK", "orderInt")}
        cases[rep["case"]] = {"status": rep["status"], **fields}
    return cases


def _triple_prepare(workdir):
    from factorlab import construct

    G = construct.gens_classical("Sp", 6, 3)
    H, _, _ = construct.ext_field_subgroup("Sp", 1, 3, 3)
    K, _ = construct.parabolic_p1_sp_residual(3, 3)
    for name, spec in zip(TRIPLE_FILES, (G, H, K)):
        doc = {"field": spec.frame.field.serialize(), "n": spec.n,
               "gens": [g.serialize() for g in spec.gens]}
        with open(os.path.join(workdir, name), "w") as fh:
            json.dump(doc, fh)


def _triple_setup():
    from factorlab import cli  # noqa: F401

    return None


def _triple(_, seed, workdir):
    from factorlab import cli

    paths = [os.path.join(workdir, name) for name in TRIPLE_FILES]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["check-triple", *paths, "--format", "json", "--seed", str(seed)])
    return out.getvalue()


def _triple_cases(text):
    try:
        return {"check-triple": json.loads(text)}
    except ValueError:
        return {}


# name -> (prepare, setup, main, cases)
WORKLOADS = {
    "tier_a_full": (None, _sweep_setup, _sweep("a"), _sweep_cases),
    "tier_b_golden": (None, _sweep_setup, _sweep("b"), _sweep_cases),
    "triple_sp6q3": (_triple_prepare, _triple_setup, _triple, _triple_cases),
}


def main(argv):
    mode, name, seed, workdir = argv
    prepare, setup, run, cases = WORKLOADS[name]
    if mode == "prepare":
        if prepare is not None:
            prepare(workdir)
        print("{}")
        return 0
    tracer = probe = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    else:
        probe = SpeedProbe()
    t0 = time.perf_counter()
    state = setup()
    t1 = time.perf_counter()
    out = {"setup_raw_s": t1 - t0}
    if probe is not None:
        out["setup_s"] = probe.scale(t0, t1)
    if mode in ("run", "trace"):
        t1 = time.perf_counter()
        text = run(state, int(seed), workdir)
        t2 = time.perf_counter()
        out["wall_raw_s"] = t2 - t1
        if probe is not None:
            out["wall_s"] = probe.scale(t1, t2)
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["cases"] = cases(text)
        if tracer is not None:
            out["layers"] = tracing.layer_metrics(tracer)
    if probe is not None:
        probe.stop()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
