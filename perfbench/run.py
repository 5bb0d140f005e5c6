"""deqcert benchmark: time to verdict on certificate workloads.

    python3 perfbench/run.py --workload thm1-q --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
One process runs one workload, one instance at a time (closed loop, one
thread).  A pass builds every instance of the workload afresh and then
reaches every verdict; passes repeat while the next one fits in
``--seconds`` (at least one pass, two with tracing).  Each verdict is checked
against the committed answers.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics listed in BENCHMARK.json; with ``--trace 1`` it holds
the per-layer metrics of a traced run instead, whose passes alternate
untraced and traced.  The lines before it repeat the metrics for people.

End-to-end times are taken with ``speedclock.SpeedClock``: seconds at a
nominal machine speed, sampled while the run goes on, so that the slow and
fast phases of a shared host cancel out.  Traced runs use plain wall
seconds.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 0  # seed 7 is held out for confirming claims
SETUPS = 5  # set-up samples per run; setup_s is their median

IMPORT_CODE = (
    "import sys\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "from speedclock import SpeedClock\n"
    "clock = SpeedClock()\n"
    "with clock.running(), clock.interval() as span:\n"
    "    import deqcert.cli\n"
    "print(span.seconds)\n"
)


def import_seconds():
    """Median time to import the package in a fresh interpreter."""
    times = []
    for _ in range(SETUPS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE, SRC, HERE],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


class Pass:
    def __init__(self, traced):
        self.traced = traced
        self.build_s = 0.0
        self.verdicts = []  # seconds per attempted verdict
        self.failures = []  # (instance label, exception type name)
        self.layers = None

    @property
    def suite_s(self):
        return sum(self.verdicts)


def fail(p, label, exc):
    p.failures.append((label, type(exc).__name__))
    print(f"FAILED {label}: {type(exc).__name__}: {exc}", file=sys.stderr)


def build_all(insts, p, clock, tracer=None):
    """Set-up: the inputs of every instance, or None where building raised."""
    states = []
    with clock.interval() as span:
        for inst in insts:
            if tracer is not None:
                tracer.instance = inst.label
            try:
                states.append(inst.build())
            except Exception as exc:  # reported per instance, the run goes on
                fail(p, inst.label, exc)
                states.append(None)
    p.build_s = span.seconds
    return states


def run_pass(insts, clock, tracer=None):
    p = Pass(tracer is not None)
    states = build_all(insts, p, clock, tracer)
    for inst, state in zip(insts, states):
        if state is None:
            continue
        if tracer is not None:
            tracer.instance = inst.label
        try:
            with clock.interval() as span:
                out = inst.verdict(state)
        except Exception as exc:
            p.verdicts.append(span.seconds)
            fail(p, inst.label, exc)
            continue
        p.verdicts.append(span.seconds)
        try:
            inst.check(out)
        except Exception as exc:
            fail(p, inst.label, exc)
    return p


def end_to_end(passes, builds, import_s, peak_rss_mb):
    return {
        "suite_s": statistics.median(p.suite_s for p in passes),
        "verdict_s_p50": statistics.median([t for p in passes for t in p.verdicts] or [0.0]),
        "verdict_s_max": statistics.median(max(p.verdicts, default=0.0) for p in passes),
        "setup_s": import_s + statistics.median(builds),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(passes):
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    values = {key: statistics.median(p.layers[key] for p in traced) for key in traced[0].layers}
    values["trace.overhead_frac"] = (
        statistics.median(p.suite_s for p in traced) / statistics.median(p.suite_s for p in plain) - 1.0
    )
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "deqcert", "__init__.py")):
        print(f"perfbench: no deqcert package under {SRC}; run it from a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    sys.path.insert(0, SRC)
    import workloads
    from speedclock import SpeedClock
    from tracer import Tracer

    insts = workloads.instances(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    clock = SpeedClock(scaled=tracer is None)
    min_passes = 2 if tracer else 1
    passes = []
    start = time.perf_counter()
    with clock.running():
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            pass_start = time.perf_counter()
            if traced:
                tracer.reset()
                tracer.install()
                try:
                    p = run_pass(insts, clock, tracer)
                finally:
                    tracer.uninstall()
                p.layers = tracer.metrics()
            else:
                p = run_pass(insts, clock)
            passes.append(p)
            if len(passes) == 1:
                # a user's process checks each instance once; later passes
                # only add heap fragmentation, and their number varies
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            now = time.perf_counter()
            if len(passes) >= min_passes and now - start + now - pass_start > args.seconds:
                break
        builds = [p.build_s for p in passes]
        while not tracer and len(builds) < SETUPS:
            extra = Pass(False)
            build_all(insts, extra, clock)
            builds.append(extra.build_s)

    if tracer:
        values = per_layer(passes)
        listed = spec["per_layer"]
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        tracer.write_spans(os.path.join(ROOT, ".perfbench", f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        values = end_to_end(passes, builds, import_seconds(), peak_rss_mb)
        listed = spec["end_to_end"]
    if sorted(values) != sorted(m["name"] for m in listed):
        raise RuntimeError("computed metrics differ from those BENCHMARK.json lists")

    attempted = len(insts) * len(passes)
    failed = len({(i, label) for i, p in enumerate(passes) for label, _ in p.failures})
    kinds = {}
    for p in passes:
        for _, kind in p.failures:
            kinds[kind] = kinds.get(kind, 0) + 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of {len(insts)} instances")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':36s} {failed / attempted:.6g} ratio  {kinds or ''}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
