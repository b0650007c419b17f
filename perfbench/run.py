"""Benchmark of ``shellorder``: one workload, one seed, one run.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 32 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run sets up the workload several times (median
reported as ``setup_s``), then repeats its timed pass until ``--seconds``
are spent and reports the end-to-end metrics over those passes.  Times
are scaled to a reference machine speed measured between the calls (see
``Speedometer``); the wall times are printed and recorded too.  With
``--trace 1`` it times one untraced pass, then sets up again with spans
installed and runs one traced pass; it reports the per-layer metrics and
the tracing overhead, and checks the span counts against the counts the
workload implies.  The metrics reported are exactly those declared in
``BENCHMARK.json``.  Every human-readable line goes to stdout before the
last line, which is one JSON object; the full record of the run and the
spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from random import Random

import inputs
from tracing import Tracer
from workloads import WORKLOADS, nearest_rank, suite_labels

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 5
# Seconds one calibration unit takes at the reference speed: its typical
# time on the machine the baseline was taken on (a shared 2-vCPU Xeon
# virtual machine, CPython 3.11).
REFERENCE_UNIT_S = 0.033
# Elasticity of pass time to unit time, fitted over 100 passes of the four
# workloads (0.34 pool, 0.47 subset-sweeps, 0.74 corpus, 0.77 large-inputs).
SPEED_EXPONENT = 0.75
TICK_EVERY_S = 0.5
SUITE_LABELS = frozenset(suite_labels())


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "machine": platform.machine(),
        "cpu": model or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "system": platform.platform(),
    }


class Speedometer:
    """The machine's current speed, from a fixed computation timed between
    the measured calls.

    On a shared machine the processor's throughput switches between
    regimes that last minutes, by up to a factor of two.  One unit is the
    benchmark's own reference shelling check and Hasse promotion on fixed
    inputs: pure Python of the same kind as the package, but not the
    package, so a change to the program does not move it.  ``scale``
    multiplies a wall time measured while the units since ``mark`` ran.
    The package's passes move by the unit's speed ratio raised to about
    0.34-0.77, depending on the workload, so the scale applies the ratio
    to the power ``SPEED_EXPONENT`` rather than in full."""

    def __init__(self) -> None:
        rng = Random(0)
        self._order = inputs.grow_shelling(rng, 12, 4, 100)
        self._ideal = inputs.grow_downset(rng, 12, 4, 60)
        self.units: list[float] = []
        self.last = 0.0

    def tick(self, count: int = 1) -> None:
        gc.disable()  # the package's heap must not be scanned inside a unit
        try:
            for _ in range(count):
                started = time.perf_counter()
                for _ in range(3):
                    inputs.shelling_failure(self._order, 4)
                    inputs.hasse_promoted(self._ideal)
                self.last = time.perf_counter()
                self.units.append(self.last - started)
        finally:
            gc.enable()

    def mark(self) -> int:
        return len(self.units)

    def scale(self, since: int) -> float:
        return (REFERENCE_UNIT_S / statistics.median(self.units[since:])) ** SPEED_EXPONENT


def timed_pass(calls, tracer=None, speed=None) -> dict:
    """Run every call once; outcomes are judged after the pass.  With a
    speedometer, units run before, between (at most every ``TICK_EVERY_S``)
    and after the calls, outside the measured time."""
    latencies, outcomes = [], []
    elapsed = 0.0
    if speed is not None:
        first = speed.mark()
        speed.tick(2)
    for call in calls:
        begun = time.perf_counter()
        try:
            if tracer is not None and call.label in SUITE_LABELS:
                with tracer.span(f"suites.{call.label}"):
                    outcome = call.run()
            else:
                outcome = call.run()
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            outcome = ("exception", f"{type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - begun)
        outcomes.append(outcome)
        if call.after is not None and outcome[0] != "exception":
            call.after(outcome)
        elapsed += time.perf_counter() - begun
        if speed is not None and time.perf_counter() - speed.last >= TICK_EVERY_S:
            speed.tick()
    scale = 1.0
    if speed is not None:
        speed.tick(2)
        scale = speed.scale(first)
    attempted = failed = checks = 0
    for call, outcome in zip(calls, outcomes):
        attempted += call.attempted
        if outcome[0] == "exception":
            failed += call.attempted
            print(f"  exception in {call.label}: {outcome[1]}")
            continue
        bad = call.judge(outcome)
        if bad:
            print(f"  gate: {call.label} failed {bad} operation(s): {str(outcome)[:300]}")
        failed += bad
        checks += outcome[1] if len(outcome) == 4 else 1  # suite report, else one CLI call
    return {"elapsed": elapsed, "scale": scale, "latencies": latencies, "outcomes": outcomes,
            "attempted": attempted, "failed": failed, "checks": checks}


def peak_rss_mb(jobs: int) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss of children is the largest worker's peak; count it per worker
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if jobs > 1 else 0
    return (own + jobs * workers) / 1024


def end_to_end(workload, seconds: float) -> tuple[dict, dict]:
    speed = Speedometer()
    setups, setup_scales = [], []
    for _ in range(SETUPS):
        first = speed.mark()
        speed.tick(2)
        setups.append(workload.setup())
        speed.tick(2)
        setup_scales.append(speed.scale(first))
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        passes.append(timed_pass(workload.calls(workload.jobs), speed=speed))
        walls = [p["elapsed"] for p in passes]
        if time.perf_counter() + statistics.median(walls) > deadline:
            break
    sweep_s = statistics.median(p["elapsed"] * p["scale"] for p in passes)

    def percentile_ms(q: float) -> float:
        return 1000 * statistics.median(
            nearest_rank(p["latencies"], q) * p["scale"] for p in passes)

    metrics = {
        "sweep_s": sweep_s,
        "checks_per_s": passes[0]["checks"] / sweep_s,
        "setup_s": statistics.median(s * c for s, c in zip(setups, setup_scales)),
        "peak_rss_mb": peak_rss_mb(workload.jobs),
        "call_p50_ms": percentile_ms(0.5),
        "call_p90_ms": percentile_ms(0.9),
    }
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    same = all(p["outcomes"] == passes[0]["outcomes"] for p in passes)
    calls_per_pass = len(passes[0]["latencies"])
    record = {
        "wall_setup_s_each": setups, "setup_scale_each": setup_scales,
        "wall_sweep_s_each": walls, "sweep_scale_each": [p["scale"] for p in passes],
        "wall_sweep_s": statistics.median(walls), "calibration_units_s": speed.units,
        "wall_p50_ms_each": [1000 * nearest_rank(p["latencies"], 0.5) for p in passes],
        "wall_p90_ms_each": [1000 * nearest_rank(p["latencies"], 0.9) for p in passes],
        "calls_per_pass": calls_per_pass, "passes": len(passes),
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "passes_agree": same,
    }
    print(f"set-ups: {SETUPS}; passes: {len(passes)}; latency samples: {calls_per_pass} "
          f"per pass, percentiles taken per pass and their median reported")
    print(f"wall time of a pass: {record['wall_sweep_s']:.4f} s (median); speed scale "
          f"{statistics.median(record['sweep_scale_each']):.4f} (median of passes; "
          f"{len(speed.units)} calibration units, median {statistics.median(speed.units):.4f} s, "
          f"reference {REFERENCE_UNIT_S} s)")
    print(f"fail_ratio: {record['fail_ratio']:.6g} ({failed} of {attempted} operations)")
    return metrics, record


def traced(workload) -> tuple[dict, dict]:
    # at --jobs 1 only: spans inside pool workers cannot be seen
    workload.setup()
    plain = timed_pass(workload.calls(1))
    tracer = Tracer()
    workload.setup(before_build=tracer.install)
    try:
        spanned = timed_pass(workload.calls(1), tracer)
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"spans-{workload.name}.bin")

    calls, truths, own = tracer.calls, tracer.truths, tracer.self_times()
    walls = tracer.wall_times()
    metrics = {}
    for name in set(calls) | set(own):
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = own.get(name, 0.0)
    for metric, name in (("shelling.append_ok.accept_ratio", "shelling.append_ok"),
                         ("matroid.has_quasi_exchange.true_ratio", "matroid.has_quasi_exchange")):
        metrics[metric] = truths[name] / calls[name] if calls[name] else 0.0
    for label in SUITE_LABELS:
        metrics[f"suites.{label}.wall_s"] = walls.get(f"suites.{label}", 0.0)
    metrics["promotion.graphs_per_check"] = calls["promotion.graph_of"] / spanned["checks"]
    metrics["suites.chunks"] = tracer.chunks
    metrics["trace.overhead_s"] = spanned["elapsed"] - plain["elapsed"]
    metrics["trace.spans"] = len(tracer.start)

    mismatches = []
    for key, want in sorted(workload.expected_counts(truths).items()):
        got = calls[key.removesuffix(".calls")]
        print(f"cross-check {key}: expected {want}, traced {got}"
              f"{'' if got == want else '  MISMATCH'}")
        if got != want:
            mismatches.append(key)
    same = plain["outcomes"] == spanned["outcomes"]
    print(f"tallies with tracing on and off: {'identical' if same else 'DIFFER'}")
    print(f"untraced pass {plain['elapsed']:.4f} s, traced pass {spanned['elapsed']:.4f} s, "
          f"{len(tracer.start)} spans")
    attempted = plain["attempted"] + spanned["attempted"]
    failed = plain["failed"] + spanned["failed"] + len(mismatches) + (0 if same else 1)
    record = {"untraced_s": plain["elapsed"], "traced_s": spanned["elapsed"],
              "cross_check_mismatches": mismatches, "tallies_identical": same,
              "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
              "passes_agree": True}
    return metrics, record


def declared(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "shellorder" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'shellorder'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    specs = declared(bool(args.trace))
    OUT.mkdir(exist_ok=True)
    info = machine()
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("machine: {machine}, {cpu}, nproc={nproc}, cpu_count={cpu_count}, {python}, "
          "{system}".format(**info))

    workload = WORKLOADS[args.workload](args.seed, OUT / f"inputs-{args.workload}-{os.getpid()}")
    try:
        if args.trace:
            computed, record = traced(workload)
        else:
            computed, record = end_to_end(workload, args.seconds)
    finally:
        workload.close()

    metrics = {}
    for spec in specs:
        value = computed[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']:<48} {value:>14.6g} {spec['unit']}")
    correct = record["failed"] == 0 and record["passes_agree"]
    result = {"correct": correct, "attempted": record["attempted"],
              "failed": record["failed"], "metrics": metrics}
    full = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, machine=info, record=record, all_metrics=computed)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
