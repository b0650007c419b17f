"""Run the benchmark on several seeds and summarise each metric.

    python3 perfbench/repeat.py --workloads corpus,pool --seeds 1-10 --seconds 32

For every workload it runs ``run.py`` once per seed, one run after the
other, and reports each end-to-end metric's median, quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and spread, the distance
between the quartiles as a share of the median.  The summary, with the
machine and every value, is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: str) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
    done = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    full = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
    result["machine"] = full["machine"]
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="32")
    parser.add_argument("--out", default=str(HERE / "out" / "repeat.json"))
    args = parser.parse_args()

    summary = {"seconds": float(args.seconds), "workloads": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds_of(args.seeds):
            started = time.perf_counter()
            result = run_once(workload, seed, args.seconds)
            results.append(result)
            print(f"{workload} seed {seed} ({time.perf_counter() - started:.1f} s): correct="
                  f"{result['correct']} failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary["machine"] = results[0]["machine"]
        metrics = {
            name: dict(summarise([r["metrics"][name]["value"] for r in results]),
                       unit=results[0]["metrics"][name]["unit"])
            for name in results[0]["metrics"]
        }
        summary["workloads"][workload] = {
            "seeds": seeds_of(args.seeds),
            "all_correct": all(r["correct"] for r in results),
            "metrics": metrics,
        }
        for name, m in metrics.items():
            print(f"  {name:<14} median {m['median']:.5g} {m['unit']}  quartiles "
                  f"{m['q1']:.5g}..{m['q3']:.5g}  spread {m['spread']:.3f}")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
