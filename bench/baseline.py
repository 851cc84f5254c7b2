"""Record a baseline: repeated benchmark runs, summarised per metric.

    python3 bench/baseline.py

Run from the repository root. The workloads, the run length and the bounds
come from ``BENCHMARK.json``. Each of ``SETS`` sets runs every workload
``RUNS`` times with fresh seeds (set 1 uses seeds 1..RUNS, set 2 the next
``RUNS`` seeds), then once traced. For every end-to-end metric it reports the
median, the quartiles and the spread (interquartile distance over the median)
of each set, and the change of each set's median against the first set's.
The summary is written to ``bench/baseline.json``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SETS = 2
RUNS = 10


def _run(workload: str, seed: int, seconds: int, trace: str) -> tuple[dict, list[str]]:
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload]
    command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", trace]
    done = subprocess.run(command, capture_output=True, text=True, check=True, timeout=600)
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), [line for line in lines if line.startswith("input ")]


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {len(os.sched_getaffinity(0))} cores",
        "seconds": seconds,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for s in range(SETS):
            seeds = list(range(1 + s * RUNS, 1 + (s + 1) * RUNS))
            results = [_run(workload, seed, seconds, "0")[0] for seed in seeds]
            traced, inputs = _run(workload, seeds[0], seconds, "1")
            failed = sum(r["failed"] for r in results + [traced])
            metrics = {
                name: _summary([r["metrics"][name]["value"] for r in results]) for name in bounds
            }
            sets.append(
                {
                    "seeds": seeds,
                    "failed": failed,
                    "attempted": sum(r["attempted"] for r in results + [traced]),
                    "end_to_end": metrics,
                    "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
                    "inputs_of_traced_seed": inputs,
                }
            )
            for name, m in metrics.items():
                drift = m["median"] / sets[0]["end_to_end"][name]["median"] - 1
                print(
                    f"{workload} set {s + 1} {name}: median {m['median']:.6g} "
                    f"spread {m['spread']:.4f} (bound {bounds[name]}) drift {drift:+.4f}",
                    flush=True,
                )
            print(f"{workload} set {s + 1}: failed {failed}", flush=True)
        summary["workloads"][workload] = sets
    out = BENCH / "baseline.json"
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
