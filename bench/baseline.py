"""Record a baseline: repeated untraced runs plus one traced run per workload.

    python3 bench/baseline.py

Each run is a fresh `bench/run.py` process with its own seed (1..RUNS),
measuring for the `run_seconds` of BENCHMARK.json; results go to
bench/baseline.json.
For every end-to-end metric the file keeps the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and their distance as a share
of the median; the traced run (seed 1) gives the per-layer figures and the
tracing overhead. Later changes compare against this file.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("catalog", "synthesis", "multicopy")
RUNS = 10


def _run(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    provenance = json.loads(lines[0])["provenance"]
    return provenance, json.loads(lines[-1]), lines


def _summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_over_median": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main():
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out = {"run_seconds": seconds, "seeds": list(range(1, RUNS + 1)),
           "untraced": {}, "traced": {}}
    for workload in WORKLOADS:
        values, attempted, failed, correct = {}, 0, 0, True
        for seed in out["seeds"]:
            prov, result, _ = _run(workload, seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            correct &= result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            summary = {k: round(statistics.median(v), 4) for k, v in values.items()}
            print(f"{workload} seed {seed}: {result['failed']}/{result['attempted']} failed, "
                  f"running medians {summary}", flush=True)
        out["provenance"] = {k: v for k, v in prov.items() if k not in ("workload", "seed")}
        out["untraced"][workload] = {
            "metrics": {name: _summary(v) for name, v in values.items()},
            "attempted": attempted,
            "failed": failed,
            "fail_frac": failed / attempted,
            "correct": correct,
        }
        _, result, lines = _run(workload, 1, seconds, 1)
        overhead_line = next(line for line in lines if "tracing overhead" in line)
        identical_line = next(line for line in lines if "bit-identical" in line)
        out["traced"][workload] = {
            "seed": 1,
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "bit_identical": identical_line.strip(),
            "overhead": overhead_line.strip(),
        }
        print(f"{workload} traced: {identical_line.strip()}; {overhead_line.strip()}", flush=True)
        (HERE / "baseline.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    for workload, data in out["untraced"].items():
        for name, s in data["metrics"].items():
            print(f"{workload:10s} {name:16s} median {s['median']:.5g} "
                  f"iqr/median {s['iqr_over_median']:.4f}")


if __name__ == "__main__":
    main()
