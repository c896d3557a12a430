"""Run the benchmark over several seeds and summarise the spread of each metric.

    python3 perfbench/sweep.py --seeds 0-9 [--workloads train_cycle6,...]
                               [--trace-seed 0] [--write perfbench/reference.json]

Runs ``run.py`` once per (workload, seed), one at a time, with the settings
in BENCHMARK.json. For each end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which is
(q3 - q1) / median, next to the metric's bound. ``--trace-seed`` adds one
traced run per workload. ``--write`` stores the summary, with the machine's
provenance, as a reference entry.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}\n{done.stderr}")
    tagged = {line.split(" ", 1)[0]: json.loads(line.split(" ", 1)[1]) for line in lines[:-1] if " {" in line}
    return {"result": json.loads(lines[-1]), **tagged}


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--write", type=Path, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, spec["run_seconds"], 0) for s in args.seeds]
        summary["machine"] = runs[0]["provenance"]
        entry = {
            "seeds": args.seeds,
            "fingerprints": {str(s): r["info"]["fingerprint"] for s, r in zip(args.seeds, runs)},
            "reps": [r["info"]["reps"] for r in runs],
            "end_to_end": {},
        }
        for metric in bounds:
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            entry["end_to_end"][metric] = {"unit": runs[0]["result"]["metrics"][metric]["unit"], **summarise(values)}
            s = entry["end_to_end"][metric]
            print(f"{workload:20s} {metric:14s} median {s['median']:12.5g}  spread {s['spread']:7.4f}"
                  f"  bound {bounds[metric]:.2f}  values {' '.join(f'{v:.4g}' for v in values)}", flush=True)
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, spec["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
            entry["trace_detail"] = traced["info"]
            for k, v in entry["per_layer"].items():
                print(f"{workload:20s} {k:28s} {v:.6g}", flush=True)
        summary["workloads"][workload] = entry
    if args.write:
        args.write.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
