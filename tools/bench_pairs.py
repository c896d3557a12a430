"""Alternating before/after benchmark pairs, written to one BENCH_*.json file.

Usage (from the repository root):

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \
        --pairs train_cycle6=10,baseline_qaoa2_n14=5,matrix_n8=5 --out BENCH_6.json

Each side is the committed tree of its revision, exported with
``git archive`` into a temporary directory, so neither side sees
uncommitted files and the repository gains no worktree entries. Pair i of
a workload runs ``python3 perfbench/run.py --trace 0`` with seed
``--first-seed + i`` once on each side; the side that runs first
alternates from pair to pair, so a drift of the host's speed falls on both
sides alike. Then each side makes three traced runs (``--trace 1``, seed
0) per workload, again alternating which side goes first; each metric of
the layer table is the median of the three, whose values are recorded too.

Per workload the file records, for each end-to-end metric of
``BENCHMARK.json``: each side's values, median and quartiles, the ratio of
the medians and the number of pairs the change won (by the metric's
``better`` direction). It also records each side's ``info.fingerprint``
per seed and both traced metric tables, with the values of each traced
run. The machine block holds the core count, the python and numpy
versions and both git revisions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(REPO), *args], check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The committed files of ``rev`` into ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run: its result line plus the ``info`` line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(tree / "bench-out")]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited with {done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    info = next((json.loads(line[5:]) for line in lines if line.startswith("info ")), {})
    print(f"  {tree.name} seed {seed} trace {trace}: failed {result['failed']}/{result['attempted']}, "
          + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items() if not trace),
          file=sys.stderr, flush=True)
    return {"result": result, "fingerprint": info.get("fingerprint")}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def parse_pairs(text: str, workloads: list[str]) -> dict[str, int]:
    if "=" not in text:
        return dict.fromkeys(workloads, int(text))
    pairs = {name: int(n) for name, n in (item.split("=") for item in text.split(","))}
    unknown = set(pairs) - set(workloads)
    if unknown:
        raise SystemExit(f"unknown workloads: {', '.join(sorted(unknown))}")
    return pairs


def main(argv=None) -> int:
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision measured as the parent")
    parser.add_argument("--change", required=True, help="git revision measured as the change")
    parser.add_argument("--pairs", default="10", help="pairs per workload: N, or name=N,name=N")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=20)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    pairs = parse_pairs(args.pairs, names)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    import numpy as np

    revs = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    doc = {
        "machine": {
            "cores": os.cpu_count(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "parent_rev": revs["parent"],
            "change_rev": revs["change"],
        },
        "settings": {"seconds": args.seconds, "first_seed": args.first_seed, "pairs": pairs},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in revs}
        for side, tree in trees.items():
            export(revs[side], tree)
        for name, n_pairs in pairs.items():
            print(f"{name}: {n_pairs} pairs", file=sys.stderr, flush=True)
            runs = {side: [] for side in trees}
            seeds = [args.first_seed + i for i in range(n_pairs)]
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run_bench(trees[side], name, seed, args.seconds, trace=0))
            metrics = {}
            for metric, direction in better.items():
                values = {side: [r["result"]["metrics"][metric]["value"] for r in runs[side]] for side in trees}
                sign = 1 if direction == "higher" else -1
                won = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
                stats = {side: summary(v) for side, v in values.items()}
                metrics[metric] = {
                    **stats,
                    "better": direction,
                    "change_over_parent": stats["change"]["median"] / stats["parent"]["median"],
                    "pairs_won": won,
                }
            fingerprints = {side: [r["fingerprint"] for r in runs[side]] for side in trees}
            traced = {side: [] for side in trees}
            for i in range(3):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    traced[side].append(run_bench(trees[side], name, 0, args.seconds, trace=1)["result"])
            traced_values = {
                side: {k: [t["metrics"][k]["value"] for t in results] for k in results[0]["metrics"]}
                for side, results in traced.items()
            }
            doc["workloads"][name] = {
                "seeds": seeds,
                "metrics": metrics,
                "failed": {side: sum(r["result"]["failed"] for r in runs[side]) for side in trees},
                "fingerprints": {**fingerprints, "identical": fingerprints["parent"] == fingerprints["change"]},
                "traced_seed0": {
                    side: {
                        "failed": sum(t["failed"] for t in traced[side]),
                        **{k: statistics.median(v) for k, v in values.items()},
                    }
                    for side, values in traced_values.items()
                },
                "traced_seed0_runs": traced_values,
            }
            args.out.write_text(json.dumps(doc, indent=1) + "\n")  # keep what is done if a later run fails
    return 0


if __name__ == "__main__":
    sys.exit(main())
