"""Run a fixed set of CLI commands on two revisions and compare what they write, byte for byte.

Usage (from the repository root):

    python3 tools/same_outputs.py --parent HEAD~1 --change HEAD

Each side is the committed tree of its revision, exported as
``tools/bench_pairs.py`` exports it. In each tree the script writes the same
INI files into one work directory and runs, from there and with the same
relative paths (so the circuit path that ``eval`` records matches too):

- ``train`` on the criterion 9/10 config (6-cycle MaxCut, 16 x 128 steps,
  one worker) with seeds 101 and 202;
- ``train --workers 3`` on 3-regular MaxCut, n = 6, over 3 epochs of 24
  steps, so that episodes run across epoch boundaries;
- ``baseline qaoa2`` and ``brute-force`` on that instance;
- a 12-cell ``matrix``: {maxcut, minvertexcover} x {cycle, star} x {6} x
  {qaoa1, maqaoa, linear};
- ``eval --reoptimize --random-init`` on the ``--workers 3`` run's best
  circuit;
- ``baseline qaoa2`` on 3-regular MaxCut and minimum vertex cover at
  n = 12, where the plan fuses layers and runs MaxCut in half mode;
- a 4-cell ``matrix`` at n = 8: {maxcut, minvertexcover} x {grid2d} x
  {8} x {qaoa1, maqaoa}, as the benchmark's ``matrix_n8`` runs it, where
  the plan fuses the cost and mixer layers that touch every qubit but
  still draws by multinomial.

Then it compares every file of the two work directories except
``run_info.json``, which records the machine and the git revision. It prints
each file that differs or exists on one side only and exits 1 if there is
any, 0 otherwise. Both sides run with the same python and numpy, so equal
bytes say the change kept every output. The whole run takes a few minutes
on 2 vCPU, most of it the two criterion 9/10 trainings per side.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import export, git

IGNORED = {"run_info.json"}

INI_FILES = {
    "criterion.ini": """[problem]
kind = maxcut
topology = cycle
n = 6
seed = 0

[rl]
epochs = 16
steps_per_epoch = 128
workers = 1

[run]
shots = 1000
master_seed = 0
""",
    "small.ini": """[problem]
kind = maxcut
topology = three_regular
n = 6
seed = 1

[rl]
epochs = 3
steps_per_epoch = 24
workers = 1

[run]
shots = 1000
eval_runs = 4
master_seed = 5
""",
    "grid.ini": """[problem]
seed = 1

[run]
shots = 1000
eval_runs = 2
master_seed = 3

[matrix]
problems = maxcut, minvertexcover
topologies = cycle, star
sizes = 6
algorithms = qaoa1, maqaoa, linear
""",
    "grid8.ini": """[problem]
topology = grid2d
seed = 0

[run]
shots = 1000
eval_runs = 2
master_seed = 11

[matrix]
problems = maxcut, minvertexcover
topologies = grid2d
sizes = 8
algorithms = qaoa1, maqaoa
""",
}
for kind in ("maxcut", "minvertexcover"):
    INI_FILES[f"n12_{kind}.ini"] = f"""[problem]
kind = {kind}
topology = three_regular
n = 12
seed = 1

[run]
shots = 1000
master_seed = 7
"""

COMMANDS = [
    ["train", "--config", "criterion.ini", "--out", "train_101", "--seed", "101"],
    ["train", "--config", "criterion.ini", "--out", "train_202", "--seed", "202"],
    ["train", "--config", "small.ini", "--out", "train_workers3", "--workers", "3"],
    ["baseline", "qaoa2", "--config", "small.ini", "--out", "baseline_qaoa2"],
    ["matrix", "--config", "grid.ini", "--out", "matrix"],
    ["brute-force", "--config", "small.ini", "--out", "brute_force"],
    ["eval", "--config", "small.ini", "--circuit", "train_workers3/best_circuit.json",
     "--reoptimize", "--random-init", "--runs", "2", "--out", "eval"],
    ["baseline", "qaoa2", "--config", "n12_maxcut.ini", "--out", "baseline_qaoa2_n12_maxcut"],
    ["baseline", "qaoa2", "--config", "n12_minvertexcover.ini", "--out", "baseline_qaoa2_n12_minvertexcover"],
    ["matrix", "--config", "grid8.ini", "--out", "matrix_n8"],
]


def run_commands(tree: Path) -> Path:
    """Write the INI files into ``tree``'s work directory, run every command there, and return the directory."""
    work = tree / "same-outputs"
    work.mkdir()
    for name, text in INI_FILES.items():
        (work / name).write_text(text)
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    for args in COMMANDS:
        print(f"  {tree.name}: rlansatz {' '.join(args)}", file=sys.stderr, flush=True)
        done = subprocess.run([sys.executable, "-m", "rlansatz.cli", *args], cwd=work, env=env,
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"rlansatz {' '.join(args)} in {tree} exited with {done.returncode}:\n{done.stderr[-2000:]}")
    return work


def differing_files(a: Path, b: Path) -> list[str]:
    """Relative paths of the files under ``a`` and ``b`` that differ or exist on one side only.

    Files named in ``IGNORED`` are skipped.
    """
    def files(root: Path) -> set[str]:
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file() and p.name not in IGNORED}

    in_a, in_b = files(a), files(b)
    return sorted((in_a ^ in_b) | {f for f in in_a & in_b if (a / f).read_bytes() != (b / f).read_bytes()})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision whose outputs are the reference")
    parser.add_argument("--change", required=True, help="git revision whose outputs are compared with them")
    args = parser.parse_args(argv)
    revs = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        work = {}
        for side, rev in revs.items():
            tree = Path(tmp) / side
            export(rev, tree)
            work[side] = run_commands(tree)
        compared = sum(1 for p in work["parent"].rglob("*") if p.is_file() and p.name not in IGNORED)
        differing = differing_files(work["parent"], work["change"])
    for name in differing:
        print(f"differs: {name}")
    print(f"{len(differing)} of {compared} files differ between {revs['parent'][:12]} and {revs['change'][:12]}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
