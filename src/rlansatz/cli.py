"""Command-line entry point.

Subcommands:
  train        train an agent on the configured instance, write run artifacts
  baseline     evaluate one of the fixed ansatzes (qaoa1, qaoa2, maqaoa,
               qaoaplus, linear) under the 10-run random-restart protocol
  brute-force  write the exact spectrum of the configured instance
  matrix       run a (problem x topology x size x algorithm) grid into one CSV
  eval         re-score a saved circuit file on the configured instance

Exit codes: 0 success, 1 runtime failure, 2 invalid configuration or usage.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import subprocess
import sys
import time
from collections import deque
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .agent.training import ARRAY_BYTES_BOUND, train
from .ansatz import BASELINE_BUILDERS, build_baseline
from .circuits import Circuit, action_space, transpiled_counts
from .config import ProblemConfig, RunConfig, check_objective, load_config, load_matrix_config, write_json, write_text
from .errors import ConfigurationError
from .metrics import approximation_ratio, evaluate_circuit
from .problems import ProblemInstance, instance_to_json_dict, make_instance
from .qsim import estimate_expectation, exact_expectation, sample_shots
from .seeding import REWARD_STREAM, derive_seed

def _format_cell(value) -> str:
    if isinstance(value, float):  # includes numpy float64
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, rows: list[dict]) -> None:
    """One line per row dict, through ``write_text``; the header is the first row's keys."""
    columns = list(rows[0])
    text = io.StringIO()
    writer = csv.writer(text)  # ends each line with \r\n
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(row[c]) for c in columns])
    write_text(path, text.getvalue())


def _out_dir(cfg: RunConfig, args) -> Path:
    out = Path(args.out) if args.out else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _override(cfg: RunConfig, args) -> RunConfig:
    """Apply ``--seed`` and ``--workers`` and check the result as the INI values were checked."""
    if args.seed is not None:
        cfg.master_seed = args.seed
    if args.workers is not None:
        cfg.train.workers = args.workers
    cfg.validate()
    return cfg


def _instance(p: ProblemConfig, scored: bool = True) -> ProblemInstance:
    """The instance ``p`` describes; a ``scored`` one must have a non-constant objective."""
    inst = make_instance(p.topology, p.n, p.seed, p.kind, p.penalty, er_p=p.er_p, rows=p.rows)
    if scored:
        check_objective(inst.qubo)
    return inst


def _write_config(out: Path, cfg: RunConfig, inst) -> None:
    write_json(out / "config.json", {**cfg.snapshot(), "instance": instance_to_json_dict(inst)})


def _git(package: Path, *args: str) -> list[str] | None:
    """The output lines of ``git args`` run in ``package``, or None when it fails or git is missing."""
    try:
        done = subprocess.run(["git", *args], cwd=package, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.splitlines() if done.returncode == 0 else None


def _git_state(package: Path) -> dict:
    """``git_rev``, the HEAD of the git checkout that holds ``package`` as its ``src/<package>``, and ``git_dirty``.

    ``git_dirty`` is true when a tracked file of that checkout differs from
    HEAD. Both are None outside a checkout and without git, and also when
    the checkout around ``package`` is some other project's (the package
    installed into an environment inside it): that HEAD says nothing of
    this code.
    """
    lines = _git(package, "rev-parse", "--show-toplevel", "HEAD")
    if lines is None or len(lines) != 2 or (Path(lines[0]) / "src" / package.name).resolve() != package.resolve():
        return {"git_rev": None, "git_dirty": None}
    changes = _git(package, "status", "--porcelain", "--untracked-files=no")
    return {"git_rev": lines[1], "git_dirty": None if changes is None else bool(changes)}


def _write_run_info(out: Path) -> None:
    """Provenance of a training run; kept out of config.json, which reruns compare byte for byte."""
    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        **_git_state(Path(__file__).resolve().parent),
    }
    write_json(out / "run_info.json", info)


def cmd_train(args) -> int:
    cfg = _override(load_config(args.config), args)
    cfg.train.validate()  # the rollout split, checked only where rollouts run
    action_space(cfg.problem.n)  # the agent's n >= 2 rule, checked before anything is written
    needed = cfg.train.array_bytes(cfg.problem.n)
    if needed > ARRAY_BYTES_BOUND:
        raise ConfigurationError(
            f"train at n={cfg.problem.n} needs about {needed / 2**30:.1f} GiB of arrays, "
            f"above the {ARRAY_BYTES_BOUND / 2**30:.0f} GiB bound"
        )
    inst = _instance(cfg.problem)
    out = _out_dir(cfg, args)
    _write_config(out, cfg, inst)
    _write_run_info(out)

    result = train(inst, cfg.train, cfg.master_seed)
    _write_csv(out / "steps.csv", result.steps)
    _write_csv(out / "epochs.csv", result.history)
    write_text(out / "best_circuit.json", json.dumps(result.best_circuit.to_json_dict(), indent=2))

    # fresh shot re-estimate of the best circuit at its trained parameters
    est_seed = derive_seed(cfg.master_seed, REWARD_STREAM)
    estimate = estimate_expectation(
        sample_shots(result.best_circuit, cfg.train.shots, est_seed), inst.ham
    )
    exact = exact_expectation(result.best_circuit, inst.ham)
    counts = transpiled_counts(result.best_circuit)
    report = {
        "best_reward": result.best_reward,
        "best_expectation_during_training": result.best_expectation,
        "reestimated_expectation": estimate,
        "approx_ratio": approximation_ratio(estimate, inst.spectrum, clamp=True),
        "exact_expectation": exact,
        "exact_approx_ratio": approximation_ratio(exact, inst.spectrum, clamp=True),
        "feasibility_threshold_ar": inst.spectrum.feasibility_threshold_ar,
        "single_qubit_gates": counts.single_qubit,
        "two_qubit_gates": counts.two_qubit,
        "depth": counts.depth,
    }
    write_json(out / "report.json", report)
    print(f"run artifacts written to {out}")
    return 0


def _baseline_report(cfg: RunConfig, inst, algorithm: str, circuit, out: Path, extra: dict | None = None) -> dict:
    report = evaluate_circuit(
        circuit,
        inst,
        n_runs=cfg.eval_runs,
        n_shots=cfg.train.shots,
        seed=cfg.master_seed,
        optimizer=cfg.train.optimizer,
    )
    doc = {
        "algorithm": algorithm,
        "n_params": circuit.n_params,
        "feasibility_threshold_ar": inst.spectrum.feasibility_threshold_ar,
        **asdict(report),
        **(extra or {}),
    }
    runs = [
        {"run": i, "ratio": r, "estimate": e}
        for i, (r, e) in enumerate(zip(report.per_run_ratios, report.per_run_estimates))
    ]
    _write_csv(out / "runs.csv", runs)
    write_json(out / "report.json", doc)  # last: matrix --resume takes a readable report as a finished cell
    return doc


def cmd_baseline(args) -> int:
    cfg = _override(load_config(args.config), args)
    inst = _instance(cfg.problem)
    circuit = build_baseline(args.algorithm, inst)
    out = _out_dir(cfg, args)
    _write_config(out, cfg, inst)
    doc = _baseline_report(cfg, inst, args.algorithm, circuit, out)
    print(f"{args.algorithm}: mean A.R. {doc['approx_ratio']:.4f} over {doc['n_runs']} runs -> {out}")
    return 0


def cmd_brute_force(args) -> int:
    cfg = _override(load_config(args.config), args)
    inst = _instance(cfg.problem, scored=False)  # a constant objective is flagged "degenerate"
    out = _out_dir(cfg, args)
    spectrum = inst.spectrum
    doc = {
        "e_min": spectrum.e_min,
        "e_max": spectrum.e_max,
        "feasibility_threshold_ar": spectrum.feasibility_threshold_ar,
        "degenerate": spectrum.degenerate,
        "e_feasible_worst": spectrum.e_feasible_worst,
        "argmin_bitstrings": [
            format(b, f"0{inst.n}b")[::-1] for b in spectrum.ground_states
        ],  # qubit 0 first
        "argmin_indices": list(spectrum.ground_states),
        "n_ground_states": spectrum.n_ground,
        "instance": instance_to_json_dict(inst),
    }
    write_json(out / "spectrum.json", doc)
    print(f"e_min={spectrum.e_min} e_max={spectrum.e_max} -> {out / 'spectrum.json'}")
    return 0


def _cell_settings(cfg: RunConfig) -> dict:
    """The settings besides the cell's own axes that determine a matrix cell."""
    p = cfg.problem
    return {
        "problem_seed": p.seed,
        "penalty": p.penalty,
        "er_p": p.er_p,
        "rows": p.rows,
        "shots": cfg.train.shots,
        "eval_runs": cfg.eval_runs,
        "master_seed": cfg.master_seed,
        "optimizer": asdict(cfg.train.optimizer),
    }


def _earlier_report(path: Path) -> dict:
    """A cell's report from an earlier run; empty when it is missing or does not parse."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def cmd_matrix(args) -> int:
    cfg, cells = load_matrix_config(args.config)
    _override(cfg, args)
    out = Path(args.out or cfg.output_dir)
    settings = _cell_settings(cfg)
    # each cell to run gets its circuit before anything is written; the cells of one problem share its instance
    todo = deque()
    inst = built = None
    for p, algorithm in cells:
        cell = out / f"{p.kind}_{p.topology}_{p.n}_{algorithm}"
        doc = _earlier_report(cell / "report.json") if args.resume else {}
        run = None
        if doc.get("settings") != settings:
            if p != built:
                inst, built = _instance(p), p
            run = (inst, build_baseline(algorithm, inst))
        todo.append((p, algorithm, cell, doc, run))
    inst = None  # from here on the queue alone holds each instance, until its last cell has run
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    while todo:
        p, algorithm, cell, doc, run = todo.popleft()
        cell.mkdir(exist_ok=True)
        if run is None:
            took = "from an earlier run"
        else:
            start = time.perf_counter()
            doc = _baseline_report(cfg, run[0], algorithm, run[1], cell, {"settings": settings})
            took = f"in {time.perf_counter() - start:.2f} s"
        print(f"{cell.name}: mean A.R. {doc['approx_ratio']:.4f} {took}", file=sys.stderr, flush=True)
        rows.append(
            {
                "problem": p.kind,
                "topology": p.topology,
                "n": p.n,
                "algorithm": algorithm,
                "approx_ratio": doc["approx_ratio"],
                "threshold": doc["feasibility_threshold_ar"] or 0.0,
                "single_qubit": doc["single_qubit_gates"],
                "two_qubit": doc["two_qubit_gates"],
                "depth": doc["depth"],
            }
        )
    _write_csv(out / "matrix.csv", rows)
    print(f"{len(rows)} cells -> {out / 'matrix.csv'}")
    return 0


def cmd_eval(args) -> int:
    cfg = _override(load_config(args.config), args)
    if args.runs < 1:
        raise ConfigurationError(f"--runs must be >= 1, got {args.runs}")
    inst = _instance(cfg.problem)
    circuit_path = Path(args.circuit)
    if not circuit_path.is_file():
        raise ConfigurationError(f"circuit file not found: {circuit_path}")
    try:
        circuit = Circuit.from_json_dict(json.loads(circuit_path.read_text()))
    except (ValueError, KeyError, TypeError, OverflowError) as exc:  # OverflowError: an int beyond float range
        raise ConfigurationError(f"malformed circuit file {circuit_path}: {exc}") from exc
    if circuit.n_qubits != inst.n:
        raise ConfigurationError(
            f"circuit on {circuit.n_qubits} qubits vs instance on {inst.n}"
        )
    out = _out_dir(cfg, args)
    report = evaluate_circuit(
        circuit,
        inst,
        n_runs=args.runs,
        n_shots=cfg.train.shots,
        seed=cfg.master_seed,
        random_init=args.random_init,
        optimize=args.reoptimize,
        optimizer=cfg.train.optimizer,
    )
    doc = {
        "circuit": str(circuit_path),
        "exact_approx_ratio": approximation_ratio(exact_expectation(circuit, inst.ham), inst.spectrum, clamp=True),
        **asdict(report),
    }
    write_json(out / "eval_report.json", doc)
    print(f"A.R. {report.approx_ratio:.4f} -> {out / 'eval_report.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rlansatz", description=__doc__.strip().splitlines()[0])
    parser.set_defaults(seed=None, workers=None)  # for the subcommands without these options
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=True):
        p.add_argument("--config", required=True, help="INI config file")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--out", default=None, help="override output directory")

    p_train = sub.add_parser("train", help="train the gate-appending agent")
    add_common(p_train)
    p_train.add_argument("--workers", type=int, default=None, help="override rl.workers")
    p_train.set_defaults(func=cmd_train)

    p_base = sub.add_parser("baseline", help="evaluate a fixed ansatz")
    add_common(p_base)
    p_base.add_argument("algorithm", choices=sorted(BASELINE_BUILDERS))
    p_base.set_defaults(func=cmd_baseline)

    p_bf = sub.add_parser("brute-force", help="write the exact spectrum")
    add_common(p_bf, seed=False)  # the spectrum does not depend on master_seed
    p_bf.set_defaults(func=cmd_brute_force)

    p_matrix = sub.add_parser("matrix", help="run an experiment grid")
    add_common(p_matrix)
    p_matrix.add_argument(
        "--resume", action="store_true", help="reuse cells whose report.json has the current settings"
    )
    p_matrix.set_defaults(func=cmd_matrix)

    p_eval = sub.add_parser("eval", help="re-score a saved circuit")
    add_common(p_eval)
    p_eval.add_argument("--circuit", required=True, help="circuit JSON file")
    p_eval.add_argument("--runs", type=int, default=1)
    p_eval.add_argument("--reoptimize", action="store_true", help="re-optimize parameters first")
    p_eval.add_argument("--random-init", action="store_true", help="randomize parameters per run")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
