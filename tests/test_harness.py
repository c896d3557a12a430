"""CLI subcommands, artifacts, exit codes and reproducibility."""

import csv
import json

import pytest

from rlansatz.cli import main
from rlansatz.circuits import Circuit


def write_config(path, *, n=4, topology="cycle", kind="maxcut", extra=""):
    path.write_text(
        f"""
[problem]
kind = {kind}
topology = {topology}
n = {n}
seed = 1

[rl]
epochs = 2
steps_per_epoch = 8
workers = 2

[optimizer]
max_iterations = 40

[run]
shots = 200
eval_runs = 3
master_seed = 11
output_dir = {path.parent / 'default_out'}
{extra}
"""
    )
    return path


def test_default_config_values():
    from rlansatz.config import RunConfig

    cfg = RunConfig()
    assert cfg.rl.epochs == 64
    assert cfg.rl.steps_per_epoch == 384
    assert cfg.rl.beta == 0.015
    assert cfg.rl.patience == 3
    assert cfg.rl.max_episode_steps_factor == 2
    assert cfg.shots == 1000
    assert cfg.optimizer.max_iterations == 1000
    assert cfg.eval_runs == 10


def test_rl_discount_keys_reach_ppo_hyperparams(tmp_path):
    from rlansatz.config import load_config

    path = tmp_path / "discount.ini"
    path.write_text("[rl]\ngamma = 0.5\ngae_lambda = 0.8\n")
    ppo = load_config(path).train_config().ppo
    assert (ppo.gamma, ppo.gae_lambda) == (0.5, 0.8)


def test_train_writes_all_artifacts(tmp_path):
    cfg = write_config(tmp_path / "toy.ini")
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("config.json", "steps.csv", "epochs.csv", "best_circuit.json", "report.json"):
        assert (out / name).is_file(), name
    snapshot = json.loads((out / "config.json").read_text())
    assert snapshot["version"]
    assert snapshot["instance"]["edges"]
    with open(out / "steps.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 16
    report = json.loads((out / "report.json").read_text())
    assert 0.0 <= report["approx_ratio"] <= 1.0
    circuit = Circuit.load(out / "best_circuit.json")
    assert circuit.n_qubits == 4


def test_train_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "toy.ini")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "steps.csv").read_bytes() == (out2 / "steps.csv").read_bytes()
    assert (out1 / "epochs.csv").read_bytes() == (out2 / "epochs.csv").read_bytes()


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.ini")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_bad_config_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[problem]\nkind = maxcut\nbogus = 1\n")
    assert main(["brute-force", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_unknown_algorithm_is_usage_error(tmp_path):
    cfg = write_config(tmp_path / "toy.ini")
    with pytest.raises(SystemExit) as exc:
        main(["baseline", "nonsense", "--config", str(cfg)])
    assert exc.value.code == 2


def test_baseline_reports(tmp_path):
    cfg = write_config(tmp_path / "toy.ini")
    out = tmp_path / "base"
    assert main(["baseline", "linear", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["n_runs"] == 3
    assert len(report["per_run_ratios"]) == 3
    with open(out / "runs.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 3


def test_baseline_qaoa2_has_four_params(tmp_path):
    cfg = write_config(tmp_path / "toy.ini")
    out = tmp_path / "q2"
    assert main(["baseline", "qaoa2", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["n_params"] == 4


def test_brute_force_k3(tmp_path):
    cfg = write_config(tmp_path / "k3.ini", n=3)
    out = tmp_path / "bf"
    assert main(["brute-force", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "spectrum.json").read_text())
    assert doc["e_min"] == -2.0
    assert doc["e_max"] == 0.0
    assert doc["feasibility_threshold_ar"] == 0.0
    assert not doc["degenerate"]
    assert doc["n_ground_states"] == 6


def test_brute_force_degenerate_flagged(tmp_path):
    cfg = tmp_path / "deg.ini"
    cfg.write_text("[problem]\nkind = maxcut\ntopology = erdos_renyi\nn = 4\nseed = 1\ner_p = 0.0\n")
    out = tmp_path / "bf"
    assert main(["brute-force", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "spectrum.json").read_text())
    assert doc["degenerate"]


def test_matrix_grid_and_resume(tmp_path):
    cfg = write_config(tmp_path / "m.ini", n=4)
    cfg.write_text(
        cfg.read_text()
        + "\n[matrix]\nproblems = maxcut, minvertexcover\ntopologies = cycle, star\nsizes = 4\nalgorithms = qaoa1, linear\n"
    )
    out = tmp_path / "grid"
    assert main(["matrix", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "matrix.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    marker = out / "maxcut_cycle_4_qaoa1" / "report.json"
    stamp = marker.stat().st_mtime_ns
    assert main(["matrix", "--config", str(cfg), "--out", str(out), "--resume"]) == 0
    assert marker.stat().st_mtime_ns == stamp  # cell skipped


def test_matrix_without_section_exits_2(tmp_path):
    cfg = write_config(tmp_path / "m.ini")
    assert main(["matrix", "--config", str(cfg), "--out", str(tmp_path / "g")]) == 2


def test_eval_saved_circuit(tmp_path):
    cfg = write_config(tmp_path / "toy.ini")
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    out = tmp_path / "ev"
    assert (
        main(
            [
                "eval",
                "--config",
                str(cfg),
                "--circuit",
                str(run / "best_circuit.json"),
                "--out",
                str(out),
                "--runs",
                "2",
            ]
        )
        == 0
    )
    doc = json.loads((out / "eval_report.json").read_text())
    assert doc["n_runs"] == 2
    assert 0.0 <= doc["exact_approx_ratio"] <= 1.0


def test_eval_wrong_size_circuit_exits_2(tmp_path):
    cfg = write_config(tmp_path / "toy.ini")
    other = write_config(tmp_path / "other.ini", n=6)
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    code = main(
        ["eval", "--config", str(other), "--circuit", str(run / "best_circuit.json"), "--out", str(tmp_path / "e")]
    )
    assert code == 2
