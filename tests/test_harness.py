"""CLI subcommands, artifacts, exit codes and reproducibility."""

import csv
import json
import os
import platform
import re
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from rlansatz import cli
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
    assert cfg.train.epochs == 64
    assert cfg.train.steps_per_epoch == 384
    assert cfg.train.beta == 0.015
    assert cfg.train.patience == 3
    assert cfg.train.max_episode_steps_factor == 2
    assert cfg.train.shots == 1000
    assert cfg.train.optimizer.max_iterations == 1000
    assert cfg.eval_runs == 10


def test_rl_discount_keys_reach_ppo_hyperparams(tmp_path):
    from rlansatz.config import load_config

    path = tmp_path / "discount.ini"
    path.write_text("[rl]\ngamma = 0.5\ngae_lambda = 0.8\n")
    ppo = load_config(path).train.ppo
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
    circuit = Circuit.from_json_dict(json.loads((out / "best_circuit.json").read_text()))
    assert circuit.n_qubits == 4


def test_train_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "toy.ini")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "steps.csv").read_bytes() == (out2 / "steps.csv").read_bytes()
    assert (out1 / "epochs.csv").read_bytes() == (out2 / "epochs.csv").read_bytes()


def test_train_writes_provenance_to_run_info_not_config(tmp_path):
    cfg = write_config(tmp_path / "toy.ini")
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    info = json.loads((out / "run_info.json").read_text())
    assert set(info) == {"python", "numpy", "platform", "cpu_count", "git_rev", "git_dirty"}
    assert (info["python"], info["numpy"]) == (platform.python_version(), np.__version__)
    assert info["cpu_count"] == os.cpu_count() and info["platform"]
    assert info["git_rev"] is None or len(info["git_rev"]) >= 40
    assert info["git_dirty"] in ((None,) if info["git_rev"] is None else (True, False))
    assert not set(info) & set(json.loads((out / "config.json").read_text()))


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_git_rev_is_the_head_only_of_the_checkout_that_holds_the_package(tmp_path, monkeypatch):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))  # git looks no further up
    source = Path(cli.__file__).resolve().parent

    def commit(repo):
        git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
        subprocess.run([*git, "init", "-q"], check=True)
        subprocess.run([*git, "add", "-A"], check=True)
        subprocess.run([*git, "commit", "-q", "-m", "files"], check=True)
        return subprocess.run([*git, "rev-parse", "HEAD"], check=True, capture_output=True, text=True).stdout.strip()

    unknown = {"git_rev": None, "git_dirty": None}
    checkout = tmp_path / "checkout"
    package = shutil.copytree(source, checkout / "src" / "rlansatz", ignore=shutil.ignore_patterns("__pycache__"))
    assert cli._git_state(package) == unknown  # no checkout yet
    head = commit(checkout)
    assert cli._git_state(package) == {"git_rev": head, "git_dirty": False}
    (checkout / "notes.txt").write_text("untracked\n")  # an untracked file leaves the tracked code as committed
    assert cli._git_state(package) == {"git_rev": head, "git_dirty": False}
    with (package / "qsim.py").open("a") as tracked:
        tracked.write("\n")
    assert cli._git_state(package) == {"git_rev": head, "git_dirty": True}
    # installed into an environment inside an unrelated project: its HEAD is not this code's
    project = tmp_path / "project"
    installed = shutil.copytree(source, project / ".venv" / "lib" / "site-packages" / "rlansatz")
    commit(project)
    assert cli._git_state(installed) == unknown
    assert cli._git_state(project / ".venv") == unknown


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


def test_matrix_grid_and_resume(tmp_path, monkeypatch):
    import rlansatz.cli as cli

    built = []
    make_instance = cli.make_instance

    def spy(*args, **kwargs):
        built.append(args)
        return make_instance(*args, **kwargs)

    monkeypatch.setattr(cli, "make_instance", spy)
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
    assert len(built) == 4  # one instance per problem, shared by its two cells
    marker = out / "maxcut_cycle_4_qaoa1" / "report.json"
    stamp = marker.stat().st_mtime_ns
    assert main(["matrix", "--config", str(cfg), "--out", str(out), "--resume"]) == 0
    assert marker.stat().st_mtime_ns == stamp  # cell skipped
    assert len(built) == 4  # a reused cell builds nothing


def test_matrix_prints_one_stderr_line_per_cell_and_keeps_its_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path / "m.ini", n=4)
    cfg.write_text(
        cfg.read_text() + "\n[matrix]\nproblems = maxcut\ntopologies = cycle, star\nsizes = 4\nalgorithms = qaoa1, linear\n"
    )
    names = [f"maxcut_{t}_4_{a}" for t in ("cycle", "star") for a in ("qaoa1", "linear")]
    outputs = {}
    for run in ("first", "again"):
        out = tmp_path / run
        assert main(["matrix", "--config", str(cfg), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == f"4 cells -> {out / 'matrix.csv'}\n"
        lines = captured.err.splitlines()
        assert [line.split(":")[0] for line in lines] == names
        for name, line in zip(names, lines):
            ratio = json.loads((out / name / "report.json").read_text())["approx_ratio"]
            assert re.fullmatch(rf"{name}: mean A\.R\. {ratio:.4f} in \d+\.\d\d s", line), line
        outputs[run] = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    assert outputs["first"] == outputs["again"]
    assert main(["matrix", "--config", str(cfg), "--out", str(tmp_path / "again"), "--resume"]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in lines] == names
    assert all(line.endswith(" from an earlier run") for line in lines)


def test_matrix_without_section_exits_2(tmp_path):
    cfg = write_config(tmp_path / "m.ini")
    assert main(["matrix", "--config", str(cfg), "--out", str(tmp_path / "g")]) == 2


@pytest.mark.parametrize(
    "matrix, problem",
    [
        ({"sizes": "eight"}, ""),
        ({"algorithm": "linear"}, ""),
        ({"algorithms": "qaoa1, qaoa7"}, ""),
        ({"sizes": "8, 25"}, ""),
        ({"topologies": "grid2d", "sizes": "7"}, ""),
        ({"problems": "minvertexcover"}, "penalty = 0.5\n"),
    ],
    ids=["non-integer-size", "unknown-key", "unknown-algorithm", "size-above-limit", "prime-grid", "low-penalty"],
)
def test_bad_matrix_section_exits_2_before_writing(tmp_path, matrix, problem):
    cfg = write_config(tmp_path / "m.ini")
    section = {"problems": "maxcut", "topologies": "cycle", **matrix}
    text = cfg.read_text().replace("[problem]\n", f"[problem]\n{problem}")
    cfg.write_text(text + "\n[matrix]\n" + "".join(f"{key} = {value}\n" for key, value in section.items()))
    out = tmp_path / "grid"
    assert main(["matrix", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


# name: (write_config arguments, {INI text: replacement}, extra arguments)
UNBUILDABLE = {
    "n25": ({"topology": "cycle", "n": 25}, {}, []),
    "prime-grid": ({"topology": "grid2d", "n": 7}, {}, []),
    "edgeless": ({"topology": "erdos_renyi", "n": 6}, {"seed = 1\n": "seed = 2\ner_p = 0.3\n"}, []),
    "negative-seed": ({}, {"master_seed = 11": "master_seed = -1"}, []),
    "negative-graph-seed": ({}, {"seed = 1\n": "seed = -3\n"}, []),
    "negative-seed-flag": ({}, {}, ["--seed", "-2"]),
    "one-vertex": ({"kind": "minvertexcover", "topology": "grid2d", "n": 1}, {}, []),
    "n20-default-train": ({"n": 20}, {"epochs = 2\nsteps_per_epoch = 8\nworkers = 2\n": ""}, []),
    "grid-rows-zero": ({"kind": "minvertexcover", "topology": "grid2d", "n": 6}, {"seed = 1\n": "seed = 1\nrows = 0\n"}, []),
    "grid-rows-negative": (
        {"kind": "minvertexcover", "topology": "grid2d", "n": 6},
        {"seed = 1\n": "seed = 1\nrows = -2\n"},
        [],
    ),
}
# cases left out: brute-force flags a constant objective as degenerate and has no --seed;
# eval and brute-force run on one vertex; train's refusal of one has its own test; and
# only train's arrays are too large at n = 20
LEFT_OUT = {
    ("edgeless", "brute-force"),
    ("negative-seed-flag", "brute-force"),
    ("one-vertex", "brute-force"),
    ("one-vertex", "eval"),
    ("one-vertex", "train"),
    *(("n20-default-train", command) for command in ("baseline", "brute-force", "eval", "matrix")),
}


@pytest.mark.parametrize(
    "case, command",
    [
        pytest.param(case, command, id=f"{case}-{command}")
        for case in UNBUILDABLE
        for command in ("train", "baseline", "brute-force", "eval", "matrix")
        if (case, command) not in LEFT_OUT
    ],
)
def test_unbuildable_instance_exits_2_before_writing(tmp_path, case, command):
    from rlansatz.circuits import MAX_QUBITS, h_layer

    settings, edits, extra = UNBUILDABLE[case]
    cfg = write_config(tmp_path / "bad.ini", **settings)
    text = cfg.read_text() + "\n[matrix]\nalgorithms = qaoa1, linear\n"
    for old, new in edits.items():
        text = text.replace(old, new, 1)
    cfg.write_text(text)
    circuit = tmp_path / "circuit.json"
    circuit.write_text(json.dumps(h_layer(min(settings.get("n", 4), MAX_QUBITS)).to_json_dict()))
    arguments = {"baseline": ["linear"], "eval": ["--circuit", str(circuit)]}.get(command, [])
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out), *arguments, *extra]) == 2
    assert not out.exists()


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


def test_eval_zero_runs_exits_2_before_creating_output(tmp_path):
    from rlansatz.ansatz import build_qaoa
    from rlansatz.problems import make_instance

    cfg = write_config(tmp_path / "toy.ini")
    circuit = tmp_path / "qaoa1.json"
    circuit.write_text(json.dumps(build_qaoa(make_instance("cycle", 4, 1, "maxcut"), 1).to_json_dict()))
    out = tmp_path / "ev"
    code = main(["eval", "--config", str(cfg), "--circuit", str(circuit), "--out", str(out), "--runs", "0"])
    assert code == 2
    assert not out.exists()


def test_importing_the_cli_does_not_import_scipy():
    import os
    import subprocess
    import sys

    import rlansatz

    env = {**os.environ, "PYTHONPATH": str(Path(rlansatz.__file__).resolve().parents[1])}
    probe = "import sys, rlansatz.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_eval_wrong_size_circuit_exits_2(tmp_path):
    cfg = write_config(tmp_path / "toy.ini")
    other = write_config(tmp_path / "other.ini", n=6)
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    saved = run / "best_circuit.json"
    code = main(["eval", "--config", str(other), "--circuit", str(saved), "--out", str(tmp_path / "e")])
    assert code == 2
    # malformed files: an unknown gate kind, a qubit out of range, JSON cut short,
    # and values of the wrong JSON type, which must not be coerced
    text = saved.read_text()
    doc = json.loads(text)
    first, *middle, last = doc["gates"]
    unknown_kind = {**doc, "gates": [{**first, "kind": "toffoli"}, *middle, last]}
    far_qubit = {**doc, "gates": [{**first, "qubits": [7]}, *middle, last]}
    fractional_qubit = {**doc, "gates": [{**first, "qubits": [1.7]}, *middle, last]}
    bool_qubit = {**doc, "gates": [{**first, "qubits": [True]}, *middle, last]}
    fractional_index = {**doc, "gates": [first, *middle, {**last, "param_index": 1.5}]}
    string_angle = {**doc, "gates": [first, *middle, {"kind": last["kind"], "qubits": last["qubits"], "angle": "0.5"}]}
    huge_coeff = {**doc, "gates": [first, *middle, {**last, "coeff": 10**400}]}
    for name, body in [
        ("unknown_kind", json.dumps(unknown_kind)),
        ("far_qubit", json.dumps(far_qubit)),
        ("cut_short", text[: len(text) // 2]),
        ("fractional_qubit", json.dumps(fractional_qubit)),
        ("bool_qubit", json.dumps(bool_qubit)),
        ("fractional_index", json.dumps(fractional_index)),
        ("string_angle", json.dumps(string_angle)),
        ("huge_coeff", json.dumps(huge_coeff)),
        ("nested_params", json.dumps({**doc, "params": [[p] for p in doc["params"]]})),
        ("nan_param", json.dumps({**doc, "params": [float("nan")] * len(doc["params"])})),
    ]:
        bad = tmp_path / f"{name}.json"
        bad.write_text(body)
        code = main(["eval", "--config", str(cfg), "--circuit", str(bad), "--out", str(tmp_path / "e")])
        assert code == 2, name
    assert not (tmp_path / "e").exists()


# --- every INI key reaches the object that uses it --------------------------

BASE_INI = {
    "problem": {"kind": "maxcut", "topology": "cycle", "n": "3", "seed": "1"},
    "rl": {"epochs": "1", "steps_per_epoch": "2", "workers": "1"},
    "optimizer": {"max_iterations": "10"},
    "run": {"shots": "50", "eval_runs": "1", "master_seed": "11", "output_dir": "{tmp}/out"},
}


def render_ini(sections: dict, tmp_path) -> str:
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v.format(tmp=tmp_path)}\n" for k, v in keys.items()) + "\n"
        for name, keys in sections.items()
    )


@pytest.fixture
def consumers(monkeypatch):
    """Named arguments and result of the last call to each consumer of settings."""
    import inspect

    import rlansatz.agent.training as training
    import rlansatz.cli as cli
    import rlansatz.optimize as optimize

    seen = {}
    targets = (
        (cli, "make_instance"),
        (training, "CircuitBuildEnv"),
        (training, "compute_returns_and_advantages"),
        (optimize, "_cobyla"),
        (cli, "evaluate_circuit"),
        (cli, "train"),
    )
    for module, attr in targets:
        original = getattr(module, attr)

        def spy(*args, _original=original, _signature=inspect.signature(original), _attr=attr, **kwargs):
            result = _original(*args, **kwargs)
            seen[_attr] = {**_signature.bind(*args, **kwargs).arguments, "result": result}
            return result

        monkeypatch.setattr(module, attr, spy)
    return seen


def _instance(key):
    return lambda seen: seen["make_instance"][key]


def _env(key):
    return lambda seen: getattr(seen["CircuitBuildEnv"]["config"], key)


def _cobyla(arg):
    return lambda seen: seen["_cobyla"][arg]


def _evaluate(arg):
    return lambda seen: seen["evaluate_circuit"][arg]


def _train_steps(seen):
    """The step rows ``train`` passed to ``log_step``: cmd_train hands it a list's ``append``."""
    return seen["train"]["log_step"].__self__


# (section, key, INI value, expected value, subcommand, where the value lands)
KEY_TABLE = [
    ("problem", "kind", "minvertexcover", "minvertexcover", "brute-force", _instance("kind")),
    ("problem", "topology", "star", "star", "brute-force", _instance("topology")),
    ("problem", "n", "4", 4, "brute-force", _instance("n")),
    ("problem", "seed", "5", 5, "brute-force", _instance("seed")),
    ("problem", "penalty", "3.5", 3.5, "brute-force", _instance("penalty")),
    ("problem", "er_p", "0.5", 0.5, "brute-force", _instance("er_p")),
    ("problem", "rows", "1", 1, "brute-force", _instance("rows")),
    ("rl", "epochs", "2", 2, "train", lambda seen: len(seen["train"]["result"].history)),
    ("rl", "steps_per_epoch", "4", 4, "train", lambda seen: len(_train_steps(seen))),
    ("rl", "workers", "2", 2, "train", lambda seen: len({row["worker"] for row in _train_steps(seen)})),
    ("rl", "beta", "0.5", 0.5, "train", _env("beta")),
    ("rl", "gamma", "0.5", 0.5, "train", lambda seen: seen["compute_returns_and_advantages"]["gamma"]),
    ("rl", "gae_lambda", "0.8", 0.8, "train", lambda seen: seen["compute_returns_and_advantages"]["gae_lambda"]),
    ("rl", "max_episode_steps_factor", "1", 1, "train", _env("max_episode_steps_factor")),
    ("rl", "patience", "1", 1, "train", _env("patience")),
    ("optimizer", "max_iterations", "12", 12, "baseline", _cobyla("budget")),
    ("optimizer", "rho_begin", "0.5", 0.5, "baseline", _cobyla("rho_begin")),
    ("optimizer", "rho_end", "0.001", 0.001, "baseline", _cobyla("rho_end")),
    ("run", "shots", "60", 60, "baseline", _evaluate("n_shots")),
    ("run", "eval_runs", "2", 2, "baseline", _evaluate("n_runs")),
    ("run", "master_seed", "7", 7, "baseline", _evaluate("seed")),
    ("run", "output_dir", "{tmp}/elsewhere", True, "baseline", None),
]
COMMANDS = {"brute-force": ["brute-force"], "train": ["train"], "baseline": ["baseline", "qaoa1"]}


def test_key_table_covers_every_ini_key():
    from rlansatz.config import RunConfig, _sections

    ini_keys = {(name, key) for name, targets in _sections(RunConfig()).items() for _, keys in targets for key in keys}
    assert ini_keys == {(section, key) for section, key, *_ in KEY_TABLE}
    assert len(ini_keys) == 22


@pytest.mark.parametrize(
    "section, key, raw, expected, command, landed", KEY_TABLE, ids=[f"{row[0]}.{row[1]}" for row in KEY_TABLE]
)
def test_ini_key_reaches_its_consumer(tmp_path, consumers, section, key, raw, expected, command, landed):
    sections = {name: dict(keys) for name, keys in BASE_INI.items()}
    sections[section][key] = raw
    path = tmp_path / "key.ini"
    path.write_text(render_ini(sections, tmp_path))
    assert main([*COMMANDS[command], "--config", str(path)]) == 0
    if landed is None:  # output_dir: the artifacts land there
        assert (tmp_path / "elsewhere" / "report.json").is_file() == expected
        return
    assert landed(consumers) == expected
    # the INI value differs from the default, so a dropped key cannot pass
    assert expected != default_value(section, key)


def default_value(section, key):
    from rlansatz.config import RunConfig, _sections

    owner = next(target for target, keys in _sections(RunConfig())[section] if key in keys)
    return getattr(owner, key)


@pytest.mark.parametrize(
    "body",
    ["[optimizer]\nmethod = cobyla\n", "[run]\nworkers = 2\n", "[rl]\npi_lr = 0.1\n", "[rl]\nexact_observation = true\n"],
)
def test_unknown_keys_exit_2(tmp_path, body):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(body)
    assert main(["brute-force", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "optimizer",
    [
        "rho_begin = 1e-5\nrho_end = 1e-4",
        "rho_end = 0",
        "rho_begin = 1e-4\nrho_end = 1e-4",
        "max_iterations = 0",
        "rho_begin = inf",
        "max_iterations = 4294967297",
    ],
)
def test_bad_optimizer_settings_exit_2_at_load(tmp_path, optimizer):
    from rlansatz.config import load_config
    from rlansatz.errors import ConfigurationError

    cfg = write_config(tmp_path / "toy.ini")
    text = cfg.read_text().replace("[optimizer]\nmax_iterations = 40\n", f"[optimizer]\n{optimizer}\n")
    cfg.write_text(text + "\n[matrix]\nsizes = 4\n")
    with pytest.raises(ConfigurationError):
        load_config(cfg)
    for command in (["train"], ["baseline", "qaoa1"], ["matrix"]):
        assert main([*command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2, command


@pytest.mark.parametrize("command", ["matrix", "eval"])
def test_optimizer_keys_reach_matrix_and_eval(tmp_path, consumers, command):
    from rlansatz.ansatz import build_qaoa
    from rlansatz.problems import make_instance

    cfg = write_config(tmp_path / "toy.ini")
    text = cfg.read_text().replace("max_iterations = 40\n", "max_iterations = 30\nrho_begin = 0.5\nrho_end = 0.001\n")
    cfg.write_text(text + "\n[matrix]\nsizes = 4\n")
    circuit = tmp_path / "qaoa1.json"
    circuit.write_text(json.dumps(build_qaoa(make_instance("cycle", 4, 1, "maxcut"), 1).to_json_dict()))
    extra = {"matrix": [], "eval": ["--circuit", str(circuit), "--reoptimize"]}[command]
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o"), *extra]) == 0
    loop = consumers["_cobyla"]
    assert (loop["budget"], loop["rho_begin"], loop["rho_end"]) == (30, 0.5, 0.001)


def test_workers_option_is_train_only(tmp_path):
    cfg = write_config(tmp_path / "toy.ini")
    with pytest.raises(SystemExit) as exc:
        main(["baseline", "qaoa1", "--config", str(cfg), "--workers", "2"])
    assert exc.value.code == 2


def test_brute_force_rejects_seed(tmp_path):
    cfg = write_config(tmp_path / "toy.ini")
    with pytest.raises(SystemExit) as exc:
        main(["brute-force", "--config", str(cfg), "--out", str(tmp_path / "o"), "--seed", "3"])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("ini_workers, flag", [("2", []), ("1", ["--workers", "2"])], ids=["ini", "flag"])
def test_train_rejects_uneven_worker_split_before_writing(tmp_path, ini_workers, flag):
    cfg = write_config(tmp_path / "toy.ini")
    text = cfg.read_text().replace("steps_per_epoch = 8\nworkers = 2\n", f"steps_per_epoch = 5\nworkers = {ini_workers}\n")
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg), "--out", str(out), *flag]) == 2
    assert not (out / "config.json").exists()


def test_workers_flag_replaces_an_ini_split_before_it_is_checked(tmp_path):
    cfg = write_config(tmp_path / "toy.ini")
    cfg.write_text(cfg.read_text().replace("steps_per_epoch = 8", "steps_per_epoch = 5"))  # 5 steps over 2 workers
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    assert json.loads((out / "config.json").read_text())["train"]["workers"] == 1


def test_train_rejects_one_vertex_instance_before_writing(tmp_path):
    cfg = write_config(tmp_path / "one.ini", topology="grid2d", n=1)
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "command, kind, setting",
    [(["train"], "maxcut", "[rl]\nbeta = nan"), (["baseline", "qaoa1"], "minvertexcover", "[problem]\npenalty = nan")],
    ids=["beta-train", "penalty-baseline"],
)
def test_non_finite_float_exits_2_before_writing(tmp_path, command, kind, setting):
    cfg = write_config(tmp_path / "nan.ini", kind=kind)
    section, line = setting.split("\n")
    cfg.write_text(cfg.read_text().replace(f"{section}\n", f"{section}\n{line}\n"))
    out = tmp_path / "o"
    assert main([command[0], "--config", str(cfg), "--out", str(out), *command[1:]]) == 2
    assert not out.exists()


def test_matrix_resume_recomputes_a_report_cut_short(tmp_path):
    cfg = write_config(tmp_path / "m.ini", n=4)
    cfg.write_text(cfg.read_text() + "\n[matrix]\nproblems = maxcut\nsizes = 4\nalgorithms = qaoa1, linear\n")
    out = tmp_path / "grid"
    assert main(["matrix", "--config", str(cfg), "--out", str(out)]) == 0
    cut, kept = out / "maxcut_cycle_4_qaoa1" / "report.json", out / "maxcut_cycle_4_linear" / "report.json"
    fresh, table = cut.read_bytes(), (out / "matrix.csv").read_bytes()
    kept_stamps = {p: p.stat().st_mtime_ns for p in (kept, kept.with_name("runs.csv"))}
    cut.write_bytes(fresh[: len(fresh) // 2])
    assert main(["matrix", "--config", str(cfg), "--out", str(out), "--resume"]) == 0
    assert cut.read_bytes() == fresh
    assert (out / "matrix.csv").read_bytes() == table
    assert {p: p.stat().st_mtime_ns for p in kept_stamps} == kept_stamps


def test_write_json_keeps_the_earlier_file_when_serializing_fails(tmp_path):
    from rlansatz.config import write_json

    path = tmp_path / "report.json"
    write_json(path, {"approx_ratio": 0.5})
    earlier = path.read_bytes()
    with pytest.raises(TypeError):
        write_json(path, {"approx_ratio": 0.75, "circuit": object()})
    assert path.read_bytes() == earlier
    assert list(tmp_path.iterdir()) == [path]


def test_write_csv_keeps_the_earlier_file_when_a_row_fails(tmp_path):
    from rlansatz.cli import _write_csv

    path = tmp_path / "runs.csv"
    _write_csv(path, [{"run": 0, "estimate": 0.5}])
    earlier = path.read_bytes()
    assert earlier == b"run,estimate\r\n0,0.5\r\n"
    with pytest.raises(KeyError):
        _write_csv(path, [{"run": 0, "estimate": 0.25}, {"run": 1}])
    assert path.read_bytes() == earlier
    assert list(tmp_path.iterdir()) == [path]


def test_matrix_uses_problem_rows(tmp_path):
    cfg = write_config(tmp_path / "rows.ini", n=4, topology="grid2d")
    text = cfg.read_text().replace("seed = 1\n", "seed = 1\nrows = 1\n", 1)
    cfg.write_text(text + "\n[matrix]\nproblems = maxcut\ntopologies = grid2d\nsizes = 4\nalgorithms = qaoa1\n")
    assert main(["matrix", "--config", str(cfg), "--out", str(tmp_path / "grid")]) == 0
    assert main(["baseline", "qaoa1", "--config", str(cfg), "--out", str(tmp_path / "base")]) == 0
    cell = json.loads((tmp_path / "grid" / "maxcut_grid2d_4_qaoa1" / "report.json").read_text())
    base = json.loads((tmp_path / "base" / "report.json").read_text())
    assert cell["per_run_estimates"] == base["per_run_estimates"]


def test_matrix_resume_recomputes_cells_with_changed_settings(tmp_path):
    cfg = write_config(tmp_path / "m.ini", n=4)
    cfg.write_text(cfg.read_text() + "\n[matrix]\nproblems = maxcut\ntopologies = cycle\nsizes = 4\nalgorithms = qaoa1\n")
    out = tmp_path / "grid"
    assert main(["matrix", "--config", str(cfg), "--out", str(out)]) == 0
    marker = out / "maxcut_cycle_4_qaoa1" / "report.json"
    stamp = marker.stat().st_mtime_ns
    cfg.write_text(cfg.read_text().replace("shots = 200", "shots = 300"))
    assert main(["matrix", "--config", str(cfg), "--out", str(out), "--resume"]) == 0
    assert marker.stat().st_mtime_ns != stamp  # cell recomputed
    assert json.loads(marker.read_text())["settings"]["shots"] == 300
