"""Run configuration: INI files with [problem], [rl], [optimizer], [run] sections.

Defaults reproduce the reference experimental setup: 64 epochs of 384
action steps, depth weight 0.015, 1000 shots, a 1000-evaluation optimizer
budget, patience 3 and an episode cap of 2n steps. Any key may be omitted;
see README.md for the full schema.
"""

from __future__ import annotations

import configparser
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import __version__
from .agent.ppo import PpoHyperparams
from .agent.training import TrainConfig
from .errors import ConfigurationError
from .problems import ProblemInstance, ProblemKind, Topology, make_instance


@dataclass
class ProblemConfig:
    kind: str = "maxcut"
    topology: str = "cycle"
    n: int = 6
    seed: int = 0
    penalty: float = 2.0
    er_p: float | None = None
    rows: int | None = None


@dataclass
class RlConfig:
    epochs: int = 64
    steps_per_epoch: int = 384
    workers: int = 6
    beta: float = 0.015
    gamma: float = 0.99
    gae_lambda: float = 0.97
    max_episode_steps_factor: int = 2
    patience: int = 3
    exact_observation: bool = False


@dataclass
class OptimizerConfig:
    max_iterations: int = 1000
    rho_begin: float = 1.0
    rho_end: float = 1e-4
    method: str = "cobyla"


@dataclass
class RunConfig:
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    rl: RlConfig = field(default_factory=RlConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    shots: int = 1000
    eval_runs: int = 10
    output_dir: str = "runs/out"
    master_seed: int = 0

    def build_instance(self) -> ProblemInstance:
        p = self.problem
        return make_instance(
            p.topology, p.n, p.seed, p.kind, p.penalty, er_p=p.er_p, rows=p.rows
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            epochs=self.rl.epochs,
            steps_per_epoch=self.rl.steps_per_epoch,
            workers=self.rl.workers,
            shots=self.shots,
            beta=self.rl.beta,
            patience=self.rl.patience,
            max_steps_factor=self.rl.max_episode_steps_factor,
            optimizer_max_iterations=self.optimizer.max_iterations,
            rho_begin=self.optimizer.rho_begin,
            rho_end=self.optimizer.rho_end,
            optimizer_method=self.optimizer.method,
            exact_observation=self.rl.exact_observation,
            ppo=PpoHyperparams(gamma=self.rl.gamma, gae_lambda=self.rl.gae_lambda),
        )

    def snapshot(self) -> dict:
        doc = asdict(self)
        doc["version"] = __version__
        return doc


_COERCERS = {
    int: lambda s: int(s),
    float: lambda s: float(s),
    bool: lambda s: s.strip().lower() in ("1", "true", "yes", "on"),
    str: lambda s: s.strip(),
}


# fields whose default is None and so carry no type to infer
_OPTIONAL_FIELD_TYPES = {"er_p": float, "rows": int}


def _apply_section(target, section: configparser.SectionProxy, name: str) -> None:
    fields = set(target.__dataclass_fields__)
    for key, raw in section.items():
        if key not in fields:
            raise ConfigurationError(f"unknown key {key!r} in [{name}]")
        current = getattr(target, key)
        field_type = _OPTIONAL_FIELD_TYPES.get(key, type(current))
        try:
            setattr(target, key, _COERCERS.get(field_type, str)(raw))
        except ValueError as exc:
            raise ConfigurationError(f"bad value for {name}.{key}: {raw!r}") from exc


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigurationError(f"could not parse {path}: {exc}") from exc

    cfg = RunConfig()
    sections = {
        "problem": cfg.problem,
        "rl": cfg.rl,
        "optimizer": cfg.optimizer,
    }
    for name, target in sections.items():
        if parser.has_section(name):
            _apply_section(target, parser[name], name)
    if parser.has_section("run"):
        for key, raw in parser["run"].items():
            if key == "shots":
                cfg.shots = int(raw)
            elif key == "eval_runs":
                cfg.eval_runs = int(raw)
            elif key == "output_dir":
                cfg.output_dir = raw.strip()
            elif key == "master_seed":
                cfg.master_seed = int(raw)
            else:
                raise ConfigurationError(f"unknown key {key!r} in [run]")
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    try:
        ProblemKind(cfg.problem.kind)
    except ValueError:
        raise ConfigurationError(f"unknown problem kind {cfg.problem.kind!r}") from None
    try:
        Topology(cfg.problem.topology)
    except ValueError:
        raise ConfigurationError(f"unknown topology {cfg.problem.topology!r}") from None
    if cfg.shots < 1:
        raise ConfigurationError("shots must be >= 1")
    if cfg.eval_runs < 1:
        raise ConfigurationError("eval_runs must be >= 1")
    if Topology(cfg.problem.topology) is Topology.ERDOS_RENYI and cfg.problem.er_p is None:
        raise ConfigurationError("erdos_renyi topology needs er_p")


def load_matrix_config(path: str | Path) -> tuple[RunConfig, dict]:
    """Config with a [matrix] section listing problems/topologies/sizes/algorithms."""
    base = load_config(path)
    parser = configparser.ConfigParser()
    parser.read(Path(path))
    if not parser.has_section("matrix"):
        raise ConfigurationError("matrix config needs a [matrix] section")
    section = parser["matrix"]

    def csv_list(key: str, default: str) -> list[str]:
        return [item.strip() for item in section.get(key, default).split(",") if item.strip()]

    matrix = {
        "problems": csv_list("problems", base.problem.kind),
        "topologies": csv_list("topologies", base.problem.topology),
        "sizes": [int(s) for s in csv_list("sizes", str(base.problem.n))],
        "algorithms": csv_list("algorithms", "qaoa1"),
    }
    if not all(matrix.values()):
        raise ConfigurationError("empty [matrix] axis")
    for kind in matrix["problems"]:
        try:
            ProblemKind(kind)
        except ValueError:
            raise ConfigurationError(f"unknown problem kind {kind!r} in [matrix]") from None
    for topo in matrix["topologies"]:
        try:
            Topology(topo)
        except ValueError:
            raise ConfigurationError(f"unknown topology {topo!r} in [matrix]") from None
    return base, matrix


def write_json(path: str | Path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
