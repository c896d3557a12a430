"""Run configuration: INI files with [problem], [rl], [optimizer], [run] sections.

Each section fills fields of the dataclasses that use them (see
``_sections``); their defaults reproduce the reference experimental setup.
Any key may be omitted; see README.md for the full schema.
"""

from __future__ import annotations

import configparser
import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from . import __version__
from .agent.training import TrainConfig
from .ansatz import BASELINE_BUILDERS
from .circuits import MAX_QUBITS
from .errors import ConfigurationError
from .problems import DEFAULT_PENALTY, ProblemKind, QuboMatrix, Topology, build_qubo, generate_graph


@dataclass
class ProblemConfig:
    kind: str = "maxcut"
    topology: str = "cycle"
    n: int = 6
    seed: int = 0
    penalty: float = DEFAULT_PENALTY
    er_p: float | None = None
    rows: int | None = None

    def validate(self) -> None:
        if self.kind not in {kind.value for kind in ProblemKind}:
            raise ConfigurationError(f"unknown problem kind {self.kind!r}")
        if self.topology not in {topology.value for topology in Topology}:
            raise ConfigurationError(f"unknown topology {self.topology!r}")
        if not 1 <= self.n <= MAX_QUBITS:
            raise ConfigurationError(f"n={self.n} outside [1, {MAX_QUBITS}]")
        if self.seed < 0:
            raise ConfigurationError(f"seeds must be >= 0, got problem seed {self.seed}")


@dataclass
class RunConfig:
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval_runs: int = 10
    output_dir: str = "runs/out"
    master_seed: int = 0

    def validate(self) -> None:
        self.problem.validate()
        self.train.optimizer.validate()
        if self.train.shots < 1:
            raise ConfigurationError("shots must be >= 1")
        if self.eval_runs < 1:
            raise ConfigurationError("eval_runs must be >= 1")
        if self.master_seed < 0:
            raise ConfigurationError(f"seeds must be >= 0, got master_seed {self.master_seed}")

    def snapshot(self) -> dict:
        doc = asdict(self)
        doc["version"] = __version__
        return doc


def _names(obj) -> tuple[str, ...]:
    return tuple(f.name for f in fields(obj))


def _sections(cfg: RunConfig) -> dict[str, list[tuple[object, tuple[str, ...]]]]:
    """INI section -> the objects it fills, each with the keys it takes."""
    train = cfg.train
    return {
        "problem": [(cfg.problem, _names(cfg.problem))],
        "rl": [
            (train, ("epochs", "steps_per_epoch", "workers")),
            (train, ("beta", "patience", "max_episode_steps_factor")),
            (train.ppo, ("gamma", "gae_lambda")),
        ],
        "optimizer": [(train.optimizer, _names(train.optimizer))],
        "run": [(train, ("shots",)), (cfg, ("eval_runs", "output_dir", "master_seed"))],
    }


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


_COERCERS = {
    int: lambda s: int(s),
    float: _finite_float,
    str: lambda s: s.strip(),
}


# fields whose default is None and so carry no type to infer
_OPTIONAL_FIELD_TYPES = {"er_p": float, "rows": int}


def _apply_section(
    section: configparser.SectionProxy, targets: list[tuple[object, tuple[str, ...]]], name: str
) -> None:
    owners = {key: target for target, keys in targets for key in keys}
    for key, raw in section.items():
        if key not in owners:
            raise ConfigurationError(f"unknown key {key!r} in [{name}]")
        target = owners[key]
        field_type = _OPTIONAL_FIELD_TYPES.get(key, type(getattr(target, key)))
        try:
            setattr(target, key, _COERCERS.get(field_type, str)(raw))
        except ValueError as exc:
            raise ConfigurationError(f"bad value for {name}.{key}: {raw!r}") from exc


def _read(path: str | Path) -> configparser.ConfigParser:
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigurationError(f"could not parse {path}: {exc}") from exc
    return parser


def _from_parser(parser: configparser.ConfigParser) -> RunConfig:
    cfg = RunConfig()
    for name, targets in _sections(cfg).items():
        if parser.has_section(name):
            _apply_section(parser[name], targets, name)
    cfg.validate()
    return cfg


def load_config(path: str | Path) -> RunConfig:
    return _from_parser(_read(path))


def check_objective(qubo: QuboMatrix) -> None:
    """Reject a QUBO whose objective is the same on every bitstring: it has no approximation ratio.

    ``x^T Q x + offset`` is constant on {0,1}^n exactly when every entry of
    ``Q`` is 0, because the multilinear form of a function on {0,1}^n is unique.
    """
    if not qubo.q.any():
        raise ConfigurationError("the objective is constant on every bitstring, so it has no approximation ratio")


def load_matrix_config(path: str | Path) -> tuple[RunConfig, list[tuple[ProblemConfig, str]]]:
    """The base config and, in grid order, a (problem, algorithm) pair per cell of its [matrix] section.

    Each cell's problem is a checked copy of the base problem whose graph and QUBO (cheap to build) are built.
    """
    parser = _read(path)
    base = _from_parser(parser)
    if not parser.has_section("matrix"):
        raise ConfigurationError("matrix config needs a [matrix] section")
    section = parser["matrix"]
    p = base.problem
    defaults = {"problems": p.kind, "topologies": p.topology, "sizes": str(p.n), "algorithms": "qaoa1"}
    for key in section:
        if key not in defaults:
            raise ConfigurationError(f"unknown key {key!r} in [matrix]")
    kinds, topologies, sizes, algorithms = (
        [item.strip() for item in section.get(key, default).split(",") if item.strip()]
        for key, default in defaults.items()
    )
    try:
        sizes = [int(s) for s in sizes]
    except ValueError:
        raise ConfigurationError(f"bad value for matrix.sizes: {section['sizes']!r}") from None
    if not (kinds and topologies and sizes and algorithms):
        raise ConfigurationError("empty [matrix] axis")
    for algorithm in algorithms:
        if algorithm not in BASELINE_BUILDERS:
            raise ConfigurationError(f"unknown algorithm {algorithm!r} in [matrix]")
    cells = []
    for kind, topology, n in itertools.product(kinds, topologies, sizes):
        problem = replace(p, kind=kind, topology=topology, n=n)
        problem.validate()
        check_objective(build_qubo(generate_graph(topology, n, p.seed, er_p=p.er_p, rows=p.rows), kind, p.penalty))
        cells += [(problem, algorithm) for algorithm in algorithms]
    return base, cells


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` next to ``path`` and move it into place.

    An interrupted process never leaves ``path`` half written. The file is
    not synced to disk, so an OS crash or power loss can still cut it short.
    Line endings are written as they are in ``text``.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, newline="")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # left only when writing failed


def write_json(path: str | Path, doc: dict) -> None:
    """``doc`` as indented JSON plus a newline, through ``write_text``."""
    write_text(path, json.dumps(doc, indent=2) + "\n")
