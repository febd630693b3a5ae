"""Experiment configuration: JSON schema, validation, and resolution.

A config document is a single JSON tree. Unknown keys are rejected with the
offending path so typos cannot silently disable anything. Loading resolves
every default and every derived quantity (drawn per-agent participation
probabilities, equal-work local step counts), so the serialized form of a
loaded config is fully explicit and loads back to an identical config.

Schema (defaults in parentheses):

    name: str (file stem)                 experiment label
    data:
      n_agents: int >= 1
      samples_per_agent: int >= 1
      dimension: int >= 1
      noise_std: float >= 0
      data_seed: int >= 0                 seed of the dataset stream
    runs: int >= 1                        Monte Carlo repetitions
    master_seed: int in [0, 2^64)         root of all training streams
    output_dir: str ("results/<name>")
    theta0: number | [number] * dimension initial parameter (scalar fills)
    schedule: one of
      {"kind": "constant", "p": float}
      {"kind": "per_agent", "probs": [float] * n_agents}
      {"kind": "per_round", "probs": [[float] * n_agents] * >=max(rounds)}
      {"kind": "per_agent_uniform_draw", "low": float, "high": float,
       "seed": int >= 0}                  resolved to per_agent at load
    algorithms: nonempty list; common keys name (kind), kind, rounds >= 1
      kind "fedavg_svrg":          snapshots, inner_steps, stepsize
      kind "fedavg_prob_sgd":      local_steps (snapshots*inner_steps of the
                                   experiment's single svrg entry),
                                   base_stepsize (0.1),
                                   decay ("per_round" | "constant",
                                   default "per_round")
      kind "fedavg_uniform_batch": batch_size plus the prob-sgd keys

All probabilities must lie in [1e-6, 1]; the inverse-probability weighting
amplifies variance without bound below that floor.
"""

from __future__ import annotations

import importlib.resources
import json
import re
from pathlib import Path

import numpy as np

from .federation import (
    Algorithm,
    ParticipationSchedule,
    RunConfig,
    ScheduleKind,
    SgdParams,
)
from .frozen import Frozen
from .local_update import SvrgParams

PROB_FLOOR = 1e-6
_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


class ConfigError(ValueError):
    """A config document failed to parse or validate; names the field path."""


class DataConfig(Frozen):
    """Synthetic-dataset settings shared by every algorithm of an experiment."""

    def __init__(
        self, n_agents: int, samples_per_agent: int, dimension: int, noise_std: float,
        data_seed: int,
    ):
        self.__dict__.update(
            n_agents=n_agents, samples_per_agent=samples_per_agent, dimension=dimension,
            noise_std=noise_std, data_seed=data_seed,
        )


class ExperimentConfig(Frozen):
    """Fully resolved experiment: dataset, Monte Carlo plan, algorithm runs."""

    def __init__(
        self, name: str, data: DataConfig, runs: int, master_seed: int, output_dir: str,
        theta0: tuple[float, ...], schedule: ParticipationSchedule,
        algorithms: tuple[RunConfig, ...],
    ):
        self.__dict__.update(
            name=name, data=data, runs=runs, master_seed=master_seed, output_dir=output_dir,
            theta0=theta0, schedule=schedule, algorithms=algorithms,
        )

    def to_dict(self) -> dict:
        """Canonical JSON-ready form; parsing it back yields an identical config."""
        return {
            "name": self.name,
            "data": {
                "n_agents": self.data.n_agents,
                "samples_per_agent": self.data.samples_per_agent,
                "dimension": self.data.dimension,
                "noise_std": self.data.noise_std,
                "data_seed": self.data.data_seed,
            },
            "runs": self.runs,
            "master_seed": self.master_seed,
            "output_dir": self.output_dir,
            "theta0": list(self.theta0),
            "schedule": _schedule_to_dict(self.schedule),
            "algorithms": [_algorithm_to_dict(alg) for alg in self.algorithms],
        }

    def with_overrides(
        self, master_seed: int | None = None, output_dir: str | None = None
    ) -> "ExperimentConfig":
        """This config with a new master seed (in every algorithm too) or output directory."""
        algorithms = self.algorithms
        if master_seed is None:
            master_seed = self.master_seed
        else:
            master_seed = _as_int(
                master_seed, "master_seed override", minimum=0, maximum=2**64 - 1
            )
            algorithms = tuple(
                RunConfig(
                    alg.name, alg.algorithm, alg.rounds, alg.schedule, alg.theta0,
                    master_seed, alg.svrg, alg.sgd, alg.batch_size,
                )
                for alg in algorithms
            )
        return ExperimentConfig(
            self.name, self.data, self.runs, master_seed,
            self.output_dir if output_dir is None else output_dir,
            self.theta0, self.schedule, algorithms,
        )


def _expect_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected an object, got {type(node).__name__}")
    return node


def _reject_unknown(node: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(node) - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {', '.join(unknown)}")


def _get(node: dict, key: str, path: str):
    if key not in node:
        raise ConfigError(f"{path}.{key}: missing required key")
    return node[key]


def _as_int(value, path: str, minimum=None, maximum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}, got {value}")
    return value


def _as_float(value, path: str, minimum=None, maximum=None, strict_min=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    value = float(value)
    if not np.isfinite(value):
        raise ConfigError(f"{path}: must be finite")
    if minimum is not None:
        if strict_min and value <= minimum:
            raise ConfigError(f"{path}: must be > {minimum}, got {value}")
        if not strict_min and value < minimum:
            raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}, got {value}")
    return value


def _as_name(value, path: str) -> str:
    if not isinstance(value, str) or not _NAME_RE.match(value):
        raise ConfigError(
            f"{path}: expected a name matching [A-Za-z0-9_.-]+, got {value!r}"
        )
    return value


def _as_prob(value, path: str) -> float:
    p = _as_float(value, path)
    if not (PROB_FLOOR <= p <= 1.0):
        raise ConfigError(f"{path}: probability must lie in [{PROB_FLOOR}, 1], got {p}")
    return p


def _parse_data(node, path: str) -> DataConfig:
    node = _expect_mapping(node, path)
    allowed = {"n_agents", "samples_per_agent", "dimension", "noise_std", "data_seed"}
    _reject_unknown(node, allowed, path)
    return DataConfig(
        n_agents=_as_int(_get(node, "n_agents", path), f"{path}.n_agents", minimum=1),
        samples_per_agent=_as_int(
            _get(node, "samples_per_agent", path), f"{path}.samples_per_agent", minimum=1
        ),
        dimension=_as_int(_get(node, "dimension", path), f"{path}.dimension", minimum=1),
        noise_std=_as_float(
            _get(node, "noise_std", path), f"{path}.noise_std", minimum=0.0
        ),
        data_seed=_as_int(_get(node, "data_seed", path), f"{path}.data_seed", minimum=0),
    )


def _parse_schedule(
    node, n_agents: int, max_rounds: int, path: str
) -> ParticipationSchedule:
    node = _expect_mapping(node, path)
    kind = _get(node, "kind", path)
    if kind == "constant":
        _reject_unknown(node, {"kind", "p"}, path)
        return ParticipationSchedule.constant_uniform(
            _as_prob(_get(node, "p", path), f"{path}.p")
        )
    if kind == "per_agent":
        _reject_unknown(node, {"kind", "probs"}, path)
        probs = _get(node, "probs", path)
        if not isinstance(probs, list) or len(probs) != n_agents:
            raise ConfigError(f"{path}.probs: expected a list of {n_agents} probabilities")
        values = [_as_prob(p, f"{path}.probs[{i}]") for i, p in enumerate(probs)]
        return ParticipationSchedule.per_agent_fixed(np.array(values))
    if kind == "per_round":
        _reject_unknown(node, {"kind", "probs"}, path)
        rows = _get(node, "probs", path)
        if not isinstance(rows, list) or len(rows) < max_rounds:
            raise ConfigError(
                f"{path}.probs: expected at least {max_rounds} rows (one per round)"
            )
        matrix = []
        for k, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != n_agents:
                raise ConfigError(
                    f"{path}.probs[{k}]: expected a list of {n_agents} probabilities"
                )
            matrix.append([_as_prob(p, f"{path}.probs[{k}][{i}]") for i, p in enumerate(row)])
        return ParticipationSchedule.per_round_matrix(np.array(matrix))
    if kind == "per_agent_uniform_draw":
        _reject_unknown(node, {"kind", "low", "high", "seed"}, path)
        low = _as_float(_get(node, "low", path), f"{path}.low", minimum=PROB_FLOOR)
        high = _as_float(_get(node, "high", path), f"{path}.high", maximum=1.0)
        if low > high:
            raise ConfigError(f"{path}: low ({low}) must not exceed high ({high})")
        seed = _as_int(_get(node, "seed", path), f"{path}.seed", minimum=0)
        rng = np.random.default_rng(seed)
        return ParticipationSchedule.per_agent_fixed(rng.uniform(low, high, n_agents))
    raise ConfigError(f"{path}.kind: unknown schedule kind {kind!r}")


def _schedule_to_dict(schedule: ParticipationSchedule) -> dict:
    if schedule.kind is ScheduleKind.CONSTANT:
        return {"kind": "constant", "p": schedule.constant}
    if schedule.kind is ScheduleKind.PER_AGENT:
        return {"kind": "per_agent", "probs": [float(p) for p in schedule.per_agent]}
    return {"kind": "per_round", "probs": [[float(p) for p in row] for row in schedule.matrix]}


_COMMON_ALG_KEYS = {"name", "kind", "rounds"}
_SGD_KEYS = {"local_steps", "base_stepsize", "decay"}


def _parse_algorithm(node, path: str) -> dict:
    """First pass: validate one algorithm entry into a plain field dict."""
    node = _expect_mapping(node, path)
    kind_raw = _get(node, "kind", path)
    try:
        kind = Algorithm(kind_raw)
    except ValueError:
        raise ConfigError(f"{path}.kind: unknown algorithm kind {kind_raw!r}") from None
    fields: dict = {"kind": kind}
    fields["name"] = (
        _as_name(node["name"], f"{path}.name") if "name" in node else kind.value
    )
    fields["rounds"] = _as_int(_get(node, "rounds", path), f"{path}.rounds", minimum=1)

    if kind is Algorithm.FEDAVG_SVRG:
        _reject_unknown(node, _COMMON_ALG_KEYS | {"snapshots", "inner_steps", "stepsize"}, path)
        fields["snapshots"] = _as_int(
            _get(node, "snapshots", path), f"{path}.snapshots", minimum=1
        )
        fields["inner_steps"] = _as_int(
            _get(node, "inner_steps", path), f"{path}.inner_steps", minimum=1
        )
        fields["stepsize"] = _as_float(
            _get(node, "stepsize", path), f"{path}.stepsize", minimum=0.0, strict_min=True
        )
        return fields

    allowed = _COMMON_ALG_KEYS | _SGD_KEYS
    if kind is Algorithm.FEDAVG_UNIFORM_BATCH:
        allowed = allowed | {"batch_size"}
        fields["batch_size"] = _as_int(
            _get(node, "batch_size", path), f"{path}.batch_size", minimum=1
        )
    _reject_unknown(node, allowed, path)
    if "local_steps" in node:
        fields["local_steps"] = _as_int(node["local_steps"], f"{path}.local_steps", minimum=1)
    fields["base_stepsize"] = _as_float(
        node.get("base_stepsize", 0.1), f"{path}.base_stepsize", minimum=0.0, strict_min=True
    )
    decay = node.get("decay", "per_round")
    if decay not in ("per_round", "constant"):
        raise ConfigError(f"{path}.decay: expected 'per_round' or 'constant', got {decay!r}")
    fields["decay"] = decay
    return fields


def _algorithm_to_dict(alg: RunConfig) -> dict:
    out = {"name": alg.name, "kind": alg.algorithm.value, "rounds": alg.rounds}
    if alg.algorithm is Algorithm.FEDAVG_SVRG:
        out.update(
            snapshots=alg.svrg.snapshots,
            inner_steps=alg.svrg.inner_steps,
            stepsize=alg.svrg.stepsize,
        )
    else:
        out.update(
            local_steps=alg.sgd.steps,
            base_stepsize=alg.sgd.base_stepsize,
            decay=alg.sgd.decay,
        )
        if alg.algorithm is Algorithm.FEDAVG_UNIFORM_BATCH:
            out["batch_size"] = alg.batch_size
    return out


def parse_config(doc, default_name: str = "experiment") -> ExperimentConfig:
    """Validate a parsed JSON document and resolve it into an ExperimentConfig."""
    doc = _expect_mapping(doc, "config")
    allowed = {
        "name", "data", "runs", "master_seed", "output_dir",
        "theta0", "schedule", "algorithms",
    }
    _reject_unknown(doc, allowed, "config")

    name = _as_name(doc.get("name", default_name), "config.name")
    data = _parse_data(_get(doc, "data", "config"), "config.data")
    runs = _as_int(_get(doc, "runs", "config"), "config.runs", minimum=1)
    master_seed = _as_int(
        _get(doc, "master_seed", "config"), "config.master_seed",
        minimum=0, maximum=2**64 - 1,
    )
    output_dir = doc.get("output_dir", f"results/{name}")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("config.output_dir: expected a nonempty string")

    theta0_node = _get(doc, "theta0", "config")
    if isinstance(theta0_node, list):
        if len(theta0_node) != data.dimension:
            raise ConfigError(
                f"config.theta0: expected {data.dimension} entries, got {len(theta0_node)}"
            )
        theta0 = tuple(
            _as_float(v, f"config.theta0[{i}]") for i, v in enumerate(theta0_node)
        )
    else:
        fill = _as_float(theta0_node, "config.theta0")
        theta0 = (fill,) * data.dimension

    algorithms_node = _get(doc, "algorithms", "config")
    if not isinstance(algorithms_node, list) or not algorithms_node:
        raise ConfigError("config.algorithms: expected a nonempty list")
    parsed = [
        _parse_algorithm(node, f"config.algorithms[{i}]")
        for i, node in enumerate(algorithms_node)
    ]
    names = [fields["name"] for fields in parsed]
    if len(set(names)) != len(names):
        raise ConfigError("config.algorithms: algorithm names must be unique")

    max_rounds = max(fields["rounds"] for fields in parsed)
    schedule = _parse_schedule(
        _get(doc, "schedule", "config"), data.n_agents, max_rounds, "config.schedule"
    )

    svrg_entries = [f for f in parsed if f["kind"] is Algorithm.FEDAVG_SVRG]
    equal_work = (
        svrg_entries[0]["snapshots"] * svrg_entries[0]["inner_steps"]
        if len(svrg_entries) == 1
        else None
    )

    algorithms = []
    for i, fields in enumerate(parsed):
        kind = fields["kind"]
        if kind is Algorithm.FEDAVG_SVRG:
            algorithms.append(RunConfig(
                name=fields["name"],
                algorithm=kind,
                rounds=fields["rounds"],
                schedule=schedule,
                theta0=np.array(theta0),
                master_seed=master_seed,
                svrg=SvrgParams(
                    snapshots=fields["snapshots"],
                    inner_steps=fields["inner_steps"],
                    stepsize=fields["stepsize"],
                ),
            ))
            continue
        steps = fields.get("local_steps", equal_work)
        if steps is None:
            raise ConfigError(
                f"config.algorithms[{i}].local_steps: required unless the experiment "
                "contains exactly one fedavg_svrg entry to match work against"
            )
        if kind is Algorithm.FEDAVG_UNIFORM_BATCH and fields["batch_size"] > data.n_agents:
            raise ConfigError(
                f"config.algorithms[{i}].batch_size: must be <= n_agents ({data.n_agents})"
            )
        algorithms.append(RunConfig(
            name=fields["name"],
            algorithm=kind,
            rounds=fields["rounds"],
            schedule=schedule,
            theta0=np.array(theta0),
            master_seed=master_seed,
            sgd=SgdParams(
                steps=steps,
                base_stepsize=fields["base_stepsize"],
                decay=fields["decay"],
            ),
            batch_size=fields.get("batch_size"),
        ))

    return ExperimentConfig(
        name=name,
        data=data,
        runs=runs,
        master_seed=master_seed,
        output_dir=output_dir,
        theta0=theta0,
        schedule=schedule,
        algorithms=tuple(algorithms),
    )


def load_config(path) -> ExperimentConfig:
    """Load, validate and resolve a config file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return parse_config(doc, default_name=path.stem)


def builtin_config_names() -> list[str]:
    """Names of the experiment configs shipped inside the package."""
    base = importlib.resources.files("fedsim") / "configs"
    return sorted(p.name[: -len(".json")] for p in base.iterdir() if p.name.endswith(".json"))


def load_builtin_config(name: str) -> ExperimentConfig:
    """Load a shipped config (e.g. ``paper_case1``) by bare name."""
    res = importlib.resources.files("fedsim") / "configs" / f"{name}.json"
    if not res.is_file():
        raise ConfigError(
            f"no builtin config named {name!r}; available: {', '.join(builtin_config_names())}"
        )
    return parse_config(json.loads(res.read_text(encoding="utf-8")), default_name=name)
