"""Experiment configuration: JSON schema, validation, and resolution.

A config document is a single JSON tree. Each section's keys are declared
once, in a key table that gives every key its parser, with its bounds, and
its default or ``_REQUIRED``; README's "Config reference" describes them.
Unknown keys are rejected with the offending path so typos cannot silently
disable anything. ``parse_config`` resolves a document into its canonical
form: every default filled in, a ``per_agent_uniform_draw`` schedule drawn
and written out as ``per_agent``, and each baseline's ``local_steps``
resolved to equal work. ``ExperimentConfig`` is built from that document
and keeps it, so the serialized form of a loaded config is fully explicit
and loads back to an identical config.

All probabilities must lie in [PROB_FLOOR, 1] = [1e-6, 1], the range
``ParticipationSchedule`` also enforces; the inverse-probability weighting
amplifies variance without bound below that floor.
"""

from __future__ import annotations

import importlib.resources
import json
import math
import pickle
import re
from functools import partial
from pathlib import Path

import numpy as np

from .federation import PROB_FLOOR, Algorithm, ParticipationSchedule, RunConfig, SgdParams
from .frozen import Frozen
from .local_update import SvrgParams

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
    """Fully resolved experiment: dataset, Monte Carlo plan, algorithm runs.

    Built from the canonical document that ``parse_config`` resolves, which
    it keeps: every default filled in, the schedule's probabilities written
    out and every baseline's ``local_steps`` set. The records are derived
    from that document here, and checked by their own constructors; the
    document itself is trusted, so build a config through ``parse_config``.
    """

    def __init__(self, doc: dict):
        schedule = _build_schedule(doc["schedule"])
        theta0 = tuple(doc["theta0"])
        master_seed = doc["master_seed"]
        self.__dict__.update(
            name=doc["name"], data=DataConfig(**doc["data"]), runs=doc["runs"],
            master_seed=master_seed, output_dir=doc["output_dir"], theta0=theta0,
            schedule=schedule,
            algorithms=tuple(
                _build_run(alg, schedule, theta0, master_seed) for alg in doc["algorithms"]
            ),
            _doc=doc,
        )

    def to_dict(self) -> dict:
        """A fresh copy of the canonical document; parsing it back yields an identical config."""
        # Of the deep copies of plain JSON data, a pickle round trip is the quickest.
        return pickle.loads(pickle.dumps(self._doc))

    def with_overrides(
        self, master_seed: int | None = None, output_dir: str | None = None
    ) -> "ExperimentConfig":
        """This config with a new master seed or output directory.

        Only the overridden keys are checked, each by its ``parse_config``
        parser and path; the rest of the canonical document is already
        resolved. The copy is shallow, as the document is never mutated.
        """
        doc = dict(self._doc)
        for key, value in (("master_seed", master_seed), ("output_dir", output_dir)):
            if value is not None:
                doc[key] = _TOP_KEYS[key][0](value, f"config.{key}")
        return ExperimentConfig(doc)


def _build_schedule(node: dict) -> ParticipationSchedule:
    return ParticipationSchedule(node["p"] if node["kind"] == "constant" else node["probs"])


def _build_run(
    alg: dict, schedule: ParticipationSchedule, theta0: tuple[float, ...], master_seed: int
) -> RunConfig:
    kind = Algorithm(alg["kind"])
    svrg = sgd = None
    if kind is Algorithm.FEDAVG_SVRG:
        svrg = SvrgParams(alg["snapshots"], alg["inner_steps"], alg["stepsize"])
    else:
        sgd = SgdParams(alg["local_steps"], alg["base_stepsize"], alg["decay"])
    return RunConfig(
        alg["name"], kind, alg["rounds"], schedule, theta0, master_seed, svrg, sgd,
        alg.get("batch_size"),
    )


def _expect_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected an object, got {type(node).__name__}")
    return node


def _kind(node, path: str):
    """A section's ``kind``, read before the key table it selects."""
    if "kind" not in _expect_mapping(node, path):
        raise ConfigError(f"{path}.kind: missing required key")
    return node["kind"]


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
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{path}: must be finite") from None
    if not math.isfinite(value):
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


def _as_dir(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{path}: expected a nonempty string")
    return value


def _as_prob(value, path: str) -> float:
    p = _as_float(value, path)
    if not (PROB_FLOOR <= p <= 1.0):
        raise ConfigError(f"{path}: probability must lie in [{PROB_FLOOR}, 1], got {p}")
    return p


def _as_probs(value, path: str, n_agents: int) -> list[float]:
    if not isinstance(value, list) or len(value) != n_agents:
        raise ConfigError(f"{path}: expected a list of {n_agents} probabilities")
    return [_as_prob(p, f"{path}[{i}]") for i, p in enumerate(value)]


def _as_decay(value, path: str) -> str:
    if value not in ("per_round", "constant"):
        raise ConfigError(f"{path}: expected 'per_round' or 'constant', got {value!r}")
    return value


def _as_theta0(value, path: str, dimension: int) -> list[float]:
    if not isinstance(value, list):
        return [_as_float(value, path)] * dimension
    if len(value) != dimension:
        raise ConfigError(f"{path}: expected {dimension} entries, got {len(value)}")
    return [_as_float(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _as_algorithms(value, path: str) -> list[dict]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list")
    algorithms = [_parse_algorithm(node, f"{path}[{i}]") for i, node in enumerate(value)]
    names = [alg["name"] for alg in algorithms]
    if len(set(names)) != len(names):
        raise ConfigError(f"{path}: algorithm names must be unique")
    return algorithms


def _section(node, path: str, keys: dict) -> dict:
    """Check one object against its key table and return its canonical form.

    ``keys`` maps each allowed key to ``(parser, default)``. Unknown keys are
    rejected, a missing ``_REQUIRED`` key is reported, every given value is
    replaced by ``parser(value, key_path)`` and other defaults are filled
    in; a default of ``None`` leaves an absent key for the caller to resolve.
    """
    unknown = sorted(set(_expect_mapping(node, path)) - keys.keys())
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {', '.join(unknown)}")
    out = {}
    for key, (parse, default) in keys.items():
        if key in node:
            out[key] = parse(node[key], f"{path}.{key}")
        elif default is _REQUIRED:
            raise ConfigError(f"{path}.{key}: missing required key")
        elif default is not None:
            out[key] = default
    return out


# The key tables: each key of a section with its parser and its default.
_REQUIRED = object()
_CHECKED_LATER = (lambda value, path: value, _REQUIRED)
_COUNT = partial(_as_int, minimum=1)
_SEED = partial(_as_int, minimum=0)
_STEPSIZE = partial(_as_float, minimum=0.0, strict_min=True)
# A section's kind selects its table, so _kind reads and checks it first.
_KIND = {"kind": _CHECKED_LATER}

_DATA_KEYS = {
    "n_agents": (_COUNT, _REQUIRED),
    "samples_per_agent": (_COUNT, _REQUIRED),
    "dimension": (_COUNT, _REQUIRED),
    "noise_std": (partial(_as_float, minimum=0.0), _REQUIRED),
    "data_seed": (_SEED, _REQUIRED),
}
_TOP_KEYS = {
    "name": (_as_name, None),
    "data": (partial(_section, keys=_DATA_KEYS), _REQUIRED),
    "runs": (_COUNT, _REQUIRED),
    "master_seed": (partial(_as_int, minimum=0, maximum=2**64 - 1), _REQUIRED),
    "output_dir": (_as_dir, None),
    "theta0": _CHECKED_LATER,
    "schedule": _CHECKED_LATER,
    "algorithms": (_as_algorithms, _REQUIRED),
}
# Probability lists are checked against n_agents and the rounds by _parse_schedule.
_SCHEDULE_KEYS = {
    "constant": {**_KIND, "p": (_as_prob, _REQUIRED)},
    "per_agent": {**_KIND, "probs": _CHECKED_LATER},
    "per_round": {**_KIND, "probs": _CHECKED_LATER},
    "per_agent_uniform_draw": {
        **_KIND,
        "low": (partial(_as_float, minimum=PROB_FLOOR), _REQUIRED),
        "high": (partial(_as_float, maximum=1.0), _REQUIRED),
        "seed": (_SEED, _REQUIRED),
    },
}
# A baseline's absent local_steps is resolved to equal work by parse_config.
_COMMON_KEYS = {"name": (_as_name, None), **_KIND, "rounds": (_COUNT, _REQUIRED)}
_SGD_KEYS = {
    **_COMMON_KEYS,
    "local_steps": (_COUNT, None),
    "base_stepsize": (_STEPSIZE, 0.1),
    "decay": (_as_decay, "per_round"),
}
_ALGORITHM_KEYS = {
    "fedavg_svrg": {
        **_COMMON_KEYS,
        "snapshots": (_COUNT, _REQUIRED),
        "inner_steps": (_COUNT, _REQUIRED),
        "stepsize": (_STEPSIZE, _REQUIRED),
    },
    "fedavg_prob_sgd": _SGD_KEYS,
    "fedavg_uniform_batch": {**_SGD_KEYS, "batch_size": (_COUNT, _REQUIRED)},
}


def _parse_schedule(node, n_agents: int, max_rounds: int, path: str) -> dict:
    kind = _kind(node, path)
    if not isinstance(kind, str) or kind not in _SCHEDULE_KEYS:
        raise ConfigError(f"{path}.kind: unknown schedule kind {kind!r}")
    out = _section(node, path, _SCHEDULE_KEYS[kind])
    if kind == "per_agent_uniform_draw":
        low, high = out["low"], out["high"]
        if low > high:
            raise ConfigError(f"{path}: low ({low}) must not exceed high ({high})")
        probs = np.random.default_rng(out["seed"]).uniform(low, high, n_agents)
        return {"kind": "per_agent", "probs": probs.tolist()}
    if kind == "per_agent":
        out["probs"] = _as_probs(out["probs"], f"{path}.probs", n_agents)
    elif kind == "per_round":
        rows = out["probs"]
        if not isinstance(rows, list) or len(rows) < max_rounds:
            raise ConfigError(
                f"{path}.probs: expected at least {max_rounds} rows (one per round)"
            )
        out["probs"] = [
            _as_probs(row, f"{path}.probs[{k}]", n_agents) for k, row in enumerate(rows)
        ]
    return out


def _parse_algorithm(node, path: str) -> dict:
    kind = _kind(node, path)
    try:
        kind = Algorithm(kind).value
    except ValueError:
        raise ConfigError(f"{path}.kind: unknown algorithm kind {kind!r}") from None
    alg = _section(node, path, _ALGORITHM_KEYS[kind])
    alg["kind"] = kind
    alg.setdefault("name", kind)
    return alg


def parse_config(doc, default_name: str = "experiment") -> ExperimentConfig:
    """Validate a parsed JSON document, resolve it and build the config from it."""
    doc = _section(doc, "config", _TOP_KEYS)
    if "name" not in doc:
        doc["name"] = _as_name(default_name, "config.name")
    doc.setdefault("output_dir", f"results/{doc['name']}")
    data, algorithms = doc["data"], doc["algorithms"]
    doc["theta0"] = _as_theta0(doc["theta0"], "config.theta0", data["dimension"])
    doc["schedule"] = _parse_schedule(
        doc["schedule"], data["n_agents"], max(alg["rounds"] for alg in algorithms),
        "config.schedule",
    )
    svrg = [alg for alg in algorithms if alg["kind"] == "fedavg_svrg"]
    equal_work = svrg[0]["snapshots"] * svrg[0]["inner_steps"] if len(svrg) == 1 else None
    for i, alg in enumerate(algorithms):
        path = f"config.algorithms[{i}]"
        if alg["kind"] != "fedavg_svrg" and "local_steps" not in alg:
            if equal_work is None:
                raise ConfigError(
                    f"{path}.local_steps: required unless the experiment "
                    "contains exactly one fedavg_svrg entry to match work against"
                )
            alg["local_steps"] = equal_work
        if alg.get("batch_size", 0) > data["n_agents"]:
            raise ConfigError(f"{path}.batch_size: must be <= n_agents ({data['n_agents']})")
    return ExperimentConfig(doc)


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
