"""Command-line interface.

Subcommands: ``run`` executes an experiment config and writes its artifacts,
``validate`` checks a config without running anything, ``oracle`` prints the
exact optimum of a config's dataset. Config arguments accept either a
filesystem path or the bare name of a shipped config (``paper_case1``).
Logs go to stderr at the level named by the FEDSIM_LOG environment
variable; data goes to files (or stdout for ``oracle``/``validate``) only.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .config import ConfigError, ExperimentConfig, load_builtin_config, load_config
from .experiment import build_dataset, run_experiment
from .federation import TrainingError
from .frozen import _as_int
from .losses import LossKind, SingularSystemError, least_squares_oracle, smoothness_constant

logger = logging.getLogger(__name__)


def _configure_logging() -> None:
    level_name = os.environ.get("FEDSIM_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        stream=sys.stderr,
        level=level,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _load(spec: str) -> ExperimentConfig:
    path = Path(spec)
    if path.exists():
        return load_config(path)
    if "/" not in spec and not spec.endswith(".json"):
        return load_builtin_config(spec)
    raise ConfigError(f"config file {spec!r} does not exist")


def _positive_int(text: str) -> int:
    try:  # ConfigError is a ValueError, as is int()'s error on a non-integer
        return _as_int(int(text), "workers", minimum=1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}") from None


def _cmd_run(args) -> int:
    config = _load(args.config)
    if args.master_seed is not None:
        config = config.with_overrides(master_seed=args.master_seed)
    result = run_experiment(config, output_dir=args.output_dir, workers=args.workers)
    logger.info("experiment %s complete: %s", config.name, result.output_dir)
    return 0


def _cmd_validate(args) -> int:
    config = _load(args.config)
    print(
        f"OK {config.name}: {len(config.algorithms)} algorithm(s), "
        f"{config.runs} run(s), {config.data.n_agents} agents"
    )
    return 0


def _cmd_oracle(args) -> int:
    config = _load(args.config)
    dataset, _ = build_dataset(config)
    theta_star, f_star = least_squares_oracle(dataset)
    payload = {
        "theta_star": [float(v) for v in theta_star],
        "f_star": f_star,
        "smoothness": smoothness_constant(LossKind.QUADRATIC, dataset),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim",
        description="Deterministic federated-learning simulator with probabilistic participation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment config and write artifacts")
    run_p.add_argument("config", help="config path or builtin name")
    run_p.add_argument(
        "--workers", type=_positive_int, default=1, help="parallel worker processes (>= 1)"
    )
    run_p.add_argument("--output-dir", default=None, help="override the config's output_dir")
    run_p.add_argument(
        "--master-seed", type=int, default=None, help="override the config's master_seed"
    )
    run_p.set_defaults(func=_cmd_run)

    val_p = sub.add_parser("validate", help="validate a config without running it")
    val_p.add_argument("config", help="config path or builtin name")
    val_p.set_defaults(func=_cmd_validate)

    orc_p = sub.add_parser("oracle", help="print the exact optimum of a config's dataset")
    orc_p.add_argument("config", help="config path or builtin name")
    orc_p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SingularSystemError as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return 1
    except TrainingError as exc:
        report = {
            "error": "training_failure",
            "algorithm": exc.algorithm,
            "run": exc.run_index,
            "round": exc.round_index,
            "agent": exc.agent,
            "reason": exc.reason,
        }
        print(json.dumps(report, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
