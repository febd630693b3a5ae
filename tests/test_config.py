import json
import re
from pathlib import Path

import numpy as np
import pytest

from fedsim.config import (
    _ALGORITHM_KEYS,
    _DATA_KEYS,
    _SCHEDULE_KEYS,
    _TOP_KEYS,
    ConfigError,
    builtin_config_names,
    load_builtin_config,
    load_config,
    parse_config,
)
from fedsim.federation import Algorithm


def minimal_doc(**overrides):
    doc = {
        "data": {
            "n_agents": 3,
            "samples_per_agent": 4,
            "dimension": 2,
            "noise_std": 1.0,
            "data_seed": 1,
        },
        "runs": 2,
        "master_seed": 42,
        "theta0": 0.0,
        "schedule": {"kind": "constant", "p": 0.5},
        "algorithms": [
            {
                "kind": "fedavg_svrg",
                "rounds": 3,
                "snapshots": 2,
                "inner_steps": 2,
                "stepsize": 0.1,
            }
        ],
    }
    doc.update(overrides)
    return doc


class TestBuiltinConfigs:
    def test_both_cases_ship(self):
        names = builtin_config_names()
        assert "paper_case1" in names
        assert "paper_case2" in names

    def test_paper_case1_matches_benchmark_definition(self):
        cfg = load_builtin_config("paper_case1")
        assert cfg.runs == 20
        assert cfg.data.n_agents == 10
        assert cfg.data.samples_per_agent == 50
        assert cfg.data.dimension == 10
        assert cfg.theta0 == (0.5,) * 10
        svrg = {a.name: a for a in cfg.algorithms}["fedavg_svrg"]
        assert svrg.rounds == 100
        assert svrg.svrg.snapshots == 5
        assert svrg.svrg.inner_steps == 2
        assert svrg.svrg.stepsize == 0.1

    def test_equal_work_default_for_baselines(self):
        cfg = load_builtin_config("paper_case1")
        by_name = {a.name: a for a in cfg.algorithms}
        assert by_name["fedavg_prob_sgd"].sgd.steps == 10
        assert by_name["fedavg_uniform_batch"].sgd.steps == 10
        assert by_name["fedavg_uniform_batch"].batch_size == 5
        case2 = {a.name: a for a in load_builtin_config("paper_case2").algorithms}
        assert case2["fedavg_prob_sgd"].sgd.steps == 50

    def test_unknown_builtin_name(self):
        with pytest.raises(ConfigError):
            load_builtin_config("nonexistent")


class TestValidation:
    def test_zero_probability_names_field(self):
        doc = minimal_doc(schedule={"kind": "constant", "p": 0})
        with pytest.raises(ConfigError, match="schedule.p"):
            parse_config(doc)

    def test_probability_floor_enforced(self):
        doc = minimal_doc(schedule={"kind": "per_agent", "probs": [0.5, 1e-9, 0.5]})
        with pytest.raises(ConfigError, match=r"probs\[1\]"):
            parse_config(doc)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="typo_key"):
            parse_config(minimal_doc(typo_key=1))

    def test_unknown_data_key(self):
        doc = minimal_doc()
        doc["data"]["extra"] = 1
        with pytest.raises(ConfigError, match="config.data"):
            parse_config(doc)

    def test_unknown_algorithm_key(self):
        doc = minimal_doc()
        doc["algorithms"][0]["typo"] = 1
        with pytest.raises(ConfigError, match=r"algorithms\[0\]"):
            parse_config(doc)

    def test_duplicate_algorithm_names(self):
        doc = minimal_doc()
        doc["algorithms"] = [doc["algorithms"][0], dict(doc["algorithms"][0])]
        with pytest.raises(ConfigError, match="unique"):
            parse_config(doc)

    def test_theta0_length_checked(self):
        with pytest.raises(ConfigError, match="theta0"):
            parse_config(minimal_doc(theta0=[0.5, 0.5, 0.5]))

    def test_theta0_list_accepted(self):
        cfg = parse_config(minimal_doc(theta0=[0.5, -1.0]))
        assert cfg.theta0 == (0.5, -1.0)

    def test_matrix_schedule_must_cover_rounds(self):
        doc = minimal_doc(schedule={"kind": "per_round", "probs": [[0.5, 0.5, 0.5]] * 2})
        with pytest.raises(ConfigError, match="at least 3 rows"):
            parse_config(doc)

    def test_matrix_schedule_row_width_checked(self):
        doc = minimal_doc(
            schedule={"kind": "per_round", "probs": [[0.5, 0.5]] * 3}
        )
        with pytest.raises(ConfigError, match=r"probs\[0\]"):
            parse_config(doc)

    def test_batch_size_bounded_by_agents(self):
        doc = minimal_doc()
        doc["algorithms"].append({
            "kind": "fedavg_uniform_batch", "rounds": 3, "batch_size": 4,
        })
        with pytest.raises(ConfigError, match="batch_size"):
            parse_config(doc)

    def test_local_steps_required_without_svrg_reference(self):
        doc = minimal_doc()
        doc["algorithms"] = [{"kind": "fedavg_prob_sgd", "rounds": 3}]
        with pytest.raises(ConfigError, match="local_steps"):
            parse_config(doc)
        doc["algorithms"] = [{"kind": "fedavg_prob_sgd", "rounds": 3, "local_steps": 7}]
        cfg = parse_config(doc)
        assert cfg.algorithms[0].sgd.steps == 7

    def test_master_seed_range(self):
        with pytest.raises(ConfigError, match="master_seed"):
            parse_config(minimal_doc(master_seed=-1))
        with pytest.raises(ConfigError, match="master_seed"):
            parse_config(minimal_doc(master_seed=2**64))

    @pytest.mark.parametrize("path", ["config.data.data_seed", "config.schedule.seed"])
    def test_seeds_must_be_nonnegative(self, path):
        # numpy seeds its generators from non-negative integers only.
        doc = minimal_doc(schedule={"kind": "per_agent_uniform_draw", "low": 0.5,
                                    "high": 1.0, "seed": 3})
        section, key = path.split(".")[1:]
        doc[section][key] = -1
        with pytest.raises(ConfigError, match=f"^{path}: must be >= 0, got -1$"):
            parse_config(doc)
        doc[section][key] = 0
        parse_config(doc)

    def test_runs_and_rounds_minimums(self):
        with pytest.raises(ConfigError, match="runs"):
            parse_config(minimal_doc(runs=0))
        doc = minimal_doc()
        doc["algorithms"][0]["rounds"] = 0
        with pytest.raises(ConfigError, match="rounds"):
            parse_config(doc)

    def test_data_validation(self):
        doc = minimal_doc()
        doc["data"]["n_agents"] = 0
        with pytest.raises(ConfigError, match="n_agents"):
            parse_config(doc)

    def test_unknown_kinds(self):
        with pytest.raises(ConfigError, match="schedule.kind"):
            parse_config(minimal_doc(schedule={"kind": "bogus"}))
        doc = minimal_doc()
        doc["algorithms"][0]["kind"] = "bogus"
        with pytest.raises(ConfigError, match="algorithm kind"):
            parse_config(doc)


class TestResolution:
    def test_defaults_are_resolved(self):
        cfg = parse_config(minimal_doc(), default_name="sample")
        assert cfg.name == "sample"
        assert cfg.output_dir == "results/sample"
        assert cfg.algorithms[0].name == "fedavg_svrg"

    def test_uniform_draw_resolves_to_per_agent(self):
        doc = minimal_doc(
            schedule={"kind": "per_agent_uniform_draw", "low": 0.3, "high": 0.9, "seed": 5}
        )
        cfg = parse_config(doc)
        assert cfg.schedule.probs.ndim == 1
        probs = cfg.schedule.per_agent
        assert probs.shape == (3,)
        assert np.all((probs >= 0.3) & (probs <= 0.9))
        again = parse_config(doc)
        assert np.array_equal(probs, again.schedule.per_agent)

    def test_round_trip_is_identity(self):
        cfg = load_builtin_config("paper_case1")
        doc = cfg.to_dict()
        reparsed = parse_config(doc)
        assert reparsed.to_dict() == doc

    def test_round_trip_through_json_text(self, tmp_path):
        cfg = load_builtin_config("paper_case2")
        path = tmp_path / "case2_resolved.json"
        path.write_text(json.dumps(cfg.to_dict()))
        # The serialized form carries the explicit name, so the file stem
        # does not leak into the reloaded config.
        assert load_config(path).to_dict() == cfg.to_dict()

    def test_overrides(self):
        cfg = parse_config(minimal_doc())
        out = cfg.with_overrides(master_seed=9, output_dir="elsewhere")
        assert out.master_seed == 9
        assert out.output_dir == "elsewhere"
        assert all(alg.master_seed == 9 for alg in out.algorithms)
        assert out.to_dict() == parse_config(
            minimal_doc(master_seed=9, output_dir="elsewhere")).to_dict()
        assert cfg.master_seed != 9 and cfg.output_dir != "elsewhere"

    def test_algorithm_kinds_mapped(self):
        doc = minimal_doc()
        doc["algorithms"].append(
            {"kind": "fedavg_prob_sgd", "rounds": 3, "decay": "constant"}
        )
        doc["algorithms"].append(
            {"kind": "fedavg_uniform_batch", "rounds": 3, "batch_size": 2}
        )
        cfg = parse_config(doc)
        kinds = [a.algorithm for a in cfg.algorithms]
        assert kinds == [
            Algorithm.FEDAVG_SVRG,
            Algorithm.FEDAVG_PROB_SGD,
            Algorithm.FEDAVG_UNIFORM_BATCH,
        ]
        assert cfg.algorithms[1].sgd.decay == "constant"
        assert cfg.algorithms[2].sgd.decay == "per_round"


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(path)

    def test_name_defaults_to_stem(self, tmp_path):
        path = tmp_path / "my_experiment.json"
        path.write_text(json.dumps(minimal_doc()))
        assert load_config(path).name == "my_experiment"


DROP = object()
SVRG_SECOND = {"name": "second", "kind": "fedavg_svrg", "rounds": 3, "snapshots": 1,
               "inner_steps": 1, "stepsize": 0.1}
WORK_MESSAGE = ("local_steps: required unless the experiment contains exactly one "
                "fedavg_svrg entry to match work against")
NAME_MESSAGE = "expected a name matching [A-Za-z0-9_.-]+, got"
PROB_MESSAGE = "probability must lie in [1e-06, 1], got"

# One document per branch of the parser, each with a single error: (where,
# value, exact message). ``where`` is the key path edited in full_doc();
# DROP deletes the key, an empty path replaces the whole document.
CONFIG_ERRORS = [
    ((), [], "config: expected an object, got list"),
    (("typo",), 1, "config: unknown key(s) typo"),
    (("name",), "bad name", f"config.name: {NAME_MESSAGE} 'bad name'"),
    (("data",), DROP, "config.data: missing required key"),
    (("data",), 5, "config.data: expected an object, got int"),
    (("data", "extra"), 1, "config.data: unknown key(s) extra"),
    (("data", "dimension"), DROP, "config.data.dimension: missing required key"),
    (("data", "n_agents"), 1.5, "config.data.n_agents: expected an integer, got 1.5"),
    (("data", "samples_per_agent"), True,
     "config.data.samples_per_agent: expected an integer, got True"),
    (("data", "dimension"), 0, "config.data.dimension: must be >= 1, got 0"),
    (("data", "noise_std"), -1, "config.data.noise_std: must be >= 0.0, got -1.0"),
    (("data", "noise_std"), "x", "config.data.noise_std: expected a number, got 'x'"),
    (("data", "noise_std"), float("inf"), "config.data.noise_std: must be finite"),
    (("data", "data_seed"), -1, "config.data.data_seed: must be >= 0, got -1"),
    (("runs",), DROP, "config.runs: missing required key"),
    (("runs",), 0, "config.runs: must be >= 1, got 0"),
    (("master_seed",), DROP, "config.master_seed: missing required key"),
    (("master_seed",), 2**64,
     "config.master_seed: must be <= 18446744073709551615, got 18446744073709551616"),
    (("master_seed",), "7", "config.master_seed: expected an integer, got '7'"),
    (("output_dir",), "", "config.output_dir: expected a nonempty string"),
    (("output_dir",), 3, "config.output_dir: expected a nonempty string"),
    (("theta0",), DROP, "config.theta0: missing required key"),
    (("theta0",), [0.5, 0.5, 0.5], "config.theta0: expected 2 entries, got 3"),
    (("theta0",), [0.5, "a"], "config.theta0[1]: expected a number, got 'a'"),
    (("theta0",), True, "config.theta0: expected a number, got True"),
    (("theta0",), float("nan"), "config.theta0: must be finite"),
    (("schedule",), DROP, "config.schedule: missing required key"),
    (("schedule",), "constant", "config.schedule: expected an object, got str"),
    (("schedule",), {"p": 0.5}, "config.schedule.kind: missing required key"),
    (("schedule",), {"kind": "bogus"}, "config.schedule.kind: unknown schedule kind 'bogus'"),
    (("schedule",), {"kind": ["constant"]},
     "config.schedule.kind: unknown schedule kind ['constant']"),
    (("schedule",), {"kind": "constant", "p": 0.5, "probs": []},
     "config.schedule: unknown key(s) probs"),
    (("schedule",), {"kind": "constant"}, "config.schedule.p: missing required key"),
    (("schedule",), {"kind": "constant", "p": 0}, f"config.schedule.p: {PROB_MESSAGE} 0.0"),
    (("schedule",), {"kind": "constant", "p": "x"},
     "config.schedule.p: expected a number, got 'x'"),
    (("schedule",), {"kind": "per_agent"}, "config.schedule.probs: missing required key"),
    (("schedule",), {"kind": "per_agent", "probs": [0.5, 0.5]},
     "config.schedule.probs: expected a list of 3 probabilities"),
    (("schedule",), {"kind": "per_agent", "probs": [0.5, 1.5, 0.5]},
     f"config.schedule.probs[1]: {PROB_MESSAGE} 1.5"),
    (("schedule",), {"kind": "per_round", "probs": "x"},
     "config.schedule.probs: expected at least 3 rows (one per round)"),
    (("schedule",), {"kind": "per_round", "probs": [[0.5] * 3] * 2},
     "config.schedule.probs: expected at least 3 rows (one per round)"),
    (("schedule",), {"kind": "per_round", "probs": [[0.5] * 3, [0.5] * 2, [0.5] * 3]},
     "config.schedule.probs[1]: expected a list of 3 probabilities"),
    (("schedule",), {"kind": "per_round", "probs": [[0.5] * 3, [0.5] * 3, [0.5, 0.5, 0]]},
     f"config.schedule.probs[2][2]: {PROB_MESSAGE} 0.0"),
    (("schedule",), {"kind": "per_agent_uniform_draw", "low": 0, "high": 1, "seed": 1},
     "config.schedule.low: must be >= 1e-06, got 0.0"),
    (("schedule",), {"kind": "per_agent_uniform_draw", "low": 0.5, "high": 1.5, "seed": 1},
     "config.schedule.high: must be <= 1.0, got 1.5"),
    (("schedule",), {"kind": "per_agent_uniform_draw", "low": 0.9, "high": 0.5, "seed": 1},
     "config.schedule: low (0.9) must not exceed high (0.5)"),
    (("schedule",), {"kind": "per_agent_uniform_draw", "low": 0.5, "high": 1, "seed": -1},
     "config.schedule.seed: must be >= 0, got -1"),
    (("schedule",), {"kind": "per_agent_uniform_draw", "low": 0.5, "high": 1},
     "config.schedule.seed: missing required key"),
    (("schedule",), {"kind": "per_agent_uniform_draw", "low": 0.5, "high": 1, "seed": 1,
                     "p": 0.5}, "config.schedule: unknown key(s) p"),
    (("algorithms",), DROP, "config.algorithms: missing required key"),
    (("algorithms",), [], "config.algorithms: expected a nonempty list"),
    (("algorithms",), {"kind": "fedavg_svrg"}, "config.algorithms: expected a nonempty list"),
    (("algorithms", 0), 3, "config.algorithms[0]: expected an object, got int"),
    (("algorithms", 0, "kind"), DROP, "config.algorithms[0].kind: missing required key"),
    (("algorithms", 0, "kind"), "bogus",
     "config.algorithms[0].kind: unknown algorithm kind 'bogus'"),
    (("algorithms", 0, "kind"), ["fedavg_svrg"],
     "config.algorithms[0].kind: unknown algorithm kind ['fedavg_svrg']"),
    (("algorithms", 0, "name"), "a/b", f"config.algorithms[0].name: {NAME_MESSAGE} 'a/b'"),
    (("algorithms", 0, "rounds"), DROP, "config.algorithms[0].rounds: missing required key"),
    (("algorithms", 0, "rounds"), 0, "config.algorithms[0].rounds: must be >= 1, got 0"),
    (("algorithms", 0, "typo"), 1, "config.algorithms[0]: unknown key(s) typo"),
    (("algorithms", 0, "snapshots"), DROP,
     "config.algorithms[0].snapshots: missing required key"),
    (("algorithms", 0, "inner_steps"), 0,
     "config.algorithms[0].inner_steps: must be >= 1, got 0"),
    (("algorithms", 0, "stepsize"), DROP, "config.algorithms[0].stepsize: missing required key"),
    (("algorithms", 0, "stepsize"), 0, "config.algorithms[0].stepsize: must be > 0.0, got 0.0"),
    (("algorithms", 1, "local_steps"), 0,
     "config.algorithms[1].local_steps: must be >= 1, got 0"),
    (("algorithms", 1, "base_stepsize"), -0.1,
     "config.algorithms[1].base_stepsize: must be > 0.0, got -0.1"),
    (("algorithms", 1, "decay"), "linear",
     "config.algorithms[1].decay: expected 'per_round' or 'constant', got 'linear'"),
    (("algorithms", 2, "batch_size"), DROP,
     "config.algorithms[2].batch_size: missing required key"),
    (("algorithms", 2, "batch_size"), 0, "config.algorithms[2].batch_size: must be >= 1, got 0"),
    (("algorithms", 2, "batch_size"), 4,
     "config.algorithms[2].batch_size: must be <= n_agents (3)"),
    (("algorithms", 1, "name"), "fedavg_svrg",
     "config.algorithms: algorithm names must be unique"),
    (("algorithms", 0), DROP, f"config.algorithms[0].{WORK_MESSAGE}"),
    (("algorithms", 2), SVRG_SECOND, f"config.algorithms[1].{WORK_MESSAGE}"),
]


def full_doc():
    """minimal_doc() with one entry of each algorithm kind."""
    doc = minimal_doc()
    doc["algorithms"] += [
        {"kind": "fedavg_prob_sgd", "rounds": 3},
        {"kind": "fedavg_uniform_batch", "rounds": 3, "batch_size": 2},
    ]
    return doc


def edited(where, value):
    if not where:
        return value
    doc = full_doc()
    *parents, last = where
    node = doc
    for key in parents:
        node = node[key]
    if value is DROP:
        del node[last]
    else:
        node[last] = value
    return doc


class TestErrorMessages:
    def test_the_unedited_document_parses(self):
        assert len(parse_config(full_doc()).algorithms) == 3

    @pytest.mark.parametrize(
        "where, value, message", CONFIG_ERRORS,
        ids=[f"{'.'.join(map(str, w)) or 'root'}={'drop' if v is DROP else v!r}"
             for w, v, _ in CONFIG_ERRORS],
    )
    def test_each_error_is_reported_with_its_exact_text(self, where, value, message):
        with pytest.raises(ConfigError) as err:
            parse_config(edited(where, value))
        assert str(err.value) == message

    def test_an_invalid_default_name_is_reported(self):
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_doc(), default_name="my run")
        assert str(err.value) == f"config.name: {NAME_MESSAGE} 'my run'"
        assert parse_config(minimal_doc(name="ok"), default_name="my run").name == "ok"


class TestKeyTables:
    @pytest.mark.parametrize("index, key, value", [
        (0, "local_steps", 4),
        (1, "batch_size", 2),
        (1, "snapshots", 2),
        (2, "snapshots", 2),
    ])
    def test_a_key_of_another_algorithm_kind_is_rejected(self, index, key, value):
        doc = full_doc()
        doc["algorithms"][index][key] = value
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert str(err.value) == f"config.algorithms[{index}]: unknown key(s) {key}"

    def test_to_dict_returns_a_copy(self):
        cfg = parse_config(full_doc())
        before = cfg.to_dict()
        doc = cfg.to_dict()
        doc["runs"] = 99
        doc["data"]["n_agents"] = 99
        doc["theta0"][0] = 99.0
        doc["algorithms"][1]["local_steps"] = 99
        doc["algorithms"].clear()
        assert cfg.to_dict() == before
        assert cfg.to_dict() is not cfg.to_dict()

    def test_the_resolved_document_is_canonical(self):
        doc = full_doc()
        doc["schedule"] = {"kind": "per_agent_uniform_draw", "low": 0.5, "high": 1, "seed": 4}
        resolved = parse_config(doc, default_name="sample").to_dict()
        assert resolved["name"] == "sample"
        assert resolved["output_dir"] == "results/sample"
        assert resolved["theta0"] == [0.0, 0.0]
        assert resolved["schedule"]["kind"] == "per_agent"
        assert len(resolved["schedule"]["probs"]) == 3
        baseline = resolved["algorithms"][1]
        assert baseline == {"name": "fedavg_prob_sgd", "kind": "fedavg_prob_sgd", "rounds": 3,
                            "local_steps": 4, "base_stepsize": 0.1, "decay": "per_round"}

    @pytest.mark.parametrize("seed, shown", [(-1, "must be >= 0, got -1"),
                                             (True, "expected an integer, got True")])
    def test_override_master_seed_is_checked_as_config_master_seed(self, seed, shown):
        cfg = parse_config(minimal_doc())
        with pytest.raises(ConfigError) as err:
            cfg.with_overrides(master_seed=seed)
        assert str(err.value) == f"config.master_seed: {shown}"

    @pytest.mark.parametrize("output_dir", ["", 7])
    def test_override_output_dir_is_checked_as_config_output_dir(self, output_dir):
        cfg = parse_config(minimal_doc())
        with pytest.raises(ConfigError) as err:
            cfg.with_overrides(output_dir=output_dir)
        assert str(err.value) == "config.output_dir: expected a nonempty string"

    def test_readme_config_reference_names_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Config reference", 1)[1].split("\n## ", 1)[0]
        names = {f"data.{key}" for key in _DATA_KEYS} | set(_TOP_KEYS)
        names |= set(_SCHEDULE_KEYS) | set(_ALGORITHM_KEYS)
        for table in [*_SCHEDULE_KEYS.values(), *_ALGORITHM_KEYS.values()]:
            names |= set(table)
        missing = sorted(n for n in names if not re.search(f"[`\"]{re.escape(n)}[`\"]", section))
        assert missing == []
