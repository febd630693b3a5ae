import json

import numpy as np
import pytest

from fedsim.config import (
    ConfigError,
    builtin_config_names,
    load_builtin_config,
    load_config,
    parse_config,
)
from fedsim.federation import Algorithm, ScheduleKind


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
        assert cfg.schedule.kind is ScheduleKind.PER_AGENT
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
