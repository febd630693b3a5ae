import concurrent.futures
import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fedsim.config
import fedsim.experiment
from fedsim.cli import build_parser
from fedsim.config import parse_config
from fedsim.experiment import _write_json, run_experiment
from fedsim.federation import TrainingError


def experiment_doc(**overrides):
    doc = {
        "name": "tiny",
        "data": {
            "n_agents": 3,
            "samples_per_agent": 5,
            "dimension": 2,
            "noise_std": 1.0,
            "data_seed": 12,
        },
        "runs": 3,
        "master_seed": 77,
        "theta0": 0.0,
        "schedule": {"kind": "per_agent", "probs": [0.6, 0.9, 1.0]},
        "algorithms": [
            {"kind": "fedavg_svrg", "rounds": 4, "snapshots": 2, "inner_steps": 2,
             "stepsize": 0.05},
            {"kind": "fedavg_prob_sgd", "rounds": 4, "base_stepsize": 0.05},
            {"kind": "fedavg_uniform_batch", "rounds": 4, "batch_size": 2,
             "base_stepsize": 0.05},
        ],
    }
    doc.update(overrides)
    return doc


def read_outputs(out_dir):
    files = sorted(p.name for p in out_dir.iterdir())
    return {name: (out_dir / name).read_bytes() for name in files}


def run_cli(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "fedsim", *args],
        capture_output=True, text=True, **kwargs,
    )


class TestRunExperiment:
    def test_trivial_config_single_row_per_algorithm(self, tmp_path):
        doc = experiment_doc(
            runs=1,
            data={"n_agents": 1, "samples_per_agent": 5, "dimension": 2,
                  "noise_std": 1.0, "data_seed": 12},
            schedule={"kind": "constant", "p": 1.0},
            algorithms=[
                {"kind": "fedavg_svrg", "rounds": 1, "snapshots": 1, "inner_steps": 1,
                 "stepsize": 0.05},
                {"kind": "fedavg_prob_sgd", "rounds": 1, "base_stepsize": 0.05},
                {"kind": "fedavg_uniform_batch", "rounds": 1, "batch_size": 1,
                 "base_stepsize": 0.05},
            ],
        )
        result = run_experiment(parse_config(doc), output_dir=tmp_path / "out")
        for alg in result.config.algorithms:
            lines = (tmp_path / "out" / f"trace_{alg.name}.csv").read_text().splitlines()
            assert lines[0] == "run,round,cost,cost_error,grad_norm_sq,n_active"
            assert len(lines) == 2
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["runs"] == 1
        for alg_summary in summary["algorithms"].values():
            assert alg_summary["final_variance"] is None
            assert alg_summary["cep_radius"] == 0.0

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = parse_config(experiment_doc())
        out = tmp_path / "out"
        run_experiment(cfg, output_dir=out)
        first = read_outputs(out)
        run_experiment(cfg, output_dir=out)
        second = read_outputs(out)
        assert first.keys() == second.keys()
        assert all(first[k] == second[k] for k in first)

    @pytest.mark.parametrize("schedule", [
        {"kind": "constant", "p": 0.7},
        {"kind": "per_agent", "probs": [0.6, 0.9, 1.0]},
        {"kind": "per_round", "probs": [[0.6, 0.9, 1.0], [1.0, 0.3, 0.5], [0.2, 0.8, 0.7],
                                        [0.9, 0.9, 0.4]]},
    ], ids=lambda schedule: schedule["kind"])
    def test_worker_count_does_not_change_bytes(self, tmp_path, schedule):
        cfg = parse_config(experiment_doc(schedule=schedule))
        out = tmp_path / "out"
        run_experiment(cfg, output_dir=out, workers=1)
        serial = read_outputs(out)
        run_experiment(cfg, output_dir=out, workers=3)
        parallel = read_outputs(out)
        assert serial.keys() == parallel.keys()
        assert all(serial[k] == parallel[k] for k in serial)

    def test_bernoulli_algorithms_share_participation(self, tmp_path):
        cfg = parse_config(experiment_doc())
        result = run_experiment(cfg, output_dir=tmp_path / "out")
        svrg = result.traces["fedavg_svrg"]
        sgd = result.traces["fedavg_prob_sgd"]
        for run_svrg, run_sgd in zip(svrg, sgd):
            for rec_a, rec_b in zip(run_svrg.records, run_sgd.records):
                assert np.array_equal(rec_a.indicators, rec_b.indicators)

    def test_adding_an_algorithm_preserves_other_streams(self, tmp_path):
        solo = experiment_doc()
        solo["algorithms"] = [solo["algorithms"][0]]
        both = experiment_doc()
        res_solo = run_experiment(parse_config(solo), output_dir=tmp_path / "solo")
        res_both = run_experiment(parse_config(both), output_dir=tmp_path / "both")
        for a, b in zip(res_solo.traces["fedavg_svrg"], res_both.traces["fedavg_svrg"]):
            for rec_a, rec_b in zip(a.records, b.records):
                assert np.array_equal(rec_a.theta, rec_b.theta)

    def test_each_entry_alone_writes_the_same_bytes(self, tmp_path):
        # An entry's streams are keyed by its name and its runs, not by the
        # other entries, so running it alone from the same resolved document
        # writes its trace CSV and summary entry byte for byte.
        doc = copy.deepcopy(fedsim.config.load_builtin_config("paper_case1").to_dict())
        doc["runs"] = 3
        for alg in doc["algorithms"]:
            alg["rounds"] = 20
        run_experiment(parse_config(doc), output_dir=tmp_path / "all")
        together = json.loads((tmp_path / "all" / "summary.json").read_text())["algorithms"]
        assert len(together) == 3
        for alg in doc["algorithms"]:
            name = alg["name"]
            alone_dir = tmp_path / name
            run_experiment(parse_config({**doc, "algorithms": [alg]}), output_dir=alone_dir)
            csv = f"trace_{name}.csv"
            assert (alone_dir / csv).read_bytes() == (tmp_path / "all" / csv).read_bytes()
            alone = json.loads((alone_dir / "summary.json").read_text())["algorithms"]
            assert list(alone) == [name]
            assert json.dumps(alone[name], indent=2) == json.dumps(together[name], indent=2)

    def test_summary_schema(self, tmp_path):
        cfg = parse_config(experiment_doc())
        run_experiment(cfg, output_dir=tmp_path / "out")
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert set(summary["algorithms"]) == {
            "fedavg_svrg", "fedavg_prob_sgd", "fedavg_uniform_batch"
        }
        svrg = summary["algorithms"]["fedavg_svrg"]
        assert {"final_mean_cost_error", "final_variance", "cep_radius",
                "cep_radius_2d", "avg_grad_norm_sq", "bound_lhs", "bound_rhs",
                "bound_imputed_cells"} <= set(svrg)
        assert svrg["bound_lhs"] is not None
        assert svrg["bound_rhs"] is not None
        assert summary["algorithms"]["fedavg_prob_sgd"]["bound_lhs"] is None
        resolved = json.loads((tmp_path / "out" / "config_resolved.json").read_text())
        assert resolved == cfg.with_overrides(output_dir=str(tmp_path / "out")).to_dict()

    def test_output_dir_override_is_not_a_reparse(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        run_experiment(parse_config(experiment_doc(runs=1, output_dir=str(out))))
        resolved = (out / "config_resolved.json").read_bytes()
        cfg = parse_config(experiment_doc(runs=1))
        parse = fedsim.config.parse_config
        calls = []

        def counting_parse(*args, **kwargs):
            calls.append(args)
            return parse(*args, **kwargs)

        monkeypatch.setattr(fedsim.config, "parse_config", counting_parse)
        run_experiment(cfg, output_dir=out)
        assert calls == []
        assert (out / "config_resolved.json").read_bytes() == resolved

    def test_csv_floats_round_trip(self, tmp_path):
        cfg = parse_config(experiment_doc())
        result = run_experiment(cfg, output_dir=tmp_path / "out")
        lines = (tmp_path / "out" / "trace_fedavg_svrg.csv").read_text().splitlines()
        first = lines[1].split(",")
        cost = float(first[2])
        assert cost == result.traces["fedavg_svrg"][0].records[0].cost


class LazyFuture(concurrent.futures.Future):
    """A future whose job runs when something first waits on it, unless it was cancelled."""

    def __init__(self, fn, args):
        super().__init__()
        self.job = fn, args

    def run_once(self):
        if not self.done() and self.set_running_or_notify_cancel():
            fn, args = self.job
            try:
                self.set_result(fn(*args))
            except Exception as exc:
                # As in a real pool, a job's error is raised by its future's result().
                self.set_exception(exc)

    def result(self, timeout=None):
        self.run_once()
        return super().result(timeout)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every pool run_experiment opens; the jobs run inline.

    The stand-in pool derives its ``map`` from ``concurrent.futures.Executor``,
    as ``ProcessPoolExecutor`` does. Its class attribute ``ran`` records the
    (algorithm, run) of every job that ran, in the order they ran. Like a
    real pool, it runs every job it was given unless the job is cancelled:
    at the latest when it shuts down.
    """
    sizes = []

    class InlinePool(concurrent.futures.Executor):
        ran = []

        def __init__(self, max_workers):
            sizes.append(max_workers)
            self.futures = []

        def submit(self, fn, *args):
            def job(kind, dataset, cfg, run_index):
                self.ran.append((cfg.name, run_index))
                return fn(kind, dataset, cfg, run_index)

            self.futures.append(LazyFuture(job, args))
            return self.futures[-1]

        def shutdown(self, wait=True, *, cancel_futures=False):
            for future in self.futures:
                if cancel_futures:
                    future.cancel()
                future.run_once()

    monkeypatch.setattr(fedsim.experiment, "ProcessPoolExecutor", InlinePool)
    return sizes


class TestWorkerPool:
    """The pool starts at most one worker per (algorithm, run) job."""

    @pytest.mark.parametrize("workers, runs, expected", [
        (64, 3, [9]),  # three algorithms x three runs
        (2, 3, [2]),
        (5, 1, [3]),
        (1, 3, []),
    ])
    def test_pool_is_capped_at_the_job_count(self, tmp_path, pool_sizes, workers, runs, expected):
        cfg = parse_config(experiment_doc(runs=runs))
        out = tmp_path / "out"
        run_experiment(cfg, output_dir=out, workers=workers)
        assert pool_sizes == expected
        pooled = read_outputs(out)
        run_experiment(cfg, output_dir=out, workers=1)
        assert pool_sizes == expected
        assert read_outputs(out) == pooled

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_a_worker_count_below_one(self, tmp_path, pool_sizes, workers):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            run_experiment(parse_config(experiment_doc()), output_dir=out, workers=workers)
        assert pool_sizes == []
        assert not out.exists()

    def test_a_failing_job_cancels_the_queued_ones(self, tmp_path, pool_sizes):
        ran = fedsim.experiment.ProcessPoolExecutor.ran
        run_experiment(parse_config(experiment_doc()), output_dir=tmp_path / "ok", workers=2)
        algorithms = ["fedavg_svrg", "fedavg_prob_sgd", "fedavg_uniform_batch"]
        assert ran == [(name, run) for name in algorithms for run in range(3)]
        ran.clear()
        doc = experiment_doc()
        doc["algorithms"][0]["stepsize"] = 1e200
        with pytest.raises(TrainingError) as err:
            run_experiment(parse_config(doc), output_dir=tmp_path / "out", workers=2)
        # The error is still that of the first failing job in (algorithm, run) order.
        assert (err.value.algorithm, err.value.run_index) == ("fedavg_svrg", 0)
        # No job after it ever ran.
        assert ran == [("fedavg_svrg", 0)]

    def test_a_single_job_runs_serially(self, tmp_path, pool_sizes):
        doc = experiment_doc(runs=1)
        doc["algorithms"] = doc["algorithms"][:1]
        run_experiment(parse_config(doc), output_dir=tmp_path / "out", workers=8)
        assert pool_sizes == []
        assert (tmp_path / "out" / "trace_fedavg_svrg.csv").exists()


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestStrictJson:
    def test_non_finite_floats_are_written_as_null(self, tmp_path):
        path = tmp_path / "payload.json"
        payload = {
            "inf": float("inf"),
            "list": [1.5, float("nan"), -float("inf")],
            "nested": {"nan": np.float64("nan"), "ok": 2.0},
        }
        _write_json(path, payload)
        parsed = json.loads(path.read_text(), parse_constant=reject_constant)
        assert parsed == {"inf": None, "list": [1.5, None, None],
                          "nested": {"nan": None, "ok": 2.0}}

    def test_finite_payload_keeps_its_bytes(self, tmp_path):
        path = tmp_path / "payload.json"
        payload = {
            "runs": 3,
            "f_star": 0.9812345678901234,
            "theta_star": [np.float64(-1e-300), 3.954688382431528e289, 0.1],
            "algorithms": {"a": {"final_variance": None, "bound_imputed_cells": 0}},
            "name": "tiny",
        }
        _write_json(path, payload)
        assert path.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestCli:
    def test_validate_ok(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(experiment_doc()))
        proc = run_cli(["validate", str(path)])
        assert proc.returncode == 0
        assert proc.stdout.startswith("OK tiny")

    def test_validate_builtin_name(self):
        proc = run_cli(["validate", "paper_case1"])
        assert proc.returncode == 0
        assert "paper_case1" in proc.stdout

    def test_validate_bad_config_exits_2(self, tmp_path):
        doc = experiment_doc(schedule={"kind": "constant", "p": 0})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        proc = run_cli(["validate", str(path)])
        assert proc.returncode == 2
        assert "schedule.p" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("section, key", [("data", "data_seed"), ("schedule", "seed")])
    def test_negative_seed_exits_2(self, tmp_path, command, section, key):
        doc = experiment_doc(schedule={"kind": "per_agent_uniform_draw", "low": 0.5,
                                       "high": 1.0, "seed": 3})
        doc[section][key] = -5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        args = ["--output-dir", str(out)] if command == "run" else []
        proc = run_cli([command, str(path), *args])
        assert proc.returncode == 2
        assert proc.stderr == f"config error: config.{section}.{key}: must be >= 0, got -5\n"
        assert proc.stdout == ""
        assert not out.exists()

    def test_float_beyond_float_range_exits_2(self, tmp_path):
        doc = experiment_doc()
        doc["data"]["noise_std"] = 10**400
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        proc = run_cli(["validate", str(path)])
        assert proc.returncode == 2
        assert proc.stderr == "config error: config.data.noise_std: must be finite\n"
        assert proc.stdout == ""

    def test_missing_config_exits_2(self):
        proc = run_cli(["validate", "/nonexistent/path.json"])
        assert proc.returncode == 2

    def test_oracle_prints_optimum(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(experiment_doc()))
        proc = run_cli(["oracle", str(path)])
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert set(payload) == {"theta_star", "f_star", "smoothness"}
        assert len(payload["theta_star"]) == 2

    def test_run_writes_artifacts_and_keeps_stdout_clean(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(experiment_doc()))
        out = tmp_path / "results"
        proc = run_cli(["run", str(path), "--output-dir", str(out)])
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert (out / "summary.json").exists()
        assert (out / "config_resolved.json").exists()
        assert (out / "trace_fedavg_svrg.csv").exists()

    @pytest.mark.parametrize("workers", ["0", "-3", "abc"])
    def test_run_rejects_fewer_than_one_worker(self, tmp_path, workers):
        out = tmp_path / "out"
        proc = run_cli(["run", "paper_case1", "--workers", workers, "--output-dir", str(out)])
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage: fedsim run")
        assert f"--workers: must be an integer >= 1, got {workers!r}" in proc.stderr
        assert not out.exists()

    def test_run_master_seed_override_changes_results(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(experiment_doc()))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli(["run", str(path), "--output-dir", str(out_a)]).returncode == 0
        assert run_cli([
            "run", str(path), "--output-dir", str(out_b), "--master-seed", "123",
        ]).returncode == 0
        a = (out_a / "trace_fedavg_svrg.csv").read_bytes()
        b = (out_b / "trace_fedavg_svrg.csv").read_bytes()
        assert a != b
        resolved = json.loads((out_b / "config_resolved.json").read_text())
        assert resolved["master_seed"] == 123

    def test_run_without_master_seed_parses_the_config_once(self, tmp_path, monkeypatch):
        parse = fedsim.config.parse_config
        calls = []

        def counting_parse(*args, **kwargs):
            calls.append(args)
            return parse(*args, **kwargs)

        monkeypatch.setattr(fedsim.config, "parse_config", counting_parse)
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(experiment_doc(output_dir=str(tmp_path / "out"))))
        args = build_parser().parse_args(["run", str(path)])
        assert args.func(args) == 0
        assert len(calls) == 1
        assert (tmp_path / "out" / "summary.json").exists()

    def test_training_failure_reports_identity(self, tmp_path):
        doc = experiment_doc()
        doc["algorithms"] = [{
            "kind": "fedavg_svrg", "rounds": 2, "snapshots": 1, "inner_steps": 4,
            "stepsize": 1e200,
        }]
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(doc))
        proc = run_cli(["run", str(path), "--output-dir", str(tmp_path / "out")])
        assert proc.returncode == 1
        report = json.loads(proc.stderr.splitlines()[-1])
        assert report["error"] == "training_failure"
        assert report["algorithm"] == "fedavg_svrg"
        assert {"run", "round", "agent", "reason"} <= set(report)

    def test_training_failure_report_is_the_same_at_any_worker_count(self, tmp_path):
        # A worker process sends the error back by pickle; the report, and
        # the run it names, must not depend on where the run failed.
        doc = experiment_doc()
        doc["algorithms"][0]["stepsize"] = 1e200
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(doc))
        procs = [
            run_cli(["run", str(path), "--workers", workers,
                     "--output-dir", str(tmp_path / f"out{workers}")])
            for workers in ("1", "2")
        ]
        assert [proc.returncode for proc in procs] == [1, 1]
        assert procs[0].stderr == procs[1].stderr
        report = json.loads(procs[0].stderr)
        assert report["error"] == "training_failure"
        assert (report["algorithm"], report["run"]) == ("fedavg_svrg", 0)

    def test_log_env_var_controls_stderr(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(experiment_doc()))
        # Inherit the environment so the child finds fedsim however the
        # parent does (installed or via PYTHONPATH).
        quiet_env = {k: v for k, v in os.environ.items() if k != "FEDSIM_LOG"}
        chatty_env = {**quiet_env, "FEDSIM_LOG": "INFO"}
        quiet = run_cli(["oracle", str(path)], env=quiet_env)
        chatty = run_cli(
            ["run", str(path), "--output-dir", str(tmp_path / "o")],
            env=chatty_env,
        )
        assert quiet.returncode == 0
        assert chatty.returncode == 0
        assert "experiment" in chatty.stderr
        # A successful run logs nothing at the default WARNING level, so
        # these INFO records show that FEDSIM_LOG took effect.
        assert "INFO fedsim.experiment" in chatty.stderr
