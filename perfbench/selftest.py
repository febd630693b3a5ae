"""Self-test of the benchmark's checks: each corruption of the artifacts must fail.

Usage, from the root of a fedsim checkout:

    python3 perfbench/selftest.py

Runs the ``local_heavy`` experiment of workload seed 0 once, checks that its
artifacts pass, then corrupts copies of them one way at a time and checks
that each copy fails. Exits 0 only if the clean artifacts pass and every
corrupted copy fails.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

from checks import Reference, check_artifacts
from workloads import THETA0, WORKLOADS, config_doc

ROOT = Path(__file__).resolve().parent.parent


def _edit_csv(path: Path, row: int, column: str, edit) -> None:
    """Replace one field of data row ``row`` by ``edit(old_text)``."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[row + 1][col] = edit(rows[row + 1][col])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _scale_cost(path: Path, row: int, factor: float) -> None:
    """Scale one row's cost error, keeping cost = f_star + cost_error exact."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    f_star = json.loads((path.parent / "summary.json").read_text(encoding="utf-8"))["f_star"]
    cost = f_star + float(rows[row + 1][header.index("cost_error")]) * factor
    rows[row + 1][header.index("cost")] = repr(cost)
    rows[row + 1][header.index("cost_error")] = repr(cost - f_star)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _edit_summary(path: Path, edit) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _bump_n_active(text: str) -> str:
    return str(int(text) - 1) if int(text) > 0 else "1"


CORRUPTIONS = {
    "one cost": lambda d: _edit_csv(
        d / "trace_fedavg_prob_sgd.csv", 57, "cost", lambda v: repr(float(v) * 1.001)),
    "one cost and its cost_error, consistently": lambda d: _scale_cost(
        d / "trace_fedavg_svrg.csv", 42, 0.01),
    "one n_active of a Bernoulli row": lambda d: _edit_csv(
        d / "trace_fedavg_svrg.csv", 31, "n_active", _bump_n_active),
    "one n_active of a uniform-batch row": lambda d: _edit_csv(
        d / "trace_fedavg_uniform_batch.csv", 13, "n_active", _bump_n_active),
    "f_star": lambda d: _edit_summary(
        d / "summary.json", lambda doc: doc.update(f_star=doc["f_star"] * (1 + 1e-6))),
    "a non-finite summary value": lambda d: (d / "summary.json").write_text(
        (d / "summary.json").read_text(encoding="utf-8").replace(
            '"cep_radius_2d": ', '"cep_radius_2d": Infinity, "was": ', 1),
        encoding="utf-8"),
}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import fedsim

    workload = WORKLOADS["local_heavy"]
    config = fedsim.parse_config(config_doc(workload, 0))
    base = ROOT / ".perfbench_out" / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    result = fedsim.run_experiment(config, output_dir=base / "clean")
    ref = Reference.from_dataset(result.dataset, THETA0, config.schedule.per_agent)

    ok = True
    failures = check_artifacts(base / "clean", workload.shape, ref)
    print(f"clean artifacts: {'pass' if not failures else 'FAIL ' + '; '.join(failures)}")
    ok &= not failures
    for i, (name, corrupt) in enumerate(CORRUPTIONS.items()):
        copy = base / f"corrupt{i}"
        shutil.copytree(base / "clean", copy)
        corrupt(copy)
        failures = check_artifacts(copy, workload.shape, ref)
        print(f"corrupted {name}: {'caught: ' + failures[0] if failures else 'NOT CAUGHT'}")
        ok &= bool(failures)
    if ok:
        shutil.rmtree(base)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
