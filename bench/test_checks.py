"""Each workload's checker passes real outputs and fails corrupted ones.

    python3 -m pytest -q bench/test_checks.py

Workloads run here at reduced size (same code paths, smaller inputs), so the
whole file takes a few seconds.
"""

import csv
import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class SmallLarge(workloads.LargeN2000):
    n, races = 60, 800


class SmallRaces(workloads.RacesCli):
    n_horses, n_races = 150, 400


class SmallDiagnostics(workloads.DiagnosticsN40):
    n, per_size = 12, 10


def errors_of(workload, out):
    return workload.verify(out)["errors"]


@pytest.fixture(scope="module")
def coverage():
    w = workloads.CoverageN200(seed=3, workdir=None)
    return w, w.op(0)


def test_coverage_checker(coverage):
    w, result = coverage
    summary = w.verify(result)
    assert summary["errors"] == [] and w.verify_run([summary]) == []

    dropped = dataclasses.replace(result, rows=[dict(r) for r in result.rows])
    dropped.rows[0].update(completed=0, dropped=1)
    assert errors_of(w, dropped)

    swapped = dataclasses.replace(result, rows=[dict(r) for r in result.rows])
    sigma = {r["estimator"]: r for r in swapped.rows}
    sigma["full"]["mean_sigma"], sigma["qmle"]["mean_sigma"] = sigma["qmle"]["mean_sigma"], sigma["full"]["mean_sigma"]
    assert errors_of(w, swapped)

    assert w.verify_run([{**summary, "hits": {k: 160 for k in workloads.KINDS}}])


@pytest.fixture(scope="module")
def large():
    w = SmallLarge(seed=5, workdir=None)
    return w, w.op(0)


def test_large_checker(large):
    w, out = large
    summary = w.verify(out)
    assert summary["errors"] == [] and w.verify_run([summary]) == []

    for kind in workloads.KINDS:
        fitted, report = out[kind]
        shifted = fitted.estimate.copy()
        shifted[0] += 1e-3
        shifted -= shifted.mean()
        bad = {**out, kind: (dataclasses.replace(fitted, estimate=shifted), report)}
        assert any(f"{kind}: normalized score" in e for e in errors_of(w, bad)), kind

        bad = {**out, kind: (fitted, dataclasses.replace(report, theta_cost=report.theta_cost + 1))}
        assert any(f"{kind} theta_cost" in e for e in errors_of(w, bad)), kind

    far = {**out, "truth": out["truth"] + 1.0}
    assert w.verify_run([w.verify(far)])


@pytest.fixture(scope="module")
def races(tmp_path_factory):
    w = SmallRaces(seed=7, workdir=tmp_path_factory.mktemp("races"))
    w.in_process = True
    w.setup()
    return w, w.op(0)


def rewrite_dataset_without(path: Path, item: int) -> None:
    with open(path, newline="") as f:
        rows = [r for r in csv.DictReader(f) if int(r["item"]) != item]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["obs_id", "rank", "item"])
        for r in rows:
            k = int(r["item"])
            writer.writerow([r["obs_id"], r["rank"], k - 1 if k > item else k])


def test_races_checker(races, tmp_path):
    w, out = races
    summary = w.verify(out)
    assert summary["errors"] == [] and w.verify_run([summary]) == []
    assert w.verify_run([{**summary, "hits": {"qmle": int(0.85 * summary["intervals"])}}])

    assert errors_of(w, {**out, "codes": {**out["codes"], "infer": 3}})

    def corrupted(edit):
        d = tmp_path / edit.__name__
        d.mkdir()
        for f in out["dir"].iterdir():
            if f.is_file():
                (d / f.name).write_bytes(f.read_bytes())
        edit(d)
        return errors_of(w, {**out, "dir": d})

    def drop_horse(d):
        ids = json.loads((d / "dataset_ids.json").read_text())
        (d / "dataset_ids.json").write_text(json.dumps(ids[1:]))
        rewrite_dataset_without(d / "dataset.csv", 0)

    def shift_qmle(d):
        fit = json.loads((d / "qmle.json").read_text())
        fit["estimate"] = [v + (1e-3 if i == 0 else 0.0) for i, v in enumerate(fit["estimate"])]
        (d / "qmle.json").write_text(json.dumps(fit))

    def shift_full(d):
        fit = json.loads((d / "full.json").read_text())
        fit["estimate"] = [v + (1e-3 if i == 0 else 0.0) for i, v in enumerate(fit["estimate"])]
        (d / "full.json").write_text(json.dumps(fit))

    assert any("largest clean set" in e for e in corrupted(drop_horse))
    assert any("qmle: normalized score" in e for e in corrupted(shift_qmle))
    assert any("full: normalized score" in e for e in corrupted(shift_full))


@pytest.fixture(scope="module")
def diagnostics():
    w = SmallDiagnostics(seed=11, workdir=None)
    w.setup()
    return w, w.op(0)


def test_diagnostics_checker(diagnostics):
    w, out = diagnostics
    assert errors_of(w, out) == []

    for kind in ("qmle", "choice1"):
        diag = out[kind]
        assert errors_of(w, {**out, kind: dataclasses.replace(diag, s_gap=diag.s_gap * (1 + 1e-6))})
        assert errors_of(w, {**out, kind: dataclasses.replace(diag, lambda2_leave=diag.lambda2_leave * 0.99)})
    eigs = out["full"].eigenvalues.copy()
    eigs[-1] = 2.1
    assert errors_of(w, {**out, "full": dataclasses.replace(out["full"], eigenvalues=eigs)})


def test_pair_weights_match_closed_forms():
    # choice-one: only the first pick matters, weight 1/m^2; m = 2: 1/4 at any y
    for m in (2, 3, 4, 5, 6):
        assert checks.pair_weight_at_zero(m, 1) == pytest.approx(1.0 / m**2, rel=1e-12)
    assert checks.pair_weight_at_zero(2, 2) == pytest.approx(0.25, rel=1e-12)


def test_theta_cost_closed_form():
    assert [checks.theta_cost(k, [5]) for k in ("full", "qmle", "choice2", "choice1")] == [205, 50, 25, 5]


def test_benchmark_json_lists_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "op_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_compare_prints_ratio_and_both_bases():
    a = {"x.s": {"value": 2.0, "unit": "s"}, "y": {"value": 0, "unit": "count"}}
    b = {"x.s": {"value": 1.0, "unit": "s"}, "y": {"value": 3, "unit": "count"}}
    lines = compare.compare(a, b)
    assert lines[1].split() == ["x.s", "2", "1", "0.500", "s"]
    assert lines[2].split() == ["y", "0", "3", "n/a", "count"]
