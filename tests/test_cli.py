import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import plrank
from plrank import Dataset, Observation, center, sample_rankings, save_dataset
from plrank.cli import build_parser, main
from plrank.estimators import FitConfig
from plrank.graphs import DEFAULT_CHAIN_CAP, DEFAULT_CHEEGER_CAP
from plrank.harness import DEFAULT_MIN_RACES
from plrank.inference import DEFAULT_PREFIX_BUDGET


@pytest.fixture
def dataset_csv(tmp_path):
    rng = np.random.default_rng(42)
    n = 6
    u = center(rng.uniform(-0.5, 0.5, n))
    edges = [tuple(sorted((k, (k + 1) % n))) for k in range(n)]
    edges += [tuple(sorted(rng.choice(n, size=3, replace=False).tolist())) for _ in range(12)]
    ds = sample_rankings(u, edges, rng)
    path = tmp_path / "data.csv"
    save_dataset(ds, path)
    return path


def test_fit_then_infer_round_trip(tmp_path, dataset_csv, capsys):
    fit_path = tmp_path / "fit.json"
    assert main(["fit", "--data", str(dataset_csv), "--estimator", "qmle", "--out", str(fit_path)]) == 0
    payload = json.loads(fit_path.read_text())
    assert payload["estimator"] == "qmle"
    assert payload["converged"] is True
    assert len(payload["n_k"]) == 6

    out_csv = tmp_path / "se.csv"
    assert main(["infer", "--fit", str(fit_path), "--data", str(dataset_csv), "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "item,estimate,sigma,ci_low,ci_high,n_k"
    assert len(lines) == 7


@pytest.mark.parametrize("estimator", ["full", "choice1", "choice2", "marginal"])
def test_fit_estimator_kinds(tmp_path, dataset_csv, estimator):
    out = tmp_path / f"{estimator}.json"
    assert main(["fit", "--data", str(dataset_csv), "--estimator", estimator, "--out", str(out)]) == 0


def test_fit_nonexistent_data_is_data_error(tmp_path):
    assert main(["fit", "--data", str(tmp_path / "missing.csv"), "--estimator", "qmle", "--out", str(tmp_path / "x.json")]) == 3


def test_fit_nonexistence_is_data_error(tmp_path):
    ds = Dataset(3, [Observation((0, 1)), Observation((0, 2)), Observation((1, 2))])
    path = tmp_path / "dominated.csv"
    save_dataset(ds, path)
    assert main(["fit", "--data", str(path), "--estimator", "full", "--out", str(tmp_path / "x.json")]) == 3


def test_fit_inadmissible_ranking_is_data_error(tmp_path, capsys):
    path = tmp_path / "repeated.csv"
    path.write_text("obs_id,rank,item\na,1,0\na,2,0\nb,1,1\nb,2,0\n")
    assert main(["fit", "--data", str(path), "--estimator", "qmle", "--out", str(tmp_path / "x.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "duplicate items" in err


def test_infer_budget_exhaustion_is_data_error(tmp_path, dataset_csv):
    fit_path = tmp_path / "fit.json"
    main(["fit", "--data", str(dataset_csv), "--estimator", "full", "--out", str(fit_path)])
    code = main([
        "infer", "--fit", str(fit_path), "--data", str(dataset_csv),
        "--budget", "2", "--out", str(tmp_path / "se.csv"),
    ])
    assert code == 3


def test_graph_diag_from_data(tmp_path, dataset_csv):
    out = tmp_path / "diag.json"
    assert main(["graph-diag", "--data", str(dataset_csv), "--exact-cheeger", "--gamma-re", "--out", str(out)]) == 0
    diag = json.loads(out.read_text())
    assert diag["connected"] is True
    assert diag["cheeger"] > 0
    assert diag["gamma_re"] > 0
    assert diag["s_gap"] is not None


def test_graph_diag_generate(tmp_path):
    spec = {"n": 30, "design": {"kind": "fixed-sizes", "sizes": [3], "counts": [50]}}
    cfg = tmp_path / "design.json"
    cfg.write_text(json.dumps(spec))
    out = tmp_path / "diag.json"
    assert main(["graph-diag", "--generate", str(cfg), "--seed", "4", "--out", str(out)]) == 0
    diag = json.loads(out.read_text())
    assert diag["n"] == 30 and diag["n_edges"] == 50


def test_graph_diag_full_leave_one_out(tmp_path):
    # 800 edges of sizes 3-6 over 40 items: the exact full-MLE Laplacian with
    # its leave-one-out gap
    cfg = tmp_path / "design.json"
    cfg.write_text(json.dumps({"n": 40, "design": {"recipe": "nurhm-coverage"}}))
    out = tmp_path / "diag.json"
    assert main(["graph-diag", "--generate", str(cfg), "--estimator", "full", "--out", str(out)]) == 0
    diag = json.loads(out.read_text())
    assert diag["n_edges"] == 800
    assert diag["lambda2_leave"] is not None and diag["lambda2_leave"] > 0


def test_parser_defaults_are_the_library_defaults():
    parser = build_parser()
    fit_args = parser.parse_args(["fit", "--data", "d.csv", "--estimator", "qmle", "--out", "f.json"])
    assert (fit_args.tol, fit_args.max_iter) == (FitConfig().tol_grad_inf, FitConfig().max_iter)
    assert parser.parse_args(["infer", "--fit", "f.json", "--data", "d.csv", "--out", "s.csv"]).budget == DEFAULT_PREFIX_BUDGET
    diag_args = parser.parse_args(["graph-diag", "--data", "d.csv", "--out", "g.json"])
    assert (diag_args.cheeger_cap, diag_args.gamma_re_cap) == (DEFAULT_CHEEGER_CAP, DEFAULT_CHAIN_CAP)
    assert parser.parse_args(["ingest", "--races", "r.csv", "--out", "d.csv"]).min_races == DEFAULT_MIN_RACES


def test_unreadable_fit_file_is_config_error(tmp_path, dataset_csv):
    bad = tmp_path / "fit.json"
    bad.write_text("{not json")
    out = str(tmp_path / "out")
    assert main(["infer", "--fit", str(bad), "--data", str(dataset_csv), "--out", out]) == 2
    assert main(["graph-diag", "--data", str(dataset_csv), "--fit", str(tmp_path / "missing.json"), "--out", out]) == 2


def test_graph_diag_needs_exactly_one_source(tmp_path, dataset_csv):
    assert main(["graph-diag", "--out", str(tmp_path / "x.json")]) == 2
    cfg = tmp_path / "design.json"
    cfg.write_text("{}")
    assert main(["graph-diag", "--data", str(dataset_csv), "--generate", str(cfg), "--out", str(tmp_path / "x.json")]) == 2


def test_experiment_command(tmp_path):
    config = {
        "experiment": "coverage",
        "n_values": [12],
        "replications": 2,
        "design": {"kind": "fixed-sizes", "sizes": [3], "counts": [40]},
        "estimators": ["qmle"],
        "master_seed": 2,
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    assert main(["experiment", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "config.echo.json").exists()


def test_experiment_bad_config_is_config_error(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"experiment": "coverage"}))
    assert main(["experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")]) == 2


_SMALL_COVERAGE = {"experiment": "coverage", "n_values": [12], "replications": 1,
                   "design": {"kind": "fixed-sizes", "sizes": [3], "counts": [40]}, "estimators": ["qmle"]}
# an unknown kind, a fixed-sizes design without counts, one omega_within for two communities, and
# (at n = 12) an explicit edge on item 20 and communities of 40 items
_BAD_DESIGNS = [
    {"kind": "nope"},
    {"kind": "fixed-sizes", "sizes": [3]},
    {"kind": "block-bernoulli", "m": 3, "community_sizes": [6, 6], "omega_within": [0.5], "omega_cross": 0.1},
    {"kind": "explicit", "edges": [[0, 1], [0, 20]]},
    {"kind": "block-bernoulli", "m": 3, "community_sizes": [20, 20], "omega_within": [0.5, 0.5], "omega_cross": 0.1},
]
_SMALL_HETEROGENEITY = {"experiment": "heterogeneity", "n_values": [30], "replications": 1,
                        "design": {"recipe": "heterogeneity"}, "estimators": ["qmle"]}


@pytest.mark.parametrize("config, field", [
    ({**_SMALL_COVERAGE, "design": {"recipe": "nope"}}, "design"),
    ({**_SMALL_HETEROGENEITY, "design": {"recipe": "nurhm-coverage"}}, "design"),
    ({**_SMALL_HETEROGENEITY, "track_community": 2}, "track_community"),
    ({**_SMALL_HETEROGENEITY, "track_community": -1}, "track_community"),
    ({**_SMALL_HETEROGENEITY, "addition_schedule": [-5]}, "addition_schedule"),
    ({**_SMALL_COVERAGE, "ci_level": 1.5}, "ci_level"),
    ({**_SMALL_COVERAGE, "fit_tol": 0}, "fit_tol"),
    ({**_SMALL_COVERAGE, "fit_max_iter": 0}, "fit_max_iter"),
    ({**_SMALL_COVERAGE, "design": _BAD_DESIGNS[0]}, "design kind"),
    ({**_SMALL_COVERAGE, "design": _BAD_DESIGNS[1]}, "counts"),
    ({**_SMALL_COVERAGE, "design": _BAD_DESIGNS[2]}, "omega_within"),
    ({**_SMALL_COVERAGE, "design": {"kind": "fixed-sizes", "sizes": [3], "counts": [221]}}, "220 candidates"),
    ({**_SMALL_COVERAGE, "design": {"kind": "block-typed", "m": 3, "community_sizes": [12], "total": 9,
                                    "type_probs": [0.5, 0.5]}}, "type_probs"),
    ({**_SMALL_HETEROGENEITY, "n_values": [40]}, "community_sizes"),
    ({**_SMALL_COVERAGE, "utility_law": {"kind": "gauss"}}, "utility_law"),
    ({**_SMALL_COVERAGE, "utility_law": {"kind": "explicit", "values": [0.0] * 11}}, "utility_law"),
    ({**_SMALL_COVERAGE, "design": _BAD_DESIGNS[3]}, "edges"),
    ({**_SMALL_COVERAGE, "design": _BAD_DESIGNS[4]}, "community_sizes"),
    ({**_SMALL_COVERAGE, "utility_law": "uniform"}, "utility_law"),
    ({**_SMALL_COVERAGE, "utility_law": {"kind": "uniform", "low": 1, "high": 0}}, "utility_law"),
    ({**_SMALL_HETEROGENEITY, "addition_schedule": [0, 4],
      "design": {"kind": "fixed-sizes", "sizes": [3], "counts": [60], "community_sizes": [10, 20]}}, "m is None"),
    ({**_SMALL_HETEROGENEITY, "addition_schedule": [0, 4],
      "design": {"kind": "block-bernoulli", "m": 5, "community_sizes": [3, 27], "omega_within": [0.5, 0.01],
                 "omega_cross": 0.01}}, "track_community 0 (3 items)"),
], ids=["unknown-recipe", "no-communities", "community-past-end", "community-negative",
        "negative-addition", "ci-level", "fit-tol", "fit-max-iter", "unknown-design-kind", "missing-counts",
        "omega-within-length", "too-many-distinct", "no-crossing-edge", "community-below-m",
        "unknown-utility-law", "utility-law-length", "edge-item-past-n", "communities-past-n",
        "utility-law-not-mapping", "utility-law-low-above-high", "added-edges-without-m",
        "tracked-community-below-m"])
def test_experiment_config_errors_name_the_field(tmp_path, capsys, config, field):
    """Each bad value exits with the configuration-error status before any
    replication runs, and the message names the field."""
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("design", _BAD_DESIGNS, ids=["unknown-kind", "missing-counts", "omega-within-length",
                                                     "edge-item-past-n", "communities-past-n"])
def test_graph_diag_bad_design_is_config_error(tmp_path, capsys, design):
    cfg = tmp_path / "design.json"
    cfg.write_text(json.dumps({"n": 12, "design": design}))
    assert main(["graph-diag", "--generate", str(cfg), "--out", str(tmp_path / "x.json")]) == 2
    assert "bad design config" in capsys.readouterr().err


def test_ingest_command(tmp_path, capsys):
    races = tmp_path / "races.csv"
    races.write_text(
        "race_id,horse_id,finish_position\n"
        "1,10,1\n1,11,2\n1,12,3\n"
        "2,11,1\n2,12,2\n2,10,3\n"
        "3,12,1\n3,10,2\n3,11,3\n"
    )
    out = tmp_path / "dataset.csv"
    assert main(["ingest", "--races", str(races), "--min-races", "1", "--out", str(out)]) == 0
    from plrank import load_dataset

    ds = load_dataset(out)
    assert ds.n == 3 and len(ds) == 3
    ids = json.loads((tmp_path / "dataset_ids.json").read_text())
    assert ids == ["10", "11", "12"]
    assert "kept: 3 horses, 3 races" in capsys.readouterr().out


def test_ingest_malformed_is_data_error(tmp_path):
    races = tmp_path / "races.csv"
    races.write_text("race_id,horse_id,finish_position\n1,a,zzz\n")
    assert main(["ingest", "--races", str(races), "--out", str(tmp_path / "d.csv")]) == 3


def test_ingest_fixture_outputs_are_golden(tmp_path):
    """sha256 of the three files ``plrank ingest --min-races 10`` writes for
    the bundled race fixture."""
    import hashlib

    fixture = Path(__file__).parent / "data" / "synthetic_races.csv"
    out = tmp_path / "dataset.csv"
    assert main(["ingest", "--races", str(fixture), "--min-races", "10", "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("dataset.csv", "dataset.json", "dataset_ids.json")}
    assert digests == {
        "dataset.csv": "6a9be8990ed86f6d710965e1670171384989dbb5e1ccfb966e19d35d47b4b55f",
        "dataset.json": "ca43303708004819a0dd6fa2d355cdc1725effb8b5f16bc9f64868c68937ace1",
        "dataset_ids.json": "e748389eb248cffb793e6246b40c9bd3e32701bbe4599c424958564e80f89830",
    }


_PIPELINE_SCRIPT = """
import json, sys
from plrank.cli import build_parser, main
from plrank.estimators import FitConfig
from plrank.graphs import DEFAULT_CHAIN_CAP, DEFAULT_CHEEGER_CAP
from plrank.inference import DEFAULT_PREFIX_BUDGET

races, out = sys.argv[1], sys.argv[2]
data, fit = f"{out}/dataset.csv", f"{out}/qmle.json"
for argv in (
    ["ingest", "--races", races, "--min-races", "10", "--out", data],
    ["fit", "--data", data, "--estimator", "qmle", "--out", fit],
    ["infer", "--fit", fit, "--data", data, "--out", f"{out}/se.csv"],
    ["fit", "--data", data, "--estimator", "full", "--out", f"{out}/full.json"],
):
    assert main(argv) == 0, argv
pipeline = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert main(["graph-diag", "--data", data, "--out", f"{out}/diag.json"]) == 0
diagnostics = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"pipeline": pipeline, "diagnostics": diagnostics}))
"""


def test_race_pipeline_loads_no_scipy(tmp_path):
    """ingest, fit qmle, infer and fit full in one fresh interpreter import
    no scipy module; graph-diag afterwards still works and loads it."""
    fixture = Path(__file__).parent / "data" / "synthetic_races.csv"
    src = str(Path(plrank.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _PIPELINE_SCRIPT, str(fixture), str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    modules = json.loads(proc.stdout.strip().splitlines()[-1])
    assert modules["pipeline"] == []
    assert "scipy.linalg" in modules["diagnostics"]
    assert json.loads((tmp_path / "diag.json").read_text())["connected"] is True
