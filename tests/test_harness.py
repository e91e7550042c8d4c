import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ingest_races_reference

from plrank import Dataset, DataFormatError, Observation, fit_qmle, harness, standard_errors
from plrank.graphs import sample_uniform_edges
from plrank.harness import (
    ExperimentConfig,
    IngestResult,
    format_rank_table,
    heterogeneity_experiment,
    hsbm_coverage_design,
    ingest_races,
    nurhm_consistency_design,
    nurhm_coverage_design,
    rank_report,
    resolve_design,
    run_experiment,
    sample_design_edges,
    write_line_chart,
    write_rank_report,
)
from plrank.model import grouped_rankings


class TestRecipes:
    def test_coverage_counts(self):
        d = nurhm_coverage_design(200)
        assert d["sizes"] == [3, 4, 5, 6]
        assert d["counts"] == [1450] * 4

    def test_consistency_counts(self):
        d = nurhm_consistency_design(200)
        assert d["sizes"] == [3, 4, 5, 6, 7]
        assert d["counts"] == [int(round(0.02 * 200 * math.log(200) ** 3))] * 5

    def test_hsbm_ratio_and_calibration(self):
        d = hsbm_coverage_design(200)
        w1, w2 = d["omega_within"]
        w0 = d["omega_cross"]
        assert w1 / w0 == pytest.approx(2.5)
        assert w2 / w0 == pytest.approx(1.5)
        nominal = (w1 + w2 + w0) / 3 * math.comb(200, 5)
        assert nominal == pytest.approx(10 * 200**1.2, rel=1e-12)

    def test_resolve_recipe(self):
        assert resolve_design({"recipe": "nurhm-coverage"}, 200) == nurhm_coverage_design(200)
        with pytest.raises(ValueError):
            resolve_design({"recipe": "unknown"}, 200)

    def test_typed_design_sampling(self):
        rng = np.random.default_rng(0)
        design = resolve_design({"recipe": "heterogeneity"}, 100)
        edges = sample_design_edges(design, 100, rng)
        assert len(edges) == design["total"]
        n1 = design["community_sizes"][0]
        kinds = {"w1": 0, "w2": 0, "x": 0}
        for e in edges:
            if max(e) < n1:
                kinds["w1"] += 1
            elif min(e) >= n1:
                kinds["w2"] += 1
            else:
                kinds["x"] += 1
        assert min(kinds.values()) > 0


class TestRunExperiment:
    def test_degenerate_smoke(self):
        cfg = ExperimentConfig(
            experiment="coverage",
            n_values=(3,),
            replications=1,
            design={"kind": "explicit", "edges": [[0, 1, 2]], "repeat": 50},
            estimators=("full",),
            master_seed=5,
        )
        res = run_experiment(cfg)
        row = res.cell("full", n=3)
        assert row["completed"] + row["dropped"] == 1
        assert np.isfinite(row["mean_linf"])
        assert 0.0 <= row["coverage"] <= 1.0

    def test_reproducible_and_worker_invariant(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="coverage",
            n_values=(20,),
            replications=5,
            design={"kind": "fixed-sizes", "sizes": [3], "counts": [60]},
            estimators=("qmle", "choice1"),
            master_seed=123,
        )
        d1, d2, d3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        run_experiment(cfg, out_dir=d1, workers=1)
        run_experiment(cfg, out_dir=d2, workers=2)
        run_experiment(cfg, out_dir=d3, workers=1)
        a = (d1 / "results.csv").read_bytes()
        assert a == (d2 / "results.csv").read_bytes()
        assert a == (d3 / "results.csv").read_bytes()

    def test_artifacts_written(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="consistency",
            n_values=(12, 16),
            replications=3,
            design={"kind": "fixed-sizes", "sizes": [2, 3], "counts": [24, 12]},
            estimators=("qmle",),
            master_seed=1,
        )
        out = tmp_path / "exp"
        run_experiment(cfg, out_dir=out)
        assert (out / "results.csv").exists()
        assert (out / "timings.csv").exists()
        echo = json.loads((out / "config.echo.json").read_text())
        assert echo["config"]["experiment"] == "consistency"
        assert "12" in echo["resolved_designs"]
        svg = out / "figures" / "linf_error.svg"
        assert svg.exists()
        assert svg.read_text().startswith("<svg")

    def test_dropped_replications_counted(self):
        # a sparse top-1 design frequently lacks a finite maximizer
        cfg = ExperimentConfig(
            experiment="consistency",
            n_values=(8,),
            replications=12,
            design={"kind": "fixed-sizes", "sizes": [2], "counts": [8]},
            estimators=("choice1",),
            master_seed=3,
            fit_max_iter=500,
        )
        res = run_experiment(cfg)
        row = res.cell("choice1", n=8)
        assert row["completed"] + row["dropped"] == 12
        assert row["dropped"] > 0

    def test_nonconverged_fit_is_dropped_not_fatal(self):
        cfg = ExperimentConfig(
            experiment="coverage",
            n_values=(200,),
            replications=1,
            design={"recipe": "nurhm-coverage"},
            master_seed=7,
            fit_max_iter=2,
        )
        res = run_experiment(cfg)
        for est in cfg.estimators:
            row = res.cell(est, n=200)
            assert (row["completed"], row["dropped"]) == (0, 1)
            assert row["coverage"] is None and row["se_time_s"] is None

    def test_nonconverged_fits_count_as_dropped(self):
        cfg = ExperimentConfig(
            experiment="consistency",
            n_values=(20,),
            replications=3,
            design={"kind": "fixed-sizes", "sizes": [3], "counts": [60]},
            master_seed=4,
            fit_max_iter=1,
        )
        res = run_experiment(cfg)
        for est in cfg.estimators:
            row = res.cell(est, n=20)
            assert (row["completed"], row["dropped"]) == (0, 3)
            assert row["mean_linf"] is None and row["best_freq"] == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="nope", n_values=(5,), replications=1, design={})
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="coverage", n_values=(), replications=1, design={})
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="coverage", n_values=(5,), replications=0, design={})
        with pytest.raises(ValueError):
            ExperimentConfig(
                experiment="coverage", n_values=(5,), replications=1, design={}, estimators=("bogus",)
            )
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(
                {"experiment": "coverage", "n_values": [5], "replications": 1, "design": {}, "bad_field": 1}
            )

    def test_heterogeneity_schedule_rows(self):
        cfg = ExperimentConfig(
            experiment="heterogeneity",
            n_values=(60,),
            replications=2,
            design={"recipe": "heterogeneity"},
            estimators=("qmle",),
            addition_schedule=(0, 30),
            master_seed=7,
        )
        res = heterogeneity_experiment(cfg)
        levels = sorted(row["added_edges"] for row in res.rows)
        assert levels == [0, 30]
        for row in res.rows:
            assert row["community_coverage"] is None or 0.0 <= row["community_coverage"] <= 1.0
            assert row["completed"] + row["dropped"] == 2

    def test_single_level_schedule_matches_base_run(self):
        common = dict(
            n_values=(60,),
            replications=3,
            design={"recipe": "heterogeneity"},
            estimators=("qmle",),
            master_seed=11,
        )
        a = heterogeneity_experiment(
            ExperimentConfig(experiment="heterogeneity", addition_schedule=(0,), **common)
        )
        b = heterogeneity_experiment(
            ExperimentConfig(experiment="heterogeneity", addition_schedule=(0, 25), **common)
        )
        ra = a.cell("qmle", added_edges=0)
        rb = b.cell("qmle", added_edges=0)
        assert ra["mean_linf"] == rb["mean_linf"]
        assert ra["coverage"] == rb["coverage"]

    def test_extra_edges_go_to_the_tracked_community(self, monkeypatch):
        draws = []

        def spy(items, m, count, rng, crossing=None):
            edges = sample_uniform_edges(items, m, count, rng, crossing)
            draws.append((np.asarray(items).tolist(), edges))
            return edges

        monkeypatch.setattr(harness, "sample_uniform_edges", spy)
        cfg = ExperimentConfig(
            experiment="heterogeneity",
            n_values=(60,),
            replications=1,
            design={"recipe": "heterogeneity"},
            estimators=("qmle",),
            addition_schedule=(40,),
            track_community=1,
            master_seed=5,
        )
        heterogeneity_experiment(cfg, workers=1)
        items, edges = draws[-1]  # the extra edges are drawn after the design's
        assert items == list(range(6, 60))
        assert len(edges) == 40 and all(6 <= v < 60 for e in edges for v in e)


class TestSvg:
    def test_chart_contents(self, tmp_path):
        path = tmp_path / "c.svg"
        write_line_chart(path, {"a": ([1, 2, 3], [0.1, 0.2, 0.15])}, title="t", x_label="x", y_label="y")
        text = path.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text and "</svg>" in text

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_line_chart(tmp_path / "e.svg", {"a": ([], [])})


def write_races(path, rows):
    lines = ["race_id,horse_id,finish_position,extra"]
    lines += [f"{r},{h},{p},x" for r, h, p in rows]
    path.write_text("\n".join(lines) + "\n")


class TestIngest:
    def test_toy_all_retained(self, tmp_path):
        path = tmp_path / "races.csv"
        rows = [
            (1, "a", 1), (1, "b", 2), (1, "c", 3),
            (2, "b", 1), (2, "c", 2), (2, "a", 3),
            (3, "c", 1), (3, "a", 2), (3, "b", 3),
        ]
        write_races(path, rows)
        res = ingest_races(path, min_races=1)
        assert res.dataset.n == 3
        assert len(res.dataset) == 3
        assert res.horse_ids == ["a", "b", "c"]
        assert all(o.is_full for o in res.dataset.observations)

    def test_all_winner_removed_and_races_shrink(self, tmp_path):
        path = tmp_path / "races.csv"
        rows = [
            (1, "champ", 1), (1, "a", 2), (1, "b", 3),
            (2, "champ", 1), (2, "b", 2), (2, "a", 3),
            (3, "a", 1), (3, "b", 2),
            (4, "b", 1), (4, "a", 2),
        ]
        write_races(path, rows)
        res = ingest_races(path, min_races=1)
        assert res.removed_all_wins == ["champ"]
        assert res.dataset.n == 2
        assert all(o.m == 2 for o in res.dataset.observations)
        assert len(res.dataset) == 4

    def test_fixed_point_cascade(self, tmp_path):
        # removing the perpetual winner makes the runner-up an all-winner in turn
        path = tmp_path / "races.csv"
        rows = [
            (1, "w1", 1), (1, "w2", 2), (1, "a", 3), (1, "b", 4),
            (2, "w1", 1), (2, "w2", 2), (2, "b", 3), (2, "a", 4),
            (3, "a", 1), (3, "b", 2),
            (4, "b", 1), (4, "a", 2),
        ]
        write_races(path, rows)
        res = ingest_races(path, min_races=1)
        assert set(res.removed_all_wins) == {"w1", "w2"}
        assert res.dataset.n == 2

    def test_low_count_filter(self, tmp_path):
        path = tmp_path / "races.csv"
        rows = [
            (1, "a", 1), (1, "b", 2), (1, "rare", 3),
            (2, "b", 1), (2, "a", 2),
            (3, "a", 1), (3, "b", 2),
            (4, "b", 1), (4, "a", 2),
        ]
        write_races(path, rows)
        res = ingest_races(path, min_races=2)
        assert res.removed_low_count == ["rare"]
        assert res.dataset.n == 2

    def test_small_races_dropped(self, tmp_path):
        path = tmp_path / "races.csv"
        rows = [
            (1, "a", 1), (1, "b", 2),
            (2, "b", 1), (2, "a", 2),
            (3, "a", 1),
        ]
        write_races(path, rows)
        res = ingest_races(path, min_races=1)
        assert res.races_dropped_small == 1
        assert len(res.dataset) == 2

    def test_malformed_lines_reported(self, tmp_path):
        path = tmp_path / "races.csv"
        path.write_text("race_id,horse_id,finish_position\n1,a,1\n1,b,oops\n")
        with pytest.raises(DataFormatError, match="lines 3"):
            ingest_races(path)

    def test_short_row_is_format_error(self, tmp_path):
        path = tmp_path / "races.csv"
        path.write_text("race_id,horse_id,finish_position\n1,b\n")
        with pytest.raises(DataFormatError, match="lines 2"):
            ingest_races(path)

    def test_duplicate_horse_in_race_rejected(self, tmp_path):
        path = tmp_path / "races.csv"
        path.write_text("race_id,horse_id,finish_position\n1,a,1\n1,a,2\n1,b,3\n")
        with pytest.raises(DataFormatError):
            ingest_races(path)

    def test_tied_positions_counted(self, tmp_path):
        path = tmp_path / "races.csv"
        rows = [(1, "a", 1), (1, "b", 1), (1, "c", 2), (2, "b", 1), (2, "a", 2), (2, "c", 3)]
        write_races(path, rows)
        res = ingest_races(path, min_races=1)
        assert res.tie_broken_races == 1

    def test_report_lines(self, tmp_path):
        path = tmp_path / "races.csv"
        write_races(path, [(1, "a", 1), (1, "b", 2), (2, "b", 1), (2, "a", 2)])
        res = ingest_races(path, min_races=1)
        text = "\n".join(res.report_lines())
        assert "kept: 2 horses, 2 races" in text


def _padded(pool):
    return st.tuples(st.sampled_from(["", " "]), st.sampled_from(pool), st.sampled_from(["", "  "])).map("".join)


_CLEAN_PLACE = st.integers(1, 5).map(str)
_BAD_PLACE = st.sampled_from(["0", "-1", "x", "", "1.5", " 2 ", "+3", "1_0", str(10**20)])
_BAD_ID = st.sampled_from(["", "  "])


@st.composite
def race_csvs(draw):
    """CSV text of race results: integer, string and space-padded ids (no two
    distinct ids with equal sort keys), ties, one-horse races, and, when
    ``bad``, malformed cells, short rows and duplicate rows."""
    bad = draw(st.booleans())
    race_ids, horse_ids = ["1", "2", "3", "10", "r1", "R2"], ["1", "2", "9", "10", "a", "b", "B", "c"]
    rows = []
    for _ in range(draw(st.integers(0, 40))):
        cells = [draw(_padded(race_ids)), draw(_padded(horse_ids)), draw(_CLEAN_PLACE), "x"]
        if bad and draw(st.integers(0, 9)) == 0:
            slot = draw(st.integers(0, 3))
            if slot == 3:
                cells = cells[: draw(st.integers(1, 2))]  # short row
            else:
                cells[slot] = draw(_BAD_PLACE if slot == 2 else _BAD_ID)
        rows.append(",".join(cells))
        if bad and draw(st.integers(0, 19)) == 0:
            rows.append(rows[-1])
    header = draw(st.sampled_from(["race_id,horse_id,finish_position,venue", "venue,finish_position,horse_id,race_id"]))
    if header.startswith("venue"):
        rows = [",".join(row.split(",")[::-1]) if row.count(",") == 3 else row for row in rows]
    return "\n".join([header, *rows]) + "\n"


def _outcome(ingest, path, min_races):
    try:
        return ingest(path, min_races=min_races)
    except (TypeError, ValueError) as exc:  # compared by type and message
        return type(exc), str(exc)


class TestIngestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(race_csvs(), st.integers(0, 4))
    def test_same_result_or_error_as_reference(self, text, min_races):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "races.csv"
            path.write_text(text)
            got, want = _outcome(ingest_races, path, min_races), _outcome(ingest_races_reference, path, min_races)
        assert isinstance(got, IngestResult) == isinstance(want, IngestResult)
        if not isinstance(want, IngestResult):
            assert got == want
            return
        for name in IngestResult.__dataclass_fields__:
            if name != "dataset":
                assert getattr(got, name) == getattr(want, name), name
        assert got.dataset.n == want.dataset.n
        got_blocks, want_blocks = grouped_rankings(got.dataset), grouped_rankings(want.dataset)
        assert list(got_blocks) == list(want_blocks)
        for key, (idx, rankings) in want_blocks.items():
            np.testing.assert_array_equal(got_blocks[key][0], idx)
            np.testing.assert_array_equal(got_blocks[key][1], rankings)

    @pytest.mark.parametrize("bad_row", ["", "1,z,x,c\n", "2,z\n"])
    def test_blank_lines_and_repeated_column_as_reference(self, tmp_path, bad_row):
        # blank lines are skipped uncounted; of two horse_id columns the last counts
        path = tmp_path / "races.csv"
        path.write_text(f"race_id,horse_id,finish_position,horse_id\n\n1,z,1,a\n1,z,2,b\n\n{bad_row}2,z,1,b\n2,z,2,a\n")
        got, want = _outcome(ingest_races, path, 1), _outcome(ingest_races_reference, path, 1)
        if bad_row:
            assert got == want == (DataFormatError, f"{path}: 1 malformed/duplicate rows (lines 4)")
        else:
            assert got.horse_ids == want.horse_ids == ["a", "b"]
            assert got.dataset.observations == want.dataset.observations

    def test_superscript_id_of_dropped_race_is_ignored(self, tmp_path):
        # "²".isdigit() holds but int("²") fails; a one-horse race is dropped
        # before its id is ever ordered against another
        path = tmp_path / "races.csv"
        write_races(path, [(1, "a", 1), (1, "b", 2), (2, "b", 1), (2, "a", 2), ("²", "a", 1)])
        res = ingest_races(path, min_races=1)
        assert res.races_dropped_small == 1 and len(res.dataset) == 2

    def test_nothing_kept_gives_empty_dataset(self, tmp_path):
        path = tmp_path / "races.csv"
        write_races(path, [(1, "a", 1), (1, "b", 2), (2, "a", 1), (2, "c", 2)])
        res = ingest_races(path, min_races=1)
        assert res.dataset.n == 1 and len(res.dataset) == 0
        assert res.removed_all_wins == ["a"] and res.removed_all_losses == ["b", "c"]
        assert res.races_dropped_small == 2


class TestRankReport:
    def _fit_and_report(self, ds):
        fitted = fit_qmle(ds)
        report = standard_errors(fitted, ds)
        return fitted, report

    def test_winner_first(self):
        ds = Dataset(2, [Observation((1, 0))] * 3 + [Observation((0, 1))] * 2)
        fitted, report = self._fit_and_report(ds)
        rows = rank_report(fitted, report, ds, top_k=2)
        assert rows[0]["id"] == 1
        assert rows[0]["rank"] == 1
        assert rows[0]["races"] == 5
        assert rows[0]["average_place"] == pytest.approx((3 * 1 + 2 * 2) / 5)

    def test_tie_breaks_ascending_id(self):
        import itertools

        ds = Dataset(3, [Observation(p) for p in itertools.permutations(range(3))])
        fitted, report = self._fit_and_report(ds)
        rows = rank_report(fitted, report, ds, top_k=3)
        assert [r["id"] for r in rows] == [0, 1, 2]  # all estimates equal

    def test_csv_and_text(self, tmp_path):
        ds = Dataset(2, [Observation((1, 0))] * 2 + [Observation((0, 1))])
        fitted, report = self._fit_and_report(ds)
        rows = rank_report(fitted, report, ds, top_k=2, labels=["alpha", "beta"])
        assert rows[0]["id"] == "beta"
        out = tmp_path / "rank.csv"
        write_rank_report(rows, out)
        header = out.read_text().splitlines()[0]
        assert header == "rank,id,races,average_place,estimate,ci_low,ci_high"
        table = format_rank_table(rows)
        assert "beta" in table and "rank" in table
