"""Experiment runner: sampling designs, fitting every estimator, coverage and
error aggregation, plot emission, and race-results ingestion.

Replications are independent and reproducible: the per-replication seed is
``SeedSequence(master_seed, spawn_key=(axis_value, level_index, rep))``, so
results are byte-identical regardless of worker count. Set ``PLRANK_THREADS``
(or pass ``workers``) to run replications in parallel processes.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .estimators import ESTIMATOR_KINDS, FitConfig, NonexistenceError, fit
from .graphs import (
    BlockModelConfig,
    _block_edges,
    EdgeSizeRule,
    RandomHypergraphConfig,
    sample_block_model,
    sample_random_hypergraph,
    sample_uniform_edges,
)
from .inference import standard_errors
from .model import DataFormatError, Dataset, _codes, _edge_dataset, center, grouped_rankings, sample_rankings

EXPERIMENT_KINDS = ("consistency", "coverage", "heterogeneity")


# ---------------------------------------------------------------------------
# Designs and recipes
# ---------------------------------------------------------------------------


def nurhm_consistency_design(n: int) -> dict:
    """Mixed sizes 3..7, the same fixed count per size, ~0.1 n (ln n)^3 total."""
    per_size = int(round(0.02 * n * math.log(n) ** 3))
    return {"kind": "fixed-sizes", "sizes": [3, 4, 5, 6, 7], "counts": [per_size] * 5}


def nurhm_coverage_design(n: int) -> dict:
    """Mixed sizes 3..6, ~2.5 n^1.2 edges per size (~10 n^1.2 total)."""
    per_size = 25 * int(round(2.5 * n**1.2 / 25))
    return {"kind": "fixed-sizes", "sizes": [3, 4, 5, 6], "counts": [per_size] * 4}


def _hsbm_design(n: int, nominal_total: float) -> dict:
    """Two communities of 0.4n/0.6n, 5-uniform edges, probability ratio 5:3:2
    (within one : within two : cross), scaled so the candidate-averaged
    probability times C(n, 5) equals the nominal total."""
    m = 5
    n1 = int(round(0.4 * n))
    sizes = [n1, n - n1]
    ratio = (5.0, 3.0, 2.0)
    scale = (len(ratio) * nominal_total) / (sum(ratio) * math.comb(n, m))
    omegas = [r * scale for r in ratio]
    return {
        "kind": "block-bernoulli",
        "m": m,
        "community_sizes": sizes,
        "omega_within": omegas[:2],
        "omega_cross": omegas[2],
    }


def hsbm_consistency_design(n: int) -> dict:
    return _hsbm_design(n, 0.1 * n * math.log(n) ** 3)


def hsbm_coverage_design(n: int) -> dict:
    return _hsbm_design(n, 10.0 * n**1.2)


def heterogeneity_design(n: int) -> dict:
    """Small community of 0.1n plus the rest; 5-uniform edges; each of the
    ~5 n^1.2 draws picks a type (within small, within large, cross) uniformly
    and then a uniform edge of that type."""
    n1 = int(round(0.1 * n))
    return {
        "kind": "block-typed",
        "m": 5,
        "community_sizes": [n1, n - n1],
        "total": int(round(5.0 * n**1.2)),
        "type_probs": [1 / 3, 1 / 3, 1 / 3],
    }


_RECIPES = {
    "nurhm-consistency": nurhm_consistency_design,
    "nurhm-coverage": nurhm_coverage_design,
    "hsbm-consistency": hsbm_consistency_design,
    "hsbm-coverage": hsbm_coverage_design,
    "heterogeneity": heterogeneity_design,
}


def resolve_design(design: dict, n: int) -> dict:
    """Expand a ``{"recipe": name}`` shorthand into an explicit design dict."""
    if "recipe" in design:
        name = design["recipe"]
        if name not in _RECIPES:
            raise ValueError(f"unknown design recipe {name!r}; known: {sorted(_RECIPES)}")
        return _RECIPES[name](n)
    return dict(design)


def sample_design_edges(design: dict, n: int, rng: np.random.Generator) -> list:
    kind = design["kind"]
    if kind == "explicit":
        edges = [tuple(sorted(int(v) for v in e)) for e in design["edges"]]
        return edges * int(design.get("repeat", 1))
    if kind == "fixed-sizes":
        rules = tuple(
            EdgeSizeRule(m=int(m), mode="fixed", count=int(c))
            for m, c in zip(design["sizes"], design["counts"])
        )
        return sample_random_hypergraph(RandomHypergraphConfig(n=n, rules=rules), rng)
    if kind == "block-bernoulli":
        config = BlockModelConfig(
            m=int(design["m"]),
            community_sizes=tuple(int(s) for s in design["community_sizes"]),
            omega_within=tuple(float(w) for w in design["omega_within"]),
            omega_cross=float(design["omega_cross"]),
        )
        return sample_block_model(config, rng)
    if kind == "block-typed":
        # each comparison picks an edge type, then a uniform edge of that type;
        # repeated edges are legitimate independent comparisons
        counts = rng.multinomial(int(design["total"]), [float(p) for p in design["type_probs"]])
        return _block_edges([int(s) for s in design["community_sizes"]], int(design["m"]), counts, rng, sample_uniform_edges)
    raise ValueError(f"unknown design kind {kind!r}")


def draw_utilities(law: dict, n: int, rng: np.random.Generator) -> np.ndarray:
    kind = law.get("kind", "uniform")
    if kind == "uniform":
        return center(rng.uniform(law.get("low", -0.5), law.get("high", 0.5), size=n))
    if kind == "explicit":
        values = np.asarray(law["values"], dtype=float)
        if values.shape[0] != n:
            raise ValueError(f"explicit utilities have length {values.shape[0]}, need {n}")
        return center(values)
    raise ValueError(f"unknown utility law {kind!r}")


# ---------------------------------------------------------------------------
# Experiment configuration and results
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    experiment: str  # consistency | coverage | heterogeneity
    n_values: tuple[int, ...]
    replications: int
    design: dict
    estimators: tuple[str, ...] = ("full", "qmle", "choice1", "choice2")
    utility_law: dict = field(default_factory=lambda: {"kind": "uniform", "low": -0.5, "high": 0.5})
    ci_level: float = 0.95
    master_seed: int = 0
    compute_se: bool | None = None  # default: only for coverage/heterogeneity
    fit_tol: float = 1e-6
    fit_max_iter: int = 5000
    addition_schedule: tuple[int, ...] = ()  # heterogeneity: extra small-community edges
    track_community: int = 0  # heterogeneity: whose coverage is reported

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_KINDS:
            raise ValueError(f"experiment must be one of {EXPERIMENT_KINDS}")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        self.n_values = tuple(int(v) for v in self.n_values)
        if not self.n_values:
            raise ValueError("n_values must be nonempty")
        self.estimators = tuple(self.estimators)
        for est in self.estimators:
            if est not in ESTIMATOR_KINDS:
                raise ValueError(f"unknown estimator {est!r}")
        self.addition_schedule = tuple(int(v) for v in self.addition_schedule)

    @property
    def wants_se(self) -> bool:
        if self.compute_se is not None:
            return self.compute_se
        return self.experiment in ("coverage", "heterogeneity")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        allowed = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - allowed
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)


# results.csv is a pure function of (config, master seed); wall-clock goes to
# timings.csv so the result bytes are reproducible across worker counts
RESULT_COLUMNS = (
    "experiment",
    "n",
    "added_edges",
    "estimator",
    "replications",
    "completed",
    "dropped",
    "mean_linf",
    "q25_linf",
    "median_linf",
    "q75_linf",
    "best_freq",
    "mean_sigma",
    "coverage",
    "community_coverage",
    "mean_iterations",
)

TIMING_COLUMNS = ("experiment", "n", "added_edges", "estimator", "se_time_s", "fit_time_s")


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[dict]
    resolved_designs: dict

    def cell(self, estimator: str, n=None, added_edges=None) -> dict:
        for row in self.rows:
            if row["estimator"] != estimator:
                continue
            if n is not None and row["n"] != n:
                continue
            if added_edges is not None and row["added_edges"] != added_edges:
                continue
            return row
        raise KeyError((estimator, n, added_edges))

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(RESULT_COLUMNS)
            for row in self.rows:
                writer.writerow([_fmt(row.get(c)) for c in RESULT_COLUMNS])

    def write_timings_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(TIMING_COLUMNS)
            for row in self.rows:
                writer.writerow([_fmt(row.get(c)) for c in TIMING_COLUMNS])

    def write_artifacts(self, out_dir) -> None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        self.write_csv(out_dir / "results.csv")
        self.write_timings_csv(out_dir / "timings.csv")
        echo = {"config": self.config.to_dict(), "resolved_designs": _stringify_keys(self.resolved_designs)}
        with open(out_dir / "config.echo.json", "w") as f:
            json.dump(echo, f, indent=2, sort_keys=True)
        try:
            self._write_figures(out_dir / "figures")
        except Exception as exc:  # plotting must never fail the experiment
            with open(out_dir / "figures_error.txt", "w") as f:
                f.write(f"figure generation failed: {exc!r}\n")

    def _write_figures(self, fig_dir: Path) -> None:
        fig_dir.mkdir(parents=True, exist_ok=True)
        axis = "added_edges" if self.config.experiment == "heterogeneity" else "n"
        metrics = [("mean_linf", "mean sup-norm error", "linf_error.svg")]
        if self.config.wants_se:
            metrics.append(("coverage", "empirical CI coverage", "coverage.svg"))
            metrics.append(("mean_sigma", "mean plug-in sigma", "sigma.svg"))
            if self.config.experiment == "heterogeneity":
                metrics.append(("community_coverage", "small-community coverage", "community_coverage.svg"))
        for key, label, fname in metrics:
            series = {}
            for est in self.config.estimators:
                pts = [
                    (row[axis], row[key])
                    for row in self.rows
                    if row["estimator"] == est and row.get(key) is not None
                ]
                if pts:
                    series[est] = ([p[0] for p in pts], [p[1] for p in pts])
            if series:
                write_line_chart(
                    fig_dir / fname,
                    series,
                    title=f"{self.config.experiment}: {label}",
                    x_label=axis,
                    y_label=label,
                )


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return value


def _stringify_keys(d):
    return {str(k): v for k, v in d.items()}


# ---------------------------------------------------------------------------
# Replication worker
# ---------------------------------------------------------------------------


def _replication(task: dict) -> tuple:
    """Run one replication; pure function of the task dict (picklable)."""
    key = task["key"]  # (axis_value, level_index)
    rep = task["rep"]
    ss = np.random.SeedSequence(task["master_seed"], spawn_key=(key[0], key[1], rep))
    rng = np.random.default_rng(ss)
    n = task["n"]
    u_star = draw_utilities(task["utility_law"], n, rng)
    edges = sample_design_edges(task["design"], n, rng)
    if task.get("extra_c1_edges"):  # inside the tracked community
        edges = edges + sample_uniform_edges(
            np.arange(*task["community_slice"]), int(task["design"]["m"]), int(task["extra_c1_edges"]), rng
        )
    dataset = sample_rankings(u_star, edges, rng)
    config = FitConfig(tol_grad_inf=task["fit_tol"], max_iter=task["fit_max_iter"])
    community = task.get("community_slice")  # (start, stop) or None

    out = {}
    for est in task["estimators"]:
        t0 = time.perf_counter()
        try:
            fitted = fit(dataset, est, config)
        except NonexistenceError:
            out[est] = {"exists": False}
            continue
        fit_time = time.perf_counter() - t0
        rec = {
            "exists": True,
            "linf": float(np.max(np.abs(fitted.estimate - u_star))),
            "fit_time": fit_time,
            "iterations": fitted.iterations,
            "converged": fitted.converged,
        }
        if task["compute_se"] and fitted.converged:
            t1 = time.perf_counter()
            report = standard_errors(fitted, dataset, level=task["ci_level"])
            rec["se_time"] = time.perf_counter() - t1
            hits = report.covers(u_star)
            rec["sigma_mean"] = float(report.sigma.mean())
            rec["cover_frac"] = float(hits.mean())
            if community is not None:
                lo, hi = community
                rec["community_cover_frac"] = float(hits[lo:hi].mean())
                rec["community_sigma_mean"] = float(report.sigma[lo:hi].mean())
        out[est] = rec
    return key, rep, out


def _aggregate(config: ExperimentConfig, cells: dict, axis_meta: dict) -> list[dict]:
    rows = []
    for key in sorted(cells):
        reps = cells[key]  # rep -> {est: rec}
        per_rep = [reps[r] for r in sorted(reps)]
        # best-estimator frequency over replications where someone existed
        wins = {est: 0 for est in config.estimators}
        for rec in per_rep:
            live = [(rec[e]["linf"], i, e) for i, e in enumerate(config.estimators) if _completed(rec[e])]
            if live:
                wins[min(live)[2]] += 1
        for est in config.estimators:
            recs = [rec[est] for rec in per_rep]
            done = [r for r in recs if _completed(r)]
            errors = np.array([r["linf"] for r in done]) if done else np.array([])
            row = {
                "experiment": config.experiment,
                "n": axis_meta[key]["n"],
                "added_edges": axis_meta[key].get("added_edges"),
                "estimator": est,
                "replications": config.replications,
                "completed": len(done),
                "dropped": config.replications - len(done),
                "mean_linf": float(errors.mean()) if errors.size else None,
                "q25_linf": float(np.percentile(errors, 25)) if errors.size else None,
                "median_linf": float(np.percentile(errors, 50)) if errors.size else None,
                "q75_linf": float(np.percentile(errors, 75)) if errors.size else None,
                "best_freq": wins[est] / config.replications,
                "mean_sigma": _mean_of(done, "sigma_mean"),
                "coverage": _mean_of(done, "cover_frac"),
                "community_coverage": _mean_of(done, "community_cover_frac"),
                "se_time_s": _sum_of(done, "se_time"),
                "fit_time_s": _sum_of(done, "fit_time"),
                "mean_iterations": _mean_of(done, "iterations"),
            }
            rows.append(row)
    return rows


def _completed(record) -> bool:
    """A replication counts for an estimator only when its estimate exists and
    the fit converged; anything else is dropped."""
    return bool(record.get("exists") and record.get("converged"))


def _mean_of(records, field_name):
    vals = [r[field_name] for r in records if field_name in r]
    return float(np.mean(vals)) if vals else None


def _sum_of(records, field_name):
    vals = [r[field_name] for r in records if field_name in r]
    return float(np.sum(vals)) if vals else None


def _run_tasks(tasks, workers: int | None):
    if workers is None:
        workers = int(os.environ.get("PLRANK_THREADS", "1"))
    if workers <= 1 or len(tasks) <= 1:
        return [_replication(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_replication, tasks, chunksize=4))


def _execute(config: ExperimentConfig, levels, resolved, out_dir, workers) -> ExperimentResult:
    """Run ``config.replications`` tasks per level and aggregate them.

    ``levels`` lists (key, axis_meta, task fields) with key =
    (axis_value, level_index); the fields extend the config's shared task
    fields (the level's n, design, SE switch, extra edges).
    """
    tasks = [
        {
            "key": key,
            "rep": rep,
            "master_seed": config.master_seed,
            "utility_law": config.utility_law,
            "estimators": config.estimators,
            "ci_level": config.ci_level,
            "fit_tol": config.fit_tol,
            "fit_max_iter": config.fit_max_iter,
            **fields,
        }
        for key, _, fields in levels
        for rep in range(config.replications)
    ]
    cells: dict = {}
    for key, rep, rec in _run_tasks(tasks, workers):
        cells.setdefault(key, {})[rep] = rec
    rows = _aggregate(config, cells, {key: meta for key, meta, _ in levels})
    result = ExperimentResult(config=config, rows=rows, resolved_designs=resolved)
    if out_dir is not None:
        result.write_artifacts(out_dir)
    return result


def run_experiment(config: ExperimentConfig, out_dir=None, workers: int | None = None) -> ExperimentResult:
    """Run a consistency or coverage experiment over ``config.n_values``.

    Per replication: draw centered true utilities, sample the design, sample
    rankings, then per estimator fit (the fit checks existence) and record
    the sup-norm error plus (for coverage) plug-in sigmas, CI hits at the
    truth, and the SE wall-clock. A replication whose estimate does not exist
    or whose fit does not converge is dropped (no SE) and counted in
    ``dropped``.
    """
    if config.experiment == "heterogeneity":
        return heterogeneity_experiment(config, out_dir=out_dir, workers=workers)
    resolved = {n: resolve_design(config.design, n) for n in config.n_values}
    levels = [
        ((n, 0), {"n": n}, {"n": n, "design": design, "compute_se": config.wants_se})
        for n, design in resolved.items()
    ]
    return _execute(config, levels, resolved, out_dir, workers)


def heterogeneity_experiment(config: ExperimentConfig, out_dir=None, workers: int | None = None) -> ExperimentResult:
    """Coverage of the tracked community under growing within-community load.

    The base design is sampled at ``n = n_values[0]``; each schedule entry adds
    that many extra uniform edges (repeats allowed) inside the tracked
    community before fitting.
    """
    n = config.n_values[0]
    design = resolve_design(config.design, n)
    if design["kind"] != "block-typed" and "community_sizes" not in design:
        raise ValueError("heterogeneity experiments need a community design")
    schedule = config.addition_schedule or (0,)
    sizes = [int(s) for s in design["community_sizes"]]
    lo = sum(sizes[: config.track_community])
    hi = lo + sizes[config.track_community]
    levels = [
        ((n, level_index), {"n": n, "added_edges": int(extra)},
         {"n": n, "design": design, "extra_c1_edges": int(extra), "community_slice": (lo, hi), "compute_se": True})
        for level_index, extra in enumerate(schedule)
    ]
    return _execute(config, levels, {n: design, "schedule": list(schedule)}, out_dir, workers)


# ---------------------------------------------------------------------------
# Race-results ingestion and ranking report
# ---------------------------------------------------------------------------


@dataclass
class IngestResult:
    dataset: Dataset
    horse_ids: list  # item index -> original id
    n_races_in: int
    n_horses_in: int
    removed_low_count: list
    removed_all_wins: list
    removed_all_losses: list
    races_dropped_small: int
    tie_broken_races: int

    def report_lines(self) -> list[str]:
        return [
            f"races read: {self.n_races_in}",
            f"horses read: {self.n_horses_in}",
            f"removed (fewer races than cutoff): {len(self.removed_low_count)}",
            f"removed (won every race): {len(self.removed_all_wins)}",
            f"removed (lost every race): {len(self.removed_all_losses)}",
            f"races dropped (fewer than 2 horses): {self.races_dropped_small}",
            f"races with tied positions (broken by file order): {self.tie_broken_races}",
            f"kept: {self.dataset.n} horses, {len(self.dataset)} races",
        ]


def _id_sort_key(value: str):
    return (0, int(value), "") if value.isdecimal() else (1, 0, value)


def ingest_races(path, min_races: int = 10) -> IngestResult:
    """Read race results (CSV with race_id, horse_id, finish_position; extra
    columns ignored) into a Dataset of full rankings.

    Horses appearing in fewer than ``min_races`` races, and horses that won or
    lost every race they ran, are removed; removal passes repeat until a fixed
    point since each removal changes race compositions. Races reduced below
    two horses are dropped. Remaining horses are renumbered densely.

    Rows are held as columns (race, horse, place), numbered in id order and
    sorted race by race, by place, ties in file order; each pass updates a
    live-row mask.
    """
    path = Path(path)
    rows, errors, seen_pairs = [], [], set()
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        required = {"race_id", "horse_id", "finish_position"}
        if header is None or not required <= set(header):
            raise DataFormatError(f"{path}: expected columns {sorted(required)}")
        column = {name: i for i, name in enumerate(header)}  # a repeated name means its last cell
        ri, hi, pi = column["race_id"], column["horse_id"], column["finish_position"]
        for lineno, row in enumerate(filter(None, reader), start=2):  # blank lines are skipped uncounted
            try:
                race_id, horse_id, place = row[ri].strip(), row[hi].strip(), int(row[pi])
                if not race_id or not horse_id or place < 1:
                    raise ValueError
            except (ValueError, IndexError):  # bad value, or a short row
                errors.append(lineno)
                continue
            if (race_id, horse_id) in seen_pairs:
                errors.append(lineno)
                continue
            seen_pairs.add((race_id, horse_id))
            rows.append((race_id, horse_id, place))
    if errors:
        shown = ", ".join(map(str, errors[:10]))
        raise DataFormatError(f"{path}: {len(errors)} malformed/duplicate rows (lines {shown}{'...' if len(errors) > 10 else ''})")

    race_ids, horse_ids, places = zip(*rows) if rows else ((), (), ())
    races = sorted(dict.fromkeys(race_ids), key=_id_sort_key)
    horses = sorted(dict.fromkeys(horse_ids), key=_id_sort_key)
    race, horse, place = _codes(race_ids, races), _codes(horse_ids, horses), np.array(places)
    order = np.lexsort((place, race))  # stable: tied places keep file order
    race, horse, place = race[order], horse[order], place[order]
    tie_broken = np.unique(race[1:][(race[1:] == race[:-1]) & (place[1:] == place[:-1])]).size

    live, live_race = np.ones(len(race), dtype=bool), np.ones(len(races), dtype=bool)
    reason = np.zeros(len(horses), dtype=np.int8)  # 1 low count, 2 won all, 3 lost all
    races_dropped = 0
    while True:
        small = live_race & (np.bincount(race[live], minlength=len(races)) < 2)
        races_dropped += int(small.sum())
        live_race &= ~small
        live &= live_race[race]
        count = np.bincount(horse[live], minlength=len(horses))
        gone = (count > 0) & (count < min_races)
        if gone.any():
            reason[gone] = 1
        else:
            r, h = race[live], horse[live]
            beaten = np.bincount(h[np.diff(r, prepend=-1) == 0], minlength=len(horses)) > 0  # not first
            beats = np.bincount(h[np.diff(r, append=-1) == 0], minlength=len(horses)) > 0  # not last
            won_all, lost_all = (count > 0) & ~beaten, (count > 0) & ~beats
            reason[won_all], reason[lost_all] = 2, 3
            gone = won_all | lost_all
            if not gone.any():
                break
        live &= ~gone[horse]

    kept = count > 0
    items, r = (np.cumsum(kept) - 1)[horse[live]], race[live]
    rankings = np.split(items, np.flatnonzero(np.diff(r)) + 1) if items.size else []
    return IngestResult(
        dataset=_edge_dataset(rankings, max(int(kept.sum()), 1)),
        horse_ids=[horses[k] for k in np.flatnonzero(kept)],
        n_races_in=len(races),
        n_horses_in=len(horses),
        removed_low_count=[horses[k] for k in np.flatnonzero(reason == 1)],
        removed_all_wins=[horses[k] for k in np.flatnonzero(reason == 2)],
        removed_all_losses=[horses[k] for k in np.flatnonzero(reason == 3)],
        races_dropped_small=races_dropped,
        tie_broken_races=tie_broken,
    )


RANK_REPORT_COLUMNS = ("rank", "id", "races", "average_place", "estimate", "ci_low", "ci_high")


def rank_report(fitted, inference_report, dataset: Dataset, top_k: int = 10, labels=None) -> list[dict]:
    """Top items by estimated utility: rank, id, race count, average observed
    place, estimate, and confidence bounds. Ties break by ascending item id."""
    place_sum = np.zeros(dataset.n)
    for (m, _), (_, rankings) in grouped_rankings(dataset).items():
        place_sum += np.bincount(rankings.ravel(), np.tile(np.arange(1.0, m + 1), len(rankings)), dataset.n)
    n_k = inference_report.n_k
    order = sorted(range(dataset.n), key=lambda k: (-fitted.estimate[k], k))
    rows = []
    for rank, k in enumerate(order[:top_k], start=1):
        rows.append(
            {
                "rank": rank,
                "id": labels[k] if labels is not None else k,
                "races": int(n_k[k]),
                "average_place": float(place_sum[k] / max(1, n_k[k])),
                "estimate": float(fitted.estimate[k]),
                "ci_low": float(inference_report.ci_low[k]),
                "ci_high": float(inference_report.ci_high[k]),
            }
        )
    return rows


def write_rank_report(rows, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(RANK_REPORT_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in RANK_REPORT_COLUMNS])


def format_rank_table(rows) -> str:
    header = f"{'rank':>4}  {'id':>8}  {'races':>5}  {'avg place':>9}  {'estimate':>9}  {'95% CI':>20}"
    lines = [header]
    for row in rows:
        ci = f"({row['ci_low']:.3f}, {row['ci_high']:.3f})"
        lines.append(
            f"{row['rank']:>4}  {str(row['id']):>8}  {row['races']:>5}  "
            f"{row['average_place']:>9.3f}  {row['estimate']:>9.3f}  {ci:>20}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Minimal SVG line charts (self-contained, deterministic)
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def write_line_chart(path, series: dict, title: str = "", x_label: str = "", y_label: str = "") -> None:
    """Write a small standalone SVG line chart.

    ``series`` maps name -> (xs, ys). Intended for experiment artifacts; no
    plotting dependency and stable output bytes.
    """
    width, height = 640, 420
    ml, mr, mt, mb = 70, 160, 40, 50
    xs_all = [float(x) for xs, _ in series.values() for x in xs]
    ys_all = [float(y) for _, ys in series.values() for y in ys]
    if not xs_all or not ys_all:
        raise ValueError("empty series")
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def sx(x):
        return ml + (float(x) - x0) / (x1 - x0) * (width - ml - mr)

    def sy(y):
        return height - mb - (float(y) - y0) / (y1 - y0) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{ml}" y1="{height-mb}" x2="{width-mr}" y2="{height-mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height-mb}" stroke="black"/>',
        f'<text x="{(ml+width-mr)/2:.1f}" y="{height-12}" text-anchor="middle">{x_label}</text>',
        f'<text x="16" y="{(mt+height-mb)/2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(mt+height-mb)/2:.1f})">{y_label}</text>',
    ]
    for i in range(5):
        xv = x0 + i * (x1 - x0) / 4
        yv = y0 + i * (y1 - y0) / 4
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{height-mb+16}" text-anchor="middle">{xv:.4g}</text>'
        )
        parts.append(
            f'<text x="{ml-6}" y="{sy(yv)+4:.1f}" text-anchor="end">{yv:.4g}</text>'
        )
        parts.append(
            f'<line x1="{ml}" y1="{sy(yv):.1f}" x2="{width-mr}" y2="{sy(yv):.1f}" '
            f'stroke="#dddddd" stroke-width="0.5"/>'
        )
    for idx, (name, (xs, ys)) in enumerate(sorted(series.items())):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in sorted(zip(xs, ys)))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" fill="{color}"/>')
        ly = mt + 18 * idx
        parts.append(f'<line x1="{width-mr+10}" y1="{ly}" x2="{width-mr+34}" y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{width-mr+40}" y="{ly+4}">{name}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))
