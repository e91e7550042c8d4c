"""Experiment runner: sampling designs, fitting every estimator, coverage and
error aggregation, plot emission, and race-results ingestion.

Replications are independent and reproducible: the per-replication seed is
``SeedSequence(master_seed, spawn_key=(n, i, rep))`` for replication ``rep``
of level (n, i) (see :func:`run_experiment`), so
results are byte-identical regardless of worker count. Set ``PLRANK_THREADS``
(or pass ``workers``) to run replications in parallel processes.
"""

from __future__ import annotations

import csv
import functools
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
from .model import DataFormatError, Dataset, _as_dataset, _codes, _column_blocks, center, grouped_rankings, sample_rankings

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


def _design_sampler(design: dict, n: int):
    """The edge draw ``rng -> edges`` of a resolved design at ``n`` items. Its
    generator config is built here, before any draw, so an unknown kind, a
    missing or invalid field, or an explicit edge that is no valid observation
    at ``n`` items raise ValueError naming the design."""
    kind = design.get("kind")
    try:
        if sum(int(s) for s in design.get("community_sizes", ())) > n:
            raise ValueError(f"community_sizes {design['community_sizes']} hold more than n={n} items")
        if kind == "explicit":
            edges = [tuple(sorted(int(v) for v in e)) for e in design["edges"]] * int(design.get("repeat", 1))
            try:
                _as_dataset(edges, n)
            except ValueError as exc:
                raise ValueError(f"edges: {exc}") from None
            return lambda rng: list(edges)
        if kind == "fixed-sizes":
            if len(design["sizes"]) != len(design["counts"]):
                raise ValueError("sizes and counts differ in length")
            rules = tuple(EdgeSizeRule(m=int(m), mode="fixed", count=int(c)) for m, c in zip(design["sizes"], design["counts"]))
            return functools.partial(sample_random_hypergraph, RandomHypergraphConfig(n=n, rules=rules))
        if kind == "block-bernoulli":
            config = BlockModelConfig(
                m=int(design["m"]),
                community_sizes=tuple(int(s) for s in design["community_sizes"]),
                omega_within=tuple(float(w) for w in design["omega_within"]),
                omega_cross=float(design["omega_cross"]),
            )
            return functools.partial(sample_block_model, config)
        if kind == "block-typed":
            sizes, m = [int(s) for s in design["community_sizes"]], int(design["m"])
            total, probs = int(design["total"]), [float(p) for p in design["type_probs"]]
            if m < 2 or total < 0:
                raise ValueError(f"needs edge size m >= 2 and total >= 0, got m={m}, total={total}")
            if len(probs) != len(sizes) + 1 or min(probs) < 0 or not math.isclose(sum(probs), 1):
                raise ValueError(f"type_probs {probs} needs one entry >= 0 per community plus cross, summing to 1")
            if min(sizes) < m:
                raise ValueError(f"community_sizes {sizes}: a community has fewer than m={m} items")
            if len(sizes) == 1 and probs[-1] > 0:
                raise ValueError(f"type_probs: one community has no eligible size-{m} edges across communities")
            # each comparison picks an edge type, then a uniform edge of that type;
            # repeated edges are legitimate independent comparisons
            return lambda rng: _block_edges(sizes, m, rng.multinomial(total, probs), rng, sample_uniform_edges)
    except KeyError as exc:
        raise ValueError(f"{kind} design needs the field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{kind} design: {exc}") from None
    raise ValueError(f"unknown design kind {kind!r}")


def sample_design_edges(design: dict, n: int, rng: np.random.Generator) -> list:
    return _design_sampler(design, n)(rng)


def _utility_sampler(law: dict, n: int):
    """The utility draw ``rng -> u`` of ``law`` at ``n`` items; a law that is
    not a mapping, an unknown kind, a uniform law with low > high or an
    explicit law of the wrong length raises ValueError before any draw."""
    if not isinstance(law, dict):
        raise ValueError(f"utility_law must be a mapping with a kind, got {law!r}")
    kind = law.get("kind", "uniform")
    if kind == "uniform":
        low, high = law.get("low", -0.5), law.get("high", 0.5)
        if not low <= high:
            raise ValueError(f"uniform utility_law needs low <= high, got low={low}, high={high}")
        return lambda rng: center(rng.uniform(low, high, size=n))
    if kind == "explicit":
        values = np.asarray(law.get("values", ()), dtype=float)
        if values.shape[0] != n:
            raise ValueError(f"explicit utility_law has {values.shape[0]} values, need {n}")
        return lambda rng: center(values)
    raise ValueError(f"unknown utility_law kind {kind!r}")


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
    addition_schedule: tuple[int, ...] = ()  # heterogeneity: extra tracked-community edges per level
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
        if any(v < 0 for v in self.addition_schedule):
            raise ValueError(f"addition_schedule entries must be >= 0, got {list(self.addition_schedule)}")
        if not 0 < self.ci_level < 1:
            raise ValueError(f"ci_level must be in (0, 1), got {self.ci_level}")
        if not self.fit_tol > 0:
            raise ValueError(f"fit_tol must be positive, got {self.fit_tol}")
        if self.fit_max_iter < 1:
            raise ValueError(f"fit_max_iter must be >= 1, got {self.fit_max_iter}")
        designs = [resolve_design(self.design, n) for n in self.n_values]  # an unknown recipe raises here
        if self.experiment == "heterogeneity":
            for design in designs:
                sizes = design.get("community_sizes")
                if sizes is None:
                    raise ValueError("heterogeneity experiments need a design with community_sizes")
                if not 0 <= self.track_community < len(sizes):
                    raise ValueError(f"track_community must be in [0, {len(sizes)}), got {self.track_community}")
                t, m = self.track_community, design.get("m")
                if any(self.addition_schedule) and (m is None or int(sizes[t]) < int(m)):
                    raise ValueError(f"addition_schedule adds size-m edges inside track_community {t} "
                                     f"({sizes[t]} items), and the design's m is {m}")
        for n, design in zip(self.n_values, designs):  # generator configs are built, nothing is drawn
            _design_sampler(design, n)
            _utility_sampler(self.utility_law, n)

    @property
    def schedule(self) -> tuple:
        """Extra tracked-community edges per level i; one level adding none outside heterogeneity."""
        return (self.addition_schedule or (0,)) if self.experiment == "heterogeneity" else (None,)

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

    def write_artifacts(self, out_dir) -> None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_table(out_dir / "results.csv", RESULT_COLUMNS, self.rows)
        _write_table(out_dir / "timings.csv", TIMING_COLUMNS, self.rows)
        echo = {"config": self.config.to_dict(), "resolved_designs": {str(k): v for k, v in self.resolved_designs.items()}}
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
        per_n = axis != "n" and len(self.config.n_values) > 1  # one line per (estimator, n)
        for key, label, fname in metrics:
            series: dict = {}
            for row in self.rows:
                if row.get(key) is not None:
                    name = f"{row['estimator']} n={row['n']}" if per_n else row["estimator"]
                    xs, ys = series.setdefault(name, ([], []))
                    xs.append(row[axis])
                    ys.append(row[key])
            if series:
                write_line_chart(
                    fig_dir / fname,
                    series,
                    title=f"{self.config.experiment}: {label}",
                    x_label=axis,
                    y_label=label,
                )


def _write_table(path, columns, rows) -> None:
    """CSV of ``columns`` with one line per row dict; floats as ``repr``, a
    missing or None value as an empty cell."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return value


# ---------------------------------------------------------------------------
# Replication worker
# ---------------------------------------------------------------------------


def _replication(config: ExperimentConfig, key: tuple, rep: int) -> tuple:
    """Run replication ``rep`` of level ``key = (n, i)``; a pure function of
    its (picklable) arguments. A heterogeneity level adds ``schedule[i]``
    uniform edges inside the tracked community to the design's draw and
    reports that community's coverage."""
    n, i = key
    rng = np.random.default_rng(np.random.SeedSequence(config.master_seed, spawn_key=(n, i, rep)))
    design, tracked = resolve_design(config.design, n), None
    u_star = _utility_sampler(config.utility_law, n)(rng)
    edges = sample_design_edges(design, n, rng)
    if config.experiment == "heterogeneity":
        sizes, t = [int(s) for s in design["community_sizes"]], config.track_community
        tracked = slice(sum(sizes[:t]), sum(sizes[: t + 1]))  # the tracked community's items
        if config.schedule[i]:
            items = np.arange(tracked.start, tracked.stop)
            edges = edges + sample_uniform_edges(items, int(design["m"]), config.schedule[i], rng)
    dataset = sample_rankings(u_star, edges, rng)
    fit_config = FitConfig(tol_grad_inf=config.fit_tol, max_iter=config.fit_max_iter)

    out = {}
    for est in config.estimators:
        t0 = time.perf_counter()
        try:
            fitted = fit(dataset, est, fit_config)
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
        if config.wants_se and fitted.converged:
            t1 = time.perf_counter()
            report = standard_errors(fitted, dataset, level=config.ci_level)
            rec["se_time"] = time.perf_counter() - t1
            hits = report.covers(u_star)
            rec["sigma_mean"] = float(report.sigma.mean())
            rec["cover_frac"] = float(hits.mean())
            if tracked is not None:
                rec["community_cover_frac"] = float(hits[tracked].mean())
        out[est] = rec
    return key, rep, out


def _aggregate(config: ExperimentConfig, cells: dict) -> list[dict]:
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
                "n": key[0],
                "added_edges": config.schedule[key[1]],
                "estimator": est,
                "replications": config.replications,
                "completed": len(done),
                "dropped": config.replications - len(done),
                "mean_linf": float(errors.mean()) if errors.size else None,
                "q25_linf": float(np.percentile(errors, 25)) if errors.size else None,
                "median_linf": float(np.percentile(errors, 50)) if errors.size else None,
                "q75_linf": float(np.percentile(errors, 75)) if errors.size else None,
                "best_freq": wins[est] / config.replications,
                "mean_sigma": _over(done, "sigma_mean"),
                "coverage": _over(done, "cover_frac"),
                "community_coverage": _over(done, "community_cover_frac"),
                "se_time_s": _over(done, "se_time", np.sum),
                "fit_time_s": _over(done, "fit_time", np.sum),
                "mean_iterations": _over(done, "iterations"),
            }
            rows.append(row)
    return rows


def _completed(record) -> bool:
    """A replication counts for an estimator only when its estimate exists and
    the fit converged; anything else is dropped."""
    return bool(record.get("exists") and record.get("converged"))


def _over(records, field_name, reduce=np.mean):
    vals = [r[field_name] for r in records if field_name in r]
    return float(reduce(vals)) if vals else None


def _run_tasks(config: ExperimentConfig, tasks, workers: int | None):
    """``_replication(config, key, rep)`` for each (key, rep) task."""
    if workers is None:
        workers = int(os.environ.get("PLRANK_THREADS", "1"))
    run = functools.partial(_replication, config)
    if workers <= 1 or len(tasks) <= 1:
        return [run(*task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, *zip(*tasks), chunksize=4))


def run_experiment(config: ExperimentConfig, out_dir=None, workers: int | None = None) -> ExperimentResult:
    """Run every study as a grid of levels (n, i), n over ``config.n_values``
    and i over ``config.schedule`` (a heterogeneity study's addition schedule,
    else one level), with ``config.replications`` replications per level.

    Per replication: draw centered true utilities, sample the design (plus the
    level's extra tracked-community edges), sample rankings, then per
    estimator fit (the fit checks existence) and record the sup-norm error
    plus, when ``config.wants_se``, plug-in sigmas, CI hits at the truth and
    the SE wall-clock. A replication whose estimate does not exist or whose
    fit does not converge is dropped (no SE) and counted in ``dropped``.
    """
    tasks = [((n, i), rep) for n in config.n_values for i in range(len(config.schedule)) for rep in range(config.replications)]
    cells: dict = {}
    for key, rep, rec in _run_tasks(config, tasks, workers):
        cells.setdefault(key, {})[rep] = rec
    resolved = {n: resolve_design(config.design, n) for n in config.n_values}
    if config.experiment == "heterogeneity":
        resolved["schedule"] = list(config.schedule)
    result = ExperimentResult(config=config, rows=_aggregate(config, cells), resolved_designs=resolved)
    if out_dir is not None:
        result.write_artifacts(out_dir)
    return result


heterogeneity_experiment = run_experiment  # alias: the driver runs heterogeneity studies too


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


#: Fewest races a horse must run to be kept by :func:`ingest_races`.
DEFAULT_MIN_RACES = 10


def ingest_races(path, min_races: int = DEFAULT_MIN_RACES) -> IngestResult:
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
    items, lengths = (np.cumsum(kept) - 1)[horse[live]], np.unique(race[live], return_counts=True)[1]
    return IngestResult(
        dataset=Dataset.from_blocks(max(int(kept.sum()), 1), _column_blocks(items, lengths, lengths)),
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
    _write_table(path, RANK_REPORT_COLUMNS, rows)


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
