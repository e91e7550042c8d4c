"""The four benchmark workloads.

Each workload is one closed loop: ``setup`` makes the inputs from the
workload seed, ``prepare(i)`` makes any inputs of operation ``i`` alone
(untimed), ``op(i)`` runs operation ``i`` through plrank's public entry
points and returns its raw outputs, and ``verify(output)`` checks them
outside the timed region, returning a small summary with an ``errors`` list.
``verify_run(summaries)`` checks what only the whole run can show (mean CI
coverage). The seed reaches plrank only through the generated inputs.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
import plrank
from plrank import cli, graphs, harness

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("full", "qmle", "choice1", "choice2")
FIT_TOL = 1e-8  # library and CLI default


def op_seed(seed: int, i: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=(i,))


class Workload:
    """Defaults for workloads whose operations need no inputs of their own."""

    def __init__(self, seed: int, workdir: Path | None):
        self.seed = seed
        self.workdir = None if workdir is None else Path(workdir)

    def setup(self):
        """Build the inputs the first operation needs (timed as setup_s)."""

    def prepare(self, i):
        """Build operation ``i``'s own inputs, outside the timed region."""

    def verify_run(self, summaries):
        return []


def coverage_errors(name, summaries, kinds=KINDS) -> list[str]:
    """Mean CI coverage per estimator over every checked operation of a run."""
    summaries = [s for s in summaries if "hits" in s]
    intervals = sum(s["intervals"] for s in summaries)
    if not intervals:
        return []
    return [e for kind in kinds
            for e in checks.check_coverage(f"{name} {kind}", sum(s["hits"][kind] for s in summaries), intervals)]


class CoverageN200(Workload):
    """One coverage replication of the nurhm-coverage recipe at n = 200."""

    name = "coverage-n200"

    def op(self, i):
        config = harness.ExperimentConfig(
            experiment="coverage",
            n_values=(200,),
            replications=1,
            design={"recipe": "nurhm-coverage"},
            estimators=KINDS,
            master_seed=int(op_seed(self.seed, i).generate_state(1)[0]),
        )
        return harness.run_experiment(config, workers=1)

    def verify(self, result):
        errors = []
        cells = {row["estimator"]: row for row in result.rows}
        for kind in KINDS:
            row = cells[kind]
            if row["completed"] != row["replications"] or row["dropped"] != 0:
                errors.append(f"{self.name}: {kind} completed {row['completed']} of {row['replications']}")
        errors += checks.check_sigma_order(self.name, {k: cells[k]["mean_sigma"] for k in KINDS})
        n = result.config.n_values[0]
        hits = {k: round(cells[k]["coverage"] * n) for k in KINDS}
        return {"errors": errors, "hits": hits, "intervals": n}

    def verify_run(self, summaries):
        return coverage_errors(self.name, summaries)


class LargeN2000(Workload):
    """The library quick start at scale: 40,000 five-way races over 2,000 items,
    four fits and four SEs at the default tolerance."""

    name = "large-n2000"
    n, races, m = 2000, 40_000, 5
    # closed-form theta_cost per five-way edge (checked again by checks.theta_cost)
    per_edge_cost = {"full": 205, "qmle": 50, "choice2": 25, "choice1": 5}

    def op(self, i):
        rng = np.random.default_rng(op_seed(self.seed, i))
        truth = plrank.center(rng.uniform(-0.5, 0.5, self.n))
        edges = graphs.sample_uniform_edges(range(self.n), self.m, self.races, rng)
        data = plrank.sample_rankings(truth, edges, rng)
        out = {"truth": truth, "edges": edges, "data": data}
        for kind in KINDS:
            fitted = plrank.fit(data, kind)
            out[kind] = (fitted, plrank.standard_errors(fitted, data))
        return out

    def verify(self, out):
        errors = []
        data = out["data"]
        if len(out["edges"]) != self.races or any(len(set(e)) != self.m for e in out["edges"]):
            errors.append(f"{self.name}: expected {self.races} distinct-item {self.m}-way edges")
        rankings = [obs.ranking for obs in data.observations]
        if sorted(map(sorted, rankings)) != sorted(map(list, out["edges"])):
            errors.append(f"{self.name}: sampled rankings do not rank the sampled edges")
        groups = checks.rankings_by_size(rankings)
        summary = {"errors": errors, "hits": {}, "intervals": self.n}
        sigma = {}
        for kind in KINDS:
            fitted, report = out[kind]
            if not fitted.converged:
                errors.append(f"{self.name}: {kind} fit did not converge")
            if kind == "qmle":
                score = checks.pairwise_score(fitted.estimate, groups)
            else:
                score = checks.marginal_score(fitted.estimate, groups, {"full": None, "choice1": 1, "choice2": 2}[kind])
            errors += checks.check_certified(f"{self.name} {kind}", score, len(rankings), FIT_TOL)
            want = checks.theta_cost(kind, [len(r) for r in rankings])
            if report.theta_cost != want or want != self.per_edge_cost[kind] * self.races:
                errors.append(f"{self.name}: {kind} theta_cost {report.theta_cost}, closed form {want}")
            summary["hits"][kind] = int(report.covers(out["truth"]).sum())
            sigma[kind] = float(report.sigma.mean())
        errors += checks.check_sigma_order(self.name, sigma)
        return summary

    def verify_run(self, summaries):
        return coverage_errors(self.name, summaries)


def generate_races(seed_seq, n_horses: int, n_races: int, field=(4, 14)):
    """Synthetic race results at Hong Kong scale.

    Horse utilities are N(0, 0.6^2); starters are drawn by successive sampling
    proportional to a Gamma(4, 1) activity per horse (draw with replacement,
    skip repeats), so a tail of horses runs too few races and is removed by
    ingestion. Field sizes are uniform on 4-14; finishing orders are
    Plackett-Luce draws (Gumbel-max).
    Returns (utilities by horse id, races as best-first horse-id lists).
    """
    rng = np.random.default_rng(seed_seq)
    ids = 1000 + np.arange(n_horses)
    utility = rng.normal(0.0, 0.6, n_horses)
    activity = np.cumsum(rng.gamma(4.0, 1.0, n_horses))
    cdf = activity / activity[-1]
    races = []
    for m in rng.integers(field[0], field[1] + 1, n_races).tolist():
        starters = []
        while len(starters) < m:
            draws = np.searchsorted(cdf, rng.random(m), side="right").tolist()
            starters = list(dict.fromkeys(starters + draws))[:m]
        starters = np.asarray(starters)
        keys = utility[starters] + rng.gumbel(size=m)
        races.append(ids[starters[np.argsort(-keys)]].tolist())
    return dict(zip(ids.tolist(), utility.tolist())), races


def write_races_csv(races, path) -> None:
    """Hong Kong results schema: race_id, horse_id, finish_position, venue."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["race_id", "horse_id", "finish_position", "venue"])
        for rid, race in enumerate(races, start=1):
            venue = "HV" if rid % 3 == 0 else "ST"
            for pos, horse in enumerate(race, start=1):
                writer.writerow([rid, horse, pos, venue])


class RacesCli(Workload):
    """The command-line pipeline on a generated race-results CSV:
    ingest -> fit qmle -> infer -> fit full, one process each.

    Operation i runs on its own CSV, so a run's median spans several inputs;
    set-up writes the first one, later ones are written between operations.
    """

    name = "races-cli"
    min_races = 10
    n_horses, n_races = 4400, 6300
    in_process = False  # the traced run makes each subcommand's calls in-process
    prepared = None

    def setup(self):
        self.prepare(0)

    def prepare(self, i):
        if self.prepared == i:
            return
        self.utility, self.races = generate_races(op_seed(self.seed, i), self.n_horses, self.n_races)
        self.races_csv = self.workdir / "races.csv"
        write_races_csv(self.races, self.races_csv)
        self.prepared = i

    def steps(self):
        w = self.workdir
        return [
            ("ingest", ["ingest", "--races", str(self.races_csv), "--min-races", str(self.min_races),
                        "--out", str(w / "dataset.csv")]),
            ("fit_qmle", ["fit", "--data", str(w / "dataset.csv"), "--estimator", "qmle", "--out", str(w / "qmle.json")]),
            ("infer", ["infer", "--fit", str(w / "qmle.json"), "--data", str(w / "dataset.csv"), "--out", str(w / "se.csv")]),
            ("fit_full", ["fit", "--data", str(w / "dataset.csv"), "--estimator", "full", "--out", str(w / "full.json")]),
        ]

    def op(self, i):
        for stale in ("dataset.csv", "dataset.json", "dataset_ids.json", "qmle.json", "se.csv", "full.json"):
            (self.workdir / stale).unlink(missing_ok=True)
        codes = {}
        for label, argv in self.steps():
            if self.in_process:
                codes[label] = self.run_in_process(label, argv)
            else:
                proc = subprocess.run(
                    [sys.executable, "-m", "plrank.cli", *argv],
                    env=plrank_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                )
                codes[label] = proc.returncode
                if proc.returncode:
                    print(proc.stderr, file=sys.stderr)
        return {"codes": codes, "dir": self.workdir}

    def run_in_process(self, label, argv):
        with open(os.devnull, "w") as sink:
            stdout, sys.stdout = sys.stdout, sink
            try:
                return cli.main(argv)
            finally:
                sys.stdout = stdout

    def verify(self, out):
        w = out["dir"]
        bad = {k: c for k, c in out["codes"].items() if c != 0}
        if bad:
            return {"errors": [f"{self.name}: non-zero exit codes {bad}"]}
        kept_ids = [int(h) for h in json.loads((w / "dataset_ids.json").read_text())]
        observations = checks.read_dataset_csv(w / "dataset.csv")
        errors = checks.cleaning_errors(self.races, kept_ids, observations, self.min_races)
        if errors:
            return {"errors": errors}
        groups = checks.rankings_by_size(observations)
        qmle = json.loads((w / "qmle.json").read_text())
        full = json.loads((w / "full.json").read_text())
        errors += checks.check_certified(f"{self.name} qmle", checks.pairwise_score(qmle["estimate"], groups),
                                         len(observations), FIT_TOL)
        errors += checks.check_certified(f"{self.name} full", checks.marginal_score(full["estimate"], groups, None),
                                         len(observations), FIT_TOL)
        truth = np.array([self.utility[h] for h in kept_ids])
        truth -= truth.mean()
        with open(w / "se.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        low = np.array([float(r["ci_low"]) for r in rows])
        high = np.array([float(r["ci_high"]) for r in rows])
        est = np.array([float(r["estimate"]) for r in rows])
        if len(rows) != len(kept_ids) or not np.allclose(est, qmle["estimate"], rtol=0, atol=1e-12):
            errors.append(f"{self.name}: infer output does not match the qmle fit")
            return {"errors": errors}
        return {"errors": errors, "hits": {"qmle": int(((low <= truth) & (truth <= high)).sum())},
                "intervals": len(rows)}

    def verify_run(self, summaries):
        return coverage_errors(self.name, summaries, ("qmle",))

class DiagnosticsN40(Workload):
    """Topology diagnostics of a nurhm-coverage design at n = 40, u = 0."""

    name = "diagnostics-n40"
    n = 40
    sizes = (3, 4, 5, 6)
    per_size = 200  # nurhm-coverage at n = 40: 25 * round(2.5 * 40**1.2 / 25)

    reference = None

    def setup(self):
        """Distinct uniform edges per size, as the recipe's fixed-count rule."""
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(0,)))
        self.edges = []
        for m in self.sizes:
            seen = set()
            while len(seen) < self.per_size:
                seen.add(tuple(sorted(rng.choice(self.n, m, replace=False).tolist())))
            self.edges += sorted(seen)

    def op(self, i):
        return {
            "qmle": graphs.graph_diagnostics(self.edges, n=self.n, estimator="qmle"),
            "choice1": graphs.graph_diagnostics(self.edges, n=self.n, estimator="choice1"),
            "full": graphs.spectral_diagnostics(self.edges, estimator="full", leave_one_out=False, n=self.n),
        }

    def expected(self):
        if self.reference is None:
            weights = {}
            self.reference = {
                "qmle": checks.spectral_reference(self.edges, self.n, "qmle", True, weights),
                "choice1": checks.spectral_reference(self.edges, self.n, "choice1", True, weights),
                "full": checks.spectral_reference(self.edges, self.n, "full", False, weights),
            }
        return self.reference

    def verify(self, out):
        errors = []
        ref = self.expected()
        for kind in ("qmle", "choice1"):
            _, s_gap, leave = ref[kind]
            diag = out[kind]
            if not (checks.close(diag.s_gap, s_gap) and checks.close(diag.lambda2_leave, leave)):
                errors.append(f"{self.name}: {kind} s_gap/leave-one-out {diag.s_gap}/{diag.lambda2_leave}, "
                              f"reference {s_gap}/{leave}")
        eigs, s_gap, _ = ref["full"]
        full = out["full"]
        if not checks.close(full.s_gap, s_gap) or not np.allclose(full.eigenvalues, eigs, rtol=0, atol=1e-10):
            errors.append(f"{self.name}: full spectrum differs from the reference (s_gap {full.s_gap} vs {s_gap})")
        if full.eigenvalues.min() < -1e-12 or full.eigenvalues.max() > 2 + 1e-12:
            errors.append(f"{self.name}: normalized eigenvalues leave [0, 2]")
        return {"errors": errors}


WORKLOADS = {w.name: w for w in (CoverageN200, LargeN2000, RacesCli, DiagnosticsN40)}


def plrank_env() -> dict:
    """Environment for child processes that import plrank from this checkout."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
