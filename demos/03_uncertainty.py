"""Plug-in standard errors, confidence intervals, and the efficiency/cost
trade-off between the full MLE and the QMLE.

The full likelihood is statistically most efficient but its variance needs an
ordered-prefix enumeration per edge (m!/(m-y)! terms); the QMLE variance needs
only pairwise and triple-wise terms. On wide edges the enumeration budget
makes the switch to the QMLE explicit.
"""

import time

import numpy as np

from plrank import (
    Dataset,
    Observation,
    center,
    fit,
    marginal_inverse_variance,
    qmle_inverse_variance,
    sample_rankings,
    standard_errors,
)
from plrank.graphs import sample_uniform_edges
from plrank.likelihood import EnumerationBudgetError

rng = np.random.default_rng(3)
n = 40
u_star = center(rng.uniform(-0.5, 0.5, n))
edges = sample_uniform_edges(range(n), 5, 500, rng)
dataset = sample_rankings(u_star, edges, rng)

for estimator in ("full", "qmle"):
    result = fit(dataset, estimator)
    t0 = time.perf_counter()
    report = standard_errors(result, dataset, level=0.95)
    elapsed = time.perf_counter() - t0
    hits = report.covers(u_star).mean()
    print(f"{estimator:>5}: mean sigma {report.sigma.mean():.4f}, "
          f"CI covers truth for {hits:.1%} of items, "
          f"{report.theta_cost} enumerated terms in {elapsed*1e3:.1f} ms")

# Per-edge inverse-variance contributions at the symmetric point: the full
# likelihood beats the pairwise breaking, which beats using only the winner.
u0 = np.zeros(3)
triple = Dataset(3, [Observation((0, 1, 2))])
print("\nper-edge inverse variance at u = 0 (triple edge):")
print("  full   :", marginal_inverse_variance(u0, triple, 0))
print("  qmle   :", qmle_inverse_variance(u0, triple, 0))
print("  top-1  :", marginal_inverse_variance(u0, triple.with_cutoff(1), 0))

# Wide edges exhaust the enumeration budget; the error names the offenders.
# Twelve 12-item races over 20 items: with only a few, some item often never
# loses (or never wins) and no full MLE exists.
wide = sample_rankings(center(rng.uniform(-0.5, 0.5, 20)), sample_uniform_edges(range(20), 12, 12, rng), rng)
wide_fit = fit(wide, "full")
try:
    standard_errors(wide_fit, wide, prefix_budget=10**6)
except EnumerationBudgetError as exc:
    print("\nbudget exceeded as expected:", exc)
    print("per-edge prefix counts:", exc.per_edge)
    qmle_fit = fit(wide, "qmle")
    report = standard_errors(qmle_fit, wide)
    print("QMLE handles the same data with", report.theta_cost, "terms")
