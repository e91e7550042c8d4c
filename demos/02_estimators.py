"""Fitting the estimator family on one simulated comparison hypergraph.

Generates mixed-size comparisons from known utilities, checks that a finite
maximizer exists, then fits the full MLE, the top-1 and top-2 marginal MLEs,
and the pairwise-broken QMLE, comparing their sup-norm errors.
"""

import numpy as np

from plrank import EdgeSizeRule, RandomHypergraphConfig, center, existence_check, fit, sample_random_hypergraph, sample_rankings

rng = np.random.default_rng(7)
n = 50
u_star = center(rng.uniform(-0.5, 0.5, n))

config = RandomHypergraphConfig(
    n=n,
    rules=(
        EdgeSizeRule(m=3, mode="fixed", count=150),
        EdgeSizeRule(m=4, mode="fixed", count=150),
        EdgeSizeRule(m=5, mode="fixed", count=150),
    ),
)
edges = sample_random_hypergraph(config, rng)
dataset = sample_rankings(u_star, edges, rng)
print(f"{len(dataset)} comparisons on {n} items; degrees "
      f"{dataset.degrees().min()}..{dataset.degrees().max()}")

check = existence_check(dataset)
print("finite maximizer exists:", check.exists)

for estimator in ("full", "choice1", "choice2", "qmle"):
    result = fit(dataset, estimator)
    err = np.max(np.abs(result.estimate - u_star))
    print(f"{estimator:>7}: sup-norm error {err:.4f} "
          f"({result.iterations} iterations, converged={result.converged})")

# The same machinery refuses degenerate data: make item 0 an all-winner.
from plrank import Dataset, NonexistenceError, Observation

bad = Dataset(3, [Observation((0, 1)), Observation((0, 2)), Observation((1, 2)), Observation((2, 1))])
try:
    fit(bad, "full")
except NonexistenceError as exc:
    print("degenerate data rejected:", exc)
