"""Existence checking and fixed-point fitting for all five estimator kinds.

:data:`ESTIMATOR_CUTOFFS` is the one table from estimator kind to the cutoff
it fits at. Every kind runs the same loop on the likelihood engine's (edge
size, cutoff) groups: the marginal kinds on the observations' rankings at
their cutoffs, the QMLE on one (2, 1) group of fully broken pairs, whose
marginal MLE it is (Azari Soufiani, Parkes & Xia, ICML 2014). An iterate is
Newman's step (JMLR 2023) on Plackett-Luce stages, or one MM step (Hunter,
Ann. Statist. 2004) where Newman's would not help, both from one engine pass
that also gives the score. Each iterate recenters to the sum-zero gauge, and
the loop stops when the sup-norm of the score divided by the observation
count drops below the tolerance, certifying the estimating equations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .likelihood import _marginal_loglik_from_groups, _marginal_pass, _pair_block
from .model import Dataset, _dominance_arcs, _sink_component, center, check_utilities, full_breaking, grouped_rankings

#: Estimator kind -> the cutoff it fits at: "full" (y = m), a top-y cutoff
#: (y = min(y, m)), or None (each observation's stored cutoff). The QMLE
#: breaks the full rankings into pairs.
ESTIMATOR_CUTOFFS = {"full": "full", "marginal": None, "choice1": 1, "choice2": 2, "qmle": "full"}
ESTIMATOR_KINDS = tuple(ESTIMATOR_CUTOFFS)


class NonexistenceError(RuntimeError):
    """The (quasi-)likelihood has no finite maximizer on the observed data."""

    def __init__(self, partition):
        self.partition = sorted(partition)
        shown = ", ".join(map(str, self.partition[:20])) + (", ..." if len(self.partition) > 20 else "")
        super().__init__(
            f"no finite maximizer: items [{shown}] ({len(self.partition)} in all) are never beaten from outside"
        )


@dataclass(frozen=True)
class ExistenceResult:
    exists: bool
    failing_partition: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.exists


@dataclass(frozen=True)
class FitConfig:
    tol_grad_inf: float = 1e-8
    max_iter: int = 5000
    initial: np.ndarray | None = None

    def __post_init__(self):
        if self.tol_grad_inf <= 0:
            raise ValueError("tol_grad_inf must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class FitResult:
    estimate: np.ndarray  # identified (sums to zero)
    estimator: str  # one of ESTIMATOR_KINDS
    final_log_lik: float
    iterations: int
    converged: bool
    final_grad_inf: float
    y_override: object = None  # cutoff override used (None | int | "full")

    def to_dict(self) -> dict:
        return {
            "estimate": [float(v) for v in self.estimate],
            "estimator": self.estimator,
            "final_log_lik": self.final_log_lik,
            "iterations": self.iterations,
            "converged": self.converged,
            "final_grad_inf": self.final_grad_inf,
            "y_override": self.y_override,
        }

    @classmethod
    def from_dict(cls, d) -> "FitResult":
        return cls(
            estimate=np.asarray(d["estimate"], dtype=float),
            estimator=d["estimator"],
            final_log_lik=float(d["final_log_lik"]),
            iterations=int(d["iterations"]),
            converged=bool(d["converged"]),
            final_grad_inf=float(d["final_grad_inf"]),
            y_override=d.get("y_override"),
        )


def apply_estimator_cutoff(dataset: Dataset, estimator: str, y_override=None) -> Dataset:
    """Dataset with the cutoffs an estimator kind actually consumes, from
    :data:`ESTIMATOR_CUTOFFS`; ``y_override`` applies to the stored-cutoff
    kind ("marginal") only."""
    if estimator not in ESTIMATOR_CUTOFFS:
        raise ValueError(f"unknown estimator {estimator!r}; expected one of {ESTIMATOR_KINDS}")
    y = ESTIMATOR_CUTOFFS[estimator]
    y = y_override if y is None else y
    return dataset if y is None else dataset.with_cutoff(y)


def existence_check(dataset: Dataset) -> ExistenceResult:
    """Existence and uniqueness of the constrained maximizer.

    Builds the dominance digraph with an arc loser -> winner for every broken
    pair (respecting cutoffs), from the m - 1 arcs per observation of
    :func:`plrank.model._dominance_arcs`, which have the same reachability.
    A finite maximizer exists iff the digraph is strongly connected, i.e.
    every nonempty proper item subset is beaten from outside at least once;
    :func:`plrank.model._sink_component` decides. On failure the reported
    partition is a condensation sink: a component with no outgoing arc, i.e.
    a set of items never beaten from outside (runaway winners).
    """
    n = dataset.n
    if n == 1:
        return ExistenceResult(True)
    arcs = _dominance_arcs(dataset)
    if arcs.size == 0:
        return ExistenceResult(False, tuple(range(n)))
    sink = _sink_component(arcs, n)
    return ExistenceResult(True) if sink is None else ExistenceResult(False, tuple(sink.tolist()))


def existence_check_bruteforce(dataset: Dataset) -> bool:
    """Oracle: scan all proper subsets for a missing cross-dominance (n <= ~16)."""
    n = dataset.n
    beats = set()
    for obs in dataset.observations:
        beats.update(full_breaking(obs))
    items = range(n)
    for size in range(1, n):
        for u in itertools.combinations(items, size):
            u_set = set(u)
            if not any(w in u_set and l not in u_set for (w, l) in beats):
                return False
    return True


def _mm_step(u, wins, v, lose):
    """MM: exp(u_k) <- W_k / (V_k + L_k), the wins over the sum of 1/S_j(old)
    across every observed stage j that k takes part in."""
    # scale of the scores is e^{-max u}; fold it back so u keeps its gauge
    return np.log(wins) - np.log(v + lose) + u.max()


def _newman_step(u, wins, v, lose):
    """Newman: exp(u_k) <- sum over stages k wins of (1 - a_k/S_j) / sum over
    stages k is chosen against of 1/S_j = (W - a V) / L; not finite where
    rounding leaves W - a V <= 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(wins - np.exp(u - u.max()) * v) - np.log(lose) + u.max()


def _mm_marginal_sweep(u, groups):
    """One MM sweep; returns new utilities."""
    _, v, lose = _marginal_pass(u, groups, work := {})
    return _mm_step(u, work["wins"], v, lose)


def _mm_fit(effective: Dataset, groups, kind: str, y_override, config: FitConfig | None) -> FitResult:
    """Fixed-point fit on the engine groups of ``effective`` (its rankings, or
    its broken pairs for the QMLE), after the existence check. An iterate is
    Newman's candidate if that is finite, its score sup-norm is below the
    larger of the current and previous iterates' (the largest residual may
    move between items), and it does not overshoot: its score lies nearer to
    zero than to minus the current score (Newman's step flips the utility
    difference of two items that mostly meet each other). Else one MM step."""
    config = config or FitConfig()
    ok = existence_check(effective)
    if not ok:
        raise NonexistenceError(ok.failing_partition)
    n_obs, work = len(effective), {}

    def evaluate(u):  # (u, score, V, L)
        return (u, *_marginal_pass(u, groups, work))

    def sup(score):
        return float(np.abs(score).max()) / n_obs

    state = evaluate(_initial(config, effective.n))
    wins = work["wins"]
    iterations, previous = 0, sup(state[1])
    while (current := sup(state[1])) > config.tol_grad_inf and iterations < config.max_iter:
        u, score, v, lose = state
        iterations += 1
        step = _newman_step(u, wins, v, lose)
        state = evaluate(center(step)) if np.isfinite(step).all() else None
        if state is None or not sup(state[1]) < min(max(current, previous), sup(state[1] + score)):
            state = evaluate(center(_mm_step(u, wins, v, lose)))
        previous = current
    u, grad_inf = state[0], sup(state[1])
    return FitResult(
        estimate=u,
        estimator=kind,
        final_log_lik=_marginal_loglik_from_groups(u, groups),
        iterations=iterations,
        converged=grad_inf <= config.tol_grad_inf,
        final_grad_inf=grad_inf,
        y_override=y_override,
    )


def fit_marginal_mle(dataset: Dataset, y_override=None, config: FitConfig | None = None) -> FitResult:
    """Marginal MLE by the fixed-point loop; covers full (y=m), choice-one,
    choice-two and per-observation cutoffs.

    ``y_override``: None keeps stored cutoffs, an integer sets y = min(y, m),
    "full" sets y = m; the result's kind is the marginal kind of
    :data:`ESTIMATOR_CUTOFFS` with that cutoff ("marginal" if none). Raises
    :class:`NonexistenceError` when the maximizer does not exist. The
    returned estimate satisfies the per-item estimating equations to the
    configured tolerance when converged.
    """
    effective = dataset if y_override is None else dataset.with_cutoff(y_override)
    kind = next((k for k, y in ESTIMATOR_CUTOFFS.items() if y is not None and y == y_override), "marginal")
    return _mm_fit(effective, grouped_rankings(effective), kind, y_override, config)


def fit_qmle(dataset: Dataset, config: FitConfig | None = None) -> FitResult:
    """QMLE: the fixed-point loop on the fully broken pairwise outcomes (the
    engine's (2, 1) broken-pairs group, where Newman's step is his
    Bradley-Terry iteration).

    The returned estimate matches observed and expected ranks per item
    (rank-matching estimating equations) to the configured tolerance.
    """
    return _mm_fit(dataset, _pair_block(dataset), "qmle", None, config)


def fit(dataset: Dataset, estimator: str, config: FitConfig | None = None) -> FitResult:
    """Fit an estimator kind ("full", "marginal", "choice1", "choice2",
    "qmle") at its cutoff from :data:`ESTIMATOR_CUTOFFS`."""
    effective = apply_estimator_cutoff(dataset, estimator)
    if estimator == "qmle":
        return fit_qmle(effective, config)
    y = ESTIMATOR_CUTOFFS[estimator]
    return _mm_fit(effective, grouped_rankings(effective), estimator, y, config)


def _initial(config: FitConfig, n: int) -> np.ndarray:
    if config.initial is None:
        return np.zeros(n)
    return center(check_utilities(config.initial, n))
