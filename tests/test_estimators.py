import itertools
import math
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.sparse.csgraph import connected_components
from strategies import cutoff_datasets

from plrank import (
    ESTIMATOR_CUTOFFS,
    ESTIMATOR_KINDS,
    Dataset,
    FitConfig,
    NonexistenceError,
    Observation,
    apply_estimator_cutoff,
    batch_marginal_inverse_variance,
    batch_qmle_inverse_variance,
    center,
    estimators,
    existence_check,
    expected_marginal_hessian,
    fit,
    fit_marginal_mle,
    fit_qmle,
    marginal_log_likelihood,
    marginal_score,
    quasi_hessian,
    quasi_log_likelihood,
    quasi_score,
    sample_rankings,
    sample_uniform_edges,
    spectral_diagnostics,
    standard_errors,
)
from plrank.estimators import _mm_marginal_sweep, existence_check_bruteforce
from plrank.likelihood import _marginal_loglik_from_groups, _pair_block
from plrank.model import SWEEP_ROUNDS, _dominance_arcs, _reaches_all, broken_pairs, grouped_rankings

TIGHT = FitConfig(tol_grad_inf=1e-12, max_iter=20000)


def random_connected_dataset(rng, n, extra_edges, sizes=(2, 3, 4)):
    edges = [tuple(sorted((k, (k + 1) % n))) for k in range(n)]
    for _ in range(extra_edges):
        m = int(rng.choice(sizes))
        edges.append(tuple(sorted(rng.choice(n, size=m, replace=False).tolist())))
    u_star = center(rng.uniform(-0.5, 0.5, n))
    return sample_rankings(u_star, edges, rng)


def bradley_terry_mm(ds, u):
    """The textbook Bradley-Terry MM iterate on the broken pairs (unshifted)."""
    pairs = broken_pairs(ds)
    wins = np.bincount(pairs[:, 0], minlength=ds.n).astype(float)
    s = np.exp(u)
    inv = 1.0 / (s[pairs[:, 0]] + s[pairs[:, 1]])
    denom = np.zeros(ds.n)
    np.add.at(denom, pairs[:, 0], inv)
    np.add.at(denom, pairs[:, 1], inv)
    return center(np.log(wins) - np.log(denom))


def bradley_terry_newman(ds, u):
    """The textbook Newman iterate on the broken pairs (unshifted):
    pi_i <- sum_j w_ij pi_j / (pi_i + pi_j) / sum_j w_ji / (pi_i + pi_j)."""
    pairs = broken_pairs(ds)
    s = np.exp(u)
    inv = 1.0 / (s[pairs[:, 0]] + s[pairs[:, 1]])
    num = np.bincount(pairs[:, 0], s[pairs[:, 1]] * inv, minlength=ds.n)
    den = np.bincount(pairs[:, 1], inv, minlength=ds.n)
    return center(np.log(num) - np.log(den))


def normalized_score(u, effective, kind):
    score = quasi_score if kind == "qmle" else marginal_score
    return float(np.abs(score(u, effective)).max()) / len(effective)


def mm_sweeps(ds, kind, tol, max_sweeps=20000):
    """MM alone from u = 0 until the normalized score sup-norm is at most
    ``tol``: (utilities, sweeps)."""
    effective = apply_estimator_cutoff(ds, kind)
    groups = _pair_block(effective) if kind == "qmle" else grouped_rankings(effective)
    u = np.zeros(ds.n)
    for sweeps in range(max_sweeps):
        if normalized_score(u, effective, kind) <= tol:
            return u, sweeps
        u = center(_mm_marginal_sweep(u, groups))
    raise AssertionError(f"MM did not reach {tol} in {max_sweeps} sweeps")


def with_reversal(ds):
    """``ds`` plus a full ranking and its reverse, so that every item wins and
    loses: the QMLE and the full MLE exist."""
    both = [Observation(tuple(range(ds.n))), Observation(tuple(range(ds.n))[::-1])]
    return Dataset(ds.n, ds.observations + both)


class TestExistence:
    def test_two_item_cycle(self):
        ds = Dataset(2, [Observation((0, 1)), Observation((1, 0))])
        assert existence_check(ds).exists

    def test_all_winner_fails_with_partition(self):
        ds = Dataset(3, [Observation((0, 1)), Observation((0, 2)), Observation((1, 2)), Observation((2, 1))])
        res = existence_check(ds)
        assert not res.exists
        assert res.failing_partition == (0,)

    def test_cyclic_four(self):
        ds = Dataset(4, [Observation((0, 1)), Observation((1, 2)), Observation((2, 3)), Observation((3, 0))])
        res = existence_check(ds)
        assert res.exists
        # brute-force scan over all 14 proper subsets agrees
        assert existence_check_bruteforce(ds)

    def test_cutoff_changes_existence(self):
        # with full rankings item 2 beats someone; at top-1 only it never wins
        ds = Dataset(3, [Observation((0, 1, 2)), Observation((1, 2, 0)), Observation((2, 0, 1))])
        assert existence_check(ds).exists
        assert existence_check(ds.with_cutoff(1)).exists  # each item wins once here
        ds2 = Dataset(3, [Observation((0, 1, 2)), Observation((0, 2, 1)), Observation((1, 2, 0))])
        assert existence_check(ds2).exists
        assert not existence_check(ds2.with_cutoff(1)).exists

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_bruteforce_on_random_small(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(3, 8))
        edges = [
            tuple(sorted(rng.choice(n, size=int(rng.integers(2, min(4, n) + 1)), replace=False).tolist()))
            for _ in range(int(rng.integers(2, 9)))
        ]
        ds = sample_rankings(center(rng.normal(size=n)), edges, rng)
        ds = Dataset(n, [o.with_cutoff(int(rng.integers(1, o.m + 1))) for o in ds.observations])
        assert existence_check(ds).exists == existence_check_bruteforce(ds)

    def test_empty_dataset(self):
        assert not existence_check(Dataset(3, [])).exists


def _closure(n, arcs):
    """Reachability (n, n) along loser -> winner arcs, reflexive."""
    reach = np.eye(n, dtype=bool)
    reach[arcs[:, 0], arcs[:, 1]] = True
    while True:
        step = (reach.astype(int) @ reach.astype(int)) > 0
        if (step == reach).all():
            return reach
        reach = step


def _strongly_connected(ds):
    """csgraph's verdict on the loser -> winner digraph of every broken pair."""
    pairs = broken_pairs(ds)
    adj = sp.coo_matrix((np.ones(len(pairs)), (pairs[:, 1], pairs[:, 0])), shape=(ds.n, ds.n))
    return connected_components(adj, directed=True, connection="strong")[0] == 1


class TestStrongConnectivitySweep:
    @settings(max_examples=300, deadline=None)
    @given(cutoff_datasets(max_items=8, max_obs=12))
    def test_sweeps_and_check_match_csgraph(self, ds):
        # n <= 8 needs at most 7 rounds, so the sweeps decide without the cap
        arcs, expected = _dominance_arcs(ds), _strongly_connected(ds)
        assert (_reaches_all(arcs, ds.n) and _reaches_all(arcs[:, ::-1], ds.n)) == expected
        assert existence_check(ds).exists == expected

    def test_unreached_items(self):
        ds = Dataset(4, [Observation((0, 1)), Observation((1, 0)), Observation((0, 1, 2))])
        assert not _reaches_all(_dominance_arcs(ds), 4)
        assert not existence_check(ds).exists

    def test_cycle_longer_than_round_cap_takes_csgraph(self):
        n = SWEEP_ROUNDS + 6
        cycle = Dataset(n, [Observation(((k + 1) % n, k)) for k in range(n)])  # arcs k -> k + 1
        assert not _reaches_all(_dominance_arcs(cycle), n)  # the rounds run out before item n - 1
        assert existence_check(cycle).exists
        path = Dataset(n, [Observation((k + 1, k)) for k in range(n - 1)])
        res = existence_check(path)
        assert not res.exists and res.failing_partition == (n - 1,)


class TestDominanceArcs:
    @settings(max_examples=200, deadline=None)
    @given(cutoff_datasets())
    def test_same_reachability_as_broken_pairs(self, ds):
        arcs, pairs = _dominance_arcs(ds), broken_pairs(ds)
        assert len(arcs) == sum(o.m - 1 for o in ds.observations)
        assert set(map(tuple, arcs.tolist())) <= set(map(tuple, pairs[:, ::-1].tolist()))
        np.testing.assert_array_equal(_closure(ds.n, arcs), _closure(ds.n, pairs[:, ::-1]))

    @settings(max_examples=200, deadline=None)
    @given(cutoff_datasets())
    def test_failing_partition_is_never_beaten_from_outside(self, ds):
        res = existence_check(ds)
        assert res.exists == existence_check_bruteforce(ds)
        if not res.exists:
            inside = np.isin(np.arange(ds.n), res.failing_partition)
            for arcs in (_dominance_arcs(ds), broken_pairs(ds)[:, ::-1]):
                assert not (inside[arcs[:, 0]] & ~inside[arcs[:, 1]]).any()


class TestClosedForms:
    def test_two_item_win_ratio(self):
        ds = Dataset(2, [Observation((0, 1))] * 3 + [Observation((1, 0))])
        res = fit_marginal_mle(ds, "full", TIGHT)
        want = np.array([math.log(3.0) / 2, -math.log(3.0) / 2])
        assert np.max(np.abs(res.estimate - want)) < 1e-8
        assert res.converged and res.estimator == "full"

    def test_symmetric_triple_data(self):
        ds = Dataset(3, [Observation(p) for p in itertools.permutations(range(3))])
        for res in (fit_marginal_mle(ds, "full", TIGHT), fit_qmle(ds, TIGHT)):
            assert np.max(np.abs(res.estimate)) < 1e-8

    def test_qmle_equals_mle_on_pairwise(self):
        rng = np.random.default_rng(61)
        ds = random_connected_dataset(rng, 5, 15, sizes=(2,))
        a = fit_marginal_mle(ds, None, TIGHT)
        b = fit_qmle(ds, TIGHT)
        assert np.max(np.abs(a.estimate - b.estimate)) < 1e-8


class TestAgainstGenericOptimizer:
    def test_marginal(self):
        rng = np.random.default_rng(62)
        ds = random_connected_dataset(rng, 5, 12, sizes=(2, 3, 4))
        res = fit_marginal_mle(ds, None, TIGHT)
        opt = minimize(
            lambda v: -marginal_log_likelihood(v, ds),
            np.zeros(5),
            method="L-BFGS-B",
            options={"gtol": 1e-12, "ftol": 1e-15, "maxiter": 5000},
        )
        assert np.max(np.abs(res.estimate - center(opt.x))) < 1e-5

    def test_qmle(self):
        rng = np.random.default_rng(63)
        ds = random_connected_dataset(rng, 5, 12, sizes=(3, 4))
        res = fit_qmle(ds, TIGHT)
        opt = minimize(
            lambda v: -quasi_log_likelihood(v, ds),
            np.zeros(5),
            method="L-BFGS-B",
            options={"gtol": 1e-12, "ftol": 1e-15, "maxiter": 5000},
        )
        assert np.max(np.abs(res.estimate - center(opt.x))) < 1e-5


class TestEstimatingEquations:
    def test_marginal_per_item_residuals(self, small_dataset):
        _, ds = small_dataset
        res = fit_marginal_mle(ds, None, FitConfig(tol_grad_inf=1e-9))
        residual = marginal_score(res.estimate, ds) / ds.degrees()
        assert np.max(np.abs(residual)) < 1e-6

    def test_qmle_rank_matching(self, small_dataset):
        # observed minus expected rank, averaged per item, vanishes at the fit
        _, ds = small_dataset
        res = fit_qmle(ds, FitConfig(tol_grad_inf=1e-9))
        residual = quasi_score(res.estimate, ds) / ds.degrees()
        assert np.max(np.abs(residual)) < 1e-6

    def test_choice_cutoffs_respected(self, small_dataset):
        _, ds = small_dataset
        res = fit_marginal_mle(ds, 2, FitConfig(tol_grad_inf=1e-9))
        truncated = ds.with_cutoff(2)
        residual = marginal_score(res.estimate, truncated) / truncated.degrees()
        assert np.max(np.abs(residual)) < 1e-6
        assert res.estimator == "choice2"


class TestMMBehavior:
    def test_marginal_sweep_monotone(self, small_dataset, mixed_cutoff_dataset):
        for _, ds in (small_dataset, mixed_cutoff_dataset):
            groups = grouped_rankings(ds)
            u = np.zeros(ds.n)
            prev = _marginal_loglik_from_groups(u, groups)
            for _ in range(60):
                u = center(_mm_marginal_sweep(u, groups))
                cur = _marginal_loglik_from_groups(u, groups)
                assert cur >= prev - 1e-10
                prev = cur

    def test_qmle_sweep_monotone(self, small_dataset):
        _, ds = small_dataset
        u = np.zeros(ds.n)
        prev = quasi_log_likelihood(u, ds)
        for _ in range(60):
            u = bradley_terry_mm(ds, u)
            cur = quasi_log_likelihood(u, ds)
            assert cur >= prev - 1e-10
            prev = cur

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_qmle_is_bradley_terry_newman(self, data):
        ds = with_reversal(data.draw(cutoff_datasets()))
        with mock.patch.object(estimators, "_mm_step", wraps=estimators._mm_step) as mm_step:
            res = fit(ds, "qmle")
        assume(mm_step.call_count == 0)  # the MM fallback never fired
        u = np.zeros(ds.n)
        for _ in range(res.iterations):
            u = bradley_terry_newman(ds.with_cutoff("full"), u)
        assert res.converged
        np.testing.assert_allclose(res.estimate, u, rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_kinds_agree_with_tight_mm(self, data):
        ds = with_reversal(data.draw(cutoff_datasets()))
        for kind in ESTIMATOR_KINDS:
            if not existence_check(apply_estimator_cutoff(ds, kind)):
                continue
            want, _ = mm_sweeps(ds, kind, tol=1e-12)
            res = fit(ds, kind, TIGHT)
            assert res.converged
            np.testing.assert_allclose(res.estimate, want, rtol=0, atol=1e-7)

    @pytest.mark.parametrize("kind", ["qmle", "full", "choice2"])
    @pytest.mark.parametrize(
        "candidate",
        [lambda u: np.full_like(u, np.nan), lambda u: u + 30.0 * np.arange(u.shape[0])],
        ids=["nan", "far"],
    )
    def test_rejected_newman_step_falls_back_to_mm(self, small_dataset, kind, candidate, monkeypatch):
        # a Newman candidate that is not finite, or whose score is far larger,
        # never lowers the sup-norm: every iterate must be the MM step
        _, ds = small_dataset
        monkeypatch.setattr(estimators, "_newman_step", lambda u, *rest: candidate(u))
        res = fit(ds, kind)
        want, sweeps = mm_sweeps(ds, kind, tol=FitConfig().tol_grad_inf)
        assert res.converged and res.iterations == sweeps
        np.testing.assert_array_equal(res.estimate, want)

    def test_overshooting_newman_step_is_damped(self):
        # Newman's step flips the utility difference of items 0 and 1 here, and
        # the score sup-norm falls by under 1 % per flip: accepting every step
        # that lowers it takes over 1,300 iterations, MM alone 22 sweeps
        pairs = [Observation((1, 0)), Observation((1, 2))]
        ds = Dataset(3, pairs + [Observation((0, 1, 2)), Observation((2, 1, 0))])
        res = fit(ds, "full")
        _, sweeps = mm_sweeps(ds, "full", tol=FitConfig().tol_grad_inf)
        assert res.converged and res.iterations <= sweeps

    def test_heterogeneous_utilities_converge_fast(self):
        # sd(u) = 4 at n = 200 with 3-6-way edges drawn by numpy alone: MM needs
        # 4,666 (qmle) and 1,382 (full) sweeps on this seed, and requiring every
        # Newman step to lower the current sup-norm takes 218 QMLE iterations
        rng = np.random.default_rng(11)
        n = 200
        u_star = center(rng.normal(0.0, 4.0, n))
        edges = [tuple(rng.choice(n, int(m), replace=False).tolist()) for m in rng.integers(3, 7, 3000)]
        ds = sample_rankings(u_star, edges, rng)
        for kind in ("qmle", "full"):
            res = fit(ds, kind)
            assert res.converged and res.iterations <= 100
            assert normalized_score(res.estimate, apply_estimator_cutoff(ds, kind), kind) <= 1e-8
            with mock.patch.object(estimators, "_newman_step", lambda u, *rest: np.full_like(u, np.nan)):
                assert not fit(ds, kind, FitConfig(max_iter=1000)).converged

    def test_initialization_invariance(self, small_dataset):
        _, ds = small_dataset
        rng = np.random.default_rng(64)
        baseline = fit_marginal_mle(ds, None, FitConfig(tol_grad_inf=1e-11, max_iter=20000))
        baseline_q = fit_qmle(ds, FitConfig(tol_grad_inf=1e-11, max_iter=20000))
        for _ in range(5):
            init = rng.normal(size=ds.n)
            cfg = FitConfig(tol_grad_inf=1e-11, max_iter=20000, initial=init)
            assert np.max(np.abs(fit_marginal_mle(ds, None, cfg).estimate - baseline.estimate)) < 1e-6
            assert np.max(np.abs(fit_qmle(ds, cfg).estimate - baseline_q.estimate)) < 1e-6

    def test_label_equivariance(self, small_dataset):
        _, ds = small_dataset
        rng = np.random.default_rng(65)
        perm = rng.permutation(ds.n)
        relabeled = Dataset(ds.n, [Observation(tuple(int(perm[k]) for k in o.ranking), o.cutoff) for o in ds.observations])
        for maker in (lambda d: fit_marginal_mle(d, None, TIGHT), lambda d: fit_qmle(d, TIGHT)):
            a = maker(ds).estimate
            b = maker(relabeled).estimate
            assert np.max(np.abs(b[perm] - a)) < 1e-10

    def test_estimate_is_identified(self, small_dataset):
        _, ds = small_dataset
        for res in (fit_marginal_mle(ds, None), fit_qmle(ds)):
            assert abs(res.estimate.sum()) < 1e-9

    def test_nonexistence_raises(self):
        ds = Dataset(3, [Observation((0, 1)), Observation((0, 2)), Observation((1, 2)), Observation((2, 1))])
        with pytest.raises(NonexistenceError) as err:
            fit_marginal_mle(ds, "full")
        assert err.value.partition == [0]
        with pytest.raises(NonexistenceError):
            fit_qmle(ds)

    def test_nonexistence_message_is_short(self):
        # items 0..29 each beat item 30 and form a cycle among themselves
        obs = [Observation((k, 30)) for k in range(30)] + [Observation((k, (k + 1) % 30)) for k in range(30)]
        with pytest.raises(NonexistenceError) as err:
            fit_qmle(Dataset(31, obs))
        assert err.value.partition == list(range(30))
        message = str(err.value)
        assert "items [0, 1, 2" in message and "19, ...] (30 in all)" in message and "20" not in message
        assert len(message) < 150

    def test_non_convergence_flagged(self, small_dataset):
        _, ds = small_dataset
        res = fit_marginal_mle(ds, None, FitConfig(tol_grad_inf=1e-13, max_iter=2))
        assert not res.converged
        assert res.iterations == 2

    def test_dispatch(self, small_dataset):
        _, ds = small_dataset
        assert fit(ds, "choice1").estimator == "choice1"
        assert fit(ds, "qmle").estimator == "qmle"
        assert fit(ds, "full").estimator == "full"
        with pytest.raises(ValueError):
            fit(ds, "nope")

    def test_result_round_trip(self, small_dataset):
        from plrank import FitResult

        _, ds = small_dataset
        res = fit(ds, "choice2")
        back = FitResult.from_dict(res.to_dict())
        assert np.array_equal(back.estimate, res.estimate)
        assert back.estimator == res.estimator and back.y_override == res.y_override


class TestEstimatorTable:
    """fit, standard_errors and spectral_diagnostics take each kind's cutoff
    from the one table, ESTIMATOR_CUTOFFS."""

    @staticmethod
    def _check_kind(ds, kind, spectral=True):
        y = ESTIMATOR_CUTOFFS[kind]
        effective = ds if y is None else ds.with_cutoff(y)
        fitted = fit(ds, kind)
        # the other fit entries get the stored dataset and read the table themselves
        if kind == "qmle":
            reference = fit_qmle(ds)
            rho2, cost = batch_qmle_inverse_variance(fitted.estimate, effective)
            neg_hessian = -quasi_hessian(np.zeros(ds.n), effective).toarray()
        else:
            reference = fit_marginal_mle(ds, y)
            rho2, cost = batch_marginal_inverse_variance(fitted.estimate, effective)
            neg_hessian = -expected_marginal_hessian(np.zeros(ds.n), effective).toarray()
        assert fitted.estimator == reference.estimator == kind
        assert np.array_equal(fitted.estimate, reference.estimate)
        report = standard_errors(fitted, ds)
        assert np.array_equal(report.sigma, 1.0 / np.sqrt(rho2))
        assert report.theta_cost == cost
        assert np.array_equal(report.n_k, effective.degrees())
        if not spectral:
            return
        inv_sqrt = 1.0 / np.sqrt(np.diag(neg_hessian))
        want = np.linalg.eigvalsh(neg_hessian * inv_sqrt[:, None] * inv_sqrt[None, :])
        got = spectral_diagnostics(ds, estimator=kind, leave_one_out=False).eigenvalues
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.fixture
    def stored_cutoffs(self, small_dataset):
        _, ds = small_dataset
        ds = Dataset(ds.n, [o.with_cutoff(2 + i % 3) for i, o in enumerate(ds.observations)])
        assert any(o.cutoff < o.m for o in ds.observations)
        return ds

    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    def test_kind_uses_table_cutoff(self, stored_cutoffs, kind):
        self._check_kind(stored_cutoffs, kind)

    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    def test_changed_table_entry_moves_every_consumer(self, stored_cutoffs, kind, monkeypatch):
        monkeypatch.setitem(estimators.ESTIMATOR_CUTOFFS, kind, 3)
        # the QMLE's expected Hessian (Bradley-Terry weights on every pair of
        # an edge) is defined for full rankings only
        self._check_kind(stored_cutoffs, kind, spectral=kind != "qmle")

    @pytest.mark.parametrize("entry, kind", [
        (fit_qmle, "qmle"),
        (lambda ds: fit_marginal_mle(ds, "full"), "full"),
        (lambda ds: fit_marginal_mle(ds, 1), "choice1"),
        (lambda ds: fit_marginal_mle(ds, 2), "choice2"),
    ], ids=["qmle", "full", "choice1", "choice2"])
    @pytest.mark.parametrize("seed, n, m, races, cutoff", [(0, 20, 5, 400, 2), (3, 30, 4, 120, 1)], ids=["top2", "top1"])
    def test_every_fit_entry_agrees_with_fit_on_truncated_data(self, entry, kind, seed, n, m, races, cutoff):
        rng = np.random.default_rng(seed)
        u = center(rng.normal(size=n))
        ds = sample_rankings(u, sample_uniform_edges(range(n), m, races, rng), rng, cutoff=cutoff)
        try:
            want = fit(ds, kind)
        except NonexistenceError as err:  # choice1 and choice2 on the top-1 data
            with pytest.raises(NonexistenceError) as again:
                entry(ds)
            assert again.value.partition == err.partition
            return
        got = entry(ds)
        assert got.estimator == want.estimator == kind and got.y_override == want.y_override
        assert np.array_equal(got.estimate, want.estimate)
        assert (got.iterations, got.final_log_lik) == (want.iterations, want.final_log_lik)
