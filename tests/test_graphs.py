import hashlib
import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import edge_sharing_ratio_reference, expected_neg_hessian_loop, leave_one_out_gap_rebuild, shared_edges_reference
from scipy.sparse.csgraph import connected_components
from scipy.stats import chi2, ks_2samp
from strategies import cutoff_datasets, edge_lists, subset_draws, utilities

from plrank import (
    BlockModelConfig,
    CapExceededError,
    ESTIMATOR_KINDS,
    Dataset,
    EdgeSizeRule,
    IsolatedVertexError,
    Observation,
    RandomHypergraphConfig,
    boundary_edges,
    center,
    degree_stats,
    edge_sharing_ratio,
    expansion_chain_bound,
    expected_marginal_hessian,
    graph_diagnostics,
    is_connected,
    modified_cheeger,
    sample_block_model,
    sample_distinct_edges,
    sample_random_hypergraph,
    shared_edges,
    spectral_diagnostics,
)
from plrank.graphs import _eligible_count, _random_subsets, chain_score, enumerate_admissible_chains, modified_cheeger_bruteforce, sample_uniform_edges
from plrank.harness import resolve_design, sample_design_edges
from plrank.model import SWEEP_ROUNDS


def constant_config(n, m, p):
    return RandomHypergraphConfig(n=n, rules=(EdgeSizeRule(m=m, mode="constant", p=p),))


class TestGenerators:
    def test_zero_probability_empty(self):
        rng = np.random.default_rng(0)
        cfg = RandomHypergraphConfig(4, (EdgeSizeRule(2, "constant", p=0.0), EdgeSizeRule(3, "constant", p=0.0)))
        assert sample_random_hypergraph(cfg, rng) == []

    def test_probability_one_gives_complete_graph(self):
        rng = np.random.default_rng(1)
        edges = sample_random_hypergraph(constant_config(4, 2, 1.0), rng)
        assert sorted(edges) == sorted(itertools.combinations(range(4), 2))

    def test_binomial_edge_count_moments(self):
        rng = np.random.default_rng(2)
        n, m, p, draws = 20, 3, 0.3, 2000
        total = math.comb(n, m)
        counts = [len(sample_random_hypergraph(constant_config(n, m, p), rng)) for _ in range(draws)]
        se = math.sqrt(total * p * (1 - p) / draws)
        assert abs(np.mean(counts) - p * total) < 3 * se

    def test_fixed_count_mode(self):
        rng = np.random.default_rng(3)
        cfg = RandomHypergraphConfig(10, (EdgeSizeRule(3, "fixed", count=25),))
        edges = sample_random_hypergraph(cfg, rng)
        assert len(edges) == 25
        assert len(set(edges)) == 25
        assert all(len(e) == 3 and list(e) == sorted(e) for e in edges)

    def test_nonuniform_mode(self):
        """A candidate whose probability is uniform on [p, q] is included with
        probability (p + q) / 2: the edge count is Binomial(C(n, m), (p + q) / 2)."""
        cfg = RandomHypergraphConfig(12, (EdgeSizeRule(3, "uniform", p=0.1, q=0.5),))
        draws = [sample_random_hypergraph(cfg, np.random.default_rng(seed)) for seed in range(400)]
        assert all(len(set(edges)) == len(edges) and all(len(e) == 3 for e in edges) for edges in draws)
        counts = np.array([len(edges) for edges in draws])
        mean, var = math.comb(12, 3) * 0.3, math.comb(12, 3) * 0.3 * 0.7
        assert abs(counts.mean() - mean) < 4 * math.sqrt(var / len(counts))
        assert abs(counts.var(ddof=1) - var) < 4 * var * math.sqrt(2 / (len(counts) - 1))
        # C(300, 4) ~ 3.3e8 candidates are never enumerated; ~33 edges are expected
        big = RandomHypergraphConfig(300, (EdgeSizeRule(4, "uniform", p=0.0, q=2e-7),))
        assert 0 < len(sample_random_hypergraph(big, np.random.default_rng(4))) < 100

    def test_determinism(self):
        cfg = RandomHypergraphConfig(
            15, (EdgeSizeRule(2, "constant", p=0.2), EdgeSizeRule(4, "fixed", count=12))
        )
        a = sample_random_hypergraph(cfg, np.random.default_rng(77))
        b = sample_random_hypergraph(cfg, np.random.default_rng(77))
        assert a == b
        block = BlockModelConfig(m=3, community_sizes=(5, 7), omega_within=(0.2, 0.1), omega_cross=0.05)
        xa = sample_block_model(block, np.random.default_rng(78))
        xb = sample_block_model(block, np.random.default_rng(78))
        assert xa == xb

    def test_distinct_edges_exhausts_support(self):
        rng = np.random.default_rng(5)
        edges = sample_distinct_edges(range(5), 2, 10, rng)
        assert sorted(edges) == sorted(itertools.combinations(range(5), 2))
        with pytest.raises(ValueError):
            sample_distinct_edges(range(5), 2, 11, rng)


class TestEdgeSampler:
    def test_uniform_over_all_subsets(self):
        combos = list(itertools.combinations(range(6), 3))
        rows = _random_subsets(np.arange(6), 3, 200_000, np.random.default_rng(5))
        codes = (1 << rows).sum(axis=1)
        counts = np.array([np.count_nonzero(codes == sum(1 << v for v in c)) for c in combos])
        assert counts.sum() == 200_000
        stat = ((counts - 10_000) ** 2 / 10_000).sum()
        assert chi2.sf(stat, len(combos) - 1) > 1e-3, stat

    def test_all_items_and_single_items(self):
        rng = np.random.default_rng(6)
        items = np.array([9, 2, 7, 4])
        np.testing.assert_array_equal(_random_subsets(items, 4, 5, rng), np.tile([2, 4, 7, 9], (5, 1)))
        singles = _random_subsets(items, 1, 40_000, rng)
        assert singles.shape == (40_000, 1)
        freq = np.array([np.count_nonzero(singles == v) for v in items]) / 40_000
        np.testing.assert_allclose(freq, 0.25, atol=0.01)

    def test_non_contiguous_items(self):
        items = np.arange(40, 47)  # a community's labels
        rows = _random_subsets(items, 3, 70_000, np.random.default_rng(7))
        assert rows.min() >= 40 and rows.max() <= 46
        freq = np.bincount(rows.ravel() - 40, minlength=7) / 70_000
        np.testing.assert_allclose(freq, 3 / 7, atol=0.01)

    @settings(max_examples=200, deadline=None)
    @given(subset_draws())
    def test_rows_are_sorted_distinct_subsets(self, draw):
        items, m, batch, seed = draw
        rows = _random_subsets(items, m, batch, np.random.default_rng(seed))
        assert rows.shape == (batch, m)
        assert np.isin(rows, items).all()
        assert (np.diff(rows, axis=1) > 0).all()

    def test_memory_is_batch_by_m(self):
        # memory must scale with batch x m: n keys per row would take 8 GB here
        rows = _random_subsets(np.arange(10**6), 5, 1000, np.random.default_rng(8))
        assert rows.shape == (1000, 5) and (np.diff(rows, axis=1) > 0).all()

    def test_too_few_eligible_raises(self):
        # communities [0, 6) and [6, 12): C(12, 3) - 2 C(6, 3) = 180 crossing triples
        rng = np.random.default_rng(9)
        bounds = (0, 6, 12)
        with pytest.raises(ValueError, match="180 eligible.*181 requested"):
            sample_distinct_edges(range(12), 3, 181, rng, crossing=bounds)
        edges = sample_distinct_edges(range(12), 3, 180, rng, crossing=bounds)
        assert len(set(edges)) == 180 and all(e[0] < 6 <= e[-1] for e in edges)
        with pytest.raises(ValueError, match="only 0 eligible"):
            sample_uniform_edges(range(12), 3, 1, rng, crossing=(0, 12))
        assert sample_uniform_edges(range(12), 3, 0, rng, crossing=(0, 12)) == []

    @pytest.mark.parametrize("draw", [
        lambda rng: sample_distinct_edges(range(12), 3, 181, rng, crossing=(0, 6, 12)),
        lambda rng: sample_distinct_edges(range(12), 3, 221, rng),
        lambda rng: sample_uniform_edges(range(12), 3, 5, rng, crossing=(0, 12)),
        lambda rng: sample_uniform_edges(range(12), 13, 5, rng),
    ])
    def test_infeasible_request_raises_before_drawing(self, draw):
        rng = np.random.default_rng(13)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            draw(rng)
        assert rng.bit_generator.state == state

    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.integers(0, 14), min_size=1, max_size=9).flatmap(lambda items: st.tuples(
        st.permutations(sorted(items)),
        st.integers(1, len(items) + 1),
        st.sets(st.integers(-2, 16), max_size=5).map(sorted),
        st.integers(0, 2**32 - 1),
    )))
    def test_eligible_count_matches_enumeration(self, case):
        items, m, bounds, seed = case
        community = {v: sum(b <= v for b in bounds) for v in items}
        crossing = [c for c in itertools.combinations(sorted(items), m) if len({community[v] for v in c}) > 1]
        assert _eligible_count(np.asarray(items), m, None) == math.comb(len(items), m)
        assert _eligible_count(np.asarray(items), m, np.asarray(bounds)) == len(crossing)
        if crossing:
            # the batch rule accepts exactly the counted subsets: 4,000 repeated draws
            # reach each of at most C(9, 4) = 126, and drawing all distinct ones yields each once
            drawn = sample_uniform_edges(items, m, 4000, np.random.default_rng(seed), crossing=np.asarray(bounds))
            assert set(drawn) == set(crossing)
            drawn = sample_distinct_edges(items, m, len(crossing), np.random.default_rng(seed), crossing=np.asarray(bounds))
            assert sorted(drawn) == crossing

    def test_every_candidate_beyond_the_count_cap(self):
        # 27,405 candidates: too many to enumerate, counted by arithmetic, so
        # the long tail of rejected duplicates never gives up
        edges = sample_distinct_edges(range(30), 4, math.comb(30, 4), np.random.default_rng(12))
        assert len(set(edges)) == math.comb(30, 4)

    @pytest.mark.parametrize("sizes", [[12], [200]])
    def test_no_crossing_edge_in_one_community(self, sizes):
        # one community leaves no crossing edge, however many items it holds
        design = {"kind": "block-typed", "m": 3, "community_sizes": sizes, "total": 5, "type_probs": [0.5, 0.5]}
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError, match="eligible size-3 edges"):
            sample_design_edges(design, sum(sizes), rng)


class TestBlockModel:
    def test_cross_probability_zero(self):
        rng = np.random.default_rng(6)
        cfg = BlockModelConfig(m=3, community_sizes=(6, 6), omega_within=(0.5, 0.5), omega_cross=0.0)
        for e in sample_block_model(cfg, rng):
            assert max(e) < 6 or min(e) >= 6

    def test_binomial_moments_per_type(self):
        rng = np.random.default_rng(7)
        n1, n2, m = 8, 12, 3
        w = (0.5, 0.3)
        cross_p = 0.2
        cfg = BlockModelConfig(m=m, community_sizes=(n1, n2), omega_within=w, omega_cross=cross_p)
        draws = 600
        within1 = within2 = cross = 0
        for _ in range(draws):
            for e in sample_block_model(cfg, rng):
                if max(e) < n1:
                    within1 += 1
                elif min(e) >= n1:
                    within2 += 1
                else:
                    cross += 1
        c1, c2 = math.comb(n1, m), math.comb(n2, m)
        c0 = math.comb(n1 + n2, m) - c1 - c2
        for seen, total, p in ((within1, c1, w[0]), (within2, c2, w[1]), (cross, c0, cross_p)):
            se = math.sqrt(total * p * (1 - p) / draws)
            assert abs(seen / draws - total * p) < 3 * se

    def test_equal_probabilities_match_uniform_model(self):
        # same inclusion law as the one-probability model: compare edge counts
        rng_a = np.random.default_rng(8)
        rng_b = np.random.default_rng(9)
        p = 0.12
        cfg_block = BlockModelConfig(m=3, community_sizes=(6, 9), omega_within=(p, p), omega_cross=p)
        counts_a = [len(sample_block_model(cfg_block, rng_a)) for _ in range(300)]
        counts_b = [len(sample_random_hypergraph(constant_config(15, 3, p), rng_b)) for _ in range(300)]
        assert ks_2samp(counts_a, counts_b).pvalue > 0.01

    def test_seeded_block_draws_are_pinned(self):
        # experiments' results.csv depend on these seeded edge lists, so a
        # change to the samplers must leave every one of them as it is
        bernoulli = BlockModelConfig(m=3, community_sizes=(5, 7), omega_within=(0.2, 0.1), omega_cross=0.05)
        typed = {"kind": "block-typed", "m": 3, "community_sizes": [4, 6, 5], "total": 60, "type_probs": [0.2, 0.3, 0.1, 0.4]}
        draws = [
            (
                sample_block_model(bernoulli, np.random.default_rng(seed)),
                sample_design_edges(typed, 15, np.random.default_rng(seed)),
                sample_design_edges(resolve_design({"recipe": "hsbm-coverage"}, 60), 60, np.random.default_rng(seed)),
                sample_design_edges(resolve_design({"recipe": "heterogeneity"}, 60), 60, np.random.default_rng(seed)),
            )
            for seed in range(3)
        ]
        assert hashlib.sha256(repr(draws).encode()).hexdigest()[:16] == "4aa7803c5f85657a"


class TestDegreeDiagnostics:
    def test_shared_edges_example(self):
        edges = [(0, 1, 2), (0, 1, 3)]
        deg, dmin, dmax = degree_stats(edges, 4)
        assert deg.tolist() == [2, 2, 1, 1]
        assert (dmin, dmax) == (1, 2)
        counts = shared_edges(edges, 4)
        assert counts[(0, 1)] == 2
        assert edge_sharing_ratio(edges, 4) == 1.0

    def test_disjoint_pairs(self):
        # co-occupants of a pairwise edge share exactly that edge: ratio 1/N_min
        assert edge_sharing_ratio([(0, 1), (2, 3)], 4) == 1.0
        assert edge_sharing_ratio([(0, 1), (0, 1), (2, 3), (2, 3)], 4) == 1.0

    def test_simple_pairwise_ratio_is_inverse_min_degree(self):
        edges = list(itertools.combinations(range(5), 2))
        deg, dmin, _ = degree_stats(edges, 5)
        assert edge_sharing_ratio(edges, 5) == pytest.approx(1.0 / dmin)

    def test_multiplicity_counts(self):
        edges = [(0, 1)] * 3 + [(1, 2)]
        deg, _, _ = degree_stats(edges, 3)
        assert deg.tolist() == [3, 4, 1]
        assert shared_edges(edges, 3)[(0, 1)] == 3

    @settings(max_examples=300, deadline=None)
    @given(edge_lists())
    def test_pair_counts_match_dict_reference(self, drawn):
        n, edges = drawn
        got = shared_edges(edges, n)
        assert got == shared_edges_reference(edges)
        assert list(got) == sorted(got)
        assert edge_sharing_ratio(edges, n) == edge_sharing_ratio_reference(edges)

    @settings(max_examples=200, deadline=None)
    @given(cutoff_datasets())
    def test_dataset_pair_counts_match_dict_reference(self, ds):
        assert shared_edges(ds, ds.n) == shared_edges_reference(ds.edges)
        assert edge_sharing_ratio(ds, ds.n) == edge_sharing_ratio_reference(ds.edges)

    def test_no_edges(self):
        for edges in ([], Dataset(3, [])):
            assert shared_edges(edges, 3) == {}
            assert edge_sharing_ratio(edges, 3) == 0.0
        assert graph_diagnostics(Dataset(3, []), spectral=False).r_ratio == 0.0

    def test_empty_edge_list_needs_n(self):
        with pytest.raises(ValueError, match="pass n"):
            degree_stats([], None)
        with pytest.raises(ValueError, match="pass n"):
            spectral_diagnostics([], n=None)

    def test_items_checked_against_n(self):
        with pytest.raises(ValueError, match="item >= n=3"):
            shared_edges([(0, 3)], 3)
        with pytest.raises(ValueError, match="item >= n=3"):
            edge_sharing_ratio([(0, 1), (2, 3)], 3)

    def test_degree_concentration(self):
        # constant-probability model, target mean degree 120: all realized
        # degrees stay within a factor-2 band across repeated draws
        rng = np.random.default_rng(11)
        n, m = 200, 3
        target = 120.0
        p = target / math.comb(n - 1, m - 1)
        cfg = constant_config(n, m, p)
        for _ in range(200):
            edges = sample_random_hypergraph(cfg, rng)
            deg, dmin, dmax = degree_stats(edges, n)
            assert dmin >= 0.5 * target
            assert dmax <= 2.0 * target


class TestBoundaryAndCheeger:
    def test_boundary_edges(self):
        edges = [(0, 1, 2), (2, 3), (3, 4)]
        assert boundary_edges(edges, {0, 1}) == [(0, 1, 2)]
        assert boundary_edges(edges, {2}) == [(0, 1, 2), (2, 3)]

    def test_single_triple_edge(self):
        assert modified_cheeger([(0, 1, 2)], 3) == pytest.approx(1.0)

    def test_disconnected_is_zero(self):
        assert modified_cheeger([(0, 1), (2, 3)], 4) == 0.0
        assert not is_connected([(0, 1), (2, 3)], 4)

    @settings(max_examples=300, deadline=None)
    @given(cutoff_datasets(max_items=10, max_obs=8))
    def test_is_connected_matches_csgraph(self, ds):
        pairs = np.array([p for e in ds.edges for p in itertools.combinations(e, 2)])
        adj = sp.coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(ds.n, ds.n))
        expected = connected_components(adj, directed=False)[0] == 1
        assert is_connected(ds, ds.n) == expected
        assert is_connected(ds.edges, ds.n) == expected

    def test_path_longer_than_round_cap_is_connected(self):
        n = SWEEP_ROUNDS + 6
        assert is_connected([(k, k + 1) for k in range(n - 1)], n)
        assert not is_connected([(k, k + 1) for k in range(n - 2)], n)

    def test_complete_graph(self):
        edges = list(itertools.combinations(range(4), 2))
        assert modified_cheeger(edges, 4) == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_bruteforce(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(3, 8))
        edges = [
            tuple(sorted(rng.choice(n, size=int(rng.integers(2, min(4, n) + 1)), replace=False).tolist()))
            for _ in range(int(rng.integers(2, 10)))
        ]
        assert modified_cheeger(edges, n) == pytest.approx(modified_cheeger_bruteforce(edges, n), abs=1e-12)

    def test_monotone_under_edge_addition(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            n = int(rng.integers(4, 12))
            base = [tuple(sorted(rng.choice(n, size=2, replace=False).tolist())) for _ in range(n)]
            extra = tuple(sorted(rng.choice(n, size=3, replace=False).tolist()))
            assert modified_cheeger(base + [extra], n) >= modified_cheeger(base, n) - 1e-15

    def test_cap(self):
        with pytest.raises(CapExceededError):
            modified_cheeger([(0, 1)], 25)


class TestSpectral:
    def test_single_pair(self):
        spec = spectral_diagnostics([(0, 1)], estimator="qmle", leave_one_out=False)
        assert np.allclose(spec.eigenvalues, [0.0, 2.0], atol=1e-12)
        assert spec.s_gap == pytest.approx(0.0, abs=1e-12)

    def test_triangle(self):
        spec = spectral_diagnostics([(0, 1), (1, 2), (0, 2)], estimator="qmle")
        assert np.allclose(np.sort(spec.eigenvalues), [0.0, 1.5, 1.5], atol=1e-9)
        assert spec.s_gap == pytest.approx(0.5, abs=1e-9)
        # removing any vertex leaves a single pairwise edge: lambda_2 = 2 * 1/4
        assert spec.lambda2_leave == pytest.approx(0.5, abs=1e-9)

    def test_zero_eigenvector_is_sqrt_degrees(self):
        rng = np.random.default_rng(13)
        edges = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 4)]
        u = center(rng.uniform(-0.5, 0.5, 5))
        lap = -expected_marginal_hessian(u, Dataset(5, [Observation(e) for e in edges])).toarray()
        d = np.sqrt(np.diag(lap))
        lsym = lap / d[:, None] / d[None, :]
        v = d / np.linalg.norm(d)
        assert np.linalg.norm(lsym @ v) < 1e-8
        eigs = np.linalg.eigvalsh(lsym)
        assert eigs[0] == pytest.approx(0.0, abs=1e-10)
        assert eigs[-1] <= 2.0 + 1e-10

    def test_shift_invariance_and_label_equivariance(self):
        rng = np.random.default_rng(14)
        edges = [(0, 1, 2), (1, 2, 3), (0, 3)]
        u = center(rng.uniform(-0.7, 0.7, 4))
        base = spectral_diagnostics(edges, u, estimator="qmle")
        shifted = spectral_diagnostics(edges, u + 3.0, estimator="qmle")
        assert base.s_gap == pytest.approx(shifted.s_gap, abs=1e-12)
        assert base.lambda2_leave == pytest.approx(shifted.lambda2_leave, abs=1e-12)
        perm = np.array([2, 0, 3, 1])
        edges_p = [tuple(sorted(int(perm[v]) for v in e)) for e in edges]
        u_p = np.empty(4)
        u_p[perm] = u
        relabeled = spectral_diagnostics(edges_p, u_p, estimator="qmle")
        assert base.s_gap == pytest.approx(relabeled.s_gap, abs=1e-10)
        assert base.lambda2_leave == pytest.approx(relabeled.lambda2_leave, abs=1e-10)

    @pytest.mark.parametrize("estimator", ["qmle", "choice1", "choice2", "full", "marginal"])
    def test_blocks_match_rebuild_per_item(self, estimator):
        rng = np.random.default_rng(15)
        n = 7
        edges = [(k, (k + 1) % n) for k in range(n)]
        edges += [tuple(rng.choice(n, size=int(m), replace=False).tolist()) for m in (3, 3, 4, 4, 5, 5, 6)]
        ds = Dataset(n, [Observation(e, int(rng.integers(1, len(e) + 1))) for e in edges])
        u = center(rng.uniform(-1.5, 1.5, n))
        spec = spectral_diagnostics(ds, u, estimator=estimator)
        lap = expected_neg_hessian_loop(ds, u, estimator)
        d = np.sqrt(np.diag(lap))
        eigs = np.linalg.eigvalsh(lap / d[:, None] / d[None, :])
        assert np.allclose(spec.eigenvalues, eigs, rtol=0, atol=1e-12)
        assert spec.s_gap == pytest.approx(min(eigs[1], 2 - eigs[-1]), rel=1e-12)
        assert spec.lambda2_leave == pytest.approx(leave_one_out_gap_rebuild(ds, u, estimator), rel=1e-12)

    @pytest.mark.parametrize("estimator", ESTIMATOR_KINDS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_downdated_gap_matches_rebuild(self, estimator, data):
        ds = data.draw(cutoff_datasets(max_items=7, max_m=5))
        u = data.draw(utilities(ds.n, bound=2.0))
        if ds.degrees().min() == 0:
            with pytest.raises(IsolatedVertexError):
                spectral_diagnostics(ds, u, estimator=estimator)
            return
        scale = np.diag(expected_neg_hessian_loop(ds, u, estimator)).max()
        got = spectral_diagnostics(ds, u, estimator=estimator).lambda2_leave
        assert got == pytest.approx(leave_one_out_gap_rebuild(ds, u, estimator), rel=1e-12, abs=1e-12 * scale)

    @pytest.mark.parametrize("estimator", ESTIMATOR_KINDS)
    def test_removing_a_cut_item_leaves_a_zero_gap(self, estimator):
        # a star's centre and a path's inner items each disconnect the rest
        rng = np.random.default_rng(16)
        star = [Observation(rng.permutation([0, k]).tolist()) for k in range(1, 6)]
        path = [Observation(rng.permutation([k, k + 1, k + 2]).tolist(), 2) for k in range(0, 8, 2)]
        for n, observations in ((6, star), (9, path)):
            ds = Dataset(n, observations)
            u = center(rng.uniform(-1.5, 1.5, n))
            scale = np.diag(expected_neg_hessian_loop(ds, u, estimator)).max()
            assert abs(spectral_diagnostics(ds, u, estimator=estimator).lambda2_leave) <= 1e-12 * scale

    def test_isolated_vertex_error(self):
        with pytest.raises(IsolatedVertexError) as err:
            spectral_diagnostics([(0, 1)], n=3)
        assert err.value.vertex == 2


class TestChainBound:
    def test_two_vertices(self):
        assert expansion_chain_bound([(0, 1)], 2) == pytest.approx(math.sqrt(math.log(2)))

    def test_complete_graph_at_least_single_step(self):
        edges = list(itertools.combinations(range(4), 2))
        h = modified_cheeger(edges, 4)
        assert expansion_chain_bound(edges, 4) >= math.sqrt(math.log(4) / h) - 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_chain_enumeration(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(3, 6))
        edges = [tuple(sorted((k, (k + 1) % n))) for k in range(n)]
        for _ in range(int(rng.integers(0, 3))):
            edges.append(tuple(sorted(rng.choice(n, size=3, replace=False).tolist())))
        best = max(chain_score(edges, n, ch) for ch in enumerate_admissible_chains(edges, n))
        assert expansion_chain_bound(edges, n) == pytest.approx(best, abs=1e-12)

    def test_nonincreasing_on_shared_chains_under_edge_addition(self):
        rng = np.random.default_rng(15)
        n = 5
        base = [tuple(sorted((k, (k + 1) % n))) for k in range(n)]
        bigger = base + [(0, 2), (1, 3, 4)]
        chains_a = set(enumerate_admissible_chains(base, n))
        chains_b = set(enumerate_admissible_chains(bigger, n))
        common = chains_a & chains_b
        assert common
        for chain in itertools.islice(common, 200):
            assert chain_score(bigger, n, chain) <= chain_score(base, n, chain) + 1e-12

    def test_disconnected_raises(self):
        with pytest.raises(ValueError, match="disconnected"):
            expansion_chain_bound([(0, 1), (2, 3)], 4)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            expansion_chain_bound([(0, 1)], 11)


class TestBundle:
    def test_graph_diagnostics_fields(self):
        edges = [(0, 1, 2), (1, 2, 3), (0, 3)]
        diag = graph_diagnostics(edges, n=4, exact_cheeger=True, chain_bound=True)
        d = diag.to_dict()
        assert d["n"] == 4 and d["n_edges"] == 3
        assert d["connected"] is True
        assert d["degree_min"] == 2 and d["degree_max"] == 2
        assert 0.0 <= d["r_ratio"] <= 1.0
        assert d["cheeger"] > 0 and d["gamma_re"] > 0
        assert d["s_gap"] is not None and d["lambda2_leave"] is not None
