import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import load_dataset_reference
from strategies import cutoff_datasets

from plrank import (
    Dataset,
    DataFormatError,
    Observation,
    broken_pairs,
    center,
    full_breaking,
    load_dataset,
    marginal_probability,
    pl_log_probability,
    sample_ranking,
    sample_rankings,
    save_dataset,
)
from plrank.model import _pairs, _triples, grouped_rankings


def test_log_probability_symmetric_pair():
    assert pl_log_probability(np.zeros(2), Observation((0, 1), 1)) == pytest.approx(math.log(0.5))


def test_log_probability_two_item_logistic():
    u = center(np.array([math.log(2.0), 0.0]))
    assert pl_log_probability(u, Observation((0, 1), 1)) == pytest.approx(math.log(2 / 3))


def test_log_probability_uniform_triple():
    for perm in itertools.permutations(range(3)):
        assert pl_log_probability(np.zeros(3), Observation(perm, 3)) == pytest.approx(math.log(1 / 6))


def test_log_probability_shift_invariant():
    rng = np.random.default_rng(0)
    u = rng.normal(size=5)
    obs = Observation((3, 0, 4, 1), 2)
    for c in (-7.3, 0.1, 25.0):
        assert abs(pl_log_probability(u, obs) - pl_log_probability(u + c, obs)) < 1e-12


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_normalization_over_all_rankings(m):
    rng = np.random.default_rng(m)
    u = rng.uniform(-1, 1, m)
    total = sum(
        math.exp(pl_log_probability(u, Observation(perm, m)))
        for perm in itertools.permutations(range(m))
    )
    assert abs(total - 1.0) < 1e-12


def test_truncated_mass_is_prefix_marginal():
    # exp(log mass at cutoff y) equals total mass of rankings sharing the prefix
    rng = np.random.default_rng(5)
    u = rng.uniform(-1, 1, 4)
    obs = Observation((2, 0, 3, 1), 2)
    direct = math.exp(pl_log_probability(u, obs))
    brute = sum(
        math.exp(pl_log_probability(u, Observation((2, 0) + rest, 4)))
        for rest in itertools.permutations((3, 1))
    )
    assert direct == pytest.approx(brute, abs=1e-14)


class TestSampler:
    def test_uniform_frequencies(self):
        rng = np.random.default_rng(7)
        counts = {}
        for _ in range(60000):
            r = sample_ranking(np.zeros(3), (0, 1, 2), rng)
            counts[r] = counts.get(r, 0) + 1
        for perm in itertools.permutations(range(3)):
            assert abs(counts[perm] / 60000 - 1 / 6) < 0.01

    def test_degenerate_favorite(self):
        rng = np.random.default_rng(8)
        u = np.array([10.0, 0.0, 0.0])
        wins = sum(sample_ranking(u, (0, 1, 2), rng)[0] == 0 for _ in range(5000))
        assert wins / 5000 >= 0.999

    def test_top_choice_matches_formula(self):
        rng = np.random.default_rng(9)
        u = center(np.array([math.log(2.0), 0.0, -math.log(2.0)]))
        p_true = math.exp(u[0]) / np.exp(u).sum()
        draws = 40000
        hits = sum(sample_ranking(u, (0, 1, 2), rng)[0] == 0 for _ in range(draws))
        se = math.sqrt(p_true * (1 - p_true) / draws)
        assert abs(hits / draws - p_true) < 3 * se

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batched_draws_equal_per_edge_draws(self, seed):
        # interleaved sizes, unsorted items: one Gumbel vector in edge order
        # consumes the stream as one sample_ranking call per edge
        rng = np.random.default_rng(100 + seed)
        u = rng.normal(size=9)
        edges = [tuple(rng.permutation(9)[: rng.integers(2, 7)].tolist()) for _ in range(40)]
        got = sample_rankings(u, edges, np.random.default_rng(seed), cutoff=2)
        per_edge = np.random.default_rng(seed)
        want = [Observation(sample_ranking(u, e, per_edge)).with_cutoff(2) for e in edges]
        assert got.observations == want

    def test_chi_square_goodness_of_fit(self):
        from scipy.stats import chi2

        rng = np.random.default_rng(10)
        u = center(np.array([0.4, -0.1, -0.3]))
        draws = 100000
        counts = {perm: 0 for perm in itertools.permutations(range(3))}
        for _ in range(draws):
            counts[sample_ranking(u, (0, 1, 2), rng)] += 1
        stat = 0.0
        for perm, seen in counts.items():
            expected = draws * math.exp(pl_log_probability(u, Observation(perm, 3)))
            stat += (seen - expected) ** 2 / expected
        assert stat < chi2.ppf(0.999, df=5)


class TestMarginalProbability:
    def test_symmetric_pair_in_triple(self):
        assert marginal_probability(np.zeros(3), (0, 1, 2), (0, 1)) == pytest.approx(0.5)

    def test_two_item_logistic_identity(self):
        # brute force over the 6 permutations reproduces the two-item value:
        # the identity that justifies treating broken pairs as pairwise games
        rng = np.random.default_rng(11)
        for _ in range(10):
            u = rng.uniform(-1.5, 1.5, 3)
            want = math.exp(u[0]) / (math.exp(u[0]) + math.exp(u[1]))
            assert marginal_probability(u, (0, 1, 2), (0, 1)) == pytest.approx(want, abs=1e-12)

    def test_full_order_equals_mass(self):
        rng = np.random.default_rng(12)
        u = rng.uniform(-1, 1, 4)
        order = (2, 0, 3, 1)
        want = math.exp(pl_log_probability(u, Observation(order, 4)))
        assert marginal_probability(u, (0, 1, 2, 3), order) == pytest.approx(want, abs=1e-14)

    @pytest.mark.parametrize("m,sub", [(3, 2), (4, 2), (4, 3), (5, 3)])
    def test_internal_consistency_vs_restricted_model(self, m, sub):
        # marginal over the big edge == PL probability on the restricted set
        rng = np.random.default_rng(100 + m + sub)
        u = rng.uniform(-1, 1, m)
        items = tuple(range(m))
        order = tuple(rng.permutation(m)[:sub].tolist())
        big = marginal_probability(u, items, order)
        small = math.exp(pl_log_probability(u, Observation(order, sub)))
        assert big == pytest.approx(small, abs=1e-12)

    def test_budget(self):
        with pytest.raises(ValueError, match="enumeration cap"):
            marginal_probability(np.zeros(9), tuple(range(9)), (0, 1))

    def test_bad_sublist(self):
        with pytest.raises(ValueError):
            marginal_probability(np.zeros(3), (0, 1, 2), (0, 0))
        with pytest.raises(ValueError):
            marginal_probability(np.zeros(4), (0, 1, 2), (0, 3))


class TestBreaking:
    def test_full_observation(self):
        assert full_breaking(Observation((2, 0, 1), 3)) == [(2, 0), (2, 1), (0, 1)]

    def test_top_one(self):
        assert full_breaking(Observation((2, 0, 1), 1)) == [(2, 0), (2, 1)]

    def test_pairwise(self):
        assert full_breaking(Observation((1, 0))) == [(1, 0)]

    def test_count_full(self):
        obs = Observation(tuple(range(5)))
        assert len(full_breaking(obs)) == 10

    @settings(max_examples=200, deadline=None)
    @given(cutoff_datasets(max_items=9, max_obs=8))
    def test_broken_pairs_concatenates_full_breaking(self, ds):
        # mixed sizes and cutoffs, interleaved so the (size, cutoff) groups
        # must be written back in observation order
        want = [list(p) for o in ds.observations for p in full_breaking(o)]
        got = broken_pairs(ds)
        assert got.dtype == np.int64 and got.shape == (len(want), 2) and got.tolist() == want
        assert broken_pairs(Dataset(3, [])).shape == (0, 2)

    @pytest.mark.parametrize("m", range(2, 15))
    def test_position_tables(self, m):
        assert np.array_equal(_pairs(m), np.column_stack(np.triu_indices(m, 1)))
        want = [(k, q, r) for k in range(m) for q, r in itertools.combinations([i for i in range(m) if i != k], 2)]
        assert _triples(m).tolist() == [list(t) for t in want]
        assert len(_triples(m)) == m * (m - 1) * (m - 2) // 2
        assert not _pairs(m).flags.writeable and not _triples(m).flags.writeable

    def test_with_cutoff_copies_only_on_change(self):
        obs = Observation((2, 0, 1), 2)
        assert obs.with_cutoff(2) is obs
        assert obs.with_cutoff(5) == Observation((2, 0, 1))
        assert obs.with_cutoff("full") == Observation((2, 0, 1))
        assert obs.with_cutoff(1) == Observation((2, 0, 1), 1)
        with pytest.raises(ValueError):
            obs.with_cutoff(0)


class TestValidation:
    def test_ties_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Observation((0, 1, 1))

    def test_cutoff_range(self):
        with pytest.raises(ValueError):
            Observation((0, 1), 0)
        with pytest.raises(ValueError):
            Observation((0, 1), 3)

    def test_singleton_edge(self):
        with pytest.raises(ValueError):
            Observation((0,))

    def test_dataset_range(self):
        with pytest.raises(ValueError):
            Dataset(2, [Observation((0, 2))])

    def test_nonfinite_utilities(self):
        with pytest.raises(ValueError):
            pl_log_probability(np.array([0.0, np.inf]), Observation((0, 1)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pl_log_probability(np.zeros(2), Observation((0, 2)))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        obs = [
            Observation((3, 0, 2), 2),
            Observation((1, 4)),
            Observation((0, 1, 2, 4), 1),
        ]
        ds = Dataset(6, obs)
        path = tmp_path / "data.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.n == 6
        assert [o.ranking for o in back.observations] == [o.ranking for o in obs]
        assert [o.cutoff for o in back.observations] == [2, 2, 1]

    def test_missing_sidecar_defaults_full(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("obs_id,rank,item\na,1,2\na,2,0\nb,1,1\nb,2,2\n")
        ds = load_dataset(path)
        assert ds.n == 3
        assert all(o.is_full for o in ds.observations)

    def test_bad_rows_reported_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("obs_id,rank,item\na,1,2\na,x,0\n")
        with pytest.raises(DataFormatError, match=":3"):
            load_dataset(path)

    def test_gapped_ranks_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("obs_id,rank,item\na,1,2\na,3,0\n")
        with pytest.raises(DataFormatError, match="not 1..m"):
            load_dataset(path)

    def test_degrees(self):
        ds = Dataset(4, [Observation((0, 1, 2)), Observation((0, 1, 3))])
        assert ds.degrees().tolist() == [2, 2, 1, 1]


def _blocks_equal(a, b):
    return list(a) == list(b) and all(
        np.array_equal(a[k][0], b[k][0]) and np.array_equal(a[k][1], b[k][1]) for k in a
    )


class TestStoredBlocks:
    @settings(max_examples=80, deadline=None)
    @given(ds=cutoff_datasets(max_obs=12))
    def test_constructor_reproduces_blocks(self, ds):
        again = Dataset(ds.n, ds.observations)
        assert _blocks_equal(grouped_rankings(again), grouped_rankings(ds))
        for idx, rankings in grouped_rankings(ds).values():
            assert np.all(np.diff(idx) > 0)
            assert not idx.flags.writeable and not rankings.flags.writeable

    @settings(max_examples=80, deadline=None)
    @given(ds=cutoff_datasets(max_obs=12))
    def test_with_cutoff_matches_observations(self, ds):
        # mixed stored cutoffs make several groups of one size merge
        for y in (1, 2, 3, 4, 5, 6, "full"):
            want = [o.with_cutoff(y) for o in ds.observations]
            got = ds.with_cutoff(y)
            assert got.observations == want
            assert _blocks_equal(grouped_rankings(got), grouped_rankings(Dataset(ds.n, want)))

    @settings(max_examples=80, deadline=None)
    @given(ds=cutoff_datasets(max_obs=12))
    def test_degrees_and_edges(self, ds):
        counts = np.zeros(ds.n, dtype=np.int64)
        for o in ds.observations:
            counts[list(o.ranking)] += 1
        assert ds.degrees().tolist() == counts.tolist()
        assert ds.edges == [tuple(sorted(o.ranking)) for o in ds.observations]
        assert len(ds) == len(ds.observations)

    def test_views_do_not_change_the_dataset(self):
        ds = Dataset(4, [Observation((2, 0, 1), 2), Observation((3, 1))])
        ds.observations.append(Observation((0, 3)))
        ds.edges.clear()
        assert len(ds) == 2 and ds.edges == [(0, 1, 2), (1, 3)]
        with pytest.raises(ValueError):
            grouped_rankings(ds)[3, 2][1][0, 0] = 3
        assert ds.with_cutoff(2) is ds and ds.with_cutoff(5) is not ds

    @pytest.mark.parametrize("n,ranking,cutoff", [
        (3, (0, 3), 2),  # item >= n
        (3, (0, -1), 2),  # negative item
        (3, (1, 2, 1), 3),  # repeated item
        (3, (1,), 1),  # 1-item edge
        (3, (1, 2), 3),  # cutoff above m
        (3, (1, 2), 0),  # cutoff below 1
    ])
    def test_block_validation_rejects_what_observations_reject(self, n, ranking, cutoff):
        with pytest.raises(ValueError) as direct:
            Dataset(n, [Observation((0, 1)), Observation(ranking, cutoff)])
        with pytest.raises(ValueError) as blocks:
            Dataset.from_blocks(n, {(2, 2): ([0], [[0, 1]]), (len(ranking), cutoff): ([1], [ranking])})
        assert str(blocks.value) == str(direct.value)

    def test_block_validation_rejects_bad_indices(self):
        with pytest.raises(ValueError, match="observation indices"):
            Dataset.from_blocks(3, {(2, 2): ([0, 2], [[0, 1], [1, 2]])})
        with pytest.raises(ValueError, match="observation indices"):
            Dataset.from_blocks(3, {(2, 2): ([0], [[0, 1]]), (2, 1): ([0], [[1, 2]])})

    def test_from_blocks_orders_groups_and_rows(self):
        ds = Dataset.from_blocks(4, {(3, 1): ([2, 1], [[3, 1, 0], [2, 0, 1]]), (2, 2): ([0], [[1, 3]])})
        assert ds.observations == [Observation((1, 3)), Observation((2, 0, 1), 1), Observation((3, 1, 0), 1)]
        assert list(grouped_rankings(ds)) == [(2, 2), (3, 1)]

    def test_save_writes_blocks_in_observation_order(self, tmp_path):
        ds = Dataset(5, [
            Observation((3, 0, 2), 2),
            Observation((1, 4)),
            Observation((0, 1, 2, 4), 1),
            Observation((4, 2, 1)),
        ])
        path = tmp_path / "data.csv"
        save_dataset(ds, path)
        rows = ["obs_id,rank,item", "0,1,3", "0,2,0", "0,3,2", "1,1,1", "1,2,4",
                "2,1,0", "2,2,1", "2,3,2", "2,4,4", "3,1,4", "3,2,2", "3,3,1"]
        assert path.read_bytes() == "".join(r + "\r\n" for r in rows).encode()
        sidecar = '{\n"cutoffs": {\n"0": 2,\n"2": 1\n},\n"n": 5\n}'
        assert (tmp_path / "data.json").read_text() == sidecar


_OBS_IDS = ("0", "1", "12", " 7", "007", "a", "b c ", "", " x y")
_BAD_CELLS = ("x", "", "1.5", " ")


@st.composite
def dataset_files(draw):
    """(CSV text, sidecar dict or None) for ``load_dataset``: integer, string
    and space-padded obs_ids, rows shuffled, blank lines, and, when ``bad``,
    bad cells, short rows, ranks that are not 1..m (also from two
    observations under one obs_id), repeated and negative items and invalid
    cutoffs. The header can reorder the columns, add one, or repeat ``item``
    (the last cell counts)."""
    bad = draw(st.booleans())
    n = draw(st.integers(2, 6))
    records, cutoffs = [], {}
    oids = draw(st.lists(st.sampled_from(_OBS_IDS), max_size=5, unique=True))
    for oid in oids:
        if bad and draw(st.integers(0, 5)) == 0:
            oid = " " + draw(st.sampled_from(oids))  # reads as an earlier obs_id
        m = draw(st.integers(1 if bad else 2, n))
        items = draw(st.permutations(range(n)))[:m]
        ranks = list(range(1, m + 1))
        if bad and draw(st.integers(0, 3)) == 0:
            slot = draw(st.integers(0, m - 1))
            flaw = draw(st.sampled_from(["rank", "repeat", "negative"]))
            if flaw == "rank":
                ranks[slot] = draw(st.integers(0, m + 1))
            else:
                items[slot] = -1 if flaw == "negative" else items[(slot + 1) % m]
        records += [{"obs_id": oid, "rank": str(r), "item": str(k)} for r, k in zip(ranks, items)]
        if draw(st.booleans()):
            valid = st.integers(1, m) | st.just(-1)
            invalid = st.sampled_from([0, m + 1, "2", 2.5, None, "x"])
            cutoffs[oid.strip()] = draw(invalid if bad and draw(st.integers(0, 3)) == 0 else valid)
    records = draw(st.permutations(records))
    header = draw(st.sampled_from([
        ["obs_id", "rank", "item"], ["item", "obs_id", "rank"], ["obs_id", "rank", "item", "extra"], ["item", "obs_id", "rank", "item"],
    ]))
    lines = []
    for record in records:
        cells = [record.get(name, "z") for name in header]
        if header.count("item") == 2:
            cells[0] = "z"  # the first of two item columns is ignored
        if bad and draw(st.integers(0, 9)) == 0:
            if draw(st.booleans()):
                cells = cells[: draw(st.integers(1, len(cells) - 1))]  # short row
            else:
                cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(_BAD_CELLS))
        lines.append(",".join(cells))
        if draw(st.integers(0, 9)) == 0:
            lines.append("")  # blank line
    meta = None
    if draw(st.booleans()):
        meta = {"cutoffs": cutoffs}
        if draw(st.booleans()):
            meta["n"] = draw(st.integers(0 if bad else n, n + 2))
    return "\n".join([",".join(header), *lines]) + "\n", meta


def _loaded(load, path):
    try:
        return load(path)
    except (TypeError, ValueError) as exc:  # compared by type and message
        return type(exc), str(exc)


class TestLoadAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(dataset_files())
    def test_same_blocks_or_error_as_reference(self, tmp_path_factory, file):
        text, meta = file
        path = tmp_path_factory.mktemp("load") / "data.csv"
        path.write_text(text)
        if meta is not None:
            path.with_suffix(".json").write_text(json.dumps(meta))
        got, want = _loaded(load_dataset, path), _loaded(load_dataset_reference, path)
        assert isinstance(got, Dataset) == isinstance(want, Dataset)
        if not isinstance(want, Dataset):
            assert got == want
            return
        assert got.n == want.n
        assert _blocks_equal(grouped_rankings(got), grouped_rankings(want))

    def test_short_row_is_a_bad_row(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("obs_id,rank,item\na,1,2\n\na,2\n")
        with pytest.raises(DataFormatError, match=r":3: bad row \{'obs_id': 'a', 'rank': '2', 'item': None\}"):
            load_dataset(path)
