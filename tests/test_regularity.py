import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pvdkit import UnsupportedDomain, cutnorm, regularity
from pvdkit.regularity import (Partition, block_average, max_cut_details,
                               refine, szemeredi_irregularity_ub,
                               szemeredi_partition, weak_irregularity_ub,
                               weak_regularity_partition)

import oracles


def test_refine_no_pairs_is_trivial_partition():
    part = refine([], 5)
    assert len(part) == 1
    assert part.parts == ((0, 1, 2, 3, 4),)


def test_refine_groups_by_membership_signature():
    part = refine([((0, 1), (2, 3))], 4)
    # S = {0,1}, T = {2,3}: signatures split the ground set in two
    assert part.parts == ((0, 1), (2, 3))
    part2 = refine([((0,), (1,)), ((0, 2), (3,))], 4)
    for P in part2:
        for Q in part2:
            assert P == Q or not set(P) & set(Q)
    assert part2.num_vertices == 4
    assert len(part2) <= 2 ** 4


def test_refine_part_count_bound():
    rng = np.random.default_rng(90)
    for trial in range(10):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(0, 4))
        pairs = []
        for _ in range(k):
            S = tuple(np.nonzero(rng.integers(0, 2, size=n))[0])
            T = tuple(np.nonzero(rng.integers(0, 2, size=n))[0])
            pairs.append((S, T))
        part = refine(pairs, n)
        assert len(part) <= 2 ** (2 * k)
        assert sorted(i for P in part for i in P) == list(range(n))


@st.composite
def _partitions(draw):
    """One part, all singletons, or parts from drawn labels, on 2-6 vertices."""
    n = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["one", "singletons", "mixed"]))
    if kind == "one":
        labels = [0] * n
    elif kind == "singletons":
        labels = list(range(n))
    else:
        labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    groups: dict = {}
    for v, label in enumerate(labels):
        groups.setdefault(label, []).append(v)
    return Partition(parts=tuple(sorted(tuple(g) for g in groups.values())))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), part=_partitions())
@example(seed=91, part=Partition(parts=((0, 2), (1, 3, 4))))
def test_block_average_matches_loops(seed, part):
    n = part.num_vertices
    A = np.random.default_rng(seed).normal(size=(n, n))
    parts = [list(p) for p in part]
    got = block_average(A, part)
    want = oracles.block_mean_matrix(A, parts)
    assert np.allclose(got, want)
    # averaging is idempotent
    assert np.allclose(block_average(got, part), got)
    assert regularity._block_deviation(got, part) == 0.0
    assert regularity._block_deviation(A, part) == oracles.block_spread(A, parts)


def test_single_block_irregularity_of_identity_pair():
    # one part, A = I2: the worst rectangle of A minus its average is 1/2
    A = np.eye(2)
    part = Partition(parts=((0, 1),))
    assert szemeredi_irregularity_ub(A, part) == pytest.approx(0.5)
    assert weak_irregularity_ub(A, part) == pytest.approx(0.5)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), part=_partitions())
@example(seed=92, part=Partition(parts=((0, 1), (2, 3))))
@example(seed=92, part=Partition(parts=((0, 1, 2), (3, 4, 5))))
def test_irregularity_upper_bounds_match_oracle(seed, part):
    n = part.num_vertices
    A = oracles.gnp_adjacency(np.random.default_rng(seed), n, 0.5)
    parts = [list(p) for p in part]
    R = A - oracles.block_mean_matrix(A, parts)
    assert weak_irregularity_ub(A, part) == pytest.approx(oracles.plain_cutnorm(R), abs=1e-9)
    blockwise = sum(oracles.plain_cutnorm(R[np.ix_(P, Q)]) for P in parts for Q in parts)
    assert szemeredi_irregularity_ub(A, part) == pytest.approx(blockwise, abs=1e-9)
    assert regularity._block_deviation(A, part) == oracles.block_spread(A, parts)


def test_szemeredi_sum_is_refused_past_the_sweep_rule(monkeypatch):
    """A part of 23 vertices at the default cap is past the exact sweep's
    rule: the sum raises the rule's refusal, and no block bound runs."""
    def refuse(*args):
        raise AssertionError("a block bound ran")

    monkeypatch.setattr(regularity, "_block_max_abs", refuse)
    monkeypatch.setattr(regularity, "block_average", refuse)
    A = oracles.gnp_adjacency(np.random.default_rng(102), 24, 0.5)
    part = Partition(parts=(tuple(range(23)), (23,)))
    with pytest.raises(UnsupportedDomain, match=oracles.sweep_rule((23, 23))):
        szemeredi_irregularity_ub(A, part)


def test_weak_irregularity_past_the_sweep_rule_is_refused_without_an_lp(monkeypatch):
    """Past the exact sweep's rule the weak bound raises the rule's
    refusal; it no longer falls back to the LP relaxation's upper bound."""
    def refuse(*args, **kwargs):
        raise AssertionError("an LP ran")

    monkeypatch.setattr(cutnorm, "cut_norm_lp_upper", refuse)
    monkeypatch.setattr(cutnorm, "simplex_solve", refuse)
    side = cutnorm.COMPLETION_CAP + 1
    A = oracles.gnp_adjacency(np.random.default_rng(103), side, 0.5)
    part = Partition(parts=(tuple(range(side)),))
    with pytest.raises(UnsupportedDomain, match=oracles.sweep_rule((side, side))):
        weak_irregularity_ub(A, part)


@pytest.mark.parametrize("size", [13, 16])
def test_szemeredi_sum_is_exact_past_the_default_cap(size):
    """A part of 13-16 vertices is past the default ``bf_cap`` of 12 but
    within ``COMPLETION_CAP``: the sum is the exact blockwise one."""
    n = size + 3
    A = oracles.gnp_adjacency(np.random.default_rng(size), n, 0.5)
    parts = [list(range(size)), list(range(size, n))]
    R = A - oracles.block_mean_matrix(A, parts)
    # [DERIVED] each block's plain cut norm, swept over its longer side
    want = sum(oracles.plain_cutnorm_long_side(R[np.ix_(P, Q)]) for P in parts for Q in parts)
    part = Partition(parts=tuple(tuple(P) for P in parts))
    assert szemeredi_irregularity_ub(A, part) == pytest.approx(want, abs=1e-9)


def test_weak_regularity_certificates_pass():
    rng = np.random.default_rng(93)
    for trial in range(5):
        A = oracles.gnp_adjacency(rng, 8, 0.5)
        rep = weak_regularity_partition(A, 0.5)
        assert rep.all_pass, f"trial {trial}: {rep.certificates}"
        # [DERIVED] the reported irregularity really is the residual cut norm
        R = A - rep.approx_matrix
        assert rep.weak_irregularity_ub == pytest.approx(
            oracles.plain_cutnorm(R), abs=1e-9)
        assert rep.weak_irregularity_ub <= rep.bound_certificate + 1e-9


def test_weak_regularity_partition_size_bound():
    rng = np.random.default_rng(94)
    A = oracles.gnp_adjacency(rng, 10, 0.5)
    rep = weak_regularity_partition(A, 0.5)  # r = 4
    assert len(rep.partition) <= 2 ** (2 * rep.terms_used)
    assert rep.block_deviation <= 1e-9


def test_weak_regularity_weighted_chain_holds():
    rng = np.random.default_rng(95)
    A = oracles.gnp_adjacency(rng, 6, 0.6)
    d = rng.integers(1, 4, size=6).astype(float)
    rep = weak_regularity_partition(A, 0.6, weights=d)
    assert rep.all_pass
    assert rep.weak_irregularity_ub <= rep.bound_certificate + 1e-9


def test_weak_regularity_rejects_asymmetric():
    with pytest.raises(ValueError):
        weak_regularity_partition(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5)


def test_szemeredi_identity_matrix_stops_at_first_window():
    rep = szemeredi_partition(np.eye(4), 0.8, base=16.0)
    assert rep.all_pass, rep.certificates
    assert rep.details["level_index"] == 0
    assert rep.details["q"] == 0
    assert len(rep.partition) == 1
    assert rep.terms_used == 0


def test_szemeredi_windows_telescope_to_horizon():
    rng = np.random.default_rng(96)
    A = oracles.gnp_adjacency(rng, 8, 0.5)
    rep = szemeredi_partition(A, 0.8)
    det = rep.details
    assert sum(det["windows"]) == pytest.approx(det["mass_horizon"], abs=1e-9)
    assert det["window"] <= 0.8 ** 2 * det["mass_horizon"] + 1e-9


def test_szemeredi_certificates_on_random_graphs():
    rng = np.random.default_rng(97)
    for trial in range(4):
        A = oracles.gnp_adjacency(rng, 8, 0.5)
        rep = szemeredi_partition(A, 0.8)
        assert rep.all_pass, f"trial {trial}: {rep.certificates}"
        assert len(rep.partition) <= 2 ** (2 * rep.terms_used) if rep.terms_used else True


def test_szemeredi_eps_ladder_guard():
    with pytest.raises(ValueError):
        szemeredi_partition(np.eye(4), 0.2, base=16.0)  # ladder blows past the horizon cap


def test_max_cut_complete_bipartite_exact():
    # block-constant input: the split enumeration finds the true split
    for n in (4, 6, 8, 10):
        J = np.ones((n, n)) - np.eye(n)
        info = max_cut_details(J, 0.5)
        est = info["estimate"]
        true = oracles.maxcut_value(J)
        assert info["exact_split"]
        assert abs(est - true) <= info["weak_irregularity_ub"] + 1e-6


def test_max_cut_all_ones_matches_quarter_square():
    for n in (4, 6, 8, 10):
        J = np.ones((n, n))
        info = max_cut_details(J, 0.5)
        est, cut = info["estimate"], info["bipartition"]
        assert est == pytest.approx(n * n / 4.0, abs=1e-9)
        assert len(cut) == n // 2


def test_max_cut_estimate_within_slack_of_bruteforce():
    rng = np.random.default_rng(98)
    for trial in range(5):
        A = oracles.gnp_adjacency(rng, 8, 0.5)
        info = max_cut_details(A, 0.5)
        true = oracles.maxcut_value(A)
        slack = info["weak_irregularity_ub"] + info["grid_term"] + 1e-6
        assert abs(info["estimate"] - true) <= slack, f"trial {trial}"


def test_max_cut_grid_fallback_runs(monkeypatch):
    monkeypatch.setattr(regularity, "SPLIT_CAP", 1)
    rng = np.random.default_rng(99)
    A = oracles.gnp_adjacency(rng, 9, 0.5)
    info = max_cut_details(A, 0.5)
    assert not info["exact_split"]
    assert info["grid_term"] > 0
    true = oracles.maxcut_value(A)
    assert abs(info["estimate"] - true) <= (info["weak_irregularity_ub"]
                                            + info["grid_term"] + 1e-6)


@pytest.mark.parametrize("split_cap", [regularity.SPLIT_CAP, 1])
def test_split_search_matches_the_reference_loops(monkeypatch, split_cap):
    """Both branches of the split search, exhaustive and (with the cap
    lowered) the rounded grid, give the reference loops' counts,
    bipartition and estimate bit for bit; block-constant inputs have ties."""
    monkeypatch.setattr(regularity, "SPLIT_CAP", split_cap)
    rng = np.random.default_rng(100)
    cases = [(np.ones((6, 6)) - np.eye(6), 0.5, None), (np.ones((7, 7)), 0.5, 0.25)]
    cases += [(oracles.gnp_adjacency(rng, n, 0.5), 0.5, delta)
              for n in (7, 8, 9) for delta in (None, 0.25)]
    for A, eps, delta in cases:
        info = max_cut_details(A, eps, delta=delta)
        rep = info["report"]
        want = oracles.max_cut_split(rep.approx_matrix, rep.partition, info["delta"], split_cap)
        assert (info["counts"], info["bipartition"], info["estimate"]) == want
        assert info["exact_split"] == (split_cap > 1)


def test_max_cut_skips_the_szemeredi_sum(monkeypatch):
    """The max-cut run reads only the weak partition: no blockwise cut norm
    is computed, though every part is within the cap and the weak
    construction on the same graph reports the Szemeredi sum."""
    calls = []
    block_max_abs = regularity._block_max_abs
    monkeypatch.setattr(regularity, "_block_max_abs",
                        lambda *args: calls.append(args) or block_max_abs(*args))
    A = oracles.gnp_adjacency(np.random.default_rng(101), 8, 0.5)
    info = max_cut_details(A, 0.5)
    assert calls == []
    assert info["report"].szemeredi_irregularity_ub is None
    rep = weak_regularity_partition(A, 0.5)
    assert calls and rep.szemeredi_irregularity_ub is not None
    assert rep.partition == info["report"].partition


def test_max_cut_rejects_bad_delta():
    with pytest.raises(ValueError):
        max_cut_details(np.eye(3), 0.5, delta=0.0)
