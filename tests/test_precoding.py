from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hexmg.clustering import FAST, SLOW, clusters
from hexmg.lattice import build_network
from hexmg.precoding import (
    NullingReport,
    Precoder,
    RankDeficientError,
    build_zf_system,
    certification_plan,
    origin_cluster,
    _max_spectral_norm,
    run_trial,
    run_trials,
    sample_channels,
    solve_precoder,
    verify_nulling,
)


def effective_channels_oracle(precoder, ch):
    """Reference substitution: one matrix product per (receiver, link) pair,
    summed in the entries' insertion order."""
    m = precoder.m
    idx = {s: i for i, s in enumerate(precoder.active)}
    out = {}
    for k in precoder.active:
        total = np.zeros((m, m * len(precoder.messages)))
        for (rx, tx), h in ch.entries.items():
            if rx == k:
                i = idx[tx]
                total += h @ precoder.matrix[m * i : m * i + m, :]
        for j, msg in enumerate(precoder.messages):
            out[(k, msg)] = total[:, m * j : m * j + m]
    return out


def verify_nulling_oracle(precoder, plan, ch, tol=1e-9, scheme="s4"):
    """Reference check: one ``norm`` and one ``matrix_rank`` per block."""
    m = precoder.m
    self_norms, ranks, cross = [], [], []
    for (k, msg), g in effective_channels_oracle(precoder, ch).items():
        if k == msg:
            self_norms.append(float(np.linalg.norm(g, 2)))
            ranks.append(int(np.linalg.matrix_rank(g)))
            continue
        role = plan.assignment[k]
        if role == FAST or (role == SLOW and scheme != "s5"):
            cross.append(float(np.linalg.norm(g, 2)))
    max_self = max(self_norms) if self_norms else 0.0
    min_rank = min(ranks) if ranks else 0
    if max_self == 0.0:
        residual = float("inf") if cross and max(cross) > 0 else 0.0
        return NullingReport(residual, min_rank, False)
    residual = (max(cross) / max_self) if cross else 0.0
    return NullingReport(residual, min_rank, residual <= tol and min_rank == m)


def solve_s5_oracle(system):
    """Reference s5 solve: one minimum-norm ``lstsq`` per slow message over
    the fast rows and the message's own rows."""
    m = system.m
    idx = {s: i for i, s in enumerate(system.active)}
    fast_rows = [r for s in system.fast for r in range(m * idx[s], m * idx[s] + m)]
    b = np.zeros((m * len(system.active), m * len(system.messages)))
    for j, msg in enumerate(system.messages):
        rows = fast_rows + list(range(m * idx[msg], m * idx[msg] + m))
        sol, _, rank, _ = np.linalg.lstsq(
            system.h_net[rows, :], system.target[rows, m * j : m * j + m], rcond=None
        )
        assert rank == len(rows)
        b[:, m * j : m * j + m] = sol
    return b


#: Plans are read, never changed, by the tests below; build each one once.
shared_plan = cache(certification_plan)


def test_same_seed_same_realization():
    plan = certification_plan(1, 2)
    a = sample_channels(plan, 2, seed=11)
    b = sample_channels(plan, 2, seed=11)
    assert a.entries.keys() == b.entries.keys()
    for k in a.entries:
        assert np.array_equal(a.entries[k], b.entries[k])
    c = sample_channels(plan, 2, seed=12)
    assert any(not np.array_equal(a.entries[k], c.entries[k]) for k in a.entries)


def test_scalar_channels_all_nonzero():
    plan = certification_plan(1, 1)
    ch = sample_channels(plan, 1, seed=3)
    for h in ch.entries.values():
        assert h.shape == (1, 1)
        assert h[0, 0] != 0.0


def test_link_set_matches_interference_graph_restriction():
    plan = certification_plan(1, 1)
    cl = origin_cluster(plan)
    ch = sample_channels(plan, 1, seed=0)
    expected = set()
    for k in cl.sectors:
        expected.add((k, k))
        for l in plan.net.tx_neighbors[k]:
            if l in cl.sectors:
                expected.add((k, l))
    assert set(ch.entries) == expected


def test_system_square_for_s3_and_s4_row_delta():
    plan3 = certification_plan(1, 1, "s3")
    ch3 = sample_channels(plan3, 1, seed=0)
    sys3 = build_zf_system(plan3, ch3, "s3")
    assert sys3.n_unknowns >= sys3.n_constraints
    assert sys3.n_unknowns == sys3.n_constraints  # square by construction

    plan4 = certification_plan(1, 1, "s4")
    ch4 = sample_channels(plan4, 1, seed=0)
    sys4 = build_zf_system(plan4, ch4, "s4")
    n_slow = len(sys4.messages)
    n_fast = len(sys4.fast)
    # versus constraining only the slow sectors, s4 adds one nulling row
    # block per (fast sector, slow stream block) pair
    slow_only_rows = 1 * 1 * n_slow * n_slow
    assert sys4.n_constraints - slow_only_rows == 1 * 1 * n_fast * n_slow


def test_system_requires_matching_assignment():
    plan = certification_plan(1, 1, "s4")
    ch = sample_channels(plan, 1, seed=0)
    with pytest.raises(ValueError):
        build_zf_system(plan, ch, "s3")
    bare = clusters(build_network(4, 1), 1)
    with pytest.raises(ValueError):
        build_zf_system(bare, ch, "s4")
    with pytest.raises(ValueError):
        build_zf_system(plan, ch, "s7")


@pytest.mark.parametrize("t,m", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_solvable_over_seeds(t, m):
    results = run_trials(t, m, trials=20, seed=100, scheme="s4")
    assert all(r.solvable for r in results)
    assert all(r.max_cross_residual <= 1e-9 for r in results)
    assert all(r.min_self_rank == m for r in results)


def test_s3_and_s5_trials_solvable():
    for scheme in ("s3", "s5"):
        results = run_trials(1, 2, trials=10, seed=5, scheme=scheme)
        assert all(r.solvable for r in results), scheme


def test_fast_sectors_hear_no_slow_aggregate_s4():
    plan = certification_plan(2, 2, "s4")
    ch = sample_channels(plan, 2, seed=9)
    precoder = solve_precoder(build_zf_system(plan, ch, "s4"))
    geff = effective_channels_oracle(precoder, ch)
    worst = max(
        float(np.abs(g).max()) for (k, _), g in geff.items() if plan.assignment[k] == FAST
    )
    assert worst <= 1e-9


def test_zero_precoder_not_solvable():
    plan = certification_plan(1, 1, "s4")
    ch = sample_channels(plan, 1, seed=1)
    system = build_zf_system(plan, ch, "s4")
    zero = Precoder(
        m=1,
        active=system.active,
        messages=system.messages,
        matrix=np.zeros_like(system.target),
    )
    report = verify_nulling(zero, plan, ch)
    assert not report.solvable
    assert report.min_self_rank == 0


@pytest.mark.parametrize(
    "scheme,role,match",
    [("s4", None, None), ("s5", FAST, "fast sectors"), ("s5", SLOW, "for message")],
    ids=["s4", "s5-fast-block", "s5-own-block"],
)
def test_degenerate_channels_flagged(scheme, role, match):
    """Zeroing every channel into one receiver costs the constraint matrix a
    row block.  For s5 a dead fast sector breaks the shared fast block and a
    dead slow sector breaks its own message's block."""
    plan = certification_plan(1, 1, scheme)
    ch = sample_channels(plan, 1, seed=2)
    members = sorted(origin_cluster(plan).sectors)
    dead = next(s for s in members if role is None or plan.assignment[s] == role)
    for (rx, tx) in list(ch.entries):
        if rx == dead:
            ch.entries[(rx, tx)] = np.zeros((1, 1))
    system = build_zf_system(plan, ch, scheme)
    with pytest.raises(RankDeficientError, match=match):
        solve_precoder(system)


def test_trial_determinism():
    plan = certification_plan(1, 2, "s4")
    a = run_trial(plan, 2, seed=77)
    b = run_trial(plan, 2, seed=77)
    assert a == b


@pytest.mark.parametrize("scheme", ["s3", "s4", "s5"])
@pytest.mark.parametrize("t,m", [(t, m) for t in (1, 2) for m in (1, 2, 3)])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_batched_verify_matches_per_pair_oracle(scheme, t, m, seed):
    """The stacked substitution, norms and ranks reproduce the per-pair loop
    exactly: every field of the report is equal, not merely close."""
    plan = shared_plan(t, m, scheme)
    ch = sample_channels(plan, m, seed)
    precoder = solve_precoder(build_zf_system(plan, ch, scheme))
    got = verify_nulling(precoder, plan, ch, scheme=scheme)
    assert got == verify_nulling_oracle(precoder, plan, ch, scheme=scheme)
    assert got.solvable


@pytest.mark.parametrize("scheme", ["s3", "s4", "s5"])
@pytest.mark.parametrize("t,m", [(t, m) for t in (1, 2) for m in (1, 2, 3)])
def test_cross_norm_filter_matches_unfiltered_stack(scheme, t, m):
    """Decomposing only the blocks that can hold the largest spectral norm
    gives the maximum over the whole stack, bit for bit."""
    plan = shared_plan(t, m, scheme)
    for seed in range(4):
        ch = sample_channels(plan, m, seed)
        precoder = solve_precoder(build_zf_system(plan, ch, scheme))
        blocks = effective_channels_oracle(precoder, ch)
        heard = {FAST, SLOW} if scheme != "s5" else {FAST}
        cross = np.stack([g for (k, msg), g in blocks.items()
                          if k != msg and plan.assignment[k] in heard])
        assert _max_spectral_norm(cross) == np.linalg.norm(cross, 2, axis=(-2, -1)).max()
        every = np.stack(list(blocks.values()))
        assert _max_spectral_norm(every) == np.linalg.norm(every, 2, axis=(-2, -1)).max()


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4), n=st.integers(1, 60))
def test_cross_norm_filter_near_the_threshold(seed, m, n):
    """Blocks whose Frobenius norms crowd the cut-off (largest / sqrt(m)):
    rank-one blocks, whose spectral norm is their Frobenius norm, against
    orthogonal ones, whose spectral norm is their Frobenius norm / sqrt(m)."""
    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal((n, m, m))
    kind = rng.integers(0, 3, n)
    blocks[kind == 1] = np.linalg.qr(blocks[kind == 1])[0]
    k = int((kind == 2).sum())
    blocks[kind == 2] = rng.standard_normal((k, m, 1)) * rng.standard_normal((k, 1, m))
    fro = np.linalg.norm(blocks, axis=(-2, -1))
    target = np.where(rng.random(n) < 0.5, 1.0, 1 / np.sqrt(m)) * (1 + rng.uniform(-1e-9, 1e-9, n))
    blocks *= (target / fro)[:, None, None]
    assert _max_spectral_norm(blocks) == np.linalg.norm(blocks, 2, axis=(-2, -1)).max()
    assert _max_spectral_norm(blocks[:0]) == 0.0


@pytest.mark.parametrize("t,m", [(t, m) for t in (1, 2, 3) for m in (1, 2)])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_factored_s5_solve_matches_lstsq_oracle(t, m, seed):
    plan = shared_plan(t, m, "s5")
    system = build_zf_system(plan, sample_channels(plan, m, seed), "s5")
    b = solve_precoder(system).matrix
    ref = solve_s5_oracle(system)
    assert np.linalg.norm(b - ref) <= 1e-9 * np.linalg.norm(ref)

    idx = {s: i for i, s in enumerate(system.active)}
    h = system.h_net.reshape(len(system.active), m, -1)
    h_fast = h[[idx[s] for s in system.fast]].reshape(-1, h.shape[-1])
    assert np.abs(h_fast @ b).max() <= 1e-9
    for j, msg in enumerate(system.messages):
        own = h[idx[msg]] @ b[:, m * j : m * j + m]
        assert np.abs(own - np.eye(m)).max() <= 1e-9


def test_s5_solvable_at_t8():
    (result,) = run_trials(8, 1, trials=1, seed=3, scheme="s5")
    assert result.solvable
    assert result.min_self_rank == 1
    assert result.max_cross_residual <= 1e-9


def test_factored_s5_solve_without_fast_sectors():
    """With no fast rows the null space is the whole space and each message
    only pins its own gain."""
    plan = certification_plan(1, 2, "s5")
    system = replace(build_zf_system(plan, sample_channels(plan, 2, 4), "s5"), fast=())
    b = solve_precoder(system).matrix
    ref = solve_s5_oracle(system)
    assert np.linalg.norm(b - ref) <= 1e-9 * np.linalg.norm(ref)
