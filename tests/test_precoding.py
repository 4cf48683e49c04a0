import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hexmg
from hexmg import precoding
from hexmg.clustering import FAST, ROLES, SLOW
from hexmg.precoding import (
    NullingReport,
    Precoder,
    RankDeficientError,
    TrialResult,
    build_zf_system,
    certification_plan,
    _spectral_candidates,
    run_trial,
    run_trials,
    sample_channels,
    solve_precoder,
    system_template,
    verify_nulling,
)


def origin_cluster(plan):
    """The cluster holding the origin master cell."""
    cl = plan.cluster_of((0, 0, 0))
    assert cl.master == (0, 0)
    return cl


def role_of(plan, i):
    """The role name of sector id ``i``."""
    return ROLES[plan.roles[i]]


def entries_of(template, h):
    """``(receiving sector id, transmitting sector id) -> m x m channel`` in
    link order: the channel realization as a dict, the form the oracles read."""
    lay = template.layout
    ids = lay.ids.tolist()
    return {(ids[i], ids[j]): g for i, j, g in zip(lay.rx.tolist(), lay.tx.tolist(), h)}


def sample_channels_oracle(plan, m, seed):
    """Reference draw: one ``standard_normal((m, m))`` per link, receivers in
    ascending order, each one's self link first and then its in-cluster
    neighbours in ascending order."""
    ids = origin_cluster(plan).sectors.ids
    inside = set(ids.tolist())
    rng = np.random.default_rng(seed)
    entries = {}
    for k, row in zip(ids.tolist(), plan.net.nbr[ids].tolist()):
        for l in [k] + sorted(j for j in row if j in inside):
            entries[(k, l)] = rng.standard_normal((m, m))
    return entries


def build_zf_system_oracle(plan, entries, m):
    """Reference assembly of ``h_net`` and ``target``, one block at a time."""
    active = origin_cluster(plan).sectors.ids.tolist()
    slow = [s for s in active if role_of(plan, s) == SLOW]
    n = len(active)
    idx = {s: i for i, s in enumerate(active)}
    h_net = np.zeros((m * n, m * n))
    for (k, l), h in entries.items():
        h_net[m * idx[k] : m * idx[k] + m, m * idx[l] : m * idx[l] + m] = h
    target = np.zeros((m * n, m * len(slow)))
    for j, s in enumerate(slow):
        i = idx[s]
        target[m * i : m * i + m, m * j : m * j + m] = np.eye(m)
    return h_net, target


def effective_channels_oracle(precoder, entries):
    """Reference substitution: one matrix product per (receiver, link) pair,
    summed in the entries' insertion order."""
    m = precoder.template.m
    lay = precoder.template.layout
    active, messages = lay.ids.tolist(), lay.ids[lay.slow_pos].tolist()
    idx = {s: i for i, s in enumerate(active)}
    out = {}
    for k in active:
        total = np.zeros((m, m * len(messages)))
        for (rx, tx), h in entries.items():
            if rx == k:
                i = idx[tx]
                total += h @ precoder.matrix[m * i : m * i + m, :]
        for j, msg in enumerate(messages):
            out[(k, msg)] = total[:, m * j : m * j + m]
    return out


def verify_nulling_oracle(precoder, plan, entries, tol=1e-9, scheme="s4"):
    """Reference check: one ``norm`` and one ``matrix_rank`` per block."""
    m = precoder.template.m
    self_norms, ranks, cross = [], [], []
    for (k, msg), g in effective_channels_oracle(precoder, entries).items():
        if k == msg:
            self_norms.append(float(np.linalg.norm(g, 2)))
            ranks.append(int(np.linalg.matrix_rank(g)))
            continue
        role = role_of(plan, k)
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
    m = system.template.m
    lay = system.template.layout
    fast_rows = [r for i in lay.fast_pos.tolist() for r in range(m * i, m * i + m)]
    b = np.zeros((m * len(lay.ids), m * len(lay.slow_pos)))
    for j, i in enumerate(lay.slow_pos.tolist()):
        rows = fast_rows + list(range(m * i, m * i + m))
        sol, _, rank, _ = np.linalg.lstsq(
            system.h_net[rows, :], system.template.target[rows, m * j : m * j + m], rcond=None
        )
        assert rank == len(rows)
        b[:, m * j : m * j + m] = sol
    return b


def max_spectral_norm(blocks):
    """The largest ``norm(g, 2)`` over the blocks ``_spectral_candidates``
    keeps, read as ``verify_nulling`` reads it: the first singular value."""
    keep = _spectral_candidates(np.einsum("kab,kab->k", blocks, blocks), blocks.shape[-1])
    return float(np.linalg.svd(blocks[keep], compute_uv=False)[:, 0].max(initial=0.0))


#: Plans and templates are read, never changed, by the tests below; build
#: each one once.  A template lays out the origin cluster of its own plan,
#: which ``shared_plan(t, scheme)`` rebuilds for the oracles.
shared_plan = cache(certification_plan)
shared_template = cache(system_template)


def test_same_seed_same_realization():
    template = shared_template(1, 2, "s4")
    a = entries_of(template, sample_channels(template, seed=11))
    b = entries_of(template, sample_channels(template, seed=11))
    assert a.keys() == b.keys()
    for k in a:
        assert np.array_equal(a[k], b[k])
    c = entries_of(template, sample_channels(template, seed=12))
    assert any(not np.array_equal(a[k], c[k]) for k in a)


def test_scalar_channels_all_nonzero():
    template = shared_template(1, 1, "s4")
    h = sample_channels(template, seed=3)
    for g in entries_of(template, h).values():
        assert g.shape == (1, 1)
        assert g[0, 0] != 0.0


def test_link_set_matches_interference_graph_restriction():
    plan = shared_plan(1, "s4")
    cl = origin_cluster(plan)
    template = shared_template(1, 1, "s4")
    h = sample_channels(template, seed=0)
    id_of = plan.net.id_of
    expected = set()
    for k in cl.sectors:
        expected.add((id_of(k), id_of(k)))
        for l in plan.net.tx_neighbors[k]:
            if l in cl.sectors:
                expected.add((id_of(k), id_of(l)))
    assert set(entries_of(template, h)) == expected


def test_system_square_for_s3_and_s4_row_delta():
    template3 = shared_template(1, 1, "s3")
    sys3 = build_zf_system(template3, sample_channels(template3, seed=0))
    assert sys3.n_unknowns >= sys3.n_constraints
    assert sys3.n_unknowns == sys3.n_constraints  # square by construction

    template4 = shared_template(1, 1, "s4")
    sys4 = build_zf_system(template4, sample_channels(template4, seed=0))
    n_slow = len(sys4.template.layout.slow_pos)
    n_fast = len(sys4.template.layout.fast_pos)
    # versus constraining only the slow sectors, s4 adds one nulling row
    # block per (fast sector, slow stream block) pair
    slow_only_rows = 1 * 1 * n_slow * n_slow
    assert sys4.n_constraints - slow_only_rows == 1 * 1 * n_fast * n_slow


def test_system_requires_matching_assignment(monkeypatch):
    """``system_template`` is the one place a design point is checked: it
    refuses an unknown scheme, then an m that is not a positive int, then a
    cluster past ``MAX_ANTENNAS`` antennas, each with its own text, before
    it builds a plan, which is stubbed here."""
    def no_plan(*args, **kwargs):
        raise PlanBuilt

    monkeypatch.setattr(precoding, "certification_plan", no_plan)
    cap = f"t=21, m=1 gives a cluster of 3906 antennas, past the cap of {precoding.MAX_ANTENNAS}"
    cases = [
        (1, 1, "s7", "unknown precoding scheme 's7'"),
        (21, 0, "s7", "unknown precoding scheme 's7'"),
        (1, 0, "s4", "m must be a positive integer, got 0"),
        (21, 0, "s4", "m must be a positive integer, got 0"),
        (21, 1, "s4", cap),
    ]
    for t, m, scheme, text in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            system_template(t, m, scheme)
    with pytest.raises(PlanBuilt):
        system_template(1, 1, "s4")


@pytest.mark.parametrize("call,text", [
    (lambda: system_template(2.0, 1, "s4"), "t must be a positive integer, got 2.0"),
    (lambda: system_template(0, 1, "s4"), "t must be a positive integer, got 0"),
    (lambda: system_template(1, 2.0, "s4"), "m must be a positive integer, got 2.0"),
    (lambda: run_trials(1, 1, 2.5, scheme="s4"), "trials must be a positive integer, got 2.5"),
    (lambda: certification_plan(2.0, "s4"), "t must be a positive integer, got 2.0"),
], ids=["float-t", "zero-t", "float-m", "float-trials", "plan-float-t"])
def test_non_integer_counts_are_refused_before_any_lattice(monkeypatch, call, text):
    """A t, m or trial count that is not a positive int is refused by its
    own name, before any lattice is built, not by numpy or the lattice."""
    monkeypatch.setattr(precoding, "build_network", lambda *a: pytest.fail("a lattice was built"))
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        call()


def nan_channels(template, seed):
    """The seeded channels with one entry NaN."""
    h = sample_channels(template, seed)
    h[0, 0, 0] = np.nan
    return h


def test_nan_channel_makes_the_solve_rank_deficient():
    template = shared_template(1, 1, "s4")
    system = build_zf_system(template, nan_channels(template, 0))
    with pytest.raises(RankDeficientError, match="^inconsistent system, residual nan$"):
        solve_precoder(system)


def test_rank_deficient_trial_is_an_unsolvable_result(monkeypatch):
    """``run_trial`` turns a ``RankDeficientError`` into an unsolvable
    result with an infinite residual and rank 0."""
    monkeypatch.setattr(precoding, "sample_channels", nan_channels)
    assert run_trial(shared_template(1, 1, "s4"), 7) == TrialResult(7, False, float("inf"), 0)


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
    plan, template = shared_plan(2, "s4"), shared_template(2, 2, "s4")
    h = sample_channels(template, seed=9)
    precoder = solve_precoder(build_zf_system(template, h))
    geff = effective_channels_oracle(precoder, entries_of(template, h))
    worst = max(
        float(np.abs(g).max()) for (k, _), g in geff.items() if role_of(plan, k) == FAST
    )
    assert worst <= 1e-9


@pytest.mark.parametrize(
    "plan_scheme,scheme", [("s3", "s5"), ("s3", "s4"), ("s4", "s3"), ("s5", "s3")]
)
def test_verify_refuses_scheme_of_another_assignment(plan_scheme, scheme):
    """A slow-only plan has no fast sector, so checked as s5 nothing would
    count as cross talk and even a random precoder would pass.  A precoder
    carries its design point and the check reads the scheme off it: the
    channels drawn for ``scheme`` at the same t and m are the same draw,
    and on them a random precoder of ``plan_scheme`` fails.  A matrix
    shaped for the other scheme's messages is refused."""
    m = 2
    template, other = shared_template(2, m, plan_scheme), shared_template(2, m, scheme)
    lay = template.layout
    matrix = np.random.default_rng(1).standard_normal((m * len(lay.ids), m * len(lay.slow_pos)))
    h = sample_channels(other, seed=0)
    assert np.array_equal(h, sample_channels(template, seed=0))
    assert not verify_nulling(Precoder(template, matrix), h).solvable
    with pytest.raises(ValueError, match="^precoder matrix of another design point$"):
        verify_nulling(Precoder(template, np.zeros_like(other.target)), h)


def test_zero_precoder_not_solvable():
    template = shared_template(1, 1, "s4")
    h = sample_channels(template, seed=1)
    zero = Precoder(template, np.zeros_like(template.target))
    report = verify_nulling(zero, h)
    assert not report.solvable
    assert report.min_self_rank == 0


@pytest.mark.parametrize("scale", [0.5, 2.0, 2.9, 3.1, 8.0])
def test_self_rank_tolerance_matches_matrix_rank(scale):
    """Self gains with a singular value near the rank cut-off, max(m, m)·eps
    times the largest: only the self links carry a channel, the identity,
    so each self gain is its precoder block exactly."""
    m = 3
    plan, template = shared_plan(1, "s4"), shared_template(1, m, "s4")
    lay = template.layout
    h = sample_channels(template, seed=0)
    h[:] = 0.0
    h[lay.rx == lay.tx] = np.eye(m)
    n, n_msg = len(lay.ids), len(lay.slow_pos)
    matrix = np.zeros((n, m, n_msg, m))
    matrix[lay.slow_pos, :, np.arange(n_msg), :] = np.eye(m)
    matrix[lay.slow_pos[0], :, 0, :] = np.diag([1.0, 1.0, scale * np.finfo(float).eps])
    precoder = Precoder(template, matrix.reshape(m * n, m * n_msg))
    report = verify_nulling(precoder, h)
    assert report == verify_nulling_oracle(precoder, plan, entries_of(template, h))
    assert report.min_self_rank == (2 if scale < m else 3)


@pytest.mark.parametrize(
    "scheme,role,match",
    [("s4", None, None), ("s5", FAST, "fast sectors"), ("s5", SLOW, "for message")],
    ids=["s4", "s5-fast-block", "s5-own-block"],
)
def test_degenerate_channels_flagged(scheme, role, match):
    """Zeroing every channel into one receiver costs the constraint matrix a
    row block.  For s5 a dead fast sector breaks the shared fast block and a
    dead slow sector breaks its own message's block."""
    plan, template = shared_plan(1, scheme), shared_template(1, 1, scheme)
    h = sample_channels(template, seed=2)
    members = origin_cluster(plan).sectors.ids.tolist()
    dead = next(s for s in members if role is None or role_of(plan, s) == role)
    links = list(entries_of(template, h))
    h[[k for k, (rx, _) in enumerate(links) if rx == dead]] = 0.0
    system = build_zf_system(template, h)
    with pytest.raises(RankDeficientError, match=match) as err:
        solve_precoder(system)
    if role == SLOW:  # the message is named by its sector id
        assert str(err.value).endswith(f"for message at sector id {dead}")


def _near_cut_off_s5(t, m, seed, block, scale):
    """An s5 system whose fast block (``block="fast"``) or one message's own
    block (``block="own"``) has its smallest singular value at ``scale``
    times the solve's rank cut-off, and whether ``matrix_rank`` calls that
    block rank-deficient.  The fast case replaces one fast sector's rows by
    ``scale * cut`` times orthonormal rows orthogonal to the other fast rows;
    the own case sets the smallest singular value of ``h_own_j @ N``, with N
    the null-space basis of a full SVD of the fast rows."""
    eps = np.finfo(float).eps
    template = shared_template(t, m, "s5")
    system = build_zf_system(template, sample_channels(template, seed))
    lay = system.template.layout
    n_ant = m * len(lay.ids)
    h = system.h_net.reshape(len(lay.ids), m, n_ant).copy()
    k = m * len(lay.fast_pos)
    if block == "fast":
        others = h[lay.fast_pos[1:]].reshape(-1, n_ant)
        _, sv, vt = np.linalg.svd(others)
        h[lay.fast_pos[0]] = scale * sv[0] * max(k, n_ant) * eps * vt[len(sv) : len(sv) + m]
        short = np.linalg.matrix_rank(h[lay.fast_pos].reshape(-1, n_ant)) < k
        sector = None
    else:
        null = np.linalg.svd(h[lay.fast_pos].reshape(-1, n_ant))[2][k:].T
        sector = int(lay.ids[lay.slow_pos[len(lay.slow_pos) // 2]])
        i = int(np.searchsorted(lay.ids, sector))
        u, sv, vt = np.linalg.svd(h[i] @ null, full_matrices=False)
        sv[-1] = scale * sv[0] * max(m, n_ant - k) * eps
        h[i] += ((u * sv) @ vt - h[i] @ null) @ null.T
        short = np.linalg.matrix_rank(h[i] @ null) < m
    return replace(system, h_net=h.reshape(n_ant, n_ant)), bool(short), sector


@pytest.mark.parametrize("scale", [0.5, 2.0])
@pytest.mark.parametrize(
    "block,t,m",
    [("fast", t, m) for t in (1, 2) for m in (1, 2, 3)]
    + [("own", t, m) for t in (1, 2) for m in (2, 3)],
)
def test_s5_rank_cut_offs(block, t, m, scale):
    """The s5 solve calls a block rank-deficient exactly when ``matrix_rank``
    does, at half and at twice the cut-off: sigma_max * max(shape) * eps for
    the fast rows, and sigma_max * max(m, N - k) * eps for a message's
    projected own rows.  Above the cut-off a fast block still solves; an own
    block there has condition number about 1e13, so the 1e-8 consistency
    check refuses it instead, naming that message."""
    for seed in range(3):
        system, short, sector = _near_cut_off_s5(t, m, seed, block, scale)
        assert short == (scale < 1)
        if short:
            text = ("row-rank deficiency at the fast sectors" if block == "fast"
                    else f"row-rank deficiency for message at sector id {sector}")
            with pytest.raises(RankDeficientError) as err:
                solve_precoder(system)
            assert str(err.value) == text
        elif block == "fast":
            solve_precoder(system)
        else:
            text = f"^inconsistent system for message at sector id {sector}, residual "
            with pytest.raises(RankDeficientError, match=text):
                solve_precoder(system)


@pytest.mark.parametrize("role", [FAST, SLOW])
def test_s5_non_finite_channel_flagged(role):
    """A NaN channel into a fast or a slow sector makes an SVD of the s5
    solve fail to converge; that is reported as a rank deficiency, as the s4
    solve reports it, and ``run_trial``, which catches that error, records
    an unsolvable trial instead of raising."""
    template = shared_template(1, 2, "s5")
    lay = template.layout
    h = sample_channels(template, seed=0)
    pos = lay.fast_pos[0] if role == FAST else lay.slow_pos[0]
    h[np.flatnonzero(lay.rx == pos)[0], 0, 0] = np.nan
    with pytest.raises(RankDeficientError):
        solve_precoder(build_zf_system(template, h))


def test_precoder_for_another_cluster_rejected():
    """A precoder checked on channels drawn for another design point (another
    t or m) is refused by their shape, and so is a matrix of another design
    point's shape; on its own channels the check passes."""
    template = shared_template(1, 1, "s4")
    h = sample_channels(template, seed=0)
    own = solve_precoder(build_zf_system(template, h))
    for other in (shared_template(2, 1, "s4"), shared_template(1, 2, "s4")):
        h_other = sample_channels(other, seed=0)
        with pytest.raises(ValueError, match="^channel realization of another design point$"):
            verify_nulling(own, h_other)
        foreign = solve_precoder(build_zf_system(other, h_other))
        with pytest.raises(ValueError, match="^precoder matrix of another design point$"):
            verify_nulling(replace(own, matrix=foreign.matrix), h)
    assert verify_nulling(own, h).solvable


@pytest.mark.parametrize("scheme", ["s3", "s4", "s5"])
def test_verify_takes_both_layout_paths(scheme):
    """The check reads the layout off the precoder's template, whether that
    is the template object its channels were drawn for or an equal template
    built apart, and gives the oracle's report either way.  A precoder of
    another cluster is refused either way, by its channels or its matrix."""
    template = shared_template(2, 2, scheme)
    h = sample_channels(template, seed=5)
    precoder = solve_precoder(build_zf_system(template, h))
    assert precoder.template is template
    apart = replace(precoder, template=system_template(2, 2, scheme))
    assert apart.template is not template
    want = verify_nulling_oracle(
        precoder, shared_plan(2, scheme), entries_of(template, h), scheme=scheme)
    assert verify_nulling(precoder, h) == want and want.solvable
    assert verify_nulling(apart, h) == want

    other = shared_template(1, 2, scheme)
    h_other = sample_channels(other, seed=5)
    foreign = solve_precoder(build_zf_system(other, h_other))
    for own in (precoder, apart):
        with pytest.raises(ValueError, match="^channel realization of another design point$"):
            verify_nulling(own, h_other)
        with pytest.raises(ValueError, match="^precoder matrix of another design point$"):
            verify_nulling(replace(own, matrix=foreign.matrix), h)


#: sha256 of the ``repr`` of each ``TrialResult``, one per line: the four
#: verify-all points and the three ``zf_scale`` points, recorded before the
#: check and the layout gained their precomputed index arrays.  ``repr``
#: spells a float's shortest round trip, so a residual one ulp off fails.
#: The ``zf_scale`` points' products are large enough that their rounding
#: follows BLAS's thread count, so they run in a child interpreter with BLAS
#: on one thread, as the benchmark runs them; their digests were recorded so.
TRIAL_DIGESTS = {
    ("s4", 1, 1, 100, 42): "b79431bab9ab294b2fdccdd312324232ba6ceb3f95f88efb7963be924e0d4b8b",
    ("s4", 1, 2, 100, 42): "c1f4e4d0395799fae8ca2b9af1c7985f7b35b6ad1d4ff915d93d9a9054c0558a",
    ("s4", 2, 1, 100, 42): "adbfefc3b4e089e49ab9f7d15a7b7976e43c7c7c9228ed531fe4ba5af454559c",
    ("s4", 2, 2, 100, 42): "cb0d2e2c474f6aac763f4522d8ccc6287e4462faede0e251b28123cdef8fa1f2",
    ("s4", 4, 3, 1, 20211): "baab440b76411672a230df0aeeaede8654028137d20598c63651f2d34418f8c9",
    ("s5", 4, 3, 1, 20211): "33d089379496348ec5fedda2e3955f0728ed330953ad97153ad5f1d1f176935e",
    ("s5", 6, 1, 1, 20211): "084e9ec3c23f84fb3d33039fa0274a6d2aa8a372dbca3e6af02d79045ba546c8",
}
ONE_BLAS_THREAD = [point for point in TRIAL_DIGESTS if point[1] >= 4]
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def trial_digest(point):
    """``(number of results, digest)`` of the point's ``run_trials``."""
    scheme, t, m, trials, seed = point
    results = run_trials(t, m, trials, seed=seed, scheme=scheme)
    return len(results), hashlib.sha256("\n".join(map(repr, results)).encode()).hexdigest()


@pytest.fixture(scope="module")
def one_thread_digests():
    """``trial_digest`` of every ``ONE_BLAS_THREAD`` point, from one child
    interpreter whose BLAS runs on one thread."""
    env = dict(os.environ, **{name: "1" for name in BLAS_THREAD_VARIABLES})
    src = str(Path(hexmg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import json, sys; from test_precoding import trial_digest; "
            "print(json.dumps([trial_digest(tuple(p)) for p in json.loads(sys.argv[1])]))")
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(ONE_BLAS_THREAD)], env=env,
        cwd=Path(__file__).parent, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return {point: tuple(got) for point, got in zip(ONE_BLAS_THREAD, json.loads(out))}


@pytest.mark.parametrize("point", list(TRIAL_DIGESTS), ids=lambda p: "-".join(map(str, p)))
def test_trial_results_are_bit_identical(point, request):
    if point in ONE_BLAS_THREAD:
        got = request.getfixturevalue("one_thread_digests")[point]
    else:
        got = trial_digest(point)
    assert got == (point[3], TRIAL_DIGESTS[point])


class PlanBuilt(Exception):
    """Raised in place of building a certification plan."""


@pytest.mark.parametrize("t,m", [(21, 1), (15, 2), (12, 3), (40, 1), (10**9, 10**9)])
def test_oversized_system_is_refused_before_any_plan(monkeypatch, t, m):
    """Past ``MAX_ANTENNAS`` antennas, m(9t² − 3t), ``run_trials`` refuses
    the system with the cap named (its ``system_template`` does) and builds
    nothing; at the largest accepted sizes it goes on to build the plan,
    which is stubbed here so nothing is allocated."""
    def no_plan(*args, **kwargs):
        raise PlanBuilt

    monkeypatch.setattr(precoding, "certification_plan", no_plan)
    with pytest.raises(ValueError, match=f"past the cap of {precoding.MAX_ANTENNAS}$"):
        run_trials(t, m, 1, scheme="s3")
    for t_ok, m_ok in ((20, 1), (14, 2), (11, 3), (1, 600)):
        assert m_ok * (9 * t_ok * t_ok - 3 * t_ok) <= precoding.MAX_ANTENNAS
        with pytest.raises(PlanBuilt):
            run_trials(t_ok, m_ok, 1, scheme="s3")


def test_system_template_of_another_plan_or_m_is_refused():
    """Channels drawn for the design point of another t or m are refused, by
    their shape, by the system and by the check; those of the template's own
    design point give the oracle's system on the template's read-only
    target."""
    template = shared_template(1, 2, "s4")
    h = sample_channels(template, seed=0)
    got = build_zf_system(template, h)
    h_net, target = build_zf_system_oracle(shared_plan(1, "s4"), entries_of(template, h), 2)
    assert np.array_equal(got.h_net, h_net) and np.array_equal(template.target, target)
    assert got.template is template
    precoder = solve_precoder(got)
    for other in (shared_template(2, 2, "s4"), shared_template(1, 1, "s4")):
        foreign = sample_channels(other, seed=0)
        with pytest.raises(ValueError, match="^channel realization of another design point$"):
            build_zf_system(template, foreign)
        with pytest.raises(ValueError, match="^channel realization of another design point$"):
            verify_nulling(precoder, foreign)
    with pytest.raises(ValueError, match="read-only"):
        template.target[0, 0] = 2.0


def effective_channels_by_depth(precoder, h):
    """The effective-channel sum as a per-depth loop from zero: at each
    depth, every receiver's link of that depth (a zero channel past its
    last) times its transmitter's precoder rows, added in depth order."""
    lay, m = precoder.template.layout, precoder.template.m
    rows = precoder.matrix.reshape(len(lay.ids), m, -1)
    h = np.concatenate([h, np.zeros((1, m, m))])
    total = np.zeros_like(rows)
    for links, tx in zip(lay.links_by_depth, lay.tx_by_depth):
        total += h[links] @ rows[tx]
    return total


@pytest.mark.parametrize("scheme", ["s3", "s4", "s5"])
@pytest.mark.parametrize("t,m", [(t, m) for t in (1, 2, 3) for m in (1, 2, 3)])
def test_effective_channels_match_the_depth_loop(scheme, t, m):
    """The check's effective channels equal the per-depth loop's bit for
    bit, and their substitution one link at a time up to rounding."""
    template = shared_template(t, m, scheme)
    lay = template.layout
    for seed in range(2):
        h = sample_channels(template, seed)
        precoder = solve_precoder(build_zf_system(template, h))
        rows = precoder.matrix.reshape(len(lay.ids), m, -1)
        got = precoding._effective_channels(lay, rows, h)
        assert np.array_equal(got, effective_channels_by_depth(precoder, h))
        blocks = effective_channels_oracle(precoder, entries_of(template, h))
        n_msg = len(lay.slow_pos)
        want = np.stack([blocks[k, msg] for k in lay.ids.tolist()
                         for msg in lay.ids[lay.slow_pos].tolist()])
        got_blocks = got.reshape(len(lay.ids), m, n_msg, m).transpose(0, 2, 1, 3)
        assert np.allclose(got_blocks.reshape(-1, m, m), want, rtol=0, atol=1e-12)


def test_trial_determinism():
    template = shared_template(1, 2, "s4")
    a = run_trial(template, seed=77)
    b = run_trial(template, seed=77)
    assert a == b


@pytest.mark.parametrize("scheme", ["s3", "s4", "s5"])
@pytest.mark.parametrize("t,m", [(t, m) for t in (1, 2) for m in (1, 2, 3)])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_batched_verify_matches_per_pair_oracle(scheme, t, m, seed):
    """The stacked substitution, norms and ranks reproduce the per-pair loop
    exactly: every field of the report is equal, not merely close."""
    plan, template = shared_plan(t, scheme), shared_template(t, m, scheme)
    h = sample_channels(template, seed)
    precoder = solve_precoder(build_zf_system(template, h))
    got = verify_nulling(precoder, h)
    assert got == verify_nulling_oracle(precoder, plan, entries_of(template, h), scheme=scheme)
    assert got.solvable


@pytest.mark.parametrize("scheme", ["s3", "s4", "s5"])
@pytest.mark.parametrize("t,m", [(t, m) for t in (1, 2, 3) for m in (1, 2, 3)])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_array_channels_match_dict_oracles(scheme, t, m, seed):
    """The single draw, the scattered system and the slot-wise check
    reproduce the dict-based chain exactly: the same channel per link in the
    same order, equal ``h_net`` and ``target``, equal report and trial."""
    plan, template = shared_plan(t, scheme), shared_template(t, m, scheme)
    h = sample_channels(template, seed)
    entries = sample_channels_oracle(plan, m, seed)
    assert list(entries_of(template, h)) == list(entries)
    assert np.array_equal(h, np.stack(list(entries.values())))

    system = build_zf_system(template, h)
    h_net, target = build_zf_system_oracle(plan, entries, m)
    assert np.array_equal(system.h_net, h_net)
    assert np.array_equal(system.template.target, target)

    precoder = solve_precoder(replace(system, h_net=h_net))
    report = verify_nulling_oracle(precoder, plan, entries, scheme=scheme)
    assert verify_nulling(solve_precoder(system), h) == report
    assert run_trial(template, seed) == TrialResult(
        seed, report.solvable, report.max_cross_residual, report.min_self_rank
    )


@pytest.mark.parametrize("scheme", ["s3", "s4", "s5"])
@pytest.mark.parametrize("t,m", [(t, m) for t in (1, 2) for m in (1, 2, 3)])
def test_cross_norm_filter_matches_unfiltered_stack(scheme, t, m):
    """Decomposing only the blocks that can hold the largest spectral norm
    gives the maximum over the whole stack, bit for bit."""
    plan, template = shared_plan(t, scheme), shared_template(t, m, scheme)
    for seed in range(4):
        h = sample_channels(template, seed)
        precoder = solve_precoder(build_zf_system(template, h))
        blocks = effective_channels_oracle(precoder, entries_of(template, h))
        heard = {FAST, SLOW} if scheme != "s5" else {FAST}
        cross = np.stack([g for (k, msg), g in blocks.items()
                          if k != msg and role_of(plan, k) in heard])
        assert max_spectral_norm(cross) == np.linalg.norm(cross, 2, axis=(-2, -1)).max()
        every = np.stack(list(blocks.values()))
        assert max_spectral_norm(every) == np.linalg.norm(every, 2, axis=(-2, -1)).max()


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
    assert max_spectral_norm(blocks) == np.linalg.norm(blocks, 2, axis=(-2, -1)).max()
    assert max_spectral_norm(blocks[:0]) == 0.0


def assert_s5_solve_matches_lstsq_oracle(system):
    """The factored s5 precoder is the per-message minimum-norm ``lstsq``
    solution, nulls every fast row and pins every own gain to I."""
    m = system.template.m
    b = solve_precoder(system).matrix
    ref = solve_s5_oracle(system)
    assert np.linalg.norm(b - ref) <= 1e-9 * np.linalg.norm(ref)

    lay = system.template.layout
    h = system.h_net.reshape(len(lay.ids), m, -1)
    h_fast = h[lay.fast_pos].reshape(-1, h.shape[-1])
    assert np.abs(h_fast @ b).max() <= 1e-9
    for j, i in enumerate(lay.slow_pos.tolist()):
        own = h[i] @ b[:, m * j : m * j + m]
        assert np.abs(own - np.eye(m)).max() <= 1e-9


@pytest.mark.parametrize(
    "t,m", [(t, m) for t in (1, 2, 3) for m in (1, 2)] + [(1, 3), (2, 3)]
)
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_factored_s5_solve_matches_lstsq_oracle(t, m, seed):
    template = shared_template(t, m, "s5")
    assert_s5_solve_matches_lstsq_oracle(build_zf_system(template, sample_channels(template, seed)))


def test_factored_s5_solve_matches_lstsq_oracle_at_benchmark_size():
    """The solve-bound s5 point of the ``zf_scale`` benchmark, t=4 and m=3:
    84 messages against 144 fast rows over 396 antennas."""
    template = shared_template(4, 3, "s5")
    system = build_zf_system(template, sample_channels(template, 20))
    lay = template.layout
    assert (len(lay.slow_pos), 3 * len(lay.fast_pos)) == (84, 144)
    assert_s5_solve_matches_lstsq_oracle(system)


def test_s5_solvable_at_t8():
    (result,) = run_trials(8, 1, trials=1, seed=3, scheme="s5")
    assert result.solvable
    assert result.min_self_rank == 1
    assert result.max_cross_residual <= 1e-9


def test_factored_s5_solve_without_fast_sectors():
    """With no fast rows the null space is the whole space and each message
    only pins its own gain."""
    template = shared_template(1, 2, "s5")
    system = build_zf_system(template, sample_channels(template, 4))
    no_fast = replace(template.layout, fast_pos=template.layout.fast_pos[:0])
    system = replace(system, template=replace(template, layout=no_fast))
    b = solve_precoder(system).matrix
    ref = solve_s5_oracle(system)
    assert np.linalg.norm(b - ref) <= 1e-9 * np.linalg.norm(ref)
