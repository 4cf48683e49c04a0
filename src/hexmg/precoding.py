"""Numerical certification of the cluster-wide zero-forcing precoder.

A design point is a cluster parameter t, a stream count m and a scheme.
``system_template(t, m, scheme)`` is its one validated form: it refuses an
unknown scheme, m < 1 and a cluster past ``MAX_ANTENNAS`` antennas before
any lattice is built, then lays out the origin cluster of
``certification_plan(t, scheme)`` (``LinkLayout``), where each channel
entry lands in the block matrix and the pinned target.  Every cluster has
the origin's layout, so the template stands for all of them.  A trial's
objects carry only what its draw adds to the template:

* ``sample_channels`` draws one standard-normal m x m channel per link, in
  the layout's link order, from ``default_rng(seed)``: a ``(links, m, m)``
  array, fixed by the seed;
* ``build_zf_system`` forces each message-carrying sector to see only its
  own stream.  For ``s3`` / ``s4`` every active sector is a nulling target,
  so the system is square.  ``s5`` nulls the slow streams only at the fast
  sectors and subtracts slow-on-slow interference at the receivers;
* ``solve_precoder`` gives the minimum-norm precoder with pinned self
  gains, or raises ``RankDeficientError`` for a singular or inconsistent
  system;
* ``verify_nulling`` substitutes the drawn channels into the precoder and
  judges what the precoder's scheme promises: full rank m for each message
  at its own sector, and every promised cross block at most ``tol`` times
  the strongest own gain.  Channels of another design point, or a matrix
  of another shape, are refused.

``run_trials`` builds one template per design point and runs one
``run_trial`` per seed, after refusing more than ``MAX_TRIALS`` trials.
Its results do not depend on how the stack of blocks is batched: the
effective channels add each receiver's terms in link order, and every norm
and rank equals numpy's ``norm(g, 2)`` and ``matrix_rank(g)`` of that
block, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .clustering import FAST, ROLES, SLOW, ClusterPlan, assign_messages, clusters
from .lattice import build_network
from .schemes import NULLING_TOL, SCHEME_MODES, RankDeficientError, positive_int

_CONSISTENCY_TOL = 1e-8

#: Largest accepted antenna count m(9t² − 3t) of the certified cluster.  A
#: trial peaks at about eight dense copies of the square ``h_net`` (s3,
#: whose target is square too), so the largest accepted system, t = 20 and
#: m = 1 with 3,540 antennas, peaks near 0.8 GB.
MAX_ANTENNAS = 3600

#: Largest accepted trial count of ``run_trials``, which keeps every
#: ``TrialResult``: about 20 MB of them at the cap.
MAX_TRIALS = 100_000

_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True, eq=False)
class LinkLayout:
    """The links of the origin master's cluster, in the order the trials
    draw and sum their channels, and the index arrays every trial reads.

    A position indexes ``ids``, the members' ascending sector ids.  Link k
    runs from transmitter ``tx[k]`` to receiver ``rx[k]``; each receiver's
    links are consecutive, its self link first, then its in-cluster ``nbr``
    links by ascending id.  Message j is carried by the sector at position
    ``slow_pos[j]``.
    """

    ids: np.ndarray
    rx: np.ndarray
    tx: np.ndarray
    #: ``(depth, position)``: the receiver's d-th link and that link's
    #: transmitter; past the receiver's last link, ``len(rx)`` and the
    #: receiver itself
    links_by_depth: np.ndarray
    tx_by_depth: np.ndarray
    slow_pos: np.ndarray
    fast_pos: np.ndarray
    #: ``position * len(slow_pos) + message`` of every message's own block,
    #: by message; of the cross blocks at every position; and of the cross
    #: blocks at the fast positions only
    own: np.ndarray
    cross: np.ndarray
    fast_cross: np.ndarray


@dataclass(frozen=True, eq=False)
class SystemTemplate:
    """One validated design point and what every ZF system of it shares,
    whatever the draw: the origin cluster's layout, the flat index into
    ``h_net`` of each entry of the channels, in their order, and the
    read-only pinned target."""

    scheme: str
    m: int
    layout: LinkLayout
    scatter: np.ndarray
    target: np.ndarray


@dataclass(frozen=True, eq=False)
class ZFSystem:
    template: SystemTemplate
    h_net: np.ndarray              # (m*n_active, m*n_active) block channel matrix
    n_unknowns: int
    n_constraints: int


@dataclass(frozen=True, eq=False)
class Precoder:
    template: SystemTemplate
    matrix: np.ndarray             # (m*n_active, m*n_messages)


@dataclass(frozen=True)
class NullingReport:
    max_cross_residual: float
    min_self_rank: int
    solvable: bool


@dataclass(frozen=True)
class TrialResult:
    seed: int
    solvable: bool
    max_cross_residual: float
    min_self_rank: int


def _origin_layout(plan: ClusterPlan) -> LinkLayout:
    """The link layout of the assigned ``plan``'s cluster that owns the
    origin master cell."""
    net = plan.net
    label = plan.cluster_ids[net.id_of((0, 0, 0))]
    ids = np.flatnonzero(plan.cluster_ids == label)
    n = len(ids)
    # column 0 is the self link, then the in-cluster neighbours by
    # ascending position, padded with n
    nbr = net.nbr[ids]
    inside = (nbr >= 0) & (plan.cluster_ids[nbr] == label)
    ends = np.sort(np.where(inside, np.searchsorted(ids, nbr), n), axis=1)
    ends = np.column_stack([np.arange(n), ends])
    valid = ends < n
    rx, depth = np.nonzero(valid)
    depths = slice(depth.max() + 1)
    links = np.where(valid, np.cumsum(valid).reshape(valid.shape) - 1, len(rx))
    tx = np.where(valid, ends, np.arange(n)[:, None])
    roles = plan.roles[ids]
    slow_pos = np.flatnonzero(roles == ROLES.index(SLOW))
    fast_pos = np.flatnonzero(roles == ROLES.index(FAST))
    own = np.zeros((n, len(slow_pos)), dtype=bool)
    own[slow_pos, np.arange(len(slow_pos))] = True
    fast = (roles == ROLES.index(FAST))[:, None]
    return LinkLayout(
        ids, rx, ends[valid], links[:, depths].T.copy(), tx[:, depths].T.copy(),
        slow_pos, fast_pos, slow_pos * len(slow_pos) + np.arange(len(slow_pos)),
        np.flatnonzero(~own), np.flatnonzero(fast & ~own),
    )


def system_template(t: int, m: int, scheme: str) -> SystemTemplate:
    """The design point ``(t, m, scheme)``.  The scheme, t, m and the
    ``MAX_ANTENNAS`` cap are checked before any lattice is built."""
    if scheme not in SCHEME_MODES:
        raise ValueError(f"unknown precoding scheme {scheme!r}")
    positive_int("t", t)
    antennas = positive_int("m", m) * (9 * t * t - 3 * t)
    if antennas > MAX_ANTENNAS:
        raise ValueError(f"t={t}, m={m} gives a cluster of {antennas} antennas, "
                         f"past the cap of {MAX_ANTENNAS}")
    lay = _origin_layout(certification_plan(t, scheme))
    n, n_slow = len(lay.ids), len(lay.slow_pos)
    a = np.arange(m)
    # entry (k, a, b) of the channels lands at row rx[k]·m + a, column tx[k]·m + b
    rows = (lay.rx[:, None] * m + a) * (m * n)
    scatter = (rows[:, :, None] + (lay.tx[:, None] * m + a)[:, None, :]).ravel()
    target = np.zeros((m * n, m * n_slow))
    target[(lay.slow_pos[:, None] * m + a).ravel(), np.arange(m * n_slow)] = 1.0
    target.flags.writeable = False
    return SystemTemplate(scheme, m, lay, scatter, target)


def sample_channels(template: SystemTemplate, seed: int) -> np.ndarray:
    """Deterministic standard-normal channel matrices, ``(links, m, m)``, for
    all links incident to the origin cluster (self links plus in-cluster
    interference links), in the template's link order."""
    m = template.m
    return np.random.default_rng(seed).standard_normal((len(template.layout.rx), m, m))


def _check_channels(template: SystemTemplate, h: np.ndarray) -> None:
    if h.shape != (len(template.layout.rx), template.m, template.m):
        raise ValueError("channel realization of another design point")


def build_zf_system(template: SystemTemplate, h: np.ndarray) -> ZFSystem:
    """Assemble the nulling constraints for the origin cluster.

    Unknowns are all precoder entries.  Per message the constraints read
    ``sum_l H[k,l] B[l] = delta[k, message] * I`` over the constrained receive
    sectors k: all active sectors for s3/s4, fast sectors plus the message's
    own sector for s5.
    """
    _check_channels(template, h)
    lay, m = template.layout, template.m
    n, n_slow = len(lay.ids), len(lay.slow_pos)
    h_net = np.zeros((m * n, m * n))
    h_net.ravel()[template.scatter] = h.ravel()  # ravel of a fresh array: a view

    n_unknowns = m * m * n * n_slow
    if template.scheme == "s5":
        n_constraints = m * m * n_slow * (len(lay.fast_pos) + 1)
    else:
        n_constraints = m * m * n * n_slow
    return ZFSystem(template, h_net, n_unknowns, n_constraints)


def solve_precoder(system: ZFSystem) -> Precoder:
    """Minimum-norm solve of the constraint system with pinned self gains.

    Raises :class:`RankDeficientError` when the constraint matrix is singular
    or the pinned gains are unreachable; for continuous channel laws this
    happens with probability zero.
    """
    template = system.template
    lay, m, target = template.layout, template.m, template.target
    if template.scheme in ("s3", "s4"):
        try:
            b = np.linalg.solve(system.h_net, target)
        except np.linalg.LinAlgError as exc:
            raise RankDeficientError(str(exc)) from None
        r = (system.h_net @ b - target).ravel()
        resid = math.sqrt(r @ r)
        # one 1 per column of the target: its norm is the root of their
        # number; a non-finite b leaves a non-finite residual, which fails
        if not resid <= _CONSISTENCY_TOL * max(1.0, math.sqrt(target.shape[1])):
            raise RankDeficientError(f"inconsistent system, residual {resid:.3e}")
        return Precoder(template, b)

    # s5: every message is nulled at the same fast rows H_F, so factor them
    # once.  The reduced QR H_F^T = q r gives H_F's singular values (those of
    # r) and its row space (q), so W = G^T - q (q^T G^T) projects the stacked
    # own rows G onto H_F's null space: W_j = N N^T G_j^T for any orthonormal
    # null-space basis N.  W_j has the singular values of A_j = G_j N, and
    # with W_j = U S V^T the minimum-norm solution of [H_F; G_j] B_j = [0; I]
    # is B_j = W_j (W_j^T W_j)^-1 = U S^-1 V^T, formed as its transpose
    # V S^-1 U^T, whose stack of m x n_ant rows is the precoder's transpose.
    n_ant = m * len(lay.ids)
    h = system.h_net.reshape(len(lay.ids), m, n_ant)
    h_fast = h[lay.fast_pos].reshape(-1, n_ant)
    h_own = h[lay.slow_pos]
    try:
        q, r = np.linalg.qr(h_fast.T)
        sv = np.linalg.svd(r, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise RankDeficientError(str(exc)) from None
    if np.count_nonzero(sv > sv[:1] * max(h_fast.shape) * _EPS) < h_fast.shape[0]:
        raise RankDeficientError("row-rank deficiency at the fast sectors")
    g_t = h_own.reshape(-1, n_ant).T
    w = (g_t - q @ (q.T @ g_t)).reshape(n_ant, -1, m).transpose(1, 0, 2)
    try:
        u, s, vt = np.linalg.svd(w, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise RankDeficientError(str(exc)) from None
    cut = s[:, :1] * max(m, n_ant - h_fast.shape[0]) * _EPS
    short = np.count_nonzero(s > cut, axis=-1) < m
    if short.any():
        msg = lay.ids[lay.slow_pos[np.argmax(short)]]
        raise RankDeficientError(f"row-rank deficiency for message at sector id {msg}")
    blocks_t = (vt.transpose(0, 2, 1) / s[:, None, :]) @ u.transpose(0, 2, 1)
    b = np.ascontiguousarray(blocks_t.reshape(-1, n_ant).T)
    fast_res = (h_fast @ b).reshape(-1, len(lay.slow_pos), m)
    own_res = h_own @ blocks_t.transpose(0, 2, 1) - np.eye(m)
    resid = np.sqrt(np.einsum("kja,kja->j", fast_res, fast_res)
                    + np.einsum("jab,jab->j", own_res, own_res))
    if not (resid <= _CONSISTENCY_TOL).all():
        j = np.argmax(resid)  # the first NaN, if any
        raise RankDeficientError(f"inconsistent system for message at sector id "
                                 f"{lay.ids[lay.slow_pos[j]]}, residual {resid[j]:.3e}")
    return Precoder(template, b)


def verify_nulling(precoder: Precoder, h: np.ndarray, tol: float = NULLING_TOL) -> NullingReport:
    """Check the nulling promises of the precoder's scheme on the channels
    ``h`` of its design point.

    Every message-carrying sector must see its own stream at full rank m;
    every effective channel the scheme promises to remove (all unintended
    streams at slow sectors for s3/s4, the whole slow aggregate at fast
    sectors for s4/s5) must be negligible relative to the strongest intended
    gain.  The effective channels come from substituting ``h`` into the
    precoder directly, never from the solved system, and are judged as one
    stack of m x m blocks.
    """
    template = precoder.template
    _check_channels(template, h)
    lay, m = template.layout, template.m
    n, n_msg = len(lay.ids), len(lay.slow_pos)
    if precoder.matrix.shape != (m * n, m * n_msg):
        raise ValueError("precoder matrix of another design point")

    blocks = _effective_channels(lay, precoder.matrix.reshape(n, m, -1), h)
    cross = lay.fast_cross if template.scheme == "s5" else lay.cross
    if m == 1:
        # a 1 x 1 block's singular value is its absolute value, as LAPACK
        # gives it: no SVD and no Frobenius prefilter
        g = np.abs(blocks.ravel())
        sv_self, max_cross = g[lay.own][:, None], float(g[cross].max(initial=0.0))
    else:
        # one SVD of the own blocks and of the cross blocks that may hold the
        # largest spectral norm: norm(g, 2) and matrix_rank(g) as numpy takes
        # them.  A block's squared Frobenius norm sums its columns' squares,
        # then its m columns by one matrix-vector product.
        fro2 = (np.einsum("kab,kab->kb", blocks, blocks).reshape(-1, m) @ np.ones(m))[cross]
        keep = cross[_spectral_candidates(fro2, m)]
        pos, msg = np.divmod(np.concatenate([lay.own, keep]), n_msg)
        sv = np.linalg.svd(blocks.reshape(n, m, n_msg, m)[pos, :, msg, :], compute_uv=False)
        sv_self, max_cross = sv[:n_msg], float(sv[n_msg:, 0].max(initial=0.0))
    self_norms = sv_self[:, 0]
    max_self = float(self_norms.max())
    cut = self_norms * (m * _EPS)
    min_rank = int((sv_self > cut[:, None]).sum(axis=-1).min())
    if max_self == 0.0:
        residual = float("inf") if max_cross > 0 else 0.0
        return NullingReport(residual, min_rank, False)
    residual = max_cross / max_self
    return NullingReport(residual, min_rank, residual <= tol and min_rank == m)


def _effective_channels(lay: LinkLayout, rows: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Per position k, ``(m, n_msg * m)``: the channels ``h`` of k's links
    times their transmitters' precoder ``rows``, summed in link order.

    Each receiver adds its terms depth by depth, so in link order: the
    rounding of a per-link loop, bit for bit.  Depth 0 is every receiver's
    self link, so its product starts the sum and needs no gather of rows;
    past a receiver's last link it adds a zero channel's product, a signed
    zero.  An m = 1 product is one rounded multiplication, as the 1 x 1
    matrix product gives it.
    """
    m = rows.shape[1]
    hd = np.concatenate([h, np.zeros((1, m, m))])[lay.links_by_depth]
    mul = np.multiply if m == 1 else np.matmul
    total = mul(hd[0], rows)
    for d in range(1, len(hd)):
        total += mul(hd[d], rows[lay.tx_by_depth[d]])
    return total


def _spectral_candidates(fro2: np.ndarray, m: int) -> np.ndarray:
    """Which m x m blocks, given their squared Frobenius norms ``fro2``, may
    hold the largest ``norm(g, 2)`` of the stack.  As ``norm(g, 2) <=
    norm(g, 'fro') <= sqrt(m) norm(g, 2)``, a block whose Frobenius norm is
    below the largest over sqrt(m) cannot; the slack keeps any block that
    rounding could tie, so the maximum over the candidates is the maximum
    over the stack, bit for bit."""
    return ~(fro2 < fro2.max(initial=0.0) / m * (1 - 2e-12))


def certification_plan(t: int, scheme: str) -> ClusterPlan:
    """Smallest lattice holding one interior cluster, with the assignment
    mode the scheme expects."""
    if scheme not in SCHEME_MODES:
        raise ValueError(f"unknown precoding scheme {scheme!r}")
    net = build_network(max(3 * positive_int("t", t), t + 3))
    return assign_messages(clusters(net, t), SCHEME_MODES[scheme])


def run_trial(template: SystemTemplate, seed: int, tol: float = NULLING_TOL) -> TrialResult:
    """One seeded end-to-end certification: sample, solve, substitute, check."""
    h = sample_channels(template, seed)
    system = build_zf_system(template, h)
    try:
        precoder = solve_precoder(system)
    except RankDeficientError:
        return TrialResult(seed, False, float("inf"), 0)
    report = verify_nulling(precoder, h, tol)
    return TrialResult(
        seed, report.solvable, report.max_cross_residual, report.min_self_rank
    )


def check_trial_count(trials: int) -> None:
    """Refuse a trial count that is not a positive int, or more than
    ``MAX_TRIALS`` trials for one design point."""
    if positive_int("trials", trials) > MAX_TRIALS:
        raise ValueError(f"{trials} trials exceed the cap of {MAX_TRIALS}")


def run_trials(
    t: int, m: int, trials: int, *, scheme: str, seed: int = 0, tol: float = NULLING_TOL
) -> List[TrialResult]:
    """Independent seeded certification trials for one (t, m) design point,
    all on one ``system_template``.  Too many trials, or a design point the
    template refuses, are refused before any lattice is built."""
    check_trial_count(trials)
    template = system_template(t, m, scheme)
    return [run_trial(template, seed + i, tol) for i in range(trials)]
