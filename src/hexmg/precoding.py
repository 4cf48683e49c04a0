"""Numerical certification of the cluster-wide zero-forcing precoder.

For one interior cluster we draw every channel matrix from a continuous
distribution, assemble the linear system that forces each base-station sector
to observe only its own slow stream, solve it, and measure the residual
cross-interference by direct substitution.  One precoder column block per
slow message, spread over all active antennas of the cluster.

Schemes differ in where interference between slow streams is removed:

* ``s3`` / ``s4``: at the transmitter side; every active sector is a nulling
  target, so the system is square and generically solvable.
* ``s5``: the transmitter only nulls slow streams at fast sectors; the
  remaining slow-on-slow interference is subtracted at the receivers, which
  verification models by excluding those pairs from the residual.

Every trial works on the plan's ``origin_links`` layout, built once per
plan: a realization is one ``(L, m, m)`` array with a channel per link, drawn
in a single call, ``build_zf_system`` scatters it into the block matrix with
one indexed assignment, and the check adds each receiver's terms slot by slot
in link order.

Every s5 message shares the same fast-sector rows, so the solve factors that
block once: one reduced QR gives its row space, and the singular values of
its small triangular factor give its row rank.  Two matrix products project
every message's own rows onto the null space of the fast block at once, and
one batched SVD of the projected m-column blocks gives each message's rank
and its minimum-norm precoder block.  The consistency check takes the fast
rows of the whole precoder in one product and each message's own gain from
its diagonal block only.  The check substitutes the sampled channels into
the precoder as one stack of m x m effective channels; one SVD of the
intended blocks gives both their norms and their ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .clustering import (
    FAST,
    MODE_MIXED,
    MODE_SLOW_ONLY,
    ROLES,
    SLOW,
    ClusterPlan,
    LinkLayout,
    assign_messages,
    clusters,
)
from .lattice import build_network

SCHEME_MODES = {"s3": MODE_SLOW_ONLY, "s4": MODE_MIXED, "s5": MODE_MIXED}

#: default bound on the relative cross residual ``verify_nulling`` accepts
NULLING_TOL = 1e-9

_CONSISTENCY_TOL = 1e-8


class RankDeficientError(RuntimeError):
    """The constraint matrix lost generic rank (degenerate channel draw)."""


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    m: int
    #: (L, m, m): the channel of each link of ``plan.origin_links``, in its order
    h: np.ndarray


@dataclass(frozen=True, eq=False)
class ZFSystem:
    scheme: str
    m: int
    layout: LinkLayout             # the plan's ``origin_links``: one message per slow position
    h_net: np.ndarray              # (m*n_active, m*n_active) block channel matrix
    target: np.ndarray             # (m*n_active, m*n_messages) pinned effective channels
    n_unknowns: int
    n_constraints: int


@dataclass(frozen=True, eq=False)
class Precoder:
    m: int
    layout: LinkLayout
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


def sample_channels(plan: ClusterPlan, m: int, seed: int) -> ChannelRealization:
    """Deterministic standard-normal channel matrices for all links incident
    to the origin cluster (self links plus in-cluster interference links)."""
    if m < 1:
        raise ValueError("m must be positive")
    n_links = len(plan.origin_links.rx)
    return ChannelRealization(m, np.random.default_rng(seed).standard_normal((n_links, m, m)))


def build_zf_system(plan: ClusterPlan, ch: ChannelRealization, scheme: str) -> ZFSystem:
    """Assemble the nulling constraints for the origin cluster.

    Unknowns are all precoder entries.  Per message the constraints read
    ``sum_l H[k,l] B[l] = delta[k, message] * I`` over the constrained receive
    sectors k: all active sectors for s3/s4, fast sectors plus the message's
    own sector for s5.
    """
    if scheme not in SCHEME_MODES:
        raise ValueError(f"unknown precoding scheme {scheme!r}")
    if plan.roles is None:
        raise ValueError("plan has no assignment; call assign_messages first")
    if plan.mode != SCHEME_MODES[scheme]:
        raise ValueError(f"scheme {scheme} needs a {SCHEME_MODES[scheme]} assignment")

    lay = plan.origin_links
    if not len(lay.slow_pos):
        raise ValueError("cluster carries no slow message")
    m = ch.m
    n, n_slow = len(lay.ids), len(lay.slow_pos)
    h_net = np.zeros((n, m, n, m))
    h_net[lay.rx, :, lay.tx, :] = ch.h
    target = np.zeros((n, m, n_slow, m))
    target[lay.slow_pos, :, np.arange(n_slow), :] = np.eye(m)

    n_unknowns = m * m * n * n_slow
    if scheme == "s5":
        n_constraints = m * m * n_slow * (len(lay.fast_pos) + 1)
    else:
        n_constraints = m * m * n * n_slow
    return ZFSystem(
        scheme=scheme,
        m=m,
        layout=lay,
        h_net=h_net.reshape(m * n, m * n),
        target=target.reshape(m * n, m * n_slow),
        n_unknowns=n_unknowns,
        n_constraints=n_constraints,
    )


def solve_precoder(system: ZFSystem) -> Precoder:
    """Minimum-norm solve of the constraint system with pinned self gains.

    Raises :class:`RankDeficientError` when the constraint matrix is singular
    or the pinned gains are unreachable; for continuous channel laws this
    happens with probability zero.
    """
    m = system.m
    if system.scheme in ("s3", "s4"):
        try:
            b = np.linalg.solve(system.h_net, system.target)
        except np.linalg.LinAlgError as exc:
            raise RankDeficientError(str(exc)) from None
        resid = np.linalg.norm(system.h_net @ b - system.target)
        if not np.isfinite(b).all() or resid > _CONSISTENCY_TOL * max(
            1.0, float(np.linalg.norm(system.target))
        ):
            raise RankDeficientError(f"inconsistent system, residual {resid:.3e}")
        return Precoder(m=m, layout=system.layout, matrix=b)

    # s5: every message is nulled at the same fast rows H_F, so factor them
    # once.  The reduced QR H_F^T = q r gives H_F's singular values (those of
    # r) and its row space (q), so W = G^T - q (q^T G^T) projects the stacked
    # own rows G onto H_F's null space: W_j = N N^T G_j^T for any orthonormal
    # null-space basis N.  W_j has the singular values of A_j = G_j N, and
    # with W_j = U S V^T the minimum-norm solution of [H_F; G_j] B_j = [0; I]
    # is B_j = W_j (W_j^T W_j)^-1 = U S^-1 V^T, formed as its transpose
    # V S^-1 U^T, whose stack of m x n_ant rows is the precoder's transpose.
    lay = system.layout
    n_ant = m * len(lay.ids)
    h = system.h_net.reshape(len(lay.ids), m, n_ant)
    h_fast = h[lay.fast_pos].reshape(-1, n_ant)
    h_own = h[lay.slow_pos]
    try:
        q, r = np.linalg.qr(h_fast.T)
        sv = np.linalg.svd(r, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise RankDeficientError(str(exc)) from None
    eps = np.finfo(sv.dtype).eps
    if np.count_nonzero(sv > sv[:1] * max(h_fast.shape) * eps) < h_fast.shape[0]:
        raise RankDeficientError("row-rank deficiency at the fast sectors")
    g_t = h_own.reshape(-1, n_ant).T
    w = (g_t - q @ (q.T @ g_t)).reshape(n_ant, -1, m).transpose(1, 0, 2)
    try:
        u, s, vt = np.linalg.svd(w, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise RankDeficientError(str(exc)) from None
    cut = s[:, :1] * max(m, n_ant - h_fast.shape[0]) * eps
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
        raise RankDeficientError(f"inconsistent system, residual {resid.max():.3e}")
    return Precoder(m=m, layout=lay, matrix=b)


def verify_nulling(
    precoder: Precoder,
    plan: ClusterPlan,
    ch: ChannelRealization,
    tol: float = NULLING_TOL,
    scheme: str = "s4",
) -> NullingReport:
    """Check the scheme's nulling promises on the substituted channels.

    Every message-carrying sector must see its own stream at full rank m;
    every effective channel the scheme promises to remove (all unintended
    streams at slow sectors for s3/s4, the whole slow aggregate at fast
    sectors for s4/s5) must be negligible relative to the strongest intended
    gain.  The effective channels come from substituting the sampled
    ``ch.h`` into the precoder directly, never from the solved system, and
    are judged as one stack of m x m blocks.  The scheme must fit the
    plan's assignment mode, as in ``build_zf_system``.
    """
    if plan.roles is None:
        raise ValueError("plan has no assignment")
    if scheme not in SCHEME_MODES:
        raise ValueError(f"unknown precoding scheme {scheme!r}")
    if plan.mode != SCHEME_MODES[scheme]:
        raise ValueError(f"scheme {scheme} needs a {SCHEME_MODES[scheme]} assignment")
    lay = plan.origin_links
    m = precoder.m
    n, n_msg = len(lay.ids), len(lay.slow_pos)
    # the messages are named by the sector ids of their slow positions
    same = np.array_equal(precoder.layout.ids[precoder.layout.slow_pos], lay.ids[lay.slow_pos])
    if precoder.matrix.shape != (m * n, m * n_msg) or not same:
        raise ValueError("precoder does not match the plan's origin cluster")

    # Slot d holds every receiver's d-th link, so each receiver sums its
    # terms in link order: the rounding of a per-link loop, bit for bit.
    rows = precoder.matrix.reshape(n, m, -1)
    total = np.zeros_like(rows)
    for rx, tx, link in lay.slots:
        total[rx] += ch.h[link] @ rows[tx]
    geff = total.reshape(n, m, n_msg, m).transpose(0, 2, 1, 3)

    own = np.zeros((n, n_msg), dtype=bool)
    own[lay.slow_pos, np.arange(n_msg)] = True
    heard = (lay.roles == ROLES.index(FAST)) | ((lay.roles == ROLES.index(SLOW)) & (scheme != "s5"))
    # the one SVD behind both norm(g, 2) and matrix_rank(g), as numpy takes them
    sv = np.linalg.svd(geff[own], compute_uv=False)
    self_norms = sv.max(axis=-1, initial=0)
    ranks = np.count_nonzero(sv > self_norms[:, None] * (m * np.finfo(sv.dtype).eps), axis=-1)
    max_cross = _max_spectral_norm(geff[heard[:, None] & ~own])
    max_self = float(self_norms.max()) if self_norms.size else 0.0
    min_rank = int(ranks.min()) if ranks.size else 0
    if max_self == 0.0:
        residual = float("inf") if max_cross > 0 else 0.0
        return NullingReport(residual, min_rank, False)
    residual = max_cross / max_self
    return NullingReport(residual, min_rank, residual <= tol and min_rank == m)


def _max_spectral_norm(blocks: np.ndarray) -> float:
    """The largest ``norm(g, 2)`` over a stack of m x m blocks, 0.0 for none.
    As ``norm(g, 2) <= norm(g, 'fro') <= sqrt(m) norm(g, 2)``, a block whose
    Frobenius norm is below the largest over sqrt(m) cannot hold the maximum;
    the slack keeps any block that rounding could tie, so the result is exact."""
    if not blocks.size:
        return 0.0
    fro = np.linalg.norm(blocks, axis=(-2, -1))
    drop = fro < fro.max() / np.sqrt(blocks.shape[-1]) * (1 - 1e-12)
    return float(np.linalg.norm(blocks[~drop], 2, axis=(-2, -1)).max())


def certification_plan(t: int, scheme: str = "s4") -> ClusterPlan:
    """Smallest lattice holding one interior cluster, with the assignment
    mode the scheme expects."""
    if scheme not in SCHEME_MODES:
        raise ValueError(f"unknown precoding scheme {scheme!r}")
    net = build_network(max(3 * t, t + 3))
    return assign_messages(clusters(net, t), SCHEME_MODES[scheme])


def run_trial(
    plan: ClusterPlan, m: int, seed: int, scheme: str = "s4", tol: float = NULLING_TOL
) -> TrialResult:
    """One seeded end-to-end certification: sample, solve, substitute, check."""
    ch = sample_channels(plan, m, seed)
    system = build_zf_system(plan, ch, scheme)
    try:
        precoder = solve_precoder(system)
    except RankDeficientError:
        return TrialResult(seed, False, float("inf"), 0)
    report = verify_nulling(precoder, plan, ch, tol=tol, scheme=scheme)
    return TrialResult(
        seed, report.solvable, report.max_cross_residual, report.min_self_rank
    )


def run_trials(
    t: int, m: int, trials: int, seed: int = 0, scheme: str = "s4", tol: float = NULLING_TOL
) -> List[TrialResult]:
    """Independent seeded certification trials for one (t, m) design point."""
    plan = certification_plan(t, scheme)
    return [run_trial(plan, m, seed + i, scheme, tol) for i in range(trials)]
