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
plan with everything that depends only on the cluster and the roles: the
links, each receiver's links by depth, and the indices of the own blocks
(the target's identity blocks) and of the cross blocks s3/s4 and s5 promise
to null.  What depends on m as well, where each channel entry lands in the
block matrix and the pinned target, is a ``SystemTemplate`` that
``run_trials`` builds once per design point and drops when it returns.  A
realization is one ``(L, m, m)`` array with a channel per link, drawn in a
single call, and ``build_zf_system`` scatters it into the block matrix with
one flat indexed assignment.  ``run_trials`` refuses a cluster of more than
``MAX_ANTENNAS`` antennas before it builds anything.

Every s5 message shares the same fast-sector rows, so the solve factors that
block once: one reduced QR gives its row space, and the singular values of
its small triangular factor give its row rank.  Two matrix products project
every message's own rows onto the null space of the fast block at once, and
one batched SVD of the projected m-column blocks gives each message's rank
and its minimum-norm precoder block.  The consistency check takes the fast
rows of the whole precoder in one product and each message's own gain from
its diagonal block only.

The check adds each receiver's terms depth by depth, so in link order: one
gather of every depth's channels, then one batched product per depth, the
self link's starting the sum.  Of the cross blocks it keeps only those whose
Frobenius norm could hold the largest spectral norm, and one SVD of the own
blocks and those gives the self gains, their ranks and the worst cross
talk; at m = 1 the absolute values give them, with no SVD.  A precoder
carrying the plan's own layout object skips the id comparison that one from
another plan object needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .clustering import ClusterPlan, LinkLayout, assign_messages, clusters
from .lattice import build_network
from .schemes import NULLING_TOL, SCHEME_MODES, RankDeficientError

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
class ChannelRealization:
    m: int
    #: (L, m, m): the channel of each link of ``plan.origin_links``, in its order
    h: np.ndarray


@dataclass(frozen=True, eq=False)
class SystemTemplate:
    """What every ZF system of one plan and m shares, whatever the draw:
    the flat index into ``h_net`` of each entry of ``ch.h``, in its order,
    and the read-only pinned target.  ``run_trials`` builds one per design
    point and drops it when it returns."""

    m: int
    layout: LinkLayout
    scatter: np.ndarray
    target: np.ndarray


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


def system_template(plan: ClusterPlan, m: int) -> SystemTemplate:
    """The draw-independent part of the ZF systems of ``plan`` at ``m``."""
    lay = plan.origin_links
    n, n_slow = len(lay.ids), len(lay.slow_pos)
    a = np.arange(m)
    # entry (k, a, b) of ch.h lands at row rx[k]·m + a, column tx[k]·m + b
    rows = (lay.rx[:, None] * m + a) * (m * n)
    scatter = (rows[:, :, None] + (lay.tx[:, None] * m + a)[:, None, :]).ravel()
    target = np.zeros((m * n, m * n_slow))
    target[(lay.slow_pos[:, None] * m + a).ravel(), np.arange(m * n_slow)] = 1.0
    target.flags.writeable = False
    return SystemTemplate(m, lay, scatter, target)


def build_zf_system(
    plan: ClusterPlan, ch: ChannelRealization, scheme: str,
    template: Optional[SystemTemplate] = None,
) -> ZFSystem:
    """Assemble the nulling constraints for the origin cluster.

    Unknowns are all precoder entries.  Per message the constraints read
    ``sum_l H[k,l] B[l] = delta[k, message] * I`` over the constrained receive
    sectors k: all active sectors for s3/s4, fast sectors plus the message's
    own sector for s5.  ``template``, from ``system_template(plan, ch.m)``,
    saves building the draw-independent part again.
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
    if template is None:
        template = system_template(plan, m)
    elif template.layout is not lay or template.m != m:
        raise ValueError("system template of another plan or m")
    n, n_slow = len(lay.ids), len(lay.slow_pos)
    h_net = np.zeros((m * n, m * n))
    h_net.ravel()[template.scatter] = ch.h.ravel()  # ravel of a fresh array: a view

    n_unknowns = m * m * n * n_slow
    if scheme == "s5":
        n_constraints = m * m * n_slow * (len(lay.fast_pos) + 1)
    else:
        n_constraints = m * m * n * n_slow
    return ZFSystem(
        scheme=scheme,
        m=m,
        layout=lay,
        h_net=h_net,
        target=template.target,
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
        r = (system.h_net @ b - system.target).ravel()
        resid = math.sqrt(r @ r)
        # one 1 per column of the target: its norm is the root of their
        # number; a non-finite b leaves a non-finite residual, which fails
        if not resid <= _CONSISTENCY_TOL * max(1.0, math.sqrt(system.target.shape[1])):
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
    if precoder.matrix.shape != (m * n, m * n_msg) or not (
        precoder.layout is lay
        or np.array_equal(precoder.layout.ids[precoder.layout.slow_pos], lay.ids[lay.slow_pos])
    ):
        raise ValueError("precoder does not match the plan's origin cluster")

    blocks = _effective_channels(lay, precoder.matrix.reshape(n, m, -1), ch.h)
    cross = lay.fast_cross if scheme == "s5" else lay.cross
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
    if not n_msg:
        return NullingReport(float("inf") if max_cross > 0 else 0.0, 0, False)
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


def certification_plan(t: int, scheme: str = "s4") -> ClusterPlan:
    """Smallest lattice holding one interior cluster, with the assignment
    mode the scheme expects."""
    if scheme not in SCHEME_MODES:
        raise ValueError(f"unknown precoding scheme {scheme!r}")
    net = build_network(max(3 * t, t + 3))
    return assign_messages(clusters(net, t), SCHEME_MODES[scheme])


def run_trial(
    plan: ClusterPlan, m: int, seed: int, scheme: str = "s4", tol: float = NULLING_TOL,
    template: Optional[SystemTemplate] = None,
) -> TrialResult:
    """One seeded end-to-end certification: sample, solve, substitute, check."""
    ch = sample_channels(plan, m, seed)
    system = build_zf_system(plan, ch, scheme, template)
    try:
        precoder = solve_precoder(system)
    except RankDeficientError:
        return TrialResult(seed, False, float("inf"), 0)
    report = verify_nulling(precoder, plan, ch, tol=tol, scheme=scheme)
    return TrialResult(
        seed, report.solvable, report.max_cross_residual, report.min_self_rank
    )


def check_trial_count(trials: int) -> None:
    """Refuse more than ``MAX_TRIALS`` trials for one design point."""
    if trials > MAX_TRIALS:
        raise ValueError(f"{trials} trials exceed the cap of {MAX_TRIALS}")


def run_trials(
    t: int, m: int, trials: int, seed: int = 0, scheme: str = "s4", tol: float = NULLING_TOL
) -> List[TrialResult]:
    """Independent seeded certification trials for one (t, m) design point;
    the trials share one ``system_template``.  A system past
    ``MAX_ANTENNAS``, or more than ``MAX_TRIALS`` trials, is refused before
    any lattice is built."""
    check_trial_count(trials)
    if t >= 1 and m >= 1 and m * (9 * t * t - 3 * t) > MAX_ANTENNAS:
        raise ValueError(f"t={t}, m={m} gives a cluster of {m * (9 * t * t - 3 * t)} antennas, "
                         f"past the cap of {MAX_ANTENNAS}")
    plan = certification_plan(t, scheme)
    template = system_template(plan, m)
    return [run_trial(plan, m, seed + i, scheme, tol, template) for i in range(trials)]
