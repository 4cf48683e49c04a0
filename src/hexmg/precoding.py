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

Every s5 message shares the same fast-sector rows, so the solve factors that
block once (one SVD gives its row rank and a null-space basis) and then
solves one small m x m system per message, all messages in one batch.  The
check substitutes the sampled channels into the precoder as one stack of
m x m effective channels and takes their norms and ranks in one call each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .clustering import (
    FAST,
    MODE_MIXED,
    MODE_SLOW_ONLY,
    ROLES,
    SLOW,
    Cluster,
    ClusterPlan,
    assign_messages,
    clusters,
)
from .lattice import Sector, build_network

SCHEME_MODES = {"s3": MODE_SLOW_ONLY, "s4": MODE_MIXED, "s5": MODE_MIXED}

_CONSISTENCY_TOL = 1e-8


class RankDeficientError(RuntimeError):
    """The constraint matrix lost generic rank (degenerate channel draw)."""


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    seed: int
    m: int
    #: (receiving sector, transmitting sector) -> m x m real matrix
    entries: Dict[Tuple[Sector, Sector], np.ndarray]


@dataclass(frozen=True, eq=False)
class ZFSystem:
    scheme: str
    m: int
    active: Tuple[Sector, ...]
    messages: Tuple[Sector, ...]   # slow sectors, one message each
    fast: Tuple[Sector, ...]
    h_net: np.ndarray              # (m*n_active, m*n_active) block channel matrix
    target: np.ndarray             # (m*n_active, m*n_messages) pinned effective channels
    n_unknowns: int
    n_constraints: int


@dataclass(frozen=True, eq=False)
class Precoder:
    m: int
    active: Tuple[Sector, ...]
    messages: Tuple[Sector, ...]
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


def origin_cluster(plan: ClusterPlan) -> Cluster:
    """The cluster anchored at the origin master."""
    for cl in plan.clusters:
        if cl.master == (0, 0):
            return cl
    raise ValueError("plan has no cluster at the origin")


def sample_channels(plan: ClusterPlan, m: int, seed: int) -> ChannelRealization:
    """Deterministic standard-normal channel matrices for all links incident
    to the origin cluster (self links plus in-cluster interference links)."""
    if m < 1:
        raise ValueError("m must be positive")
    ids = origin_cluster(plan).sectors.ids
    inside = set(ids.tolist())
    sectors = plan.net.sectors
    rng = np.random.default_rng(seed)
    entries: Dict[Tuple[Sector, Sector], np.ndarray] = {}
    # sector ids sort like sectors, so this is the ascending tuple order
    for k, row in zip(ids.tolist(), plan.net.nbr[ids].tolist()):
        for l in [k] + sorted(j for j in row if j in inside):
            entries[(sectors[k], sectors[l])] = rng.standard_normal((m, m))
    return ChannelRealization(seed=seed, m=m, entries=entries)


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

    cl = origin_cluster(plan)
    active = tuple(cl.sectors)  # ascending
    if not active:
        raise ValueError("empty cluster")
    roles = [ROLES[code] for code in plan.roles[cl.sectors.ids].tolist()]
    slow = tuple(s for s, role in zip(active, roles) if role == SLOW)
    fast = tuple(s for s, role in zip(active, roles) if role == FAST)
    if not slow:
        raise ValueError("cluster carries no slow message")

    m = ch.m
    n = len(active)
    idx = {s: i for i, s in enumerate(active)}
    h_net = np.zeros((m * n, m * n))
    for (k, l), h in ch.entries.items():
        h_net[m * idx[k] : m * idx[k] + m, m * idx[l] : m * idx[l] + m] = h
    target = np.zeros((m * n, m * len(slow)))
    for j, s in enumerate(slow):
        i = idx[s]
        target[m * i : m * i + m, m * j : m * j + m] = np.eye(m)

    n_unknowns = m * m * n * len(slow)
    if scheme == "s5":
        n_constraints = m * m * len(slow) * (len(fast) + 1)
    else:
        n_constraints = m * m * n * len(slow)
    return ZFSystem(
        scheme=scheme,
        m=m,
        active=active,
        messages=slow,
        fast=fast,
        h_net=h_net,
        target=target,
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
        return Precoder(m=m, active=system.active, messages=system.messages, matrix=b)

    # s5: every message is nulled at the same fast rows, so factor them once.
    # N spans the null space of the fast block H_F; message j then needs the
    # minimum-norm y_j with (H_own_j N) y_j = I, and B_j = N y_j is the
    # minimum-norm solution of [H_F; H_own_j] B_j = [0; I].
    idx = {s: i for i, s in enumerate(system.active)}
    h = system.h_net.reshape(len(system.active), m, -1)
    h_fast = h[[idx[s] for s in system.fast]].reshape(-1, h.shape[-1])
    h_own = h[[idx[s] for s in system.messages]]
    _, sv, vt = np.linalg.svd(h_fast)
    rank = np.count_nonzero(sv > sv[:1] * max(h_fast.shape) * np.finfo(sv.dtype).eps)
    if rank < h_fast.shape[0]:
        raise RankDeficientError("row-rank deficiency at the fast sectors")
    null = vt[rank:].T
    a = h_own @ null
    short = np.linalg.matrix_rank(a) < m
    if short.any():
        msg = system.messages[int(np.argmax(short))]
        raise RankDeficientError(f"row-rank deficiency for message {msg}")
    try:
        y = np.linalg.solve(a @ a.transpose(0, 2, 1), a).transpose(0, 2, 1)
    except np.linalg.LinAlgError as exc:
        raise RankDeficientError(str(exc)) from None
    blocks = null @ y
    res = np.concatenate([h_fast @ blocks, h_own @ blocks - np.eye(m)], axis=1)
    resid = np.linalg.norm(res, axis=(1, 2))
    if not (resid <= _CONSISTENCY_TOL).all():
        raise RankDeficientError(f"inconsistent system, residual {resid.max():.3e}")
    b = blocks.transpose(1, 0, 2).reshape(m * len(system.active), -1)
    return Precoder(m=m, active=system.active, messages=system.messages, matrix=b)


def verify_nulling(
    precoder: Precoder,
    plan: ClusterPlan,
    ch: ChannelRealization,
    tol: float = 1e-9,
    scheme: str = "s4",
) -> NullingReport:
    """Check the scheme's nulling promises on the substituted channels.

    Every message-carrying sector must see its own stream at full rank m;
    every effective channel the scheme promises to remove (all unintended
    streams at slow sectors for s3/s4, the whole slow aggregate at fast
    sectors for s4/s5) must be negligible relative to the strongest intended
    gain.  The effective channels come from substituting the sampled
    ``ch.entries`` into the precoder directly, never from the solved system,
    and are judged as one stack of m x m blocks.
    """
    if plan.roles is None:
        raise ValueError("plan has no assignment")
    if scheme not in SCHEME_MODES:
        raise ValueError(f"unknown precoding scheme {scheme!r}")
    m = precoder.m
    n, n_msg = len(precoder.active), len(precoder.messages)
    if precoder.matrix.shape != (m * n, m * n_msg):
        raise ValueError("dimension mismatch in effective channel")
    idx = {s: i for i, s in enumerate(precoder.active)}

    # Slot d holds every receiver's d-th incoming link, so each receiver sums
    # its terms in the entries' insertion order: the rounding of a per-link
    # loop, bit for bit.
    slots: List[List[Tuple[int, int, np.ndarray]]] = []
    depth = [0] * n
    for (rx, tx), h in ch.entries.items():
        i = idx[rx]
        if depth[i] == len(slots):
            slots.append([])
        slots[depth[i]].append((i, idx[tx], h))
        depth[i] += 1
    rows = precoder.matrix.reshape(n, m, -1)
    total = np.zeros_like(rows)
    for slot in slots:
        rx, tx, hs = zip(*slot)
        total[list(rx)] += np.stack(hs) @ rows[list(tx)]
    geff = total.reshape(n, m, n_msg, m).transpose(0, 2, 1, 3)

    own = np.zeros((n, n_msg), dtype=bool)
    own[[idx[msg] for msg in precoder.messages], np.arange(n_msg)] = True
    roles = plan.roles[[plan.net.sector_id[k] for k in precoder.active]]
    heard = (roles == ROLES.index(FAST)) | ((roles == ROLES.index(SLOW)) & (scheme != "s5"))
    self_gains = geff[own]
    self_norms = np.linalg.norm(self_gains, 2, axis=(-2, -1))
    ranks = np.linalg.matrix_rank(self_gains)
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


def certification_plan(t: int, m: int, scheme: str = "s4") -> ClusterPlan:
    """Smallest lattice holding one interior cluster, with the assignment
    mode the scheme expects."""
    if scheme not in SCHEME_MODES:
        raise ValueError(f"unknown precoding scheme {scheme!r}")
    net = build_network(max(3 * t, t + 3), antennas_per_user=m)
    return assign_messages(clusters(net, t), SCHEME_MODES[scheme])


def run_trial(
    plan: ClusterPlan, m: int, seed: int, scheme: str = "s4", tol: float = 1e-9
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
    t: int, m: int, trials: int, seed: int = 0, scheme: str = "s4", tol: float = 1e-9
) -> List[TrialResult]:
    """Independent seeded certification trials for one (t, m) design point."""
    plan = certification_plan(t, m, scheme)
    return [run_trial(plan, m, seed + i, scheme, tol) for i in range(trials)]
