"""Every check that ``hexmg verify-all`` reports, stated once.

Each group is a generator of :class:`Check` records.  The CLI formats the
records into the verify-all report and the acceptance suite asserts that
each one passed.  The paper's reference values (region vertices, link and
message counts, limiting fractions, tolerances) live here and nowhere else.

:func:`all_checks` runs the groups on two cores: one child made by
``os.fork`` runs the ZF group while the calling process runs the other five,
and the records come back in the same report order as a run in one process.
So verify-all needs ``os.fork``, which Linux has.  The five groups build no
cluster plan: the role censuses read ``clustering.role_codes`` and the link
counts ``clustering.cluster_link_count``.  The two sides take about the same
CPU time, and on a two-vCPU host they slow each other down, so verify-all's
wall time follows the CPU time of both sides, not only the longer one.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import replace
from fractions import Fraction
from typing import Iterator, List, NamedTuple, Tuple

from . import clustering, lattice, partitions, precoding, regions, schedules
from .regions import decimal_str

#: Largest accepted gap between an interior census and its limiting density.
FRACTION_TOL = Fraction(1, 50)

#: Smallest ``verify-all`` radius: ``fraction_checks`` takes its role census at t <= 4 (radius >= 3t).
MIN_RADIUS = 12


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


def links_per_cluster(t: int) -> Tuple[int, int]:
    """The paper's (tx, rx) conferencing link counts of one cluster."""
    return 36 * t * t, 18 * t * t


def fig6_checks() -> Iterator[Check]:
    """Reference region vertices for m=3, d=20, t=4 to four decimals."""
    large = regions.SystemParams(m=3, mu_tx=10, mu_rx=10, d=20)
    small = regions.SystemParams(m=3, mu_tx=Fraction(1, 10), mu_rx=Fraction(1, 5), d=20)
    cases = [
        ("outer bound, large prelogs", regions.outer_bound(large),
         [("0.0000", "0.0000"), ("0.0000", "2.9964"), ("1.5000", "0.0000"), ("1.5000", "1.4964")]),
        ("outer bound, small prelogs", regions.outer_bound(small),
         [("0.0000", "0.0000"), ("0.0000", "1.7667"), ("1.5000", "0.0000"), ("1.5000", "0.2667")]),
        ("inner bound, large prelogs", regions.inner_bound(large, [4]),
         [("0.0000", "0.0000"), ("0.0000", "2.7500"), ("1.0000", "1.7500"), ("1.5000", "0.0000")]),
        ("inner bound, small prelogs", regions.inner_bound(small, [4]),
         [("0.0000", "0.0000"), ("0.0000", "1.5536"), ("1.4792", "0.0727"), ("1.5000", "0.0000")]),
    ]
    for name, region, want in cases:
        got = sorted((decimal_str(v.sf, 4), decimal_str(v.ss, 4)) for v in region.vertices)
        yield Check(f"region: {name}", got == want, f"vertices {got}")


#: The paper's (tx, rx) conferencing message counts of one cluster,
#: ``scheme -> f(m, t)``.
MESSAGES_PER_CLUSTER = {
    "s3": lambda m, t: (12 * m * t * t * (2 * t - 1), 0),
    "s4": lambda m, t: (2 * m * t * (8 * t * t + 3 * t - 2), 3 * m * (3 * t * t - 1)),
    "s5": lambda m, t: (6 * m * t * (2 * t - 1), m * (8 * t ** 3 + 6 * t * t + t - 3)),
}


def counting_checks() -> Iterator[Check]:
    """Enumerated link counts; messages as the library's prelogs times the
    enumerated links against the paper's counts, for s4 and then s3–s5; the
    s4/s5 duality and the s2/s3 mirror, for t=1..4.  The links are counted
    on one lattice, with no cluster plan."""
    net = lattice.build_network(24)  # radius >= 3t at every t: one lattice counts for all four
    for t in (1, 2, 3, 4):
        tx = clustering.cluster_link_count(net, t, clustering.TX)
        rx = clustering.cluster_link_count(net, t, clustering.RX)
        want_tx, want_rx = links_per_cluster(t)
        yield Check(
            f"counting: links per cluster t={t}",
            tx == want_tx and rx == want_rx,
            f"tx {tx}/{want_tx}, rx {rx}/{want_rx}",
        )
        needs = {
            (s, m): regions.required_prelogs(s, t, m) for m in (1, 3) for s in ("s2", "s3", "s4", "s5")
        }
        sent = {key: (need.mu_tx * tx, need.mu_rx * rx) for key, need in needs.items()}
        yield Check(
            f"counting: conferencing messages t={t}",
            all(sent["s4", m] == MESSAGES_PER_CLUSTER["s4"](m, t) for m in (1, 3)),
            "; ".join(f"m={m}: tx {sent['s4', m][0]}, rx {sent['s4', m][1]}" for m in (1, 3)),
        )
        ok_prelogs = all(
            sent[s, m] == MESSAGES_PER_CLUSTER[s](m, t) for m in (1, 3) for s in ("s3", "s4", "s5")
        )
        for m in (1, 3):
            r2, r3, r4, r5 = (needs[s, m] for s in ("s2", "s3", "s4", "s5"))
            ok_prelogs &= r4.total == r5.total and (r2.mu_tx, r2.mu_rx) == (r3.mu_rx, r3.mu_tx)
        yield Check(
            f"counting: prelog formulas and s4/s5 duality t={t}",
            ok_prelogs,
            f"sum {needs['s4', 3].total}",
        )


def _role_error(net: lattice.Network, t: int) -> Fraction:
    fr = clustering.role_census(net, clustering.role_codes(net, t, clustering.MODE_MIXED))
    want = {
        clustering.SILENT: Fraction(1, 3 * t),
        clustering.FAST: Fraction(1, 3),
        clustering.SLOW: Fraction(2 * t - 1, 3 * t),
    }
    return max(abs(fr[k] - want[k]) for k in want)


def _census_error(net: lattice.Network, part: partitions.Partition) -> Fraction:
    return max(r.abs_error for r in partitions.census_fractions(net, part))


#: The paper's caps on the per-user sum multiplexing gain, ``partition kind
#: -> f(params)``: the two-colour super receiver's conferencing cap and the
#: four-colour reconstruction's delay cap.  The outer bound is the smaller.
SUM_GAIN_CAPS = {
    partitions.TWO: lambda p: Fraction(p.m, 2) + 2 * p.mu_rx / 3 + 4 * p.mu_tx / 3,
    partitions.FOUR: lambda p: p.m * (1 - Fraction(1, 2 * (1 + p.d + p.d * p.d))),
}


def fraction_checks(radius: int) -> Iterator[Check]:
    """Role and colour censuses within FRACTION_TOL of their limits, with
    errors that shrink from radius 20 to 40; there the caps the partitions
    prove on the finite lattice approach the paper's caps from above."""
    net = lattice.build_network(radius)
    for t in (1, 2, 3, 4):
        worst = _role_error(net, t)
        yield Check(
            f"fractions: roles t={t} radius={radius}",
            worst <= FRACTION_TOL,
            f"worst error {decimal_str(worst)}",
        )
    params = regions.SystemParams(m=3, mu_tx=Fraction(1, 10), mu_rx=Fraction(1, 5), d=3)
    four = lambda n: partitions.partition_four(n, params.d)
    for name, builder in (("two-colour", partitions.partition_two), ("four-colour d=3", four)):
        worst = _census_error(net, builder(net))
        yield Check(
            f"fractions: {name} radius={radius}",
            worst <= FRACTION_TOL,
            f"worst error {decimal_str(worst)}",
        )

    shrink_ok = True
    details = []
    net_s, net_b = lattice.build_network(20), lattice.build_network(40)
    for t in (1, 2):
        e_s, e_b = _role_error(net_s, t), _role_error(net_b, t)
        shrink_ok &= e_b < e_s
        details.append(f"t={t}: {decimal_str(e_s)} -> {decimal_str(e_b)}")
    for kind, builder in ((partitions.TWO, partitions.partition_two), (partitions.FOUR, four)):
        part_s, part_b = builder(net_s), builder(net_b)
        e_s, e_b = _census_error(net_s, part_s), _census_error(net_b, part_b)
        cap_s, cap_b = (partitions.bound_arithmetic(part, params) for part in (part_s, part_b))
        cap = SUM_GAIN_CAPS[kind](params)
        shrink_ok &= e_b < e_s and cap < cap_b < cap_s
        details.append(f"{kind}: {decimal_str(e_s)} -> {decimal_str(e_b)}, "
                       f"cap {decimal_str(cap_s)} -> {decimal_str(cap_b)} (paper {decimal_str(cap)})")
    yield Check("fractions: error shrinks radius 20 -> 40", shrink_ok, "; ".join(details))


def zf_checks(trials: int, seed: int) -> Iterator[Check]:
    """Every seeded s4 trial yields a precoder that nulls within tolerance at
    full rank, for t, m in {1, 2}."""
    for t in (1, 2):
        for m in (1, 2):
            results = precoding.run_trials(t, m, trials, seed=seed, scheme="s4")
            n_ok = sum(1 for r in results if r.solvable)
            worst = max(r.max_cross_residual for r in results)
            yield Check(
                f"zf: t={t} m={m} scheme=s4 trials={trials}",
                n_ok == len(results) == trials,
                f"{n_ok}/{len(results)} solvable, worst residual {worst:.3e}",
            )


def schedule_checks() -> Iterator[Check]:
    """Both algorithms validate for every delay split; deleting a decode or
    reconstruct step, or the genie, breaks either plan."""
    for d in (3, 20):
        ok = True
        for d_t in range(0, d + 1):
            d_r = d - d_t
            p1 = schedules.schedule_two_color(d_t, d_r, d)
            p2 = schedules.schedule_four_color(d_t, d_r, d)
            ok &= schedules.validate_schedule(p1).ok
            ok &= schedules.validate_schedule(p2).ok
        yield Check(f"schedules: all splits validate d={d}", ok, f"{d + 1} splits x 2 algorithms")

    ok_del = True
    for builder in (schedules.schedule_two_color, schedules.schedule_four_color):
        plan = builder(2, 2, 4)
        for i, step in enumerate(plan.steps):
            if step.kind in (schedules.DECODE, schedules.RECONSTRUCT):
                ok_del &= not schedules.validate_schedule(plan.without_step(i)).ok
        no_genie = replace(plan, initial=plan.initial - {schedules.GENIE})
        ok_del &= not schedules.validate_schedule(no_genie).ok
    yield Check("schedules: decode/reconstruct deletions and genie removal break the plan", ok_del, "")


def sum_gain_drops(m: int, d: int) -> List[Tuple[Fraction, Fraction]]:
    """The abstract's two claims for even d and full cooperation, as the
    inner bound's boundary segments ``(fast gain at its end, sum gain lost
    per unit of fast gain)``: up to fast gain m/3 the sum gain falls by only
    1/(T(T−1)) at T = d/2 ("hardly decreased"); from m/3 to m/2 by (3t−2)/t
    at t = (d−2)/2, which tends to 3 (the abstract's "3Δ")."""
    big_t, t = d // 2, (d - 2) // 2
    return [(Fraction(m, 3), Fraction(1, big_t * (big_t - 1))),
            (Fraction(m, 2), Fraction(3 * t - 2, t))]


def structural_checks() -> Iterator[Check]:
    """The outer bound at the paper's caps with the inner bound inside it,
    both monotone in the prelogs, and the mixed and all-slow points sharing
    their sum gain, with the sum-gain slopes the abstract states."""
    ok_sub, ok_mono = True, True
    mus = [Fraction(0), Fraction(1, 10), Fraction(1, 5), Fraction(1), Fraction(10)]
    for m in (1, 2, 3):
        for d in (4, 8, 12, 20):
            diagonal: List[List[regions.Region]] = []  # (inner, outer) at mu_tx = mu_rx
            for mu_tx in mus:
                for mu_rx in mus:
                    p = regions.SystemParams(m=m, mu_tx=mu_tx, mu_rx=mu_rx, d=d)
                    bounds = [regions.inner_bound(p), regions.outer_bound(p)]
                    ok_sub &= regions.is_subset(*bounds)
                    # the outer bound's largest slow gain is its sum cap
                    top = max(v.ss for v in bounds[1].vertices)
                    ok_sub &= top == min(cap(p) for cap in SUM_GAIN_CAPS.values())
                    if mu_tx == mu_rx:
                        diagonal.append(bounds)
            prev: List[regions.Region] = []
            for bounds in diagonal:
                for before, after in zip(prev, bounds):
                    ok_mono &= regions.is_subset(before, after)
                prev = bounds
    yield Check("structural: outer bound at the paper's caps, inner bound inside it, over sweep", ok_sub, "")
    yield Check("structural: bounds monotone in prelogs", ok_mono, "")

    ok_sum = True
    big = regions.SystemParams(m=3, mu_tx=100, mu_rx=100, d=40)
    for t in regions.t_ranges(regions.FAMILY_MIXED, 40)[0]:
        ps = regions.scheme_point(regions.FAMILY_SLOW, t, big)
        pm = regions.scheme_point(regions.FAMILY_MIXED, t, big)
        ok_sum &= ps.sf + ps.ss == pm.sf + pm.ss == Fraction(3 * (3 * t - 1), 3 * t)
    details = []
    for d in (20, 40, 100):
        chain = regions.upper_right_chain(regions.inner_bound(replace(big, d=d)))
        drops = [(b.sf, (a.sf + a.ss - b.sf - b.ss) / (b.sf - a.sf)) for a, b in zip(chain, chain[1:])]
        ok_sum &= drops == sum_gain_drops(big.m, d)
        details.append(f"d={d}: " + ", ".join(str(drop) for _, drop in drops))
    yield Check("structural: mixed and all-slow points share the sum gain", ok_sum,
                "sum gain drops " + "; ".join(details))


def _zf_child(read_fd: int, write_fd: int, zf_trials: int, seed: int) -> None:
    """The forked child: pickle ``(True, records)`` or ``(False, exception)``
    into the pipe and leave through ``os._exit``, never returning into the
    caller's frames (no atexit handlers, no flush of inherited buffers)."""
    status = 1
    try:
        os.close(read_fd)  # so a write fails once the parent stops reading
        try:
            result = (True, list(zf_checks(zf_trials, seed)))
        except Exception as exc:
            result = (False, exc)
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(result))
        status = 0
    finally:
        os._exit(status)


def all_checks(radius: int, zf_trials: int, seed: int) -> Iterator[Check]:
    """Every verify-all group, in report order.

    One forked child runs the ZF group while this process runs the other
    five.  The fork, the five groups and the reaping of the child all happen
    before the first record is yielded, so an abandoned generator leaves no
    child behind.  A child's exception is raised here again, with its type
    and message; a child that sends no result raises ``RuntimeError``.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        _zf_child(read_fd, write_fd, zf_trials, seed)
    os.close(write_fd)
    pipe = open(read_fd, "rb")
    try:
        head = [*fig6_checks(), *counting_checks(), *fraction_checks(radius)]
        tail = [*schedule_checks(), *structural_checks()]
        payload = pipe.read()
    finally:
        pipe.close()  # a child still writing gets EPIPE and exits
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0 or not payload:
        raise RuntimeError(f"the zf check child exited with status {status} and sent no result")
    ok, result = pickle.loads(payload)
    if not ok:
        raise result
    yield from head
    yield from result
    yield from tail
