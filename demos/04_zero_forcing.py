"""Zero-forcing precoder certification at desk scale.

Draws random channels for one interior cluster, solves for the cluster-wide
precoder, and substitutes it back: every sector's intended stream must come
through at full rank while everything the scheme promises to null stays at
numerical round-off.  Repeats over seeds to exercise genericity.
"""

from hexmg import (
    build_zf_system,
    certification_plan,
    run_trials,
    sample_channels,
    solve_precoder,
    verify_nulling,
)

# one trial, spelled out
t, m = 1, 2
plan = certification_plan(t, scheme="s4")
ch = sample_channels(plan, m, seed=2024)
system = build_zf_system(plan, ch, scheme="s4")
lay = system.layout  # the origin cluster's members by sector id
print(f"t={t}, m={m}: {len(lay.ids)} active users,"
      f" {len(lay.slow_pos)} slow messages, {len(lay.fast_pos)} fast sectors")
print(f"unknowns {system.n_unknowns}, constraints {system.n_constraints} (square)")

precoder = solve_precoder(system)
report = verify_nulling(precoder, plan, ch, scheme="s4")
print(f"single trial: solvable={report.solvable},"
      f" min self rank {report.min_self_rank},"
      f" relative cross residual {report.max_cross_residual:.2e}")

# batches across schemes and design points
for scheme in ("s3", "s4", "s5"):
    for t, m in ((1, 1), (1, 2), (2, 2)):
        results = run_trials(t, m, trials=25, seed=7, scheme=scheme)
        worst = max(r.max_cross_residual for r in results)
        ok = sum(r.solvable for r in results)
        print(f"scheme {scheme} t={t} m={m}: {ok}/25 solvable,"
              f" worst residual {worst:.2e}")

# a degenerate draw (all-zero channels into one receiver) is flagged, not hidden
from hexmg import RankDeficientError

plan = certification_plan(1, scheme="s4")
ch = sample_channels(plan, 1, seed=0)
# ch.h holds one channel per link of plan.origin_links; silence every link
# into the cluster's first member
ch.h[plan.origin_links.rx == 0] = 0.0
try:
    solve_precoder(build_zf_system(plan, ch, "s4"))
    print("degenerate draw went unnoticed (unexpected)")
except RankDeficientError as exc:
    print(f"degenerate draw correctly rejected: {exc}")
