"""Zero-forcing precoder certification at desk scale.

Draws random channels for one interior cluster, solves for the cluster-wide
precoder, and substitutes it back: every sector's intended stream must come
through at full rank while everything the scheme promises to null stays at
numerical round-off.  Repeats over seeds to exercise genericity.
"""

from hexmg import (
    build_zf_system,
    run_trials,
    sample_channels,
    solve_precoder,
    system_template,
    verify_nulling,
)

# one trial, spelled out: the design point (t, m, scheme) is checked once
t, m = 1, 2
template = system_template(t, m, scheme="s4")
h = sample_channels(template, seed=2024)
system = build_zf_system(template, h)
lay = template.layout  # the origin cluster's members by sector id
print(f"t={t}, m={m}: {len(lay.ids)} active users,"
      f" {len(lay.slow_pos)} slow messages, {len(lay.fast_pos)} fast sectors")
print(f"unknowns {system.n_unknowns}, constraints {system.n_constraints} (square)")

precoder = solve_precoder(system)
report = verify_nulling(precoder, h)
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

template = system_template(1, 1, scheme="s4")
h = sample_channels(template, seed=0)
# h holds one channel per link of template.layout; silence every link into
# the cluster's first member
h[template.layout.rx == 0] = 0.0
try:
    solve_precoder(build_zf_system(template, h))
    print("degenerate draw went unnoticed (unexpected)")
except RankDeficientError as exc:
    print(f"degenerate draw correctly rejected: {exc}")
