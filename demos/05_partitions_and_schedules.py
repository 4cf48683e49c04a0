"""Cell partitions and the super-receiver decoding schedules.

The outer bound rests on two colourings of the cell set and on the claim
that a receiver observing part of the network can replay its cooperation and
decode everything.  This script prints the colour censuses against their
limiting densities, evaluates the resulting sum-gain caps, and validates the
decoding schedules step by step, including what breaks when the genie side
information is withheld.
"""

from fractions import Fraction

from hexmg import (
    SystemParams,
    bound_arithmetic,
    build_network,
    census_fractions,
    partition_four,
    partition_two,
    schedule_four_color,
    schedule_two_color,
    validate_schedule,
)
from hexmg.cli import decimal_str
from hexmg.schedules import GENIE, SchedulePlan

net = build_network(40)
params = SystemParams(m=3, mu_tx=Fraction(1, 10), mu_rx=Fraction(1, 5), d=20)

part2 = partition_two(net)
print("two-colour census (radius 40):")
for row in census_fractions(net, part2):
    print(f"  {row.color:<6} {row.count:>5}  fraction {decimal_str(row.fraction)}"
          f"  limit {decimal_str(row.limit)}")
cap2 = bound_arithmetic(part2, params)
print(f"  sum-gain cap from this census: {decimal_str(cap2, 4)}"
      f" (limit 1.7667 for these prelogs)\n")

part4 = partition_four(net, 3)
print("four-colour census, d=3 (radius 40):")
for row in census_fractions(net, part4):
    print(f"  {row.color:<6} {row.count:>5}  fraction {decimal_str(row.fraction)}"
          f"  limit {decimal_str(row.limit)}")
cap4 = bound_arithmetic(part4, params)
print(f"  sum-gain cap from this census: {decimal_str(cap4, 4)}"
      f" (limit {decimal_str(Fraction(75, 26), 4)})\n")

plan = schedule_two_color(d_t=2, d_r=2, d=4)
print("two-colour schedule, d_t=2, d_r=2:")
for i, step in enumerate(plan.steps):
    print(f"  {i}: [{step.kind}] {step.name}")
print("  verdict:", "VALID" if validate_schedule(plan).ok else "INVALID")

# withholding the genie stalls the reconstruction step
broken = SchedulePlan(
    steps=plan.steps, d_t=plan.d_t, d_r=plan.d_r, d=plan.d,
    initial=plan.initial - {GENIE}, goals=plan.goals,
)
report = validate_schedule(broken)
print("\nwithout the genie:")
for v in report.violations:
    print(f"  violation: {v}")

plan4 = schedule_four_color(d_t=1, d_r=2, d=3)
print("\nfour-colour schedule, d_t=1, d_r=2:",
      "VALID" if validate_schedule(plan4).ok else "INVALID")
decode_red = next(s for s in plan4.steps if s.kind == "DECODE")
print("red messages are decoded from:", sorted(decode_red.consumes))
