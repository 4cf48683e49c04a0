"""Inner and outer multiplexing-gain regions, exactly.

Reproduces the headline comparison for m=3 antennas and delay budget d=20 at
cluster parameter t=4: with generous cooperation prelogs the achievable
region nearly fills the impossibility region, while starving the cooperation
links collapses both.  All vertices are exact rationals; an SVG of the four
boundaries is written to mg_regions.svg in the current directory.
"""

from fractions import Fraction
from pathlib import Path

from hexmg import (
    SystemParams,
    boundary_samples,
    inner_bound,
    is_subset,
    max_sum_mg,
    outer_bound,
)
from hexmg.cli import region_svg, decimal_str

cases = {
    "generous prelogs": SystemParams(m=3, mu_tx=10, mu_rx=10, d=20),
    "starved prelogs": SystemParams(m=3, mu_tx=Fraction(1, 10), mu_rx=Fraction(1, 5), d=20),
}

curves = []
for name, params in cases.items():
    inner = inner_bound(params, t_values=[4])
    outer = outer_bound(params)
    assert is_subset(inner, outer)
    print(f"{name} (mu_tx={params.mu_tx}, mu_rx={params.mu_rx}):")
    print("  inner vertices:",
          [(decimal_str(v.sf, 4), decimal_str(v.ss, 4)) for v in inner.vertices])
    print("  outer vertices:",
          [(decimal_str(v.sf, 4), decimal_str(v.ss, 4)) for v in outer.vertices])
    print(f"  max sum gain: inner {decimal_str(max_sum_mg(inner), 4)},"
          f" outer {decimal_str(max_sum_mg(outer), 4)}")
    curves.append((f"inner, {name}", boundary_samples(inner, 2)))
    curves.append((f"outer, {name}", boundary_samples(outer, 2)))
    print()

# with zero prelogs both bounds collapse onto the time-sharing triangle
zero = SystemParams(m=3, mu_tx=0, mu_rx=0, d=20)
tri = inner_bound(zero)
print("zero prelogs, inner vertices:",
      [(str(v.sf), str(v.ss)) for v in tri.vertices])

out = Path("mg_regions.svg")
out.write_text(region_svg(curves))
print(f"\nwrote {out}")
