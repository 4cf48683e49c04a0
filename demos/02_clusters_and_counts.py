"""Master cells, silencing, and the per-cluster bookkeeping.

For a few cluster sizes t this script decomposes the network, then checks by
plain enumeration the quantities the cooperation schemes are priced on: each
interior cluster covers 3*t^2 cells and 9*t^2 - 3*t active users, carries
36*t^2 user-to-user conferencing links and 18*t^2 base-station links, and the
silenced fraction is 1/(3t).
"""

from hexmg import (
    MODE_MIXED,
    RX,
    TX,
    assign_messages,
    assignment_fractions,
    build_network,
    clusters,
    count_links,
    required_prelogs,
)

net = build_network(radius=18)
print(f"lattice: {len(net.cells)} cells\n")

for t in (1, 2, 3):
    plan = clusters(net, t)
    interior = plan.interior_masters()
    sizes = {
        len(cl.sectors) for cl in plan.clusters if cl.master in set(interior)
    }
    tx_links = count_links(plan, TX)
    rx_links = count_links(plan, RX)
    print(f"t={t}: {len(plan.masters)} masters, interior cluster sizes {sizes}")
    print(f"      links per cluster: tx {tx_links} (= 36t^2), rx {rx_links} (= 18t^2)")

    mixed = assign_messages(plan, MODE_MIXED)
    fr = assignment_fractions(mixed)
    print(
        "      interior fractions:"
        f" fast {float(fr['FAST']):.4f} (want {1/3:.4f}),"
        f" slow {float(fr['SLOW']):.4f} (want {(2*t-1)/(3*t):.4f}),"
        f" silent {float(fr['SILENT']):.4f} (want {1/(3*t):.4f})"
    )

    need = required_prelogs("s4", t, 3)
    msgs_tx = need.mu_tx * tx_links
    print(
        f"      mixed Tx-heavy scheme, m=3: {msgs_tx} Tx messages over {tx_links} links"
        f" -> per-link prelog {need.mu_tx} = {float(need.mu_tx):.4f}"
    )
    assert msgs_tx.denominator == 1  # a whole number of messages
    print()

# the two mixed schemes spend the same total prelog, split differently
for t in (1, 2, 4):
    s4 = required_prelogs("s4", t, 3)
    s5 = required_prelogs("s5", t, 3)
    assert s4.total == s5.total
    print(f"t={t}: prelog split s4 (tx {s4.mu_tx}, rx {s4.mu_rx})"
          f"  vs  s5 (tx {s5.mu_tx}, rx {s5.mu_rx}), same total {s4.total}")
