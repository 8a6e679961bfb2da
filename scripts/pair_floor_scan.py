"""Scan complement pairs for misses of the fixed pair floor on DEE(G) + DEE(co-G).

Enumerates every connected labeled graph whose complement is also
connected, takes each unordered {graph, complement} pair once, and
compares DEE(G) + DEE(co-G) against the claimed floor
2*exp(1.5*(n-1)) + 2*exp(-1.5*(n-1)) + 2*n - 4.  Prints a per-order
summary (pair count, minimum slack, failures) and lists every failing
pair.  At the default order cap the only failures are the six labeled
five-cycles, each of which is isomorphic to its own complement.

Usage:
    python3 scripts/pair_floor_scan.py [--n-min N] [--n-max N]
"""

import argparse
from dataclasses import dataclass

from destrada.bounds import CATALOG_IDS, T4_NG_LOWER, bound_report
from destrada.graphs import Graph, complement, connected_pair_masks, is_connected, to_graph6
from destrada.numeric import fmt15

PAIR_ROW = CATALOG_IDS.index(T4_NG_LOWER)


@dataclass
class OrderStats:
    pairs: int = 0
    min_slack: float = float("inf")
    failures: tuple[tuple[str, float], ...] = ()


def scan_order(n: int) -> OrderStats:
    stats = OrderStats()
    failures = []
    for mask in connected_pair_masks(n):
        g = Graph.from_pair_mask(n, mask)
        co = complement(g)
        if not is_connected(co) or co.pair_mask() < mask:
            continue
        # observed DEE(G) + DEE(co-G); holds allows a relative 1e-9 shortfall
        row = bound_report(g)[PAIR_ROW]
        stats.pairs += 1
        stats.min_slack = min(stats.min_slack, row.slack)
        if not row.holds:
            failures.append((to_graph6(g), row.slack))
    stats.failures = tuple(failures)
    return stats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-min", type=int, default=4)
    parser.add_argument("--n-max", type=int, default=6)
    args = parser.parse_args()
    if args.n_min < 4 or args.n_max < args.n_min or args.n_max > 8:
        parser.error("need 4 <= n-min <= n-max <= 8")

    total_failures = 0
    for n in range(args.n_min, args.n_max + 1):
        stats = scan_order(n)
        print(f"n={n}: {stats.pairs} complement pairs, "
              f"min slack {fmt15(stats.min_slack)}, "
              f"{len(stats.failures)} failures")
        for gid, slack in stats.failures:
            print(f"  fail {gid}  slack {fmt15(slack)}")
        total_failures += len(stats.failures)
    print(f"total failures: {total_failures}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
