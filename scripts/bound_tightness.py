"""Measure how tight each distance Estrada bound is across graph families.

For every graph in a parametric family sweep this prints one CSV row with
the log-scale gap of each single-graph bound row of the catalog:
log(observed) - log(bound) for lower bounds and log(bound) - log(observed)
for upper bounds, so a gap of 0 means the bound is attained and growth
rates stay readable even when the raw values overflow floats.

Usage:
    python3 scripts/bound_tightness.py [--n-min N] [--n-max N] [--families a,b,c]
"""

import argparse
import math
import sys

from destrada.bounds import CATALOG_IDS, evaluate, reports_from
from destrada.graphs import GraphFamily, generate
from destrada.numeric import fmt15

# catalog rows in output column order; row T1_lower prints as gap_t1_lower
GAP_ROWS = ("T1_lower", "T2_lower", "T3_lower", "T1_upper", "T5_upper")

FAMILY_BUILDERS = {
    "complete": GraphFamily.complete,
    "cycle": GraphFamily.cycle,
    "path": GraphFamily.path,
    "star": GraphFamily.star,
    "balanced_bipartite": lambda n: GraphFamily.multipartite((n // 2, n - n // 2)),
}


def log_gaps(families: tuple[str, ...], n_min: int, n_max: int):
    for name in families:
        build = FAMILY_BUILDERS[name]
        for n in range(n_min, n_max + 1):
            ev = evaluate(generate(build(n)))
            reports = reports_from(ev)
            log_obs = ev.dee.log_value
            row = {"family": name, "n": n, "dee_log": log_obs}
            for tid in GAP_ROWS:
                r = reports[CATALOG_IDS.index(tid)]
                log_bound = r.bound_value if r.log_domain else math.log(r.bound_value)
                upper = tid.endswith("_upper")
                row["gap_" + tid.lower()] = log_bound - log_obs if upper else log_obs - log_bound
            yield row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-min", type=int, default=3)
    parser.add_argument("--n-max", type=int, default=40)
    parser.add_argument("--families", default=",".join(FAMILY_BUILDERS))
    args = parser.parse_args()
    families = tuple(args.families.split(","))
    for name in families:
        if name not in FAMILY_BUILDERS:
            parser.error(f"unknown family {name!r}")
    if args.n_min < 3 or args.n_max < args.n_min:
        parser.error("need 3 <= n-min <= n-max")

    cols = ["family", "n", "dee_log"] + ["gap_" + tid.lower() for tid in GAP_ROWS]
    print(",".join(cols))
    negative = []
    for row in log_gaps(families, args.n_min, args.n_max):
        print(",".join(
            row["family"] if c == "family" else
            str(row["n"]) if c == "n" else fmt15(row[c])
            for c in cols
        ))
        for c in cols[3:]:
            if row[c] < -1e-9:
                negative.append((row["family"], row["n"], c, row[c]))
    if negative:
        print(f"# {len(negative)} negative gaps (bound misses):", file=sys.stderr)
        for family, n, col, gap in negative:
            print(f"#   {family} n={n} {col} gap={fmt15(gap)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
