#!/usr/bin/env python3
"""Chart the cutoff window for the variant chain at half filling.

Prints a CSV with the spectral upper bound on total variation and the
single-term lower-bound proxy (n-1)(1-2/n)^(2k) along a step grid
centered on (1/4) n log n.  The proxy exceeding 1 means the walk is
provably unmixed in the l2 sense; the upper bound falling below a small
threshold means it is mixed.  The two curves pin the transition to a
window of width O(n) around (1/4) n log n.

Usage: python3 scripts/cutoff_curve.py [--n 200] [--span 4.0] [--points 41]
"""

import argparse
import math
import sys

from urnmix import bounds
from urnmix.models import Family, ModelSpec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=200, help="even ball count")
    ap.add_argument("--span", type=float, default=4.0,
                    help="half-width of the c window around c = 0")
    ap.add_argument("--points", type=int, default=41)
    args = ap.parse_args()
    if args.n < 4 or args.n % 2:
        ap.error("--n must be even and at least 4")

    n = args.n
    model = ModelSpec(Family.VARIANT, n, n // 2)
    center = 0.25 * n * math.log(n)
    print(f"# n={n}, r={n // 2}, quarter-n-log-n = {center:.2f}", file=sys.stderr)
    print("k,c_offset,tv_upper,lower_proxy")
    cs = [-args.span + 2 * args.span * i / (args.points - 1) for i in range(args.points)]
    ks = [max(0, round(0.25 * n * (math.log(n) + c))) for c in cs]
    for c, p in zip(cs, bounds.bound_curve(model, ks)):
        up = min(1.0, p.tv_upper)
        proxy = bounds.leading_l2_term(model, p.k)
        print(f"{p.k},{c:.3f},{up:.6g},{proxy:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
