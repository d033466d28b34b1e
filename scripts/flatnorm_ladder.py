#!/usr/bin/env python3
"""Time flat norms of one small chain in grids of growing size.

For k = 2 the chain is the boundary of a side-2 block of 3-cells, for
k = 1 the boundary of a side-2 square of faces, alone near the centre of
an n x n x n grid.  Each rung prints k, n, the best of --repeats wall
times of flat_norm(P, "bnb") in milliseconds, and the answer's status
and value.  The answer does not depend on n, so neither should the time.

    python3 scripts/flatnorm_ladder.py [--sizes 3,8,16,24,64] [--repeats 3]
"""

import argparse
import itertools
import os
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from filmlab.flatnorm import flat_norm
from filmlab.grid import GridCell, GridSpec, boundary_grid, chain_of


def block_boundary(n: int, k: int):
    """The boundary of a side-2 block of (k+1)-cells near the centre of an n^3 grid."""
    grid = GridSpec(Fraction(1), (Fraction(0),) * 3, (n, n, n))
    corner = (n - 2) // 2
    axes = tuple(range(k + 1))
    offsets = itertools.product(*[(0, 1) if a in axes else (0,) for a in range(3)])
    cells = [GridCell(tuple(corner + o for o in offset), axes) for offset in offsets]
    return boundary_grid(chain_of(grid, k + 1, cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="3,8,16,24,64", help="comma-separated grid sides n")
    parser.add_argument("--repeats", type=int, default=3, help="timed calls per rung; the best is printed")
    args = parser.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]
    print("k      n        ms  status       value")
    for k in (1, 2):
        for n in sizes:
            P = block_boundary(n, k)
            best = None
            for _ in range(max(args.repeats, 1)):
                start = time.perf_counter()
                cert = flat_norm(P, "bnb")
                elapsed = time.perf_counter() - start
                best = elapsed if best is None else min(best, elapsed)
            print(f"{k}  {n:5d}  {1000 * best:8.1f}  {cert.status:11s}  {cert.value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
