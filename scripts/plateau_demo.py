#!/usr/bin/env python3
"""Solve the two reference spanning instances and export their meshes.

Runs the unit square and the 2x2 patch end to end: cone start, exact
weight minimisation, per-direction shadow areas, the shadow bound, and
a refined-grid re-run of the patch, which the 3-cell labelling solves.
Writes OFF/OBJ meshes next to the chosen output prefix.
"""

import argparse
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from filmlab.grid import GridCell, GridSpec, boundary_grid, chain_of, mass_grid
from filmlab.meshes import write_obj, write_off
from filmlab.plateau import (
    cone_energy,
    initial_cone_solution,
    minimize_weight,
    plateau_problem,
)


def square_curve(grid, z, lo, hi):
    cells = []
    for i in range(lo, hi):
        cells += [
            GridCell((i, lo, z), (0,)),
            GridCell((i, hi, z), (0,)),
            GridCell((lo, i, z), (1,)),
            GridCell((hi, i, z), (1,)),
        ]
    return chain_of(grid, 1, cells)


def report(name, problem):
    print(f"== {name} ==")
    print(f"curve mass     M(gamma) = {mass_grid(problem.gamma)}")
    print(f"energy budget  lam = {problem.lam},  working cube side = {problem.lam_prime}")
    e = cone_energy(problem.gamma)
    print(f"origin cone    E = {e}")
    start = initial_cone_solution(problem)
    verdict = "feasible" if start.membership.member else "infeasible"
    print(f"cone start     {verdict}, film weight {mass_grid(start.pair.B)}")
    sol = minimize_weight(problem)
    print(
        f"least weight   W = {sol.weight}  ({sol.optimality}, {sol.method}, "
        f"{len(sol.pair.B.cells)} faces, {sol.nodes} nodes)"
    )
    for d in sol.feasibility.spanning.directions:
        if d.admissible and d.region_area is not None:
            print(f"  shadow {d.direction.label():>3}: region area {d.region_area}")
    print(f"shadow bound   W >= {sol.shadow_bound}")
    print()
    return sol


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="plateau_demo_out", help="output directory for meshes")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    g_unit = GridSpec(
        origin=(Fraction(-3, 2), Fraction(-3, 2), Fraction(-1)),
        epsilon=Fraction(1),
        dims=(3, 3, 2),
    )
    unit = plateau_problem(square_curve(g_unit, 1, 1, 2))
    sol1 = report("unit square", unit)

    g_patch = GridSpec(
        origin=(Fraction(-2), Fraction(-2), Fraction(-2)),
        epsilon=Fraction(1),
        dims=(4, 4, 4),
    )
    patch = plateau_problem(square_curve(g_patch, 2, 1, 3))
    sol4 = report("2x2 patch", patch)

    # same patch on a half-step grid: an injective direction proves that no
    # mass part but 0 spans, so the 3-cell labelling certifies the minimiser
    g_fine = GridSpec(
        origin=(Fraction(-2), Fraction(-2), Fraction(-2)),
        epsilon=Fraction(1, 2),
        dims=(8, 8, 8),
    )
    fine = plateau_problem(square_curve(g_fine, 4, 2, 6))
    report("2x2 patch, eps = 1/2", fine)

    for name, sol in (("unit", sol1), ("patch", sol4)):
        film = os.path.join(args.out, f"{name}-film.off")
        curve = os.path.join(args.out, f"{name}-curve.obj")
        write_off(sol.pair.B, film)
        write_obj(boundary_grid(sol.pair.B) + sol.pair.C, curve)
        print(f"wrote {film}")
        print(f"wrote {curve}")


if __name__ == "__main__":
    main()
