#!/usr/bin/env python3
"""Where a warm deform pass spends its time, stage by stage.

    python3 scripts/deform_stages.py [--seed N] [--passes P]

Builds the deform benchmark's instances at the seed (bench/workloads.py),
runs one untimed pass to fill the caches, then P timed passes.  Each stage
is a set of module functions of filmlab.deformation, wrapped from outside
with a timer and a call counter for the timed passes; nothing in src/ or
bench/ changes.  A function the module does not have is left out, so the
script also runs on older checkouts, where a stage may read "-".  Prints,
per stage, the median milliseconds and the calls of one pass, then the
pass itself and the part of it no stage covers.  Beside three stages
stands how much they made in one pass: the winner projection's sub-pieces
(the (sub-piece, image) pairs _project_cell_pieces returns), and the
simplices of R and of Q (before each becomes a Fraction chain).

The stages do not nest, except that "centre choice" holds clearance,
candidate scores and winner projection.  The finish (_finish_entry) is
split into R assembly (the tracks' toggle and dR), Q assembly and prune
(A + P + dR and its void part), identity (also the dipolyhedron's closure
check dB + C = gamma on the cone start), masses, support and report
chains (R and Q as Fraction chains).  Where a checkout builds R, dR or
M(R) inside _track_chain, they count as R assembly.

The cyclic garbage collector is run once and then switched off for the
timed passes, and switched back on after them: where its collections
fall moved the stage times by 10-13% from run to run.
"""

import argparse
import gc
import os
import statistics
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402

from filmlab import deformation  # noqa: E402

STAGES = (
    ("clip", ("_clip_to_grid",)),
    ("clearance", ("_clears",)),
    ("candidate scores", ("_cone_mass",)),
    ("winner projection", ("_project_cell_pieces",)),
    ("snap", ("_snap",)),
    ("R assembly", ("_track_chain", "_boundary")),
    ("Q assembly, prune", ("embed_grid_chain", "_grid_simplices", "_prune_zero_groups")),
    ("identity", ("chains_equal_mod2", "_vanishes")),
    ("masses", ("chain_mass", "mass_grid", "homogeneous_mass", "gram_mass")),
    ("support", ("_support_dist_sq",)),
    ("report chains", ("_fraction_chain",)),
)
CHOICE = ("centre choice", ("_choose_center",))
# what a stage made, counted off its function's result: (stage, label, size)
SIZES = {
    "_project_cell_pieces": ("winner projection", "sub-pieces", lambda out: sum(map(len, out))),
    "_track_chain": ("R assembly", "R simplices", len),
    "_prune_zero_groups": ("Q assembly, prune", "Q simplices", len),
}


def timed(fn, tally, size=None):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            tally[0] += time.perf_counter() - start
            tally[1] += 1
        if size is not None:
            tally[2] += size(out)
        return out

    return wrapper


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=101, help="workload seed (default 101)")
    ap.add_argument("--passes", type=int, default=5, help="timed passes (default 5)")
    args = ap.parse_args()
    if args.passes < 1:
        ap.error("--passes must be at least 1")

    instances = workloads.deform_instances(args.seed, ROOT, None)
    for inst in instances:
        inst.call()

    tallies = {name: [0.0, 0, 0] for name, _ in STAGES + (CHOICE,)}
    present = set()
    labels = {}
    for name, attrs in STAGES + (CHOICE,):
        for attr in attrs:
            if hasattr(deformation, attr):
                size = None
                if attr in SIZES:
                    _, labels[name], size = SIZES[attr]
                fn = timed(getattr(deformation, attr), tallies[name], size)
                setattr(deformation, attr, fn)
                present.add(name)
    per_pass = {name: [] for name in tallies}
    calls, sizes = {}, {}
    walls, others = [], []
    gc.collect()
    gc.disable()
    try:
        for _ in range(args.passes):
            for tally in tallies.values():
                tally[:] = [0.0, 0, 0]
            start = time.perf_counter()
            for inst in instances:
                inst.call()
            walls.append(time.perf_counter() - start)
            for name, (seconds, count, size) in tallies.items():
                per_pass[name].append(seconds)
                calls[name], sizes[name] = count, size
            others.append(walls[-1] - sum(tallies[name][0] for name, _ in STAGES))
    finally:
        gc.enable()

    print(f"deform, seed {args.seed}, median of {args.passes} warm passes")
    print(f"{'stage':<20} {'ms':>9} {'calls':>7}")
    for name, _ in STAGES:
        if name not in present:
            print(f"{name:<20} {'-':>9} {'-':>7}")
            continue
        ms = statistics.median(per_pass[name]) * 1e3
        made = f"  {sizes[name]} {labels[name]}" if name in labels else ""
        print(f"{name:<20} {ms:9.1f} {calls[name]:7d}{made}")
    choice = statistics.median(per_pass[CHOICE[0]]) * 1e3
    print(f"{CHOICE[0] + ' (all)':<20} {choice:9.1f} {calls[CHOICE[0]]:7d}")
    print(f"{'pass':<20} {statistics.median(walls) * 1e3:9.1f}")
    print(f"{'other':<20} {statistics.median(others) * 1e3:9.1f}")


if __name__ == "__main__":
    main()
