#!/usr/bin/env python3
"""Cold-start wall time of each filmlab subcommand, import time included.

Each subcommand runs on the fixtures as `python -m filmlab.cli ...` in
--runs fresh processes that compile filmlab from source
(PYTHONDONTWRITEBYTECODE=1; a src/filmlab/__pycache__ is refused, since
Python would read it).  One more process records the modules the
subcommand loaded.  The script prints the median cumulative time of
`import filmlab.cli` under -X importtime, then per subcommand the median
wall time in milliseconds, the filmlab modules loaded and, on a second
line after "+", the other modules loaded beyond those of a bare
`python -c pass` of the same interpreter, so a heavy standard-library
import shows next to the filmlab modules.

    python3 scripts/cli_coldstart.py [--runs 7]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
FIX = os.path.join(ROOT, "fixtures")

# writes the names in sys.modules, space-separated, as the last line of stderr
BARE = "import sys; sys.stderr.write(' '.join(sys.modules) + '\\n')\n"
RECORD = (
    "import sys\n"
    "from filmlab.cli import main\n"
    "try:\n"
    "    code = main(sys.argv[1:])\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "sys.stderr.write(' '.join(sys.modules) + '\\n')\n"
    "sys.exit(code)\n"
)


def loaded_modules(argv: list, env: dict, cwd: str) -> set:
    done = run(argv, env, cwd, subprocess.PIPE)
    return set(done.stderr.decode().splitlines()[-1].split())


def commands(pair: str) -> list:
    fix = lambda name: os.path.join(FIX, f"{name}.json")  # noqa: E731
    return [
        ("--help", ["--help"]),
        ("mass", ["mass", fix("square")]),
        ("boundary", ["boundary", fix("square")]),
        ("flatnorm", ["flatnorm", fix("square")]),
        ("eflat", ["eflat", pair]),
        ("natural-norm", ["natural-norm", fix("square"), "--levels", "1"]),
        ("mass (simplicial)", ["mass", fix("tilted_triangle")]),
        ("cone", ["cone", fix("cone"), "--apex", "1,1,1"]),
        ("clamp", ["clamp", fix("cone"), "--radius", "1/2"]),
        ("pushforward", ["pushforward", fix("patch2x2"), "--matrix", "1,0,0,0,1,0,0,0,1",
                         "--lipschitz", "1"]),
        ("restrict", ["restrict", fix("tilted_triangle"), "--box", "0,0,0,1/2,1/2,1/2"]),
        ("span-check", ["span-check", fix("cone"), "--curve", fix("square_curve")]),
        ("deform", ["deform", fix("tilted_triangle"), "--eps", "1", "--centers", "4"]),
        ("plateau", ["plateau", "--curve", fix("square_curve")]),
        ("diagnostics", ["diagnostics", pair]),
    ]


def write_pair(directory: str) -> str:
    """The pair (0, square curve) on the curve's grid, as a filmlab/1 document."""
    with open(os.path.join(FIX, "square_curve.json")) as fh:
        curve = json.load(fh)
    film = {"schema": curve["schema"], "type": "grid-chain", "grid": curve["grid"], "k": 2,
            "cells": []}
    path = os.path.join(directory, "pair.json")
    with open(path, "w") as fh:
        json.dump({"schema": curve["schema"], "type": "dipolyhedron", "B": film, "C": curve}, fh)
    return path


def run(argv: list, env: dict, cwd: str, stderr=subprocess.DEVNULL) -> subprocess.CompletedProcess:
    # no timeout: with one, the wait polls in steps of up to 50 ms
    done = subprocess.run([sys.executable, *argv], env=env, cwd=cwd, stdout=subprocess.DEVNULL,
                          stderr=stderr)
    if done.returncode != 0:
        sys.exit(f"cli_coldstart: {' '.join(argv)} exited {done.returncode}")
    return done


def import_ms(env: dict, cwd: str, runs: int) -> float:
    times = []
    for _ in range(runs):
        done = run(["-X", "importtime", "-c", "import filmlab.cli"], env, cwd, subprocess.PIPE)
        for line in done.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "filmlab.cli":
                times.append(int(parts[1]) / 1000)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=7, help="fresh processes per subcommand")
    args = parser.parse_args(argv)
    if os.path.isdir(os.path.join(SRC, "filmlab", "__pycache__")):
        sys.exit("cli_coldstart: remove src/filmlab/__pycache__ first; Python would read it")
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"}
    runs = max(args.runs, 1)
    with tempfile.TemporaryDirectory() as tmp:
        pair = write_pair(tmp)
        print(f"Python {sys.version.split()[0]}, median of {runs} fresh processes each")
        print(f"import filmlab.cli: {import_ms(env, tmp, runs):.1f} ms cumulative (-X importtime)")
        bare = loaded_modules(["-c", BARE], env, tmp)
        print(f"{'subcommand':<18} {'ms':>7}  filmlab modules loaded / + other modules loaded")
        for name, cmd in commands(pair):
            times = []
            for _ in range(runs):
                start = time.perf_counter()
                run(["-m", "filmlab.cli", *cmd], env, tmp)
                times.append((time.perf_counter() - start) * 1000)
            loaded = loaded_modules(["-c", RECORD, *cmd], env, tmp)
            ours = sorted(m.removeprefix("filmlab.") for m in loaded if m.startswith("filmlab."))
            others = sorted(loaded - bare - {"filmlab"} - {f"filmlab.{m}" for m in ours})
            print(f"{name:<18} {statistics.median(times):7.1f}  {' '.join(ours)}")
            print(f"{'':<28}+ {' '.join(others)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
