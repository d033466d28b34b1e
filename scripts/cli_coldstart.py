#!/usr/bin/env python3
"""Cold-start wall time of each filmlab subcommand, import time included.

Each subcommand runs on the fixtures as `python -m filmlab.cli ...` in
--runs fresh processes that compile filmlab from source
(PYTHONDONTWRITEBYTECODE=1; a src/filmlab/__pycache__ is refused, since
Python would read it).  --runs more processes record what the subcommand
loaded and compiled: they wrap SourceLoader.source_to_code, the step
that turns a module's source into code, and time each filmlab module it
compiles.  The script prints the median cumulative time of
`import filmlab.cli` under -X importtime, then per subcommand the median
wall time in milliseconds, the filmlab source lines compiled, the
median milliseconds spent compiling them, the filmlab modules loaded
and, on a second line after "+", the other modules loaded beyond those
of a process of the same interpreter that only sets up the recording,
so a heavy standard-library import shows next to the filmlab modules.  Last comes
the same compile record for the ten commands of the benchmark's cli
workload (bench/workloads.py, inputs written at --seed) and its total.

    python3 scripts/cli_coldstart.py [--runs 7] [--seed 101]
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

# wraps the compiler; REPORT writes {"modules": [...], "compiled": [[path, lines, seconds], ...]}
# as the last line of stderr
RECORDER = (
    "import json, sys, time\n"
    "from importlib._bootstrap_external import SourceLoader\n"
    "compiled = []\n"
    "source_to_code = SourceLoader.source_to_code\n"
    "def timed(self, data, path, *args, **kwargs):\n"
    "    start = time.perf_counter()\n"
    "    code = source_to_code(self, data, path, *args, **kwargs)\n"
    "    compiled.append((path, data.count(b'\\n'), time.perf_counter() - start))\n"
    "    return code\n"
    "SourceLoader.source_to_code = timed\n"
)
REPORT = "sys.stderr.write(json.dumps({'modules': list(sys.modules), 'compiled': compiled}) + '\\n')\n"
BARE = RECORDER + REPORT
RECORD = (
    RECORDER
    + "from filmlab.cli import main\n"
    "try:\n"
    "    code = main(sys.argv[1:])\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    + REPORT
    + "sys.exit(code)\n"
)


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


def recorded(stderr: str) -> tuple:
    """(modules loaded, filmlab lines compiled, seconds compiling them) from RECORD's stderr."""
    doc = json.loads(stderr.splitlines()[-1])
    ours = [(lines, s) for path, lines, s in doc["compiled"]
            if os.path.dirname(path) == os.path.join(SRC, "filmlab")]
    return set(doc["modules"]), sum(n for n, _ in ours), sum(s for _, s in ours)


def compile_record(call, runs: int) -> tuple:
    """(modules, lines, median compile ms) over ``runs`` recording processes; call() -> stderr."""
    records = [recorded(call()) for _ in range(runs)]
    modules, lines, _ = records[0]
    return modules, lines, statistics.median(r[2] for r in records) * 1000


def import_ms(env: dict, cwd: str, runs: int) -> float:
    times = []
    for _ in range(runs):
        done = run(["-X", "importtime", "-c", "import filmlab.cli"], env, cwd, subprocess.PIPE)
        for line in done.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "filmlab.cli":
                times.append(int(parts[1]) / 1000)
    return statistics.median(times)


def bench_compiles(env: dict, seed: int, runs: int, tmp: str) -> None:
    """The compile record of each command of the benchmark's cli workload, and the total."""
    sys.path[:0] = [SRC, os.path.join(ROOT, "bench")]
    import workloads

    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)  # run_cli's output files
    paths = workloads.cli_inputs(seed, os.path.join(tmp, "inputs"))
    instances = workloads.cli_instances(seed, ROOT, {}, env, paths, lambda name: ["-c", RECORD])
    print(f"bench cli workload, seed {seed}: {'lines':>6} {'compile ms':>10}")
    total_lines, total_ms = 0, 0.0
    for inst in instances:
        _, lines, ms = compile_record(lambda: inst.call().stderr, runs)
        total_lines += lines
        total_ms += ms
        print(f"{inst.name:<28} {lines:6d} {ms:10.1f}")
    print(f"{'total':<28} {total_lines:6d} {total_ms:10.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=7, help="fresh processes per subcommand")
    parser.add_argument("--seed", type=int, default=101, help="cli workload seed (default 101)")
    args = parser.parse_args(argv)
    if os.path.isdir(os.path.join(SRC, "filmlab", "__pycache__")):
        sys.exit("cli_coldstart: remove src/filmlab/__pycache__ first; Python would read it")
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"}
    runs = max(args.runs, 1)
    with tempfile.TemporaryDirectory() as tmp:
        pair = write_pair(tmp)
        print(f"Python {sys.version.split()[0]}, median of {runs} fresh processes each")
        print(f"import filmlab.cli: {import_ms(env, tmp, runs):.1f} ms cumulative (-X importtime)")
        bare = recorded(run(["-c", BARE], env, tmp, subprocess.PIPE).stderr.decode())[0]
        print(f"{'subcommand':<18} {'ms':>7} {'lines':>6} {'compile ms':>10}  "
              "filmlab modules loaded / + other modules loaded")
        for name, cmd in commands(pair):
            times = []
            for _ in range(runs):
                start = time.perf_counter()
                run(["-m", "filmlab.cli", *cmd], env, tmp)
                times.append((time.perf_counter() - start) * 1000)
            loaded, lines, ms = compile_record(
                lambda: run(["-c", RECORD, *cmd], env, tmp, subprocess.PIPE).stderr.decode(), runs
            )
            ours = sorted(m.removeprefix("filmlab.") for m in loaded if m.startswith("filmlab."))
            others = sorted(loaded - bare - {"filmlab"} - {f"filmlab.{m}" for m in ours})
            print(f"{name:<18} {statistics.median(times):7.1f} {lines:6d} {ms:10.1f}  "
                  f"{' '.join(ours)}")
            print(f"{'':<46}+ {' '.join(others)}")
        bench_compiles(env, args.seed, runs, tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
