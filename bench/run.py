#!/usr/bin/env python3
"""filmlab benchmark: certified answers per second, and how many are exact.

    python3 bench/run.py --workload {plateau,deform,flatnorm,cli} --seed N \
        --seconds S --trace {0,1}

Run from a checkout root; filmlab is imported from ``src/`` of that
checkout and the ``filmlab`` command is ``python -m filmlab.cli`` with
``src/`` on PYTHONPATH.  One process, one thread, closed loop with a
single caller: each pass runs the workload's instances one after another
(the cli workload one subprocess at a time); passes repeat, at least two,
while the next one is expected to end within ``--seconds``.  Answers are replayed outside the
timed region (see workloads.py) and checked against reference.json.

The last stdout line is one JSON object: ``correct`` (no returned answer
failed its replay), ``attempted`` and ``failed`` (instance calls), and
``metrics``.  With ``--trace 0`` the end-to-end metrics:

  setup_s      median over SETUP_REPEATS fresh interpreters of start to
               inputs ready (import filmlab, build grids, chains and
               problems; for cli, write the input files), at the
               reference host speed (see CAL_REF_S)
  pass_s       wall time of one pass over the instance list, taken
               instance by instance at the reference host speed: the
               sum of each instance's median time over the passes, each
               time scaled by CAL_REF_S / the calibration loop's time
               around that call, which keeps the host's drift and a
               burst of machine noise in one pass from moving the figure
  exact_frac   instances whose answer is certified exact / instances
  bound_sum    sum of returned values in grid units: flat-norm values,
               plateau weights, natural-norm bounds, and deformed-chain
               cells M(P) for deformations and cone starts
  fail_frac    (failed instances + 1) / (instances + 1); add-one
               smoothed so it is never 0.  An instance fails on an
               exception, a non-zero exit, a replay that fails, or an
               answer that changes between passes
  peak_rss_mb  peak RSS of this process (cli: of the largest child)

With ``--trace 1`` the per-layer metrics of per_layer_spec() come from
tracing (tracer.py wraps the public functions) the input building and
one pass, after one untraced pass; they include
``bench.trace_overhead`` = traced / untraced pass time.  Spans are saved
to ``.bench_work/``.  The line before the last one carries run metadata,
per-instance times and statuses, and report drift.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(HERE, "reference.json")

MIN_PASSES = 2
SETUP_REPEATS = 7
IMPORT_REPEATS = 3
# The host's speed is sampled by timing a fixed pure-Python loop between
# timed calls; times are reported at the speed at which that loop takes
# CAL_REF_S (about its median on the 2-vCPU host the benchmark was tuned
# on), because a shared host's speed drifts by a fifth or more within
# seconds to minutes and would otherwise swamp a change of the program's own.
# The CPUs of such a host drift apart, so the benchmark and its children
# run on one CPU, the one the loop measures (see pin_to_one_cpu).
CAL_ITERATIONS = 200_000
CAL_REF_S = 0.020

# instance names and per-layer labels, in workload order
FLATNORM_LAYERS = {
    "k2_exh24": "flat_norm.exhaustive",
    "k1_exh20": "flat_norm.exhaustive",
    "eflat_exh18": "energy_flat_norm.exhaustive",
    "k2_block3_g4": "flat_norm.bnb",
    "k2_block3_g5": "flat_norm.bnb",
    "k1_sq3_g4": "flat_norm.bnb",
    "eflat_bnb": "energy_flat_norm.bnb",
}
PLATEAU_NAMES = ("sq1", "sq2", "sq3", "sq4", "hex1", "fold1", "fold2")
DEFORM_NAMES = ("tri_e1_c16", "tri_e2_c4", "seedtri_e2_c4", "dtri_e2_c16", "dtri_e4_c4")
CLI_NAMES = (
    "mass", "boundary", "flatnorm", "flatnorm_budget", "eflat",
    "plateau", "span_check", "diagnostics", "deform", "natural_norm",
)

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "exact_frac": "ratio",
    "bound_sum": "grid_units",
    "fail_frac": "ratio",
    "peak_rss_mb": "MB",
}


FN_FIELDS = (("calls", "count"), ("s", "s"), ("self_s", "s"))
# per-layer metrics computed after the span aggregation
DERIVED = ("plateau.nodes_per_s", "bench.trace_overhead", "cli.import_s", "cli.import_numpy_s")


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for fn in (
        "exact.RadicalSum.sign", "exact.RadicalSum.enclosure",
        "geom.split_simplex", "geom.simplex_measure_sq", "geom.point_simplex_dist_sq",
        "grid.boundary_grid", "grid.mass_grid",
        "simplicial.boundary_simplicial", "simplicial.embed_grid_chain",
    ):
        spec += [(f"{fn}.calls", "count", "lower"), (f"{fn}.self_s", "s", "lower")]
    for fn in ("overlay.overlay_leftover", "overlay.chains_equal_mod2", "dipolyhedra.spanning_check"):
        spec += [(f"{fn}.{field}", unit, "lower") for field, unit in FN_FIELDS]
    spec += [
        ("dipolyhedra.spanning_check.spans_ratio", "ratio", "higher"),
        ("dipolyhedra.ProjectionDir.project2.calls", "count", "lower"),
        ("dipolyhedra.ProjectionDir.project2.self_s", "s", "lower"),
        ("dipolyhedra.region_cells.calls", "count", "lower"),
    ]
    spec += [(f"flatnorm.{layer}.{name}.s", "s", "lower") for name, layer in FLATNORM_LAYERS.items()]
    spec += [(f"flatnorm.verify_certificate.{f}", u, "lower") for f, u in FN_FIELDS[:2]]
    spec += [(f"deformation.deform_chain.{name}.s", "s", "lower") for name in DEFORM_NAMES]
    spec += [
        ("deformation.deform_dipolyhedron.s", "s", "lower"),
        ("deformation.snap_parity.calls", "count", "lower"),
        ("deformation.snap_parity.s", "s", "lower"),
    ]
    for name in DEFORM_NAMES:
        sizes = ("P_cells", "Q_simplices", "R_simplices")
        spec += [(f"deformation.{name}.{size}", "count", "lower") for size in sizes]
    for name in PLATEAU_NAMES:
        fn = f"plateau.minimize_weight.{name}"
        spec += [(f"{fn}.s", "s", "lower"), (f"{fn}.nodes", "count", "lower")]
    spec += [
        ("plateau.nodes_per_s", "1/s", "higher"),
        ("plateau.initial_cone_solution.s", "s", "lower"),
        ("plateau.plateau_problem.s", "s", "lower"),
    ]
    for fn in ("parse_input", "to_jsonable", "dumps_json"):
        spec.append((f"io_formats.{fn}.s", "s", "lower"))
    spec.append(("io_formats.report_changed", "count", "lower"))
    spec += [(f"cli.{name}.s", "s", "lower") for name in CLI_NAMES]
    spec += [("cli.import_s", "s", "lower"), ("cli.import_numpy_s", "s", "lower")]
    spec.append(("bench.trace_overhead", "ratio", "lower"))
    return spec


def die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def answers_of(reference: dict, workload: str) -> dict:
    """Reference answers of one workload as Fractions, keyed by instance name."""
    from fractions import Fraction

    prefix = f"{workload}/"
    answers = reference["answers"].items()
    return {k[len(prefix):]: Fraction(v) for k, v in answers if k.startswith(prefix)}


def build_inputs(w, workload, seed, answers, prefix_for=None):
    env = child_env()
    paths = w.cli_inputs(seed, os.path.join(WORK, "inputs")) if workload == "cli" else None
    return w.build(workload, seed, ROOT, answers, env=env, paths=paths, prefix_for=prefix_for)


def pin_to_one_cpu() -> int:
    """Keep this process and the ones it starts on one CPU; returns how
    many CPUs it was allowed before."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    return len(allowed)


def calibration_s() -> float:
    """Time of a fixed pure-Python loop: the inverse of the host's current speed."""
    t0 = time.perf_counter()
    total = 0
    for i in range(CAL_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - t0


def at_reference_speed(times, calibrations) -> float:
    """Median of times, each scaled by CAL_REF_S / the calibration time around it."""
    return CAL_REF_S * statistics.median(t / c for t, c in zip(times, calibrations))


def measure_setup(workload: str, seed: int) -> float:
    """Median time from interpreter start to inputs ready, over fresh
    interpreters, at the reference host speed."""
    times, calibrations = [], []
    before = calibration_s()
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--setup-probe"]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready" or proc.returncode != 0:
            die(f"setup probe failed (exit {proc.returncode})")
        times.append(elapsed)
        after = calibration_s()
        calibrations.append((before + after) / 2)
        before = after
    return at_reference_speed(times, calibrations)


def import_breakdown() -> tuple[float, float]:
    """Median cumulative import time of filmlab.cli and of numpy, from -X importtime."""
    cli_s, numpy_s = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import filmlab.cli"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            die("import filmlab.cli failed")
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        cli_s.append(cumulative.get("filmlab.cli", 0.0))
        numpy_s.append(cumulative.get("numpy", 0.0))
    return statistics.median(cli_s), statistics.median(numpy_s)


class Failure:
    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}".splitlines()[0][:300]
        self.maxrss_kb = getattr(getattr(exc, "run", None), "maxrss_kb", 0)


def run_pass(instances, tracer=None, after_call=None, calibrations=None):
    """One pass; returns (wall seconds, per-instance seconds, results or Failure).

    With a list for ``calibrations``, the calibration loop runs before the
    first call and after each call, and the mean of the two around each
    call is appended to it; the pass's wall time leaves those loops out.
    """
    times, results = [], []
    t_pass = time.perf_counter()
    calibrating = before = calibration_s() if calibrations is not None else 0.0
    for idx, inst in enumerate(instances):
        span = None
        if tracer is not None:
            tracer.current_instance = idx
            span = tracer.open(tracer.name_id(f"bench.{inst.name}"))
        t0 = time.perf_counter()
        try:
            result = inst.call()
        except Exception as exc:  # every failure of the program is counted, not raised
            result = Failure(exc)
        times.append(time.perf_counter() - t0)
        if calibrations is not None:
            after = calibration_s()
            calibrating += after
            calibrations.append((before + after) / 2)
            before = after
        if tracer is not None:
            tracer.close(span)
            if after_call is not None:
                after_call(idx, span)
        results.append(result)
    return time.perf_counter() - t_pass - calibrating, times, results


def maxrss_kb(result) -> int:
    return result.maxrss_kb if hasattr(result, "maxrss_kb") else 0


def source_digest() -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "filmlab")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (benchmark checkouts need not be)."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata(workload, seed, w, nproc):
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "variant": w.variant(seed),
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
    }


def replay(workload, seed, instances, results, reference, w):
    """Summaries of the first pass plus report drift against reference.json."""
    summaries, changed, unreferenced = {}, [], []
    stored = reference["reports"]
    for inst, result in zip(instances, results):
        if isinstance(result, Failure):
            continue
        try:
            summary = inst.summarize(result)
        except Exception as exc:  # a report the gate cannot read is a failed replay
            summary = w.Summary([f"replay raised {type(exc).__name__}: {exc}"], False)
        summaries[inst.name] = summary
        key = str(w.variant(seed)) if inst.seeded else "*"
        want = stored.get(f"{workload}/{inst.name}", {}).get(key)
        if want is None:
            unreferenced.append(inst.name)
        elif want != w.digest(summary.report):
            changed.append(inst.name)
    return summaries, changed, unreferenced


def percentile_note(samples):
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    note = {"samples": n, "median": statistics.median(samples)}
    if n > 21:  # below that, the sample with ten above it is the median or lower
        note[f"p{100 * (n - 10) // n}"] = sorted(samples)[n - 11]
    return note


def measure(instances, seconds):
    """Closed-loop passes, at least MIN_PASSES, while the next one is expected
    to end within `seconds`."""
    pass_times, per_instance = [], [[] for _ in instances]
    per_calibration = [[] for _ in instances]
    first = prints = None
    failed_calls = [0] * len(instances)
    unsteady = set()
    child_rss = 0
    t_start = time.perf_counter()
    while len(pass_times) < MIN_PASSES or (
        time.perf_counter() - t_start + statistics.mean(pass_times) <= seconds
    ):
        calibrations = []
        wall, times, results = run_pass(instances, calibrations=calibrations)
        pass_times.append(wall)
        for i, (inst, t, r) in enumerate(zip(instances, times, results)):
            per_instance[i].append(t)
            per_calibration[i].append(calibrations[i])
            child_rss = max(child_rss, maxrss_kb(r))
            if isinstance(r, Failure):
                failed_calls[i] += 1
            elif prints is not None and inst.fingerprint(r) != prints[i]:
                unsteady.add(i)
        if first is None:
            first = results
            prints = [
                None if isinstance(r, Failure) else inst.fingerprint(r)
                for inst, r in zip(instances, results)
            ]
    return pass_times, per_instance, per_calibration, first, failed_calls, unsteady, child_rss


def account(instances, first, summaries, failed_calls, unsteady, passes):
    """Gate every instance.

    Returns (detail, correct, failed calls, exact instances, bound_sum,
    failed instances).
    """
    detail, failed_instances, exact, bound, correct = {}, 0, 0, 0.0, True
    failed_calls = list(failed_calls)
    for i, inst in enumerate(instances):
        s = summaries.get(inst.name)
        problems = [first[i].text] if s is None else list(s.problems)
        if s is not None and s.problems or i in unsteady:
            correct = False
            failed_calls[i] = passes
        if i in unsteady:
            problems.append("answer changed between passes")
        if problems:
            failed_instances += 1
        elif s.exact:
            exact += 1
        if not problems and s.value is not None:
            bound += float(s.value)
        elif problems and inst.trivial is not None:
            bound += float(inst.trivial)
        detail[inst.name] = {
            "exact": bool(not problems and s.exact),
            "value": None if s is None or s.value is None else str(s.value),
            "problems": problems,
        }
    return detail, correct, sum(failed_calls), exact, bound, failed_instances


def end_to_end(args, w, reference):
    answers = answers_of(reference, args.workload)
    setup_s = measure_setup(args.workload, args.seed)
    instances = build_inputs(w, args.workload, args.seed, answers)
    measured = measure(instances, args.seconds)
    pass_times, per_instance, per_calibration, first, failed_calls, unsteady, child_rss = measured
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_kb = child_rss if args.workload == "cli" else self_rss

    summaries, changed, unreferenced = replay(
        args.workload, args.seed, instances, first, reference, w
    )
    passes, n = len(pass_times), len(instances)
    detail, correct, failed, exact, bound, failed_instances = account(
        instances, first, summaries, failed_calls, unsteady, passes
    )
    for i, inst in enumerate(instances):
        detail[inst.name]["s_median"] = statistics.median(per_instance[i])
    metrics = {
        "setup_s": setup_s,
        "pass_s": sum(at_reference_speed(*tc) for tc in zip(per_instance, per_calibration)),
        "exact_frac": exact / n,
        "bound_sum": bound,
        "fail_frac": (failed_instances + 1) / (n + 1),
        "peak_rss_mb": peak_kb / 1024,
    }
    info = metadata(args.workload, args.seed, w, args.nproc)
    info.update(
        passes=passes,
        pass_s=percentile_note(pass_times),
        calibration_s=percentile_note([c for cs in per_calibration for c in cs]),
        report_changed=changed,
        report_unreferenced=unreferenced,
        instances=detail,
    )
    return info, correct, passes * n, failed, {
        name: {"value": value, "unit": END_TO_END[name]} for name, value in metrics.items()
    }


def traced(args, w, reference):
    import tracer as tr

    answers = answers_of(reference, args.workload)
    os.makedirs(WORK, exist_ok=True)
    child_spans = os.path.join(WORK, "child-spans.npz")
    state = {"tracing": False}

    def prefix_for(name):
        return [os.path.join(HERE, "cli_child.py"), child_spans] if state["tracing"] else None

    tracer = tr.Tracer()
    tracer.install()
    try:
        span = tracer.open(tracer.name_id("bench.setup"))
        instances = build_inputs(w, args.workload, args.seed, answers, prefix_for)
        tracer.close(span)
    finally:
        tracer.uninstall()
    untraced_s, _, results = run_pass(instances)

    def after_call(idx, span):
        if args.workload == "cli" and os.path.exists(child_spans):
            tracer.merge(child_spans, idx, span)
            os.remove(child_spans)

    tracer.install()
    state["tracing"] = True
    try:
        traced_s, times, traced_results = run_pass(instances, tracer, after_call)
    finally:
        state["tracing"] = False
        tracer.uninstall()
    tracer.save(os.path.join(WORK, f"spans-{args.workload}-{args.seed}.npz"))
    agg = tr.aggregate(tracer)

    summaries, changed, unreferenced = replay(
        args.workload, args.seed, instances, results, reference, w
    )
    index = {inst.name: i for i, inst in enumerate(instances)}
    values = {}

    def stat(fn, field):
        return agg.get(fn, {}).get(field, 0)

    def instance_s(fn, name):
        return agg.get(fn, {}).get("by_instance", {}).get(index.get(name, -1), 0.0)

    node_total, mw_total = 0, 0.0
    for name, unit, _ in per_layer_spec():
        parts = name.split(".")
        if name == "dipolyhedra.spanning_check.spans_ratio":
            calls = stat("dipolyhedra.spanning_check", "calls")
            values[name] = stat("dipolyhedra.spanning_check", "useful") / calls if calls else 0.0
        elif name in DERIVED:
            continue
        elif name == "io_formats.report_changed":
            values[name] = len(changed)
        elif parts[0] == "flatnorm" and parts[-2] in FLATNORM_LAYERS:
            values[name] = instance_s(f"flatnorm.{parts[1]}", parts[-2])
        elif parts[:2] == ["deformation", "deform_chain"] and len(parts) == 4:
            values[name] = instance_s("deformation.deform_chain", parts[2])
        elif parts[0] == "deformation" and parts[1] in DEFORM_NAMES:
            s = summaries.get(parts[1])
            values[name] = s.counts.get(parts[2], 0) if s else 0
        elif parts[:2] == ["plateau", "minimize_weight"]:
            if parts[3] == "s":
                values[name] = instance_s("plateau.minimize_weight", parts[2])
                mw_total += values[name]
            else:
                s = summaries.get(parts[2])
                values[name] = s.counts.get("nodes", 0) if s else 0
                node_total += values[name]
        elif parts[0] == "cli" and parts[1] in CLI_NAMES:
            values[name] = times[index[parts[1]]] if parts[1] in index else 0.0
        else:
            values[name] = stat(".".join(parts[:-1]), parts[-1])
    values["plateau.nodes_per_s"] = node_total / mw_total if mw_total else 0.0
    values["bench.trace_overhead"] = traced_s / untraced_s
    values["cli.import_s"], values["cli.import_numpy_s"] = import_breakdown()

    failed = sum(isinstance(r, Failure) for r in results + traced_results)
    # tracing must not change an answer
    moved = any(
        not isinstance(a, Failure)
        and not isinstance(b, Failure)
        and inst.fingerprint(a) != inst.fingerprint(b)
        for inst, a, b in zip(instances, results, traced_results)
    )
    wrong = moved or any(s.problems for s in summaries.values())
    info = metadata(args.workload, args.seed, w, args.nproc)
    info.update(untraced_pass_s=untraced_s, traced_pass_s=traced_s, spans=len(tracer.start),
                report_changed=changed, report_unreferenced=unreferenced)
    units = {name: unit for name, unit, _ in per_layer_spec()}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    return info, not wrong, 2 * len(instances), failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("plateau", "deform", "flatnorm", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "filmlab", "__init__.py")):
        die(f"no filmlab sources under {SRC}; run from a filmlab checkout")
    sys.path.insert(0, SRC)
    import filmlab

    if os.path.dirname(os.path.dirname(os.path.abspath(filmlab.__file__))) != SRC:
        die(f"imported filmlab from {filmlab.__file__}, not from {SRC}")
    import workloads as w

    if args.setup_probe:
        build_inputs(w, args.workload, args.seed, answers_of(load_reference(), args.workload))
        print("ready", flush=True)
        return 0

    args.nproc = pin_to_one_cpu()
    reference = load_reference()
    run = traced if args.trace else end_to_end
    info, correct, attempted, failed, metrics = run(args, w, reference)
    print(json.dumps(info, sort_keys=True))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
