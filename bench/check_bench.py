#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 bench/check_bench.py
    python -m pytest bench/check_bench.py

Run from a checkout root.  Runs the smallest instance of each workload
through the replay gate, checks that a corrupted reference answer and a
crashing instance are counted as failures while report drift is not,
that BENCHMARK.json names exactly the metrics run.py emits, and that the
benchmark refuses to run without the program's sources.  The file name
keeps it out of the repository's default test run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads as w  # noqa: E402

SMALLEST = {"plateau": "sq1", "deform": "tri_e1_c16", "flatnorm": "eflat_exh18", "cli": "mass"}
SEED = 7


def _one(workload, name, answers):
    return [i for i in run.build_inputs(w, workload, SEED, answers) if i.name == name]


def test_smallest_instance_of_each_workload_passes_the_gate():
    reference = run.load_reference()
    for workload, name in SMALLEST.items():
        instances = _one(workload, name, run.answers_of(reference, workload))
        _, _, results = run.run_pass(instances)
        summaries, changed, unreferenced = run.replay(workload, SEED, instances, results, reference, w)
        assert summaries[name].problems == [], (workload, summaries[name].problems)
        assert summaries[name].exact, workload
        assert changed == [] and unreferenced == [], (workload, changed, unreferenced)


def test_corrupted_reference_answer_is_counted():
    reference = run.load_reference()
    answers = run.answers_of(reference, "plateau")
    answers["sq1"] += 1
    instances = _one("plateau", "sq1", answers)
    _, _, results = run.run_pass(instances)
    summaries, _, _ = run.replay("plateau", SEED, instances, results, reference, w)
    detail, correct, failed, exact, _, failed_instances = run.account(
        instances, results, summaries, [0], set(), 1
    )
    assert not correct
    assert (failed, failed_instances, exact) == (1, 1, 0)
    assert "differs from the reference" in detail["sq1"]["problems"][0]


def test_report_drift_is_counted_but_is_no_failure():
    reference = run.load_reference()
    reference["reports"]["plateau/sq1"] = {"*": "0" * 16}
    instances = _one("plateau", "sq1", run.answers_of(reference, "plateau"))
    _, _, results = run.run_pass(instances)
    summaries, changed, _ = run.replay("plateau", SEED, instances, results, reference, w)
    assert changed == ["sq1"]
    _, correct, failed, exact, _, _ = run.account(instances, results, summaries, [0], set(), 1)
    assert correct and failed == 0 and exact == 1


def test_crash_is_a_failure_with_its_trivial_bound():
    def crash():
        raise RuntimeError("boom")

    inst = w.Instance("crash", crash, None, None, False, trivial=w.Fraction(24))
    _, _, results = run.run_pass([inst])
    detail, correct, failed, exact, bound, failed_instances = run.account(
        [inst], results, {}, [1], set(), 1
    )
    assert correct  # a crash returns no answer, so no answer is wrong
    assert (failed, failed_instances, exact, bound) == (1, 1, 0, 24.0)
    assert detail["crash"]["problems"] == ["RuntimeError: boom"]


def test_benchmark_json_names_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [wl["name"] for wl in spec["workloads"]] == list(w.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_spec()
    setup = [m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [max(m["bound"] for m in spec["end_to_end"])]


def test_instance_tables_match_the_workloads():
    tables = {
        "plateau": run.PLATEAU_NAMES,
        "flatnorm": tuple(run.FLATNORM_LAYERS),
        "cli": run.CLI_NAMES,
    }
    reference = run.load_reference()
    for workload, names in tables.items():
        instances = run.build_inputs(w, workload, SEED, run.answers_of(reference, workload))
        assert tuple(i.name for i in instances) == names, workload
        if workload == "flatnorm":
            assert [i.layer for i in instances] == list(run.FLATNORM_LAYERS.values())
    deform = [i.name for i in run.build_inputs(w, "deform", SEED, {})]
    assert deform == list(run.DEFORM_NAMES) + ["cone_hex1"]


def test_refuses_to_run_without_sources():
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} passed")
