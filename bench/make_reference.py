#!/usr/bin/env python3
"""Regenerate bench/reference.json: reference answers and report digests.

    python3 bench/make_reference.py

Run from a checkout root.  Answers gate the replay in run.py:

- stated optima: sqN -> N^2, hex1 -> 3, fold1 -> 2 (and the cli plateau
  run on hex1);
- computed exact values: the exhaustive flat norms of the seeded
  instances, which must agree across all 48 variants (symmetric images
  have one flat norm), and the flat norm of the cli workload's
  flatnorm_budget block, solved here exhaustively.

Reports are stored as short digests of each instance's report, per
variant for seeded instances and once ("*") for the others; run.py counts
mismatches as ``io_formats.report_changed``, never as failures.  Refresh
them only with a change that alters reports on purpose, and say why.
Takes about ten minutes on two cores.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads as w  # noqa: E402

STATED = {
    "plateau/sq1": 1,
    "plateau/sq2": 4,
    "plateau/sq3": 9,
    "plateau/sq4": 16,
    "plateau/hex1": 3,
    "plateau/fold1": 2,
    "cli/plateau": 3,
}
COMPUTED = (
    "flatnorm/k2_exh24", "flatnorm/k1_exh20", "flatnorm/eflat_exh18", "cli/flatnorm", "cli/eflat",
)


def flatnorm_budget_answer(paths) -> Fraction:
    """Exact flat norm of the block the cli flatnorm_budget command receives."""
    import filmlab

    block = filmlab.io_formats.parse_input(filmlab.io_formats.load_document(paths["block"]))
    config = filmlab.SolverConfig(exhaustive_limit=27)
    cert = filmlab.flat_norm(block, method="exhaustive", config=config)
    if cert.status != "exact" or not filmlab.verify_certificate(cert, block):
        raise SystemExit("flatnorm_budget: the exhaustive reference did not certify")
    return cert.value


def main() -> int:
    answers = {k: str(v) for k, v in STATED.items()}
    computed: dict[str, set] = {k: set() for k in COMPUTED}
    reports: dict[str, dict] = {}
    for workload in w.WORKLOADS:
        stated = run.answers_of({"answers": answers}, workload)
        for v in range(len(w.SYMMETRIES)):
            env = run.child_env()
            paths = w.cli_inputs(v, os.path.join(run.WORK, "inputs")) if workload == "cli" else None
            if workload == "cli" and v == 0:
                answers["cli/flatnorm_budget"] = str(flatnorm_budget_answer(paths))
            for inst in w.build(workload, v, ROOT, stated, env=env, paths=paths):
                if not inst.seeded and v > 0:
                    continue
                key = f"{workload}/{inst.name}"
                try:
                    result = inst.call()
                except w.CliFailure as exc:
                    result = exc.run
                    summary = w.Summary([str(exc)], False, report=result.stdout)
                else:
                    summary = inst.summarize(result)
                    if summary.problems:
                        raise SystemExit(f"{key} variant {v}: {summary.problems}")
                if ".bench_work" in summary.report:
                    raise SystemExit(f"{key}: the report names a benchmark path")
                if key in computed:
                    if not summary.exact:
                        raise SystemExit(f"{key} variant {v}: not exact")
                    computed[key].add(summary.value)
                slot = str(v) if inst.seeded else "*"
                reports.setdefault(key, {})[slot] = w.digest(summary.report)
            print(f"{workload} variant {v} done", file=sys.stderr, flush=True)
    for key, values in computed.items():
        if len(values) != 1:
            raise SystemExit(f"{key}: exact value differs between variants: {sorted(values)}")
        answers[key] = str(values.pop())
    with open(run.REFERENCE, "w") as fh:
        json.dump({"answers": answers, "reports": reports}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
