"""Benchmark self-test at a tiny length.

    python3 perfbench/selftest.py

Checks that (1) every metric named in BENCHMARK.json prints, with its unit,
in an untraced and a traced run; (2) a NaN planted in the seeded action
expert drives failed_ratio above 0; (3) in the traced run no span's self time
exceeds its parent span's duration. Exits 0 when all hold, 1 otherwise.
"""

import gzip
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402
from tracing import END, PARENT, START, self_times  # noqa: E402

WORKLOAD, SEED, SECONDS = "control_loop", 7, 0.5


def check(ok, what, problems):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def named_metrics_print(metrics, declared, problems, label):
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    wrong_unit = [m["name"] for m in declared if m["name"] in metrics
                  and metrics[m["name"]]["unit"] != m["unit"]]
    not_numbers = [k for k, v in metrics.items()
                   if not (isinstance(v["value"], (int, float)) and math.isfinite(v["value"]))]
    check(not missing and not wrong_unit and not not_numbers
          and set(metrics) == {m["name"] for m in declared},
          f"{label}: every declared metric prints with its unit "
          f"(missing {missing}, wrong unit {wrong_unit}, not finite {not_numbers})",
          problems)


def main():
    if not os.path.isfile(os.path.join(bench.SRC, "graphact", "__init__.py")):
        print("graphact sources not found", file=sys.stderr)
        return 2
    sys.path.insert(0, bench.SRC)
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    report, result = bench.run_benchmark(WORKLOAD, SEED, SECONDS, trace=True)
    named_metrics_print(result["metrics"], spec["per_layer"], problems, "traced run")
    gated = {k: report["end_to_end"][k] for k in bench.GATED_E2E}
    named_metrics_print(gated, spec["end_to_end"], problems, "end-to-end figures")
    check(report["end_to_end"]["failed_ratio"]["unit"] == "ratio"
          and result["failed"] == 0, "failed_ratio prints and is 0 on a clean run", problems)

    trace = os.path.join(bench.ROOT, ".perfbench_out", f"trace-{WORKLOAD}-{SEED}.jsonl.gz")
    with gzip.open(trace, "rt") as f:
        spans = [json.loads(line) for line in f]
    selfs = self_times(spans)
    bad = [i for i, s in enumerate(spans) if s[PARENT] >= 0 and (
        selfs[i] > spans[s[PARENT]][END] - spans[s[PARENT]][START] or selfs[i] < -1e-9)]
    check(spans and not bad, f"{len(spans)} spans: no child self time exceeds its parent "
          f"span ({len(bad)} violations)", problems)

    report, result = bench.run_benchmark(WORKLOAD, SEED, SECONDS, trace=False, plant_nan=True)
    ratio = report["end_to_end"]["failed_ratio"]["value"]
    check(result["failed"] > 0 and ratio > 0 and not result["correct"],
          f"planted NaN weight: failed_ratio {ratio:.3f} > 0, correct is false", problems)

    print("selftest " + ("passed" if not problems else f"failed: {len(problems)} check(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
