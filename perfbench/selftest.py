"""Self-test of the benchmark, at minimal size.

    python3 perfbench/selftest.py

Checks that every workload runs, reports every metric BENCHMARK.json names
with its unit in both modes, and passes its own checks; and that a wrong
expectation (a perturbed copy of the golden, a wrong count) comes out as a
non-zero error rate, neither as a crash nor as a pass.  Exits 1 on any
problem.  Takes under a minute on two cores.
"""

from __future__ import annotations

import json
import sys

import run


def _check_metrics(spec, problems):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in run.WORKLOADS:
            result, report = run.run(workload, seed=1, seconds=0, trace=trace,
                                     size="minimal")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                diff = sorted(set(got.items()) ^ set(want.items()))
                problems.append(f"{workload} trace {trace}: metrics differ {diff}")
            bad = [n for n, m in result["metrics"].items()
                   if not isinstance(m["value"], (int, float))]
            if bad:
                problems.append(f"{workload} trace {trace}: non-numeric {bad}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: failed checks "
                                f"{report['failures']}")
            print(f"ok   {workload} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} checks", flush=True)


def _check_wrong_expectations(problems):
    golden = (run.ROOT / run.GOLDEN).read_bytes()
    perturbed = run.OUT / "perturbed-golden.json"
    run.OUT.mkdir(exist_ok=True)
    perturbed.write_bytes(golden.replace(b'"total": 120', b'"total": 121'))
    cases = [
        ("paper-cli", 0, {"golden": perturbed}),
        ("paper-cli", 1, {"golden": perturbed}),
        ("rank6-census", 0, {"expect": {"orbit": 121}}),
        ("rank6-census", 1, {"expect": {"depths": {"1": 1}}}),
        ("cohomology-crosscheck", 0, {"expect": {"pool": 21}}),
        ("cohomology-crosscheck", 1, {"expect": {"pool": 21}}),
    ]
    for workload, trace, wrong in cases:
        try:
            result, report = run.run(workload, seed=1, seconds=0, trace=trace,
                                     size="minimal", **wrong)
        except Exception as exc:  # the failure this test exists to catch
            problems.append(f"{workload} with {wrong}: crashed with {exc!r}")
            continue
        if result["correct"] or not result["failed"] or report["error_rate"] <= 0:
            problems.append(f"{workload} with {wrong}: not reported as failed")
        else:
            print(f"ok   {workload} trace {trace} with a wrong expectation: "
                  f"error rate {report['error_rate']:.3f} "
                  f"({result['failed']}/{result['attempted']})", flush=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    _check_metrics(spec, problems)
    _check_wrong_expectations(problems)
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
