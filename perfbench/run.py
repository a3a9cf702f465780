"""The torsys benchmark: one command, three workloads, every answer checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src``, nothing needs installing.  Each pass of a workload runs in a fresh
interpreter (``worker.py``, or the CLI itself for ``paper-cli``), one at a
time, so the library's caches start cold and passes never compete for a CPU.
Passes repeat until ``--seconds`` of wall time have gone.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from a traced pass next to an untraced one.  The second-to-last line of
stdout is a JSON report (machine, load, error rate, failures, trace file);
the last line is the result object.  Spans are written to
``.perfbench-out/trace-<workload>-<seed>.json``.  See perfbench/README.md
for what each metric means and which end-to-end metric a layer moves.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
GOLDEN = "tests/data/rank5_report.json"
WORKLOADS = ("paper-cli", "rank6-census", "cohomology-crosscheck")
CLI = ("-m", "torsys.cli", "--format", "json", "reproduce-paper")
SETUP_SAMPLES = 7
INTERPRETER_SAMPLES = 5
CHILD_TIMEOUT_S = 150
MIN_PASSES = {"paper-cli": 5, "rank6-census": 1, "cohomology-crosscheck": 3}


class Run:
    """Children started by one benchmark run and what they reported."""

    def __init__(self, workload, seed, size, expect, golden):
        self.workload = workload
        self.seed = seed
        self.worker_args = ["--workload", workload, "--seed", str(seed),
                            "--size", size, "--expect", json.dumps(expect or {}),
                            "--golden", str(golden)]
        self.golden = golden.read_bytes()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        # per benchmark process, so two runs in one checkout do not collide
        self.child_files = (OUT / f"child-{os.getpid()}.out",
                            OUT / f"child-{os.getpid()}.err")
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def note(self, message: str):
        if len(self.messages) < 20:
            self.messages.append(message)

    def fail(self, message: str):
        self.attempted += 1
        self.failed += 1
        self.note(message)

    def spawn(self, args):
        """Run ``python args`` to completion; return (wall_ns, exit code,
        stdout bytes, stderr bytes, peak RSS in KiB).  A child that outlives
        CHILD_TIMEOUT_S is killed and reported as failed by its caller."""
        OUT.mkdir(exist_ok=True)
        out_path, err_path = self.child_files
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter_ns()
            proc = subprocess.Popen([sys.executable, *args], stdout=out,
                                    stderr=err, env=self.env, cwd=ROOT)
            previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter_ns() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
        return (wall, proc.returncode, out_path.read_bytes(),
                err_path.read_bytes(), usage.ru_maxrss)

    def worker(self, mode, index=0, trace=0):
        """One worker child; its JSON report, or None when it crashed
        (counted as a failed operation)."""
        _, code, out, err, _ = self.spawn(
            [str(HERE / "worker.py"), "--mode", mode, "--index", str(index),
             "--trace", str(trace), *self.worker_args])
        try:
            report = json.loads(out.decode().splitlines()[-1])
        except (IndexError, ValueError):
            report = None
        if code != 0 or report is None:
            self.fail(f"worker {mode} #{index} exited {code}: {err.decode()[-500:]}")
            return None
        self.attempted += report["attempted"]
        self.failed += report["failed"]
        for m in report["messages"]:
            self.note(f"{mode} #{index}: {m}")
        return report

    def cli_pass(self):
        """One cold `torsys --format json reproduce-paper`; returns
        (wall_ns, peak RSS KiB), the output checked byte-for-byte."""
        wall, code, out, err, rss = self.spawn(list(CLI))
        if code != 0 or out != self.golden:
            self.fail(f"reproduce-paper exited {code}, output "
                      f"{'matches' if out == self.golden else 'differs from'} "
                      f"the golden: {err.decode()[-300:]}")
        else:
            self.attempted += 1
        return wall, rss


def _median_s(values_ns):
    """Median of nanosecond samples in seconds; 0.0 for no samples."""
    return statistics.median(values_ns) / 1e9 if values_ns else 0.0


def _pct(values, q):
    """Nearest-rank percentile of a sample; 0.0 for an empty one."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _phase_ns(report, phase):
    """Time of a phase of a worker pass; None when the pass crashed before."""
    return report["phases_ns"].get(phase) if report else None


def end_to_end(run, seconds, min_passes):
    setup_ns = [_phase_ns(run.worker("setup", index=i), "bench.setup")
                for i in range(SETUP_SAMPLES)]
    walls, items, rss = [], 0, []
    started = time.perf_counter()
    index = 0
    while index < min_passes or time.perf_counter() - started < seconds:
        if run.workload == "paper-cli":
            wall, peak = run.cli_pass()
            walls.append(wall)
            items += 1
            rss.append(peak)
        else:
            report = run.worker("pass", index=index)
            if _phase_ns(report, "bench.work") is not None:
                walls.append(report["phases_ns"]["bench.work"])
                items += report["items"]
                rss.append(report["rss_kb"]["bench.work"])
        index += 1
    timed_s = sum(walls) / 1e9
    metrics = {
        "setup_s": (_median_s([t for t in setup_ns if t is not None]), "s"),
        "pass_s": (_median_s(walls), "s"),
        "items_per_s": (items / timed_s if timed_s else 0.0, "1/s"),
        "peak_rss_mb": (statistics.median(rss) / 1024 if rss else 0.0, "MB"),
    }
    return metrics, {"passes": index, "items": items}, []


def _layer_metrics(traced, untraced_ns, interpreter_ns):
    """Per-layer metrics from the spans of the traced passes.  Sums are per
    traced pass; percentiles pool every span of that name."""
    k = len(traced)
    durations = defaultdict(list)
    self_ns = defaultdict(int)
    for report in traced:
        spans = report["spans"]
        child_ns = defaultdict(int)
        root = {}
        for sid, parent, name, start, end in spans:
            root[sid] = name if parent < 0 else root[parent]
            if parent >= 0:
                child_ns[parent] += end - start
        for sid, parent, name, start, end in spans:
            durations[name].append(end - start)
            if root[sid] == "bench.work":
                self_ns[name.split(".")[0]] += end - start - child_ns[sid]
    facts = traced[-1]["facts"] if traced else {}

    def total_s(name):
        return sum(durations[name]) / 1e9 / k if k else 0.0

    def pct(name, q, scale):
        return _pct(durations[name], q) / scale

    orbit_size = facts.get("orbit", 0)
    exceptional = facts.get("exceptional", 0)
    noncon = facts.get("nonconstructible", 0)
    depths = facts.get("depths", {})
    order = facts.get("weyl_order", 0)
    products = facts.get("weyl_products", 0)
    traced_wall = total_s("bench.work")
    m = {
        "trace_overhead_s": (traced_wall - _median_s(untraced_ns), "s"),
        "bench.traced_wall_s": (traced_wall, "s"),
        "bench.self_s": (self_ns["bench"] / 1e9 / max(k, 1), "s"),
        "cli.interpreter_s": (_median_s(interpreter_ns), "s"),
        "cli.import_s": (_median_s(durations["cli.import"]), "s"),
        "surface.pool_build_s": (_median_s(durations["surface.pool_build"]), "s"),
        "isometry.roots_s": (total_s("isometry.roots"), "s"),
        "isometry.weyl_group_s": (total_s("isometry.weyl_group"), "s"),
        "isometry.weyl_order": (order, "count"),
        "isometry.weyl_products": (products, "count"),
        "isometry.weyl_useful_ratio": ((order - 1) / products if products else 0.0, "ratio"),
        "isometry.orbit_s": (total_s("isometry.orbit"), "s"),
        "isometry.orbit_size": (orbit_size, "count"),
        "systems.is_exceptional_s": (total_s("systems.is_exceptional"), "s"),
        "systems.is_exceptional_p50_us": (pct("systems.is_exceptional", 50, 1e3), "us"),
        "systems.is_exceptional_p99_us": (pct("systems.is_exceptional", 99, 1e3), "us"),
        "systems.exceptional_count": (exceptional, "count"),
        "systems.exceptional_share": (exceptional / orbit_size if orbit_size else 0.0, "ratio"),
        "classify.is_constructible_s": (total_s("classify.is_constructible"), "s"),
        "classify.is_constructible_p50_us": (pct("classify.is_constructible", 50, 1e3), "us"),
        "classify.is_constructible_p99_us": (pct("classify.is_constructible", 99, 1e3), "us"),
        "classify.constructible_share": (
            (exceptional - noncon) / exceptional if exceptional else 0.0, "ratio"),
        "classify.certify_full_s": (total_s("classify.certify_full"), "s"),
        "classify.certify_full_p50_ms": (pct("classify.certify_full", 50, 1e6), "ms"),
        "classify.certify_full_p95_ms": (pct("classify.certify_full", 95, 1e6), "ms"),
        "classify.certify_depth1": (depths.get("1", 0), "count"),
        "classify.certify_depth2": (depths.get("2", 0), "count"),
        "classify.certify_depth3": (depths.get("3", 0), "count"),
        "classify.certify_unknown": (facts.get("unknown", 0), "count"),
        "classify.orbit_report_s": (total_s("classify.orbit_report"), "s"),
        "cohomology.cohomology_dims_p50_us": (pct("cohomology.cohomology_dims", 50, 1e3), "us"),
        "cohomology.cohomology_dims_p99_us": (pct("cohomology.cohomology_dims", 99, 1e3), "us"),
        "cohomology.oracle_p50_ms": (pct("cohomology.oracle_cohomology_dims", 50, 1e6), "ms"),
        "cohomology.oracle_p99_ms": (pct("cohomology.oracle_cohomology_dims", 99, 1e6), "ms"),
        "cohomology.classes": (len(durations["cohomology.cohomology_dims"]), "count"),
        "cohomology.distinct_share": (facts.get("distinct_share", 0.0), "ratio"),
        "twist.replay_s": (total_s("twist.replay"), "s"),
    }
    for layer in ("cli", "surface", "cohomology", "isometry", "systems", "classify"):
        m[f"{layer}.self_s"] = (self_ns[layer] / 1e9 / max(k, 1), "s")
    return m


def per_layer(run, seconds):
    """Alternate untraced and traced passes of the worker, at least one of
    each, until ``seconds`` have gone."""
    interpreter_ns = []
    for _ in range(INTERPRETER_SAMPLES):
        wall, code, _, err, _ = run.spawn(["-c", "pass"])
        if code == 0:
            interpreter_ns.append(wall)
        else:
            run.fail(f"bare interpreter exited {code}: {err.decode()[-300:]}")
    traced, untraced_ns = [], []
    started = time.perf_counter()
    index = 0
    while index < 2 or time.perf_counter() - started < seconds:
        trace = index % 2
        report = run.worker("pass", index=index // 2, trace=trace)
        if _phase_ns(report, "bench.work") is not None:
            if trace:
                traced.append(report)
            else:
                untraced_ns.append(report["phases_ns"]["bench.work"])
        index += 1
    spans = [
        {"run": f"{run.workload}/{run.seed}/{i}", "spans": [
            {"id": sid, "parent": parent, "name": name, "start_ns": start, "end_ns": end}
            for sid, parent, name, start, end in report["spans"]]}
        for i, report in enumerate(traced)]
    metrics = _layer_metrics(traced, untraced_ns, interpreter_ns)
    return metrics, {"passes": index, "traced_passes": len(traced)}, spans


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None  # a source checkout without git metadata


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _numpy_version():
    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return None


def run(workload, seed, seconds, trace, size="full", expect=None, golden=None):
    """Run one workload; returns (result object, report)."""
    golden = Path(golden) if golden else ROOT / GOLDEN
    r = Run(workload, seed, size, expect, golden)
    load_before = os.getloadavg()
    r.worker("setup")  # compiles the bytecode and warms the page cache; not measured
    if trace:
        metrics, counts, spans = per_layer(r, seconds)
    else:
        metrics, counts, spans = end_to_end(r, seconds, MIN_PASSES[workload])
    for path in r.child_files:
        path.unlink(missing_ok=True)
    attempted = max(r.attempted, 1)
    result = {
        "correct": r.failed == 0 and r.attempted > 0,
        "attempted": attempted,
        "failed": r.failed if r.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "size": size, **counts,
        "error_rate": result["failed"] / attempted,
        "ops_attempted": attempted,
        "failures": r.messages,
        "machine": {
            "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": _numpy_version(),
            "git_commit": _git_commit(),
            "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        },
    }
    if spans:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{workload}-{seed}.json"
        path.write_text(json.dumps(spans))
        report["trace_file"] = str(path.relative_to(ROOT))
    return result, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in ("src/torsys/cli.py", GOLDEN) if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write(f"perfbench: not a torsys source checkout, missing {missing}\n")
        return 2
    result, report = run(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(json.dumps(report) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
