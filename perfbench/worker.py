"""One pass of a perfbench workload, run in a fresh interpreter.

    python3 perfbench/worker.py --mode setup|pass --workload NAME --seed N
        [--index K] [--trace 0|1] [--size full|minimal] [--expect JSON]
        [--golden PATH]

run.py starts one of these per pass, with ``src`` on PYTHONPATH, so the
library's caches (the ``h0`` lru_cache, interned surfaces, good-basis paths,
per-surface Gram and automorphism caches) start cold as they do for a user.
torsys is imported inside the pass, never at module level, so its import
cost is measured.  ``--mode setup`` stops after the set-up.

Every call into the library goes through ``tracer.span(name)``, named
``<module>.<function>``; untraced passes record no spans.
Spans sit at the benchmark's own call sites only, nothing is hooked inside
the library.  A pass has up to three root spans (phases): ``bench.setup``
(import and inputs), ``bench.work`` (the timed work) and ``bench.check``
(correctness checks, never timed).

The pass prints one JSON object: phase times, the peak RSS at the end of
each phase, the checks attempted and failed with the first failure messages,
facts about the answers, and the spans when traced.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import sys
import time
import traceback

GOLDEN = "tests/data/rank5_report.json"
RANK5 = (-2, -1, -1, -1, -1, -2, -1)
RANK6 = (-2, -1, -2, -1, -2, -1, -2, -1)

# Inputs and expected answers per workload and size.  The rank-6 counts were
# computed with this library (the paper stops at rank 5); the minimal size
# runs the same census on the paper's rank-5 surface.
PARAMS = {
    "paper-cli": {
        "full": {"orbit": 120, "exceptional": 98, "nonconstructible": 2},
        "minimal": {"orbit": 120, "exceptional": 98, "nonconstructible": 2},
    },
    "rank6-census": {
        "full": {"selfints": RANK6, "orbit": 1920, "exceptional": 1416,
                 "nonconstructible": 536, "depths": {"1": 480, "2": 48, "3": 8},
                 "unknown": 0, "max_depth": 3},
        "minimal": {"selfints": RANK5, "orbit": 120, "exceptional": 98,
                    "nonconstructible": 2, "depths": {"1": 2}, "unknown": 0,
                    "max_depth": 3},
    },
    "cohomology-crosscheck": {
        "full": {"max_rays": 8, "pool": 132, "classes": 50, "coeff": 5},
        "minimal": {"max_rays": 6, "pool": 20, "classes": 10, "coeff": 2},
    },
}


class _Phase:
    """A root span that is always timed: the pass adds up the time of each
    phase name and records the process's peak RSS (KiB) as the phase ends."""

    __slots__ = ("tracer", "name", "span", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.span = tracer.span(name)

    def __enter__(self):
        self.span.__enter__()
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter_ns() - self.start
        self.span.__exit__(*exc)
        phases = self.tracer.phases
        phases[self.name] = phases.get(self.name, 0) + elapsed
        self.tracer.rss_kb[self.name] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return False


_NULL_SPAN = contextlib.nullcontext()


class _Span:
    __slots__ = ("stack", "record")

    def __init__(self, stack, record):
        self.stack = stack
        self.record = record

    def __enter__(self):
        self.stack.append(self.record[0])
        self.record[3] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.record[4] = time.perf_counter_ns()
        self.stack.pop()
        return False


class Tracer:
    """Times the phases of a pass.  When traced it also keeps every span in
    memory as [id, parent id or -1, name, start_ns, end_ns]; untraced,
    ``spans`` is None and ``span`` records nothing."""

    def __init__(self, traced: bool):
        self.spans: list[list] | None = [] if traced else None
        self.phases: dict[str, int] = {}
        self.rss_kb: dict[str, int] = {}
        self._stack: list[int] = []

    def span(self, name):
        if self.spans is None:
            return _NULL_SPAN
        parent = self._stack[-1] if self._stack else -1
        record = [len(self.spans), parent, name, 0, 0]
        self.spans.append(record)
        return _Span(self._stack, record)

    def phase(self, name):
        return _Phase(self, name)


class Checks:
    """Counts correctness checks; a failed check is recorded, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(message)
        return ok


def enumerate_blowups(from_selfints, max_n: int):
    """Surfaces reachable from F_0..F_3 by blow-ups, up to max_n rays, one per
    normalized self-intersection sequence, sorted by (n, normalized)."""
    surfaces = {}
    frontier = [from_selfints((r, 0, -r, 0)) for r in range(4)]
    for s in frontier:
        surfaces.setdefault(s.normalized, s)
    while frontier:
        new = []
        for s in frontier:
            if s.n >= max_n:
                continue
            for pos in range(s.n):
                t = s.blow_up(pos).above
                if t.normalized not in surfaces:
                    surfaces[t.normalized] = t
                    new.append(t)
        frontier = new
    return sorted(surfaces.values(), key=lambda s: (s.n, s.normalized))


def setup(tr, workload, p, chk, seed, index):
    """Import torsys and build the pass's inputs, in phase ``bench.setup``.
    For paper-cli the import belongs to the timed command, so this is only
    the cold import that ``setup_s`` measures."""
    with tr.phase("bench.setup"):
        with tr.span("cli.import"):
            import torsys.cli  # noqa: F401  (the whole package, CLI included)
        from torsys.surface import from_selfints
        from torsys.systems import standard_system

        if workload == "rank6-census":
            with tr.span("surface.pool_build"):
                x = from_selfints(p["selfints"])
            with tr.span("systems.standard_system"):
                return x, standard_system(x)
        if workload == "cohomology-crosscheck":
            with tr.span("surface.pool_build"):
                pool = enumerate_blowups(from_selfints, p["max_rays"])
            chk.check(len(pool) == p["pool"], f"pool has {len(pool)} surfaces")
            # Every pass spreads its classes evenly over the pool (sorted by
            # size), shifted by one surface per pass, so passes cost alike and
            # every seed covers the surfaces equally; the seed draws the
            # coefficients.
            rng = random.Random(f"{seed}/{index}")
            classes = []
            for i in range(p["classes"]):
                s = pool[(index + i * len(pool) // p["classes"]) % len(pool)]
                classes.append(s.divisor_class(
                    [rng.randint(-p["coeff"], p["coeff"]) for _ in range(s.n)]))
            return classes
    return None


def _depths(certs) -> tuple[dict[str, int], int]:
    """Histogram of twist counts of the "full" certificates, and the number
    of "unknown" ones."""
    depths: dict[str, int] = {}
    for c in certs:
        if c.verdict == "full":
            depths[str(len(c.twists))] = depths.get(str(len(c.twists)), 0) + 1
    return depths, sum(c.verdict != "full" for c in certs)


def _replay_certificates(tr, chk, systems, certs) -> bool:
    """Replay each certificate's twists with TwistByCurve / twist_sequence and
    its de-augmentation witness; True when every replay reproduces it."""
    from torsys.systems import from_sequence, to_sequence
    from torsys.twist import TwistByCurve, twist_cases, twist_sequence

    all_ok = True
    for system, cert in zip(systems, certs):
        if cert.verdict != "full":
            continue  # counted by the caller's "unknown" check
        with tr.span("twist.replay"):
            seq = to_sequence(system)
            cases_ok = True
            for application in cert.twists:
                t = TwistByCurve(system.surface, application.curve_ray)
                cases_ok &= twist_cases(t, seq) == application.cases
                seq = twist_sequence(t, seq)
        ok = chk.check(cases_ok and seq == cert.final_sequence,
                       f"twist replay differs for {system!r}")
        with tr.span("classify.witness_replay"):
            replayed = cert.witness.replay()
        ok &= chk.check(replayed == from_sequence(cert.final_sequence),
                        f"certificate witness replay differs for {system!r}")
        all_ok &= ok
    return all_ok


def paper_cli(tr, p, chk, inputs, golden_path):
    """In-process replay of `torsys --format json reproduce-paper`: the same
    public calls the command makes, rendered with the command's own JSON
    helpers and compared byte-for-byte with the golden."""
    with open(golden_path, "rb") as fh:
        golden = fh.read()
    with tr.phase("bench.work"):
        with tr.span("cli.import"):
            from torsys import cli
        from torsys.classify import certify_full, orbit_report
        from torsys.surface import from_selfints
        from torsys.systems import to_sequence

        with tr.span("surface.pool_build"):
            x = from_selfints(RANK5)
        with tr.span("classify.orbit_report"):
            report = orbit_report(x)
        certs = []
        for system in report.nonconstructible:
            with tr.span("systems.to_sequence"):
                seq = to_sequence(system)
            with tr.span("classify.certify_full"):
                certs.append(certify_full(seq, max_depth=1))
        with tr.span("cli.render"):
            payload = cli.report_to_json(report)
            payload["certificates"] = [cli.certificate_to_json(c) for c in certs]
    with tr.phase("bench.check"):
        ok = chk.check(report.total == p["orbit"], f"orbit {report.total}")
        ok &= chk.check(report.exceptional_count == p["exceptional"],
                        f"exceptional {report.exceptional_count}")
        ok &= chk.check(len(report.nonconstructible) == p["nonconstructible"],
                        f"non-constructible {len(report.nonconstructible)}")
        ok &= _replay_certificates(tr, chk, report.nonconstructible, certs)
        # the command's own "ok": its pairing and depth-1 conditions
        ok &= len(report.automorphism_pairing) == 2
        ok &= all(c.verdict == "full" and len(c.twists) == 1 for c in certs)
        payload["ok"] = ok
        text = (json.dumps(payload, sort_keys=True) + "\n").encode()
        chk.check(text == golden, "in-process reproduce-paper differs from the golden")
    depths, unknown = _depths(certs)
    return 1, {"orbit": report.total, "exceptional": report.exceptional_count,
               "nonconstructible": len(report.nonconstructible),
               "depths": depths, "unknown": unknown}


def rank6_census(tr, p, chk, inputs, golden_path):
    """Classify the Weyl orbit of the standard system through the public
    calls, in the order a user would make them."""
    from torsys.classify import certify_full, is_constructible
    from torsys.isometry import orbit, roots, weyl_group
    from torsys.systems import is_exceptional, to_sequence

    x, std = inputs
    with tr.phase("bench.work"):
        with tr.span("isometry.roots"):
            rts = roots(x)
        with tr.span("isometry.weyl_group"):
            group = weyl_group(x)
        with tr.span("isometry.orbit"):
            systems = orbit(std, group)
        exceptional = []
        for s in systems:
            with tr.span("systems.is_exceptional"):
                flag = is_exceptional(s)
            if flag:
                exceptional.append(s)
        witnessed, nonconstructible = [], []
        for s in exceptional:
            with tr.span("classify.is_constructible"):
                w = is_constructible(s)
            if w is None:
                nonconstructible.append(s)
            else:
                witnessed.append((s, w))
        certs = []
        for s in nonconstructible:
            with tr.span("systems.to_sequence"):
                seq = to_sequence(s)
            with tr.span("classify.certify_full"):
                certs.append(certify_full(seq, max_depth=p["max_depth"]))
    depths, unknown = _depths(certs)
    with tr.phase("bench.check"):
        chk.check(len(systems) == p["orbit"], f"orbit {len(systems)}")
        chk.check(len(exceptional) == p["exceptional"], f"exceptional {len(exceptional)}")
        chk.check(len(nonconstructible) == p["nonconstructible"],
                  f"non-constructible {len(nonconstructible)}")
        chk.check(depths == p["depths"] and unknown == p["unknown"],
                  f"twist depths {depths}, unknown {unknown}")
        for s, w in witnessed:
            with tr.span("classify.witness_replay"):
                replayed = w.replay()
            chk.check(replayed == s, f"witness replay differs for {s!r}")
        _replay_certificates(tr, chk, nonconstructible, certs)
    facts = {"orbit": len(systems), "exceptional": len(exceptional),
             "nonconstructible": len(nonconstructible), "depths": depths,
             "unknown": unknown, "weyl_order": len(group),
             # the closure multiplies every element by every distinct
             # reflection, and a root and its negative give the same one
             "weyl_products": len(group) * (len(rts) // 2)}
    if tr.spans is not None:
        facts["distinct_share"] = _segment_distinct_share(systems)
    return len(systems), facts


def _segment_distinct_share(systems) -> float:
    """Share of distinct classes among the negated segment sums
    -(A_i + ... + A_j), j < n - 1, of every orbit system: the classes whose
    cohomology is_exceptional can ask for."""
    keys, total = set(), 0
    for s in systems:
        entries = s.entries
        for i in range(len(entries) - 1):
            seg = entries[i]
            for j in range(i, len(entries) - 1):
                if j > i:
                    seg = seg + entries[j]
                keys.add((-seg).reduced())
                total += 1
    return len(keys) / total


def cohomology_crosscheck(tr, p, chk, classes, golden_path):
    """Run every seeded class through the fast path and the oracle, as the
    test suite's cross-check does; compare them and the Euler characteristic
    outside the timed work."""
    from torsys.cohomology import cohomology_dims, euler_char, oracle_cohomology_dims

    results = []
    with tr.phase("bench.work"):
        for d in classes:
            with tr.span("cohomology.cohomology_dims"):
                fast = cohomology_dims(d)
            with tr.span("cohomology.oracle_cohomology_dims"):
                oracle = oracle_cohomology_dims(d)
            results.append((fast, oracle))
    with tr.phase("bench.check"):
        for d, (fast, oracle) in zip(classes, results):
            with tr.span("cohomology.euler_char"):
                chi = euler_char(d)
            chk.check(tuple(fast) == tuple(oracle) and oracle.euler == chi,
                      f"{d.surface.selfints} {d.coeffs}: fast {tuple(fast)}, "
                      f"oracle {tuple(oracle)}, chi {chi}")
    distinct = len({(d.surface.selfints, d.reduced()) for d in classes})
    return len(classes), {"classes": len(classes),
                          "distinct_share": distinct / len(classes)}


WORKLOADS = {
    "paper-cli": paper_cli,
    "rank6-census": rank6_census,
    "cohomology-crosscheck": cohomology_crosscheck,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "pass"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--index", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "minimal"), default="full")
    ap.add_argument("--expect", default="{}", help="JSON overriding expected answers")
    ap.add_argument("--golden", default=GOLDEN)
    args = ap.parse_args(argv)

    params = dict(PARAMS[args.workload][args.size], **json.loads(args.expect))
    tr = Tracer(traced=bool(args.trace))
    chk = Checks()
    items, facts, inputs = 0, {}, None
    try:
        # the reproduce-paper replay imports torsys inside its timed work
        if args.mode == "setup" or args.workload != "paper-cli":
            inputs = setup(tr, args.workload, params, chk, args.seed, args.index)
        if args.mode == "pass":
            items, facts = WORKLOADS[args.workload](
                tr, params, chk, inputs, args.golden)
    except Exception:  # a crashing pass is a failed operation, not a crash
        chk.attempted += 1
        chk.failed += 1
        chk.messages.append(traceback.format_exc(limit=5))
    sys.stdout.write(json.dumps({
        "items": items,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "messages": chk.messages,
        "facts": facts,
        "phases_ns": tr.phases,
        "rss_kb": tr.rss_kb,
        "spans": tr.spans,
    }) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
