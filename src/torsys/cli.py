"""Command-line front end.

Subcommands: surface, cohomology, check-system, check-exceptional,
check-constructible, certify-full, orbit-report, reproduce-paper.  Inputs are
JSON, inline or by file path; outputs are plain text or JSON (--format).
Exit codes: 0 success / true verdict, 1 false verdict, 2 input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .classify import InvalidWitness, certify_full, is_constructible, orbit_report
from .cohomology import (
    ORACLE_MAX_CHARACTERS,
    cohomology_dims,
    euler_char,
    oracle_cohomology_dims,
)
from .schema import (
    certificate_to_json,
    class_from_json,
    entries_from_json,
    replay_certificate,
    report_to_json,
    sequence_from_json,
    surface_from_json,
    system_from_json,
    witness_to_json,
)
from .surface import coords_in_basis, from_selfints
from .systems import ToricSystem, is_exceptional, to_sequence
from .twist import minus_two_rays

RANK5_SELFINTS = (-2, -1, -1, -1, -1, -2, -1)


# ------------------------------------------------------------------ json input


def _load_json_arg(text: str):
    """Inline JSON, or a path to a JSON file; too deep a nesting is a ValueError."""
    text = text.strip()
    try:
        if text.startswith(("[", "{")):
            return json.loads(text)
        with open(text, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError("the JSON input is nested too deeply") from None


# ------------------------------------------------------------- text rendering


def format_matrix(classes, basis, labels) -> str:
    """Columns are the classes, rows the declared basis (exact coordinates)."""
    cols = [coords_in_basis(c, basis) for c in classes]
    width = max(len(str(v)) for col in cols for v in col)
    width = max(width, max(len(l) for l in labels))
    lines = []
    for r, label in enumerate(labels):
        row = " ".join(f"{cols[c][r]:>{width}}" for c in range(len(cols)))
        lines.append(f"  {label:>{width}} | {row}")
    return "\n".join(lines)


def _print(payload: dict, text: str, fmt: str):
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        sys.stdout.write(text + "\n")


# ----------------------------------------------------------------- subcommands


def _cmd_surface(args) -> int:
    x = surface_from_json(_load_json_arg(args.surface))
    k = x.canonical_class()
    payload = {
        "selfints": list(x.selfints),
        "normalized": list(x.normalized),
        "rays": [list(v) for v in x.rays],
        "pic_rank": x.pic_rank,
        "k0_rank": x.k0_rank,
        "k_squared": k.square(),
        "minus_one_rays": list(x.contractible_rays()),
        "minus_two_rays": list(minus_two_rays(x)),
    }
    text = "\n".join(
        [
            f"surface TV{x.selfints}",
            f"  normalized : {x.normalized}",
            f"  rays       : {list(x.rays)}",
            f"  pic rank   : {x.pic_rank}   k0 rank: {x.k0_rank}   K^2: {k.square()}",
            f"  (-1)-rays  : {list(x.contractible_rays())}",
            f"  (-2)-rays  : {list(minus_two_rays(x))}",
        ]
    )
    _print(payload, text, args.format)
    return 0


def _cmd_cohomology(args) -> int:
    x = surface_from_json(_load_json_arg(args.surface))
    d = class_from_json(x, _load_json_arg(args.cls))
    dims = cohomology_dims(d)
    payload = {
        "h0": dims.h0,
        "h1": dims.h1,
        "h2": dims.h2,
        "euler": euler_char(d),
    }
    text = f"h = ({dims.h0}, {dims.h1}, {dims.h2})   chi = {euler_char(d)}"
    if args.oracle:
        odims = oracle_cohomology_dims(d)
        payload["oracle"] = {"h0": odims.h0, "h1": odims.h1, "h2": odims.h2}
        payload["agree"] = tuple(dims) == tuple(odims)
        text += f"\noracle = ({odims.h0}, {odims.h1}, {odims.h2})   agree = {payload['agree']}"
    _print(payload, text, args.format)
    return 0


def _cmd_check_system(args) -> int:
    x, entries = entries_from_json(_load_json_arg(args.system))
    try:
        ToricSystem.validate(x, entries)
        _print({"valid": True}, "valid toric system", args.format)
        return 0
    except ValueError as exc:
        _print({"valid": False, "reason": str(exc)}, f"not a toric system: {exc}", args.format)
        return 1


def _cmd_check_exceptional(args) -> int:
    system = system_from_json(_load_json_arg(args.system))
    flag = is_exceptional(system)
    _print({"exceptional": flag}, f"exceptional: {flag}", args.format)
    return 0 if flag else 1


def _cmd_check_constructible(args) -> int:
    system = system_from_json(_load_json_arg(args.system))
    witness = is_constructible(system)
    if witness is None:
        _print({"constructible": False}, "constructible: False", args.format)
        return 1
    if witness.replay() != system:
        raise InvalidWitness("the witness does not replay to the input system")
    payload = {"constructible": True, "witness": witness_to_json(witness)}
    steps = " -> ".join(
        f"TV{st.surface.selfints} contract ray {st.ray} (entry {st.position})"
        for st in witness.steps
    )
    base = f"{witness.base_class.kind}_({witness.base_class.r},{witness.base_class.i})"
    _print(payload, f"constructible: True\n  {steps or '(already Hirzebruch)'}\n  base {base}", args.format)
    return 0


def _cmd_certify_full(args) -> int:
    seq = sequence_from_json(_load_json_arg(args.sequence))
    cert = certify_full(seq, max_depth=args.max_depth)
    replay_certificate(seq, cert)
    payload = certificate_to_json(cert)
    lines = [f"verdict: {cert.verdict}"]
    if cert.twists:
        lines.append(
            "twists: " + ", ".join(f"ray {t.curve_ray}" for t in cert.twists)
        )
    if cert.notes:
        lines.extend(f"note: {n}" for n in cert.notes)
    _print(payload, "\n".join(lines), args.format)
    return 0 if cert.verdict == "full" else 1


def _cmd_orbit_report(args) -> int:
    x = surface_from_json(_load_json_arg(args.surface))
    report = orbit_report(x)
    payload = report_to_json(report)
    lines = [
        f"surface TV{x.selfints}",
        f"  orbit size       : {report.total}",
        f"  exceptional      : {report.exceptional_count}",
        f"  constructible    : {report.constructible_count}",
        f"  non-constructible: {len(report.nonconstructible)}",
    ]
    for i, j, f in report.automorphism_pairing:
        lines.append(
            f"  pairing: #{i} -> #{j} via ray permutation {f.ray_permutation}"
        )
    _print(payload, "\n".join(lines), args.format)
    return 0


def _cmd_reproduce_paper(args) -> int:
    """One-shot rank-5 computation: orbit counts, the printed matrices of the
    non-constructible system, its bundle sequence and its twist image, and
    depth-1 fullness certificates for both non-constructible sequences.  The
    text is built only for ``--format text``."""
    x = from_selfints(RANK5_SELFINTS)
    report = orbit_report(x)
    ok = (
        report.total == 120
        and report.exceptional_count == 98
        and len(report.nonconstructible) == 2
        and len(report.automorphism_pairing) == 2
    )
    payload = report_to_json(report)
    payload["certificates"] = []
    certified = []
    for system in report.nonconstructible:
        seq = to_sequence(system)
        cert = certify_full(seq, max_depth=1)
        replay_certificate(seq, cert)
        ok = ok and cert.verdict == "full" and len(cert.twists) == 1
        payload["certificates"].append(certificate_to_json(cert))
        certified.append((system, seq, cert))
    payload["ok"] = ok
    text = _reproduce_paper_text(report, certified, ok) if args.format == "text" else ""
    _print(payload, text, args.format)
    return 0 if ok else 1


def _reproduce_paper_text(report, certified, ok: bool) -> str:
    """The text of ``reproduce-paper``; ``certified`` holds (system,
    sequence, certificate) per non-constructible system."""
    x = report.surface
    basis = [x.divisor(i) for i in (1, 2, 3, 4, 6)]
    labels = ["D2", "D3", "D4", "D5", "D7"]
    lines = [
        f"surface TV{x.selfints}",
        f"orbit of the standard toric system under all K-isometries: {report.total}",
        f"exceptional: {report.exceptional_count}",
        f"constructible: {report.constructible_count}",
        f"non-constructible: {len(report.nonconstructible)}",
    ]
    for idx, (system, seq, cert) in enumerate(certified):
        lines.append("")
        lines.append(f"non-constructible system #{idx} over basis (D2,D3,D4,D5,D7):")
        lines.append(format_matrix(system.entries, basis, labels))
        lines.append(f"its exceptional sequence:")
        lines.append(format_matrix(seq.entries, basis, labels))
        lines.append(
            f"fullness: {cert.verdict} via twist at ray "
            + ", ".join(str(t.curve_ray) for t in cert.twists)
        )
        if cert.final_sequence is not None:
            lines.append("twisted (constructible) sequence:")
            lines.append(format_matrix(cert.final_sequence.entries, basis, labels))
    lines.append("")
    lines.append(f"all checks passed: {ok}")
    return "\n".join(lines)


# ----------------------------------------------------------------------- main


def _int_at_least(low: int):
    """argparse type: an integer >= low (argparse exits with code 2 otherwise)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsys",
        description="Toric systems, K-isometry orbits and spherical twists on toric surfaces",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("surface", help="inspect a surface")
    p.add_argument("--surface", required=True, help='JSON [a_1,...] or {"selfints": [...]} or a path')
    p.set_defaults(func=_cmd_surface)

    p = sub.add_parser("cohomology", help="line-bundle cohomology dimensions")
    p.add_argument("--surface", required=True)
    p.add_argument("--class", dest="cls", required=True, help='JSON [c_1,...] or {"coeffs": [...]} or a path')
    p.add_argument(
        "--oracle", action="store_true",
        help=f"also run the brute-force oracle (at most {ORACLE_MAX_CHARACTERS:,} characters)",
    )
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("check-system", help="validate a toric system")
    p.add_argument("--system", required=True, help='JSON {"surface":..., "entries": [[...]]} or a path')
    p.set_defaults(func=_cmd_check_system)

    p = sub.add_parser("check-exceptional", help="test exceptionality of a toric system")
    p.add_argument("--system", required=True)
    p.set_defaults(func=_cmd_check_exceptional)

    p = sub.add_parser("check-constructible", help="search a de-augmentation witness")
    p.add_argument("--system", required=True)
    p.set_defaults(func=_cmd_check_constructible)

    p = sub.add_parser("certify-full", help="certify fullness of a bundle sequence")
    p.add_argument("--sequence", required=True, help='JSON {"surface":..., "entries": [[...]]} or a path')
    p.add_argument("--max-depth", type=_int_at_least(0), default=3, help="twist search depth")
    p.set_defaults(func=_cmd_certify_full)

    p = sub.add_parser("orbit-report", help="classify the Weyl orbit of the standard system")
    p.add_argument("--surface", required=True)
    p.set_defaults(func=_cmd_orbit_report)

    p = sub.add_parser("reproduce-paper", help="run the bundled rank-5 computation")
    p.set_defaults(func=_cmd_reproduce_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, TypeError) as exc:
        sys.stderr.write(f"error: {exc!r}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
