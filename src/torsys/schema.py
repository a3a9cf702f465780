"""The JSON schema: readers and writers for surfaces, classes, systems,
sequences, witnesses, certificates and orbit reports, and the replay of a
fullness certificate.

Readers take parsed JSON (lists and dicts). The integer-only rule is the
library's own: :func:`from_selfints` and :meth:`ToricSurface.divisor_class`
refuse every value whose type is not exactly ``int``. A surface with more
than :data:`MAX_RAYS` rays is refused before any work; the library API itself
is uncapped.
"""

from __future__ import annotations

from .classify import (
    ConstructibilityWitness,
    FullnessCertificate,
    InvalidWitness,
    OrbitReport,
)
from .surface import DivisorClass, FanAutomorphism, ToricSurface, from_selfints
from .systems import LineBundleSequence, ToricSystem, from_sequence
from .twist import TwistByCurve, twist_cases, twist_sequence

# On P^2 blown up at ray 0 until it has 24, 28 or 32 rays, a fresh CLI
# process (about 0.2 s of it the import) takes about 0.2 / 0.2 / 0.3 s for
# check-exceptional, 0.4 / 0.55 / 0.7 s for check-constructible and
# 0.4 / 0.5 / 0.75 s for certify-full on the standard system and its
# sequence (2 cores, Python 3.11.7; 28 and 32 rays with the cap lifted).
# On a non-constructible input, the first non-constructible system of the
# rank-6 orbit report augmented at (0, 0) up to 24, 28 or 32 rays (it stays
# exceptional and non-constructible, and certifies after three twists),
# certify-full takes about 0.7 / 1.2 / 1.7 s in a fresh process, replay
# included (median of 6 runs each, same machine); at 24 rays most of it is
# the cohomology of 11,744 segment classes
MAX_RAYS = 24


class TooManyRays(ValueError):
    """A surface read from JSON has more than MAX_RAYS rays."""


# --------------------------------------------------------------------- readers


def surface_from_json(data) -> ToricSurface:
    if isinstance(data, dict):
        data = data["selfints"]
    if len(data) > MAX_RAYS:
        raise TooManyRays(f"a surface has at most {MAX_RAYS} rays, got {len(data)}")
    return from_selfints(data)


def class_from_json(x: ToricSurface, data) -> DivisorClass:
    if isinstance(data, dict):
        data = data["coeffs"]
    return x.divisor_class(data)


def entries_from_json(data) -> tuple[ToricSurface, list[DivisorClass]]:
    """The surface and the entries of a system or sequence, unvalidated."""
    x = surface_from_json(data["surface"])
    return x, [x.divisor_class(c) for c in data["entries"]]


def system_from_json(data) -> ToricSystem:
    return ToricSystem.validate(*entries_from_json(data))


def sequence_from_json(data) -> LineBundleSequence:
    return LineBundleSequence.of(entries_from_json(data)[1])


# --------------------------------------------------------------------- writers


def surface_to_json(x: ToricSurface) -> dict:
    return {"selfints": list(x.selfints)}


def system_to_json(s: ToricSystem | LineBundleSequence) -> dict:
    """A toric system or a bundle sequence: both are a surface and entries."""
    return {
        "surface": surface_to_json(s.surface),
        "entries": [list(a.coeffs) for a in s.entries],
    }


def witness_to_json(w: ConstructibilityWitness) -> dict:
    return {
        "base": {
            "system": system_to_json(w.base_system),
            "kind": w.base_class.kind,
            "r": w.base_class.r,
            "i": w.base_class.i,
        },
        "steps": [
            {
                "surface": surface_to_json(st.surface),
                "ray": st.ray,
                "position": st.position,
                "exceptional": list(st.exceptional.coeffs),
            }
            for st in w.steps
        ],
    }


def certificate_to_json(c: FullnessCertificate) -> dict:
    return {
        "verdict": c.verdict,
        "twists": [
            {
                "curve_ray": t.curve_ray,
                "applied_positions": list(t.applied_positions),
                "case_per_entry": list(t.cases),
            }
            for t in c.twists
        ],
        "witness": witness_to_json(c.witness) if c.witness else None,
        "final": system_to_json(c.final_sequence) if c.final_sequence else None,
        "notes": list(c.notes),
    }


def automorphism_to_json(f: FanAutomorphism) -> dict:
    return {
        "lattice_map": [list(r) for r in f.lattice_map],
        "ray_permutation": list(f.ray_permutation),
    }


def report_to_json(r: OrbitReport) -> dict:
    return {
        "surface": surface_to_json(r.surface),
        "total": r.total,
        "exceptional": r.exceptional_count,
        "constructible": r.constructible_count,
        "nonconstructible": [system_to_json(s) for s in r.nonconstructible],
        "automorphism_pairing": [
            {"from": i, "to": j, "automorphism": automorphism_to_json(f)}
            for i, j, f in r.automorphism_pairing
        ],
    }


# ---------------------------------------------------------------------- replay


def replay_certificate(seq: LineBundleSequence, cert: FullnessCertificate) -> None:
    """Raise InvalidWitness unless the recorded twists, applied to ``seq``
    through :mod:`torsys.twist`, meet the recorded cases and end on the final
    sequence, and the witness replays to that sequence's toric system."""
    for t in cert.twists:
        twist = TwistByCurve(seq.surface, t.curve_ray)
        if twist_cases(twist, seq) != t.cases:
            raise InvalidWitness(f"the twist at ray {t.curve_ray} does not meet its recorded cases")
        seq = twist_sequence(twist, seq)
    if cert.verdict != "full":
        return
    if seq != cert.final_sequence:
        raise InvalidWitness("the recorded twists do not end on the final sequence")
    if cert.witness is None or cert.witness.replay() != from_sequence(seq):
        raise InvalidWitness("the witness does not replay to the final sequence")
