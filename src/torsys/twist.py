"""Spherical twists along torus-invariant (-2)-curves, acting on Pic(X).

The twist at the spherical sheaf supported on a (-2)-curve C acts on classes
by D -> D + (C.D) C, which is exactly the Weyl reflection at the root C.  On
actual line bundles the twist stays a line bundle only when C.D = 0 (bundle
unchanged) or C.D = 1 (bundle becomes D + C); every other intersection number
leaves the line-bundle world.

This is the bundle-level definition that certificates replay against; the
fullness search in :mod:`torsys.classify` twists toric systems instead.
"""

from __future__ import annotations

from .surface import DivisorClass, ToricSurface, _Record, _set
from .systems import LineBundleSequence


class NotALineBundle(ValueError):
    """The twist output is not a line bundle (C.D outside {0, 1})."""

    def __init__(self, intersection: int, index: int | None = None):
        where = "" if index is None else f" at entry {index}"
        super().__init__(
            f"twist of a class with C.D = {intersection}{where} is not a line bundle"
        )
        self.intersection = intersection
        self.index = index


class TwistByCurve(_Record):
    """The numerical shadow of the twist at an invariant (-2)-curve.  By
    adjunction C.K = -2 - C^2 = 0 for a (-2)-ray, so C is a root."""

    surface: ToricSurface
    curve_ray: int

    def __init__(self, surface: ToricSurface, curve_ray: int):
        a = surface.selfints[curve_ray]
        if a != -2:
            raise ValueError(f"ray {curve_ray} has self-intersection {a}, not -2")
        _set(self, "surface", surface)
        _set(self, "curve_ray", curve_ray)

    @property
    def curve_class(self) -> DivisorClass:
        return self.surface.divisor(self.curve_ray)


def minus_two_rays(x: ToricSurface) -> tuple[int, ...]:
    """Indices of the invariant (-2)-curves."""
    return tuple(i for i, a in enumerate(x.selfints) if a == -2)


def euler_pair_chi(t: TwistByCurve, d: DivisorClass) -> int:
    """Euler pairing of the spherical sheaf against O(D): equals -C.D."""
    return -t.curve_class.dot(d)


def twist_class(t: TwistByCurve, d: DivisorClass) -> DivisorClass:
    """Action on K-theory / Pic: D + (C.D) C, the reflection at the root C."""
    c = t.curve_class
    return d + c.dot(d) * c


def twist_line_bundle(t: TwistByCurve, l: DivisorClass) -> DivisorClass:
    """Twist of an honest line bundle; defined only in the two good cases."""
    c = t.curve_class
    cd = c.dot(l)
    if cd == 0:
        return l
    if cd == 1:
        return l + c
    raise NotALineBundle(cd)


def twist_cases(t: TwistByCurve, seq: LineBundleSequence) -> tuple[int, ...]:
    """Per-entry intersection numbers C.E_i (each must be 0 or 1)."""
    c = t.curve_class
    return tuple(c.dot(e) for e in seq.entries)


def twist_sequence(t: TwistByCurve, seq: LineBundleSequence) -> LineBundleSequence:
    """Entrywise twist of a bundle sequence, renormalized to start at O.

    Raises NotALineBundle with the first failing index.  When it succeeds the
    result is the image of the sequence under the reflection at C, so the
    induced toric system stays valid and exceptionality is preserved.
    """
    t.surface._require_same(seq.surface)
    out = []
    for idx, e in enumerate(seq.entries):
        try:
            out.append(twist_line_bundle(t, e))
        except NotALineBundle as exc:
            raise NotALineBundle(exc.intersection, idx) from None
    return LineBundleSequence.of(out)
