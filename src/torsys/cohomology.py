"""Sheaf cohomology of line bundles on a toric surface, two independent ways.

Fast path: h^0 counts lattice points of the polytope {m : <m, v_i> >= -c_i},
h^2 comes from Serre duality h^2(D) = h^0(K - D), and h^1 is recovered from
the exact Euler characteristic chi(D) = 1 + (D^2 - D.K)/2 (Riemann-Roch on a
rational surface).

Oracle: for every character m in a box, the rays where the section fails form
a subcomplex of the boundary circle of the fan; its reduced cohomology gives
the weight-m contribution (empty -> h^0, everything -> h^2, d arcs -> d - 1 to
h^1).  The two paths share no code and cross-validate each other.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .surface import DivisorClass, from_selfints

Character = tuple[int, int]


class InternalInconsistency(RuntimeError):
    """Two computations that must agree did not (for example, the fast-path
    dimensions came out negative): an implementation bug."""


@dataclass(frozen=True)
class CohomologyDims:
    h0: int
    h1: int
    h2: int

    def __iter__(self):
        return iter((self.h0, self.h1, self.h2))

    @property
    def euler(self) -> int:
        return self.h0 - self.h1 + self.h2

    def is_zero(self) -> bool:
        return self.h0 == 0 and self.h1 == 0 and self.h2 == 0


def euler_char(d: DivisorClass) -> int:
    """chi(O(D)) = 1 + (D^2 - D.K)/2, exact."""
    num = d.square() - d.k_degree()
    assert num % 2 == 0
    return 1 + num // 2


def h0(d: DivisorClass) -> int:
    """Number of characters m with <m, v_i> >= -c_i for all i."""
    return _h0_cached(d.surface.selfints, d.reduced())


@functools.lru_cache(maxsize=200_000)
def _h0_cached(selfints: tuple[int, ...], coeffs: tuple[int, ...]) -> int:
    x = from_selfints(selfints)
    rays = x.rays
    n = x.n
    # Any vertex of the (bounded) section polytope solves two of the facet
    # equations, so the pairwise line intersections bound it.
    xs: list[Fraction] = []
    for i in range(n):
        vix, viy = rays[i]
        for j in range(i + 1, n):
            vjx, vjy = rays[j]
            det = vix * vjy - viy * vjx
            if det == 0:
                continue
            xs.append(Fraction(-coeffs[i] * vjy + coeffs[j] * viy, det))
    if not xs:
        return 0
    lo = min(xs)
    hi = max(xs)
    x_min = lo.numerator // lo.denominator
    x_max = -((-hi.numerator) // hi.denominator)
    count = 0
    for mx in range(x_min, x_max + 1):
        y_lo, y_hi = None, None
        feasible = True
        for (vx, vy), c in zip(rays, coeffs):
            rhs = -c - vx * mx  # need vy * my >= rhs
            if vy > 0:
                b = -((-rhs) // vy)  # ceil(rhs / vy)
                if y_lo is None or b > y_lo:
                    y_lo = b
            elif vy < 0:
                b = rhs // vy  # floor for negative divisor
                if y_hi is None or b < y_hi:
                    y_hi = b
            elif rhs > 0:
                feasible = False
                break
        if feasible and y_lo is not None and y_hi is not None and y_hi >= y_lo:
            count += y_hi - y_lo + 1
    return count


def cohomology_dims(d: DivisorClass) -> CohomologyDims:
    """All three dimensions: h^0 by lattice points, h^2 by Serre duality,
    h^1 = h^0 + h^2 - chi."""
    a = h0(d)
    c = h0(d.surface.canonical_class() - d)
    b = a + c - euler_char(d)
    if b < 0:
        raise InternalInconsistency(
            f"h1 = {b} < 0 for {d.coeffs} on {d.surface}"
        )
    return CohomologyDims(a, b, c)


def vanishes_totally(d: DivisorClass) -> bool:
    """True when all cohomology of O(D) vanishes."""
    return _vanishes_cached(d.surface.selfints, d.reduced())


@functools.lru_cache(maxsize=200_000)
def _vanishes_cached(selfints: tuple[int, ...], coeffs: tuple[int, ...]) -> bool:
    return cohomology_dims(from_selfints(selfints).divisor_class(coeffs)).is_zero()


def oracle_cohomology_dims(d: DivisorClass, bound: int | None = None) -> CohomologyDims:
    """Independent brute-force computation by summing over characters.

    For each m in the box [-B, B]^2, the rays with <m, v_i> < -c_i span a
    subcomplex of the fan's boundary circle; weight m contributes 1 to h^0 if
    the subcomplex is empty, 1 to h^2 if it is the whole circle, and
    (number of arcs - 1) to h^1 otherwise.  The default box bound is
    B = sum|c_i| * max|v_i|_inf + 1, which contains every contributing m.
    """
    x = d.surface
    coeffs = d.reduced()
    if bound is None:
        max_ray = max(max(abs(vx), abs(vy)) for vx, vy in x.rays)
        bound = sum(abs(c) for c in coeffs) * max_ray + 1
    grid = np.arange(-bound, bound + 1, dtype=np.int64)
    mx, my = np.meshgrid(grid, grid, indexing="ij")
    chars = np.stack([mx.ravel(), my.ravel()], axis=1)
    rays = np.array(x.rays, dtype=np.int64)
    vals = chars @ rays.T
    failing = vals < -np.array(coeffs, dtype=np.int64)
    full = failing.all(axis=1)
    empty = ~failing.any(axis=1)
    arc_starts = (failing & ~np.roll(failing, 1, axis=1)).sum(axis=1)
    mid = ~(full | empty)
    h0_ = int(empty.sum())
    h2_ = int(full.sum())
    h1_ = int((arc_starts[mid] - 1).sum())
    return CohomologyDims(h0_, h1_, h2_)
