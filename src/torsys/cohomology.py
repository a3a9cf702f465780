"""Sheaf cohomology of line bundles on a toric surface, two independent ways.

Fast path: h^0 counts lattice points of the polytope {m : <m, v_i> >= -c_i},
h^2 comes from Serre duality h^2(D) = h^0(K - D), and h^1 is recovered from
the exact Euler characteristic chi(D) = 1 + (D^2 - D.K)/2 (Riemann-Roch on a
rational surface).

Oracle: for every character m in a box, the rays where the section fails form
a subcomplex of the boundary circle of the fan; its reduced cohomology gives
the weight-m contribution (empty -> h^0, everything -> h^2, d arcs -> d - 1 to
h^1).  Along one column of the box each ray fails on a half-line, so the
failing set is constant on at most n + 1 runs, and each run is weighed once
and counted by its length.  The two paths share no code and cross-validate
each other.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .surface import DivisorClass, InternalInconsistency, from_selfints


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
    if num % 2 != 0:
        raise InternalInconsistency(
            f"D^2 - D.K = {num} is odd for {d.coeffs} on {d.surface}"
        )
    return 1 + num // 2


H0_MAX_COLUMNS = 4_000_000


class H0TooLarge(ValueError):
    """The section polytope's x-extent, rounded outwards to integers, spans
    more than H0_MAX_COLUMNS columns."""


def h0(d: DivisorClass) -> int:
    """Number of characters m with <m, v_i> >= -c_i for all i.  A section
    polytope wider than H0_MAX_COLUMNS columns raises H0TooLarge before any
    scan; an empty one gives 0 without a scan."""
    return _h0_cached(d.surface.selfints, d.reduced())


@functools.lru_cache(maxsize=200_000)
def _h0_cached(selfints: tuple[int, ...], coeffs: tuple[int, ...]) -> int:
    """Scan the columns between the leftmost and rightmost vertex of the
    section polytope.  The fan is complete, so the polytope is bounded, and
    when it is not empty each vertex is a pairwise facet-line intersection
    (num_x, num_y) / det that satisfies every inequality.  With no such
    point the polytope is empty."""
    x = from_selfints(selfints)
    rays = x.rays
    n = x.n
    vertices_x: list[tuple[int, int]] = []  # (num_x, det) with det > 0
    for i in range(n):
        vix, viy = rays[i]
        ci = coeffs[i]
        for j in range(i + 1, n):
            vjx, vjy = rays[j]
            det = vix * vjy - viy * vjx
            if det == 0:
                continue
            cj = coeffs[j]
            num_x = cj * viy - ci * vjy
            num_y = ci * vjx - cj * vix
            if det < 0:
                det, num_x, num_y = -det, -num_x, -num_y
            # <m, v_k> >= -c_k for m = (num_x, num_y) / det, scaled by det > 0
            if all(num_x * vx + num_y * vy >= -c * det for (vx, vy), c in zip(rays, coeffs)):
                vertices_x.append((num_x, det))
    if not vertices_x:
        return 0
    x_min = min(num // det for num, det in vertices_x)
    x_max = max(-(-num // det) for num, det in vertices_x)
    if x_max - x_min + 1 > H0_MAX_COLUMNS:
        raise H0TooLarge(
            f"h0 would scan {x_max - x_min + 1} columns, more than {H0_MAX_COLUMNS}"
        )
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


ORACLE_MAX_CHARACTERS = 4_000_000


class OracleBoxTooLarge(ValueError):
    """The oracle's character box would hold more than ORACLE_MAX_CHARACTERS
    characters."""


def oracle_cohomology_dims(d: DivisorClass, bound: int | None = None) -> CohomologyDims:
    """Independent brute-force computation by summing over characters.

    For each character m, the rays with <m, v_i> < -c_i span a subcomplex of
    the fan's boundary circle; weight m contributes 1 to h^0 if the
    subcomplex is empty, 1 to h^2 if it is the whole circle, and
    (number of arcs - 1) to h^1 otherwise.

    With an explicit ``bound`` the sum runs over the square [-B, B]^2.  By
    default it runs over the bounding box of the pairwise intersection points
    of the lines <m, v_i> = -c_i, widened by 2, which contains every
    contributing m:

    The characters with one failing set F are the region R_F of the line
    arrangement cut out by <m, v_i> < -c_i for i in F and >= -c_i for i not
    in F, a convex set.  Let P_F be R_F with every strict inequality relaxed.
    If P_F has a recession direction u, then for m in R_F the whole ray
    m + t u (t >= 0) stays in R_F, so {i : <u, v_i> < 0} is contained in F,
    which is contained in {i : <u, v_i> <= 0}.  The fan is complete, so some
    ray has <u, v_i> < 0 and some has <u, v_i> > 0; the rays in an open or a
    closed half-plane are consecutive in the cyclic order, and the two sets
    differ only by the at most two rays on the line <u, -> = 0, one at each
    end.  F is therefore one arc, neither empty nor all of the rays, and
    adds 1 - 1 = 0 to h^1 and nothing to h^0 or h^2 (so those two regions
    are bounded).  Every contributing non-empty R_F thus has a P_F without
    recession direction: a bounded polygon whose vertices each solve two of
    the line equations, so R_F lies in the convex hull of the pairwise
    intersection points.

    The box is summed column by column, by runs.  Fix mx and let
    rhs_i = -(vx_i mx + c_i); ray i fails exactly when vy_i my < rhs_i, a
    half-line in my.  For vy_i > 0 it fails for my < ceil(rhs_i / vy_i), for
    vy_i < 0 for my >= floor(rhs_i / vy_i) + 1, and for vy_i = 0 on the whole
    column or nowhere.  So the failing set changes only at those at most n
    breakpoints: it is constant on each run between consecutive ones inside
    the column, and a run adds its length times the weight of its failing
    set.  A column costs O(n log n) instead of O(height * n).

    The oracle keeps its own intersection loop and shares no code with the
    fast path.  A box of more than ORACLE_MAX_CHARACTERS characters raises
    OracleBoxTooLarge before any scan.
    """
    x = d.surface
    rays = x.rays
    coeffs = d.reduced()
    if bound is None:
        x_lo, x_hi, y_lo, y_hi = _oracle_box(rays, coeffs)
    else:
        x_lo, x_hi, y_lo, y_hi = -bound, bound, -bound, bound
    size = max(0, x_hi - x_lo + 1) * max(0, y_hi - y_lo + 1)
    if size > ORACLE_MAX_CHARACTERS:
        raise OracleBoxTooLarge(
            f"oracle box [{x_lo}, {x_hi}] x [{y_lo}, {y_hi}] holds {size} characters,"
            f" more than {ORACLE_MAX_CHARACTERS}"
        )
    # characters per failing set, as a bit mask over the rays
    runs: dict[int, int] = {}
    lines = [(vx, vy, c, 1 << i) for i, ((vx, vy), c) in enumerate(zip(rays, coeffs))]
    for mx in range(x_lo, x_hi + 1):
        failing = 0
        flips: dict[int, int] = {}  # my -> rays whose status changes there
        for vx, vy, c, bit in lines:
            # the ray fails at (mx, my) iff vy * my < rhs
            rhs = -(vx * mx + c)
            if vy > 0:
                edge = -(-rhs // vy)  # fails for my < ceil(rhs / vy)
                fails = y_lo < edge
            elif vy < 0:
                edge = rhs // vy + 1  # fails for my >= floor(rhs / vy) + 1
                fails = y_lo >= edge
            else:
                edge = None  # the whole column or nowhere
                fails = rhs > 0
            if fails:
                failing |= bit
            if edge is not None and y_lo < edge <= y_hi:
                flips[edge] = flips.get(edge, 0) ^ bit
        start = y_lo
        for edge in sorted(flips):
            runs[failing] = runs.get(failing, 0) + edge - start
            failing ^= flips[edge]
            start = edge
        runs[failing] = runs.get(failing, 0) + y_hi + 1 - start
    n = len(rays)
    everything = (1 << n) - 1
    h0_ = h1_ = h2_ = 0
    for failing, count in runs.items():
        if failing == 0:
            h0_ += count
        elif failing == everything:
            h2_ += count
        else:
            # an arc starts at each failing ray whose predecessor holds
            predecessor_fails = ((failing << 1) | (failing >> (n - 1))) & everything
            h1_ += count * ((failing & ~predecessor_fails).bit_count() - 1)
    return CohomologyDims(h0_, h1_, h2_)


def _oracle_box(
    rays: tuple[tuple[int, int], ...], coeffs: tuple[int, ...]
) -> tuple[int, int, int, int]:
    """(x_lo, x_hi, y_lo, y_hi): the bounding box of the pairwise intersection
    points of the lines <m, v_i> = -c_i, widened by 2.  Each point is
    (num_x, num_y) / det, rounded outwards by integer floor division."""
    xs: list[tuple[int, int]] = []
    ys: list[tuple[int, int]] = []
    n = len(rays)
    for i in range(n):
        (ax, ay), ci = rays[i], coeffs[i]
        for j in range(i + 1, n):
            (bx, by), cj = rays[j], coeffs[j]
            det = ax * by - ay * bx
            if det != 0:
                xs.append((cj * ay - ci * by, det))
                ys.append((ci * bx - cj * ax, det))
    return (
        min(num // det for num, det in xs) - 2,
        max(-(-num // det) for num, det in xs) + 2,
        min(num // det for num, det in ys) - 2,
        max(-(-num // det) for num, det in ys) + 2,
    )
