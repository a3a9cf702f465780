"""Sheaf cohomology of line bundles on a toric surface, two independent ways.

Fast path: h^0 counts lattice points of the section polygon
P = {m : <m, v_i> >= -c_i}.  One half-plane pass over the rays in their
cyclic order gives P's edges and corners exactly, or finds P empty, in O(n);
floor sums along the lower and upper edges then count the points column by
column, O(log) per edge, with no column scanned.  h^2 comes from Serre
duality h^2(D) = h^0(K - D), and h^1 is recovered from the exact Euler
characteristic chi(D) = 1 + (D^2 - D.K)/2 (Riemann-Roch on a rational
surface).

Oracle: for every character m in a box, the rays where the section fails form
a subcomplex of the boundary circle of the fan; its reduced cohomology gives
the weight-m contribution (empty -> h^0, everything -> h^2, d arcs -> d - 1 to
h^1).  Along one column of the box each ray fails on a half-line, so the
failing set is constant on at most n + 1 runs, and each run is weighed once
and counted by its length.  The two paths share no code and cross-validate
each other.  Neither keeps a memo: the class tables of systems.py keep, per
class, the answers that a census asks for again.
"""

from __future__ import annotations

from .surface import DivisorClass, InternalInconsistency, _Record, _set


class CohomologyDims(_Record):
    __slots__ = ("h0", "h1", "h2")

    def __init__(self, h0: int, h1: int, h2: int):
        _set(self, "h0", h0)
        _set(self, "h1", h1)
        _set(self, "h2", h2)

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
    """The section polygon's x-extent, rounded outwards to integers, spans
    more than H0_MAX_COLUMNS columns."""


def h0(d: DivisorClass) -> int:
    """Number of characters m with <m, v_i> >= -c_i for all i.  An empty
    section polygon gives 0; one wider than H0_MAX_COLUMNS columns raises
    H0TooLarge.  The count costs O(n log |c|) whatever the width, so the cap
    no longer bounds a scan; it stays as an explicit cap on a size the user
    controls."""
    return _h0(d.surface.rays, d.reduced())


def _h0(rays: tuple[tuple[int, int], ...], coeffs: tuple[int, ...]) -> int:
    """Count the lattice points of the section polygon P by floor sums.

    :func:`_section_polygon` gives P's edges and corners exactly, or None
    when P is empty.  Each corner is then checked against every inequality,
    O(n k) for k corners; by the argument there none can fail, and a failure
    raises InternalInconsistency.  H0_MAX_COLUMNS bounds P's width, from the
    floor of the least corner x to the ceil of the greatest, as the column
    scan did before; nothing is scanned.

    Column mx holds floor(U(mx)) - ceil(L(mx)) + 1 points between the upper
    boundary U and the lower boundary L.  Along an edge on a line with
    vy < 0, floor(U(mx)) = floor((vx mx + c) / -vy); along one with vy > 0,
    -ceil(L(mx)) = floor((vx mx + c) / vy), and the + 1 is folded in as
    floor((vx mx + c + vy) / vy).  Counter-clockwise, the lower edges
    (vy > 0) run left to right and the upper edges (vy < 0) right to left,
    and each chain meets a line with vy = 0 or one of the other chain at its
    ends.  At such a corner the direction (1, 0) lies between the two
    normals, so the corner at the chain's left end has the least x.  Each
    chain therefore covers every column once when its edges take the
    half-open x-ranges (left, right] and the edge at its left end takes
    [left, right]: a corner column shared by two edges is counted once per
    chain.  Vertical edges bound the x-range only.  Each edge is one
    :func:`_floor_sum`.
    """
    polygon = _section_polygon(rays, coeffs)
    if polygon is None:
        return 0
    lines, corners = polygon
    for X, Y, W in corners:
        if any(vx * X + vy * Y + c * W < 0 for (vx, vy), c in zip(rays, coeffs)):
            raise InternalInconsistency(
                f"corner ({X}, {Y}) / {W} of the section polygon of {coeffs}"
                f" on the rays {rays} is infeasible"
            )
    x_min = min(X // W for X, _, W in corners)
    x_max = max(-(-X // W) for X, _, W in corners)
    if x_max - x_min + 1 > H0_MAX_COLUMNS:
        raise H0TooLarge(
            f"the section polygon spans {x_max - x_min + 1} columns,"
            f" more than {H0_MAX_COLUMNS}"
        )
    count = 0
    k = len(lines)
    for j, (vx, vy, c) in enumerate(lines):
        # the edge of lines[j] runs from corners[j - 1] to corners[j]
        if vy > 0:
            (left, _, wl), (right, _, wr) = corners[j - 1], corners[j]
            left_end = lines[j - 1][1] <= 0
            m, b = vy, c + vy
        elif vy < 0:
            (left, _, wl), (right, _, wr) = corners[j], corners[j - 1]
            left_end = lines[(j + 1) % k][1] >= 0
            m, b = -vy, c
        else:
            continue
        lo = -(-left // wl) if left_end else left // wl + 1
        hi = right // wr
        if hi >= lo:
            count += _floor_sum(hi - lo + 1, m, vx, vx * lo + b)
    return count


def _section_polygon(
    rays: tuple[tuple[int, int], ...], coeffs: tuple[int, ...]
) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int]]] | None:
    """P = {m : <m, v_i> >= -c_i} as (lines, corners), or None when P is
    empty.  ``lines`` are the kept (vx, vy, c) in the fan's counter-clockwise
    order; corners[j] = (X, Y, W), W > 0, is the point (X, Y) / W where
    lines[j] meets lines[j + 1] (cyclically).  One pass over the n lines,
    O(n).

    Write g_i(m) = <m, v_i> + c_i and [a, b] = det(v_a, v_b).  Neighbouring
    kept lines have [a, b] > 0, as adjacent rays of the fan do.  For
    neighbours a, k, b the identity [k, b] v_a + [b, a] v_k + [a, k] v_b = 0
    makes C = [k, b] g_a + [b, a] g_k + [a, k] g_b a constant.  At the corner
    of a and k it reads C = [a, k] g_b, at the corner of k and b
    C = [k, b] g_a; the edge of k has negative length exactly when C < 0,
    seen from either end.  Then:

    - if [a, b] > 0, g_k > 0 wherever g_a, g_b >= 0: k is strictly redundant
      and is dropped, which leaves P and gives the new neighbours a, b
      [a, b] > 0;
    - if [a, b] <= 0, all three factors are >= 0, so g_a, g_k and g_b are
      never all >= 0: P is empty.

    As each line comes in, the pass drops from the back while the last edge
    is negative, and returns None where a drop would need [a, b] <= 0.  Every
    kept line with a kept line on either side now has an edge >= 0.  Then
    it closes the cycle: it drops the last line while its edge up to the
    first line is negative, and the first line while its edge from the last
    one is.  Those drops always have [a, b] > 0.  Otherwise the kept lines
    from b round to a turn by at most pi; along a chain of edges >= 0 that
    turns by at most pi, each g of the chain only grows after its own edge
    and before it, so the chain's corners lie in all its half-planes.  The
    corner of that chain next to k (on a, or on b) lies in H_k too, as the
    edge between was checked >= 0 as the lines came in: a point of
    H_a, H_k and H_b, which cannot exist.  So the first part finds every
    empty P.

    At the end no edge is negative, and the kept normals, a cyclic
    subsequence of the rays turning by less than pi at each step, wind
    once.  Every direction u is a non-negative combination of two
    neighbours a, b, so <m, u> >= <w_ab, u> on P, and P lies in the hull of
    the corners.  With no negative edge the corners trace a convex polygon
    with every kept half-plane on its left, so they lie in P: P is their
    hull.
    """
    lines = [(vx, vy, c) for (vx, vy), c in zip(rays, coeffs)]
    kept = [lines[0]]
    corners: list[tuple[int, int, int]] = []  # corners[j] joins kept[j], kept[j + 1]
    for line in lines[1:]:
        bx, by, bc = line
        while corners:
            X, Y, W = corners[-1]
            if bx * X + by * Y + bc * W >= 0:
                break
            ax, ay, _ = kept[-2]
            if ax * by - ay * bx <= 0:
                return None
            kept.pop()
            corners.pop()
        ax, ay, ac = kept[-1]
        corners.append((bc * ay - ac * by, ac * bx - bc * ax, ax * by - ay * bx))
        kept.append(line)
    first = 0
    while True:
        (bx, by, bc), (X, Y, W) = kept[first], corners[-1]
        if bx * X + by * Y + bc * W < 0:
            kept.pop()
            corners.pop()
            continue
        (ax, ay, ac), (X, Y, W) = kept[-1], corners[first]
        if ax * X + ay * Y + ac * W < 0:
            first += 1
            continue
        break
    kept, corners = kept[first:], corners[first:]
    (ax, ay, ac), (bx, by, bc) = kept[-1], kept[0]
    corners.append((bc * ay - ac * by, ac * bx - bc * ax, ax * by - ay * bx))
    return kept, corners


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum(floor((a i + b) / m) for i in range(n)) for n >= 0, m >= 1 and any
    integers a, b, in O(log m) rounds (AtCoder Library's floor_sum).

    Floor division takes the quotients of a and b out exactly, negative ones
    too, and leaves 0 <= a, b < m.  The remaining sum counts the lattice
    points (i, j) with 0 <= i < n and 1 <= j <= (a i + b) / m; counted by j
    instead it is the same kind of sum with n = (a n + b) // m terms,
    b = (a n + b) % m and the roles of m and a swapped, so m falls like the
    remainders of Euclid's algorithm.
    """
    total = 0
    while True:
        q, a = divmod(a, m)
        total += q * (n * (n - 1) // 2)
        q, b = divmod(b, m)
        total += q * n
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


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
    return cohomology_dims(d).is_zero()


ORACLE_MAX_CHARACTERS = 4_000_000


class OracleBoxTooLarge(ValueError):
    """The oracle's character box would hold more than ORACLE_MAX_CHARACTERS
    characters."""


def oracle_cohomology_dims(d: DivisorClass) -> CohomologyDims:
    """Independent brute-force computation by summing over characters.

    For each character m, the rays with <m, v_i> < -c_i span a subcomplex of
    the fan's boundary circle; weight m contributes 1 to h^0 if the
    subcomplex is empty, 1 to h^2 if it is the whole circle, and
    (number of arcs - 1) to h^1 otherwise.

    The sum (:func:`_oracle_sum`) runs over the bounding box of the pairwise
    intersection points of the lines <m, v_i> = -c_i, widened by 2
    (:func:`_oracle_box`), which contains every contributing m:

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

    The oracle keeps its own intersection loop and shares no code with the
    fast path.
    """
    rays, coeffs = d.surface.rays, d.reduced()
    return _oracle_sum(rays, coeffs, _oracle_box(rays, coeffs))


def _oracle_sum(
    rays: tuple[tuple[int, int], ...],
    coeffs: tuple[int, ...],
    box: tuple[int, int, int, int],
) -> CohomologyDims:
    """The oracle's sum over the characters of ``box`` = (x_lo, x_hi, y_lo,
    y_hi), column by column, by runs.  Fix mx and let
    rhs_i = -(vx_i mx + c_i); ray i fails exactly when vy_i my < rhs_i, a
    half-line in my.  For vy_i > 0 it fails for my < ceil(rhs_i / vy_i), for
    vy_i < 0 for my >= floor(rhs_i / vy_i) + 1, and for vy_i = 0 on the whole
    column or nowhere.  So the failing set changes only at those at most n
    breakpoints: it is constant on each run between consecutive ones inside
    the column, and a run adds its length times the weight of its failing
    set.  A column costs O(n log n) instead of O(height * n).

    A box of more than ORACLE_MAX_CHARACTERS characters raises
    OracleBoxTooLarge before any scan.
    """
    x_lo, x_hi, y_lo, y_hi = box
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
