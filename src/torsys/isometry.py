"""K-isometries of the Picard lattice: roots, reflections, the Weyl group,
the Weyl orbit of the standard system, and an independent brute-force
enumeration of all pairing-and-K-preserving integer automorphisms.

For Picard rank 3 <= rho <= 9 the K-isometries form the finite Weyl group
W(E_{rho-1}) of the root set {D : D^2 = -2, D.K = 0}.  Roots are enumerated
from the defining equations in a good basis, where K = -3H + R_1 + ... + R_l
pins the linear constraint 3 d_0 = -sum d_i and the quadric gives
sum d_i^2 = d_0^2 + 2.  One reflection BFS, keyed by the pairings with the
roots packed into one int, moves the class ids of the Pic basis
(:func:`weyl_group`) or the standard system (:func:`weyl_orbit`) through
the class table's reflection memo.  :class:`Isometry` validates a matrix by
the pairing formula and keeps the columns :func:`orbit` builds images from.
"""

from __future__ import annotations

import functools
from math import isqrt
from operator import mul

from . import _intlinalg
from .surface import DivisorClass, ToricSurface, _Record, _set
from .systems import ToricSystem, _entry_ids, standard_system

# |W(E7)| is about 2.9 million, so Picard rank 8 is refused up front
WEYL_MAX_ELEMENTS = ISOMETRY_MAX_NODES = 10**6
# |W(E_{rho-1})| by Picard rank rho; see _reflection_closure
_WEYL_ORDERS = {3: 2, 4: 12, 5: 120, 6: 1920, 7: 51840, 8: 2903040, 9: 696729600}


class RankOutOfRange(ValueError):
    """Picard rank outside the range this operation supports."""


class SizeCapExceeded(RuntimeError):
    """Group closure or search grew past its cap."""


class Root(_Record):
    """A (-2)-class orthogonal to K."""

    __slots__ = ("cls",)

    def __init__(self, cls: DivisorClass):
        if cls.square() != -2 or cls.k_degree() != 0:
            raise ValueError(f"{cls} is not a (-2)-class orthogonal to K")
        _set(self, "cls", cls)


class Isometry(_Record):
    """An automorphism of Pic(X) preserving the pairing and fixing K, stored
    as a matrix on the coordinates in the basis ([D_3], ..., [D_n]).

    Validation checks that every entry is an int (1.0 would hash and
    compare equal to 1), then M^T G M = G and M K = K.  That already makes M
    invertible over the integers: taking determinants, det(M)^2 det G = det G,
    and the Gram matrix G of Pic is unimodular (det G = +-1, by Poincare
    duality), so det M = +-1.  Entry (i, j) of M^T G M is c_i.(G c_j) for
    the columns c of M, and both sides are symmetric, so only i <= j is
    checked.  The columns are kept for :func:`orbit`.  :func:`weyl_group`
    builds its products with :meth:`_unchecked`, as each is a product of
    validated reflections.
    """

    __slots__ = ("surface", "matrix", "_columns")

    def __init__(self, surface: ToricSurface, matrix: tuple[tuple[int, ...], ...]):
        _set(self, "surface", surface)
        _set(self, "matrix", matrix)
        self._check()

    def _check(self) -> None:
        """Validate the matrix as above and keep its columns."""
        x = self.surface
        g = x.gram_matrix()
        m = self.matrix
        if len(m) != len(g) or any(len(row) != len(g) for row in m):
            raise ValueError(f"matrix is not {len(g)} x {len(g)}")
        cols = tuple(zip(*m))
        for c in cols:
            if not all(type(v) is int for v in c):
                raise ValueError(f"matrix entries must be integers, got column {c!r}")
        for j, gc in enumerate(_intlinalg.mat_vec(g, c) for c in cols):
            if tuple(sum(map(mul, c, gc)) for c in cols[: j + 1]) != g[j][: j + 1]:
                raise ValueError("matrix does not preserve the intersection pairing")
        k = x.canonical_coords()
        if _intlinalg.mat_vec(m, k) != k:
            raise ValueError("matrix does not fix the canonical class")
        _set(self, "_columns", cols)

    @classmethod
    def _unchecked(cls, x: ToricSurface, columns, rows) -> "Isometry":
        """The isometry with the given columns and rows, built without
        validation: for :func:`weyl_group` only, whose every element is a
        product of reflections the constructor checked."""
        w = object.__new__(cls)
        _set(w, "surface", x)
        _set(w, "matrix", rows)
        _set(w, "_columns", columns)
        return w

    def apply(self, cls: DivisorClass) -> DivisorClass:
        self.surface._require_same(cls.surface)
        return self.surface.class_from_coords(
            _intlinalg.mat_vec(self.matrix, cls.coords())
        )

    def is_identity(self) -> bool:
        return self.matrix == _intlinalg.identity(len(self.matrix))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Isometry):
            return NotImplemented
        return (
            self.surface.selfints == other.surface.selfints
            and self.matrix == other.matrix
        )

    def __hash__(self) -> int:
        return hash((self.surface.selfints, self.matrix))


def _vectors_with_sum_and_square(
    length: int, total: int, square: int
) -> list[tuple[int, ...]]:
    """All integer vectors of given length, coordinate sum and sum of squares."""
    out: list[tuple[int, ...]] = []

    def rec(pos: int, s: int, q: int, acc: list[int]):
        if q < 0:
            return
        rest = length - pos
        if rest == 0:
            if s == 0 and q == 0:
                out.append(tuple(acc))
            return
        if s * s > q * rest:  # Cauchy-Schwarz prune
            return
        b = isqrt(q)
        for v in range(-b, b + 1):
            acc.append(v)
            rec(pos + 1, s - v, q - v * v, acc)
            acc.pop()

    rec(0, total, square, [])
    return out


def _classes_with_square_and_kdeg(
    x: ToricSurface, square: int, kdeg: int
) -> list[DivisorClass]:
    """All classes with given self-intersection and K-degree, via bounded
    search in a good basis (negative definite on K-perp, so finite)."""
    gb = x.good_basis()
    l = x.pic_rank - 1
    found: list[DivisorClass] = []
    # Cauchy-Schwarz forces (3 d_0 + kdeg)^2 <= l (d_0^2 - square), and with
    # 9 - l >= 1 that gives |d_0| <= 6|kdeg| + l|square| + 1.
    span = 6 * abs(kdeg) + l * abs(square) + 1
    for d0 in range(-span, span + 1):
        rhs = l * (d0 * d0 - square)
        lhs = (3 * d0 + kdeg) ** 2
        if lhs > rhs:
            continue
        for d in _vectors_with_sum_and_square(l, -3 * d0 - kdeg, d0 * d0 - square):
            cls = d0 * gb.elements[0]
            for di, ri in zip(d, gb.elements[1:]):
                cls = cls + di * ri
            found.append(cls)
    found.sort(key=lambda c: c.coords())
    return found


def roots(x: ToricSurface) -> tuple[Root, ...]:
    """All roots D^2 = -2, D.K = 0; counts 2 / 8 / 20 for rho = 3 / 4 / 5."""
    if not 3 <= x.pic_rank <= 9:
        raise RankOutOfRange(f"root systems require 3 <= rho <= 9, got {x.pic_rank}")
    return tuple(Root(c) for c in _classes_with_square_and_kdeg(x, -2, 0))


def reflection(root: Root) -> Isometry:
    """The reflection L' -> L' + (D.L') D at a root D; involutive K-isometry."""
    x = root.cls.surface
    rc = root.cls.coords()
    rg = _intlinalg.mat_vec(x.gram_matrix(), rc)  # rg[j] = D.[D_{j+3}]
    rows = (tuple(int(i == j) + ri * g for j, g in enumerate(rg)) for i, ri in enumerate(rc))
    return Isometry(x, tuple(rows))


def _reflection_closure(x: ToricSurface, start: tuple[tuple[int, ...], ...]):
    """Breadth-first closure of the root reflections: yields, for each
    element w, identity first, the images w(u) of the ``start`` coordinate
    vectors.

    W is W(E_{rho-1}), of known order, so a group over WEYL_MAX_ELEMENTS is
    refused before the closure starts (the loop checks the cap too): the
    surface is P^2 blown up in rho - 1 points, possibly infinitely near, so
    Pic has a basis H, E_1, ..., E_{rho-1} with K = -3H + E_1 + ... +
    E_{rho-1}, in which K^perp is the E_{rho-1} lattice and its (-2)-classes
    are the roots (Manin, "Cubic forms", 1974).

    Each distinct reflection is checked once, by the :class:`Isometry`
    constructor, as :func:`reflection` builds it: the matrix I + r (G r)^T.
    The closure applies exactly u -> u + (r.u) r, which is that matrix, so
    every element is a product of checked matrices, and so preserves the
    pairing and fixes K.

    Elements are told apart by their image w(v) of one regular vector v, an
    integer vector with r.v != 0 for every root r: the first
    (1, b, b^2, ...) with b = 2, 3, ... that qualifies.  This is sound.  W
    fixes K, and K^perp is negative definite (K^2 = 10 - rho > 0, Hodge
    index), so W acts on K^perp as a finite reflection group with an
    invariant inner product, whose reflections are exactly the reflections
    at roots.  By Steinberg's theorem the stabiliser of the projection of v
    to K^perp is generated by the reflections fixing it, and there are none,
    as r.v != 0 for every root.  So w(v) = v only for the identity, and
    w -> w(v) is injective.

    The key of w is its pairing vector f = (r_a.w(v))_a over the distinct
    reflections r_0, r_1, ..., packed into one int: slot a, ``width`` bits
    wide, holds f_a + ``bound``.  f is injective on the orbit of v.  The
    roots span K^perp over Q (W is the Weyl group of a root system of rank
    rho - 1), and K.w(v) = K.v as w fixes K and keeps the pairing.  Since
    K^2 != 0, Pic_Q = K^perp + QK, and the pairing is non-degenerate on each
    summand, so f and K.v fix w(v), and so w.

    The slot width is proven, once per surface.  Write u = u' + (u.K/K^2) K
    with u' in K^perp.  For a root r, r.u = r.u', and Cauchy-Schwarz for
    the negative definite pairing on K^perp gives
    (r.u)^2 <= (-r^2)(-u'^2) = 2(-u^2 + (u.K)^2/K^2).  For u = w(v) the
    right side is that of v, since u^2 = v^2 and u.K = v.K.  So every
    f_a lies in [-bound, bound], bound = isqrt(2((v.K)^2 - v^2 K^2) // K^2),
    and f_a + bound fits ``width`` = (2 bound).bit_length() bits.  As every
    slot stays in range, the int is exactly sum_a (f_a + bound) 2^(a width),
    and sums of such ints add slot by slot with no carry.

    The reflection at a root r_b is u -> u + (r_b.u) r_b, so
    s_b w has f'_a = f_a + f_b (r_a.r_b): the new key is
    F + f_b P_b, where P_b packs (r_a.r_b)_a, and f_b is one shift, mask
    and subtraction.  Only a new element gets the images of ``start``.

    The BFS carries those images as class ids of the surface's class table,
    entered once through ``_entry_ids`` and read to the end even if the
    tables are dropped meanwhile; it moves them through the table's memo
    ``_ClassTable.reflection`` and yields one shared coordinate tuple per
    class.  The memo changes no key and no order: which products are new,
    and in what order, depends on the keys alone.  Products are met in the
    same order as under deduplication on whole matrices, so the element
    order is that of the plain matrix closure.
    """
    if not 3 <= x.pic_rank <= 9:
        raise RankOutOfRange(f"Weyl groups require 3 <= rho <= 9, got {x.pic_rank}")
    if _WEYL_ORDERS[x.pic_rank] > WEYL_MAX_ELEMENTS:
        raise SizeCapExceeded(f"|W| = {_WEYL_ORDERS[x.pic_rank]} exceeds {WEYL_MAX_ELEMENTS}")
    gram = x.gram_matrix()
    # r and -r give the same reflection; keep the first of each pair, with
    # r.u = (G r)^T u as G is symmetric
    gens: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for r in roots(x):
        rc = r.cls.coords()
        kept = min(rc, tuple(-c for c in rc))
        if kept not in gens:
            reflection(r)
            gens[kept] = (rc, _intlinalg.mat_vec(gram, rc))
    rcs = [rc for rc, _ in gens.values()]
    rgs = [rg for _, rg in gens.values()]
    v = _regular_vector(rgs)
    bound, width = _pairing_slots(x, v)
    mask = (1 << width) - 1
    # vectors and roots as reduced coefficients (0, 0) + coords; per distinct
    # reflection, the shift of slot b, P_b and the map id -> id of the image
    table, ids = _entry_ids(x, [(0, 0) + u for u in start])
    moves = [table.reflection((0, 0) + rb)[1].__getitem__ for rb in rcs]
    steps = [
        (b * width, _pack([sum(map(mul, ra, rb)) for ra in rgs], 0, width), move)
        for b, (rb, move) in enumerate(zip(rcs, moves))
    ]
    key = _pack([sum(map(mul, rg, v)) for rg in rgs], bound, width)
    seen = {key}
    coords = functools.cache(lambda i: table.classes[i][2:])  # one tuple per class id
    frontier = [(key, ids)]
    yield start
    while frontier:
        new = []
        for key, images in frontier:
            for shift, pack, move in steps:
                product = key + (((key >> shift) & mask) - bound) * pack
                if product in seen:
                    continue
                seen.add(product)
                if len(seen) > WEYL_MAX_ELEMENTS:
                    raise SizeCapExceeded(f"group exceeded {WEYL_MAX_ELEMENTS} elements")
                moved = tuple(map(move, images))
                yield tuple(map(coords, moved))
                new.append((product, moved))
        frontier = new


def _pairing_slots(x: ToricSurface, v: tuple[int, ...]) -> tuple[int, int]:
    """(bound, width) for the pairing keys of :func:`_reflection_closure`:
    |r.w(v)| <= bound for every root r and Weyl element w, and width is the
    least number of bits that holds 0..2 bound.  See the closure's
    docstring for the proof."""
    gram = x.gram_matrix()
    k = x.canonical_coords()
    gk = _intlinalg.mat_vec(gram, k)
    kk = sum(map(mul, k, gk))
    vk = sum(map(mul, v, gk))
    vv = sum(map(mul, v, _intlinalg.mat_vec(gram, v)))
    bound = isqrt(2 * (vk * vk - vv * kk) // kk)
    return bound, (2 * bound).bit_length()


def _pack(values, offset: int, width: int) -> int:
    """sum_a (values[a] + offset) 2^(a width)."""
    return sum((f + offset) << (a * width) for a, f in enumerate(values))


def weyl_group(x: ToricSurface) -> tuple[Isometry, ...]:
    """The Weyl group as products of validated reflections, whose columns
    are the images of the Pic basis; equal rows are stored once.  The
    products are built unchecked: see :func:`_reflection_closure`."""
    rows: dict[tuple[int, ...], tuple[int, ...]] = {}
    images = _reflection_closure(x, _intlinalg.identity(x.pic_rank))
    return tuple(
        Isometry._unchecked(x, cols, tuple(rows.setdefault(r, r) for r in zip(*cols)))
        for cols in images
    )


def weyl_orbit(x: ToricSurface) -> list[ToricSystem]:
    """``orbit(standard_system(x), weyl_group(x))`` without forming the group;
    the standard entries span Pic, so distinct elements give distinct images."""
    images = _reflection_closure(x, tuple(a.coords() for a in standard_system(x).entries))
    # one class per distinct image: the orbit repeats few classes many times
    classes = functools.cache(x.class_from_coords)
    return [ToricSystem(x, tuple(map(classes, coords))) for coords in images]


def _regular_vector(pairings: list[tuple[int, ...]]) -> tuple[int, ...]:
    """The first (1, b, b^2, ...), b = 2, 3, ..., that every row of
    ``pairings`` (a root r as the linear form v -> r.v) meets non-trivially.
    Each row is a non-zero integer polynomial in b, so some b qualifies."""
    b = 2
    while True:
        v = tuple(b**i for i in range(len(pairings[0])))
        if all(sum(map(mul, rg, v)) for rg in pairings):
            return v
        b += 1


def all_k_isometries(x: ToricSurface) -> tuple[Isometry, ...]:
    """Every integer automorphism of Pic preserving the pairing and fixing K,
    by backtracking over images of the basis classes [D_3], ..., [D_n].

    Each image must match the square and K-degree of its basis class, which
    confines it to a finite candidate set; pairwise products prune the search.
    Serves as the independent oracle for the Weyl-group description.
    """
    rho = x.pic_rank
    if not 3 <= rho <= 5:
        raise RankOutOfRange(f"exhaustive isometry search supports rho 3..5, got {rho}")
    basis = [x.divisor(i + 2) for i in range(rho)]
    gram = x.gram_matrix()
    k = x.canonical_class()
    candidates = [
        _classes_with_square_and_kdeg(x, b.square(), b.dot(k)) for b in basis
    ]
    k_coords = x.canonical_coords()
    results: list[Isometry] = []
    chosen: list[DivisorClass] = []
    nodes = 0

    def rec(col: int):
        nonlocal nodes
        nodes += 1
        if nodes > ISOMETRY_MAX_NODES:
            raise SizeCapExceeded(f"isometry search exceeded {ISOMETRY_MAX_NODES} nodes")
        if col == rho:
            mat = tuple(zip(*(c.coords() for c in chosen)))
            if _intlinalg.mat_vec(mat, k_coords) == k_coords:
                results.append(Isometry(x, mat))
            return
        for cand in candidates[col]:
            if all(
                cand.dot(chosen[i]) == gram[col][i] for i in range(col)
            ):
                chosen.append(cand)
                rec(col + 1)
                chosen.pop()

    rec(0)
    results.sort(key=lambda iso: iso.matrix)
    return tuple(results)


def orbit(system: ToricSystem, isometries) -> list[ToricSystem]:
    """Entrywise images w(A) for each w, deduplicated as exact sequences,
    in the order the isometries are supplied.  Images are built unchecked,
    with one class per distinct image: each map preserves the pairing and
    fixes K, checked by the :class:`Isometry` constructor or, for
    :func:`weyl_group`, on its reflections.  w(u) is the column j of w's
    matrix when u is the unit vector e_j, as most start coordinates are,
    and the rows of w's matrix times u otherwise."""
    x = system.surface
    # each entry's coordinates: the index j of e_j, or the vector itself
    units = {u: j for j, u in enumerate(_intlinalg.identity(x.pic_rank))}
    start = [units.get(u, u) for u in (a.coords() for a in system.entries)]
    classes = functools.cache(x.class_from_coords)
    seen = set()
    out: list[ToricSystem] = []
    for w in isometries:
        x._require_same(w.surface)
        cols, rows = w._columns, w.matrix
        coords = tuple(
            [
                cols[u] if type(u) is int else tuple([sum(map(mul, r, u)) for r in rows])
                for u in start
            ]
        )
        if coords not in seen:
            seen.add(coords)
            out.append(ToricSystem(x, tuple(map(classes, coords))))
    return out
