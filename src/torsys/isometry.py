"""K-isometries of the Picard lattice: roots, reflections, the Weyl group,
the Weyl orbit of the standard system, and an independent brute-force
enumeration of all pairing-and-K-preserving integer automorphisms.

For Picard rank 3 <= rho <= 9 the K-isometries form the finite Weyl group of
the root set {D : D^2 = -2, D.K = 0}.  Roots are enumerated from the defining
equations in a good basis, where K = -3H + R_1 + ... + R_l pins the linear
constraint 3 d_0 = -sum d_i and the quadric gives sum d_i^2 = d_0^2 + 2.
One reflection BFS moves the Pic basis for :func:`weyl_group` (validated
matrices) and the standard system's entries for :func:`weyl_orbit` (no matrix).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import isqrt
from operator import mul

from . import _intlinalg
from .surface import DivisorClass, ToricSurface
from .systems import ToricSystem, standard_system

# |W(E7)| is about 2.9 million, so Picard rank 8 is refused
WEYL_MAX_ELEMENTS = ISOMETRY_MAX_NODES = 10**6


class RankOutOfRange(ValueError):
    """Picard rank outside the range this operation supports."""


class SizeCapExceeded(RuntimeError):
    """Group closure or search grew past its cap."""


@dataclass(frozen=True)
class Root:
    """A (-2)-class orthogonal to K."""

    cls: DivisorClass

    def __post_init__(self):
        if self.cls.square() != -2 or self.cls.k_degree() != 0:
            raise ValueError(f"{self.cls} is not a (-2)-class orthogonal to K")


@dataclass(frozen=True, eq=False)
class Isometry:
    """An automorphism of Pic(X) preserving the pairing and fixing K, stored
    as a matrix on the coordinates in the basis ([D_3], ..., [D_n]).

    Validation checks M^T G M = G and M K = K.  That already makes M
    invertible over the integers: taking determinants, det(M)^2 det G = det G,
    and the Gram matrix G of Pic is unimodular (det G = +-1, by Poincare
    duality), so det M = +-1.
    """

    surface: ToricSurface
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        g = self.surface.gram_matrix()
        m = self.matrix
        mt = tuple(zip(*m))
        if _intlinalg.mat_mul(mt, _intlinalg.mat_mul(g, m)) != g:
            raise ValueError("matrix does not preserve the intersection pairing")
        k = self.surface.canonical_coords()
        if _intlinalg.mat_vec(m, k) != k:
            raise ValueError("matrix does not fix the canonical class")

    def apply(self, cls: DivisorClass) -> DivisorClass:
        self.surface._require_same(cls.surface)
        return self.surface.class_from_coords(
            _intlinalg.mat_vec(self.matrix, cls.coords())
        )

    def __mul__(self, other: "Isometry") -> "Isometry":
        """Composition self after other."""
        self.surface._require_same(other.surface)
        return Isometry(self.surface, _intlinalg.mat_mul(self.matrix, other.matrix))

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
    """Breadth-first closure of the root reflections: yields the images w(u)
    of the ``start`` coordinate vectors under each element w, identity first.

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

    The reflection at a root r is u -> u + (r.u) r, so the image under a
    product is s_r(w(v)) = w(v) + (r.w(v)) r: one dot product per element
    and generator.  Only a new element gets the images of ``start``, each
    image stored once.  Products are met in the same order as under
    deduplication on whole matrices, so the element order is that of the
    plain matrix closure.
    """
    if not 3 <= x.pic_rank <= 9:
        raise RankOutOfRange(f"Weyl groups require 3 <= rho <= 9, got {x.pic_rank}")
    gram = x.gram_matrix()
    # r and -r give the same reflection; keep the first of each pair, with
    # r.u = (G r)^T u as G is symmetric
    gens: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for r in roots(x):
        rc = r.cls.coords()
        gens.setdefault(
            min(rc, tuple(-c for c in rc)), (rc, _intlinalg.mat_vec(gram, rc))
        )
    v = _regular_vector([rg for _, rg in gens.values()])
    seen = {v}
    vectors: dict[tuple[int, ...], tuple[int, ...]] = {}

    def reflect(u, rc, rg):
        pair = sum(map(mul, rg, u))
        u = tuple(a + pair * b for a, b in zip(u, rc))
        return vectors.setdefault(u, u)

    frontier = [(v, start)]
    yield start
    while frontier:
        new = []
        for hv, images in frontier:
            for rc, rg in gens.values():
                pair = sum(map(mul, rg, hv))
                image = tuple(a + pair * b for a, b in zip(hv, rc))
                if image in seen:
                    continue
                seen.add(image)
                if len(seen) > WEYL_MAX_ELEMENTS:
                    raise SizeCapExceeded(f"group exceeded {WEYL_MAX_ELEMENTS} elements")
                moved = tuple(reflect(u, rc, rg) for u in images)
                yield moved
                new.append((image, moved))
        frontier = new


def weyl_group(x: ToricSurface) -> tuple[Isometry, ...]:
    """The Weyl group as validated matrices, whose columns are the images of
    the Pic basis; equal rows are stored once."""
    rows: dict[tuple[int, ...], tuple[int, ...]] = {}
    images = _reflection_closure(x, _intlinalg.identity(x.pic_rank))
    return tuple(Isometry(x, tuple(rows.setdefault(r, r) for r in zip(*cols))) for cols in images)


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
    with one class per distinct image: the :class:`Isometry` constructor
    proved that each map preserves the pairing and fixes K."""
    x = system.surface
    start = [a.coords() for a in system.entries]
    classes = functools.cache(x.class_from_coords)
    seen = set()
    out: list[ToricSystem] = []
    for w in isometries:
        x._require_same(w.surface)
        coords = tuple(_intlinalg.mat_vec(w.matrix, u) for u in start)
        if coords not in seen:
            seen.add(coords)
            out.append(ToricSystem(x, tuple(map(classes, coords))))
    return out
