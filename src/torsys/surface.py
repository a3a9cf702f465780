"""Smooth projective toric surfaces encoded by cyclic self-intersection data.

A surface is stored as the cyclic sequence (a_1, ..., a_n) of self-intersection
numbers of its torus-invariant prime divisors D_1, ..., D_n.  The primitive ray
generators are reconstructed from v_1 = (1,0), v_2 = (0,1) via the wall
recursion v_{i-1} + a_i v_i + v_{i+1} = 0; a sequence is accepted exactly when
the recursion closes up and the rays wind around the origin once.

Divisor classes are integer coefficient vectors on (D_1, ..., D_n) taken modulo
the rank-2 sublattice of relations {(<m, v_1>, ..., <m, v_n>) : m in Z^2}, so
Pic(X) has rank n - 2.  All arithmetic is exact.
"""

from __future__ import annotations

import functools
from operator import add, mul, sub

from . import _intlinalg

Vec2 = tuple[int, int]


class InvalidFan(ValueError):
    """Self-intersection data does not describe a complete smooth fan."""


class SurfaceMismatch(ValueError):
    """Operation mixing divisor classes of two different surface presentations."""


class NotContractible(ValueError):
    """Blow-down requested at a ray of self-intersection different from -1."""


class RankTooLow(ValueError):
    """Blow-down would drop below the minimal surfaces (n = 3)."""


class InternalInconsistency(RuntimeError):
    """Two computations that must agree did not (for example, the fast-path
    dimensions came out negative): an implementation bug."""


class EvenTerminalHirzebruch(ValueError):
    """No blow-down path ends on an odd Hirzebruch surface, so the intersection
    form has no integral orthogonal basis of signature (1, -1, ..., -1)."""


# sets a field of a record, whose own __setattr__ refuses every assignment
_set = object.__setattr__


class _Record:
    """Base of the immutable value types.  A record declares its fields, in
    order, as its ``__slots__``, followed by the private lazy values it
    fills on first use (names starting with ``_``); its ``__init__`` sets
    each field with ``_set``.  No record has an instance dictionary, so
    assigning an undeclared attribute raises AttributeError, and so does
    assigning or deleting a field.  Two records are equal when they are of
    the same class and their fields are equal, a record hashes its fields,
    and it prints as ``Name(field=value, ...)``; a subclass may define its
    own.  Pickling and copying rebuild a record through ``_set``, with the
    private values that are set and without rerunning a validator."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        # the public names of the class's own slots, in order
        cls._fields = tuple(f for f in cls.__slots__ if not f.startswith("_"))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        slots = {}
        for name in self.__slots__:
            try:
                slots[name] = getattr(self, name)
            except AttributeError:  # a lazy value not computed yet
                pass
        return _rebuild, (type(self), slots)


def _rebuild(cls, slots: dict):
    """The record of class ``cls`` with the slot values ``slots``, set
    through ``_set`` and not validated: the inverse of ``__reduce__``."""
    record = object.__new__(cls)
    for name, value in slots.items():
        _set(record, name, value)
    return record


def normalize(selfints) -> tuple[int, ...]:
    """Lexicographically minimal representative over all rotations and the
    reflection of a cyclic sequence.  Used for surface equality and memo keys."""
    return _least_rotation(tuple(selfints))


def _least_rotation(seq: tuple) -> tuple:
    """The lexicographically least rotation of ``seq`` or of its mirror."""
    images = (s[k:] + s[:k] for s in (seq, seq[::-1]) for k in range(len(seq)))
    return min(images, default=seq)


def _divisor_pairings(selfints: tuple[int, ...], e: tuple[int, ...]):
    """The intersection numbers D_i . E, i = 1..n, of the invariant divisors
    with the class of coefficients ``e``, as an iterator: row i of the
    intersection matrix meets e in a_i e_i + e_{i-1} + e_{i+1}."""
    neighbours = map(add, e[-1:] + e[:-1], e[1:] + e[:1])
    return map(add, map(mul, selfints, e), neighbours)


def _det2(u: Vec2, v: Vec2) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _rays_from_selfints(selfints: tuple[int, ...]) -> tuple[Vec2, ...]:
    n = len(selfints)
    v: list[Vec2] = [(1, 0), (0, 1)]
    # v[k+1] = -v[k-1] - a_k v[k]; running k up to n produces the two
    # wrap-around vectors that must close the cycle.
    for k in range(1, n + 1):
        a = selfints[k % n]
        v.append((-v[k - 1][0] - a * v[k][0], -v[k - 1][1] - a * v[k][1]))
    if v[n] != v[0] or v[n + 1] != v[1]:
        raise InvalidFan(f"ray recursion does not close for {selfints}")
    return tuple(v[:n])


def _winding_number(rays: tuple[Vec2, ...]) -> int:
    """Number of times the ray cycle passes the direction (1, 0).

    Every consecutive turn is counterclockwise by an angle in (0, pi), so the
    total turning is 2*pi times the number of arcs (v_i, v_{i+1}] containing
    the fixed direction d = (1, 0).  All tests are exact integer sign checks.
    """
    d = (1, 0)
    n = len(rays)
    crossings = 0
    for i in range(n):
        u, w = rays[i], rays[(i + 1) % n]
        if _det2(d, w) == 0 and w[0] > 0:
            crossings += 1
        elif _det2(u, d) > 0 and _det2(d, w) > 0:
            crossings += 1
    return crossings


def _ints(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple, refused unless every entry is exactly an
    ``int``: a float, bool or string is never truncated or coerced."""
    values = tuple(values)
    if not all(type(v) is int for v in values):
        raise ValueError(f"{what} must be an array of integers, got {list(values)!r}")
    return values


@functools.lru_cache(maxsize=None)
def _surface_from_selfints(selfints: tuple[int, ...]) -> "ToricSurface":
    return ToricSurface(selfints)


def from_selfints(selfints) -> "ToricSurface":
    """Build (and intern) the toric surface TV(a_1, ..., a_n).  The entries
    are checked before the cache lookup, because ``(True, True, True)``
    hashes and compares equal to ``(1, 1, 1)``."""
    return _surface_from_selfints(_ints(selfints, "self-intersections"))


class ToricSurface:
    """A smooth projective toric surface; immutable after construction.

    Instances are interned by :func:`from_selfints`, so surfaces with the same
    self-intersection tuple are the same object, also through pickle and
    copy.  Equality and hashing use the normalized (rotation/reflection-
    minimal) sequence: two presentations of the same surface compare equal
    even though their ray numberings differ.  Divisor-class arithmetic, in
    contrast, always requires the exact same presentation.
    """

    def __init__(self, selfints: tuple[int, ...]):
        if len(selfints) < 3:
            raise InvalidFan("a complete fan needs at least 3 rays")
        rays = _rays_from_selfints(selfints)
        n = len(selfints)
        for i in range(n):
            if _det2(rays[i], rays[(i + 1) % n]) != 1:
                raise InvalidFan(f"adjacent rays {i}, {i+1} are not a lattice basis")
        if _winding_number(rays) != 1:
            raise InvalidFan(f"rays of {selfints} wind more than once")
        if sum(selfints) != 12 - 3 * n:
            # redundant once the recursion closes with winding one
            raise InvalidFan(f"sum of self-intersections of {selfints} is not 12 - 3n")
        self.selfints = selfints
        self.rays = rays
        self._blow_downs: dict[int, BlowupRelation] = {}

    # basic numerology -----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.selfints)

    @property
    def k0_rank(self) -> int:
        return len(self.selfints)

    @property
    def pic_rank(self) -> int:
        return len(self.selfints) - 2

    @functools.cached_property
    def normalized(self) -> tuple[int, ...]:
        """The rotation/reflection-minimal sequence, computed once: equality
        and hashing read it on every call."""
        return normalize(self.selfints)

    def __repr__(self) -> str:
        return f"TV{self.selfints}"

    def __eq__(self, other) -> bool:
        if not isinstance(other, ToricSurface):
            return NotImplemented
        return self.normalized == other.normalized

    def __hash__(self) -> int:
        return hash(self.normalized)

    def __reduce__(self):
        return from_selfints, (self.selfints,)

    # divisor classes ------------------------------------------------------

    def divisor_class(self, coeffs) -> "DivisorClass":
        coeffs = _ints(coeffs, "coefficients")
        if len(coeffs) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(coeffs)}")
        return DivisorClass(self, coeffs)

    def divisor(self, i: int) -> "DivisorClass":
        """Class of the invariant prime divisor D_i (0-based ray index); the
        same object on every call."""
        return self._divisors[i % self.n]

    @functools.cached_property
    def _divisors(self) -> tuple["DivisorClass", ...]:
        n = self.n
        return tuple(
            DivisorClass(self, tuple(int(j == i) for j in range(n))) for i in range(n)
        )

    def zero_class(self) -> "DivisorClass":
        return DivisorClass(self, (0,) * self.n)

    def canonical_class(self) -> "DivisorClass":
        """K_X = -(D_1 + ... + D_n)."""
        return DivisorClass(self, (-1,) * self.n)

    def relation_vector(self, m: Vec2) -> tuple[int, ...]:
        """The principal divisor of the character m: (<m, v_1>, ..., <m, v_n>)."""
        return tuple(m[0] * vx + m[1] * vy for vx, vy in self.rays)

    def reduce_coeffs(self, coeffs) -> tuple[int, ...]:
        """Canonical representative of a class: the unique coefficient vector in
        the coset with first two entries zero (v_1, v_2 is the standard basis)."""
        c0, c1 = coeffs[0], coeffs[1]
        if c0 == 0 and c1 == 0:
            return tuple(coeffs)
        return tuple(
            c - c0 * vx - c1 * vy for c, (vx, vy) in zip(coeffs, self.rays)
        )

    def class_from_coords(self, coords) -> "DivisorClass":
        if len(coords) != self.pic_rank:
            raise ValueError(f"expected {self.pic_rank} coordinates")
        return DivisorClass(self, (0, 0) + tuple(coords))

    def gram_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Intersection matrix on the Pic basis ([D_3], ..., [D_n])."""
        return self._gram

    @functools.cached_property
    def _gram(self) -> tuple[tuple[int, ...], ...]:
        basis = [self.divisor(i) for i in range(2, self.n)]
        return tuple(tuple(a.dot(b) for b in basis) for a in basis)

    def canonical_coords(self) -> tuple[int, ...]:
        return self._canonical_coords

    @functools.cached_property
    def _canonical_coords(self) -> tuple[int, ...]:
        return self.canonical_class().coords()

    def _require_same(self, other: "ToricSurface") -> None:
        if self.selfints != other.selfints:
            raise SurfaceMismatch(
                f"classes live on different presentations {self} and {other}"
            )

    # birational structure ---------------------------------------------------

    def contractible_rays(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.selfints) if a == -1)

    def blow_up(self, p: int) -> "BlowupRelation":
        """Blow up the fixed point between rays p and p+1 (cyclic, 0-based).

        The new (-1)-ray is inserted at index p+1 and both neighbours drop by
        one: TV(..., a_p - 1, -1, a_{p+1} - 1, ...).
        """
        n = self.n
        if not 0 <= p < n:
            raise ValueError(f"blow-up position {p} out of range")
        return self._insert_ray(p + 1)

    def _insert_ray(self, i: int) -> "BlowupRelation":
        """Insert a new (-1)-ray at list index i (0 <= i <= n); the blown-up
        point is the one between cyclic rays i-1 and i of this surface."""
        n = self.n
        new = list(self.selfints)
        new[(i - 1) % n] -= 1
        new[i % n] -= 1
        new.insert(i, -1)
        above = from_selfints(new)
        return BlowupRelation(below=self, above=above, ray_index=i)

    def blow_down(self, i: int) -> "BlowupRelation":
        """Contract the (-1)-ray at index i; the result keeps the remaining
        rays in order, with both neighbours increased by one.  The relation
        is built and round-trip checked once per (surface, ray) and cached:
        surfaces are interned and immutable."""
        rel = self._blow_downs.get(i)
        if rel is not None:
            return rel
        n = self.n
        if self.selfints[i] != -1:
            raise NotContractible(f"ray {i} has self-intersection {self.selfints[i]}")
        if n <= 3:
            raise RankTooLow("cannot blow down a surface with 3 rays")
        new = list(self.selfints)
        new[(i - 1) % n] += 1
        new[(i + 1) % n] += 1
        del new[i]
        below = from_selfints(new)
        rel = BlowupRelation(below=below, above=self, ray_index=i)
        if rel.below._insert_ray(i).above.selfints != self.selfints:
            raise InternalInconsistency(f"blowing {below} up again does not give {self}")
        self._blow_downs[i] = rel
        return rel

    # good bases ---------------------------------------------------------------

    def good_basis(self, path=None) -> "GoodBasis":
        """Orthogonal basis (H, R_1, ..., R_l) of Pic with Gram diag(1,-1,...,-1).

        ``path`` is a sequence of ray indices to contract, each index taken in
        the surface current at that step; it must end on a Hirzebruch surface
        of odd degree.  Without a path, a depth-first search over (-1)-rays
        finds one (raising EvenTerminalHirzebruch if every path ends even).
        """
        if path is None:
            path = _good_basis_path(self.selfints)
            if path is None:
                raise EvenTerminalHirzebruch(
                    f"every blow-down path from {self} ends on an even Hirzebruch surface"
                )
        relations: list[BlowupRelation] = []
        x: ToricSurface = self
        for i in path:
            rel = x.blow_down(i)
            relations.append(rel)
            x = rel.below
        if x.n != 4:
            raise ValueError("blow-down path must end on a Hirzebruch surface")
        r = max(x.selfints)
        if r % 2 == 0:
            raise EvenTerminalHirzebruch(
                f"terminal surface {x} has even degree {r}"
            )
        s = x.selfints.index(r)
        a = (r - 1) // 2
        d1, d2 = x.divisor(s), x.divisor((s + 1) % 4)
        elems = [d1 - a * d2, d1 - (a + 1) * d2]
        for rel in reversed(relations):
            elems = [rel.pullback(e) for e in elems] + [rel.exceptional_class]
        basis = GoodBasis(
            surface=self,
            elements=tuple(elems),
            blowdown_path=tuple(path),
            terminal=x,
        )
        basis._check()
        return basis

    # symmetries -----------------------------------------------------------------

    def fan_automorphisms(self) -> tuple["FanAutomorphism", ...]:
        """All lattice automorphisms of the fan, as (GL_2(Z) map, ray permutation).

        A fan automorphism preserves or reverses the cyclic ray order, so only
        the 2n dihedral index permutations can occur; each candidate map is
        pinned down by the images of v_1, v_2 and then verified on every ray.
        """
        return self._autos

    @functools.cached_property
    def _autos(self) -> tuple["FanAutomorphism", ...]:
        n, rays = self.n, self.rays
        found = []
        for mirror in (False, True):
            for k in range(n):
                if mirror:
                    perm = tuple((k - i) % n for i in range(n))
                else:
                    perm = tuple((k + i) % n for i in range(n))
                # v_1 = e_1 and v_2 = e_2, so the matrix columns are the images
                m0, m1 = rays[perm[0]], rays[perm[1]]
                mat = ((m0[0], m1[0]), (m0[1], m1[1]))
                if all(
                    (
                        mat[0][0] * rays[i][0] + mat[0][1] * rays[i][1],
                        mat[1][0] * rays[i][0] + mat[1][1] * rays[i][1],
                    )
                    == rays[perm[i]]
                    for i in range(n)
                ):
                    found.append(FanAutomorphism(self, mat, perm))
        found.sort(key=lambda f: f.ray_permutation)
        return tuple(found)


@functools.lru_cache(maxsize=None)
def _good_basis_path(selfints: tuple[int, ...]) -> tuple[int, ...] | None:
    x = from_selfints(selfints)
    if x.n == 4:
        return () if max(selfints) % 2 == 1 else None
    if x.n < 4:
        return None
    for i in x.contractible_rays():
        sub = _good_basis_path(x.blow_down(i).below.selfints)
        if sub is not None:
            return (i,) + sub
    return None


class DivisorClass(_Record):
    """An element of Pic(X) given by integer coefficients on (D_1, ..., D_n).

    Equality and hashing reduce modulo the relation lattice, so different
    coefficient vectors of the same class compare equal.  Arithmetic keeps the
    stored representative; intersection numbers are representative-invariant.
    The reduced representative is computed once per object, on first use,
    and kept in the slot ``_reduced``.
    """

    __slots__ = ("surface", "coeffs", "_reduced")

    def __init__(self, surface: ToricSurface, coeffs: tuple[int, ...]):
        _set(self, "surface", surface)
        _set(self, "coeffs", coeffs)

    def reduced(self) -> tuple[int, ...]:
        try:
            return self._reduced
        except AttributeError:
            reduced = self.surface.reduce_coeffs(self.coeffs)
            _set(self, "_reduced", reduced)
            return reduced

    def coords(self) -> tuple[int, ...]:
        """Coordinates in the Z-basis ([D_3], ..., [D_n]) of Pic."""
        return self.reduced()[2:]

    def dot(self, other: "DivisorClass") -> int:
        """Intersection number; bilinear in D_i . D_j = a_i, 1, 0."""
        self.surface._require_same(other.surface)
        return sum(map(mul, self.coeffs, _divisor_pairings(self.surface.selfints, other.coeffs)))

    def square(self) -> int:
        return self.dot(self)

    def k_degree(self) -> int:
        return self.dot(self.surface.canonical_class())

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self.surface._require_same(other.surface)
        return DivisorClass(
            self.surface, tuple(x + y for x, y in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self.surface._require_same(other.surface)
        return DivisorClass(
            self.surface, tuple(x - y for x, y in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.surface, tuple(-x for x in self.coeffs))

    def __rmul__(self, k: int) -> "DivisorClass":
        return DivisorClass(self.surface, tuple(k * x for x in self.coeffs))

    __mul__ = __rmul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return (
            self.surface.selfints == other.surface.selfints
            and self.reduced() == other.reduced()
        )

    def __hash__(self) -> int:
        return hash((self.surface.selfints, self.reduced()))

    def __repr__(self) -> str:
        return f"DivisorClass{self.coeffs}"


class BlowupRelation(_Record):
    """One toric blow-up ``above -> below`` with its maps on Pic.

    ``ray_index`` is the position of the exceptional ray in ``above``; the
    blown-up point of ``below`` sits between its cyclic rays ray_index - 1 and
    ray_index.  ``pullback`` is the inclusion Pic(below) into Pic(above), whose
    image is the orthogonal complement of the exceptional class; ``pushdown``
    inverts it on that complement.
    """

    __slots__ = ("below", "above", "ray_index", "_unit_relation")

    def __init__(self, below: ToricSurface, above: ToricSurface, ray_index: int):
        _set(self, "below", below)
        _set(self, "above", above)
        _set(self, "ray_index", ray_index)

    @property
    def exceptional_class(self) -> DivisorClass:
        return self.above.divisor(self.ray_index)

    def pullback(self, cls: DivisorClass) -> DivisorClass:
        self.below._require_same(cls.surface)
        nb = self.below.n
        e = self.ray_index
        lo, hi = (e - 1) % nb, e % nb
        out = [0] * (nb + 1)
        for j, cj in enumerate(cls.coeffs):
            out[j if j < e else j + 1] = cj
        out[e] = cls.coeffs[lo] + cls.coeffs[hi]
        return self.above.divisor_class(out)

    def pushdown(self, cls: DivisorClass) -> DivisorClass:
        self.above._require_same(cls.surface)
        e = self.ray_index
        n = self.above.n
        c = cls.coeffs
        # E^2 = -1 and E meets only its two neighbours, so c.E = 0 reads:
        if c[(e - 1) % n] + c[(e + 1) % n] != c[e]:
            raise ValueError(
                "class does not lie in the orthogonal complement of the exceptional class"
            )
        return DivisorClass(self.below, self._drop_exceptional(c, c[e]))

    def _drop_exceptional(self, c: tuple[int, ...], t: int) -> tuple[int, ...]:
        """The one pushdown formula: the coefficients below of the vector
        above that has the coordinates of c off e and t at e, which must meet
        E in 0.  Coordinate e is deleted, then t unit relations (with e
        deleted too) are subtracted: the shift that makes the exceptional
        coefficient vanish.  ``pushdown`` passes t = c[e]; an entry that
        absorbs D_e passes c[e] + 1 and needs no tuple of its own.  The
        caller checks c.E = 0."""
        e = self.ray_index
        c = c[:e] + c[e + 1 :]
        if t:
            c = tuple(map(sub, c, map(t.__mul__, self._unit())))
        return c

    def _unit(self) -> tuple[int, ...]:
        """The relation vector of some m with <m, v_e> = 1, from the xgcd of
        the exceptional ray, with coordinate e deleted; computed once and
        kept in the slot ``_unit_relation``."""
        try:
            return self._unit_relation
        except AttributeError:
            pass
        e = self.ray_index
        vx, vy = self.above.rays[e]
        _, p, q = _xgcd(vx, vy)
        rel = self.above.relation_vector((p, q))
        if rel[e] != 1:
            raise InternalInconsistency(f"ray ({vx}, {vy}) is not primitive")
        unit = rel[:e] + rel[e + 1 :]
        _set(self, "_unit_relation", unit)
        return unit


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


class GoodBasis(_Record):
    """Basis (H, R_1, ..., R_l) of Pic(X) with Gram matrix diag(1, -1, ..., -1),
    obtained by pulling back the standard basis of an odd Hirzebruch surface
    along a blow-down path and appending the exceptional classes."""

    __slots__ = ("surface", "elements", "blowdown_path", "terminal")

    def __init__(
        self,
        surface: ToricSurface,
        elements: tuple[DivisorClass, ...],
        blowdown_path: tuple[int, ...],
        terminal: ToricSurface,
    ):
        _set(self, "surface", surface)
        _set(self, "elements", elements)
        _set(self, "blowdown_path", blowdown_path)
        _set(self, "terminal", terminal)

    def _check(self) -> None:
        if len(self.elements) != self.surface.pic_rank:
            raise InternalInconsistency("good basis has the wrong number of elements")
        for i, a in enumerate(self.elements):
            for j, b in enumerate(self.elements):
                want = 0 if i != j else (1 if i == 0 else -1)
                if a.dot(b) != want:
                    raise InternalInconsistency(
                        "good basis is not orthonormal of signature (1,-)"
                    )
        mat = tuple(zip(*(e.coords() for e in self.elements)))
        if abs(_intlinalg.det(mat)) != 1:
            raise InternalInconsistency("good basis does not span Pic over Z")


class FanAutomorphism(_Record):
    """A lattice automorphism of the fan: a GL_2(Z) map together with the
    induced ray permutation (lattice_map sends v_i to v_{perm[i]})."""

    __slots__ = ("surface", "lattice_map", "ray_permutation")

    def __init__(
        self,
        surface: ToricSurface,
        lattice_map: tuple[Vec2, Vec2],
        ray_permutation: tuple[int, ...],
    ):
        _set(self, "surface", surface)
        _set(self, "lattice_map", lattice_map)
        _set(self, "ray_permutation", ray_permutation)

    def apply(self, cls: DivisorClass) -> DivisorClass:
        """Pullback on Pic: coefficient i of the image is coefficient perm[i]."""
        self.surface._require_same(cls.surface)
        return self.surface.divisor_class(
            tuple(cls.coeffs[p] for p in self.ray_permutation)
        )

    def pic_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Matrix of the pullback on Pic coordinates (basis [D_3], ..., [D_n])."""
        x = self.surface
        cols = [
            self.apply(x.divisor(j)).coords() for j in range(2, x.n)
        ]
        return tuple(zip(*cols))

    def is_identity(self) -> bool:
        return self.ray_permutation == tuple(range(self.surface.n))


def coords_in_basis(
    cls: DivisorClass, basis: tuple[DivisorClass, ...] | list[DivisorClass]
) -> tuple[int, ...]:
    """Express a class in an arbitrary Z-basis of Pic (exact, integral)."""
    mat = tuple(zip(*(b.coords() for b in basis)))
    return _intlinalg.solve_integral(mat, cls.coords())
