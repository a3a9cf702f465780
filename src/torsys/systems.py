"""Toric systems: cyclic divisor sequences replicating the invariant-divisor
intersection pattern, and their interplay with exceptional sequences.

A toric system on X is a length-n sequence (A_1, ..., A_n) of divisor classes
with A_i . A_{i+1} = 1 cyclically, A_i . A_j = 0 for non-adjacent pairs, and
sum A_i = -K_X.  Differences of a length-n exceptional sequence of line
bundles form one, and conversely.  Augmentation transplants a system onto a
blow-up by splitting one entry around the exceptional class.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from operator import add, mul, sub

from .cohomology import vanishes_totally
from .surface import (
    BlowupRelation,
    DivisorClass,
    InternalInconsistency,
    InvalidFan,
    ToricSurface,
    _divisor_pairings,
    _Record,
    _set,
    from_selfints,
)


class BadLength(ValueError):
    """System length differs from the rank of K_0."""


class BadIntersection(ValueError):
    """Some pairwise intersection number violates the cyclic pattern."""

    def __init__(self, i: int, j: int, value: int):
        super().__init__(f"A_{i} . A_{j} = {value} violates the cyclic pattern")
        self.i = i
        self.j = j
        self.value = value


class BadCanonicalSum(ValueError):
    """The entries do not sum to the anticanonical class."""


class NotDeaugmentable(ValueError):
    """The requested (position, ray) pair does not reverse an augmentation."""


class Unclassifiable(RuntimeError):
    """A valid Hirzebruch toric system escaped the classification: a bug."""


class ToricSystem(_Record):
    """A toric system.  :meth:`validate` checks the axioms on outside input
    and on augmentation, so witness replay re-validates every step.  Images
    that are valid by construction (rotations, mirrors, isometry and fan
    automorphism images, de-augmentations, twists) are built unchecked with
    ``ToricSystem(surface, entries)``; each builder states its reason."""

    surface: ToricSurface
    entries: tuple[DivisorClass, ...]

    def __init__(self, surface: ToricSurface, entries: tuple[DivisorClass, ...]):
        _set(self, "surface", surface)
        _set(self, "entries", entries)

    @classmethod
    def validate(cls, surface: ToricSurface, entries) -> "ToricSystem":
        entries = tuple(entries)
        for a in entries:
            surface._require_same(a.surface)
        _check_axioms(surface, tuple(a.coeffs for a in entries))
        return cls(surface, entries)

    def __len__(self) -> int:
        return len(self.entries)

    def squares(self) -> tuple[int, ...]:
        return tuple(a.square() for a in self.entries)

    def rotate(self, k: int) -> "ToricSystem":
        n = len(self.entries)
        k %= n
        return ToricSystem(self.surface, self.entries[k:] + self.entries[:k])

    def mirror(self) -> "ToricSystem":
        return ToricSystem(self.surface, self.entries[::-1])

    def symmetry_images(self):
        """All rotations of the system and of its mirror (2n sequences)."""
        for base in (self, self.mirror()):
            for k in range(len(self.entries)):
                yield base.rotate(k)

    def key(self) -> tuple:
        """Exact identity of the sequence: surface presentation + entry coords."""
        return (self.surface.selfints, tuple(a.coords() for a in self.entries))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ToricSystem):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"ToricSystem(on={self.surface}, squares={self.squares()})"


class LineBundleSequence(_Record):
    """A length-n sequence of line-bundle classes (n = rank of K_0), normalized
    so the first entry is the trivial bundle."""

    surface: ToricSurface
    entries: tuple[DivisorClass, ...]

    def __init__(self, surface: ToricSurface, entries: tuple[DivisorClass, ...]):
        _set(self, "surface", surface)
        _set(self, "entries", entries)

    @classmethod
    def of(cls, entries) -> "LineBundleSequence":
        entries = tuple(entries)
        if not entries:
            raise BadLength("empty sequence")
        first = entries[0]
        if len(entries) != first.surface.k0_rank:
            raise BadLength(
                f"expected {first.surface.k0_rank} bundles, got {len(entries)}"
            )
        entries = tuple(e - first for e in entries)
        return cls(first.surface, entries)

    def key(self) -> tuple:
        return (self.surface.selfints, tuple(e.coords() for e in self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LineBundleSequence):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())


def standard_system(x: ToricSurface) -> ToricSystem:
    """The toric system (D_1, ..., D_n) of the invariant divisors."""
    return ToricSystem.validate(x, tuple(x.divisor(i) for i in range(x.n)))


def _check_axioms(x: ToricSurface, coeffs: tuple[tuple[int, ...], ...]) -> None:
    """The toric-system axioms on the entries' coefficient tuples: n entries,
    A_i . A_j = 1 for cyclic neighbours and 0 otherwise (by the intersection
    formula of :func:`_divisor_pairings`), and sum A_i = -K = (1, ..., 1)
    modulo relations.  The one validation body, for
    :meth:`ToricSystem.validate`, :func:`from_sequence` and
    ``torsys.classify.certify_full``; a pure check, it interns nothing."""
    n = x.n
    if len(coeffs) != n:
        raise BadLength(f"expected {n} entries, got {len(coeffs)}")
    pairings = [tuple(_divisor_pairings(x.selfints, e)) for e in coeffs]
    for i in range(n):
        for j in range(i + 1, n):
            v = sum(map(mul, coeffs[i], pairings[j]))
            adjacent = j == i + 1 or (i == 0 and j == n - 1)
            if v != (1 if adjacent else 0):
                raise BadIntersection(i, j, v)
    total = x.reduce_coeffs(tuple(map(sum, zip(*coeffs))))
    if total != x.reduce_coeffs((1,) * n):
        raise BadCanonicalSum(f"entries sum to {total}, not -K")


def from_sequence(seq) -> ToricSystem:
    """Toric system of consecutive differences A_i = E_{i+1} - E_i, closed by
    A_n = -K - sum of the others.  Raises the validation errors when the
    sequence is not exceptional-shaped.  Runs on coefficient tuples and
    builds the entries once, after :func:`_check_axioms` passed."""
    x, coeffs = _sequence_coeffs(seq)
    _check_axioms(x, coeffs)
    return ToricSystem(x, tuple(DivisorClass(x, c) for c in coeffs))


def _sequence_coeffs(seq) -> tuple[ToricSurface, tuple[tuple[int, ...], ...]]:
    """The surface of ``seq`` and the coefficient tuples of the entries of
    :func:`from_sequence`, unvalidated."""
    if not isinstance(seq, LineBundleSequence):
        seq = LineBundleSequence.of(seq)
    x = seq.surface
    for e in seq.entries:
        x._require_same(e.surface)
    bundles = [e.coeffs for e in seq.entries]
    coeffs = [tuple(map(sub, b, a)) for a, b in zip(bundles, bundles[1:])]
    # -K has coefficients (1, ..., 1)
    coeffs.append(tuple(1 - t for t in map(sum, zip((0,) * x.n, *coeffs))))
    return x, tuple(coeffs)


def to_sequence(system: ToricSystem) -> LineBundleSequence:
    """Partial sums (O, A_1, A_1 + A_2, ...): the exceptional sequence with
    first bundle trivial, summed on the coefficient tuples."""
    x = system.surface
    sums = [(0,) * x.n]
    for a in system.entries[:-1]:
        x._require_same(a.surface)
        sums.append(tuple(map(add, sums[-1], a.coeffs)))
    return LineBundleSequence(x, tuple(DivisorClass(x, c) for c in sums))


def associated_surface(system: ToricSystem) -> ToricSurface:
    """TV(A_1^2, ..., A_n^2); valid systems always give a valid fan."""
    try:
        return from_selfints(system.squares())
    except InvalidFan as exc:
        raise InternalInconsistency(
            f"valid toric system produced an invalid fan: {exc}"
        ) from exc


def augment(system: ToricSystem, blowup_position: int, insert_position: int) -> ToricSystem:
    """Transplant a system onto blow_up(X, p): pull every entry back, insert
    the exceptional class R at ``insert_position`` and subtract R from both of
    its new cyclic neighbours."""
    rel = system.surface.blow_up(blowup_position)
    return _augment_with_relation(system, rel, insert_position)


def _augment_with_relation(
    system: ToricSystem, rel: BlowupRelation, insert_position: int
) -> ToricSystem:
    n = len(system.entries)
    j = insert_position
    if not 0 <= j <= n:
        raise ValueError(f"insert position {j} out of range")
    r = rel.exceptional_class
    up = [rel.pullback(a) for a in system.entries]
    out = up[:j] + [r] + up[j:]
    lo, hi = (j - 1) % (n + 1), (j + 1) % (n + 1)
    out[lo] = out[lo] - r
    out[hi] = out[hi] - r
    return ToricSystem.validate(rel.above, out)


def _augment_at_ray(
    system: ToricSystem, ray_index: int, insert_position: int
) -> ToricSystem:
    """Augmentation along the blow-up that inserts the new ray at list index
    ``ray_index`` (0 .. n); exact inverse of :func:`deaugment`."""
    rel = system.surface._insert_ray(ray_index)
    return _augment_with_relation(system, rel, insert_position)


def deaugment(
    system: ToricSystem, position: int, ray: int
) -> tuple[ToricSystem, DivisorClass]:
    """Reverse an augmentation: the entry at ``position`` must equal the class
    of the contractible ray ``ray``; both neighbours absorb R and everything
    is pushed down to the blow-down.  Returns the smaller system and R.

    Built unchecked: as A_i = R, (A_{i+-1} + R).R = 1 - 1 = 0, the other
    entries meet R in 0 and (A_{i-1} + R).(A_{i+1} + R) = 1, so the merged
    entries lie in R^perp with the cyclic pattern; pushdown is isometric on
    R^perp; and the merged sum is -K + R = -pi^*K.  The work is
    :func:`_deaugment_coeffs`, on the coefficients of the entries."""
    x = system.surface
    ray %= x.n
    if x.selfints[ray] != -1:
        raise NotDeaugmentable(f"ray {ray} is not contractible on {x}")
    r = x.divisor(ray)
    position %= len(system.entries)
    if system.entries[position] != r:
        raise NotDeaugmentable(
            f"entry {position} is not the exceptional class of ray {ray}"
        )
    below, coeffs = _deaugment_coeffs(
        x, tuple(a.coeffs for a in system.entries), position, ray
    )
    return ToricSystem(below, tuple(DivisorClass(below, c) for c in coeffs)), r


def _deaugment_coeffs(
    x: ToricSurface, coeffs: tuple, position: int, ray: int
) -> tuple[ToricSurface, tuple]:
    """The one de-augmentation body, on coefficient tuples: the surface below
    and the coefficients of the entries there.  The entry at ``position``
    goes, and every other entry is pushed down by
    :meth:`BlowupRelation._drop_exceptional`, the formula of
    :meth:`BlowupRelation.pushdown`; both neighbours of ``position`` absorb
    the unit vector of ``ray``, which only raises the exceptional
    coefficient t they pass by one.  The caller checks that the entry at
    ``position`` is the class E of the contractible ray.  As E^2 = -1 and E
    meets only its two neighbours, c.E = 0 reads c[ray - 1] + c[ray + 1] =
    t; an entry that fails it is a bug, not an input error, so it raises
    InternalInconsistency (``pushdown`` keeps its ValueError).  Reduced input
    gives reduced-equivalent output: the shift is a relation below.  A pure
    function of its arguments: it reads no class table and keeps no memo."""
    rel = x.blow_down(ray)
    n = x.n
    lo, hi = (ray - 1) % n, (ray + 1) % n
    neighbours = ((position - 1) % n, (position + 1) % n)
    out = []
    for j, c in enumerate(coeffs):
        if j == position:
            continue
        t = c[ray] + (j in neighbours)
        if c[lo] + c[hi] != t:
            raise InternalInconsistency(
                "a de-augmented entry does not lie in the orthogonal complement "
                "of the exceptional class"
            )
        out.append(rel._drop_exceptional(c, t))
    return rel.below, tuple(out)


def is_exceptional(system: ToricSystem) -> bool:
    """No backwards morphisms: every consecutive segment sum A_i + ... + A_j
    with j < n has totally vanishing cohomology of its negative.  (The segment
    equals E_{j+1} - E_i for the associated bundle sequence.)

    The entries become class ids of the per-surface table
    (:func:`_system_ids`), and :func:`_is_exceptional_ids` walks the segments
    on those ids, i ascending, then j ascending, stopping at the first
    segment whose negative does not vanish; the verdict is kept per system.
    """
    return _is_exceptional_ids(*_system_ids(system))


# Class tables ----------------------------------------------------------------

CLASS_TABLE_CAP = 200_000
"""The most entries (classes, sums and the entries of the id-keyed memos,
over all class tables) kept from one top-level call, an entry through
:func:`_entry_ids`, to the next; the library's only memo cap."""


class _ClassTable:
    """The divisor classes met on one surface presentation, interned: each
    reduced coefficient tuple gets the next small int id.  Reduced tuples
    (first two coefficients 0) form a subgroup, so an id stands for a class
    and the sum of two reduced tuples is reduced again.

    Per id the table keeps the bit "the negative does not vanish totally",
    filled on first use by ``vanishes_totally``; it is the only memo of a
    cohomology answer, as the cohomology module keeps none.  A sum table
    maps (id, id) to the id of the sum.  The id-keyed memos of
    :func:`_is_exceptional_ids` and of the de-augmentation search
    (``torsys.classify._path``, with its pushdowns per ray in
    ``contractible``) live here too, each with its hits and misses.  Only
    :func:`_entry_ids` enters the tables at top level; validation interns
    nothing.  Every stored entry counts toward ``CLASS_TABLE_CAP``, and
    :func:`_clear_class_tables` drops them all with the ids they key on."""

    entries = 0  # over all tables, for CLASS_TABLE_CAP

    def __init__(self, selfints: tuple[int, ...]):
        self.surface = from_selfints(selfints)
        self.ids: dict[tuple[int, ...], int] = {}
        self.classes: list[tuple[int, ...]] = []
        self.bad: list[bool | None] = []
        self.sums: list[dict[int, int]] = []
        self.exceptional: dict[tuple[int, ...], bool] = {}
        self.paths: dict[tuple[int, ...], tuple | None] = {}
        self.exceptional_hits = self.exceptional_misses = 0
        self.paths_hits = self.paths_misses = 0

    def intern(self, reduced: tuple[int, ...]) -> int:
        i = self.ids.get(reduced)
        if i is None:
            i = self.ids[reduced] = len(self.classes)
            self.classes.append(reduced)
            self.bad.append(None)
            self.sums.append({})
            _ClassTable.entries += 1
        return i

    def sum(self, a: int, b: int) -> int:
        row = self.sums[a]
        s = row.get(b)
        if s is None:
            s = row[b] = self.intern(tuple(map(add, self.classes[a], self.classes[b])))
            _ClassTable.entries += 1
        return s

    def is_bad(self, i: int) -> bool:
        bad = self.bad[i]
        if bad is None:
            negated = tuple(-c for c in self.classes[i])
            bad = self.bad[i] = not vanishes_totally(DivisorClass(self.surface, negated))
        return bad

    def remember(self, memo: dict, key, value):
        """Store ``value`` under ``key`` in one of the id-keyed memos and
        return it."""
        memo[key] = value
        _ClassTable.entries += 1
        return value

    def remember_all(self, memo: dict, items) -> None:
        """Store the (key, value) pairs ``items`` in one of the memos."""
        before = len(memo)
        memo.update(items)
        _ClassTable.entries += len(memo) - before

    @functools.cached_property
    def contractible(self) -> tuple[tuple[int, int, "_ClassTable", dict], ...]:
        """Per contractible ray, rays ascending: the ray, the id of D_ray,
        the table below its blow-down and the pushdown memo of the search,
        which maps 2 id + a to the id below of the class id plus a D_ray
        (a = 1 for the two entries that absorb D_ray)."""
        x = self.surface
        return tuple(
            (
                ray,
                self.intern(x.divisor(ray).reduced()),
                _class_table(x.blow_down(ray).below.selfints),
                {},
            )
            for ray in x.contractible_rays()
        )


_class_tables: dict[tuple[int, ...], _ClassTable] = {}


def _class_table(selfints: tuple[int, ...]) -> _ClassTable:
    """The class table of the presentation ``selfints``, made on first use."""
    table = _class_tables.get(selfints)
    if table is None:
        table = _class_tables[selfints] = _ClassTable(selfints)
    return table


def _clear_class_tables() -> None:
    """Drop every class table, and with them every id-keyed memo."""
    _class_tables.clear()
    _ClassTable.entries = 0


_MemoInfo = namedtuple("_MemoInfo", "hits misses currsize")


def _memo_info(memo: str) -> _MemoInfo:
    """Hits, misses and entries of one memo of the class tables,
    ``"exceptional"`` (:func:`_is_exceptional_ids`) or ``"paths"`` (the
    search), summed over the class tables since they were last dropped."""
    tables = _class_tables.values()
    return _MemoInfo(
        sum(getattr(t, memo + "_hits") for t in tables),
        sum(getattr(t, memo + "_misses") for t in tables),
        sum(len(getattr(t, memo)) for t in tables),
    )


def _entry_ids(x: ToricSurface, reduced) -> tuple[_ClassTable, tuple[int, ...]]:
    """The class table of ``x``'s presentation and the ids of the reduced
    coefficient tuples ``reduced``: the one door by which a top-level call,
    :func:`_system_ids` or ``torsys.classify.certify_full``, enters the
    tables.  Over CLASS_TABLE_CAP entries it first drops them all, so one
    call may take them past the cap until the next.  No search comes back
    here, and ids are only ever read with the table object that issued them,
    which a search reaches through its caller's table
    (``_ClassTable.contractible``), so no id an outer frame holds can point
    into a newer table."""
    if _ClassTable.entries > CLASS_TABLE_CAP:
        _clear_class_tables()
    table = _class_table(x.selfints)
    return table, tuple(map(table.intern, reduced))


def _system_ids(system: ToricSystem) -> tuple[_ClassTable, tuple[int, ...]]:
    """The table and the entry ids of ``system``, through :func:`_entry_ids`,
    for the public calls of the two kernels on a system."""
    return _entry_ids(system.surface, (a.reduced() for a in system.entries))


def _is_exceptional_ids(table: _ClassTable, ids: tuple[int, ...]) -> bool:
    """The body of :func:`is_exceptional` on the class ids of the entries,
    kept in the table's memo: a census tests each orbit system again in
    ``is_constructible`` and in ``certify_full``, and the answer is a
    function of the classes.  The segment A_i + ... + A_j is the sum-table
    id of A_i + ... + A_{j-1} and A_j, and its negative is the class
    S_{i-1} - S_j of the partial sums S_k = A_1 + ... + A_k.  Segments are
    tested i ascending, then j ascending, up to the first one whose
    negative does not vanish; a bit already in the table is not asked of
    ``vanishes_totally`` again."""
    verdict = table.exceptional.get(ids)
    if verdict is not None:
        table.exceptional_hits += 1
        return verdict
    table.exceptional_misses += 1
    # the hit paths of table.sum and table.is_bad are inlined: this loop is
    # the hot part of a census's exceptionality tests
    bad, sums = table.bad, table.sums
    last = len(ids) - 1
    for i in range(last):
        segment = ids[i]
        for j in range(i, last):
            if j > i:
                following = sums[segment].get(ids[j])
                segment = table.sum(segment, ids[j]) if following is None else following
            flag = bad[segment]
            if flag is None:
                flag = table.is_bad(segment)
            if flag:
                return table.remember(table.exceptional, ids, False)
    return table.remember(table.exceptional, ids, True)


# Hirzebruch surfaces ---------------------------------------------------------


class HirzebruchSystemClass(_Record):
    """Classification label of a toric system on a Hirzebruch surface F_r.

    kind "A": (P, iP + Q, P, -(r+i)P + Q); kind "Atilde" (r even, S = Q - r/2 P):
    (S, P + iS, S, P - iS).  P is a fibre class (P^2 = 0, P.Q = 1, Q^2 = r).
    """

    kind: str
    r: int
    i: int

    def __init__(self, kind: str, r: int, i: int):
        _set(self, "kind", kind)
        _set(self, "r", r)
        _set(self, "i", i)

    def is_exceptional_class(self) -> bool:
        """Which labels carry exceptional systems: every A_{r,i}; Atilde for
        r = 0 (the two rulings are interchangeable) or i = 0, where
        Atilde_{r,0} is a rotation of A_{r,-r/2}.  For even r >= 2 and i != 0
        some backwards segment becomes effective and exceptionality fails."""
        if self.kind == "A":
            return True
        return self.r == 0 or self.i == 0


def hirzebruch_pq(x: ToricSurface) -> tuple[DivisorClass, DivisorClass, int]:
    """The standard (P, Q) basis of Pic(F_r) for any 4-ray presentation:
    Q is the class of a ray of maximal self-intersection r, P its successor."""
    if x.n != 4:
        raise BadLength(f"{x} is not a Hirzebruch surface")
    r = max(x.selfints)
    s = x.selfints.index(r)
    q = x.divisor(s)
    p = x.divisor((s + 1) % 4)
    if not (p.square() == 0 and q.square() == r and p.dot(q) == 1):
        raise InternalInconsistency(f"(P, Q) of {x} is not the standard basis")
    return p, q, r


def hirzebruch_system(kind: str, r: int, i: int) -> ToricSystem:
    """Build the labelled system on TV(r, 0, -r, 0)."""
    x = from_selfints((r, 0, -r, 0))
    p, q, _ = hirzebruch_pq(x)
    if kind == "A":
        entries = (p, i * p + q, p, -(r + i) * p + q)
    elif kind == "Atilde":
        if r % 2 != 0:
            raise ValueError("Atilde systems need even r")
        s = q - (r // 2) * p
        entries = (s, p + i * s, s, p - i * s)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return ToricSystem.validate(x, entries)


def classify_hirzebruch(system: ToricSystem) -> HirzebruchSystemClass:
    """Identify (kind, r, i) matching the system up to rotation and mirror.

    Every toric system on F_r is of kind A or Atilde up to these symmetries,
    and the labels themselves are orbit-level only: mirroring identifies
    A_{r,i} with A_{r,-(r+i)} and Atilde_{r,i} with Atilde_{r,-i}, so the
    larger i is returned.  A miss means a bug, reported as Unclassifiable.
    """
    x = system.surface
    p, q, r = hirzebruch_pq(x)
    s = q - (r // 2) * p if r % 2 == 0 else None

    def decompose(c: DivisorClass) -> tuple[int, int]:
        # c = alpha P + beta Q with beta = c.P, alpha = c.Q - r c.P
        beta = c.dot(p)
        alpha = c.dot(q) - r * beta
        if c != alpha * p + beta * q:
            raise InternalInconsistency(f"{c} is not {alpha} P + {beta} Q")
        return alpha, beta

    for image in system.symmetry_images():
        b = image.entries
        if b[0] == p and b[2] == p:
            alpha, beta = decompose(b[1])
            if beta == 1 and b[3] == -(r + alpha) * p + q:
                return HirzebruchSystemClass("A", r, max(alpha, -(r + alpha)))
    if s is not None:
        for image in system.symmetry_images():
            b = image.entries
            if b[0] == s and b[2] == s:
                # b[1] = gamma P + delta S with delta = b1.P, gamma = b1.S
                delta = b[1].dot(p)
                gamma = b[1].dot(s)
                if gamma == 1 and b[1] == p + delta * s and b[3] == p - delta * s:
                    return HirzebruchSystemClass("Atilde", r, abs(delta))
    raise Unclassifiable(f"no Hirzebruch label matches {system}")
