"""Constructibility and fullness certification for exceptional toric systems.

A system is constructible when some chain of de-augmentations lands on an
exceptional toric system on a Hirzebruch surface; constructible systems are
automatically full.  Non-constructible ones are attacked with a bounded
breadth-first search over spherical twists at invariant (-2)-curves: if some
twisted image is constructible, the original sequence is full as well, and the
certificate records the twists plus a replayable de-augmentation witness.

Every search, from :func:`is_constructible`, :func:`certify_full` and
:func:`orbit_report`, runs through one kernel, :func:`_path`, on the class
ids of the per-surface table (``_ClassTable`` in systems.py), which keeps
the answers of the kernel and of the exceptionality test, so a census tests
and searches each Weyl-orbit system once (twists are root reflections, so
twisted images stay in the orbit).  Each public call interns its input once,
through ``_entry_ids``; validation (``_check_axioms``) interns nothing.  The
kernel's answers hold its :class:`DeaugmentationStep` records, one object
per (surface, ray, position) of a table, so the witnesses of a census share
them: a rank-6 census refers to 5,664 steps and holds 354.
:func:`_witness` checks every step on the caller's own coefficient tuples,
carries the de-augmentations out on them, and hands the answer's step tuple
to the witness, whose base system is the caller's; so a witness reads the
same whether the kernel computed its steps or recalled them.  Every
de-augmentation runs through one pure body,
``_deaugment_coeffs`` in systems.py.  The twist search of
:func:`certify_full` runs on class ids too: a twist at a (-2)-curve is a
root reflection, looked up in the memo the Weyl closure uses
(``_ClassTable.reflection``), so classes and systems are built only for
what a caller receives.
"""

from __future__ import annotations

import functools
from itertools import accumulate
from operator import sub

from .isometry import RankOutOfRange, weyl_orbit
from .surface import (
    DivisorClass,
    FanAutomorphism,
    InternalInconsistency,
    ToricSurface,
    _Record,
    _set,
)
from .systems import (
    HirzebruchSystemClass,
    LineBundleSequence,
    ToricSystem,
    _augment_at_ray,
    _check_axioms,
    _ClassTable,
    _deaugment_coeffs,
    _entry_ids,
    _is_exceptional_ids,
    _sequence_coeffs,
    _system_ids,
    classify_hirzebruch,
    to_sequence,
)
from .twist import minus_two_rays


class NotExceptionalInput(ValueError):
    """The operation is only defined for exceptional systems / sequences."""


class InvalidWitness(ValueError):
    """A constructibility witness or a fullness certificate does not replay
    to what it claims."""


class DeaugmentationStep(_Record):
    """One reversed augmentation: on ``surface``, the entry at ``position``
    equals the class of the contractible ray ``ray``."""

    __slots__ = ("surface", "ray", "position")

    def __init__(self, surface: ToricSurface, ray: int, position: int):
        _set(self, "surface", surface)
        _set(self, "ray", ray)
        _set(self, "position", position)

    @property
    def exceptional(self) -> DivisorClass:
        return self.surface.divisor(self.ray)


class ConstructibilityWitness(_Record):
    """Machine-checkable witness: de-augmentation steps from the input system
    down to an exceptional Hirzebruch base system.  Replaying the augmentations
    in reverse reproduces the input exactly."""

    __slots__ = ("base_system", "base_class", "steps")

    def __init__(
        self,
        base_system: ToricSystem,
        base_class: HirzebruchSystemClass,
        steps: tuple[DeaugmentationStep, ...],
    ):
        _set(self, "base_system", base_system)
        _set(self, "base_class", base_class)
        _set(self, "steps", steps)

    def replay(self) -> ToricSystem:
        system = self.base_system
        for step in reversed(self.steps):
            system = _augment_at_ray(system, step.ray, step.position)
            if system.surface.selfints != step.surface.selfints:
                raise InvalidWitness(
                    f"step lands on {system.surface}, but records {step.surface}"
                )
        return system


class TwistApplication(_Record):
    """A twist at one (-2)-ray together with the per-entry case record."""

    __slots__ = ("curve_ray", "cases")

    def __init__(self, curve_ray: int, cases: tuple[int, ...]):
        _set(self, "curve_ray", curve_ray)
        _set(self, "cases", cases)

    @property
    def applied_positions(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.cases) if c == 1)


class FullnessCertificate(_Record):
    """Fullness verdict for a bundle sequence.

    verdict "full": ``twists`` applied in order map the sequence to one whose
    toric system carries ``witness``; empty twists means directly
    constructible.  verdict "unknown" is an honest miss of the bounded search,
    with the search limits recorded in ``notes``.
    """

    __slots__ = ("verdict", "twists", "witness", "final_sequence", "notes")

    def __init__(
        self,
        verdict: str,
        twists: tuple[TwistApplication, ...],
        witness: ConstructibilityWitness | None,
        final_sequence: LineBundleSequence | None,
        notes: tuple[str, ...] = (),
    ):
        _set(self, "verdict", verdict)
        _set(self, "twists", twists)
        _set(self, "witness", witness)
        _set(self, "final_sequence", final_sequence)
        _set(self, "notes", notes)


def is_constructible(system: ToricSystem) -> ConstructibilityWitness | None:
    """Search all de-augmentation chains for a witness; None when none exists.

    The input must be exceptional.  At every level, each contractible ray i
    whose class [D_i] occurs as an entry is tried (rays ascending, positions
    ascending, first witness wins); the recursion bottoms out on Hirzebruch
    surfaces, where the label classification decides.
    """
    table, ids = _system_ids(system)
    if not _is_exceptional_ids(table, ids):
        raise NotExceptionalInput("constructibility is defined for exceptional systems")
    found = _path(table, ids)
    if found is None:
        return None
    return _witness(system.surface, tuple(a.coeffs for a in system.entries), found)


_UNSEARCHED = object()


def _path(table: _ClassTable, ids: tuple[int, ...]) -> tuple | None:
    """The de-augmentation search on the class ids ``ids`` of the entries of
    a system on the surface of ``table``: None, or the steps, a tuple of
    :class:`DeaugmentationStep` from the system down to a Hirzebruch
    surface, together with the label of the system reached there.  A step
    is made once per (ray, position) of a table and kept in its ``steps``,
    so answers that share a step share the object, and an answer's tail is
    the answer of the system one step down.

    Moves are tried depth first, rays ascending, then positions ascending,
    and the first success wins.  Every step is defined on classes: an entry
    matches a ray when its id is the id of D_ray, :func:`_deaugment_coeffs`
    maps classes to classes (its output is reduced and interned in the
    table below), and exceptionality and the label depend on classes only.
    So the answer is a function of the arguments, and the table's memo of
    it (dropped with the tables, see ``CLASS_TABLE_CAP``) changes no answer.

    The entry at a de-augmented position goes; every other entry is pushed
    down, as a function of its class and of whether it absorbs D_ray.  The
    table's pushdown memo for the ray keeps those ids below; when an entry
    misses it, the whole system goes through :func:`_deaugment_coeffs`, the
    one body, which checks c.E = 0 on every entry, and the ids of its
    output fill the memo.  So every class in the memo passed that check,
    and the memo holds the body's output alone.  Each de-augmented system
    must be exceptional and on a Hirzebruch surface the label must agree
    with exceptionality; a miss raises InternalInconsistency before the
    search stores an answer.  The caller checks that the input is
    exceptional.
    """
    found = table.paths.get(ids, _UNSEARCHED)
    if found is not _UNSEARCHED:
        table.paths_hits += 1
        return found
    table.paths_misses += 1
    x = table.surface
    n = x.n
    if n == 4:
        system = ToricSystem(x, tuple(DivisorClass(x, table.classes[i]) for i in ids))
        label = classify_hirzebruch(system)
        exceptional = label.is_exceptional_class()
        if exceptional != _is_exceptional_ids(table, ids):
            raise InternalInconsistency(
                f"Hirzebruch label {label.kind}_({label.r},{label.i}) disagrees "
                "with the cohomological exceptionality test"
            )
        return table.remember(table.paths, ids, ((), label) if exceptional else None)
    if n < 4:
        # no Hirzebruch surface below the minimal ones
        return table.remember(table.paths, ids, None)
    for ray, r, sub_table, pushed in table.contractible:
        for position, entry in enumerate(ids):
            if entry != r:
                continue
            absorbing = ((position - 1) % n, (position + 1) % n)
            keys = tuple(
                2 * e + (j in absorbing) for j, e in enumerate(ids) if j != position
            )
            sub_ids = tuple(map(pushed.get, keys))
            if None in sub_ids:
                below, sub = _deaugment_coeffs(
                    x, tuple(table.classes[i] for i in ids), position, ray
                )
                sub_ids = tuple(sub_table.intern(below.reduce_coeffs(c)) for c in sub)
                table.remember_all(pushed, zip(keys, sub_ids))
            if not _is_exceptional_ids(sub_table, sub_ids):
                raise InternalInconsistency(
                    "de-augmentation of an exceptional system went non-exceptional"
                )
            found = _path(sub_table, sub_ids)
            if found is not None:
                steps, label = found
                step = table.steps.get((ray, position))
                if step is None:
                    step = table.steps[ray, position] = DeaugmentationStep(x, ray, position)
                return table.remember(table.paths, ids, ((step,) + steps, label))
    return table.remember(table.paths, ids, None)


def _witness(x: ToricSurface, coeffs: tuple, found: tuple) -> ConstructibilityWitness:
    """The witness of the kernel's answer ``found`` for the system on ``x``
    with entry coefficients ``coeffs``: its steps are replayed on those
    tuples through :func:`_deaugment_coeffs`, the body of the public
    :func:`deaugment`, which is the exact inverse of the augmentation that
    :meth:`ConstructibilityWitness.replay` applies, and the witness holds
    the answer's own step tuple.  The base system's classes are built once,
    at the end.

    The steps are a function of the classes of the entries (see
    :func:`_path`), and each is carried out on the input's own
    coefficients.  So the witness, down to the coefficients of its base
    system, is a function of the input alone, the same whether :func:`_path`
    computes the steps or recalls them.  It is also the witness of a
    depth-first search over ``ToricSystem`` objects with a memo of its own
    call: a success returns straight to the top, so that search never reads
    a memoised witness.  tests/test_classify.py keeps such a search as the
    reference.  Each step must lie on the surface the chain has reached and
    name a contractible ray whose class is the entry at its position, and
    each pushed-down entry must be orthogonal to the exceptional class; any
    miss raises InternalInconsistency.
    """
    steps, label = found
    for step in steps:
        ray, position = step.ray, step.position
        if (
            step.surface.selfints != x.selfints
            or x.selfints[ray] != -1
            or x.reduce_coeffs(coeffs[position]) != x.divisor(ray).reduced()
        ):
            raise InternalInconsistency(
                f"the search's step {step!r} does not reverse an augmentation on {x}"
            )
        x, coeffs = _deaugment_coeffs(x, coeffs, position, ray)
    base = ToricSystem(x, tuple(DivisorClass(x, c) for c in coeffs))
    return ConstructibilityWitness(base, label, steps)


def certify_full(seq: LineBundleSequence, max_depth: int = 3) -> FullnessCertificate:
    """Certify fullness of an exceptional bundle sequence.

    Directly constructible sequences certify with no twists.  Otherwise a
    breadth-first search composes up to ``max_depth`` twists at invariant
    (-2)-rays (skipping compositions that leave the line-bundle world) and
    certifies on the first constructible image.  A miss returns "unknown";
    its last note names the stop: "depth cap reached" when sequences at depth
    ``max_depth`` were left untwisted, or "twist closure exhausted at depth
    d" when no twist gives a new sequence beyond depth d, so the search ends
    there whatever ``max_depth`` is.
    The input becomes the coefficient tuples of ``from_sequence``, which
    ``_check_axioms`` validates once before ``_entry_ids`` interns them.
    The search runs on class ids alone: the twist at C = D_ray is the
    reflection A_i -> A_i + (C.A_i) C at the root C, looked up in
    ``_ClassTable.reflection``, so the image is a toric system by
    construction; its cases (0, C.A_1, C.A_1 + C.A_2, ...), the C.E_i of
    :func:`to_sequence`, must all be 0 or 1.  The certified image's
    coefficients are rebuilt once, by :func:`_twisted_coeffs`, and must
    intern to the searched ids; only that image becomes a ``ToricSystem``.
    Certificates replay against ``torsys.twist.twist_sequence``.
    """
    x, coeffs = _sequence_coeffs(seq)
    _check_axioms(x, coeffs)
    table, ids = _entry_ids(x, (x.reduce_coeffs(c) for c in coeffs))
    if not _is_exceptional_ids(table, ids):
        raise NotExceptionalInput("fullness certification needs an exceptional sequence")
    found = _path(table, ids)
    if found is not None:
        return FullnessCertificate("full", (), _witness(x, coeffs, found), seq)
    # per (-2)-ray: the ray, and the maps id -> C.A and id -> id of A + (C.A) C
    twists = [(ray, *table.reflection(x.divisor(ray).reduced())) for ray in minus_two_rays(x)]
    notes = (
        f"twist search depth <= {max_depth}",
        "forward twists at torus-invariant (-2)-curves only",
    )
    if x.n == 3:
        notes += (
            "constructibility is defined relative to Hirzebruch bases; the 3-ray surface has none",
        )
    # (class ids, twists) per system of the frontier
    frontier: list[tuple[tuple, tuple[TwistApplication, ...]]] = [(ids, ())]
    seen = {ids}
    depth = 0
    while frontier and depth < max_depth:
        depth += 1
        new_frontier = []
        for current, trail in frontier:
            for ray, pairing, image in twists:
                cases = tuple(accumulate(map(pairing.__getitem__, current[:-1]), initial=0))
                if any(k not in (0, 1) for k in cases):
                    continue
                ids = tuple(map(image.__getitem__, current))
                if ids in seen:
                    continue
                seen.add(ids)
                if not _is_exceptional_ids(table, ids):
                    raise InternalInconsistency(
                        "a twist of an exceptional sequence went non-exceptional"
                    )
                applied = trail + (TwistApplication(ray, cases),)
                found = _path(table, ids)
                if found is not None:
                    coeffs = _twisted_coeffs(coeffs, applied)
                    if tuple(table.ids.get(x.reduce_coeffs(c)) for c in coeffs) != ids:
                        raise InternalInconsistency("rebuilt twist coefficients miss the searched ids")
                    final = ToricSystem(x, tuple(DivisorClass(x, c) for c in coeffs))
                    return FullnessCertificate(
                        "full", applied, _witness(x, coeffs, found), to_sequence(final)
                    )
                new_frontier.append((ids, applied))
        frontier = new_frontier
    if frontier:
        notes += ("depth cap reached",)
    else:
        notes += (f"twist closure exhausted at depth {depth - 1}",)
    return FullnessCertificate("unknown", (), None, None, notes)


def _twisted_coeffs(coeffs: tuple, twists) -> tuple:
    """Entry coefficients ``coeffs`` moved by the :class:`TwistApplication`
    ``twists`` in order: entry i gains d_i = case_{i+1} - case_i at the ray
    of C, and d_n = -case_n as C.K = 0, as ``twist_sequence`` moves them."""
    for t in twists:
        r, dots = t.curve_ray, map(sub, t.cases[1:] + (0,), t.cases)
        coeffs = tuple(c[:r] + (c[r] + d,) + c[r + 1 :] for c, d in zip(coeffs, dots))
    return coeffs


class OrbitReport(_Record):
    """Classification of the Weyl orbit of the standard toric system."""

    __slots__ = (
        "surface",
        "total",
        "exceptional_count",
        "constructible_count",
        "nonconstructible",
        "automorphism_pairing",
    )

    def __init__(
        self,
        surface: ToricSurface,
        total: int,
        exceptional_count: int,
        constructible_count: int,
        nonconstructible: tuple[ToricSystem, ...],
        automorphism_pairing: tuple[tuple[int, int, FanAutomorphism], ...],
    ):
        _set(self, "surface", surface)
        _set(self, "total", total)
        _set(self, "exceptional_count", exceptional_count)
        _set(self, "constructible_count", constructible_count)
        _set(self, "nonconstructible", nonconstructible)
        _set(self, "automorphism_pairing", automorphism_pairing)


def orbit_report(x: ToricSurface) -> OrbitReport:
    """Classify every system of :func:`weyl_orbit`, the Weyl orbit of the
    standard system; non-constructible ones are paired up under fan
    automorphisms.  Each pair (i, j), i != j, records the first automorphism,
    in :meth:`fan_automorphisms` order, that maps system i to system j,
    listed by i, then j.  Each distinct entry class is mapped once per
    automorphism, and an image is looked up by its entries, never built as
    a system; the identity maps each system to itself and pairs nothing."""
    if not 3 <= x.pic_rank <= 6:
        raise RankOutOfRange(
            f"orbit reports support Picard rank 3..6, got {x.pic_rank}"
        )
    systems = weyl_orbit(x)
    exceptional, nonconstructible = 0, []
    for s in systems:
        table, ids = _system_ids(s)
        if _is_exceptional_ids(table, ids):
            exceptional += 1
            if _path(table, ids) is None:
                nonconstructible.append(s)
    index = {s.entries: j for j, s in enumerate(nonconstructible)}
    first: dict[tuple[int, int], FanAutomorphism] = {}
    for f in x.fan_automorphisms():
        image = functools.cache(f.apply)
        for i, s in enumerate(nonconstructible):
            j = index.get(tuple(map(image, s.entries)))
            if j is not None and j != i:
                first.setdefault((i, j), f)
    return OrbitReport(
        surface=x,
        total=len(systems),
        exceptional_count=exceptional,
        constructible_count=exceptional - len(nonconstructible),
        nonconstructible=tuple(nonconstructible),
        automorphism_pairing=tuple((i, j, first[i, j]) for i, j in sorted(first)),
    )
