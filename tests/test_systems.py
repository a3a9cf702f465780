import random
from operator import add, mul

import pytest

from torsys import InternalInconsistency, from_selfints
from torsys.surface import _divisor_pairings
from torsys.systems import (
    BadCanonicalSum,
    BadIntersection,
    BadLength,
    LineBundleSequence,
    NotDeaugmentable,
    ToricSystem,
    _augment_at_ray,
    associated_surface,
    augment,
    classify_hirzebruch,
    deaugment,
    from_sequence,
    hirzebruch_pq,
    hirzebruch_system,
    is_exceptional,
    standard_system,
    to_sequence,
)

import rank5


def test_standard_system_is_valid():
    for selfints in [(1, 1, 1), (2, 0, -2, 0), rank5.SELFINTS]:
        x = from_selfints(selfints)
        s = standard_system(x)
        assert len(s) == x.k0_rank
        assert s.squares() == x.selfints


def test_validate_errors():
    f1 = from_selfints((1, 0, -1, 0))
    with pytest.raises(BadLength):
        ToricSystem.validate(f1, [f1.divisor(0), f1.divisor(1), f1.divisor(2)])
    # break an intersection: swap two entries of the standard system
    d = [f1.divisor(i) for i in range(4)]
    with pytest.raises(BadIntersection):
        ToricSystem.validate(f1, [d[0], d[2], d[1], d[3]])
    # break the canonical sum, keeping the intersection pattern
    p2 = from_selfints((1, 1, 1))
    line = p2.divisor(0)
    with pytest.raises(BadCanonicalSum):
        ToricSystem.validate(p2, [-1 * line, -1 * line, -1 * line])
    with pytest.raises(BadIntersection):
        ToricSystem.validate(p2, [line, line, 2 * line])


def _reference_check_axioms(x, coeffs):
    """An independent copy of the validation body: every A_i . A_j by the
    intersection formula on the coefficient tuples as given."""
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


def test_validation_interns_nothing():
    # _check_axioms is a pure check: validation, augmentation, the sequence
    # round trip and every witness or certificate replay leave the class
    # tables empty; only a kernel call enters them, through _entry_ids, and
    # the first one interns the input's n entries first
    from torsys.classify import certify_full, is_constructible
    from torsys.schema import replay_certificate
    from torsys.systems import _class_tables, _ClassTable, _clear_class_tables

    x = rank5.surface()
    d = [x.divisor(i) for i in range(x.n)]
    witness = is_constructible(standard_system(x))
    seq = rank5.printed_sequence()
    cert = certify_full(seq, max_depth=1)
    assert witness is not None and cert.verdict == "full"
    _clear_class_tables()
    for entries, error in (
        ([d[1], d[0]] + d[2:], BadIntersection),
        ([-1 * a for a in d], BadCanonicalSum),
    ):
        with pytest.raises(error):
            ToricSystem.validate(x, entries)
    s = ToricSystem.validate(x, d)
    assert standard_system(x) == s
    assert from_sequence(to_sequence(s)) == s
    augment(s, 0, 0)
    hirzebruch_system("A", 2, 1)
    assert witness.replay() == s
    replay_certificate(seq, cert)
    assert _ClassTable.entries == 0
    assert all(t.classes == [] for t in _class_tables.values())
    assert is_exceptional(s)
    table = _class_tables[x.selfints]
    assert table.classes[: x.n] == [a.reduced() for a in s.entries]


def _axioms_outcome(check, x, coeffs):
    """None, or the type, message and (i, j, value) of the error raised."""
    try:
        check(x, coeffs)
    except (BadLength, BadIntersection, BadCanonicalSum) as exc:
        where = (exc.i, exc.j, exc.value) if isinstance(exc, BadIntersection) else None
        return type(exc), str(exc), where
    return None


def _axiom_perturbations(x, coeffs, rng):
    """Seeded perturbations of a system's coefficient tuples, every entry
    shifted by a random relation, so that most tuples are not reduced: the
    system itself, two entries swapped, one coefficient bumped, the negated system
    (every pairing kept, the sum is K), an entry dropped and one added."""

    def shift(c):
        m = (rng.randint(-3, 3), rng.randint(-3, 3))
        return tuple(map(add, c, x.relation_vector(m)))

    n = len(coeffs)
    yield tuple(map(shift, coeffs))
    i, j = rng.sample(range(n), 2)
    swapped = list(coeffs)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    yield tuple(map(shift, swapped))
    bumped = list(map(shift, coeffs))
    k, at = rng.randrange(n), rng.randrange(n)
    bumped[k] = bumped[k][:at] + (bumped[k][at] + rng.choice((-1, 1)),) + bumped[k][at + 1 :]
    yield tuple(bumped)
    yield tuple(tuple(-a for a in shift(c)) for c in coeffs)
    yield tuple(map(shift, coeffs[:-1]))
    yield tuple(map(shift, coeffs + coeffs[:1]))


@pytest.mark.parametrize(
    "selfints,step", [(rank5.SELFINTS, 1), ((-2, -1, -2, -1, -2, -1, -2, -1), 16)], ids=["rank5", "rank6"]
)
def test_table_validation_equals_the_formula_reference(selfints, step):
    # on seeded perturbations of orbit systems, _check_axioms raises what an
    # independent copy of the formula body raises, with the same
    # (i, j, value), and passes what it passes; it reaches no class table,
    # so the tables stay empty
    from collections import Counter

    from torsys.isometry import weyl_orbit
    from torsys.systems import _check_axioms, _ClassTable, _clear_class_tables

    x = from_selfints(selfints)
    systems = weyl_orbit(x)[::step]
    kinds = Counter()
    _clear_class_tables()
    rng = random.Random(2024)
    for s in systems:
        for coeffs in _axiom_perturbations(x, tuple(a.coeffs for a in s.entries), rng):
            want = _axioms_outcome(_reference_check_axioms, x, coeffs)
            assert _axioms_outcome(_check_axioms, x, coeffs) == want
            kinds[want and want[0]] += 1
    assert set(kinds) == {None, BadLength, BadIntersection, BadCanonicalSum}
    assert _ClassTable.entries == 0


def test_hirzebruch_systems_validate():
    for r in range(4):
        for i in range(-3, 4):
            hirzebruch_system("A", r, i)
            if r % 2 == 0:
                hirzebruch_system("Atilde", r, i)


def test_sequence_round_trip():
    x = rank5.surface()
    s = standard_system(x)
    seq = to_sequence(s)
    assert from_sequence(seq) == s
    assert to_sequence(from_sequence(seq)) == seq


def test_from_sequence_p2():
    p2 = from_selfints((1, 1, 1))
    line = p2.divisor(0)
    seq = LineBundleSequence.of([p2.zero_class(), line, 2 * line])
    s = from_sequence(seq)
    assert all(a == line for a in s.entries)


def test_from_sequence_and_certify_full_accept_a_plain_list():
    # a plain list of classes is normalized by LineBundleSequence.of first
    from torsys.classify import certify_full

    seq = rank5.printed_sequence()
    entries = [e + rank5.surface().divisor(3) for e in seq.entries]
    assert from_sequence(entries) == from_sequence(seq) == rank5.printed_system()
    cert, want = certify_full(entries, max_depth=1), certify_full(seq, max_depth=1)
    assert cert.verdict == "full"
    assert cert == want


def test_printed_system_matches_its_sequence():
    a = rank5.printed_system()
    assert to_sequence(a) == rank5.printed_sequence()
    assert from_sequence(rank5.printed_sequence()) == a


def test_associated_surface():
    x = rank5.surface()
    assert associated_surface(standard_system(x)).selfints == x.selfints
    for r in range(4):
        for i in range(-4, 5):
            a = hirzebruch_system("A", r, i)
            assert associated_surface(a) == from_selfints((abs(r + 2 * i), 0, -abs(r + 2 * i), 0))
            if r % 2 == 0:
                at = hirzebruch_system("Atilde", r, i)
                assert associated_surface(at) == from_selfints((abs(2 * i), 0, -abs(2 * i), 0))


def test_associated_surface_of_unvalidated_system():
    # the unchecked constructor can hold squares that close no fan
    p2 = from_selfints((1, 1, 1))
    bogus = ToricSystem(p2, (p2.zero_class(),) * 3)
    with pytest.raises(InternalInconsistency):
        associated_surface(bogus)


def test_rotate_mirror():
    x = rank5.surface()
    s = standard_system(x)
    assert s.rotate(len(s)) == s
    assert s.mirror().mirror() == s
    for k in range(len(s)):
        r = s.rotate(k)
        # still a valid toric system
        ToricSystem.validate(x, r.entries)
        assert associated_surface(r).normalized == associated_surface(s).normalized


def test_rotate_mirror_preserve_exceptionality():
    a = rank5.printed_system()
    assert is_exceptional(a)
    for k in range(len(a)):
        assert is_exceptional(a.rotate(k))
    assert is_exceptional(a.mirror())
    # and on a sample of the orbit, including non-exceptional members
    from torsys.isometry import orbit, weyl_group

    x = rank5.surface()
    systems = orbit(standard_system(x), weyl_group(x))
    rng = random.Random(6)
    for _ in range(12):
        s = systems[rng.randrange(len(systems))]
        flag = is_exceptional(s)
        k = rng.randrange(1, len(s))
        assert is_exceptional(s.rotate(k)) == flag
        assert is_exceptional(s.mirror()) == flag


def test_augment_p2():
    p2 = from_selfints((1, 1, 1))
    line = p2.divisor(0)
    s = ToricSystem.validate(p2, [line, line, line])
    for p in range(3):
        out = augment(s, p, 1)
        assert len(out) == 4
        assert out.squares() == (0, -1, 0, 1)
        assert associated_surface(out) == from_selfints((1, 0, -1, 0))
        r = out.surface.divisor(out.surface.selfints.index(-1))
        assert out.entries[1] == r


def test_augment_deaugment_round_trip():
    rng = random.Random(2)
    for selfints in [(1, 1, 1), (1, 0, -1, 0), (-1, -1, -1, 0, 0)]:
        x = from_selfints(selfints)
        s = standard_system(x)
        for _ in range(10):
            p = rng.randrange(x.n)
            j = rng.randrange(x.n + 1)
            big = augment(s, p, j)
            # the inserted ray sits at index p + 1 by construction
            sub, r = deaugment(big, j, p + 1)
            assert sub == s
            assert r == big.surface.divisor(p + 1)


def test_deaugment_standard_system():
    x = rank5.surface()
    s = standard_system(x)
    for ray in x.contractible_rays():
        sub, _ = deaugment(s, ray, ray)
        assert sub == standard_system(sub.surface)


def test_deaugment_images_are_valid_and_invert_augmentation():
    # deaugment builds its image unchecked; the axioms must still hold, and
    # augmenting back along the same ray and position restores the input
    from torsys.isometry import orbit, weyl_group

    deaugmented = 0
    for selfints in [(-1, -1, -1, -1, -1, -1), rank5.SELFINTS]:
        x = from_selfints(selfints)
        for s in orbit(standard_system(x), weyl_group(x)):
            for ray in x.contractible_rays():
                for position, entry in enumerate(s.entries):
                    if entry != x.divisor(ray):
                        continue
                    sub, _ = deaugment(s, position, ray)
                    ToricSystem.validate(sub.surface, sub.entries)
                    assert _augment_at_ray(sub, ray, position) == s
                    deaugmented += 1
    assert deaugmented == 72 + 300


def _reference_deaugment(system, position, ray):
    """deaugment as it ran on DivisorClass objects: the neighbours absorb R
    by class addition and every merged entry is pushed down, here by the
    dot-product-and-xgcd reference of tests/test_surface.py, which shares no
    code with pushdown."""
    from test_surface import _reference_pushdown

    x = system.surface
    r = x.divisor(ray)
    n = len(system.entries)
    merged = list(system.entries)
    for j in ((position - 1) % n, (position + 1) % n):
        merged[j] = merged[j] + r
    del merged[position]
    rel = x.blow_down(ray)
    below = rel.below
    return ToricSystem(
        below, tuple(below.divisor_class(_reference_pushdown(rel, a)) for a in merged)
    )


def test_deaugment_equals_the_object_reference_coefficient_by_coefficient():
    # on the orbit systems (reduced coefficients) and on their round trips
    # through to_sequence / from_sequence (a last entry that is not reduced)
    from torsys.isometry import weyl_orbit

    counts = {}
    for selfints in [(-1, -1, -1, -1, -1, -1), rank5.SELFINTS, (-2, -1, -2, -1, -2, -1, -2, -1)]:
        x = from_selfints(selfints)
        checked = shifted = 0
        for s in weyl_orbit(x):
            for system in (s, from_sequence(to_sequence(s))):
                for ray in x.contractible_rays():
                    for position, entry in enumerate(system.entries):
                        if entry != x.divisor(ray):
                            continue
                        got, r = deaugment(system, position, ray)
                        want = _reference_deaugment(system, position, ray)
                        assert r == x.divisor(ray)
                        assert got.surface.selfints == want.surface.selfints
                        assert [a.coeffs for a in got.entries] == [
                            a.coeffs for a in want.entries
                        ]
                        checked += 1
                        shifted += any(a.coeffs[ray] for a in system.entries)
        counts[x.pic_rank] = checked
        assert shifted > 0  # the relation shift of pushdown was exercised
    assert counts == {4: 2 * 72, 5: 2 * 300, 6: 2 * 1920}


def _reference_drop_exceptional(rel, c):
    """The pushdown formula as it ran before it took the exceptional
    coefficient as an argument, coordinate by coordinate: c shifted by c[e]
    full-length unit relations, so that coefficient e vanishes, and then
    coordinate e deleted.  The unit relation comes from the xgcd reference
    of tests/test_surface.py."""
    from test_surface import _reference_xgcd

    e = rel.ray_index
    vx, vy = rel.above.rays[e]
    _, p, q = _reference_xgcd(vx, vy)
    unit = rel.above.relation_vector((p, q))
    t = c[e]
    if t:
        c = tuple(ci - t * ri for ci, ri in zip(c, unit))
    return c[:e] + c[e + 1 :]


@pytest.mark.parametrize(
    "selfints",
    [(-1,) * 6, rank5.SELFINTS, (-2, -1, -2, -1, -2, -1, -2, -1)],
    ids=["rank4", "rank5", "rank6"],
)
def test_one_pushdown_formula_equals_the_per_coordinate_reference(selfints):
    # _deaugment_coeffs and pushdown share one pushdown formula, which takes
    # the exceptional coefficient t as an argument.  On orbit systems whose
    # entries are shifted by seeded relations, so that they are not reduced
    # (like certify_full's last entry and its twisted entries), both match
    # the per-coordinate reference exactly, on the two entries that absorb
    # D_ray and on the others; pushdown still refuses a class off E-perp
    from collections import Counter

    from torsys.isometry import weyl_orbit
    from torsys.surface import DivisorClass
    from torsys.systems import _deaugment_coeffs

    x = from_selfints(selfints)
    n = x.n
    rng = random.Random(1729)

    def shift(c):
        m = (rng.randint(-3, 3), rng.randint(-3, 3))
        return tuple(map(add, c, x.relation_vector(m)))

    kinds = Counter()
    for s in weyl_orbit(x):
        coeffs = tuple(shift(a.coeffs) for a in s.entries)
        for ray in x.contractible_rays():
            rel = x.blow_down(ray)
            r = x.divisor(ray)
            for position, entry in enumerate(s.entries):
                if entry != r:
                    continue
                absorbing = ((position - 1) % n, (position + 1) % n)
                want = []
                for j, c in enumerate(coeffs):
                    if j == position:
                        continue
                    if j in absorbing:
                        c = c[:ray] + (c[ray] + 1,) + c[ray + 1 :]
                    want.append(_reference_drop_exceptional(rel, c))
                    assert rel.pushdown(DivisorClass(x, c)).coeffs == want[-1]
                    with pytest.raises(ValueError):
                        rel.pushdown(DivisorClass(x, c) + r)  # meets E in -1
                    kinds[j in absorbing, c[ray] != 0] += 1
                assert _deaugment_coeffs(x, coeffs, position, ray) == (rel.below, tuple(want))
    assert set(kinds) == {(a, t) for a in (False, True) for t in (False, True)}


def test_deaugment_errors():
    x = rank5.surface()
    s = standard_system(x)
    with pytest.raises(NotDeaugmentable):
        deaugment(s, 0, 0)  # ray 0 has self-intersection -2
    with pytest.raises(NotDeaugmentable):
        deaugment(s, 2, 1)  # entry 2 is not the class of ray 1


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: augment(standard_system(rank5.surface()), 0, 8), ValueError,
         "insert position 8 out of range"),
        (lambda: augment(standard_system(rank5.surface()), 0, -1), ValueError,
         "insert position -1 out of range"),
        (lambda: hirzebruch_system("Atilde", 1, 0), ValueError, "Atilde systems need even r"),
        (lambda: hirzebruch_system("B", 0, 0), ValueError, "unknown kind 'B'"),
        (lambda: hirzebruch_pq(rank5.surface()), BadLength,
         "TV(-2, -1, -1, -1, -1, -2, -1) is not a Hirzebruch surface"),
        (lambda: LineBundleSequence.of([]), BadLength, "empty sequence"),
    ],
    ids=["augment-high", "augment-low", "atilde-odd-r", "unknown-kind", "pq-not-4-rays",
         "empty-sequence"],
)
def test_system_arguments_are_rejected(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


def test_is_exceptional_examples():
    p2 = from_selfints((1, 1, 1))
    line = p2.divisor(0)
    assert is_exceptional(ToricSystem.validate(p2, [line, line, line]))
    for r in range(4):
        for i in range(-4, 5):
            assert is_exceptional(hirzebruch_system("A", r, i))
    assert is_exceptional(hirzebruch_system("Atilde", 0, 3))
    assert is_exceptional(hirzebruch_system("Atilde", 2, 0))
    assert not is_exceptional(hirzebruch_system("Atilde", 2, 1))
    assert not is_exceptional(hirzebruch_system("Atilde", 4, -2))


def _is_exceptional_reference(system):
    """The object-sum loop is_exceptional used before it moved to reduced
    prefix sums: each segment sum is built from DivisorClass objects."""
    from torsys.cohomology import vanishes_totally

    entries = system.entries
    n = len(entries)
    for i in range(n - 1):
        seg = entries[i]
        for j in range(i, n - 1):
            if j > i:
                seg = seg + entries[j]
            if not vanishes_totally(-seg):
                return False
    return True


def _hirzebruch_examples():
    p2 = from_selfints((1, 1, 1))
    line = p2.divisor(0)
    yield ToricSystem.validate(p2, [line, line, line])
    for r in range(4):
        for i in range(-4, 5):
            yield hirzebruch_system("A", r, i)
    for r, i in ((0, 3), (2, 0), (2, 1), (4, -2)):
        yield hirzebruch_system("Atilde", r, i)


def test_is_exceptional_matches_object_sum_reference():
    from torsys.isometry import orbit, weyl_group

    flags = [is_exceptional(s) for s in _hirzebruch_examples()]
    assert flags == [_is_exceptional_reference(s) for s in _hirzebruch_examples()]
    assert flags.count(False) == 2
    # every orbit system at ranks 4, 5 and 6, exceptional or not
    exceptional = {}
    for selfints in [(-1, -1, -1, -1, -1, -1), rank5.SELFINTS, (-2, -1, -2, -1, -2, -1, -2, -1)]:
        x = from_selfints(selfints)
        systems = orbit(standard_system(x), weyl_group(x))
        flags = [is_exceptional(s) for s in systems]
        assert flags == [_is_exceptional_reference(s) for s in systems]
        exceptional[x.pic_rank] = (flags.count(True), len(flags))
    assert exceptional == {4: (12, 12), 5: (98, 120), 6: (1416, 1920)}
    # every de-augmentation of the rank-5 orbit
    x = rank5.surface()
    subs = [
        deaugment(s, position, ray)[0]
        for s in orbit(standard_system(x), weyl_group(x))
        for ray in x.contractible_rays()
        for position, entry in enumerate(s.entries)
        if entry == x.divisor(ray)
    ]
    flags = [is_exceptional(s) for s in subs]
    assert flags == [_is_exceptional_reference(s) for s in subs]
    assert len(subs) == 300


def _reference_is_exceptional(system):
    """The tuple body is_exceptional ran before its class tables: partial
    sums S_0 = 0, S_k = A_1 + ... + A_k (k < n) of the reduced entries, and
    -(A_i + ... + A_j) = S_{i-1} - S_j tested by vanishes_totally, i
    ascending, then j ascending."""
    from operator import add, sub

    from torsys.cohomology import vanishes_totally

    x = system.surface
    sums = [(0,) * x.n]
    for a in system.entries[:-1]:
        sums.append(tuple(map(add, sums[-1], a.reduced())))
    for i, start in enumerate(sums[:-1]):
        for end in sums[i + 1 :]:
            if not vanishes_totally(x.divisor_class(tuple(map(sub, start, end)))):
                return False
    return True


@pytest.mark.parametrize(
    "selfints", [rank5.SELFINTS, (-2, -1, -2, -1, -2, -1, -2, -1)], ids=["rank5", "rank6"]
)
def test_exceptionality_table_kernel_equals_the_tuple_reference(selfints):
    # every orbit system from cold class tables, then each system's rotation
    # by one, whose id tuple and segment sums are new; both verdicts occur
    from torsys.isometry import weyl_orbit
    from torsys.systems import _clear_class_tables

    x = from_selfints(selfints)
    _clear_class_tables()
    systems = weyl_orbit(x)
    flags = [is_exceptional(s) for s in systems]
    assert flags == [_reference_is_exceptional(s) for s in systems]
    assert (flags.count(True), len(flags)) == {7: (98, 120), 8: (1416, 1920)}[x.n]
    rotated = [s.rotate(1) for s in systems]
    rotated_flags = [is_exceptional(s) for s in rotated]
    assert rotated_flags == [_reference_is_exceptional(s) for s in rotated]
    # a rotation is a shift along the helix, which keeps the verdict
    assert rotated_flags == flags


_UNCHECKED_IMAGES_SCRIPT = r"""
import sys

from itertools import accumulate

from torsys import from_selfints
from torsys.classify import TwistApplication, _twisted_coeffs
from torsys.isometry import orbit, weyl_group, weyl_orbit
from torsys.systems import (
    BadIntersection, ToricSystem, _entry_ids, deaugment, from_sequence, standard_system,
    to_sequence,
)
from torsys.twist import NotALineBundle, TwistByCurve, minus_two_rays, twist_sequence

if not sys.flags.optimize:
    sys.exit("run me under python -O")
x = from_selfints((-2, -1, -2, -1, -2, -1, -2, -1))
images = deaugmented = twisted = reflected = 0
for s in orbit(standard_system(x), weyl_group(x))[::48]:
    ToricSystem.validate(x, s.entries)
    images += 1
    for ray in x.contractible_rays():
        for position, entry in enumerate(s.entries):
            if entry == x.divisor(ray):
                sub, _ = deaugment(s, position, ray)
                ToricSystem.validate(sub.surface, sub.entries)
                deaugmented += 1
    table, ids = _entry_ids(x, (a.reduced() for a in s.entries))
    for ray in minus_two_rays(x):
        # the system twist of certify_full: cases from the reflection memo,
        # the image's classes from its ids and its coefficients rebuilt
        pairing, image = table.reflection(x.divisor(ray).reduced())
        cases = tuple(accumulate((pairing[i] for i in ids[:-1]), initial=0))
        if set(cases) <= {0, 1}:
            ToricSystem.validate(x, [x.divisor_class(table.classes[image[i]]) for i in ids])
            twists = (TwistApplication(ray, cases),)
            coeffs = _twisted_coeffs(tuple(a.coeffs for a in s.entries), twists)
            ToricSystem.validate(x, [x.divisor_class(c) for c in coeffs])
            reflected += 1
        try:
            out = twist_sequence(TwistByCurve(x, ray), to_sequence(s))
        except NotALineBundle:
            continue
        from_sequence(out)  # validates
        twisted += 1
orbit_images = 0
for image in weyl_orbit(x)[::48]:
    ToricSystem.validate(x, image.entries)
    orbit_images += 1
print(images, deaugmented, twisted, reflected, orbit_images)
# the checks themselves survive -O: swapping two entries breaks the pattern
e = s.entries
try:
    ToricSystem.validate(x, (e[1], e[0]) + e[2:])
    print("accepted")
except BadIntersection:
    print("rejected")
"""


def test_unchecked_images_validate_under_optimize():
    # orbit images (under the matrix group and from weyl_orbit),
    # de-augmentations and twisted systems (the system twists of
    # certify_full, on class ids and as rebuilt coefficients, and twisted
    # sequences) are built without validate;
    # under python -O a fixed rank-6 sample must still pass it
    import os
    import pathlib
    import subprocess
    import sys

    import torsys

    src = str(pathlib.Path(torsys.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _UNCHECKED_IMAGES_SCRIPT],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    counts, verdict = proc.stdout.split("\n")[:2]
    assert counts == "40 38 75 75 40"
    assert verdict == "rejected"


def test_classify_hirzebruch():
    c = classify_hirzebruch(hirzebruch_system("A", 3, 0))
    assert (c.kind, c.r, c.i) == ("A", 3, 0)
    # the overlap case: Atilde_{2,0} is a rotation of A_{2,-1}
    c = classify_hirzebruch(hirzebruch_system("Atilde", 2, 0))
    assert (c.kind, c.r, c.i) == ("A", 2, -1)
    c = classify_hirzebruch(hirzebruch_system("Atilde", 2, 2))
    assert (c.kind, c.r, c.i) == ("Atilde", 2, 2)
    # classification is orbit-level
    for k in range(4):
        a = hirzebruch_system("A", 3, 2)
        c1 = classify_hirzebruch(a.rotate(k))
        c2 = classify_hirzebruch(a.mirror().rotate(k))
        assert (c1.kind, c1.r, c1.i) == ("A", 3, 2)
        assert (c2.kind, c2.r, c2.i) == ("A", 3, 2)


def test_augmentation_preserves_exceptionality_seeded():
    # seeded mix of exceptional and non-exceptional systems
    rng = random.Random(4)
    from torsys.isometry import weyl_group, orbit

    pool = []
    for selfints in [(-1, -1, -1, 0, 0), (-2, -1, -2, -1, 0, 0)]:
        x = from_selfints(selfints)
        pool.extend(orbit(standard_system(x), weyl_group(x)))
    checked = 0
    for _ in range(60):
        s = pool[rng.randrange(len(pool))]
        p = rng.randrange(s.surface.n)
        j = rng.randrange(s.surface.n + 1)
        big = augment(s, p, j)
        assert is_exceptional(big) == is_exceptional(s)
        checked += 1
    assert checked == 60
