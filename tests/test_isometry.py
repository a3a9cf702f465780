import random
from operator import mul

import pytest

from torsys import _intlinalg, from_selfints
from torsys.isometry import (
    Isometry,
    RankOutOfRange,
    all_k_isometries,
    orbit,
    reflection,
    roots,
    weyl_group,
    weyl_orbit,
)
from torsys.systems import ToricSystem, standard_system

import rank5

RANK3 = (-1, -1, -1, 0, 0)
RANK4 = (-1, -1, -1, -1, -1, -1)
RANK6 = (-2, -1, -2, -1, -2, -1, -2, -1)
RANK7 = (-2, -2, -1, -3, -1, -2, -1, -2, -1)  # |W(E6)| = 51,840
# sha256 of repr([g.matrix for g in weyl_group(x)]), taken from the closure
# deduplicated on whole matrices; pins the element order, and with it the
# order of every orbit built from the group
WEYL_DIGESTS = {
    RANK3: "5e38c74236568f05c7edcc4c90b0cd43c7636cfd1206c6e8760cd9af173c99da",
    RANK4: "ad71d6f6bf82099a7e732904fc3f82a68ea9b284bb68e33d9afbce357f5e32aa",
    rank5.SELFINTS: "59a7e6b68a2a5ebaf6fdc812c955fb5cd16255a7da1f4f0d555fe2b9fe381960",
    RANK6: "2b679cb22b9b23180d1aba17d172992d28b82c7cad95a0a2b84311eb66023561",
}


@pytest.mark.parametrize(
    "selfints,count",
    [(RANK3, 2), (RANK4, 8), (rank5.SELFINTS, 20)],
)
def test_root_counts(selfints, count):
    x = from_selfints(selfints)
    rs = roots(x)
    assert len(rs) == count
    classes = {r.cls for r in rs}
    for r in rs:
        assert r.cls.square() == -2
        assert r.cls.k_degree() == 0
        assert -1 * r.cls in classes  # closed under negation


def test_root_counts_higher_rank():
    # classical counts for the (-2, K-trivial) roots: D_5 -> 40, E_6 -> 72,
    # E_7 -> 126 at Picard ranks 6, 7, 8
    x = from_selfints(RANK3)
    expected = {6: 40, 7: 72, 8: 126}
    while x.pic_rank < 8:
        x = x.blow_up(0).above
        if x.pic_rank in expected:
            assert len(roots(x)) == expected[x.pic_rank]


def test_roots_rank_out_of_range():
    with pytest.raises(RankOutOfRange):
        roots(from_selfints((1, 1, 1)))
    with pytest.raises(RankOutOfRange):
        roots(from_selfints((2, 0, -2, 0)))
    x = from_selfints(RANK3)
    while x.pic_rank < 10:
        x = x.blow_up(0).above
    with pytest.raises(RankOutOfRange):
        roots(x)


def test_size_caps(monkeypatch):
    import torsys.isometry
    from torsys.isometry import SizeCapExceeded

    x = from_selfints(rank5.SELFINTS)
    monkeypatch.setattr(torsys.isometry, "WEYL_MAX_ELEMENTS", 10)
    monkeypatch.setattr(torsys.isometry, "ISOMETRY_MAX_NODES", 10)
    with pytest.raises(SizeCapExceeded):
        weyl_group(x)
    with pytest.raises(SizeCapExceeded):
        all_k_isometries(x)


def test_weyl_closure_refuses_rank8_before_it_starts(monkeypatch):
    # |W(E_{rho-1})| is known before the closure, so rank 8 (|W(E7)| =
    # 2,903,040 > WEYL_MAX_ELEMENTS) is refused before a root is enumerated;
    # the table agrees with the closure at ranks 3..6, and the cap inside
    # the loop still holds when the table is not what refuses
    import torsys.isometry
    from torsys.isometry import _WEYL_ORDERS, WEYL_MAX_ELEMENTS, SizeCapExceeded

    for selfints in (RANK3, RANK4, rank5.SELFINTS, RANK6):
        x = from_selfints(selfints)
        assert len(weyl_orbit(x)) == _WEYL_ORDERS[x.pic_rank] <= WEYL_MAX_ELEMENTS

    def no_roots(x):
        raise AssertionError("roots enumerated")

    monkeypatch.setattr(torsys.isometry, "roots", no_roots)
    x = from_selfints((-2, -2, -1, -3, -1, -2, -2, -1, -3, -1))
    assert x.pic_rank == 8
    for closure in (weyl_orbit, weyl_group):
        with pytest.raises(SizeCapExceeded, match="2903040"):
            closure(x)
    monkeypatch.undo()
    monkeypatch.setattr(torsys.isometry, "WEYL_MAX_ELEMENTS", 10)
    monkeypatch.setitem(_WEYL_ORDERS, 5, 1)
    with pytest.raises(SizeCapExceeded, match="exceeded 10 elements$"):
        weyl_group(from_selfints(rank5.SELFINTS))


def test_reflection_properties():
    x = rank5.surface()
    rng = random.Random(9)
    for root in roots(x):
        s = reflection(root)
        assert s.apply(root.cls) == -1 * root.cls
        assert _intlinalg.mat_mul(s.matrix, s.matrix) == _intlinalg.identity(len(s.matrix))
        for _ in range(5):
            c = x.divisor_class([rng.randint(-3, 3) for _ in range(7)])
            if c.dot(root.cls) == 0:
                assert s.apply(c) == c


def test_reflections_permute_roots():
    x = from_selfints(RANK4)
    rs = roots(x)
    classes = {r.cls for r in rs}
    for r in rs:
        s = reflection(r)
        assert {s.apply(c.cls) for c in rs} == classes


@pytest.mark.parametrize(
    "selfints,order",
    [(RANK3, 2), (RANK4, 12), (rank5.SELFINTS, 120)],
)
def test_weyl_group_orders(selfints, order):
    x = from_selfints(selfints)
    w = weyl_group(x)
    assert len(w) == order
    assert any(g.is_identity() for g in w)


def test_weyl_elements_preserve_pairing_and_k():
    # the Isometry constructor enforces both; exercise it explicitly anyway
    x = from_selfints(RANK4)
    k = x.canonical_class()
    rng = random.Random(13)
    for g in weyl_group(x):
        assert g.apply(k) == k
        a = x.divisor_class([rng.randint(-2, 2) for _ in range(x.n)])
        b = x.divisor_class([rng.randint(-2, 2) for _ in range(x.n)])
        assert g.apply(a).dot(g.apply(b)) == a.dot(b)


@pytest.mark.parametrize("selfints", [RANK3, RANK4, rank5.SELFINTS])
def test_weyl_equals_all_k_isometries(selfints):
    x = from_selfints(selfints)
    assert set(weyl_group(x)) == set(all_k_isometries(x))


def test_all_k_isometries_contains_identity():
    x = from_selfints(RANK3)
    assert Isometry(x, _intlinalg.identity(x.pic_rank)) in set(all_k_isometries(x))


def test_all_k_isometries_rank_cap():
    with pytest.raises(RankOutOfRange):
        all_k_isometries(from_selfints((1, 0, -1, 0)))


def test_orbit_rank5():
    x = rank5.surface()
    w = weyl_group(x)
    systems = orbit(standard_system(x), w)
    assert len(systems) == 120  # the action on the standard system is free here
    assert standard_system(x) in systems
    # identity fixes the standard system
    ident = next(g for g in w if g.is_identity())
    assert orbit(standard_system(x), [ident]) == [standard_system(x)]


def test_orbit_images_are_valid_systems():
    # orbit builds its images unchecked; the axioms must still hold
    for selfints in (RANK4, rank5.SELFINTS, RANK6):
        x = from_selfints(selfints)
        for s in orbit(standard_system(x), weyl_group(x)):
            ToricSystem.validate(x, s.entries)


def test_orbit_surfaces_agree_up_to_normalization():
    from torsys.systems import associated_surface

    x = from_selfints(RANK4)
    base = associated_surface(standard_system(x)).normalized
    for s in orbit(standard_system(x), weyl_group(x)):
        assert associated_surface(s).normalized == base


def test_gale_duality_rank5_orbit():
    # toric systems in one K-isometry orbit all present the same surface
    from torsys.systems import associated_surface

    x = rank5.surface()
    for s in orbit(standard_system(x), weyl_group(x)):
        assert associated_surface(s).normalized == x.normalized


def test_twist_class_is_weyl_reflection():
    from torsys.twist import TwistByCurve, twist_class
    from torsys.isometry import Root

    x = rank5.surface()
    for ray in (0, 5):
        t = TwistByCurve(x, ray)
        s = reflection(Root(t.curve_class))
        rng = random.Random(ray)
        for _ in range(15):
            c = x.divisor_class([rng.randint(-4, 4) for _ in range(7)])
            assert twist_class(t, c) == s.apply(c)


@pytest.mark.parametrize(
    "selfints,order,reflections",
    [(RANK3, 2, 1), (RANK4, 12, 4), (rank5.SELFINTS, 120, 10), (RANK6, 1920, 20)],
    ids=["rank3", "rank4", "rank5", "rank6"],
)
def test_weyl_group_validates_each_reflection_once(monkeypatch, selfints, order, reflections):
    # weyl_group passes each distinct reflection through the Isometry
    # constructor once and builds its products unchecked; every product
    # passes the constructor all the same
    import hashlib

    from torsys.isometry import Isometry, reflection, roots

    built = []
    validate = Isometry.__post_init__

    def counting(self):
        built.append(self.matrix)
        validate(self)

    x = from_selfints(selfints)
    monkeypatch.setattr(Isometry, "__post_init__", counting)
    w = weyl_group(x)
    assert len(w) == order
    assert len(built) == len(roots(x)) // 2 == reflections
    built.clear()
    assert {reflection(r).matrix for r in roots(x)} == set(built)
    assert len(set(built)) == reflections
    built.clear()
    for g in w:
        assert Isometry(x, g.matrix) == g
        assert g._columns == tuple(zip(*g.matrix))
    assert len(built) == order
    digest = hashlib.sha256(repr([g.matrix for g in w]).encode()).hexdigest()
    assert digest == WEYL_DIGESTS[selfints]


@pytest.mark.parametrize(
    "selfints",
    [RANK3, RANK4, rank5.SELFINTS, RANK6],
    ids=["rank3", "rank4", "rank5", "rank6"],
)
def test_weyl_orbit_equals_group_orbit(selfints):
    # the reflection BFS over systems reproduces the orbit under the matrix
    # group: the same systems, in the same order, with the same coefficients
    x = from_selfints(selfints)
    want = orbit(standard_system(x), weyl_group(x))
    got = weyl_orbit(x)
    assert got == want
    assert [[a.coeffs for a in s.entries] for s in got] == [
        [a.coeffs for a in s.entries] for s in want
    ]


@pytest.mark.parametrize("builder", ["weyl_orbit", "orbit"])
def test_orbits_build_one_class_per_distinct_image(monkeypatch, builder):
    # 1920 systems of 8 entries at rank 6 repeat only 56 classes; each is
    # built once, through a table local to the call
    from torsys.surface import ToricSurface

    x = from_selfints(RANK6)
    group = weyl_group(x) if builder == "orbit" else None
    calls = []
    build = ToricSurface.class_from_coords

    def counting(self, coords):
        calls.append(coords)
        return build(self, coords)

    monkeypatch.setattr(ToricSurface, "class_from_coords", counting)
    if builder == "orbit":
        systems = orbit(standard_system(x), group)
    else:
        systems = weyl_orbit(x)
    assert len(systems) == 1920
    assert len(calls) == len({a for s in systems for a in s.entries}) == 56
    assert len(set(calls)) == len(calls)


def test_gram_matrices_are_unimodular_so_isometries_have_det_one():
    # Isometry validates M^T G M = G only: det(M)^2 det G = det G, and
    # det G = +-1 makes det M = +-1 without a determinant per element
    from test_acceptance import _enumerate_blowups

    pool = _enumerate_blowups(8)
    assert len(pool) == 132
    for x in pool:
        assert _intlinalg.det(x.gram_matrix()) in (1, -1), x.selfints
    for selfints in (RANK3, RANK4, rank5.SELFINTS, RANK6):
        x = from_selfints(selfints)
        assert {abs(_intlinalg.det(g.matrix)) for g in weyl_group(x)} == {1}


def test_isometries_share_one_canonical_class_per_surface(monkeypatch):
    # Isometry checks M K = K on coordinates the surface computes once; the
    # check itself still rejects a pairing-preserving matrix that moves K
    from torsys.surface import ToricSurface

    group = weyl_group(from_selfints(RANK6))
    fresh = ToricSurface(RANK6)  # not interned, so nothing is cached on it
    built = []
    canonical = ToricSurface.canonical_class

    def counting(self):
        built.append(self)
        return canonical(self)

    monkeypatch.setattr(ToricSurface, "canonical_class", counting)
    for g in group:
        Isometry(fresh, g.matrix)
    assert len(built) == 1
    minus = tuple(tuple(-v for v in row) for row in _intlinalg.identity(fresh.pic_rank))
    with pytest.raises(ValueError, match="canonical class"):
        Isometry(fresh, minus)


def _generators(x):
    """The distinct reflections as (r, G r), the first of each pair r, -r in
    root order, and the regular vector v that tells elements apart."""
    from torsys.isometry import _regular_vector

    gram = x.gram_matrix()
    gens = {}
    for r in roots(x):
        rc = r.cls.coords()
        gens.setdefault(min(rc, tuple(-c for c in rc)), (rc, _intlinalg.mat_vec(gram, rc)))
    gens = list(gens.values())
    return gens, _regular_vector([rg for _, rg in gens])


def _reference_closure(x, start):
    """The reflection BFS keyed on the tuple w(v) itself: yields the images of
    ``start`` under each element, identity first."""
    gens, v = _generators(x)
    seen = {v}
    frontier = [(v, start)]
    yield start
    while frontier:
        new = []
        for hv, images in frontier:
            for rc, rg in gens:
                pair = sum(map(mul, rg, hv))
                image = tuple(a + pair * b for a, b in zip(hv, rc))
                if image in seen:
                    continue
                seen.add(image)
                moved = tuple(
                    tuple(a + sum(map(mul, rg, u)) * b for a, b in zip(u, rc)) for u in images
                )
                yield moved
                new.append((image, moved))
        frontier = new


@pytest.mark.parametrize(
    "selfints", [RANK3, RANK4, rank5.SELFINTS, RANK6], ids=["rank3", "rank4", "rank5", "rank6"]
)
def test_packed_closure_equals_the_tuple_keyed_reference(selfints):
    # the same elements, in the same order, from keys packed into one int
    from torsys.isometry import _reflection_closure

    x = from_selfints(selfints)
    basis = _intlinalg.identity(x.pic_rank)
    got = [images for _, images in _reflection_closure(x, basis)]
    assert got == list(_reference_closure(x, basis))


@pytest.mark.parametrize(
    "selfints,order",
    [(RANK3, 2), (RANK4, 12), (rank5.SELFINTS, 120), (RANK6, 1920), (RANK7, 51840)],
    ids=["rank3", "rank4", "rank5", "rank6", "rank7"],
)
def test_packed_pairings_fit_their_proven_slot_width(selfints, order):
    # every key unpacks to the exact pairings (r_a . w(v))_a, each within the
    # Cauchy-Schwarz bound; a slot one bit narrower would not hold them
    from torsys.isometry import _pairing_slots, _reflection_closure

    x = from_selfints(selfints)
    gens, v = _generators(x)
    bound, width = _pairing_slots(x, v)
    gram = x.gram_matrix()
    k = x.canonical_coords()
    kk = sum(map(mul, k, _intlinalg.mat_vec(gram, k)))
    vk = sum(map(mul, v, _intlinalg.mat_vec(gram, k)))
    vv = sum(map(mul, v, _intlinalg.mat_vec(gram, v)))
    # bound = floor(sqrt(2((v.K)^2 - v^2 K^2) / K^2)), in exact integers
    assert kk * bound**2 <= 2 * (vk * vk - vv * kk) < kk * (bound + 1) ** 2
    assert 1 << (width - 1) <= 2 * bound < 1 << width
    mask = (1 << width) - 1
    count = 0
    for key, (wv,) in _reflection_closure(x, (v,)):
        assert key >> (len(gens) * width) == 0
        f = [((key >> (a * width)) & mask) - bound for a in range(len(gens))]
        assert f == [sum(map(mul, rg, wv)) for _, rg in gens]
        assert max(map(abs, f)) <= bound
        count += 1
    assert count == order


def _broken_pairings(x, m):
    """The (i, j), i <= j, where M^T G M differs from G, by matrix products."""
    g = x.gram_matrix()
    p = _intlinalg.mat_mul(tuple(zip(*m)), _intlinalg.mat_mul(g, m))
    return [(i, j) for i in range(len(g)) for j in range(i, len(g)) if p[i][j] != g[i][j]]


# on the rank-5 surface, whose K has coordinates (-1, -2, -2, -1, 0): the
# identity with column 4 replaced, so that M K = K stays true
ONE_OFF_DIAGONAL = (  # column 4 = (1, 1, 0, 0, 1): only c_2 . G c_4 changes
    (1, 0, 0, 0, 1),
    (0, 1, 0, 0, 1),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1),
)
ONE_DIAGONAL = (  # column 4 = e_4 + 2 G^-1 e_4: only c_4 . G c_4 changes
    (1, 0, 0, 0, 2),
    (0, 1, 0, 0, 2),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, -2),
    (0, 0, 0, 0, -3),
)


def _swapped_columns(m):
    """m with its first two columns exchanged."""
    return tuple((row[1], row[0]) + row[2:] for row in m)


_REJECT_SCRIPT = f"""
import sys
sys.path.insert(0, sys.argv[1])
import rank5
from torsys import from_selfints
from torsys.isometry import Isometry, weyl_group

if not sys.flags.optimize:
    sys.exit("run me under python -O")
x = rank5.surface()
minus = tuple(tuple(-int(i == j) for j in range(5)) for i in range(5))
for m in ({ONE_OFF_DIAGONAL!r}, {ONE_DIAGONAL!r}, minus, ((1, 0, 0, 0, 0),) * 4):
    try:
        Isometry(x, m)
        print("accepted")
    except ValueError as exc:
        print(exc)
# the columns of a group element, in the wrong order
x = from_selfints({RANK6!r})
m = weyl_group(x)[1000].matrix
try:
    Isometry(x, tuple((row[1], row[0]) + row[2:] for row in m))
    print("accepted")
except ValueError as exc:
    print(exc)
"""


def test_isometry_rejects_one_broken_pairing_a_moved_k_and_a_bad_shape():
    x = rank5.surface()
    k = x.canonical_coords()
    assert _broken_pairings(x, ONE_OFF_DIAGONAL) == [(2, 4)]
    assert _broken_pairings(x, ONE_DIAGONAL) == [(4, 4)]
    for m in (ONE_OFF_DIAGONAL, ONE_DIAGONAL):
        assert _intlinalg.mat_vec(m, k) == k
        with pytest.raises(ValueError, match="intersection pairing"):
            Isometry(x, m)
    minus = tuple(tuple(-v for v in row) for row in _intlinalg.identity(5))
    assert _broken_pairings(x, minus) == []
    with pytest.raises(ValueError, match="canonical class"):
        Isometry(x, minus)
    with pytest.raises(ValueError, match="5 x 5"):
        Isometry(x, ((1, 0, 0, 0, 0),) * 4)


def test_isometry_keeps_non_integer_columns_out_of_the_class_table():
    # a float entry is refused, from cold class tables and after weyl_group
    # has met every column of the identity: 1.0 hashes and compares equal
    # to 1, so a check on new columns only let a float identity through
    from torsys.systems import _class_table, _clear_class_tables

    _clear_class_tables()
    for selfints in (RANK4, RANK6):
        x = from_selfints(selfints)
        m = tuple(tuple(float(v) for v in row) for row in _intlinalg.identity(x.pic_rank))
        with pytest.raises(ValueError, match="must be integers"):
            Isometry(x, m)
        assert _class_table(x.selfints).classes == []
        weyl_group(x)
        with pytest.raises(ValueError, match="must be integers"):
            Isometry(x, m)


def test_isometry_rejections_hold_under_optimize():
    import os
    import pathlib
    import subprocess
    import sys

    import torsys

    src = str(pathlib.Path(torsys.__file__).resolve().parents[1])
    here = str(pathlib.Path(__file__).resolve().parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _REJECT_SCRIPT, here],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "matrix does not preserve the intersection pairing",
        "matrix does not preserve the intersection pairing",
        "matrix does not fix the canonical class",
        "matrix is not 5 x 5",
        "matrix does not preserve the intersection pairing",
    ]


def test_isometry_rejects_known_columns_in_the_wrong_order():
    # the columns of a rank-6 Weyl element with the first two exchanged:
    # every column is one of the group's, and the pairings are compared
    # with G entry by entry all the same
    x = from_selfints(RANK6)
    w = weyl_group(x)[1000]
    m = _swapped_columns(w.matrix)
    assert _broken_pairings(x, m)
    with pytest.raises(ValueError, match="intersection pairing"):
        Isometry(x, m)
    Isometry(x, w.matrix)


def test_weyl_group_and_isometry_leave_the_class_tables_empty():
    # the Weyl layer reads no class table: building the rank-6 group,
    # validating each of its elements again and the exhaustive search
    # intern nothing and create no table
    from torsys.systems import _class_tables, _ClassTable, _clear_class_tables

    _clear_class_tables()
    x = from_selfints(RANK6)
    group = weyl_group(x)
    for g in group:
        Isometry(x, g.matrix)
    all_k_isometries(rank5.surface())
    assert _class_tables == {}
    assert _ClassTable.entries == 0


def _reference_orbit(system, isometries):
    """Entry coordinates of the distinct images, by mat_vec on the rows."""
    start = [a.coords() for a in system.entries]
    out, seen = [], set()
    for w in isometries:
        coords = tuple(_intlinalg.mat_vec(w.matrix, u) for u in start)
        if coords not in seen:
            seen.add(coords)
            out.append(coords)
    return out


def test_orbit_images_equal_the_mat_vec_reference():
    # orbit sums scaled matrix columns over the non-zero start coordinates;
    # start from systems with coordinates outside {0, 1}.  The negated system
    # is not a toric system (it sums to K), which orbit does not check
    x = rank5.surface()
    base = weyl_orbit(x)
    starts = [
        base[7].rotate(3),
        base[50].mirror(),
        ToricSystem(x, tuple(-1 * a for a in base[99].entries)),
    ]
    for isometries, systems in (
        (all_k_isometries(x), starts),
        (weyl_group(from_selfints(RANK6)), [weyl_orbit(from_selfints(RANK6))[1000].rotate(5)]),
    ):
        for s in systems:
            values = {c for a in s.entries for c in a.coords()}
            assert values - {0, 1}
            got = [tuple(a.coords() for a in t.entries) for t in orbit(s, isometries)]
            assert got == _reference_orbit(s, isometries)
