import itertools
import random

from torsys import (
    cohomology_dims,
    euler_char,
    from_selfints,
    h0,
    oracle_cohomology_dims,
    vanishes_totally,
)

import rank5


def _p2():
    return from_selfints((1, 1, 1))


def test_euler_char_examples():
    p2 = _p2()
    assert euler_char(p2.zero_class()) == 1
    line = p2.divisor(0)
    assert euler_char(-1 * line) == 0
    assert euler_char(p2.canonical_class()) == 1


def test_h0_examples():
    p2 = _p2()
    line = p2.divisor(0)
    assert h0(line) == 3
    assert h0(-2 * line) == 0
    for selfints in [(1, 1, 1), (2, 0, -2, 0), rank5.SELFINTS]:
        x = from_selfints(selfints)
        assert h0(x.zero_class()) == 1


def test_h0_representative_independent():
    x = rank5.surface()
    rng = random.Random(5)
    for _ in range(30):
        c = [rng.randint(-4, 4) for _ in range(7)]
        d = x.divisor_class(c)
        m = (rng.randint(-3, 3), rng.randint(-3, 3))
        shifted = x.divisor_class([a + r for a, r in zip(c, x.relation_vector(m))])
        assert h0(d) == h0(shifted)


def test_cohomology_dims_examples():
    p2 = _p2()
    line = p2.divisor(0)
    assert tuple(cohomology_dims(p2.zero_class())) == (1, 0, 0)
    assert tuple(cohomology_dims(p2.canonical_class())) == (0, 0, 1)
    assert tuple(cohomology_dims(-1 * line)) == (0, 0, 0)


def test_vanishes_totally():
    p2 = _p2()
    line = p2.divisor(0)
    assert vanishes_totally(-1 * line)
    assert not vanishes_totally(p2.zero_class())
    assert not vanishes_totally(p2.canonical_class())  # h2 = 1


def test_oracle_examples():
    p2 = _p2()
    line = p2.divisor(0)
    assert tuple(oracle_cohomology_dims(p2.zero_class())) == (1, 0, 0)
    assert tuple(oracle_cohomology_dims(-1 * line)) == (0, 0, 0)
    assert tuple(oracle_cohomology_dims(line)) == (3, 0, 0)


def test_oracle_h1_structural():
    # O(-2, 0)-type class on P1 x P1 has a pure h1
    f0 = from_selfints((0, 0, 0, 0))
    d = -2 * f0.divisor(0)
    assert euler_char(d) == -1
    assert tuple(cohomology_dims(d)) == (0, 1, 0)
    assert tuple(oracle_cohomology_dims(d)) == (0, 1, 0)


def test_serre_duality():
    rng = random.Random(17)
    for selfints in [(1, 1, 1), (1, 0, -1, 0), (-1, -1, -1, 0, 0), rank5.SELFINTS]:
        x = from_selfints(selfints)
        k = x.canonical_class()
        for _ in range(20):
            d = x.divisor_class([rng.randint(-4, 4) for _ in range(x.n)])
            a = cohomology_dims(d)
            b = cohomology_dims(k - d)
            assert (a.h0, a.h1, a.h2) == (b.h2, b.h1, b.h0)


def test_h0_monotone_under_effective_addition():
    rng = random.Random(23)
    x = rank5.surface()
    for _ in range(30):
        d = x.divisor_class([rng.randint(-3, 3) for _ in range(7)])
        e = d + x.divisor(rng.randrange(7))
        assert h0(e) >= h0(d)


def test_fast_path_equals_oracle_randomized():
    rng = random.Random(0)
    pool = [
        from_selfints(s)
        for s in [(1, 1, 1), (0, 0, 0, 0), (3, 0, -3, 0), (-1, -1, -1, 0, 0), rank5.SELFINTS]
    ]
    for _ in range(150):
        x = pool[rng.randrange(len(pool))]
        d = x.divisor_class([rng.randint(-5, 5) for _ in range(x.n)])
        fast = tuple(cohomology_dims(d))
        oracle = oracle_cohomology_dims(d)
        assert fast == tuple(oracle)
        assert oracle.euler == euler_char(d)


def test_fast_path_equals_oracle_on_long_ray_chain():
    # repeated blow-ups at one corner grow ray coordinates quickly
    x = from_selfints((3, 0, -3, 0))
    for _ in range(4):
        x = x.blow_up(0).above
    assert max(max(abs(a), abs(b)) for a, b in x.rays) >= 4
    rng = random.Random(12)
    for _ in range(40):
        d = x.divisor_class([rng.randint(-3, 3) for _ in range(x.n)])
        assert tuple(cohomology_dims(d)) == tuple(oracle_cohomology_dims(d))


def test_oracle_box_is_stable_under_enlargement():
    # enlarging the character box beyond the default bound never changes the
    # answer, so the default bound already contains every contribution
    rng = random.Random(41)
    for selfints in [(1, 1, 1), (0, 0, 0, 0), rank5.SELFINTS]:
        x = from_selfints(selfints)
        for _ in range(8):
            d = x.divisor_class([rng.randint(-3, 3) for _ in range(x.n)])
            base = oracle_cohomology_dims(d)
            max_ray = max(max(abs(a), abs(b)) for a, b in x.rays)
            default = sum(abs(c) for c in d.reduced()) * max_ray + 1
            assert tuple(oracle_cohomology_dims(d, bound=default + 6)) == tuple(base)


def test_fast_path_equals_oracle_exhaustive_small_p2():
    p2 = _p2()
    for c in itertools.product(range(-3, 4), repeat=3):
        d = p2.divisor_class(c)
        assert tuple(cohomology_dims(d)) == tuple(oracle_cohomology_dims(d))


def test_vanishes_totally_memo_matches_dims_and_oracle():
    from torsys.cohomology import _vanishes_cached

    assert _vanishes_cached.cache_info().maxsize is not None  # bounded memo
    rng = random.Random(23)
    surfaces = [_p2(), from_selfints((2, 0, -2, 0)), rank5.surface()]
    hits = 0
    for _ in range(60):
        x = surfaces[rng.randrange(len(surfaces))]
        c = [rng.randint(-2, 2) for _ in range(x.n)]
        d = x.divisor_class(c)
        want = cohomology_dims(d).is_zero()
        assert vanishes_totally(d) == want
        assert oracle_cohomology_dims(d).is_zero() == want
        # another representative of the class answers from the memo
        m = (rng.randint(-2, 2), rng.randint(-2, 2))
        shifted = x.divisor_class([a + r for a, r in zip(c, x.relation_vector(m))])
        before = _vanishes_cached.cache_info().hits
        assert vanishes_totally(shifted) == want
        hits += _vanishes_cached.cache_info().hits - before
    assert hits == 60
