"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime (run with -s or -v to see them).  All tolerances are exact."""

import itertools
import random
import time

import pytest

from torsys import _intlinalg, from_selfints
from torsys.classify import certify_full, is_constructible, orbit_report
from torsys.cohomology import cohomology_dims, euler_char, oracle_cohomology_dims
from torsys.isometry import (
    Root,
    all_k_isometries,
    orbit,
    reflection,
    roots,
    weyl_group,
    weyl_orbit,
)
from torsys.systems import (
    ToricSystem,
    associated_surface,
    augment,
    classify_hirzebruch,
    deaugment,
    from_sequence,
    hirzebruch_system,
    is_exceptional,
    standard_system,
    to_sequence,
)
from torsys.twist import TwistByCurve, twist_class, twist_sequence

import rank5


def _report(num: int, started: float, detail: str):
    print(f"ACCEPTANCE {num}: PASS ({time.time() - started:.1f}s) {detail}")


def _enumerate_blowups(max_n: int):
    """All surfaces obtainable from F_r, r <= 3 by blow-ups, up to max_n rays,
    deduplicated by normalized self-intersections."""
    surfaces = {}
    frontier = [from_selfints((r, 0, -r, 0)) for r in range(4)]
    for s in frontier:
        surfaces.setdefault(s.normalized, s)
    while frontier:
        new = []
        for s in frontier:
            if s.n >= max_n:
                continue
            for p in range(s.n):
                t = s.blow_up(p).above
                if t.normalized not in surfaces:
                    surfaces[t.normalized] = t
                    new.append(t)
        frontier = new
    return sorted(surfaces.values(), key=lambda s: (s.n, s.normalized))


def test_criterion_1_rank5_orbit_counts():
    started = time.time()
    rep = orbit_report(rank5.surface())
    assert rep.total == 120
    assert rep.exceptional_count == 98
    assert len(rep.nonconstructible) == 2
    assert time.time() - started < 60
    _report(1, started, "orbit 120, exceptional 98, non-constructible 2")


def test_criterion_2_printed_matrices_and_certificates():
    started = time.time()
    x = rank5.surface()
    rep = orbit_report(x)
    printed = rank5.printed_system()

    # the printed system appears among the non-constructibles up to
    # rotation/mirror (here: on the nose)
    images = set()
    for s in rep.nonconstructible:
        for im in s.symmetry_images():
            images.add(im.key())
    assert printed.key() in images
    assert any(s == printed for s in rep.nonconstructible)

    # its bundle sequence matches the printed one
    seq = to_sequence(printed)
    assert seq == rank5.printed_sequence()

    # the twist at the printed matrices' D_1 label reproduces T(E) exactly,
    # and the image is constructible
    t = TwistByCurve(x, rank5.TWIST_RAY_FOR_PRINTED_TE)
    twisted = twist_sequence(t, seq)
    assert twisted == rank5.printed_twisted_sequence()
    assert is_constructible(from_sequence(twisted)) is not None

    # depth-1 certificates for both E and f*E
    cert = certify_full(seq, max_depth=1)
    assert cert.verdict == "full" and len(cert.twists) == 1
    f = next(g for g in x.fan_automorphisms() if not g.is_identity())
    f_system = ToricSystem.validate(x, tuple(f.apply(e) for e in printed.entries))
    assert is_constructible(f_system) is None
    cert_f = certify_full(to_sequence(f_system), max_depth=1)
    assert cert_f.verdict == "full" and len(cert_f.twists) == 1
    # certificates replay
    assert cert.witness.replay() == from_sequence(cert.final_sequence)
    assert cert_f.witness.replay() == from_sequence(cert_f.final_sequence)
    _report(2, started, "printed A, E, T(E) all reproduced; both certificates full at depth 1")


def test_criterion_3_weyl_data():
    started = time.time()
    cases = {3: ((-1, -1, -1, 0, 0), 2, 2), 4: ((-1, -1, -1, -1, -1, -1), 8, 12), 5: (rank5.SELFINTS, 20, 120)}
    for rho, (selfints, n_roots, order) in cases.items():
        x = from_selfints(selfints)
        assert x.pic_rank == rho
        assert len(roots(x)) == n_roots
        w = weyl_group(x)
        assert len(w) == order
        assert set(w) == set(all_k_isometries(x))
    assert time.time() - started < 30
    _report(3, started, "roots (2,8,20), orders (2,12,120), Weyl = all K-isometries")


def test_criterion_4_hirzebruch_families():
    started = time.time()
    for r in range(5):
        for i in range(-5, 6):
            a = hirzebruch_system("A", r, i)
            assert is_exceptional(a)
            assert associated_surface(a) == from_selfints((abs(r + 2 * i), 0, -abs(r + 2 * i), 0))
            if r % 2 == 0:
                at = hirzebruch_system("Atilde", r, i)
                assert associated_surface(at) == from_selfints((abs(2 * i), 0, -abs(2 * i), 0))
                if (r, i) == (4, 0):
                    continue  # see test_criterion_4_stated_atilde_rule_at_4_0
                assert is_exceptional(at) == (r == 0 or (r, i) == (2, 0))
    _report(4, started, "A_{r,i} all exceptional; Atilde rule checked; TV labels match "
                        "(Atilde_{4,0} carved out, see the xfail companion test)")


@pytest.mark.xfail(
    strict=True,
    reason="The stated rule 'Atilde exceptional iff r = 0 or (r,i) = (2,0)' "
    "contradicts itself at (4,0): Atilde_{4,0} = (S, P, S, P) with S = Q - 2P "
    "is a rotation of A_{4,-2}, which the same criterion requires to be "
    "exceptional, and rotation preserves exceptionality.  Both cohomology "
    "paths confirm every backwards segment vanishes, so the computed value "
    "is True and the stated expectation False cannot hold.",
)
def test_criterion_4_stated_atilde_rule_at_4_0():
    at = hirzebruch_system("Atilde", 4, 0)
    assert is_exceptional(at) is False  # stated expectation; mathematically True


def test_criterion_5_low_rank_constructibility():
    started = time.time()
    pool = [s for s in _enumerate_blowups(6) if s.n in (5, 6)]
    assert len(pool) >= 10
    for s in pool:
        rep = orbit_report(s)
        assert rep.nonconstructible == (), s.selfints
    assert time.time() - started < 120
    _report(5, started, f"all exceptional orbit systems constructible on {len(pool)} surfaces")


def _first_chain_reaches_a_base(system) -> bool:
    """Take the first available de-augmentation, rays ascending, then
    positions, at every level: does the chain end on an exceptional
    Hirzebruch system?"""
    while system.surface.n > 4:
        x = system.surface
        moves = (
            (position, ray)
            for ray in x.contractible_rays()
            for position, entry in enumerate(system.entries)
            if entry == x.divisor(ray)
        )
        move = next(moves, None)
        if move is None:
            return False
        system, _ = deaugment(system, *move)
    return classify_hirzebruch(system).is_exceptional_class()


def test_first_deaugmentation_reaches_a_base_exactly_when_the_search_does():
    # an observed property, which the search does not use: on every
    # exceptional orbit system of the blow-ups of F_0..F_3 with 5-7 rays,
    # the first available de-augmentation at every level reaches a
    # Hirzebruch base exactly when is_constructible's full search finds a
    # chain.  Moves at disjoint (-1)-rays commute; for adjacent (-1)-rays
    # it is unproven, so the search keeps backtracking
    pool = [s for s in _enumerate_blowups(7) if s.n >= 5]
    systems = nonconstructible = 0
    for x in pool:
        for s in weyl_orbit(x):
            if is_exceptional(s):
                constructible = is_constructible(s) is not None
                assert _first_chain_reaches_a_base(s) == constructible, s
                systems += 1
                nonconstructible += not constructible
    assert (len(pool), systems, nonconstructible) == (43, 477, 16)


def test_criterion_6_cohomology_oracle_equivalence():
    started = time.time()
    pool = _enumerate_blowups(8)
    assert max(s.n for s in pool) == 8
    rng = random.Random(0)
    for _ in range(1000):
        s = pool[rng.randrange(len(pool))]
        d = s.divisor_class([rng.randint(-5, 5) for _ in range(s.n)])
        fast = tuple(cohomology_dims(d))
        oracle = oracle_cohomology_dims(d)
        assert fast == tuple(oracle), (s.selfints, d.coeffs)
        assert oracle.euler == euler_char(d)
    p2 = from_selfints((1, 1, 1))
    for c in itertools.product(range(-6, 7), repeat=3):
        d = p2.divisor_class(c)
        assert tuple(cohomology_dims(d)) == tuple(oracle_cohomology_dims(d)), c
    assert time.time() - started < 60
    _report(6, started, "1000 random classes + exhaustive P^2 |c| <= 6 agree")


def test_criterion_7_structural_round_trips():
    started = time.time()
    rng = random.Random(0)

    # blow-up / blow-down inverse pairs
    for selfints in [(1, 1, 1), (2, 0, -2, 0), rank5.SELFINTS]:
        x = from_selfints(selfints)
        for p in range(x.n):
            rel = x.blow_up(p)
            assert rel.above.blow_down(rel.ray_index).below.selfints == x.selfints
            c = x.divisor_class([rng.randint(-3, 3) for _ in range(x.n)])
            assert rel.pushdown(rel.pullback(c)) == c

    # reflections involutive; twist_class equals the Weyl reflection
    x = rank5.surface()
    for r in roots(x):
        s = reflection(r)
        assert _intlinalg.mat_mul(s.matrix, s.matrix) == _intlinalg.identity(len(s.matrix))
    for ray in (0, 5):
        t = TwistByCurve(x, ray)
        s = reflection(Root(t.curve_class))
        for _ in range(10):
            c = x.divisor_class([rng.randint(-4, 4) for _ in range(7)])
            assert twist_class(t, c) == s.apply(c)

    # rotate / mirror preserve validity and exceptionality
    printed = rank5.printed_system()
    for image in printed.symmetry_images():
        ToricSystem.validate(x, image.entries)
        assert is_exceptional(image)

    # augment/deaugment round trips and the augmentation equivalence on 200
    # seeded random augmentations over small Weyl orbits
    pool = []
    for selfints in [(-1, -1, -1, 0, 0), (-2, -1, -2, -1, 0, 0), (-1, -1, -1, -1, -1, -1)]:
        s0 = from_selfints(selfints)
        pool.extend(orbit(standard_system(s0), weyl_group(s0)))
    for _ in range(200):
        s = pool[rng.randrange(len(pool))]
        p = rng.randrange(s.surface.n)
        j = rng.randrange(s.surface.n + 1)
        big = augment(s, p, j)
        assert is_exceptional(big) == is_exceptional(s)
        back, _ = deaugment(big, j, p + 1)
        assert back == s
    _report(7, started, "round trips, reflection/twist identities, augmentation equivalence (200 samples)")
