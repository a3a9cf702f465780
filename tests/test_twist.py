import random

import pytest

from torsys import from_selfints
from torsys.systems import from_sequence, is_exceptional, to_sequence
from torsys.twist import (
    NotALineBundle,
    TwistByCurve,
    euler_pair_chi,
    minus_two_rays,
    twist_class,
    twist_line_bundle,
    twist_sequence,
)

import rank5


def test_minus_two_rays():
    assert minus_two_rays(rank5.surface()) == (0, 5)
    assert minus_two_rays(from_selfints((1, 1, 1))) == ()
    assert minus_two_rays(from_selfints((2, 0, -2, 0))) == (2,)


def test_twist_by_curve_validates():
    x = rank5.surface()
    with pytest.raises(ValueError):
        TwistByCurve(x, 1)  # a (-1)-ray
    t = TwistByCurve(x, 0)
    assert t.curve_class.square() == -2
    assert t.curve_class.k_degree() == 0


_NOT_MINUS_TWO_SCRIPT = r"""
import sys

from torsys import from_selfints
from torsys.twist import TwistByCurve

if not sys.flags.optimize:
    sys.exit("run me under python -O")
try:
    TwistByCurve(from_selfints((-2, -1, -1, -1, -1, -2, -1)), 1)  # a (-1)-ray
    print("accepted")
except ValueError:
    print("rejected")
"""


def test_twist_by_curve_validates_under_optimize():
    import os
    import pathlib
    import subprocess
    import sys

    import torsys

    src = str(pathlib.Path(torsys.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _NOT_MINUS_TWO_SCRIPT],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["rejected"]


def test_euler_pair_chi():
    x = rank5.surface()
    t = TwistByCurve(x, 0)
    c = t.curve_class
    assert euler_pair_chi(t, x.divisor(3)) == 0  # C.D = 0
    assert euler_pair_chi(t, x.divisor(1)) == -1  # adjacent, C.D = 1
    rng = random.Random(21)
    for _ in range(20):
        d = x.divisor_class([rng.randint(-4, 4) for _ in range(7)])
        assert euler_pair_chi(t, d) == -c.dot(d)


def test_twist_class_properties():
    x = rank5.surface()
    rng = random.Random(31)
    for ray in minus_two_rays(x):
        t = TwistByCurve(x, ray)
        c = t.curve_class
        assert twist_class(t, c) == -1 * c
        for _ in range(20):
            d = x.divisor_class([rng.randint(-4, 4) for _ in range(7)])
            assert twist_class(t, twist_class(t, d)) == d
            e = x.divisor_class([rng.randint(-4, 4) for _ in range(7)])
            assert twist_class(t, d).dot(twist_class(t, e)) == d.dot(e)


def test_twist_line_bundle_cases():
    x = rank5.surface()
    t = TwistByCurve(x, 0)
    c = t.curve_class
    orth = x.divisor(3)  # C.D = 0
    assert twist_line_bundle(t, orth) == orth
    adj = x.divisor(1)  # C.D = 1
    assert twist_line_bundle(t, adj) == adj + c
    # case (b) output pairs to -1 against C and cannot be twisted again
    out = twist_line_bundle(t, adj)
    assert c.dot(out) == -1
    with pytest.raises(NotALineBundle):
        twist_line_bundle(t, out)
    with pytest.raises(NotALineBundle):
        twist_line_bundle(t, c)  # C.C = -2


def test_twist_sequence_printed_matrices():
    x = rank5.surface()
    seq = rank5.printed_sequence()
    t = TwistByCurve(x, rank5.TWIST_RAY_FOR_PRINTED_TE)
    assert twist_sequence(t, seq) == rank5.printed_twisted_sequence()


def test_twist_sequence_orthogonal_is_identity():
    from torsys.systems import LineBundleSequence

    x = rank5.surface()
    t = TwistByCurve(x, 0)
    # a full-length sequence of classes orthogonal to the curve is untouched
    d4 = x.divisor(3)  # D_4 . D_1 = 0
    orth = LineBundleSequence.of([k * d4 for k in range(7)])
    assert twist_sequence(t, orth) == orth


def test_twist_sequence_failure_reports_index():
    x = rank5.surface()
    t = TwistByCurve(x, 5)
    seq = rank5.printed_twisted_sequence()  # already twisted once: C.E = -1 somewhere
    with pytest.raises(NotALineBundle) as err:
        twist_sequence(t, seq)
    assert err.value.index is not None


def test_twist_preserves_exceptionality():
    seq = rank5.printed_sequence()
    x = rank5.surface()
    t = TwistByCurve(x, rank5.TWIST_RAY_FOR_PRINTED_TE)
    out = twist_sequence(t, seq)
    assert is_exceptional(from_sequence(seq))
    assert is_exceptional(from_sequence(out))


def test_twist_preserves_exceptionality_over_orbit_sample():
    from torsys.isometry import orbit, weyl_group
    from torsys.systems import standard_system

    x = rank5.surface()
    systems = orbit(standard_system(x), weyl_group(x))
    rng = random.Random(8)
    twistable = 0
    for _ in range(40):
        s = systems[rng.randrange(len(systems))]
        if not is_exceptional(s):
            continue
        seq = to_sequence(s)
        for ray in minus_two_rays(x):
            t = TwistByCurve(x, ray)
            try:
                out = twist_sequence(t, seq)
            except NotALineBundle:
                continue
            twistable += 1
            assert is_exceptional(from_sequence(out))
    assert twistable > 10


def test_twist_conjugates_under_fan_automorphism():
    # f* exchanges the two (-2)-curves, so twisting after pulling back equals
    # pulling back the twist at the exchanged curve
    from torsys.systems import LineBundleSequence

    x = rank5.surface()
    f = next(g for g in x.fan_automorphisms() if not g.is_identity())
    seq = rank5.printed_sequence()
    f_seq = LineBundleSequence.of([f.apply(e) for e in seq.entries])
    left = twist_sequence(TwistByCurve(x, 0), f_seq)
    right = LineBundleSequence.of(
        [f.apply(e) for e in twist_sequence(TwistByCurve(x, 5), seq).entries]
    )
    assert left == right


def test_twisted_system_is_reflection_image():
    # twisting a whole sequence induces the Weyl reflection on its toric
    # system, which is why certify_full builds twisted systems unchecked
    from torsys.isometry import Root, orbit, reflection, weyl_group
    from torsys.systems import standard_system

    x = rank5.surface()
    seq = rank5.printed_sequence()
    t = TwistByCurve(x, rank5.TWIST_RAY_FOR_PRINTED_TE)
    out = from_sequence(twist_sequence(t, seq))
    s = reflection(Root(t.curve_class))
    assert [out] == orbit(from_sequence(seq), [s])
    twisted = 0
    for system in orbit(standard_system(x), weyl_group(x)):
        if not is_exceptional(system):
            continue
        for ray in minus_two_rays(x):
            t = TwistByCurve(x, ray)
            try:
                out = twist_sequence(t, to_sequence(system))
            except NotALineBundle:
                continue
            assert [from_sequence(out)] == orbit(system, [reflection(Root(t.curve_class))])
            twisted += 1
    assert twisted == 88
