import json

from hypothesis import given, settings
from hypothesis import strategies as st

from torsys import ToricSystem, from_selfints, hirzebruch_system, standard_system
from torsys.schema import (
    class_from_json,
    sequence_from_json,
    surface_from_json,
    surface_to_json,
    system_from_json,
    system_to_json,
)
from torsys.systems import LineBundleSequence, augment, to_sequence

STARTS = [(1, 1, 1)] + [(r, 0, -r, 0) for r in range(4)]


def _through_json(data):
    return json.loads(json.dumps(data))


@st.composite
def _blowup_systems(draw):
    """A toric system on P^2 or on a blow-up of F_0..F_3 with at most 9 rays,
    built by augmentations, with each entry moved to another representative
    of its class."""
    start = draw(st.sampled_from(STARTS))
    if start == (1, 1, 1):
        system = standard_system(from_selfints(start))
    else:
        system = hirzebruch_system("A", start[0], draw(st.integers(-2, 2)))
    for _ in range(draw(st.integers(0, 9 - system.surface.n))):
        n = system.surface.n
        system = augment(system, draw(st.integers(0, n - 1)), draw(st.integers(0, n)))
    return ToricSystem(system.surface, tuple(draw(_representatives(a)) for a in system.entries))


@st.composite
def _representatives(draw, cls):
    """The class ``cls`` with its coefficients shifted by a relation."""
    x = cls.surface
    m = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    return x.divisor_class([c + r for c, r in zip(cls.coeffs, x.relation_vector(m))])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_blowup_systems(), st.data())
def test_json_round_trips(system, data):
    x = system.surface
    assert surface_from_json(_through_json(surface_to_json(x))).selfints == x.selfints

    # a class is written as a bare array, as system_to_json writes entries
    d = x.divisor_class(data.draw(st.lists(st.integers(-6, 6), min_size=x.n, max_size=x.n)))
    for written in (list(d.coeffs), {"coeffs": list(d.coeffs)}):
        back = class_from_json(x, _through_json(written))
        assert back == d and back.coeffs == d.coeffs

    back = system_from_json(_through_json(system_to_json(system)))
    assert back == system
    assert [a.coeffs for a in back.entries] == [a.coeffs for a in system.entries]

    shift = data.draw(st.lists(st.integers(-3, 3), min_size=x.n, max_size=x.n))
    seq = LineBundleSequence.of(
        [e + x.divisor_class(shift) for e in to_sequence(system).entries]
    )
    back = sequence_from_json(_through_json(system_to_json(seq)))
    assert back == seq
    assert [e.coeffs for e in back.entries] == [e.coeffs for e in seq.entries]
