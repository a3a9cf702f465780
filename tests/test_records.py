"""The value types are plain immutable records: fields cannot be set or
deleted, equal fields make equal records, and they print as
``Name(field=value, ...)``.  They have slots and no instance dictionary,
and pickling and copying round-trip them."""

import copy
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import rank5
import torsys
from torsys.classify import (
    ConstructibilityWitness,
    DeaugmentationStep,
    FullnessCertificate,
    OrbitReport,
    TwistApplication,
    certify_full,
    is_constructible,
    orbit_report,
)
from torsys.cohomology import CohomologyDims, cohomology_dims
from torsys.isometry import Isometry, Root, reflection, roots
from torsys.surface import BlowupRelation, DivisorClass, FanAutomorphism, GoodBasis, _set
from torsys.systems import (
    HirzebruchSystemClass,
    LineBundleSequence,
    ToricSystem,
    classify_hirzebruch,
    hirzebruch_system,
    standard_system,
    to_sequence,
)
from torsys.twist import TwistByCurve

# every record class with its fields, in constructor order
FIELDS = {
    DivisorClass: ("surface", "coeffs"),
    BlowupRelation: ("below", "above", "ray_index"),
    GoodBasis: ("surface", "elements", "blowdown_path", "terminal"),
    FanAutomorphism: ("surface", "lattice_map", "ray_permutation"),
    CohomologyDims: ("h0", "h1", "h2"),
    ToricSystem: ("surface", "entries"),
    LineBundleSequence: ("surface", "entries"),
    HirzebruchSystemClass: ("kind", "r", "i"),
    Root: ("cls",),
    Isometry: ("surface", "matrix"),
    TwistByCurve: ("surface", "curve_ray"),
    DeaugmentationStep: ("surface", "ray", "position"),
    ConstructibilityWitness: ("base_system", "base_class", "steps"),
    TwistApplication: ("curve_ray", "cases"),
    FullnessCertificate: ("verdict", "twists", "witness", "final_sequence", "notes"),
    OrbitReport: (
        "surface",
        "total",
        "exceptional_count",
        "constructible_count",
        "nonconstructible",
        "automorphism_pairing",
    ),
}


@pytest.fixture(scope="module")
def records():
    """One instance of each record class, as the library builds it."""
    x = rank5.surface()
    std = standard_system(x)
    report = orbit_report(x)
    cert = certify_full(to_sequence(report.nonconstructible[0]), max_depth=1)
    witness = is_constructible(std)
    root = roots(x)[0]
    built = [
        x.divisor(0),
        x.blow_down(1),
        x.good_basis(),
        x.fan_automorphisms()[1],
        cohomology_dims(x.divisor(0)),
        std,
        to_sequence(std),
        classify_hirzebruch(hirzebruch_system("A", 1, 0)),
        root,
        reflection(root),
        TwistByCurve(x, 0),
        witness.steps[0],
        witness,
        cert.twists[0],
        cert,
        report,
    ]
    return {type(r): r for r in built}


def test_every_record_class_has_an_instance(records):
    assert set(records) == set(FIELDS)


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_fields_cannot_be_set_or_deleted(records, cls):
    r = records[cls]
    for name in FIELDS[cls]:
        value = getattr(r, name)
        with pytest.raises(AttributeError):
            setattr(r, name, value)
        with pytest.raises(AttributeError):
            delattr(r, name)
        assert getattr(r, name) is value
    with pytest.raises(AttributeError):
        r.not_a_field = 0


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_equal_fields_make_equal_records(records, cls):
    r = records[cls]
    values = tuple(getattr(r, name) for name in FIELDS[cls])
    copy = cls(*values)
    assert copy is not r
    assert copy == r and not copy != r
    assert hash(copy) == hash(r)
    assert r != values and values != r


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_records_have_no_instance_dictionary(records, cls):
    r = records[cls]
    assert not hasattr(r, "__dict__")
    assert cls._fields == FIELDS[cls]
    assert cls.__slots__[: len(FIELDS[cls])] == FIELDS[cls]
    # only declared names can be stored, even past the record's __setattr__
    with pytest.raises(AttributeError):
        _set(r, "not_a_field", 0)


def _slot_values(r):
    """The slots of ``r`` that hold a value, by name."""
    return {name: getattr(r, name) for name in r.__slots__ if hasattr(r, name)}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_pickle_and_copy_round_trip(records, cls):
    r = records[cls]
    for clone in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r), copy.copy(r)):
        assert type(clone) is cls and clone is not r
        assert clone == r and hash(clone) == hash(r)
        assert repr(clone) == repr(r)
        # fields and the private values that were set, nothing more
        assert _slot_values(clone) == _slot_values(r)


def test_round_trip_keeps_the_lazy_values_that_are_set():
    x = rank5.surface()
    fresh = DivisorClass(x, (1, 1, 0, 0, 0, 0, 0))
    assert not hasattr(fresh, "_reduced")
    assert not hasattr(pickle.loads(pickle.dumps(fresh)), "_reduced")
    reduced = fresh.reduced()
    assert fresh._reduced is reduced
    assert pickle.loads(pickle.dumps(fresh))._reduced == reduced
    w = reflection(roots(x)[0])
    assert w._columns == tuple(zip(*w.matrix))
    assert copy.deepcopy(w)._columns == w._columns
    rel = x.blow_down(1)
    rel._drop_exceptional(x.divisor(0).coeffs, 1)
    assert pickle.loads(pickle.dumps(rel))._unit_relation == rel._unit_relation


def test_records_differ_in_any_field():
    a = HirzebruchSystemClass("A", 1, 0)
    assert a != HirzebruchSystemClass("Atilde", 1, 0)
    assert a != HirzebruchSystemClass("A", 3, 0)
    assert a != HirzebruchSystemClass("A", 1, 1)
    assert TwistApplication(2, (0, 1)) != TwistApplication(2, (1, 0))
    assert CohomologyDims(1, 0, 0) != CohomologyDims(0, 0, 1)
    assert FullnessCertificate("unknown", (), None, None) == FullnessCertificate(
        "unknown", (), None, None, ()
    )


def test_repr_names_each_field():
    assert repr(TwistApplication(curve_ray=2, cases=(0, 1))) == (
        "TwistApplication(curve_ray=2, cases=(0, 1))"
    )
    assert repr(HirzebruchSystemClass("A", 1, 0)) == "HirzebruchSystemClass(kind='A', r=1, i=0)"
    assert repr(CohomologyDims(1, 1, 0)) == "CohomologyDims(h0=1, h1=1, h2=0)"
    x = rank5.surface()
    assert repr(Root(x.divisor(0))) == "Root(cls=DivisorClass(1, 0, 0, 0, 0, 0, 0))"
    assert repr(TwistByCurve(x, 5)) == (
        "TwistByCurve(surface=TV(-2, -1, -1, -1, -1, -2, -1), curve_ray=5)"
    )
    assert repr(FullnessCertificate("unknown", (), None, None, ("depth 0",))) == (
        "FullnessCertificate(verdict='unknown', twists=(), witness=None, "
        "final_sequence=None, notes=('depth 0',))"
    )
    # the four classes that print themselves keep doing so
    assert repr(x.divisor(0)) == "DivisorClass(1, 0, 0, 0, 0, 0, 0)"
    assert repr(standard_system(x)) == (
        "ToricSystem(on=TV(-2, -1, -1, -1, -1, -2, -1), "
        "squares=(-2, -1, -1, -1, -1, -2, -1))"
    )


def test_root_rejects_classes_that_are_not_roots():
    x = rank5.surface()
    minus_one = x.divisor(1)  # a (-1)-curve
    assert (minus_one.square(), minus_one.k_degree()) == (-1, -1)
    with pytest.raises(ValueError, match="not a \\(-2\\)-class orthogonal to K"):
        Root(minus_one)
    disjoint = x.divisor(1) + x.divisor(3)  # two disjoint (-1)-curves
    assert (disjoint.square(), disjoint.k_degree()) == (-2, -2)
    with pytest.raises(ValueError, match="not a \\(-2\\)-class orthogonal to K"):
        Root(disjoint)
    assert Root(x.divisor(0)).cls == x.divisor(0)  # a (-2)-curve is a root


_VALIDATORS_SCRIPT = r"""
import sys

from torsys import from_selfints
from torsys.isometry import Root
from torsys.twist import TwistByCurve

if not sys.flags.optimize:
    sys.exit("run me under python -O")
x = from_selfints((-2, -1, -1, -1, -1, -2, -1))
for build in [
    lambda: Root(x.divisor(1)),
    lambda: Root(x.divisor(1) + x.divisor(3)),
    lambda: Root(x.divisor(0)),
    lambda: TwistByCurve(x, 1),
    lambda: TwistByCurve(x, 0),
]:
    try:
        build()
        print("accepted")
    except ValueError:
        print("rejected")
"""


def test_record_validators_fire_under_optimize():
    src = str(pathlib.Path(torsys.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _VALIDATORS_SCRIPT],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["rejected", "rejected", "accepted", "rejected", "accepted"]
