import pytest

from torsys import from_selfints
from torsys.classify import (
    NotExceptionalInput,
    certify_full,
    is_constructible,
    orbit_report,
)
from torsys.isometry import RankOutOfRange, orbit, weyl_group
from torsys.systems import (
    ToricSystem,
    from_sequence,
    hirzebruch_system,
    is_exceptional,
    standard_system,
    to_sequence,
)

import rank5


def test_standard_system_constructible():
    x = rank5.surface()
    w = is_constructible(standard_system(x))
    assert w is not None
    assert len(w.steps) == 3  # n: 7 -> 6 -> 5 -> 4
    assert w.base_system.surface.n == 4
    assert w.replay() == standard_system(x)


def test_witness_replay_is_exact():
    x = from_selfints((-1, -1, -2, -1, -1, 0))
    for s in orbit(standard_system(x), weyl_group(x)):
        if not is_exceptional(s):
            continue
        w = is_constructible(s)
        assert w is not None
        assert w.replay() == s
        # de-augmentation drops n by one at every step
        ns = [st.surface.n for st in w.steps]
        assert ns == list(range(x.n, 4, -1))
        assert w.base_class.is_exceptional_class()


def test_constructibility_is_rotation_and_mirror_invariant():
    # rotations move the exceptional entry through both wrap seams
    x = from_selfints((-1, -1, -2, -1, -1, 0))
    s = standard_system(x)
    for image in s.symmetry_images():
        w = is_constructible(image)
        assert w is not None
        assert w.replay() == image
    a = rank5.printed_system()
    for image in a.symmetry_images():
        assert is_constructible(image) is None


def test_printed_system_not_constructible():
    assert is_constructible(rank5.printed_system()) is None


def test_f_image_not_constructible():
    x = rank5.surface()
    a = rank5.printed_system()
    f = next(g for g in x.fan_automorphisms() if not g.is_identity())
    fa = ToricSystem.validate(x, tuple(f.apply(e) for e in a.entries))
    assert fa != a
    assert is_constructible(fa) is None


def test_not_exceptional_input_rejected():
    bad = hirzebruch_system("Atilde", 2, 1)
    assert not is_exceptional(bad)
    with pytest.raises(NotExceptionalInput):
        is_constructible(bad)
    with pytest.raises(NotExceptionalInput):
        certify_full(to_sequence(bad))


def test_hirzebruch_base_cases():
    # on a Hirzebruch surface itself, constructibility = exceptionality
    good = hirzebruch_system("A", 2, 1)
    w = is_constructible(good)
    assert w is not None and w.steps == ()


def test_certify_full_directly_constructible():
    x = rank5.surface()
    cert = certify_full(to_sequence(standard_system(x)), max_depth=1)
    assert cert.verdict == "full"
    assert cert.twists == ()
    assert cert.witness is not None


def test_certify_full_printed_sequence():
    seq = rank5.printed_sequence()
    cert = certify_full(seq, max_depth=1)
    assert cert.verdict == "full"
    assert len(cert.twists) == 1
    assert cert.twists[0].curve_ray in (0, 5)
    # soundness: the final sequence is independently constructible and the
    # witness replays to exactly its toric system
    final = from_sequence(cert.final_sequence)
    assert is_exceptional(final)
    assert cert.witness.replay() == final
    # the twist the matrices were printed for also certifies
    from torsys.twist import TwistByCurve, twist_sequence

    t = TwistByCurve(rank5.surface(), rank5.TWIST_RAY_FOR_PRINTED_TE)
    printed_final = twist_sequence(t, seq)
    assert printed_final == rank5.printed_twisted_sequence()
    assert is_constructible(from_sequence(printed_final)) is not None


def test_certify_full_f_image():
    x = rank5.surface()
    a = rank5.printed_system()
    f = next(g for g in x.fan_automorphisms() if not g.is_identity())
    fa = ToricSystem.validate(x, tuple(f.apply(e) for e in a.entries))
    cert = certify_full(to_sequence(fa), max_depth=1)
    assert cert.verdict == "full"
    assert len(cert.twists) == 1


def test_certify_full_unknown_at_depth_zero():
    seq = rank5.printed_sequence()
    cert = certify_full(seq, max_depth=0)
    assert cert.verdict == "unknown"
    assert cert.notes  # search limits recorded
    assert cert.notes[-1] == "depth cap reached"


def test_certify_full_stops_on_exhausted_twist_closure():
    # P^2 has no (-2)-curve, so no twist applies and the search ends at
    # depth 0 whatever the cap; a loop run to the cap would take minutes
    import time

    p2 = from_selfints((1, 1, 1))
    line = p2.divisor(0)
    seq = to_sequence(ToricSystem.validate(p2, [line, line, line]))
    start = time.perf_counter()
    cert = certify_full(seq, max_depth=10**9)
    assert time.perf_counter() - start < 10
    assert cert.verdict == "unknown"
    assert cert.notes[-1] == "twist closure exhausted at depth 0"


@pytest.mark.parametrize(
    "selfints", [rank5.SELFINTS, (-2, -1, -2, -1, -2, -1, -2, -1)], ids=["rank5", "rank6"]
)
def test_system_twist_matches_twist_sequence(selfints):
    # certify_full twists toric systems; twist_sequence / twist_cases are the
    # bundle-level definition, and both must give the same certificates
    from torsys.classify import _twist
    from torsys.twist import (
        NotALineBundle,
        TwistByCurve,
        minus_two_rays,
        twist_cases,
        twist_sequence,
    )

    x = from_selfints(selfints)
    checked = admissible = 0
    for s in orbit(standard_system(x), weyl_group(x)):
        if not is_exceptional(s):
            continue
        # the system certify_full searches from: its last entry is -K minus
        # the others, coefficient by coefficient
        seq = to_sequence(s)
        system = from_sequence(seq)
        coeffs = tuple(a.coeffs for a in system.entries)
        for ray in minus_two_rays(x):
            t = TwistByCurve(x, ray)
            twisted = _twist(x, ray, coeffs)
            checked += 1
            try:
                want = twist_sequence(t, seq)
            except NotALineBundle:
                assert twisted is None
                continue
            image, cases = twisted
            assert cases == twist_cases(t, seq)
            got = to_sequence(ToricSystem(x, tuple(x.divisor_class(c) for c in image)))
            assert got == want
            assert [e.coeffs for e in got.entries] == [e.coeffs for e in want.entries]
            assert list(image) == [a.coeffs for a in from_sequence(want).entries]
            admissible += 1
    assert (checked, admissible) == {7: (196, 88), 8: (5664, 2688)}[x.n]


# sha256 of the sorted-key JSON list of certificate_to_json for the 536
# non-constructible rank-6 orbit systems at max_depth=3, taken when
# certify_full still searched over bundle sequences
RANK6_CERTIFICATES_DIGEST = "f63b1458294180e46d874cb9a20f203c9c97506c5313045bd5954387ccfa2043"


RANK6 = (-2, -1, -2, -1, -2, -1, -2, -1)


def test_rank6_certificates_are_pinned():
    import hashlib
    import json

    from torsys.schema import certificate_to_json

    x = from_selfints((-2, -1, -2, -1, -2, -1, -2, -1))
    systems = [s for s in orbit(standard_system(x), weyl_group(x)) if is_exceptional(s)]
    nonconstructible = [s for s in systems if is_constructible(s) is None]
    assert len(nonconstructible) == 536
    certs = [certify_full(to_sequence(s), max_depth=3) for s in nonconstructible]
    blob = json.dumps([certificate_to_json(c) for c in certs], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == RANK6_CERTIFICATES_DIGEST


# sha256 of the sorted-key JSON list of witness_to_json (null for None) of
# is_constructible on the 1416 exceptional rank-6 orbit systems, in the order
# of orbit(standard_system(x), weyl_group(x)); taken when witnesses were still
# rebuilt through deaugment on DivisorClass objects
RANK6_WITNESSES_DIGEST = "a55c2252adab6fd10844da86a8ad8c1a3a4ed8da78eff487e4908c93c978aca5"


def _rank6_witnesses_digest():
    import hashlib
    import json

    from torsys.schema import witness_to_json

    x = from_selfints(RANK6)
    witnesses = [
        is_constructible(s)
        for s in orbit(standard_system(x), weyl_group(x))
        if is_exceptional(s)
    ]
    assert len(witnesses) == 1416
    blob = json.dumps(
        [None if w is None else witness_to_json(w) for w in witnesses], sort_keys=True
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def test_rank6_certificates_do_not_depend_on_the_search_cache():
    # the searches of two orbit reports fill the class tables' memos first,
    # and the certificates are then made in reverse order: each witness is
    # replayed on its own input's coefficients, so the digests stay put
    import hashlib
    import json

    from torsys.schema import certificate_to_json
    from torsys.systems import _clear_class_tables, _memo_info

    _clear_class_tables()
    orbit_report(rank5.surface())
    nonconstructible = orbit_report(from_selfints(RANK6)).nonconstructible
    assert len(nonconstructible) == 536
    assert _memo_info("paths").currsize > 0
    assert _memo_info("exceptional").currsize > 0
    certs = [
        certify_full(to_sequence(s), max_depth=3) for s in reversed(nonconstructible)
    ]
    blob = json.dumps([certificate_to_json(c) for c in certs[::-1]], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == RANK6_CERTIFICATES_DIGEST
    assert _rank6_witnesses_digest() == RANK6_WITNESSES_DIGEST


def test_rank6_certificates_and_witnesses_from_cold_caches():
    # the same digests when the searches and the exceptionality tests start
    # from empty class tables
    import hashlib
    import json

    from torsys.schema import certificate_to_json
    from torsys.systems import _clear_class_tables

    _clear_class_tables()
    assert _rank6_witnesses_digest() == RANK6_WITNESSES_DIGEST
    _clear_class_tables()
    x = from_selfints(RANK6)
    certs = [
        certify_full(to_sequence(s), max_depth=3)
        for s in orbit(standard_system(x), weyl_group(x))
        if is_exceptional(s) and is_constructible(s) is None
    ]
    assert len(certs) == 536
    blob = json.dumps([certificate_to_json(c) for c in certs], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == RANK6_CERTIFICATES_DIGEST


def test_census_tests_each_system_for_exceptionality_once():
    # is_constructible and certify_full test their inputs again, and every
    # twisted image lies in the orbit: the exceptionality memo answers
    # those repeats, and certify_full tests no system the census has not
    from torsys.systems import _clear_class_tables, _memo_info

    _clear_class_tables()
    x = from_selfints(RANK6)
    systems = orbit(standard_system(x), weyl_group(x))
    exceptional = [s for s in systems if is_exceptional(s)]
    info = _memo_info("exceptional")
    assert (info.hits, info.misses) == (0, 1920)
    nonconstructible = [s for s in exceptional if is_constructible(s) is None]
    searched = _memo_info("exceptional")
    # each of the 1416 inputs is a hit, and so is every de-augmented system
    # that an earlier search already met
    assert searched.hits >= 1416
    certs = [certify_full(to_sequence(s), max_depth=3) for s in nonconstructible]
    assert all(c.verdict == "full" for c in certs)
    certified = _memo_info("exceptional")
    assert certified.misses == searched.misses
    assert certified.hits - searched.hits >= 536


def _count_calls(monkeypatch, modules, name):
    """Wrap the function ``name`` in each of ``modules`` (the same function,
    imported into each) with one shared call counter."""
    calls = []
    real = getattr(modules[0], name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


def test_each_public_call_interns_its_input_once(monkeypatch):
    # is_exceptional, is_constructible and certify_full intern their input
    # once each, and orbit_report interns each orbit system once for both
    # kernels, all through the one door _entry_ids; a search reaches the
    # tables below through its caller's table.  certify_full validates its
    # input once, with _check_axioms, which interns nothing, and then enters
    # the tables
    import torsys.classify
    import torsys.systems

    entered = _count_calls(monkeypatch, [torsys.systems, torsys.classify], "_entry_ids")
    validated = _count_calls(monkeypatch, [torsys.classify], "_check_axioms")
    x = from_selfints(RANK6)
    systems = orbit(standard_system(x), weyl_group(x))
    exceptional = [s for s in systems if is_exceptional(s)]
    nonconstructible = [s for s in exceptional if is_constructible(s) is None]
    assert (len(entered), len(validated)) == (1920 + 1416, 0)
    for s in nonconstructible:
        certify_full(to_sequence(s), max_depth=3)
    assert (len(entered), len(validated)) == (1920 + 1416 + 536, 536)
    assert len(entered) == 3872
    entered.clear()
    rep = orbit_report(rank5.surface())
    assert (rep.total, rep.exceptional_count, rep.constructible_count) == (120, 98, 96)
    assert len(entered) == 120


def test_census_asks_each_class_once(monkeypatch):
    # the class tables are the one memo of cohomology answers: every
    # cohomology_dims call of a census from cold tables sets one vanishing
    # bit, and no class is asked twice
    import torsys.cohomology
    from torsys.systems import _class_tables, _clear_class_tables

    asked = _count_calls(monkeypatch, [torsys.cohomology], "cohomology_dims")
    _clear_class_tables()
    x = from_selfints(RANK6)
    systems = orbit(standard_system(x), weyl_group(x))
    exceptional = [s for s in systems if is_exceptional(s)]
    nonconstructible = [s for s in exceptional if is_constructible(s) is None]
    certs = [certify_full(to_sequence(s), max_depth=3) for s in nonconstructible]
    assert all(c.verdict == "full" for c in certs)
    bits = sum(b is not None for t in _class_tables.values() for b in t.bad)
    assert len(asked) == bits == 757
    keys = {(d.surface.selfints, d.reduced()) for (d,) in asked}
    assert len(keys) == len(asked)


def test_census_pairing_and_pushdown_tables_are_counted_and_dropped():
    # a cold rank-6 census fills the class tables with classes, sums, the
    # exceptionality and search memos and the search's pushdown memos per
    # ray; every stored entry counts toward CLASS_TABLE_CAP, and dropping
    # the tables empties them all
    from torsys.systems import _class_tables, _ClassTable, _clear_class_tables, _memo_info

    _clear_class_tables()
    x = from_selfints(RANK6)
    systems = orbit(standard_system(x), weyl_group(x))
    exceptional = [s for s in systems if is_exceptional(s)]
    nonconstructible = [s for s in exceptional if is_constructible(s) is None]
    certs = [certify_full(to_sequence(s), max_depth=3) for s in nonconstructible]
    assert all(c.verdict == "full" for c in certs)
    stored = sum(
        len(t.classes)
        + sum(map(len, t.sums))
        + len(t.exceptional)
        + len(t.paths)
        + sum(len(pushed) for *_, pushed in t.__dict__.get("contractible", ()))
        for t in _class_tables.values()
    )
    # 11,051: the Weyl group's validation keeps no pairing table (it held
    # 1,736 pairings) and interns no columns (56), and certify_full's
    # validation reads no stored pairing
    assert _ClassTable.entries == stored == 11051
    _clear_class_tables()
    assert _memo_info("paths") == _memo_info("exceptional") == (0, 0, 0)
    assert _ClassTable.entries == 0


def test_rank6_census_under_a_tiny_class_table_cap(monkeypatch):
    # the tables and their memos are dropped only in _entry_ids, the one
    # top-level door, whenever they hold more than the cap; ids held by an
    # outer frame of a search (certify_full's seen-set among them) never go
    # stale, so a census that keeps dropping them gives the same answers
    import hashlib
    import json
    from collections import Counter

    import torsys.systems
    from torsys.schema import certificate_to_json

    clear = torsys.systems._clear_class_tables
    clears = []

    def counting():
        clears.append(torsys.systems._ClassTable.entries)
        clear()

    clear()
    monkeypatch.setattr(torsys.systems, "CLASS_TABLE_CAP", 50)
    monkeypatch.setattr(torsys.systems, "_clear_class_tables", counting)
    x = from_selfints(RANK6)
    systems = orbit(standard_system(x), weyl_group(x))
    exceptional = [s for s in systems if is_exceptional(s)]
    nonconstructible = [s for s in exceptional if is_constructible(s) is None]
    certs = [certify_full(to_sequence(s), max_depth=3) for s in nonconstructible]
    assert (len(systems), len(exceptional), len(nonconstructible)) == (1920, 1416, 536)
    assert Counter(len(c.twists) for c in certs if c.verdict == "full") == {1: 480, 2: 48, 3: 8}
    blob = json.dumps([certificate_to_json(c) for c in certs], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == RANK6_CERTIFICATES_DIGEST
    # without the cap the census leaves 11,051 entries; with it, the tables
    # are dropped before most of the 3,872 entries into them (_entry_ids
    # calls, from _system_ids and from certify_full after its validation)
    assert len(clears) > 1000
    assert all(entries > 50 for entries in clears)


def test_orbit_report_rank5():
    rep = orbit_report(rank5.surface())
    assert rep.total == 120
    assert rep.exceptional_count == 98
    assert rep.constructible_count == 96
    assert len(rep.nonconstructible) == 2
    # the printed system is one of them, on the nose
    assert any(s == rank5.printed_system() for s in rep.nonconstructible)
    # the two are exchanged by the fan automorphism with f*[D_1] = [D_6]
    assert len(rep.automorphism_pairing) == 2
    for i, j, f in rep.automorphism_pairing:
        assert {i, j} == {0, 1}
        x = rank5.surface()
        assert f.apply(x.divisor(0)) == x.divisor(5)


def test_rank5_orbit_every_witness_replays():
    x = rank5.surface()
    replayed = 0
    for s in orbit(standard_system(x), weyl_group(x)):
        if not is_exceptional(s):
            continue
        w = is_constructible(s)
        if w is None:
            continue
        assert w.replay() == s
        replayed += 1
    assert replayed == 96


class _ReferenceMemo:
    def __init__(self):
        self.false_keys = set()
        self.witnesses = {}


def _reference_search(system, memo):
    """The object-level de-augmentation search with a memo of one top-level
    call, as the library ran it before its cached kernel on reduced tuples:
    failures are kept up to rotation/mirror, successes under
    ToricSystem.key(); the failure key is the least entry-coordinate tuple
    over the rotations and mirrors of the system."""
    from torsys.classify import ConstructibilityWitness, DeaugmentationStep
    from torsys.surface import InternalInconsistency, _least_rotation
    from torsys.systems import classify_hirzebruch, deaugment

    x = system.surface
    if x.n == 4:
        label = classify_hirzebruch(system)
        exceptional = label.is_exceptional_class()
        if exceptional != is_exceptional(system):
            raise InternalInconsistency("label disagrees with exceptionality")
        return ConstructibilityWitness(system, label, ()) if exceptional else None
    if x.n < 4:
        return None
    exact = system.key()
    if exact in memo.witnesses:
        return memo.witnesses[exact]
    canon = (x.selfints, _least_rotation(tuple(a.coords() for a in system.entries)))
    if canon in memo.false_keys:
        return None
    reduced = [entry.reduced() for entry in system.entries]
    for ray in x.contractible_rays():
        r = x.divisor(ray).reduced()
        for position, entry in enumerate(reduced):
            if entry != r:
                continue
            sub, _ = deaugment(system, position, ray)
            if not is_exceptional(sub):
                raise InternalInconsistency("de-augmentation went non-exceptional")
            sub_witness = _reference_search(sub, memo)
            if sub_witness is not None:
                step = DeaugmentationStep(x, ray, position)
                witness = ConstructibilityWitness(
                    sub_witness.base_system,
                    sub_witness.base_class,
                    (step,) + sub_witness.steps,
                )
                memo.witnesses[exact] = witness
                return witness
    memo.false_keys.add(canon)
    return None


@pytest.mark.parametrize("selfints", [rank5.SELFINTS, RANK6], ids=["rank5", "rank6"])
def test_search_kernel_equals_the_object_level_reference(selfints):
    # same verdict and the same witness, coefficient by coefficient, on every
    # exceptional orbit system, as the class tables fill from cold
    from torsys.isometry import weyl_orbit
    from torsys.schema import witness_to_json
    from torsys.systems import _clear_class_tables

    x = from_selfints(selfints)
    _clear_class_tables()
    failed = 0
    for s in weyl_orbit(x):
        if not is_exceptional(s):
            continue
        want = _reference_search(s, _ReferenceMemo())
        got = is_constructible(s)
        assert (got is None) == (want is None)
        if want is None:
            failed += 1
        else:
            assert witness_to_json(got) == witness_to_json(want)
    assert failed == {7: 2, 8: 536}[x.n]


def test_search_kernel_checks_fire_and_leave_no_cache_entry(monkeypatch):
    import torsys.classify
    from torsys.surface import InternalInconsistency
    from torsys.systems import HirzebruchSystemClass, _clear_class_tables, _memo_info

    real = torsys.classify._is_exceptional_ids
    rank6 = standard_system(from_selfints(RANK6))
    _clear_class_tables()
    with monkeypatch.context() as m:
        # the 8-ray input passes; its first 7-ray de-augmentation does not
        m.setattr(
            torsys.classify,
            "_is_exceptional_ids",
            lambda table, ids: table.surface.n != 7 and real(table, ids),
        )
        with pytest.raises(InternalInconsistency, match="non-exceptional"):
            is_constructible(rank6)
    # the search raised before any search below it finished: no answer is kept
    assert _memo_info("paths") == (0, 1, 0)
    with monkeypatch.context() as m:
        m.setattr(
            torsys.classify,
            "classify_hirzebruch",
            lambda system: HirzebruchSystemClass("Atilde", 2, 1),
        )
        with pytest.raises(InternalInconsistency, match="disagrees"):
            is_constructible(standard_system(rank5.surface()))
    assert is_constructible(rank6) is not None


def test_search_kernel_raises_internal_inconsistency_on_a_bad_pushdown():
    # a search that pushes down an entry meeting the exceptional class is a
    # bug, not an input error; the public pushdown keeps its ValueError
    from torsys.classify import _path
    from torsys.surface import InternalInconsistency
    from torsys.systems import _class_table

    x = rank5.surface()
    e = x.contractible_rays()[0]
    entries = [x.divisor(i).reduced() for i in range(x.n)]
    # D_{e+2} + D_e meets D_e in -1
    far = (e + 2) % x.n
    entries[far] = x.reduce_coeffs(
        tuple(a + b for a, b in zip(x.divisor(far).coeffs, x.divisor(e).coeffs))
    )
    table = _class_table(x.selfints)
    with pytest.raises(InternalInconsistency, match="orthogonal complement"):
        _path(table, tuple(map(table.intern, entries)))


_LABEL_CHECK_SCRIPT = r"""
import sys

import torsys.classify
from torsys import from_selfints
from torsys.classify import is_constructible
from torsys.surface import InternalInconsistency
from torsys.systems import HirzebruchSystemClass, standard_system

if not sys.flags.optimize:
    sys.exit("run me under python -O")
torsys.classify.classify_hirzebruch = lambda s: HirzebruchSystemClass("Atilde", 2, 1)
try:
    is_constructible(standard_system(from_selfints((-2, -1, -1, -1, -1, -2, -1))))
    print("accepted")
except InternalInconsistency:
    print("label check fired")
"""


def test_search_kernel_label_check_fires_under_optimize():
    import os
    import pathlib
    import subprocess
    import sys

    import torsys

    src = str(pathlib.Path(torsys.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _LABEL_CHECK_SCRIPT],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "label check fired\n"


_REBUILD_CHECKS_SCRIPT = r"""
import sys

from torsys import from_selfints
from torsys.classify import _path, _witness, is_constructible
from torsys.surface import InternalInconsistency
from torsys.systems import _system_ids, standard_system

if not sys.flags.optimize:
    sys.exit("run me under python -O")
x = from_selfints((-2, -1, -1, -1, -1, -2, -1))
std = standard_system(x)
coeffs = tuple(a.coeffs for a in std.entries)
moves, label = _path(*_system_ids(std))
ray, position = moves[0]
print("genuine", len(is_constructible(std).steps))

# the first move points at the entry after the ray's class
shifted = (((ray, (position + 1) % x.n),) + moves[1:], label)
try:
    _witness(x, coeffs, shifted)
    print("accepted")
except InternalInconsistency as exc:
    print("position check fired:", "does not reverse an augmentation" in str(exc))

# D_{ray+2} + D_ray meets D_ray in -1; such entries are no toric system, so
# only moves from a broken search could bring the rebuild to them
far = (ray + 2) % x.n
bad = list(coeffs)
bad[far] = tuple(a + b for a, b in zip(coeffs[far], x.divisor(ray).coeffs))
try:
    _witness(x, tuple(bad), (((ray, ray),), label))
    print("accepted")
except InternalInconsistency as exc:
    print("orthogonality check fired:", "orthogonal complement" in str(exc))
"""


def test_witness_rebuild_checks_fire_under_optimize():
    # _witness rebuilds a witness from the kernel's moves on coefficient
    # tuples; a move whose position does not hold the ray's class, and an
    # entry that meets the exceptional class, are bugs and raise under -O
    import os
    import pathlib
    import subprocess
    import sys

    import torsys

    src = str(pathlib.Path(torsys.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _REBUILD_CHECKS_SCRIPT],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "genuine 3",
        "position check fired: True",
        "orthogonality check fired: True",
    ]


def test_orbit_report_rank4_all_constructible():
    rep = orbit_report(from_selfints((-1, -1, -1, -1, -1, -1)))
    assert rep.exceptional_count == rep.constructible_count
    assert rep.nonconstructible == ()


def test_orbit_report_rank_out_of_range():
    with pytest.raises(RankOutOfRange):
        orbit_report(from_selfints((1, 1, 1)))
    with pytest.raises(RankOutOfRange):
        orbit_report(from_selfints((2, 0, -2, 0)))
    x = from_selfints((1, 1, 1))
    for _ in range(6):
        x = x.blow_up(0).above
    assert x.pic_rank == 7
    with pytest.raises(RankOutOfRange):
        orbit_report(x)


def test_orbit_report_rank6():
    x = from_selfints((-2, -1, -2, -1, -2, -1, -2, -1))
    rep = orbit_report(x)
    assert (rep.total, rep.exceptional_count, len(rep.nonconstructible)) == (1920, 1416, 536)
    assert rep.automorphism_pairing
    for i, j, f in rep.automorphism_pairing:
        a, b = rep.nonconstructible[i], rep.nonconstructible[j]
        assert i != j
        assert tuple(f.apply(e) for e in a.entries) == b.entries


def _quadratic_pairing(x, nonconstructible):
    """For every ordered pair (i, j), i != j, the first non-identity fan
    automorphism that maps system i to system j."""
    autos = [f for f in x.fan_automorphisms() if not f.is_identity()]
    pairing = []
    for i, a in enumerate(nonconstructible):
        for j, b in enumerate(nonconstructible):
            if i == j:
                continue
            for f in autos:
                if ToricSystem(x, tuple(f.apply(e) for e in a.entries)) == b:
                    pairing.append((i, j, f))
                    break
    return pairing


def test_orbit_report_pairing_equals_the_quadratic_scan(monkeypatch):
    from test_acceptance import _enumerate_blowups

    from torsys.surface import FanAutomorphism

    pool = [s for s in _enumerate_blowups(7) if s.pic_rank == 5]
    paired = 0
    for x in pool:
        rep = orbit_report(x)
        want = _quadratic_pairing(x, rep.nonconstructible)
        assert list(rep.automorphism_pairing) == want, x.selfints
        paired += len(want)
    assert paired > 0
    # at rank 6 the pairing maps each of the 51 distinct entry classes of
    # the 536 non-constructible systems once per automorphism (8 with the
    # identity), not every entry of every system
    calls = []
    apply = FanAutomorphism.apply
    monkeypatch.setattr(FanAutomorphism, "apply", lambda f, c: calls.append(c) or apply(f, c))
    x = from_selfints(RANK6)
    rep = orbit_report(x)
    assert (len(rep.nonconstructible), len(x.fan_automorphisms())) == (536, 8)
    assert len({c for s in rep.nonconstructible for c in s.entries}) == 51
    assert len(calls) == 408


def test_search_path_validates_only_its_input(monkeypatch):
    # orbit images, de-augmentations and twisted systems are built unchecked;
    # only the standard system and each certify_full input are validated,
    # through the one validation body that ToricSystem.validate,
    # from_sequence and certify_full share
    import torsys.classify
    import torsys.systems

    calls = _count_calls(monkeypatch, [torsys.systems, torsys.classify], "_check_axioms")
    rep = orbit_report(rank5.surface())
    assert len(calls) == 1
    for s in (standard_system(rank5.surface()),) + rep.nonconstructible:
        calls.clear()
        cert = certify_full(to_sequence(s), max_depth=1)
        assert cert.verdict == "full"
        assert len(calls) == 1


@pytest.mark.parametrize("cache", ["cold", "warm"])
def test_search_path_validates_only_its_input_from_either_cache(monkeypatch, cache):
    # whether the searches run or come from the class tables' memo
    from torsys.systems import _clear_class_tables

    _clear_class_tables()
    if cache == "warm":
        for s in orbit_report(rank5.surface()).nonconstructible:
            certify_full(to_sequence(s), max_depth=1)
    test_search_path_validates_only_its_input(monkeypatch)


def test_orbit_report_validates_only_the_reflections(monkeypatch):
    # weyl_orbit reflects the standard system's entries directly, so the
    # classification layer never forms a Weyl group matrix: the only
    # matrices it validates are the 10 distinct reflections, once each
    from torsys.isometry import Isometry, reflection, roots

    built = []
    monkeypatch.setattr(Isometry, "_check", lambda self: built.append(self.matrix))
    x = rank5.surface()
    rep = orbit_report(x)
    assert rep.total == 120
    assert len(built) == len(set(built)) == 10
    assert set(built) == {reflection(r).matrix for r in roots(x)}


_TAMPER_SCRIPT = r"""
import io, json, sys
from contextlib import redirect_stdout

import torsys.cli
from torsys import from_selfints
from torsys.classify import (
    ConstructibilityWitness, DeaugmentationStep, InvalidWitness, is_constructible,
)
from torsys.cli import main
from torsys.systems import standard_system

if not sys.flags.optimize:
    sys.exit("run me under python -O")
x = from_selfints((-2, -1, -1, -1, -1, -2, -1))
std = standard_system(x)
witness = is_constructible(std)

# a step that records the wrong surface no longer replays
step = witness.steps[0]
forged = DeaugmentationStep(from_selfints(step.surface.selfints[::-1]), step.ray, step.position)
try:
    ConstructibilityWitness(
        witness.base_system, witness.base_class, (forged,) + witness.steps[1:]
    ).replay()
    print("replay accepted")
except InvalidWitness:
    print("replay rejected")

# the CLI refuses a witness that replays to another system
torsys.cli.is_constructible = lambda system: witness
rotated = std.rotate(1)
blob = json.dumps({"surface": list(x.selfints),
                   "entries": [list(a.coeffs) for a in rotated.entries]})
with redirect_stdout(io.StringIO()):
    code = main(["check-constructible", "--system", blob])
print("cli exit", code)

# certify-full replays its certificate: the genuine one passes, and forged
# cases, a forged final sequence and a witness for another system exit 2
from torsys.classify import FullnessCertificate, TwistApplication, certify_full, orbit_report
from torsys.systems import to_sequence

seq = to_sequence(orbit_report(x).nonconstructible[0])
cert = certify_full(seq, max_depth=1)
(twist,) = cert.twists
forged_cases = TwistApplication(twist.curve_ray, tuple(1 - c for c in twist.cases))
blob = json.dumps({"surface": list(x.selfints),
                   "entries": [list(e.coeffs) for e in seq.entries]})
for forged in [
    cert,
    FullnessCertificate(cert.verdict, (forged_cases,), cert.witness, cert.final_sequence, cert.notes),
    FullnessCertificate(cert.verdict, cert.twists, cert.witness, seq, cert.notes),
    FullnessCertificate(cert.verdict, cert.twists, witness, cert.final_sequence, cert.notes),
]:
    torsys.cli.certify_full = lambda seq, max_depth, forged=forged: forged
    with redirect_stdout(io.StringIO()):
        code = main(["certify-full", "--sequence", blob])
    print("certify exit", code)
"""


def test_tampered_witness_rejected_under_optimize():
    import os
    import pathlib
    import subprocess
    import sys

    import torsys

    src = str(pathlib.Path(torsys.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _TAMPER_SCRIPT],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:6] == [
        "replay rejected",
        "cli exit 2",
        "certify exit 0",
        "certify exit 2",
        "certify exit 2",
        "certify exit 2",
    ]
    assert proc.stderr.count("InvalidWitness") == 4
