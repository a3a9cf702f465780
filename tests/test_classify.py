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
        for ray in minus_two_rays(x):
            t = TwistByCurve(x, ray)
            twisted = _twist(x.divisor(ray), system)
            checked += 1
            try:
                want = twist_sequence(t, seq)
            except NotALineBundle:
                assert twisted is None
                continue
            image, cases = twisted
            assert cases == twist_cases(t, seq)
            got = to_sequence(image)
            assert got == want
            assert [e.coeffs for e in got.entries] == [e.coeffs for e in want.entries]
            assert [a.coeffs for a in image.entries] == [
                a.coeffs for a in from_sequence(want).entries
            ]
            admissible += 1
    assert (checked, admissible) == {7: (196, 88), 8: (5664, 2688)}[x.n]


# sha256 of the sorted-key JSON list of certificate_to_json for the 536
# non-constructible rank-6 orbit systems at max_depth=3, taken when
# certify_full still searched over bundle sequences
RANK6_CERTIFICATES_DIGEST = "f63b1458294180e46d874cb9a20f203c9c97506c5313045bd5954387ccfa2043"


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
    from torsys.classify import _Memo, _search

    memo = _Memo()
    replayed = 0
    for s in orbit(standard_system(x), weyl_group(x)):
        if not is_exceptional(s):
            continue
        w = _search(s, memo)
        if w is None:
            continue
        assert w.replay() == s
        replayed += 1
    assert replayed == 96


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


def test_orbit_report_pairing_equals_the_quadratic_scan():
    from test_acceptance import _enumerate_blowups

    pool = [s for s in _enumerate_blowups(7) if s.pic_rank == 5]
    paired = 0
    for x in pool:
        rep = orbit_report(x)
        want = _quadratic_pairing(x, rep.nonconstructible)
        assert list(rep.automorphism_pairing) == want, x.selfints
        paired += len(want)
    assert paired > 0


def test_search_path_validates_only_its_input(monkeypatch):
    # orbit images, de-augmentations and twisted systems are built unchecked;
    # only the standard system and each certify_full input are validated
    calls = []
    validate = ToricSystem.validate.__func__

    def counting(cls, surface, entries):
        calls.append(surface)
        return validate(cls, surface, entries)

    monkeypatch.setattr(ToricSystem, "validate", classmethod(counting))
    rep = orbit_report(rank5.surface())
    assert len(calls) == 1
    for s in (standard_system(rank5.surface()),) + rep.nonconstructible:
        calls.clear()
        cert = certify_full(to_sequence(s), max_depth=1)
        assert cert.verdict == "full"
        assert len(calls) == 1


def test_orbit_report_builds_no_isometry(monkeypatch):
    # weyl_orbit reflects the standard system's entries directly, so the
    # classification layer never forms or validates a Weyl group matrix
    from torsys.isometry import Isometry

    built = []
    monkeypatch.setattr(Isometry, "__post_init__", lambda self: built.append(self))
    rep = orbit_report(rank5.surface())
    assert rep.total == 120
    assert built == []


_TAMPER_SCRIPT = r"""
import dataclasses, io, json, sys
from contextlib import redirect_stdout

import torsys.classify
from torsys import from_selfints
from torsys.classify import InvalidWitness, is_constructible
from torsys.cli import main
from torsys.systems import standard_system

if not sys.flags.optimize:
    sys.exit("run me under python -O")
x = from_selfints((-2, -1, -1, -1, -1, -2, -1))
std = standard_system(x)
witness = is_constructible(std)

# a step that records the wrong surface no longer replays
step = witness.steps[0]
forged = dataclasses.replace(step, surface=from_selfints(step.surface.selfints[::-1]))
try:
    dataclasses.replace(witness, steps=(forged,) + witness.steps[1:]).replay()
    print("replay accepted")
except InvalidWitness:
    print("replay rejected")

# the CLI refuses a witness that replays to another system
torsys.classify.is_constructible = lambda system: witness
rotated = std.rotate(1)
blob = json.dumps({"surface": list(x.selfints),
                   "entries": [list(a.coeffs) for a in rotated.entries]})
with redirect_stdout(io.StringIO()):
    code = main(["check-constructible", "--system", blob])
print("cli exit", code)

# certify-full replays its certificate: the genuine one passes, and forged
# cases, a forged final sequence and a witness for another system exit 2
import torsys.cli
from torsys.classify import TwistApplication, certify_full, orbit_report
from torsys.systems import to_sequence

seq = to_sequence(orbit_report(x).nonconstructible[0])
cert = certify_full(seq, max_depth=1)
(twist,) = cert.twists
forged_cases = dataclasses.replace(twist, cases=tuple(1 - c for c in twist.cases))
blob = json.dumps({"surface": list(x.selfints),
                   "entries": [list(e.coeffs) for e in seq.entries]})
for forged in [
    cert,
    dataclasses.replace(cert, twists=(forged_cases,)),
    dataclasses.replace(cert, final_sequence=seq),
    dataclasses.replace(cert, witness=witness),
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
