import json

import pytest

from torsys.cli import main

import rank5


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, "--format", "json", *argv)
    return code, json.loads(out)


def test_surface_command(capsys):
    code, data = run_json(capsys, "surface", "--surface", "[-2,-1,-1,-1,-1,-2,-1]")
    assert code == 0
    assert data["pic_rank"] == 5
    assert data["k_squared"] == 5
    assert data["minus_two_rays"] == [0, 5]


def test_surface_command_bad_input(capsys, tmp_path):
    code = main(["surface", "--surface", "[0,0,0]"])
    assert code == 2
    code = main(["surface", "--surface", "not json at all ["])
    assert code == 2
    # json raises RecursionError past the interpreter's recursion limit, and
    # the reader turns it into an input error, inline and from a file
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 5000)
    capsys.readouterr()
    for text in (deep.read_text(), str(deep)):
        assert main(["surface", "--surface", text]) == 2
        assert capsys.readouterr().err == "error: ValueError('the JSON input is nested too deeply')\n"


def test_cohomology_command(capsys):
    code, data = run_json(
        capsys, "cohomology", "--surface", "[1,1,1]", "--class", "[-1,0,0]", "--oracle"
    )
    assert code == 0
    assert (data["h0"], data["h1"], data["h2"]) == (0, 0, 0)
    assert data["agree"] is True


def test_cohomology_oracle_box_cap_exits_2(capsys):
    code = main(["cohomology", "--surface", "[1,1,1]", "--class", "[3000,0,0]", "--oracle"])
    assert code == 2
    assert "OracleBoxTooLarge" in capsys.readouterr().err


def test_cohomology_h0_cap_exits_2(capsys):
    code = main(["cohomology", "--surface", "[1,1,1]", "--class", "[10000000,0,0]"])
    assert code == 2
    assert "H0TooLarge" in capsys.readouterr().err


def test_cohomology_h0_scans_the_polytope_not_the_arrangement(capsys):
    # h0 = 1, though two facet lines meet 10^7 columns away from the polytope
    code, out = run(capsys, "cohomology", "--surface", "[1,0,-1,0]", "--class", "[0,0,10000000,0]")
    assert code == 0
    assert out.startswith("h = (1, 49999995000000, 0)")


def test_check_system_command(capsys, tmp_path):
    system = {
        "surface": {"selfints": [1, 1, 1]},
        "entries": [[1, 0, 0], [1, 0, 0], [1, 0, 0]],
    }
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system))
    code, data = run_json(capsys, "check-system", "--system", str(path))
    assert code == 0 and data["valid"] is True

    bad = dict(system, entries=[[1, 0, 0], [1, 0, 0], [2, 0, 0]])
    code, data = run_json(capsys, "check-system", "--system", json.dumps(bad))
    assert code == 1 and data["valid"] is False


def test_check_exceptional_and_constructible(capsys):
    system = {
        "surface": {"selfints": list(rank5.SELFINTS)},
        "entries": [list(a.coeffs) for a in rank5.printed_system().entries],
    }
    blob = json.dumps(system)
    code, data = run_json(capsys, "check-exceptional", "--system", blob)
    assert code == 0 and data["exceptional"] is True
    code, data = run_json(capsys, "check-constructible", "--system", blob)
    assert code == 1 and data["constructible"] is False

    std = {
        "surface": {"selfints": list(rank5.SELFINTS)},
        "entries": [[1 if j == i else 0 for j in range(7)] for i in range(7)],
    }
    code, data = run_json(capsys, "check-constructible", "--system", json.dumps(std))
    assert code == 0 and data["constructible"] is True
    assert len(data["witness"]["steps"]) == 3


def test_certify_full_command(capsys):
    seq = {
        "surface": {"selfints": list(rank5.SELFINTS)},
        "entries": [list(e.coeffs) for e in rank5.printed_sequence().entries],
    }
    code, data = run_json(capsys, "certify-full", "--max-depth", "1", "--sequence", json.dumps(seq))
    assert code == 0
    assert data["verdict"] == "full"
    assert len(data["twists"]) == 1
    assert data["witness"] is not None


def test_certify_full_final_round_trip(capsys):
    # the certified final sequence is directly constructible
    seq = {
        "surface": {"selfints": list(rank5.SELFINTS)},
        "entries": [list(e.coeffs) for e in rank5.printed_sequence().entries],
    }
    code, data = run_json(capsys, "certify-full", "--sequence", json.dumps(seq))
    assert code == 0 and len(data["twists"]) == 1
    code, again = run_json(capsys, "certify-full", "--sequence", json.dumps(data["final"]))
    assert code == 0
    assert again["verdict"] == "full"
    assert again["twists"] == []
    assert again["final"] == data["final"]


def test_certify_full_command_exhausted_closure(capsys):
    # no twist applies on P^2, so a huge depth cap costs nothing
    seq = '{"surface":[1,1,1],"entries":[[0,0,0],[1,0,0],[2,0,0]]}'
    code, data = run_json(capsys, "certify-full", "--sequence", seq, "--max-depth", "20000000")
    assert code == 1
    assert data["verdict"] == "unknown"
    assert data["notes"][-1] == "twist closure exhausted at depth 0"


def test_orbit_report_command(capsys):
    code, data = run_json(capsys, "orbit-report", "--surface", "[-1,-1,-1,0,0]")
    assert code == 0
    assert data["total"] == 2
    assert data["nonconstructible"] == []


def test_reproduce_paper(capsys):
    code, data = run_json(capsys, "reproduce-paper")
    assert code == 0
    assert data["ok"] is True
    assert data["total"] == 120
    assert data["exceptional"] == 98
    assert len(data["nonconstructible"]) == 2
    assert all(c["verdict"] == "full" for c in data["certificates"])
    assert all(len(c["twists"]) == 1 for c in data["certificates"])


def test_reproduce_paper_deterministic(capsys):
    import hashlib

    code1, out1 = run(capsys, "reproduce-paper")
    code2, out2 = run(capsys, "reproduce-paper")
    assert code1 == code2 == 0
    assert out1 == out2
    # the text output is pinned as the JSON output is by the golden file
    assert len(out1.encode()) == 1326
    digest = "a6c25adc7565d3fa1509e7c956ee14fa67a0d91bc61502f6767f15d540f2bf0f"
    assert hashlib.sha256(out1.encode()).hexdigest() == digest


def test_rank6_orbit_report_pinned(capsys):
    # the rank-6 orbit report, in both formats, is pinned as the rank-5
    # reproduce-paper output is: the Weyl closure and the searches behind
    # it may change, its bytes may not
    import hashlib

    surface = ("--surface", "[-2,-1,-2,-1,-2,-1,-2,-1]")
    for fmt, digest in (
        ("json", "8a6d48de9790fc0820cb04ec3e1f74dba12249a6fd75499ea7ecc8c6e45d22a0"),
        ("text", "6bf4bb76b7a8612ffd1a67dd75e9d502b62d9f3ecdb1f158505fb01b302f48a8"),
    ):
        code, out = run(capsys, "--format", fmt, "orbit-report", *surface)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_reproduce_paper_matches_golden_file(capsys):
    import pathlib

    golden = pathlib.Path(__file__).parent / "data" / "rank5_report.json"
    code, out = run(capsys, "--format", "json", "reproduce-paper")
    assert code == 0
    assert out == golden.read_text()


def test_reproduce_paper_json_formats_no_matrix(capsys, monkeypatch):
    # the text, with its printed matrices, is built for --format text only
    import pathlib

    import torsys.cli

    def refuse(*args):
        raise AssertionError("format_matrix called under --format json")

    monkeypatch.setattr(torsys.cli, "format_matrix", refuse)
    golden = pathlib.Path(__file__).parent / "data" / "rank5_report.json"
    code, out = run(capsys, "--format", "json", "reproduce-paper")
    assert code == 0
    assert out == golden.read_text()


def test_json_round_trip_schemas(capsys):
    # system JSON emitted by orbit-report feeds back into check-exceptional
    code, data = run_json(capsys, "orbit-report", "--surface", json.dumps(list(rank5.SELFINTS)))
    assert code == 0
    for system in data["nonconstructible"]:
        code2, verdict = run_json(capsys, "check-exceptional", "--system", json.dumps(system))
        assert code2 == 0 and verdict["exceptional"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["surface", "--surface", "[1.7,1,1]"],
        ["surface", "--surface", '{"selfints": [1,1,true]}'],
        ["cohomology", "--surface", "[1,1,1]", "--class", "[0.9,0,true]"],
        ["cohomology", "--surface", "[1,1,1]", "--class", '{"coeffs": [1,0,"0"]}'],
        ["check-system", "--system",
         '{"surface": [1,1,1], "entries": [[1,0,0],[1,0,0],[1.0,0,0]]}'],
        ["certify-full", "--sequence",
         '{"surface": [1,1,1], "entries": [[0,0,0],[false,0,0],[2,0,0]]}'],
    ],
)
def test_non_integer_json_is_rejected(capsys, argv):
    assert main(argv) == 2
    assert "array of integers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["certify-full", "--max-depth", "-5", "--sequence", "[]"],
    ],
)
def test_flag_ranges_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be >=" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,error",
    [
        (["cohomology", "--surface", "[1,1,1]", "--class", "[1,0]"],
         "ValueError('expected 3 coefficients, got 2')"),
        (["certify-full", "--sequence", '{"surface": [1,1,1], "entries": []}'],
         "BadLength('empty sequence')"),
        (["certify-full", "--sequence", '{"surface": [1,1,1], "entries": [[0,0,0],[1,0,0]]}'],
         "BadLength('expected 3 bundles, got 2')"),
    ],
    ids=["class-length", "empty-sequence", "sequence-length"],
)
def test_malformed_input_exits_2(capsys, argv, error):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


def _blown_up_p2(n):
    """P^2 blown up at ray 0 until it has n rays, as a JSON surface."""
    from torsys import from_selfints

    x = from_selfints((1, 1, 1))
    while x.n < n:
        x = x.blow_up(0).above
    return list(x.selfints)


def test_surface_at_the_ray_cap_is_read(capsys):
    from torsys.schema import MAX_RAYS

    code, data = run_json(capsys, "surface", "--surface", json.dumps(_blown_up_p2(MAX_RAYS)))
    assert code == 0 and data["k0_rank"] == MAX_RAYS


def test_certify_full_at_the_ray_cap_on_a_non_constructible_sequence(capsys, monkeypatch):
    # the first non-constructible system of the rank-6 orbit report,
    # augmented at (0, 0) until it has MAX_RAYS = 24 rays, stays exceptional
    # and non-constructible; certify-full certifies it after three twists
    # and replays the certificate before printing it
    import torsys.cli
    from torsys import from_selfints
    from torsys.classify import orbit_report
    from torsys.schema import MAX_RAYS
    from torsys.systems import augment, to_sequence

    s = orbit_report(from_selfints((-2, -1, -2, -1, -2, -1, -2, -1))).nonconstructible[0]
    while s.surface.n < MAX_RAYS:
        s = augment(s, 0, 0)
    seq = to_sequence(s)
    blob = json.dumps(
        {"surface": list(seq.surface.selfints), "entries": [list(e.coeffs) for e in seq.entries]}
    )
    replayed = []
    replay = torsys.cli.replay_certificate
    monkeypatch.setattr(
        torsys.cli, "replay_certificate", lambda *args: replayed.append(replay(*args))
    )
    code, data = run_json(capsys, "certify-full", "--sequence", blob)
    assert code == 0 and data["verdict"] == "full"
    assert [t["curve_ray"] for t in data["twists"]] == [18, 20, 22]
    assert replayed == [None]


@pytest.mark.parametrize(
    "command", ["surface", "cohomology", "check-system", "check-exceptional",
                "check-constructible", "certify-full", "orbit-report"],
)
def test_surface_over_the_ray_cap_exits_2(capsys, command):
    from torsys.schema import MAX_RAYS

    selfints = _blown_up_p2(MAX_RAYS + 1)
    n = len(selfints)
    entries = json.dumps({"surface": selfints, "entries": [[int(i == j) for j in range(n)] for i in range(n)]})
    argv = {
        "surface": ["--surface", json.dumps(selfints)],
        "cohomology": ["--surface", json.dumps(selfints), "--class", json.dumps([0] * n)],
        "check-system": ["--system", entries],
        "check-exceptional": ["--system", entries],
        "check-constructible": ["--system", entries],
        "certify-full": ["--sequence", entries],
        "orbit-report": ["--surface", json.dumps(selfints)],
    }[command]
    assert main([command, *argv]) == 2
    assert "TooManyRays" in capsys.readouterr().err
