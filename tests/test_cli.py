import cmath
import json
import math
import os
import signal
import subprocess
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import nilwkb
from nilwkb.catalog import nilpotent_sl2, nilpotent_sl2_parabolic
from nilwkb.cli import _stamped, main
from nilwkb.holonomy import ArcSegment, ParamPath
from nilwkb.surface import flat_torus


@pytest.fixture
def family_file(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(nilpotent_sl2().to_json()))
    return str(path)


@pytest.fixture
def segment_file(tmp_path):
    path = tmp_path / "segment.json"
    path.write_text(json.dumps(ParamPath.segment(0, 1).to_json()))
    return str(path)


def test_flatness_exit_codes(family_file, capsys):
    assert main(["flatness", family_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_flat"] is True
    assert payload["schema"] == "nilwkb/1"


def test_flatness_catalog_shortcut(capsys):
    assert main(["flatness", "catalog:trivial"]) == 0
    capsys.readouterr()


def test_flatness_bad_file_exits_1(capsys):
    assert main(["flatness", "/no/such/file.json"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"


def test_secondary_and_cyclic(family_file, capsys):
    assert main(["secondary", family_file, "--blocks", "1,1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m"] == 2
    assert payload["leading_exponent"] == "-1"
    assert main(["cyclic", family_file, "--blocks", "1,1"]) == 0
    assert json.loads(capsys.readouterr().out)["m_cyclic"] is True


def test_jordan(family_file, capsys):
    assert main(["jordan", family_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["partition"] == [1, 1]
    assert payload["transpose"] == [2]


def test_fixed_point_exits_1(tmp_path, capsys):
    from nilwkb.catalog import uniformization_rank2

    path = tmp_path / "u2.json"
    path.write_text(json.dumps(uniformization_rank2().to_json()))
    assert main(["secondary", str(path), "--blocks", "1,1"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FixedPointDetected"


def test_holonomy_wkbfit_pipeline(family_file, segment_file, tmp_path, capsys):
    assert (
        main(
            [
                "holonomy",
                family_file,
                segment_file,
                "--eps",
                "0.25:0.002:geometric:8",
                "--rel-tol",
                "1e-10",
            ]
        )
        == 0
    )
    csv_text = capsys.readouterr().out
    samples = tmp_path / "samples.csv"
    samples.write_text(csv_text)
    assert main(["wkbfit", str(samples), "--exponents", "1,1/2,1/3"]) == 0
    fit = json.loads(capsys.readouterr().out)
    assert fit["exponent"] == "1/2"
    assert abs(fit["Z"][0] - 1) < 1e-4


def test_period_and_wkbcheck(family_file, segment_file, capsys):
    assert main(["period", family_file, segment_file, "--blocks", "1,1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["Z"][0] - 1) < 1e-9
    assert main(["wkbcheck", family_file, segment_file, "--blocks", "1,1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_wkb"] is True


@pytest.mark.parametrize(
    "points, Z, is_wkb, margin",
    [([0, 1, 1 + 1j], [1.0, 1.0], False, 0.0), ([0, 1], [1.0, 0.0], True, 2.0)],
    ids=["polyline", "segment"],
)
def test_period_writes_its_wkb_verdict_on_stdout(tmp_path, points, Z, is_wkb, margin, capsys):
    # run as a user runs it: on a WKB curve or off one, exit 0, the period with
    # wkbcheck's verdict and margin on stdout, and nothing on stderr
    path = tmp_path / "path.json"
    path.write_text(json.dumps(ParamPath.from_points(points).to_json()))
    run = subprocess.run(
        [sys.executable, "-m", "nilwkb.cli", "period", "catalog:nilpotent_sl2", str(path), "--blocks", "1,1"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(nilwkb.__file__).parents[1])},
    )
    assert run.returncode == 0 and run.stderr == ""
    out = json.loads(run.stdout)
    assert sorted(out) == ["Z", "is_wkb", "margin", "schema"]
    assert out["Z"] == [pytest.approx(Z[0]), pytest.approx(Z[1])] and out["is_wkb"] is is_wkb
    assert abs(out["margin"] - margin) < 1e-12
    assert main(["wkbcheck", "catalog:nilpotent_sl2", str(path), "--blocks", "1,1"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert {k: out[k] for k in verdict} == verdict


def test_surface_subcommands(tmp_path, capsys):
    assert main(["surface", "validate", "--staircase", "3", "--style", "left"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["genus"] == 3 and payload["chi"] == -4

    out = tmp_path / "surf.json"
    assert main(["surface", "generate", "--staircase", "2", "--half", "--emit", str(out)]) == 0
    capsys.readouterr()
    assert main(["surface", "validate", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["genus"] == 2

    assert (
        main(
            [
                "surface",
                "wkbloop",
                "--torus",
                "--start",
                "0,0.5,0.3",
                "--theta",
                "0",
                "--convention",
                "real-increasing",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_wkb"] is True and payload["lift_two_loops"] is True


def test_toy_subcommands(tmp_path, capsys):
    assert main(["toy", "stability", "--rho", "1/4,1/4,1/4,1/8"]) == 0
    assert json.loads(capsys.readouterr().out)["all_pass"] is True
    assert main(["toy", "stability", "--rho", "1/4,1/4,1/4,1/4"]) == 1
    capsys.readouterr()

    fam = tmp_path / "toy.json"
    assert main(["toy", "higgs", "phi_p", "--p", "2", "--emit", str(fam)]) == 0
    capsys.readouterr()
    assert main(["flatness", str(fam)]) == 0
    capsys.readouterr()

    assert main(["toy", "cone", "--p", "2", "--rho", "1/4,1/4,1/4,1/8"]) == 0
    graph = json.loads(capsys.readouterr().out)
    assert len(graph["nodes"]) == 9 and len(graph["edges"]) == 8

    assert main(["toy", "pdeg", "--rho", "1/4,1/4,1/4,1/8"]) == 0
    table = json.loads(capsys.readouterr().out)["table"]
    assert len(table) == 32

    assert main(["toy", "residues", "phi_p", "--p", "2"]) == 0
    res = json.loads(capsys.readouterr().out)["residues"]
    assert res["0"][1][0] == ["1/2", "0"]


def test_deterministic_output(family_file, capsys):
    assert main(["secondary", family_file, "--blocks", "1,1"]) == 0
    first = capsys.readouterr().out
    assert main(["secondary", family_file, "--blocks", "1,1"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_budget_error_exits_2(capsys):
    # an angle whose torus orbit cannot recur within the tiny budget
    code = main(
        [
            "surface",
            "wkbloop",
            "--torus",
            "--start",
            "0,0.5,0.3",
            "--theta",
            "0.30788891",
            "--max-length",
            "3",
        ]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NoRecurrenceWithinBudget"


def test_surface_trace_csv(capsys):
    assert (
        main(
            [
                "surface",
                "trace",
                "--torus",
                "--start",
                "0,0.5,0.3",
                "--theta",
                "0.0",
                "--max-length",
                "2.5",
            ]
        )
        == 0
    )
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0].split(",") == ["polygon", "x0", "y0", "x1", "y1"]
    assert len(lines) > 1
    summary = json.loads(captured.err)
    assert summary["terminated"] in ("ClosedUp", "MaxLength")


def test_bad_eps_grid(family_file, segment_file, capsys):
    assert main(["holonomy", family_file, segment_file, "--eps", "0:1:geometric:5"]) == 1
    capsys.readouterr()
    assert main(["holonomy", family_file, segment_file, "--eps", "1:1:geometric:5"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("spec", ["nan:0.1:geometric:8", "0.5:nan:geometric:8", "inf:0.1:geometric:8", "0.5:-inf:linear:4"])
def test_non_finite_eps_grid_exits_1(family_file, segment_file, spec, capsys):
    assert main(["holonomy", family_file, segment_file, "--eps", spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "ValueError"


def test_linear_eps_grid_is_numpy_linspace(family_file, segment_file, capsys):
    assert main(["holonomy", family_file, segment_file, "--eps", "0.5:0.1:linear:5"]) == 0
    _header, *rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert [float(r[0]) for r in rows] == list(np.linspace(0.5, 0.1, 5))


@pytest.mark.parametrize(
    "spec, named",
    [("0.5:0.1:4", "start:end:spacing:count"), ("0.5:0.1:cubic:4", "unknown spacing 'cubic'"), ("0.5:0.1:linear:0", "at least one point")],
)
def test_malformed_eps_grid_exits_1(family_file, segment_file, spec, named, capsys):
    assert named in _exits_1_with_value_error(["holonomy", family_file, segment_file, "--eps", spec], capsys)


def test_unknown_catalog_name_exits_1(capsys):
    assert main(["flatness", "catalog:nope"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValueError"
    assert "'nope'" in err["message"] and "nilpotent_sl2" in err["message"]


@pytest.mark.parametrize(
    "name, command",
    [
        ("nilpotent_sl2", ["secondary", "{family}", "--blocks", "1,1"]),
        ("nilpotent_sl3", ["jordan", "{family}"]),
        ("nilpotent_sl2", ["holonomy", "{family}", "{segment}", "--eps", "0.5:0.25:geometric:2"]),
    ],
)
def test_catalog_name_works_for_every_family_argument(name, command, segment_file, tmp_path, capsys):
    # catalog:<name> prints the bytes of the same family read from its file
    from nilwkb import catalog as catalog_mod

    family_file = tmp_path / f"{name}.json"
    family_file.write_text(json.dumps(catalog_mod.FAMILIES[name]().to_json()))
    outputs = []
    for family in (str(family_file), f"catalog:{name}"):
        assert main([arg.format(family=family, segment=segment_file) for arg in command]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] and outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "command",
    [
        ["jordan", "catalog:nope"],
        ["secondary", "catalog:nope", "--blocks", "1,1"],
        ["period", "catalog:nope", "{segment}", "--blocks", "1,1"],
    ],
)
def test_unknown_catalog_name_exits_1_for_every_family_argument(command, segment_file, capsys):
    assert main([arg.format(segment=segment_file) for arg in command]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValueError"
    assert "'nope'" in err["message"] and "nilpotent_sl2" in err["message"] and "trivial" in err["message"]


def test_holonomy_csv_carries_cost_counters(family_file, tmp_path, capsys):
    circle = tmp_path / "circle.json"
    circle.write_text(json.dumps(ParamPath.circle().to_json()))
    assert main(["holonomy", family_file, str(circle), "--eps", "0.25:0.01:geometric:3"]) == 0
    header, *rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert header == ["epsilon", "re_trace", "im_trace", "est_error", "steps", "rhs_evals"]
    assert len(rows) == 3
    assert len({(r[4], r[5]) for r in rows}) == 1
    assert 0 < int(rows[0][4]) <= int(rows[0][5])


def test_flatness_catalog_builds_only_the_named_family(monkeypatch, capsys):
    from nilwkb import catalog as catalog_mod

    def unbuildable():
        raise AssertionError("built a family that was not asked for")

    for name in catalog_mod.FAMILIES:
        if name != "nilpotent_sl3":
            monkeypatch.setitem(catalog_mod.FAMILIES, name, unbuildable)
    assert main(["flatness", "catalog:nilpotent_sl3"]) == 0
    assert json.loads(capsys.readouterr().out)["is_flat"] is True


def test_wkbfit_non_finite_trace_exits_1(tmp_path, capsys):
    rows = ["epsilon,re_trace,im_trace,est_error"]
    rows += [f"{0.5 / 2**k},{2 + k},0,0" for k in range(7)]
    rows.append(f"{0.5 / 2**7},inf,0,0")
    samples = tmp_path / "samples.csv"
    samples.write_text("\n".join(rows) + "\n")
    assert main(["wkbfit", str(samples)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "NonFiniteSample"


def test_wkbfit_with_no_free_fit_exponent_exits_1(tmp_path, capsys):
    # every |T| < 1, so no sample passes the log|T| cut: an error, not a NaN exponent and exit 0
    rows = ["epsilon,re_trace,im_trace"]
    rows += [f"{0.8 / 2**k},{T},0" for k, T in enumerate([0.1, 0.15, 0.2, 0.3, 0.4, 0.5])]
    samples = tmp_path / "samples.csv"
    samples.write_text("\n".join(rows) + "\n")
    assert main(["wkbfit", str(samples)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "InsufficientSamples" and "log|T|" in err["message"]


def test_writer_refuses_nan_and_infinity():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            _stamped({"value": bad})


def test_non_finite_path_exits_1(family_file, tmp_path, capsys):
    path = tmp_path / "nan_path.json"
    path.write_text('{"segments": [{"type": "line", "from": [0, 0], "to": [NaN, 1]}]}')
    assert main(["period", family_file, str(path), "--blocks", "1,1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValueError" and "non-finite" in err["message"]


def test_holonomy_overflow_exits_2(family_file, segment_file, capsys):
    # the trace 2 cosh(eps^-1/2) at eps 1e-7 is past a double
    assert main(["holonomy", family_file, segment_file, "--eps", "1e-6:1e-7:geometric:2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "HolonomyOverflow"


def test_holonomy_dop853_overflow_exits_2(tmp_path, capsys):
    # regular_diagonal on the unit circle at eps 1.42e-3 and 1e-3 overflows inside
    # DOP853: exit 2 with a HolonomyOverflow, not a stiffness error, and no numpy warning
    from nilwkb.catalog import regular_diagonal

    family, circle = tmp_path / "diag.json", tmp_path / "circle.json"
    family.write_text(json.dumps(regular_diagonal().to_json()))
    circle.write_text(json.dumps(ParamPath.circle().to_json()))
    argv = ["holonomy", str(family), str(circle), "--eps", "1.42e-3:1e-3:geometric:2", "--rel-tol", "1e-11"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "HolonomyOverflow" and "segment 0" in err["message"]


@pytest.mark.parametrize(
    "command", [["jordan", "{bad}"], ["kdiff", "{bad}"], ["period", "{bad}", "{segment}"], ["secondary", "{bad}", "--blocks", "1,1"]]
)
def test_family_without_rank_exits_1(segment_file, tmp_path, command, capsys):
    bad = tmp_path / "norank.json"
    bad.write_text('{"schema": "nilwkb/1"}')
    assert main([a.format(bad=bad, segment=segment_file) for a in command]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValueError"
    assert str(bad) in err["message"] and "'rank'" in err["message"]


@pytest.mark.parametrize(
    "where, token, named",
    [("puncture", "Infinity", "inf"), ("puncture", "NaN", "nan"), ("puncture", "null", "None"), ("coefficient", "1e400", "inf")],
)
def test_non_finite_family_value_exits_1(tmp_path, where, token, named, capsys):
    # JSON admits Infinity, NaN and 1e400 (a float overflowing to inf); none is an exact rational
    data = nilpotent_sl2().to_json()
    if where == "puncture":
        data["punctures"] = [["HOLE", "0"]]
    else:
        data["phi"]["dz"][0][1]["num"][0][2] = "HOLE"
    bad = tmp_path / "bad_family.json"
    bad.write_text(json.dumps(data).replace('"HOLE"', token))
    assert main(["jordan", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValueError" and named in err["message"] and str(bad) in err["message"]


def test_path_without_segments_exits_1(family_file, tmp_path, capsys):
    bad = tmp_path / "nosegments.json"
    bad.write_text('{"schema": "nilwkb/1", "closed": false}')
    assert main(["wkbcheck", family_file, str(bad), "--blocks", "1,1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValueError"
    assert str(bad) in err["message"] and "'segments'" in err["message"]


def test_surface_file_without_polygons_exits_1(tmp_path, capsys):
    bad = tmp_path / "surface.json"
    bad.write_text("[]")
    assert main(["surface", "validate", str(bad)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
    bad.write_text('{"identifications": []}')
    assert main(["surface", "validate", str(bad)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "'polygons'" in err["message"]


def test_wkbfit_csv_without_epsilon_exits_1(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    samples.write_text("eps,re_trace,im_trace\n0.5,3,0\n")
    assert main(["wkbfit", str(samples)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValueError"
    assert str(samples) in err["message"] and "'epsilon'" in err["message"]
    # a short row is a ValueError too, not a TypeError traceback
    samples.write_text("epsilon,re_trace,im_trace\n0.5,3\n")
    assert main(["wkbfit", str(samples)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"


@pytest.mark.parametrize("flag, value", [("--max-length", "-1"), ("--max-length", "nan"), ("--theta", "nan"), ("--theta", "inf")])
def test_surface_trace_bad_flow_arguments_exit_1(flag, value, capsys):
    args = {"--theta": "0.3", "--max-length": "3"}
    args[flag] = value
    argv = ["surface", "trace", "--torus", "--start", "0,0.5,0.5"]
    for k, v in args.items():
        argv += [k, v]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "ValueError"


def _term(data):
    return data["phi"]["dz"][0][1]["num"][0]


def _write_with_hole(tmp_path, data, mutate, token):
    # mutate puts "HOLE" where the bad JSON value goes
    mutate(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data).replace('"HOLE"', token))
    return bad


def _exits_1_with_value_error(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValueError"
    return err["message"]


@pytest.mark.parametrize(
    "kind, mutate, token",
    [
        ("family", lambda d: d.update(rank="HOLE"), "1e400"),
        ("family", lambda d: d.update(exponents=[["HOLE", "phi"]]), "Infinity"),
        ("family", lambda d: _term(d).__setitem__(0, "HOLE"), "Infinity"),
        ("family", lambda d: _term(d).__setitem__(1, "HOLE"), "null"),
        ("family", lambda d: d.update(phi="HOLE"), "[]"),
        ("path", lambda d: d["segments"][0].update({"from": "HOLE"}), "null"),
        ("path", lambda d: d["segments"][0].update({"from": "HOLE"}), '["a", 0]'),
        ("path", lambda d: d["segments"][0].update(type="arc", center=[0, 0], radius=1, angles="HOLE"), "[0.5]"),
        ("path", lambda d: d.update(segments="HOLE"), "3"),
        ("path", lambda d: d.update(segments="HOLE"), '[["line"]]'),
        ("path", lambda d: d["segments"][0].update(type="HOLE"), '"spiral"'),
        ("surface", lambda d: d.update(polygons="HOLE"), "[null]"),
        ("surface", lambda d: d["identifications"][0].__setitem__(1, "HOLE"), "7"),
    ],
    ids=[
        "rank-1e400", "exponent-inf", "degree-inf", "degree-null", "phi-empty",
        "from-null", "from-string", "arc-one-angle", "segments-int", "segment-list", "segment-type",
        "polygon-null", "edge-ref-int",
    ],
)
def test_malformed_input_file_exits_1_naming_it(family_file, tmp_path, kind, mutate, token, capsys):
    # a wrong type, shape or size in an input file is a ValueError naming the file, not a traceback
    if kind == "family":
        bad = _write_with_hole(tmp_path, nilpotent_sl2().to_json(), mutate, token)
        argv = ["jordan", str(bad)]
    elif kind == "path":
        bad = _write_with_hole(tmp_path, ParamPath.segment(0, 1).to_json(), mutate, token)
        argv = ["wkbcheck", family_file, str(bad)]
    else:
        bad = _write_with_hole(tmp_path, flat_torus().to_json(), mutate, token)
        argv = ["surface", "validate", str(bad)]
    assert str(bad) in _exits_1_with_value_error(argv, capsys)


@pytest.mark.parametrize(
    "where, token",
    [
        ("sign", "1.5"), ("sign", "true"), ("sign", '"++1"'), ("sign", "1.0"),
        ("ref", "[0, 2.0]"), ("ref", "[0, 7]"), ("ref", "[0, -2]"), ("ref", "[true, 2]"),
    ],
)
def test_surface_file_with_inexact_identification_exits_1(tmp_path, where, token, capsys):
    # a sign is exactly +1 or -1 and an edge reference a pair of in-range
    # integers; nothing is truncated to fit
    hole = 2 if where == "sign" else 1

    def mutate(d):
        d["identifications"][0][hole] = "HOLE"

    bad = _write_with_hole(tmp_path, flat_torus().to_json(), mutate, token)
    assert str(bad) in _exits_1_with_value_error(["surface", "validate", str(bad)], capsys)


@pytest.mark.parametrize(
    "path, token", [(ParamPath.segment(0, 1), '"false"'), (ParamPath.circle(), '"no"'), (ParamPath.circle(), "1")]
)
def test_path_closed_flag_other_than_a_json_bool_exits_1(family_file, tmp_path, path, token, capsys):
    # "false" and "no" are non-empty strings and 1 is a number: none is read as true
    bad = _write_with_hole(tmp_path, path.to_json(), lambda d: d.update(closed="HOLE"), token)
    message = _exits_1_with_value_error(["wkbcheck", family_file, str(bad), "--blocks", "1,1"], capsys)
    assert str(bad) in message and "closed" in message


class _TimedOut(Exception):
    pass


@contextmanager
def _time_limit(seconds):
    """Raise _TimedOut in the body after seconds, so a hang fails the test."""

    def expire(signum, frame):
        raise _TimedOut(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("rel_tol", ["nan", "inf", "-inf", "1e10", "0.9", "0.0100001", "0", "-1"])
def test_holonomy_rel_tol_outside_its_range_exits_1(family_file, tmp_path, rel_tol, capsys):
    # nan and inf used to run without end, 1e10 to exit 0 with a trace off by
    # 108, and -1 to run at 3e-14; 1e-2 is the largest tolerance accepted
    circle = tmp_path / "circle.json"
    circle.write_text(json.dumps(ParamPath.circle(0.3, 0.5).to_json()))
    argv = ["holonomy", family_file, str(circle), "--eps", "0.5:0.2:geometric:2", f"--rel-tol={rel_tol}"]
    with _time_limit(30):
        message = _exits_1_with_value_error(argv, capsys)
    assert "rel_tol" in message
    argv[-1] = "--rel-tol=1e-2"
    assert main(argv) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["trace", "wkbloop"])
@pytest.mark.parametrize("start", ["5,0.5,0.5", "1,0.5,0.5", "-1,0.5,0.5", "0,nan,0.5", "0,0.5,inf", "1,2", "0,0.5,0.5,1"])
def test_flow_start_off_the_surface_exits_1(command, start, capsys):
    # an out-of-range polygon used to end in an IndexError or KeyError
    # traceback, a NaN point in a misleading NonManifoldCorner, and a start
    # with two or four fields in a bare "values to unpack" message
    argv = ["surface", command, "--torus", f"--start={start}", "--theta", "0.3", "--max-length", "3"]
    assert "start" in _exits_1_with_value_error(argv, capsys)


def test_flow_start_outside_its_polygon_exits_1(capsys):
    # a finite point, in range, but beyond the unit square of the torus
    argv = ["surface", "trace", "--torus", "--start", "0,1.5,0.5", "--theta", "0.3", "--max-length", "3"]
    assert "start" in _exits_1_with_value_error(argv, capsys)


def test_holonomy_on_an_arc_through_a_puncture_exits_1(tmp_path, capsys):
    # the arc passes through the puncture 0 at its midpoint; clearance used to
    # pass it, and the solve then ran for seconds into StiffnessBudgetExceeded
    family, arc = tmp_path / "family.json", tmp_path / "arc.json"
    family.write_text(json.dumps(nilpotent_sl2_parabolic().to_json()))
    arc.write_text(json.dumps(ParamPath([ArcSegment(-cmath.exp(10.25j), 1.0, 10.0, 10.5)]).to_json()))
    with _time_limit(30):
        assert main(["holonomy", str(family), str(arc), "--eps", "0.5:0.2:geometric:2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and json.loads(captured.err)["error"] == "ClearanceViolated"


@pytest.mark.parametrize("command", [["jordan"], ["secondary", "--blocks", "1,1"], ["cyclic", "--blocks", "1,1"]])
def test_seed_changes_no_byte(family_file, command, capsys):
    # --seed is accepted for old command lines and read by nothing
    argv = [command[0], family_file, *command[1:]]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(["--seed", "7", *argv]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize(
    "argv, named",
    [
        (["surface", "trace", "--torus", "--start", "0,0.5,0.5", "--theta", "abc"], "nilwkb surface trace: argument --theta"),
        (["holonomy", "{family}", "{segment}"], "nilwkb holonomy: the following arguments are required: --eps"),
        ([], "nilwkb: the following arguments are required: cmd"),
    ],
    ids=["theta-not-a-float", "holonomy-without-eps", "no-command"],
)
def test_command_line_refusal_exits_1(family_file, segment_file, argv, named, capsys):
    # argparse's own refusals exit 1 with an error object naming the option, as
    # other invalid input does; exit 2 is for budget limits
    argv = [a.format(family=family_file, segment=segment_file) for a in argv]
    assert named in _exits_1_with_value_error(argv, capsys)


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert "usage: nilwkb" in capsys.readouterr().out


def _drop_punctures(d):
    d["phi"]["dz"][0][1]["den"] = [[1, 0, "1", "0"], [0, 0, "-5", "0"]]


@pytest.mark.parametrize(
    "mutate, error",
    [
        (_drop_punctures, "PoleHit"),
        (lambda d: d.update(rank=3), "DimensionMismatch"),
        (lambda d: d["phi"]["dz"][0][1].update(den=[]), "ZeroDivisionError"),
    ],
    ids=["pole-off-the-punctures", "rank-not-the-matrices", "empty-den"],
)
def test_refused_family_file_is_named_and_keeps_its_error_class(tmp_path, mutate, error, capsys):
    data = nilpotent_sl2().to_json()
    mutate(data)
    bad = tmp_path / "refused.json"
    bad.write_text(json.dumps(data))
    assert main(["jordan", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == error and str(bad) in err["message"]
