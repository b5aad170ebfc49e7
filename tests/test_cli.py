import cmath
import csv
import io
import json
import math
import os
import signal
import subprocess
import sys
import warnings
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import nilwkb
from nilwkb.algebra import BiPolynomial, BiRationalFunction as BRF, GaussianRational, RationalFunctionMatrix
from nilwkb.catalog import FAMILIES, nilpotent_sl2, nilpotent_sl2_parabolic
from nilwkb.cli import _load_family, _stamped, build_parser, main
from nilwkb.connection import TERM_NAMES, ConnectionFamily, MatrixOneForm
from nilwkb.holonomy import ArcSegment, LineSegment, ParamPath
from nilwkb.surface import flat_torus, staircase
from nilwkb.toymodel import ParabolicWeights


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
    assert sorted(out) == ["Z", "est_error", "is_wkb", "margin", "schema"]
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


def test_holonomy_where_steps_shrink_to_roundoff_exits_2(tmp_path, capsys):
    # an arc of radius 2^70: DOP853's steps shrink to the roundoff of t, and
    # its right-hand-side budget ends the solve within seconds (it used to run
    # without end): exit 2 with a JSON error, nothing on stdout
    arc = tmp_path / "arc.json"
    arc.write_text(json.dumps(ParamPath([ArcSegment(0j, 2.0**70, 0.0, 1.0)]).to_json()))
    with _time_limit(30):
        code = main(["holonomy", "catalog:nilpotent_sl2_parabolic", str(arc), "--eps", "0.5:0.25:geometric:1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "StiffnessBudgetExceeded"


def _dz_family(entries, punctures=()):
    """The rank-2 family with phi = entries dz and conn, psi zero."""
    phi = MatrixOneForm.from_dz(RationalFunctionMatrix(entries))
    return ConnectionFamily(2, phi, MatrixOneForm.zero(2), MatrixOneForm.zero(2), punctures)


_ZERO, _ONE, _HUGE = BRF.zero(), BRF.one(), GaussianRational(10**400)
# an exact coefficient past a double, and a field past a double on a segment at 1e10
_HUGE_ENTRY = lambda: _dz_family([[_ZERO, BRF.constant(_HUGE)], [_ZERO, _ZERO]])
_FAR_FIELD = lambda: _dz_family([[_ZERO, BRF.constant(10**300) * BRF.z()], [_ONE, _ZERO]])


@pytest.mark.parametrize(
    "argv, start, end, error, code",
    [
        # eps^-1 at eps 1e-309 is past a double
        ((["holonomy", "catalog:nilpotent_sl2", "--eps", "1e-309:1e-310:geometric:2"], "eps=1e-309"), 0, 1, "HolonomyOverflow", 2),
        # a segment at 1e200: z^2 in the denominator of the field's entry (0, 0)
        ((["holonomy", "catalog:toy_phi_p", "--eps", "0.5:0.25:geometric:2"], "phi entry (0, 0): "), 1e200, 2e200, "EvaluationOverflow", 1),
        ((["period", "catalog:toy_phi_p"], "Phi entry (0, 0): "), 1e200, 2e200, "EvaluationOverflow", 1),
        # 10^400 as a coefficient, as a pole with its declared puncture, and as a puncture alone
        ((["holonomy", _HUGE_ENTRY, "--eps", "0.5:0.25:geometric:2"], "phi entry (0, 1), dz part: "), 0, 1, "EvaluationOverflow", 1),
        ((["period", _HUGE_ENTRY], "Phi entry (0, 1), dz part: "), 0, 1, "EvaluationOverflow", 1),
        ((["holonomy", lambda: _dz_family([[_ZERO, BRF.from_poles(1, [_HUGE])], [_ZERO, _ZERO]], [_HUGE]), "--eps", "0.5:0.25:geometric:2"], "phi entry (0, 1), dz part: "), 0, 1, "EvaluationOverflow", 1),
        ((["holonomy", lambda: _dz_family([[_ZERO, _ONE], [_ZERO, _ZERO]], [_HUGE]), "--eps", "0.5:0.25:geometric:2"], "puncture 0: "), 0, 1, "EvaluationOverflow", 1),
        # 10^300 z at z = 1e10 is inf in doubles: eigvals refused it with a bare LinAlgError, and DOP853's
        # first step came out NaN, after which it ran without end at t = NaN
        ((["period", _FAR_FIELD], "Phi entry (0, 1) at z="), 1e10, 2e10, "EvaluationOverflow", 1),
        ((["wkbcheck", _FAR_FIELD], "Phi entry (0, 1) at z="), 1e10, 2e10, "EvaluationOverflow", 1),
        ((["holonomy", _FAR_FIELD, "--eps", "0.5:0.25:geometric:1"], "segment 0"), 1e10, 2e10, "HolonomyOverflow", 2),
        # a velocity near 1e308 overflows the constant segment's -M dt: non-finite, and no RuntimeWarning on the way
        ((["holonomy", "catalog:nilpotent_sl2", "--eps", "0.5:0.25:geometric:2"], "eps=0.5"), 0, 1e308 + 1e308j, "HolonomyOverflow", 2),
    ],
)
def test_numeric_overflow_exits_with_a_json_error(tmp_path, capsys, argv, start, end, error, code):
    # each of these ended in an OverflowError traceback, a LinAlgError or a hang;
    # argv pairs the command line with the text naming the eps, entry, puncture
    # or segment at fault, which the message must contain
    (command, family, *options), culprit = argv
    if callable(family):
        (tmp_path / "family.json").write_text(json.dumps(family().to_json()))
        family = str(tmp_path / "family.json")
    path = tmp_path / "path.json"
    path.write_text(json.dumps(ParamPath.segment(start, end).to_json()))
    with _time_limit(30):
        assert main([command, family, str(path), *options]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == error
    assert culprit in err["message"], err["message"]


@pytest.mark.parametrize("points", [[0, 1e-300, 2e-300, 1e308], [0, 1e-5, 1e303]])
def test_path_file_with_a_subnormal_share_exits_1_naming_the_file(tmp_path, points, capsys):
    # the lines through points, written by hand: transport ended in a bare
    # ZeroDivisionError or a HolonomyOverflow; now the file is refused at load
    path = tmp_path / "path.json"
    segments = [LineSegment(complex(a), complex(b)).to_json() for a, b in zip(points, points[1:])]
    path.write_text(json.dumps({"segments": segments, "closed": False}))
    argv = ["holonomy", "catalog:nilpotent_sl2", str(path), "--eps", "0.5:0.25:geometric:2"]
    assert _exits_1_with_value_error(argv, capsys).startswith(f"{path}: segment 0 takes a share ")


def test_period_of_a_constant_field_near_1e200_exits_0(tmp_path, capsys):
    # phi = [[0, 10^200], [10^200, 0]] dz on [0, 1]: squaring the entries for
    # the eigenvalue error bound ended in an OverflowError traceback
    big = BRF.constant(10**200)
    family = tmp_path / "family.json"
    family.write_text(json.dumps(_dz_family([[_ZERO, big], [big, _ZERO]]).to_json()))
    path = tmp_path / "path.json"
    path.write_text(json.dumps(ParamPath.segment(0, 1).to_json()))
    assert main(["period", str(family), str(path)]) == 0
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert captured.err == "" and out["Z"] == [1e200, 0.0] and math.isfinite(out["est_error"]) and out["est_error"] > 0


def _far_from_normal_period(tmp_path, e, capsys):
    """nilwkb period of phi = [[0, 10^e], [10^-e, 0]] dz on [0, 1]: eigenvalues
    +-1, a gap of 2 10^-e relative to the field's norm."""
    entries = [[_ZERO, BRF.constant(10**e)], [BRF.constant(GaussianRational(Fraction(1, 10**e))), _ZERO]]
    family, path = tmp_path / "family.json", tmp_path / "path.json"
    family.write_text(json.dumps(_dz_family(entries).to_json()))
    path.write_text(json.dumps(ParamPath.segment(0, 1).to_json()))
    code = main(["period", str(family), str(path)])
    return code, capsys.readouterr()


def test_period_far_from_normal_has_a_finite_est_error(tmp_path, capsys):
    # the relative gap 2e-160 squared underflowed, and est_error came out inf;
    # Smith's factor is formed from the gap itself: about 2.3e305
    code, captured = _far_from_normal_period(tmp_path, 160, capsys)
    out = json.loads(captured.out)
    assert code == 0 and captured.err == ""
    assert out["Z"] == [pytest.approx(1.0), 0.0] and 1e305 < out["est_error"] < 1e306


def test_period_whose_est_error_is_past_a_double_exits_2(tmp_path, capsys):
    # at 10^200 the bound is about 2.3e385: a typed error that names
    # est_error, where the squared gap used to end in a ZeroDivisionError
    code, captured = _far_from_normal_period(tmp_path, 200, capsys)
    err = json.loads(captured.err)
    assert code == 2 and captured.out == ""
    assert err["error"] == "HolonomyOverflow" and "est_error" in err["message"]


_FUZZ_COMMANDS = (
    ["holonomy", "catalog:nilpotent_sl2", "{path}", "--eps", "0.5:0.25:geometric:2"],
    ["holonomy", "catalog:toy_phi_p", "{path}", "--eps", "0.5:0.25:geometric:2"],
    ["period", "catalog:nilpotent_sl2_full", "{path}", "--blocks", "1,1"],
)
_FUZZ_NUMBERS = (math.nan, math.inf, -math.inf, 1e300, -1e300, 1e308, -1e308, 0.0, -0.0, 1e-300, 2.5, "1", None)


def _fuzz_case(argv, capsys, context, verdicts=(0,)):
    """main(argv) under a 30 s limit: exit 0, 1 or 2; an exit in verdicts may
    write to stdout alone, and any other exit leaves nothing on stdout and
    exactly one JSON error object on stderr."""
    with _time_limit(30):
        code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2), context
    if code in verdicts and not captured.err:
        assert captured.out, context
    else:
        assert code and captured.out == "", context
        err = json.loads(captured.err)
        assert isinstance(err, dict) and {"error", "message"} <= err.keys(), context
    return code


def _fuzz_path(rng):
    """A JSON path, valid or not: a line, a polyline or a line-arc-line path,
    then up to three mutations among coordinates past a double or huge, arc
    radii of zero or below, swapped angles, unknown segment types, missing
    fields and a closed flag that is not a JSON bool."""
    p = lambda: [round(rng.uniform(-2, 2), 3), round(rng.uniform(-2, 2), 3)]
    kind = rng.randrange(3)
    if kind == 0:
        data = ParamPath.segment(complex(*p()), complex(*p())).to_json()
    elif kind == 1:
        data = ParamPath.from_points([complex(*p()) for _ in range(rng.randint(3, 5))], closed=rng.random() < 0.3).to_json()
    else:
        arc = ArcSegment(complex(*p()), rng.uniform(0.2, 1.5), rng.uniform(-3, 3), rng.uniform(-3, 3))
        start, end = arc.point(0.0), arc.point(1.0)
        data = ParamPath.from_points([start - 0.5, start]).to_json()
        data["segments"] += [arc.to_json(), ParamPath.segment(end, end + 0.5j).to_json()["segments"][0]]
    for _ in range(rng.randint(0, 3)):
        segs = data.get("segments")
        seg = rng.choice(segs) if isinstance(segs, list) and segs else {}
        what = rng.randrange(7)
        if what == 0 and seg:
            key = rng.choice(sorted(k for k in seg if k != "type" and k != "radius"))
            seg[key][rng.randrange(2)] = rng.choice(_FUZZ_NUMBERS)
        elif what == 1 and seg.get("type") == "arc":
            seg["radius"] = rng.choice((0.0, -0.0, -1.0, -1e300, 1e300, math.nan))
        elif what == 2 and seg.get("type") == "arc":
            seg["angles"] = seg["angles"][::-1]
        elif what == 3 and seg:
            seg["type"] = rng.choice(("spline", "", None, 3, "LINE"))
        elif what == 4 and seg:
            del seg[rng.choice(sorted(seg))]
        elif what == 5:
            data["closed"] = rng.choice((0, 1, "true", "false", None, [], {}))
        elif what == 6:
            del data[rng.choice(sorted(data))]
    return data


def test_seeded_path_file_fuzz_ends_with_exit_0_1_or_2(tmp_path, capsys):
    # 300 seeded path files, valid or broken, through holonomy and period:
    # each ends with exit 0, 1 or 2 in bounded time, a nonzero exit leaves
    # exactly one JSON object on stderr, and no warning is raised on the way
    rng = __import__("random").Random(32)
    path = tmp_path / "path.json"
    codes = []
    for case in range(300):
        data = _fuzz_path(rng)
        path.write_text(json.dumps(data))
        argv = [a.format(path=path) for a in _FUZZ_COMMANDS[case % len(_FUZZ_COMMANDS)]]
        codes.append(_fuzz_case(argv, capsys, (case, data, argv)))
    # the mix reaches both the numeric layer and the refusals
    assert codes.count(0) >= 30 and codes.count(1) >= 30


_FAMILY_FUZZ_COMMANDS = (
    ["flatness", "{family}"],
    ["jordan", "{family}"],
    ["secondary", "{family}", "--blocks", "1,1"],
    ["holonomy", "{family}", "{path}", "--eps", "0.5:0.25:geometric:2"],
)
# past the digit limit: 10^-(10^11) and 10^5000 as exponents, and a 4301-digit run
_PAST_THE_LIMIT = ("1e-99999999999", "1e5000", "7" * 4301)
_FUZZ_COEFFICIENTS = ("1/3", "-2", "0", "-0", "7/2", "1e400", "nan", "inf", "x", "", "1/0", "123456789012345678901234567890", 3, None, *_PAST_THE_LIMIT)


def _fuzz_family(rng):
    """A catalog family's JSON, then one to three mutations among coefficient
    strings, exponents, a denominator with a repeated declared or an
    undeclared linear factor, zbar terms, dropped punctures or fields and a
    wrong rank.  Every polynomial keeps at most 3 terms of degree at most 3,
    so that two-variable gcds stay in milliseconds."""
    data = FAMILIES[rng.choice(sorted(FAMILIES))]().to_json()
    encode = lambda poly: [[i, j, *c.to_json()] for (i, j), c in sorted(poly.terms.items())]
    for _ in range(rng.randint(1, 3)):
        form = data.get(rng.choice(TERM_NAMES))
        part = form.get(rng.choice(("dz", "dzbar"))) if isinstance(form, dict) else None
        entry = rng.choice(rng.choice(part)) if isinstance(part, list) and part and part[0] else {}
        poly = entry.get(rng.choice(("num", "den")))
        term = rng.choice(poly) if isinstance(poly, list) and poly else None
        what = rng.choices(range(6), weights=(3, 2, 3, 2, 1, 1))[0]
        if what == 0 and term:
            term[rng.choice((2, 3))] = rng.choice(_FUZZ_COEFFICIENTS)
        elif what == 1 and term:
            k = rng.randrange(2)
            term[k] = rng.choice((-1, 0, 1, 2, 3, "1", 1.5, None, *_PAST_THE_LIMIT))
            if isinstance(term[k], int) and isinstance(term[1 - k], int):
                term[1 - k] = min(term[1 - k], 3 - max(term[k], 0))
        elif what == 2 and entry:
            # (v - p)^2 for a declared puncture p, or (v - p)(v - q) with q undeclared, v = z or zbar
            declared = data.get("punctures") or []
            p = GaussianRational.from_strings(*rng.choice(declared)) if declared else GaussianRational(0)
            q = p if rng.random() < 0.6 else GaussianRational(-1, 1)
            v = BiPolynomial.z()
            if rng.random() < 0.5:
                v, p, q = BiPolynomial.zbar(), p.conjugate(), q.conjugate()
            entry["num"] = entry.get("num") or [[0, 0, "1", "0"]]
            entry["den"] = encode((v - BiPolynomial.constant(p)) * (v - BiPolynomial.constant(q)))
        elif what == 3 and isinstance(entry.get("num"), list) and len(entry["num"]) < 3:
            entry["num"].append([rng.randint(0, 2), 1, "1", "-1"])
        elif what == 4:
            punctures = data.get("punctures")
            if punctures and rng.random() < 0.5:
                del punctures[rng.randrange(len(punctures))]
            elif entry and rng.random() < 0.5:
                del entry[rng.choice(sorted(entry))]
            elif data:
                del data[rng.choice(sorted(data))]
        elif what == 5:
            data["rank"] = rng.choice((1, 3, 0, -2, "2", 2.5, None, "two"))
    return data


def test_seeded_family_file_fuzz_ends_with_exit_0_1_or_2(tmp_path, capsys):
    # 200 seeded family files, catalog families mutated, through flatness,
    # jordan, secondary and holonomy on a short segment: each ends with exit
    # 0, 1 or 2 in bounded time, and an error leaves nothing on stdout and
    # exactly one JSON object on stderr.  flatness's not-flat verdict (exit 1,
    # its report on stdout) is a result, not an error
    rng = __import__("random").Random(33)
    family, path = tmp_path / "family.json", tmp_path / "path.json"
    path.write_text(json.dumps(ParamPath.segment(0.3 + 0.4j, 0.35 + 0.45j).to_json()))
    codes = []
    for case in range(200):
        data = _fuzz_family(rng)
        family.write_text(json.dumps(data))
        argv = [a.format(family=family, path=path) for a in _FAMILY_FUZZ_COMMANDS[case % len(_FAMILY_FUZZ_COMMANDS)]]
        with _time_limit(30):
            code = main(argv)
        captured = capsys.readouterr()
        assert code in (0, 1, 2), (case, data, argv)
        if captured.err:
            assert code and captured.out == "", (case, data, argv)
            err = json.loads(captured.err)
            assert isinstance(err, dict) and {"error", "message"} <= err.keys(), (case, data, argv)
        else:
            assert captured.out and (code == 0 or (code, argv[0]) == (1, "flatness")), (case, data, argv)
        codes.append(code)
    # the mix reaches both the commands' results and the refusals
    assert codes.count(0) >= 30 and codes.count(1) >= 30


def _fuzz_surface(rng):
    """A torus or staircase surface's JSON, then up to three mutations among
    vertex coordinates (past a double, huge, tiny, off by a little, of the
    wrong type), dropped or repeated vertices, identification signs, edge
    references and their count, and dropped or wrong-typed fields."""
    if rng.random() < 0.3:
        data = flat_torus().to_json()
    else:
        data = staircase(rng.randint(1, 3), style=rng.choice(("left", "right")), half=rng.random() < 0.5).to_json()
    for _ in range(rng.randint(0, 3)):
        polys, ids = data.get("polygons"), data.get("identifications")
        poly = rng.choice(polys) if isinstance(polys, list) and polys else None
        glue = rng.choice(ids) if isinstance(ids, list) and ids else None
        what = rng.choices(range(8), weights=(3, 2, 1, 2, 2, 1, 1, 1))[0]
        if what == 0 and poly:
            vertex = rng.choice(poly)
            k = rng.randrange(2)
            vertex[k] = rng.choice(_FUZZ_NUMBERS + (vertex[k] + 1e-9, vertex[k] + 0.5))
        elif what == 1 and poly:
            if rng.random() < 0.5 and len(poly) > 1:
                del poly[rng.randrange(len(poly))]
            else:
                poly.insert(rng.randrange(len(poly) + 1), list(rng.choice(poly)))
        elif what == 2 and poly:
            k = rng.choice((1e300, 1e-300, -1.0, 0.0))
            for vertex in poly:
                vertex[:] = [x * k if isinstance(x, float) else x for x in vertex]
        elif what == 3 and glue:
            glue[2] = rng.choice(("+1", "-1", "+2", "1", 1, -1, 0, 1.0, None, True))
        elif what == 4 and glue:
            ref = glue[rng.randrange(2)]
            ref[rng.randrange(2)] = rng.choice((-1, 0, 1, 2, 5, 99, 1.5, "0", None))
        elif what == 5 and ids:
            if rng.random() < 0.5:
                del ids[rng.randrange(len(ids))]
            else:
                ids.append(json.loads(json.dumps(rng.choice(ids))))
        elif what == 6 and glue:
            glue[0], glue[1] = glue[1], glue[0]
        elif what == 7:
            key = rng.choice(("polygons", "identifications"))
            if rng.random() < 0.5:
                data.pop(key, None)
            else:
                data[key] = rng.choice(([], {}, None, 3, "x", [[]], [[[0, 0]]]))
    return data


def test_seeded_surface_file_fuzz_ends_with_exit_0_1_or_2(tmp_path, capsys):
    # 150 seeded surface files, the torus and staircases mutated, through
    # surface validate and surface wkbloop at seeded angles: each ends with
    # exit 0, 1 or 2 in bounded time, an error with exactly one JSON object
    rng = __import__("random").Random(34)
    surface = tmp_path / "surface.json"
    codes = []
    for case in range(150):
        data = _fuzz_surface(rng)
        surface.write_text(json.dumps(data))
        if case % 2:
            theta = rng.choice(("0", "0.3", "1.1", "2.5", "-0.7"))
            argv = ["surface", "wkbloop", str(surface), "--start", "0,0.5,0.3", "--theta", theta, "--max-length", "60"]
        else:
            argv = ["surface", "validate", str(surface)]
        codes.append(_fuzz_case(argv, capsys, (case, data, argv)))
    assert codes.count(0) >= 15 and codes.count(1) >= 30


_CSV_TOKENS = ("nan", "inf", "-inf", "", "x", "1e400", "-1e400", "0", "-0", "1e-320", "-0.5", "1e300", " 2", "1_0")


def _fuzz_csv(rng, base):
    """The holonomy CSV base (a list of rows, header first), then one to three
    mutations among cells, rows dropped, repeated or reordered, short and long
    rows, and header names dropped or misspelt."""
    rows = [list(r) for r in base]
    for _ in range(rng.randint(1, 3)):
        body = len(rows) - 1
        what = rng.choices(range(6), weights=(4, 2, 1, 1, 1, 1))[0]
        if what == 0 and body > 0:
            row = rows[rng.randint(1, body)]
            if row:
                row[rng.randrange(len(row))] = rng.choice(_CSV_TOKENS)
        elif what == 1 and body > 0:
            k = rng.randint(1, body)
            if rng.random() < 0.5:
                del rows[k]
            else:
                rows.insert(k, list(rows[k]))
        elif what == 2 and body > 1:
            rows[1:] = rows[1:][::-1] if rng.random() < 0.5 else rows[1:rng.randint(2, 3)]
        elif what == 3 and body > 0:
            row = rows[rng.randint(1, body)]
            if rng.random() < 0.5:
                del row[rng.randrange(1, len(row)):]
            else:
                row.append(rng.choice(_CSV_TOKENS))
        elif what == 4:
            rows[0][rng.randrange(len(rows[0]))] = rng.choice(("eps", "EPSILON", "", "re_trace", "steps"))
        elif what == 5 and body > 0:
            column = rng.randrange(4)
            value = rng.choice(_CSV_TOKENS)
            for row in rows[1:]:
                if len(row) > column:
                    row[column] = value
    return rows


def test_seeded_holonomy_csv_fuzz_ends_with_exit_0_1_or_2(segment_file, tmp_path, capsys):
    # 200 seeded mutations of a real holonomy CSV (nilpotent_sl2 on [0, 1],
    # 8 eps) through wkbfit, with and without candidate exponents: each ends
    # with exit 0, 1 or 2 in bounded time, an error with exactly one JSON object
    assert main(["holonomy", "catalog:nilpotent_sl2", segment_file, "--eps", "0.25:0.002:geometric:8"]) == 0
    base = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    rng = __import__("random").Random(34)
    samples = tmp_path / "samples.csv"
    codes = []
    for case in range(200):
        rows = _fuzz_csv(rng, base)
        with open(samples, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        argv = ["wkbfit", str(samples)] + rng.choice(([], ["--exponents", "1,1/2,1/3"], ["--exponents", "1/2"]))
        codes.append(_fuzz_case(argv, capsys, (case, rows, argv)))
    assert codes.count(0) >= 30 and codes.count(1) >= 30


@pytest.mark.parametrize(
    "argv, option",
    [
        (["toy", "residues", "phi_p", "--p=1e-100000"], "--p"),
        (["toy", "cone", "--p=1e-100000", "--rho", "1/4,1/4,1/4,1/8"], "--p"),
        (["toy", "higgs", "phi_inf", "--p=1e-5000"], "--p"),
        (["toy", "higgs", "phi_p", "--p=1e-999999999999"], "--p"),
        (["toy", "residues", "phi_1", f"--p={'7' * 4301}"], "--p"),
        (["toy", "stability", "--rho", "1/4,1/4,1/4,1e-100000"], "--rho"),
        (["toy", "pdeg", "--rho", "1/4,1/4,1/4,1e-100000"], "--rho"),
        (["wkbfit", "samples.csv", "--exponents", "1,1e-99999999999"], "--exponents"),
    ],
)
def test_exact_option_with_more_digits_than_python_writes_exits_1(argv, option, capsys):
    # each ran for a minute or more (m @ m on 10^100000, or Fraction raising
    # 10 to the exponent), or ended in Python's bare int-conversion message
    with _time_limit(5):
        message = _exits_1_with_value_error(argv, capsys)
    assert f"argument {option}: more than {sys.get_int_max_str_digits()} digits" in message


def test_exact_result_with_more_digits_than_python_writes_exits_1(capsys):
    # p = 10^-3000 is read, but the residue 1 / (p (p - 1)) at p has 6001 digits
    with _time_limit(5):
        assert main(["toy", "residues", "phi_p", "--p=1e-3000"]) == 1
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert captured.out == "" and err["error"] == "TooManyDigits" and "4300 digits" in err["message"]


def _family_route(where):
    """A family file with text as phi's coefficient, a second puncture's
    imaginary part or phi's exponent: flatness's command line, the file and
    the family read from it."""

    def route(text, tmp_path):
        data = nilpotent_sl2_parabolic().to_json()
        if where == "coefficient":
            data["phi"]["dz"][0][1]["num"][0][2] = text
        elif where == "puncture":
            data["punctures"].append(["1", text])
        else:
            data["exponents"][0][0] = text
        path = tmp_path / f"{where}-{len(text)}.json"
        path.write_text(json.dumps(data))
        return ["flatness", str(path)], str(path), lambda: _load_family(str(path))

    return route


def _option_route(option, argv):
    """argv with text in its {}: the command line, the option's name and the value the parser reads."""

    def route(text, tmp_path):
        line = [a.format(text) for a in argv]
        return line, f"argument {option}", lambda: getattr(build_parser().parse_args(line), option[2:])

    return route


_EXACT_TEXT_ROUTES = {
    "--p": _option_route("--p", ["toy", "residues", "phi_p", "--p={}"]),
    "--rho": _option_route("--rho", ["toy", "pdeg", "--rho", "1/4,1/4,1/4,{}"]),
    "--exponents": _option_route("--exponents", ["wkbfit", "samples.csv", "--exponents", "1,{}"]),
    "coefficient": _family_route("coefficient"),
    "puncture": _family_route("puncture"),
    "exponent": _family_route("exponent"),
    "ParabolicWeights.parse": lambda text, tmp_path: (None, None, lambda: ParabolicWeights.parse(f"1/4,1/4,1/4,{text}")),
    "GaussianRational": lambda text, tmp_path: (None, None, lambda: GaussianRational(text)),
}


@pytest.mark.parametrize("route", list(_EXACT_TEXT_ROUTES))
def test_every_exact_text_route_refuses_a_value_past_the_digit_limit(route, tmp_path, capsys):
    # 1e-9999999 is refused at once, naming its option or file, where a family
    # file, ParabolicWeights.parse and GaussianRational computed 10^9999999 for
    # about 6 s (and 1e-99999999999 without bound); 1e-1000 reads 10^-1000
    read = lambda text: _EXACT_TEXT_ROUTES[route](text, tmp_path)
    argv, culprit, value = read("1e-9999999")
    refusal = f"more than {sys.get_int_max_str_digits()} digits"
    with _time_limit(5):
        if argv is None:
            with pytest.raises(ValueError, match=refusal):
                value()
        else:
            message = _exits_1_with_value_error(argv, capsys)
            assert culprit in message and refusal in message, message
    assert read("1e-1000")[2]() == read("1/1" + "0" * 1000)[2]()


def test_json_number_past_the_digit_limit_exits_1_naming_the_file(tmp_path, capsys):
    # json.load ran outside the loader's try: the refusal reached main as
    # TooManyDigits, "an exact value to be written", naming no file
    family = tmp_path / "family.json"
    family.write_text('{"rank": ' + "1" * 5000 + "}")
    message = _exits_1_with_value_error(["flatness", str(family)], capsys)
    assert message.startswith(f"{family}: more than {sys.get_int_max_str_digits()} digits")


@pytest.mark.parametrize(
    "argv, option",
    [
        (["secondary", "catalog:nilpotent_sl2", "--blocks", "1" * 4400], "--blocks"),
        (["kdiff", "catalog:nilpotent_sl2", "--blocks", "1," + "1_0" * 2200], "--blocks"),
        (["toy", "pdeg", "--rho", "1/4,1/4,1/4,1/8", "--degrees", "0,-" + "1" * 4400], "--degrees"),
        (["surface", "trace", "--torus", "--start", "1" * 4400 + ",0.5,0.5", "--theta", "0.3"], "--start"),
    ],
)
def test_integer_option_past_the_digit_limit_exits_1_in_the_readers_words(argv, option, capsys):
    # Python's own message named the option but advised a call to
    # sys.set_int_max_str_digits(), which a command-line user cannot make
    message = _exits_1_with_value_error(argv, capsys)
    assert f"argument {option}: more than {sys.get_int_max_str_digits()} digits" in message
    assert "set_int_max_str_digits" not in message


@pytest.mark.parametrize("blocks", ["1/2,3/2", "1.0,1", "1e0,1"])
def test_integer_option_refuses_an_inexact_integer_as_int_does(blocks, capsys):
    message = _exits_1_with_value_error(["secondary", "catalog:nilpotent_sl2", "--blocks", blocks], capsys)
    assert message.startswith("nilwkb secondary: argument --blocks: invalid literal for int() with base 10: ")


def test_toy_residues_at_1e_minus_1000_exits_0(capsys):
    # the residue at 0 of phi_p is G(0) / p: 10^1000 below the diagonal
    assert main(["toy", "residues", "phi_p", "--p=1e-1000"]) == 0
    res = json.loads(capsys.readouterr().out)["residues"]
    assert res["0"] == [[["0", "0"], ["0", "0"]], [[str(10**1000), "0"], ["0", "0"]]]


_TOY_NUMBERS = ("2", "3", "-1", "1/2", "5/3", "-7/4", "0.5", "2.25", "1e-3", "3E2", "1_0")
# stable weights, and weights that fail the sum and the 2 + 2 bounds
_TOY_WEIGHTS = ("1/4,1/4,1/4,1/8", "1/5,1/5,1/5,1/5", "1/4,1/4,1/4,1/4", "0.1,0.1,0.1,0.4")


def _fuzz_number(rng, text):
    """text after one or two seeded mutations: a huge or large exponent, a
    zero denominator, 0 or 1, signs, Gaussian-looking text or junk."""
    for _ in range(rng.randint(1, 2)):
        what = rng.randrange(7)
        if what == 0:
            text = f"{text}e{rng.choice(('-', '+', ''))}{rng.choice((1000, 3000, 4290, 4310, 10**5, 10**12, 10**30))}"
        elif what == 1:
            text = rng.choice((f"{text}/0", "0/0", "1/-0"))
        elif what == 2:
            text = rng.choice(("0", "1", "-0", "+1", "1.0", "0e99999"))
        elif what == 3:
            text = rng.choice(("-", "+", "--", "+-", " -")) + text
        elif what == 4:
            text = rng.choice((f"{text}+{rng.randint(1, 5)}i", f"{text}i", f"{text}j", f"({text}+1j)", f"{text}-0i"))
        elif what == 5:
            text = rng.choice(("", " ", "nan", "inf", "1/2/3", "1__0", "e5", "1e", f" {text} ", "7" * rng.choice((2000, 4301))))
        else:
            text = f"{text}{rng.choice(('0', '/7', '.5', '_1'))}"
    return text


def test_seeded_toy_option_fuzz_ends_with_exit_0_or_1(capsys):
    # 200 seeded mutations of --p and --rho through toy higgs, residues, cone,
    # stability and pdeg: each ends with exit 0 or 1 in bounded time, and an
    # error with exactly one JSON object (stability's failing verdict is an
    # exit 1 with its report on stdout)
    rng = __import__("random").Random(35)
    codes = []
    for case in range(200):
        p = _fuzz_number(rng, rng.choice(_TOY_NUMBERS)) if rng.random() < 0.8 else rng.choice(_TOY_NUMBERS)
        rho = rng.choice(_TOY_WEIGHTS).split(",")
        if rng.random() < 0.7:
            k = rng.randrange(4)
            rho[k] = _fuzz_number(rng, rho[k])
        rho = ",".join(rho) if rng.random() < 0.9 else ",".join(rho[:3])
        which = rng.choice(("phi_p", "phi_0", "phi_1", "phi_inf"))
        argv = rng.choice(
            (
                ["toy", "higgs", which, f"--p={p}"],
                ["toy", "residues", which, f"--p={p}"],
                ["toy", "cone", f"--p={p}", f"--rho={rho}"],
                ["toy", "stability", f"--rho={rho}"],
                ["toy", "pdeg", f"--rho={rho}"],
            )
        )
        code = _fuzz_case(argv, capsys, (case, argv), verdicts=(0, 1) if argv[1] == "stability" else (0,))
        assert code in (0, 1), (case, argv)
        codes.append(code)
    assert codes.count(0) >= 25 and codes.count(1) >= 100


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
