"""The CLI's output contract: one writer stamps every JSON object, option
values are parsed (and refused) by the parser, error classes carry their exit
code, and outside input that no other test sends is refused with exit 1 and,
for a file, a message naming it."""

import argparse
import inspect
import json

import pytest

from nilwkb import cli, errors
from nilwkb.catalog import nilpotent_sl2
from nilwkb.cli import main
from nilwkb.gauge import k_differentials
from nilwkb.holonomy import ParamPath
from nilwkb.surface import flat_torus

SCHEMA = "nilwkb/1"
ONE = {"num": [[0, 0, "1", "0"]], "den": [[0, 0, "1", "0"]]}
ZERO = {"num": [], "den": [[0, 0, "1", "0"]]}


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def family_file(tmp_path):
    return _write(tmp_path, "family.json", nilpotent_sl2().to_json())


@pytest.fixture
def segment_file(tmp_path):
    return _write(tmp_path, "segment.json", ParamPath.segment(0, 1).to_json())


def _refusal(argv, capsys):
    """main(argv) exits 1 with nothing on stdout; returns the error object."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    return json.loads(captured.err)


# -- option values are parsed by the parser ------------------------------------


@pytest.mark.parametrize(
    "argv, option",
    [
        (["secondary", "{family}", "--blocks", "1,x"], "--blocks"),
        (["holonomy", "{family}", "{segment}", "--eps", "0.5:0.1:cubic:4"], "--eps"),
        (["holonomy", "{family}", "{segment}", "--eps", "0.5:0.25:geometric:1000000000000"], "--eps"),
        (["wkbfit", "{family}", "--exponents", "1,x"], "--exponents"),
        (["surface", "trace", "--torus", "--start", "1,2", "--theta", "0.3"], "--start"),
        (["toy", "stability", "--rho", "1/4,1/4"], "--rho"),
        (["toy", "higgs", "phi_p", "--p", "abc"], "--p"),
        (["toy", "higgs", "phi_p", "--p", "1/0"], "--p"),
        (["toy", "pdeg", "--rho", "1/4,1/4,1/4,1/8", "--degrees", "0,x"], "--degrees"),
    ],
    ids=["blocks", "eps", "eps-count", "exponents", "start", "rho", "p-not-a-number", "p-zero-denominator", "degrees"],
)
def test_option_refusal_names_its_option(family_file, segment_file, argv, option, capsys):
    argv = [a.format(family=family_file, segment=segment_file) for a in argv]
    err = _refusal(argv, capsys)
    assert err["error"] == "ValueError"
    assert f"argument {option}:" in err["message"]


def _subcommands(parser, prefix=()):
    """Every subcommand of parser, as a tuple of names."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield (*prefix, name)
                yield from _subcommands(sub, (*prefix, name))


@pytest.mark.parametrize("command", list(_subcommands(cli.build_parser())), ids=" ".join)
def test_help_of_every_subcommand_exits_0(command, capsys):
    # the string defaults of --p and --degrees pass through their parsers
    with pytest.raises(SystemExit) as exit_info:
        main([*command, "--help"])
    assert exit_info.value.code == 0
    assert "usage: nilwkb " + " ".join(command) in capsys.readouterr().out


def test_parsed_defaults_reach_the_handlers(capsys):
    assert main(["toy", "pdeg", "--rho", "1/4,1/4,1/4,1/8"]) == 0
    assert [row["degree"] for row in json.loads(capsys.readouterr().out)["table"]] == [0] * 16 + [-1] * 16
    assert main(["toy", "residues", "phi_0"]) == 0
    assert sorted(json.loads(capsys.readouterr().out)["residues"]) == ["0", "1", "inf", "p"]


# -- kdiff --up-to below 2 ---------------------------------------------------------


@pytest.mark.parametrize("up_to", ["1", "-3"])
def test_kdiff_up_to_below_2_is_refused(family_file, up_to, capsys):
    err = _refusal(["kdiff", family_file, "--up-to", up_to], capsys)
    assert err["error"] == "ValueError" and "up_to" in err["message"]


def test_k_differentials_refuses_up_to_below_2():
    with pytest.raises(ValueError, match="at least 2"):
        k_differentials(nilpotent_sl2().phi, 1)


# -- refusals of outside input --------------------------------------------------


def _path_without_segments(d):
    d["segments"] = []


def _path_with_a_gap(d):
    d["segments"].append({"type": "line", "from": [2.0, 0.0], "to": [3.0, 0.0]})


def _open_path_marked_closed(d):
    d["closed"] = True


@pytest.mark.parametrize(
    "mutate, named",
    [
        (_path_without_segments, "at least one segment"),
        (_path_with_a_gap, "do not share endpoints"),
        (_open_path_marked_closed, "must end where it starts"),
    ],
    ids=["no-segments", "segments-do-not-meet", "closed-but-open"],
)
def test_refused_path_file_is_named(family_file, tmp_path, mutate, named, capsys):
    data = ParamPath.segment(0, 1).to_json()
    mutate(data)
    path = _write(tmp_path, "bad_path.json", data)
    err = _refusal(["period", family_file, path], capsys)
    assert err["error"] == "ValueError"
    assert path in err["message"] and named in err["message"]


def _two_vertex_polygon(d):
    d["polygons"][0] = d["polygons"][0][:2]


def _edge_in_two_identifications(d):
    d["identifications"][1][0] = d["identifications"][0][0]


@pytest.mark.parametrize(
    "mutate, error",
    [(_two_vertex_polygon, "ValueError"), (_edge_in_two_identifications, "UnmatchedEdge")],
    ids=["two-vertices", "edge-glued-twice"],
)
def test_refused_surface_file_is_named(tmp_path, mutate, error, capsys):
    data = flat_torus().to_json()
    mutate(data)
    path = _write(tmp_path, "bad_surface.json", data)
    err = _refusal(["surface", "validate", path], capsys)
    assert err["error"] == error and path in err["message"]


def _empty_dz(d):
    d["phi"]["dz"] = []


def _ragged_dz(d):
    d["phi"]["dz"][1] = d["phi"]["dz"][1][:1]


def _psi_with_a_dz_part(d):
    d["psi"]["dz"][0][1] = ONE


def _psi_not_traceless(d):
    d["psi"]["dzbar"] = [[ONE, ZERO], [ZERO, ZERO]]


def _coefficient_over_zero(d):
    d["phi"]["dz"][0][1]["num"] = [[0, 0, "1/0", "0"]]


def _conn_dzbar_over(den):
    def mutate(d):
        d["conn"]["dzbar"][0][1] = {"num": [[0, 0, "1", "0"]], "den": den}

    return mutate


FOREIGN_POLE = "pole away from the declared punctures"


@pytest.mark.parametrize(
    "mutate, error, named",
    [
        (_empty_dz, "DimensionMismatch", "empty matrix"),
        (_ragged_dz, "DimensionMismatch", "ragged"),
        (_psi_with_a_dz_part, "DimensionMismatch", "psi must be a (0,1)-form"),
        (_psi_not_traceless, "ValueError", "psi must be exactly traceless"),
        (_coefficient_over_zero, "ValueError", "('1/0', '0')"),
        (_conn_dzbar_over([[0, 1, "1", "0"], [0, 0, "-5", "0"]]), "PoleHit", FOREIGN_POLE),
        (_conn_dzbar_over([[1, 1, "1", "0"], [0, 0, "-1", "0"]]), "PoleHit", FOREIGN_POLE),
        (_conn_dzbar_over([[1, 1, "1", "0"], [1, 0, "-2", "0"], [0, 1, "-3", "0"], [0, 0, "6", "0"]]), "PoleHit", FOREIGN_POLE),
    ],
    ids=[
        "empty-dz",
        "ragged-dz",
        "psi-dz-part",
        "psi-trace",
        "coefficient-over-zero",
        "pole-in-zbar",
        "pole-on-irreducible-mixed",
        "pole-on-mixed-product",
    ],
)
def test_refused_family_file_is_named(tmp_path, mutate, error, named, capsys):
    data = nilpotent_sl2().to_json()
    mutate(data)
    path = _write(tmp_path, "bad_family.json", data)
    err = _refusal(["jordan", path], capsys)
    assert err["error"] == error
    assert path in err["message"] and named in err["message"]


@pytest.mark.parametrize(
    "argv, error",
    [
        (["secondary", "{family}", "--blocks", "1"], "BadBlocks"),
        (["toy", "stability", "--rho", "1/4,1/4"], "ValueError"),
        (["surface", "validate"], "ValueError"),
        (["surface", "validate", "--staircase", "0"], "ValueError"),
    ],
    ids=["blocks-not-the-rank", "two-weights", "no-surface", "staircase-0"],
)
def test_refused_command_exits_1(family_file, argv, error, capsys):
    err = _refusal([a.format(family=family_file) for a in argv], capsys)
    assert err["error"] == error


def test_surface_generate_prints_what_it_emits(tmp_path, capsys):
    emit = tmp_path / "surface.json"
    assert main(["surface", "generate", "--staircase", "2", "--emit", str(emit)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["surface", "generate", "--staircase", "2"]) == 0
    assert capsys.readouterr().out == emit.read_text()


# -- every JSON object the CLI writes carries the schema tag --------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["jordan", "{family}"],
        ["period", "{family}", "{segment}", "--blocks", "1,1"],
        ["surface", "validate", "--torus"],
        ["toy", "pdeg", "--rho", "1/4,1/4,1/4,1/8"],
    ],
    ids=["exact", "numeric", "surface", "toy"],
)
def test_stdout_object_carries_the_schema(family_file, segment_file, argv, capsys):
    assert main([a.format(family=family_file, segment=segment_file) for a in argv]) == 0
    assert json.loads(capsys.readouterr().out)["schema"] == SCHEMA


@pytest.mark.parametrize(
    "argv",
    [
        ["surface", "generate", "--torus"],
        ["toy", "higgs", "phi_p"],
        ["toy", "cone", "--rho", "1/4,1/4,1/4,1/8"],
    ],
    ids=["surface", "toy-family", "toy-cone"],
)
def test_emitted_file_carries_the_schema(tmp_path, argv, capsys):
    emit = tmp_path / "emit.json"
    assert main([*argv, "--emit", str(emit)]) == 0
    capsys.readouterr()
    assert emit.read_text().endswith("}\n")
    assert json.loads(emit.read_text())["schema"] == SCHEMA


def test_trace_summary_on_stderr_carries_the_schema(capsys):
    assert main(["surface", "trace", "--torus", "--start", "0,0.5,0.3", "--theta", "0", "--max-length", "3"]) == 0
    summary = json.loads(capsys.readouterr().err)
    assert summary["schema"] == SCHEMA and summary["terminated"] == "ClosedUp"


def test_error_object_on_stderr_carries_the_schema(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    err = _refusal(["flatness", missing], capsys)
    assert err == {"error": "FileNotFoundError", "message": err["message"], "schema": SCHEMA}
    assert missing in err["message"]


def test_loaded_files_need_no_schema(tmp_path, capsys):
    # to_json returns the bare value; loaders never read the tag
    data = nilpotent_sl2().to_json()
    assert "schema" not in data
    bare = _write(tmp_path, "bare.json", data)
    tagged = _write(tmp_path, "tagged.json", {**data, "schema": SCHEMA})
    outputs = []
    for path in (bare, tagged):
        assert main(["jordan", path]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


# -- the exit code belongs to the error class ------------------------------------

ERROR_CLASSES = [
    cls for _name, cls in inspect.getmembers(errors, inspect.isclass) if issubclass(cls, errors.NilwkbError)
]
BUDGET = {errors.StiffnessBudgetExceeded, errors.NoRecurrenceWithinBudget, errors.HolonomyOverflow}


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_main_returns_the_error_class_exit_code(family_file, monkeypatch, cls, capsys):
    assert cls.exit_code == (2 if cls in BUDGET else 1)

    def stub(args):
        raise cls("stubbed")

    monkeypatch.setattr(cli, "_cmd_jordan", stub)
    assert main(["jordan", family_file]) == cls.exit_code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": cls.__name__, "message": "stubbed", "schema": SCHEMA}
