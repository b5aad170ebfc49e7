"""Command-line interface: one executable, one subcommand per pipeline.

Every JSON object the CLI writes goes through one writer, which adds the
"schema": "nilwkb/1" field and sorts the keys, so runs with the same inputs
are byte-identical.  Option values are parsed by the parser, so a refusal
names its option.  A failure exits with its error class's exit_code (1 for
invalid input, argparse's refusals of a command line included; 2 for a
numerical budget), with a machine-readable error object on stderr.  The
writer refuses NaN and infinities, which are not JSON, as invalid output.
Numbers in options and input files are read by algebra's exact_fraction and
exact_int; a result with more digits than Python writes ends in TooManyDigits.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import catalog as catalog_mod
from .algebra import exact_fraction, exact_int
from .connection import ConnectionFamily, check_flatness
from .errors import NilwkbError, TooManyDigits
from .gauge import (
    is_m_cyclic,
    jordan_type,
    k_differentials,
    reality_obstruction,
    secondary_higgs,
)
from .holonomy import (
    HolonomySample,
    ParamPath,
    is_wkb_curve,
    period,
    transport_grid,
    wkb_fit,
)
from .surface import (
    CONVENTIONS,
    PolygonSurface,
    find_wkb_loop,
    flat_torus,
    lift_check,
    staircase,
    trace_flow,
    validate as validate_surface,
)
from .toymodel import (
    TOY_FIELDS,
    ParabolicWeights,
    build_toy_higgs,
    check_weight_inequalities,
    nilpotent_cone_graph,
    pdeg_table,
    residues,
)

# points an --eps grid may have, each a member of both transport runs: 4096 at rank 2 peak at 170 MB; fits use 32
MAX_EPS_POINTS = 4096


def _stamped(payload: dict) -> str:
    """payload as the sorted-key JSON the CLI writes, tagged with its schema; a NaN or infinity raises ValueError."""
    return json.dumps({**payload, "schema": "nilwkb/1"}, sort_keys=True, allow_nan=False)


def _emit(payload: dict, path=None) -> None:
    """Print the stamped payload, or write it as one line to the file at path."""
    if path is None:
        print(_stamped(payload))
    else:
        with open(path, "w") as fh:
            fh.write(_stamped(payload) + "\n")


def _load_json(path: str, build):
    """build(data) for the JSON object in the file at path; a missing field,
    a value of the wrong type, shape or size, or a value the builder refuses
    raises an error that names the file: a ValueError, or build's own
    error class where it is a toolkit error or a zero denominator."""
    try:
        with open(path) as fh:
            data = json.load(fh, parse_int=exact_int)
        if not isinstance(data, dict):
            raise ValueError("expected a JSON object")
        return build(data)
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc.args[0]!r}") from None
    except (TypeError, IndexError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed value ({type(exc).__name__}: {exc})") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except (NilwkbError, ZeroDivisionError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _load_family(source: str) -> ConnectionFamily:
    """A family JSON file, or ``catalog:<name>``, which builds only that shipped family."""
    if source.startswith("catalog:"):
        name = source.split(":", 1)[1]
        families = catalog_mod.FAMILIES
        if name not in families:
            raise ValueError(f"unknown catalog family {name!r}; known: {', '.join(sorted(families))}")
        return families[name]()
    return _load_json(source, ConnectionFamily.from_json)


def _parse_eps_grid(spec: str) -> list:
    try:
        start_s, end_s, spacing, count_s = spec.split(":")
        start, end, count = float(start_s), float(end_s), int(count_s)
    except ValueError as exc:
        raise ValueError(f"bad eps grid {spec!r}; want start:end:spacing:count") from exc
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ValueError("eps grid endpoints must be finite")
    if start <= 0 or end <= 0:
        raise ValueError("eps grid must be strictly positive")
    if start == end:
        raise ValueError("eps grid must be strictly monotone")
    if count < 1:
        raise ValueError("eps grid needs at least one point")
    if count > MAX_EPS_POINTS:
        raise ValueError(f"eps grid of {count} points; at most {MAX_EPS_POINTS}")
    if spacing == "geometric":
        return list(np.geomspace(start, end, count))
    if spacing == "linear":
        return list(np.linspace(start, end, count))
    raise ValueError(f"unknown spacing {spacing!r}; use geometric or linear")


def _list_of(read):
    """A parser of comma-separated values, each read by read."""
    return lambda text: [read(part) for part in text.split(",")]


def _field(args, family: ConnectionFamily):
    """The family's leading field, or with --blocks the secondary field of that splitting."""
    return secondary_higgs(family, args.blocks).Phi if args.blocks else family.phi


def _surface_from_args(args) -> PolygonSurface:
    if args.staircase is not None:
        return staircase(args.staircase, style=args.style, half=args.half)
    if args.torus:
        return flat_torus()
    if args.surface:
        return _load_json(args.surface, PolygonSurface.from_json)
    raise ValueError("provide a surface file, --staircase N, or --torus")


# -- subcommand handlers ------------------------------------------------------


def _cmd_flatness(args) -> int:
    report = check_flatness(_load_family(args.family))
    _emit(report.to_json())
    return 0 if report.is_flat else 1


def _cmd_secondary(args) -> int:
    family = _load_family(args.family)
    data = secondary_higgs(family, args.blocks)
    _emit(data.to_json())
    return 0


def _cmd_jordan(args) -> int:
    family = _load_family(args.family)
    jt = jordan_type(family.phi)
    _emit(
        {
            "partition": list(jt.partition),
            "transpose": list(jt.transpose),
            "nilpotency_index": jt.nilpotency_index,
        }
    )
    return 0


def _cmd_cyclic(args) -> int:
    family = _load_family(args.family)
    data = secondary_higgs(family, args.blocks)
    ok = is_m_cyclic(data.Phi, data.profile, data.m)
    _emit({"m": data.m, "m_cyclic": ok})
    return 0


def _cmd_kdiff(args) -> int:
    diffs = k_differentials(_field(args, _load_family(args.family)), args.up_to)
    _emit({"k_differentials": {str(k): d.to_json() for k, d in enumerate(diffs, start=2)}})
    return 0


def _cmd_reality(args) -> int:
    family = _load_family(args.family)
    obstructed = reality_obstruction(family.phi, family.psi)
    _emit({"obstruction": obstructed})
    return 0


def _cmd_holonomy(args) -> int:
    family = _load_family(args.family)
    gamma = _load_json(args.path, ParamPath.from_json)
    samples = transport_grid(family, gamma, args.eps, rel_tol=args.rel_tol)
    writer = csv.writer(sys.stdout)
    writer.writerow(["epsilon", "re_trace", "im_trace", "est_error", "steps", "rhs_evals"])
    for s in samples:
        writer.writerow(
            [repr(s.epsilon), repr(s.trace.real), repr(s.trace.imag), repr(s.est_error), s.steps, s.rhs_evals]
        )
    return 0


def _cmd_period(args) -> int:
    family, gamma = _load_family(args.family), _load_json(args.path, ParamPath.from_json)
    Z = period(_field(args, family), gamma)
    _emit({"Z": [Z.real, Z.imag], "est_error": Z.est_error, "is_wkb": Z.is_wkb, "margin": Z.margin})
    return 0


def _cmd_wkbcheck(args) -> int:
    family, gamma = _load_family(args.family), _load_json(args.path, ParamPath.from_json)
    check = is_wkb_curve(_field(args, family), gamma)
    _emit({"is_wkb": check.is_wkb, "margin": check.margin})
    return 0


def _cmd_wkbfit(args) -> int:
    with open(args.samples) as fh:
        reader = csv.DictReader(fh, restval="")
        missing = [c for c in ("epsilon", "re_trace", "im_trace") if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{args.samples}: missing column {missing[0]!r}")
        rows = list(reader)
    samples = [
        HolonomySample(
            epsilon=float(r["epsilon"]),
            holonomy=None,
            trace=complex(float(r["re_trace"]), float(r["im_trace"])),
            est_error=float(r.get("est_error", 0.0) or 0.0),
        )
        for r in rows
    ]
    _emit(wkb_fit(samples, args.exponents).to_json())
    return 0


def _cmd_surface_validate(args) -> int:
    _emit(validate_surface(_surface_from_args(args)).to_json())
    return 0


def _cmd_surface_generate(args) -> int:
    _emit(_surface_from_args(args).to_json(), args.emit)
    return 0


def _flow_start(text: str):
    """polygon,x,y as (polygon, point); trace_flow checks both."""
    fields = text.split(",")
    if len(fields) != 3:
        raise ValueError(f"want polygon,x,y, got {text!r}")
    poly_s, x_s, y_s = fields
    return exact_int(poly_s), complex(float(x_s), float(y_s))


def _cmd_surface_trace(args) -> int:
    traj = trace_flow(_surface_from_args(args), args.start, args.theta, args.max_length)
    writer = csv.writer(sys.stdout)
    writer.writerow(["polygon", "x0", "y0", "x1", "y1"])
    for p, a, b in traj.pieces:
        writer.writerow([p, a.real, a.imag, b.real, b.imag])
    summary = {"terminated": traj.terminated, "length": traj.total_length, "pieces": len(traj.pieces)}
    print(_stamped(summary), file=sys.stderr)
    return 0


def _cmd_surface_wkbloop(args) -> int:
    surf = _surface_from_args(args)
    loop = find_wkb_loop(surf, args.start, args.theta, max_length=args.max_length, convention=args.convention)
    payload = loop.to_json()
    payload["lift_two_loops"] = lift_check(surf, loop)
    _emit(payload)
    return 0


def _cmd_toy_stability(args) -> int:
    report = check_weight_inequalities(args.rho)
    _emit(report.to_json())
    return 0 if report.all_pass else 1


def _cmd_toy_higgs(args) -> int:
    field = build_toy_higgs(args.which, args.p)
    if args.emit:
        _emit(catalog_mod.toy_skeleton(args.which, args.p).to_json(), args.emit)
    _emit(
        {
            "which": field.which,
            "matrix": field.matrix.to_json(),
            "flags": field.flags.to_json(),
            "poles": list(field.poles),
            "vanishing": list(field.vanishing),
        }
    )
    return 0


def _cmd_toy_cone(args) -> int:
    graph = nilpotent_cone_graph(args.p, args.rho)
    if args.emit:
        _emit(graph, args.emit)
    _emit(graph)
    return 0


def _cmd_toy_pdeg(args) -> int:
    rows = pdeg_table(args.rho, args.degrees)
    _emit(
        {
            "table": [
                {"degree": r["degree"], "incidence": list(r["incidence"]), "pdeg": str(r["pdeg"])}
                for r in rows
            ],
        }
    )
    return 0


def _cmd_toy_residues(args) -> int:
    res = residues(build_toy_higgs(args.which, args.p))
    _emit({"residues": {site: [[x.to_json() for x in row] for row in mat] for site, mat in res.items()}})
    return 0


# -- parser --------------------------------------------------------------------


def _option(parse):
    """parse as an argparse type: a refusal keeps its reason, and the parser
    adds the option's name."""

    def parse_option(text: str):
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse_option


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose refusals raise ValueError naming the command,
    so that main reports them as exit 1 like any other invalid input."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nilwkb",
        description="flat families with nilpotent leading term: exact checks and WKB numerics",
    )
    integer, int_list = _option(exact_int), _option(_list_of(exact_int))
    weights, fraction = _option(ParabolicWeights.parse), _option(exact_fraction)
    family_help = "family JSON file, or catalog:<name>"
    # accepted so that existing command lines keep working; nothing reads it
    parser.add_argument("--seed", type=integer, default=2301, help="ignored: Jordan types are exact")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def family_command(name, fn, help, path=False):
        """The subparser of a command that reads a family, and a path where it takes one."""
        p = sub.add_parser(name, help=help)
        p.add_argument("family", help=family_help)
        if path:
            p.add_argument("path")
        p.set_defaults(fn=fn)
        return p

    family_command("flatness", _cmd_flatness, "exact flatness check; exit 0 iff flat")
    p = family_command("secondary", _cmd_secondary, "secondary Higgs field and invariant m")
    p.add_argument("--blocks", type=int_list, required=True, help="grading block sizes, e.g. 1,1")
    family_command("jordan", _cmd_jordan, "Jordan type of the leading field")
    p = family_command("cyclic", _cmd_cyclic, "cyclic-grading check of the secondary field")
    p.add_argument("--blocks", type=int_list, required=True)
    p = family_command("kdiff", _cmd_kdiff, "trace powers Tr(Phi^k)")
    p.add_argument("--up-to", type=integer, default=2, dest="up_to")
    p.add_argument("--blocks", type=int_list, help="use the secondary field of this splitting")
    family_command("reality", _cmd_reality, "determinant-sign reality obstruction")
    p = family_command("holonomy", _cmd_holonomy, "transport over an eps grid; CSV on stdout", path=True)
    p.add_argument("--eps", type=_option(_parse_eps_grid), required=True, help="start:end:spacing:count")
    p.add_argument("--rel-tol", type=float, default=1e-10, dest="rel_tol", help="finite, in (0, 1e-2]")
    p = family_command("period", _cmd_period, "spectral period along a path", path=True)
    p.add_argument("--blocks", type=int_list, help="use the secondary field of this splitting")
    p = family_command("wkbcheck", _cmd_wkbcheck, "WKB-curve predicate and margin", path=True)
    p.add_argument("--blocks", type=int_list)

    p = sub.add_parser("wkbfit", help="rate fit from a holonomy CSV")
    p.add_argument("samples")
    p.add_argument("--exponents", type=_option(_list_of(exact_fraction)), help="candidate exponents, e.g. 1,1/2,1/3")
    p.set_defaults(fn=_cmd_wkbfit)

    p = sub.add_parser("surface", help="half-translation surface tools")
    ssub = p.add_subparsers(dest="surface_cmd", required=True)
    surface_cmds = {
        "validate": _cmd_surface_validate,
        "trace": _cmd_surface_trace,
        "wkbloop": _cmd_surface_wkbloop,
        "generate": _cmd_surface_generate,
    }
    for name, fn in surface_cmds.items():
        sp = ssub.add_parser(name)
        sp.add_argument("surface", nargs="?", help="surface JSON file")
        sp.add_argument("--staircase", type=integer, help="generate a staircase of this genus")
        sp.add_argument("--style", choices=("left", "right"), default="left")
        sp.add_argument("--half", action="store_true", help="half-translation variant")
        sp.add_argument("--torus", action="store_true", help="unit flat torus")
        if name in ("trace", "wkbloop"):
            sp.add_argument("--start", type=_option(_flow_start), required=True, help="polygon,x,y")
            sp.add_argument("--theta", type=float, required=True)
            sp.add_argument("--max-length", type=float, default=400.0, dest="max_length")
        if name == "wkbloop":
            sp.add_argument("--convention", choices=CONVENTIONS, default=CONVENTIONS[0])
        if name == "generate":
            sp.add_argument("--emit", help="write the surface JSON here")
        sp.set_defaults(fn=fn)

    p = sub.add_parser("toy", help="four-punctured-sphere model")
    tsub = p.add_subparsers(dest="toy_cmd", required=True)
    sp = tsub.add_parser("stability")
    sp.add_argument("--rho", type=weights, required=True, help="four weights, e.g. 1/4,1/4,1/4,1/8")
    sp.set_defaults(fn=_cmd_toy_stability)
    sp = tsub.add_parser("higgs")
    sp.add_argument("which", choices=TOY_FIELDS)
    sp.add_argument("--p", type=fraction, default="2")
    sp.add_argument("--emit", help="write a family JSON skeleton here")
    sp.set_defaults(fn=_cmd_toy_higgs)
    sp = tsub.add_parser("cone")
    sp.add_argument("--p", type=fraction, default="2")
    sp.add_argument("--rho", type=weights, required=True)
    sp.add_argument("--emit")
    sp.set_defaults(fn=_cmd_toy_cone)
    sp = tsub.add_parser("pdeg")
    sp.add_argument("--rho", type=weights, required=True)
    sp.add_argument("--degrees", type=int_list, default="0,-1")
    sp.set_defaults(fn=_cmd_toy_pdeg)
    sp = tsub.add_parser("residues")
    sp.add_argument("which", choices=TOY_FIELDS)
    sp.add_argument("--p", type=fraction, default="2")
    sp.set_defaults(fn=_cmd_toy_residues)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (NilwkbError, ValueError, OSError, ZeroDivisionError) as exc:
        if isinstance(exc, ValueError) and str(exc).startswith("Exceeds the limit ("):
            # Python's own refusal to write an int, raised while a payload is
            # built; a refusal that a loader or the parser wrapped names its source
            exc = TooManyDigits(f"an exact value to be written has more than {sys.get_int_max_str_digits()} digits, the most that Python writes")
        print(_stamped({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return getattr(exc, "exit_code", 1)


if __name__ == "__main__":
    sys.exit(main())
