"""The exact CLI output, pinned by one SHA-256.

Every command below runs through ``nilwkb.cli.main``; the digest covers its
exit code, its stdout, the bytes of any ``--emit`` file, and its stderr (only
the error class when stderr is an error object, since the message may name a
temporary file).  The commands are the exact and combinatorial ones: exact
flatness, Jordan type, reality, trace powers and secondary fields of the
catalog, surface generation, validation and flow on the torus and staircases,
and the toy model.  Numeric commands (holonomy, period, wkbcheck, wkbfit) stay
out, since their last bits depend on the numpy/scipy build.  A change that
alters this digest must say why.
"""

import hashlib
import json
import math

from nilwkb.catalog import FAMILIES
from nilwkb.cli import main

EXPECTED = "678ac74d23e6f5ad41792476416734835f75aa0810136ee08d7b7b10b959d48c"

# catalog families whose secondary field has m >= 2, with their splitting
M_AT_LEAST_2 = {
    "nilpotent_sl2": "1,1",
    "nilpotent_sl2_full": "1,1",
    "nilpotent_sl3": "1,1,1",
    "nilpotent_sl2_parabolic": "1,1",
    "toy_aligned_p": "1,1",
}

WEIGHTS = ("1/4,1/4,1/4,1/8", "1/4,1/4,1/4,1/4")

TORUS, STAIR2, STAIR3 = ["--torus"], ["--staircase", "2"], ["--staircase", "3"]
HALF2_LEFT, HALF2_RIGHT = STAIR2 + ["--half"], STAIR2 + ["--style", "right", "--half"]

# (surface, start, angle): closed leaves, cone-point hits and budget runs,
# with and without half-translation crossings
FLOWS = [
    (TORUS, "0,0.5,0.3", 0.0),
    (TORUS, "0,0.5,0.3", math.atan(1 / 3)),
    (TORUS, "0,0.25,0.75", 0.30788891),
    (STAIR2, "0,0.5,0.3", math.pi / 2),
    (STAIR2, "0,0.5,0.3", math.atan(1 / 2)),
    (STAIR2, "1,0.25,1.5", math.atan(1 / 3)),
    (STAIR2, "1,0.25,1.5", 1.0),
    (STAIR2, "0,0.5,0.3", 1.0),
    (STAIR3, "0,0.5,0.3", math.atan(2)),
    (HALF2_LEFT, "0,0.5,0.3", math.atan(1 / 3)),
    (HALF2_LEFT, "0,0.5,0.3", 0.0),
    (HALF2_LEFT, "1,0.25,1.5", math.atan(2)),
    (HALF2_LEFT, "1,0.25,1.5", 1.0),
    (HALF2_RIGHT, "0,0.5,0.3", math.atan(1 / 2)),
    (HALF2_RIGHT, "1,0.25,1.5", math.atan(1 / 3)),
]


def _commands():
    for name in FAMILIES:
        yield ["flatness", f"{{{name}}}"]
        yield ["flatness", f"catalog:{name}"]
        yield ["jordan", f"{{{name}}}"]
        yield ["reality", f"{{{name}}}"]
        yield ["kdiff", f"{{{name}}}"]
    for name, blocks in M_AT_LEAST_2.items():
        yield ["secondary", f"{{{name}}}", "--blocks", blocks]
        yield ["cyclic", f"{{{name}}}", "--blocks", blocks]
        yield ["kdiff", f"{{{name}}}", "--blocks", blocks]
    for n in range(1, 5):
        for style in ("left", "right"):
            for half in ([], ["--half"]):
                surface = ["--staircase", str(n), "--style", style, *half]
                yield ["surface", "validate", *surface]
                yield ["surface", "generate", *surface, "--emit", "{emit}"]
    for surface, start, theta in FLOWS:
        flow = [*surface, "--start", start, "--theta", repr(theta)]
        yield ["surface", "trace", *flow, "--max-length", "40"]
        for convention in ("imaginary-increasing", "real-increasing"):
            yield ["surface", "wkbloop", *flow, "--convention", convention]
    yield ["surface", "wkbloop", "--torus", "--start", "0,0.5,0.3", "--theta", "0.30788891", "--max-length", "3"]
    for which in ("phi_p", "phi_0", "phi_1", "phi_inf"):
        for p in ("2", "3", "1/2"):
            yield ["toy", "higgs", which, "--p", p, "--emit", "{emit}"]
            yield ["toy", "residues", which, "--p", p]
    for rho in WEIGHTS:
        yield ["toy", "stability", "--rho", rho]
        yield ["toy", "cone", "--p", "2", "--rho", rho, "--emit", "{emit}"]
        yield ["toy", "pdeg", "--rho", rho]


def test_cli_output_digest(tmp_path, capsys):
    files = {"emit": tmp_path / "emit.out"}
    for name, build in FAMILIES.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(build().to_json()))
    emit = files["emit"]
    digest = hashlib.sha256()
    for argv in _commands():
        emit.unlink(missing_ok=True)
        code = main([a.format(**files) for a in argv])
        captured = capsys.readouterr()
        err = captured.err
        if err.startswith('{"error"'):
            err = json.loads(err)["error"]
        emitted = emit.read_bytes() if emit.exists() else b""
        digest.update(json.dumps([argv, code, captured.out, err]).encode())
        digest.update(hashlib.sha256(emitted).digest())
    assert digest.hexdigest() == EXPECTED
