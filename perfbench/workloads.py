"""The four benchmark workloads: seeded inputs, operations and their checks.

Every operation draws its inputs from the workload's seeded generator before
it is timed, calls into ``nilwkb`` through module attributes (so the traced
run can wrap them), and checks its result against a closed form or an
acceptance tolerance.  A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from env import clean_env
from nilwkb import catalog as catalog_mod
from nilwkb import connection, gauge, holonomy, surface, toymodel
from nilwkb.algebra import BiRationalFunction as BRF
from nilwkb.algebra import GaussianRational, RationalFunctionMatrix
from nilwkb.connection import ConnectionFamily, MatrixOneForm

Op = Callable[[], Dict]


class CheckFailed(Exception):
    """An operation's result disagrees with its expected value."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- expected values ----------------------------------------------------------

SEG = holonomy.ParamPath.segment(0, 1)
CIRCLE = holonomy.ParamPath.circle()
CANDIDATES = (Fraction(1), Fraction(1, 2), Fraction(1, 3))
RHO = "1/4,1/4,1/4,1/8"


def sl2_trace(eps: float) -> float:
    """Closed-form holonomy trace of nilpotent_sl2 on the segment [0, 1]."""
    return 2 * math.cosh(eps**-0.5)


def diagonal_trace(eps: float) -> float:
    """Closed-form holonomy trace of regular_diagonal on the unit circle."""
    return 2 * math.cosh(1 / eps)


# Hand-computed parabolic degrees at rho = (1/4, 1/4, 1/4, 1/8), as in the
# acceptance gate: (line degree, incidence) -> pdeg.
PDEG_TABLE = {
    (0, (False, False, False, False)): Fraction(-7, 8),
    (0, (True, True, True, True)): Fraction(7, 8),
    (0, (True, False, False, False)): Fraction(-3, 8),
    (0, (False, False, False, True)): Fraction(-5, 8),
    (0, (True, False, False, True)): Fraction(-1, 8),
    (0, (False, True, True, False)): Fraction(1, 8),
    (-1, (True, True, True, False)): Fraction(-3, 8),
    (-1, (True, True, True, True)): Fraction(-1, 8),
}


def max_rel_err(samples, closed_form) -> float:
    return max(abs(s.trace - closed_form(s.epsilon)) / closed_form(s.epsilon) for s in samples)


def jitter(rng: random.Random, value: float, spread: float = 0.02) -> float:
    """value scaled by a seeded factor in [exp(-spread), exp(spread)]."""
    return value * math.exp(rng.uniform(-spread, spread))


def gaussian_rational(rng: random.Random) -> GaussianRational:
    """A seeded nonzero Gaussian rational with small numerators and denominators."""
    while True:
        x = GaussianRational(
            Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
            Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
        )
        if x:
            return x


# -- workloads ----------------------------------------------------------------


class Workload:
    """A closed loop over ``kinds``: one operation of each kind per cycle."""

    name = ""
    kinds: tuple = ()
    # Peak memory is that of the largest child process, not of the benchmark.
    runs_children = False

    def __init__(self, seed: int, root: Path):
        self.rng = random.Random(seed)
        self.root = root
        # Set by the runner for operations that run traced; only cli_cold reads it.
        self.traced = False

    def make_op(self, kind: str, rng: random.Random) -> Op:
        return getattr(self, f"op_{kind}")(rng)

    def warm_up(self) -> None:
        """One operation of each kind on fixed inputs, so lazy imports and caches are settled."""
        rng = random.Random(0)
        for kind in self.kinds:
            self.make_op(kind, rng)()

    def close(self) -> None:
        pass


class WkbGrid(Workload):
    """The paper's growth-rate check: transport over eps grids, then the rate fit."""

    name = "wkb_grid"
    kinds = ("nilpotent_sl2", "regular_diagonal", "nilpotent_sl3")

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.families = {name: getattr(catalog_mod, name)() for name in self.kinds}
        # The exact layer runs once per family.
        self.sl2_Phi = gauge.secondary_higgs(self.families["nilpotent_sl2"], [1, 1]).Phi
        self.sl3_m = gauge.secondary_higgs(self.families["nilpotent_sl3"], [1, 1, 1]).m

    def warm_up(self):
        holonomy.transport(self.families["nilpotent_sl2"], SEG, 0.25, rel_tol=1e-11)
        holonomy.transport(self.families["regular_diagonal"], CIRCLE, 0.5, rel_tol=1e-11)
        holonomy.transport(self.families["nilpotent_sl3"], SEG, 0.1, rel_tol=1e-10)
        holonomy.period(self.sl2_Phi, SEG)

    def op_nilpotent_sl2(self, rng):
        eps = np.geomspace(jitter(rng, 0.25), jitter(rng, 5e-4), 12)
        family = self.families["nilpotent_sl2"]

        def op():
            samples = holonomy.transport_grid(family, SEG, eps, rel_tol=1e-11)
            err = max_rel_err(samples, sl2_trace)
            check(err <= 1e-6, f"trace off 2cosh(eps^-1/2) by {err:.2e}")
            fit = holonomy.wkb_fit(samples, CANDIDATES)
            check(fit.exponent_p == Fraction(1, 2), f"picked p={fit.exponent_p}")
            check(abs(fit.Z - 1) <= 1e-4, f"|Z-1| = {abs(fit.Z - 1):.2e}")
            Z = holonomy.period(self.sl2_Phi, SEG)
            check(abs(fit.Z - Z) <= 1e-4, f"fit Z {fit.Z} vs period {Z}")
            return {"eps_samples": len(samples), "trace_rel_err": err}

        return op

    def op_regular_diagonal(self, rng):
        eps = np.geomspace(jitter(rng, 0.5), jitter(rng, 0.05), 12)
        family = self.families["regular_diagonal"]

        def op():
            samples = holonomy.transport_grid(family, CIRCLE, eps, rel_tol=1e-11)
            err = max_rel_err(samples, diagonal_trace)
            check(err <= 1e-8, f"trace off 2cosh(1/eps) by {err:.2e}")
            fit = holonomy.wkb_fit(samples, CANDIDATES)
            check(fit.exponent_p == Fraction(1), f"picked p={fit.exponent_p}")
            check(abs(fit.Z - 1) <= 1e-6, f"|Z-1| = {abs(fit.Z - 1):.2e}")
            return {"eps_samples": len(samples), "trace_rel_err": err}

        return op

    def op_nilpotent_sl3(self, rng):
        eps = np.geomspace(jitter(rng, 0.1), jitter(rng, 1e-3), 32)
        family = self.families["nilpotent_sl3"]

        def op():
            samples = holonomy.transport_grid(family, SEG, eps, rel_tol=1e-10)
            check(self.sl3_m == 3, f"m = {self.sl3_m}")
            fit = holonomy.wkb_fit(samples)
            deviation = abs(fit.free_fit_exponent - 2 / 3) / (2 / 3)
            check(deviation <= 0.05, f"free-fit exponent {fit.free_fit_exponent:.4f}")
            return {"eps_samples": len(samples)}

        return op


class InvariantChecks(Workload):
    """Seeded copies of the numeric invariant suites: many short holonomy calls."""

    name = "invariant_checks"
    kinds = ("multiplicativity", "antisymmetry", "circle")

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.diagonal = catalog_mod.regular_diagonal()

    def op_multiplicativity(self, rng):
        a, b, c = rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2)
        family = ConnectionFamily(
            2,
            MatrixOneForm.from_dz(RationalFunctionMatrix.from_scalars([[0, rng.randint(1, 3)], [0, 0]])),
            MatrixOneForm.from_dz(RationalFunctionMatrix.from_scalars([[a, b], [c, -a]])),
            MatrixOneForm.zero(2),
        )
        eps = rng.uniform(0.3, 1.0)
        mid = rng.uniform(0.3, 0.7)

        def op():
            full = holonomy.transport(family, SEG, eps)
            first = holonomy.transport(family, holonomy.ParamPath.segment(0, mid), eps)
            second = holonomy.transport(family, holonomy.ParamPath.segment(mid, 1), eps)
            err = np.linalg.norm(full.holonomy - second.holonomy @ first.holonomy)
            bound = 10 * max(full.est_error, first.est_error, second.est_error)
            check(err <= bound, f"multiplicativity error {err:.2e} > {bound:.2e}")
            det_err = abs(np.linalg.det(full.holonomy) - 1)
            check(det_err <= 100 * full.est_error, f"|det - 1| = {det_err:.2e}")
            return {"eps_samples": 3}

        return op

    def op_antisymmetry(self, rng):
        Phi = MatrixOneForm.from_dz(
            RationalFunctionMatrix.from_scalars([[0, rng.randint(1, 4)], [rng.randint(1, 4), 0]])
        )
        z0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        gamma = holonomy.ParamPath.segment(z0, z0 + complex(rng.uniform(0.2, 1.5), rng.uniform(-0.4, 0.4)))

        def op():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                total = holonomy.period(Phi, gamma) + holonomy.period(Phi, gamma.reversed())
            check(abs(total) <= 1e-10, f"period not odd under reversal: {abs(total):.2e}")
            return {}

        return op

    def op_circle(self, rng):
        eps = rng.uniform(0.1, 0.5)

        def op():
            sample = holonomy.transport(self.diagonal, CIRCLE, eps, rel_tol=1e-11)
            err = max_rel_err([sample], diagonal_trace)
            check(err <= 1e-8, f"trace off 2cosh(1/eps) by {err:.2e} at eps={eps}")
            return {"eps_samples": 1, "trace_rel_err": err}

        return op


class ExactSuite(Workload):
    """Exact algebra, gauge, toy model and surface checks; no ODE."""

    name = "exact_suite"
    # One operation runs every check once, on its own seeded inputs: the
    # checks' costs differ by three orders of magnitude, so a median over
    # single checks would jump between them from seed to seed.
    kinds = ("suite",)
    checks = (
        "catalog_flatness",
        "scale_orbit",
        "secondary",
        "gauge_round_trip",
        "toy_model",
        "staircase",
        "torus_loop",
    )

    def __init__(self, seed, root):
        super().__init__(seed, root)
        families = catalog_mod.catalog()
        self.zero_psi = sorted(name for name, fam in families.items() if fam.psi.is_zero)
        self.families = {name: families[name] for name in self.zero_psi}
        self.base_m = {
            name: gauge.secondary_higgs(fam, [1] * fam.n).m
            for name, fam in self.families.items()
            if name.startswith("nilpotent")
        }
        self.torus = surface.flat_torus()

    def op_suite(self, rng):
        checks = [getattr(self, f"check_{name}")(rng) for name in self.checks]

        def op():
            for check_one in checks:
                check_one()
            return {}

        return op

    def check_catalog_flatness(self, rng):
        def op():
            families = catalog_mod.catalog()
            check(set(self.zero_psi) <= set(families), "catalog lost a family")
            for name, family in families.items():
                report = connection.check_flatness(family)
                check(report.is_flat, f"{name} not flat")
                check(all(r.is_zero for r in report.residuals.values()), f"{name} residual")
            return {}

        return op

    def check_scale_orbit(self, rng):
        # Every zero-psi family, each by its own xi, so each operation does the same work.
        xis = {name: gaussian_rational(rng) for name in self.zero_psi}

        def op():
            for name, xi in xis.items():
                scaled = connection.scale_orbit(self.families[name], xi)
                check(connection.check_flatness(scaled).is_flat, f"{name} scaled by {xi} not flat")
                if name in self.base_m:
                    m = gauge.secondary_higgs(scaled, [1] * scaled.n).m
                    check(m == self.base_m[name], f"{name} scaled by {xi}: m={m}")
            return {}

        return op

    def check_secondary(self, rng):
        seed = rng.randint(0, 10**6)
        sl2 = self.families["nilpotent_sl2"]
        sl3 = self.families["nilpotent_sl3"]
        Phi2 = MatrixOneForm.from_dz(RationalFunctionMatrix.from_scalars([[0, 1], [1, 0]]))

        def op():
            data = gauge.secondary_higgs(sl2, [1, 1], seed=seed)
            check(data.m == 2 and data.Phi == Phi2, "rank-2 secondary field")
            check(gauge.k_differentials(data.Phi, 2)[0] == BRF.constant(2), "Tr Phi^2 != 2")
            check(gauge.undo_gauge(data) == (sl2.phi, sl2.conn, sl2.psi), "rank-2 ungauging")
            data3 = gauge.secondary_higgs(sl3, [1, 1, 1], seed=seed)
            check(data3.m == 3, f"rank-3 m = {data3.m}")
            diffs = gauge.k_differentials(data3.Phi, 3)
            check(diffs[0].is_zero and diffs[1] == BRF.constant(3), "rank-3 trace powers")
            check(gauge.is_m_cyclic(data3.Phi, data3.profile, 3), "rank-3 not 3-cyclic")
            check(gauge.undo_gauge(data3) == (sl3.phi, sl3.conn, sl3.psi), "rank-3 ungauging")
            return {}

        return op

    def check_gauge_round_trip(self, rng):
        n = rng.choice([2, 3])
        grid = [[GaussianRational(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        form = MatrixOneForm.from_dz(RationalFunctionMatrix.from_scalars(grid))
        exps = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n - 1)]
        exps.append(-sum(exps, Fraction(0)))
        profile = gauge.GaugeProfile(tuple(exps))

        def op():
            back = gauge.gauge_conjugate(gauge.gauge_conjugate(form, profile), profile.negated())
            check(back == {Fraction(0): form}, "gauge round trip")
            return {}

        return op

    def check_toy_model(self, rng):
        while True:
            p = gaussian_rational(rng)
            if p != GaussianRational(1):
                break

        def op():
            for which in ("phi_p", "phi_0", "phi_1", "phi_inf"):
                field = toymodel.build_toy_higgs(which, p)
                res = toymodel.residues(field)
                for site in field.vanishing:
                    check(all(not x for row in res[site] for x in row), f"{which} residue at {site}")
            aligned = catalog_mod.toy_aligned_p(p)
            check(connection.check_flatness(aligned).is_flat, f"toy_aligned_p({p}) not flat")
            weights = toymodel.ParabolicWeights.parse(RHO)
            for (deg, incidence), value in PDEG_TABLE.items():
                got = toymodel.pdeg(deg, incidence, weights)
                check(got == value, f"pdeg{(deg, incidence)} = {got}")
            return {}

        return op

    def check_staircase(self, rng):
        n = rng.randint(1, 5)
        style = rng.choice(["left", "right"])
        half = rng.choice([True, False])

        def op():
            rep = surface.validate(surface.staircase(n, style, half=half))
            check(rep.genus == n, f"staircase({n}, {style}, half={half}) genus {rep.genus}")
            check(sum(rep.orders()) == 4 * rep.genus - 4, "Gauss-Bonnet")
            if half:
                check(rep.simple_pole_count() == 2, "half staircase simple poles")
            return {}

        return op

    def check_torus_loop(self, rng):
        while True:
            p, q = rng.randint(1, 5), rng.randint(-5, 5)
            if math.gcd(p, q) == 1:
                break
        start = (0, complex(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)))

        def op():
            loop = surface.find_wkb_loop(self.torus, start, math.atan2(q, p))
            check(abs(loop.period_Z - complex(p, q)) <= 1e-6, f"torus loop ({p},{q}) period {loop.period_Z}")
            return {}

        return op


def parse_importtime(stderr: str) -> Dict[str, float]:
    """Import times in ms from ``python -X importtime`` output.

    ``import_ms`` is the cumulative time of the first top-level ``nilwkb``
    import and of every top-level import after it.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _self, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1000.0))
    out = {"import_ms": 0.0}
    started = False
    for depth, name, ms in entries:
        if depth == 0 and name.split(".")[0] == "nilwkb":
            started = True
        if started and depth == 0:
            out["import_ms"] += ms
        for key, module in (("sympy_ms", "sympy"), ("scipy_integrate_ms", "scipy.integrate")):
            if name == module and key not in out:
                out[key] = ms
    return out


def run_cli(root: Path, args: List[str], importtime: bool = False) -> Dict:
    """Run ``python -m nilwkb.cli args`` in a fresh interpreter; returns its outputs and wall time."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-m", "nilwkb.cli"] + args
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=clean_env(root), capture_output=True, text=True, timeout=120)
    wall_ms = (time.perf_counter() - t0) * 1000
    if proc.returncode != 0:
        errors = [line for line in proc.stderr.splitlines() if not line.startswith("import time:")]
        raise CheckFailed(f"{' '.join(args)} exited {proc.returncode}: {' | '.join(errors)[-300:]}")
    out = {"stdout": proc.stdout, "wall_ms": wall_ms}
    if importtime:
        out["imports"] = parse_importtime(proc.stderr)
    return out


class CliCold(Workload):
    """A fixed mix of nilwkb commands, each in a fresh interpreter."""

    name = "cli_cold"
    runs_children = True
    kinds = (
        "flatness",
        "secondary",
        "jordan",
        "surface_validate",
        "surface_wkbloop",
        "toy_stability",
        "toy_cone",
        "toy_pdeg",
        "holonomy",
        "wkbfit",
    )

    def __init__(self, seed, root):
        super().__init__(seed, root)
        scratch = root / ".perfbench"
        scratch.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=scratch))
        self.names = sorted(catalog_mod.catalog())
        self.bases = {2: catalog_mod.nilpotent_sl2(), 3: catalog_mod.nilpotent_sl3()}
        self.jordan = {n: gauge.jordan_type(fam.phi) for n, fam in self.bases.items()}
        self.sl2_file = self._write("nilpotent_sl2.json", self.bases[2].to_json())
        self.segment_file = self._write("segment.json", SEG.to_json())
        self.samples_file = self.tmp / "samples.csv"

    def _write(self, name: str, payload: dict) -> str:
        path = self.tmp / name
        path.write_text(json.dumps(payload))
        return str(path)

    def warm_up(self):
        # Compiles the CLI module's bytecode, which the package import does not.
        import nilwkb.cli  # noqa: F401

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _cmd(self, args: List[str], checker: Callable[[str], None]) -> Op:
        def op():
            result = run_cli(self.root, args, importtime=self.traced)
            checker(result["stdout"])
            obs = {"cli_wall_ms": result["wall_ms"]}
            if "imports" in result:
                obs["imports"] = result["imports"]
            return obs

        return op

    def _scaled_family_file(self, rng) -> tuple:
        n = rng.choice([2, 3])
        family = connection.scale_orbit(self.bases[n], gaussian_rational(rng))
        return n, self._write(f"family_{n}.json", family.to_json())

    def op_flatness(self, rng):
        name = rng.choice(self.names)

        def checker(out):
            check(json.loads(out)["is_flat"] is True, f"catalog:{name} not flat")

        return self._cmd(["flatness", f"catalog:{name}"], checker)

    def op_secondary(self, rng):
        n, path = self._scaled_family_file(rng)

        def checker(out):
            m = json.loads(out)["m"]
            check(m == n, f"secondary m = {m}, expected {n}")

        return self._cmd(["secondary", path, "--blocks", ",".join(["1"] * n)], checker)

    def op_jordan(self, rng):
        n, path = self._scaled_family_file(rng)
        expected = self.jordan[n]

        def checker(out):
            payload = json.loads(out)
            check(payload["partition"] == list(expected.partition), f"partition {payload['partition']}")
            check(payload["transpose"] == list(expected.transpose), f"transpose {payload['transpose']}")

        return self._cmd(["jordan", path], checker)

    def op_surface_validate(self, rng):
        n = rng.randint(1, 5)
        style = rng.choice(["left", "right"])

        def checker(out):
            payload = json.loads(out)
            check(payload["genus"] == n, f"staircase {n} genus {payload['genus']}")
            check(payload["chi"] == 2 - 2 * n, f"staircase {n} chi {payload['chi']}")

        return self._cmd(["surface", "validate", "--staircase", str(n), "--style", style], checker)

    def op_surface_wkbloop(self, rng):
        while True:
            p, q = rng.randint(1, 4), rng.randint(-4, 4)
            if math.gcd(p, q) == 1:
                break
        x, y = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)

        def checker(out):
            Z = complex(*json.loads(out)["period_Z"])
            check(abs(Z - complex(p, q)) <= 1e-6, f"torus loop ({p},{q}) period {Z}")

        theta = repr(math.atan2(q, p))
        return self._cmd(["surface", "wkbloop", "--torus", "--start", f"0,{x!r},{y!r}", "--theta", theta], checker)

    def op_toy_stability(self, rng):
        def checker(out):
            check(json.loads(out)["all_pass"] is True, "weights fail the stability inequalities")

        return self._cmd(["toy", "stability", "--rho", RHO], checker)

    def op_toy_cone(self, rng):
        p = str(rng.choice([2, 3, 5, -1, Fraction(1, 2), Fraction(-3, 4)]))

        def checker(out):
            graph = json.loads(out)
            check(len(graph["nodes"]) == 9 and len(graph["edges"]) == 8, "cone graph is not the 9/8 star")

        return self._cmd(["toy", "cone", f"--p={p}", "--rho", RHO], checker)

    def op_toy_pdeg(self, rng):
        def checker(out):
            rows = {
                (r["degree"], tuple(r["incidence"])): Fraction(r["pdeg"]) for r in json.loads(out)["table"]
            }
            for key, value in PDEG_TABLE.items():
                check(rows.get(key) == value, f"pdeg{key} = {rows.get(key)}")

        return self._cmd(["toy", "pdeg", "--rho", RHO], checker)

    def op_holonomy(self, rng):
        hi, lo = jitter(rng, 0.25), jitter(rng, 0.002)
        self.samples_file.unlink(missing_ok=True)

        def checker(out):
            rows = list(csv.DictReader(io.StringIO(out)))
            check(len(rows) == 8, f"{len(rows)} samples")
            for r in rows:
                eps = float(r["epsilon"])
                exact = sl2_trace(eps)
                err = abs(complex(float(r["re_trace"]), float(r["im_trace"])) - exact) / exact
                check(err <= 1e-6, f"trace off 2cosh(eps^-1/2) by {err:.2e} at eps={eps}")
            self.samples_file.write_text(out)

        eps = f"{hi!r}:{lo!r}:geometric:8"
        args = ["holonomy", self.sl2_file, self.segment_file, "--eps", eps, "--rel-tol", "1e-10"]
        return self._cmd(args, checker)

    def op_wkbfit(self, rng):
        def checker(out):
            fit = json.loads(out)
            check(fit["exponent"] == "1/2", f"picked p={fit['exponent']}")
            check(abs(complex(*fit["Z"]) - 1) <= 1e-4, f"Z = {fit['Z']}")

        return self._cmd(["wkbfit", str(self.samples_file), "--exponents", "1,1/2,1/3"], checker)


WORKLOADS = {cls.name: cls for cls in (WkbGrid, InvariantChecks, ExactSuite, CliCold)}
