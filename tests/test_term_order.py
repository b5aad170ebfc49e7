"""The exact layer's output, down to the insertion order of every polynomial's
terms, pinned by one SHA-256.

Term order never reaches JSON, which sorts terms, but it is the order in
which ``BiRationalFunction.compiled`` sums terms in doubles: a change to the
exact arithmetic that keeps every value but reorders terms can still move
numeric output in its last bits.  A change that alters this digest must say
why.
"""

import hashlib
import random

from nilwkb.algebra import BRF, BiPolynomial, GaussianRational, RationalFunctionMatrix
from nilwkb.catalog import catalog, toy_aligned_p
from nilwkb.connection import MatrixOneForm, check_flatness, transform_chart_inverse
from nilwkb.gauge import gauge_conjugate, k_differentials, secondary_higgs, undo_gauge
from nilwkb.toymodel import build_toy_higgs, residues, toy_quadratic_differential

M_AT_LEAST_2 = {
    "nilpotent_sl2": [1, 1],
    "nilpotent_sl2_full": [1, 1],
    "nilpotent_sl3": [1, 1, 1],
    "nilpotent_sl2_parabolic": [1, 1],
    "toy_aligned_p": [1, 1],
}

EXPECTED = "d05943f830e2330a2a593bbdd16a60278c1382d541c678ceb98a20c5c25ae549"
EXPECTED_SEEDED = "6d62e2bfa837c23d6baf82a4a901cd162467e11527c4a0b2cdd6d519baa59ebe"


def _poly(p) -> str:
    return ";".join(f"{i},{j},{c.re},{c.im}" for (i, j), c in p.terms.items())


def _brf(label, e) -> str:
    return f"{label}={_poly(e.num)}/{_poly(e.den)}"


def _labelled(label, matrix):
    for r, row in enumerate(matrix.entries):
        for c, e in enumerate(row):
            yield f"{label}[{r},{c}]", e


def _entries(label, matrix):
    for entry_label, e in _labelled(label, matrix):
        yield _brf(entry_label, e)


def _form(label, form):
    yield from _entries(f"{label}.dz", form.dz_part)
    yield from _entries(f"{label}.dzbar", form.dzbar_part)


def _graded(label, graded):
    for key, form in graded.items():
        yield from _form(f"{label}@{key}", form)


def exact_layer_lines():
    cat = catalog()
    for name, fam in cat.items():
        for res_name, residual in check_flatness(fam).residuals.items():
            yield from _entries(f"flat:{name}:{res_name}", residual)
        for term, _exp, form in fam.terms():
            yield from _form(f"chart:{name}:{term}", transform_chart_inverse(form))
        mixed = fam.phi.dz_part + fam.conn.dz_part
        for k in (1, 2, 3):
            yield _brf(f"tr:{name}:{k}", mixed.power(k).trace())
    for name, blocks in M_AT_LEAST_2.items():
        sd = secondary_higgs(cat[name], blocks)
        yield from _form(f"sec:{name}:Phi", sd.Phi)
        yield from _form(f"sec:{name}:diag", sd.diag_connection)
        yield from _graded(f"sec:{name}:res", dict(sd.residual_terms))
        for term, form in zip(("phi", "conn", "psi"), undo_gauge(sd)):
            yield from _form(f"undo:{name}:{term}", form)
        there = gauge_conjugate(sd.Phi, sd.profile)
        yield from _graded(f"gc:{name}", there)
        yield from _graded(f"gcback:{name}", gauge_conjugate(there, sd.profile.negated()))
        yield from _graded(f"gcfam:{name}", gauge_conjugate(cat[name], sd.profile))
        for k, tr in enumerate(k_differentials(sd.Phi, 4), start=2):
            yield _brf(f"sectr:{name}:{k}", tr)
    for p in (2, 3):
        aligned = toy_aligned_p(p)
        for res_name, residual in check_flatness(aligned).residuals.items():
            yield from _entries(f"flat:aligned{p}:{res_name}", residual)
        for which in ("phi_p", "phi_0", "phi_1", "phi_inf"):
            field = build_toy_higgs(which, p)
            yield from _entries(f"toy:{which}:{p}", field.matrix)
            yield from _form(f"toychart:{which}:{p}", transform_chart_inverse(field.one_form()))
            for site, grid in residues(field).items():
                for r, row in enumerate(grid):
                    for c, x in enumerate(row):
                        yield f"res:{which}:{p}:{site}[{r},{c}]={x.re},{x.im}"
        for c in (0, 1, 2, -3):
            yield _brf(f"qd:{c}:{p}", toy_quadratic_differential(c, p))


def test_exact_layer_term_order_digest():
    lines = list(exact_layer_lines())
    assert len(lines) >= 1000
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == EXPECTED


def _seeded_poly(rng, n_terms, const=None):
    """n_terms distinct monomials z^i zbar^j, i, j <= 1, with small Gaussian
    integer coefficients; const, if given, is the constant term."""
    terms = {} if const is None else {(0, 0): GaussianRational(const)}
    while len(terms) < n_terms:
        key = (rng.randint(0, 1), rng.randint(0, 1))
        if key not in terms:
            terms[key] = GaussianRational(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(-2, 2))
    return BiPolynomial(terms)


def seeded_entries():
    """(label, entry) over fields with several terms on both sides of a
    fraction: g N g^-1 for a constant nilpotent N and g = I + a E_ij with a a
    polynomial in z and zbar, that field over a two-term denominator, and
    their product, trace powers, derivatives and chart inversion."""
    for seed in range(6):
        rng = random.Random(seed)
        n = 2 + seed % 2
        i, j = rng.sample(range(n), 2)
        a = BRF(_seeded_poly(rng, 3))
        elementary = lambda s: RationalFunctionMatrix(
            [[s if (r, c) == (i, j) else BRF.zero() for c in range(n)] for r in range(n)]
        )
        shift = RationalFunctionMatrix([[BRF.one() if r == c + 1 else BRF.zero() for c in range(n)] for r in range(n)])
        ident = RationalFunctionMatrix.identity(n)
        phi = (ident + elementary(a)) @ shift @ (ident - elementary(a))
        psi = phi.scale(BRF(BiPolynomial.constant(1), _seeded_poly(rng, 2, const=1)))
        chart = transform_chart_inverse(MatrixOneForm(phi, psi))
        for name, matrix in (
            ("phi", phi),
            ("psi", psi),
            ("prod", phi @ psi),
            ("dz", psi.derivative_z()),
            ("dzbar", psi.derivative_zbar()),
            ("chart.dz", chart.dz_part),
            ("chart.dzbar", chart.dzbar_part),
        ):
            yield from _labelled(f"seed{seed}:{name}", matrix)
        for k in (1, 2, 3):
            yield f"seed{seed}:tr{k}", (phi + psi).power(k).trace()


def test_seeded_multi_term_fractions_term_order_digest():
    entries = list(seeded_entries())
    assert sum(len(e.num.terms) > 1 and len(e.den.terms) > 1 for _label, e in entries) >= 40
    digest = hashlib.sha256("\n".join(_brf(label, e) for label, e in entries).encode()).hexdigest()
    assert digest == EXPECTED_SEEDED
