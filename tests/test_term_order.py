"""The exact layer's output, down to the insertion order of every polynomial's
terms, pinned by one SHA-256.

Term order never reaches JSON, which sorts terms, but it is the order in
which ``BiRationalFunction.compiled`` sums terms in doubles: a change to the
exact arithmetic that keeps every value but reorders terms can still move
numeric output in its last bits.  A change that alters this digest must say
why.
"""

import hashlib

from nilwkb.catalog import catalog, toy_aligned_p
from nilwkb.connection import check_flatness, transform_chart_inverse
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


def _poly(p) -> str:
    return ";".join(f"{i},{j},{c.re},{c.im}" for (i, j), c in p.terms.items())


def _brf(label, e) -> str:
    return f"{label}={_poly(e.num)}/{_poly(e.den)}"


def _entries(label, matrix):
    for r, row in enumerate(matrix.entries):
        for c, e in enumerate(row):
            yield _brf(f"{label}[{r},{c}]", e)


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
