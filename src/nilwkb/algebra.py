"""Exact scalar, polynomial, rational-function and matrix arithmetic.

Coefficients are Gaussian rationals, each held as an integer triple
``(a + b i) / d`` in lowest terms, so every identity checked on catalog objects
(nilpotency, flatness, residue conditions) is exact rather than
tolerance-dependent.  The antiholomorphic coordinate is a
second formal variable ``zbar``; conjugation becomes a substitution at
evaluation time, which keeps unitary-frame connection terms such as
``dz/z - dzbar/zbar`` rational.

Canonical forms divide out the gcd of numerator and denominator, by the
package's own long division.  When either polynomial has a single term (a
constant included) the gcd is exponent arithmetic; sympy computes only the
gcd of two polynomials that each have several terms, over the variables that
occur in them, so a pair in z alone takes sympy's one-variable algorithm.

Zero is the identity of rational-function arithmetic here and nowhere else:
``x + 0`` and ``0 + x`` return ``x``, ``0 - x`` returns ``-x`` and a product
with a zero factor returns the zero singleton, all without normalising.
Every instance is canonical, so these are the normalised results, down to
the insertion order of their terms; callers need no zero guards of their own.
Three known zeros are skipped where they arise.  A matrix product sums, in
ascending ``k``, only the products whose two factors are both nonzero: the
skipped products would each have added zero, so every entry is the same sum
in the same order.  The derivative of an entry whose numerator and
denominator are both free of the variable is the zero singleton, the value
the quotient rule would normalise to.  A commutator ``X Y - Y X`` with a
zero factor is the zero matrix, built without a product.

An exact value becomes a double only in :meth:`GaussianRational.to_complex`,
which raises ``EvaluationOverflow`` where it is past a double.  It has two
callers: :meth:`BiRationalFunction.compiled`, the one place where
coefficients become floats, and ``holonomy.ParamPath.check_clearance``,
which takes the punctures as doubles.  ``compiled`` raises ``PoleHit`` where
the denominator is within roundoff of 0 relative to its own terms (a
one-term denominator only where it is exactly 0), and ``EvaluationOverflow``
where a coefficient, a power of z or a modulus in the sum leaves double
precision.  Every numeric evaluation, :meth:`BiRationalFunction.evaluate`
and the transport layer's pullback included, goes through it.

Exact text from outside (options, files, the Python API) is read only by
:func:`exact_fraction`; integers in files and list options by :func:`exact_int`.
Text whose value would have more digits than Python writes raises ValueError
(``sys.get_int_max_str_digits()``, 0 for none); a longer digit run, or an
exponent past the limit by more than the text's length, is never computed.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, inf, log10
from typing import Callable, Iterable, Mapping

import sympy
from sympy.polys.domains import QQ, QQ_I

from .errors import DimensionMismatch, EvaluationOverflow, PoleHit

_GENS = sympy.symbols("z zbar")

EVAL_TOLERANCE = 1e-14

_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _run_past(text: str, limit: int) -> bool:
    """Whether text has a run of more than limit digits, underscores skipped (0 is no limit)."""
    return 0 < limit < max(map(len, re.split(r"\D+", text.replace("_", ""))))


def exact_fraction(x) -> Fraction:
    """Fraction(x), the one reader of exact text: text whose value would have
    more digits than Python writes raises ValueError (see the module docstring)."""
    limit = sys.get_int_max_str_digits()
    if not isinstance(x, str) or not limit:
        return Fraction(x)
    exponent = _EXPONENT.search(x)
    if not _run_past(x, limit) and not (exponent and abs(int(exponent[1])) > limit + len(x)):
        value = Fraction(x)
        largest = max(abs(value.numerator), value.denominator)
        # under 2^(3 limit) < 10^limit, no power of ten is needed
        if largest.bit_length() <= 3 * limit or largest < 10**limit:
            return value
    raise ValueError(f"more than {limit} digits, the most that Python writes (sys.get_int_max_str_digits())")


def exact_int(x) -> int:
    """int(x), but text with a run of more digits than Python reads is refused in exact_fraction's words."""
    if isinstance(x, str) and _run_past(x, sys.get_int_max_str_digits()):
        exact_fraction(x)  # raises: the run is past the limit
    return int(x)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return exact_fraction(x)
    if isinstance(x, float):
        if not x.is_integer():
            raise TypeError(f"refusing to coerce non-integral float {x!r} to an exact rational")
        return Fraction(int(x))
    raise TypeError(f"cannot coerce {type(x).__name__} to Fraction")


class _Frozen:
    """Base of the immutable value types: constructors set the slots through
    object.__setattr__, and any later assignment raises.  pickle and
    copy.deepcopy rebuild a value the same way, through :func:`_rebuilt`."""

    __slots__ = ()

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        slots = [name for cls in type(self).__mro__ for name in cls.__dict__.get("__slots__", ())]
        # a complex subclass passes its value to complex.__new__; others pass nothing
        return _rebuilt, (type(self), getattr(self, "__getnewargs__", tuple)(), [(name, getattr(self, name)) for name in slots])


def _rebuilt(cls, args: tuple, slots: list) -> _Frozen:
    """A new cls from the non-_Frozen base's __new__(cls, *args) and its slot
    values.  cls's own constructor, which may return a shared value such as
    the zero singleton, is bypassed, so no existing value is ever set."""
    self = super(_Frozen, cls).__new__(cls, *args)
    for name, value in slots:
        object.__setattr__(self, name, value)
    return self


class GaussianRational(_Frozen):
    """Exact complex number ``(a + b i) / d`` stored as three ints.

    Canonical form: ``d > 0`` and ``gcd(a, b, d) == 1``.  Every value has
    exactly one representation, so equality compares the three slots.
    Arithmetic works on the ints and normalises once per result; ``re`` and
    ``im`` are read-only ``Fraction`` views that no arithmetic builds.
    """

    __slots__ = ("a", "b", "d")

    def __new__(cls, re=0, im=0):
        re, im = _as_fraction(re), _as_fraction(im)
        return _over_common_den(re.numerator, re.denominator, im.numerator, im.denominator)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    @classmethod
    def coerce(cls, x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, complex):
            return cls(_as_fraction(x.real), _as_fraction(x.imag))
        return cls(_as_fraction(x))

    @classmethod
    def from_strings(cls, re: str, im: str) -> "GaussianRational":
        """Parse a serialized pair; a part that is not a finite number raises
        ValueError naming the pair and the reason."""
        try:
            return cls(exact_fraction(re), exact_fraction(im))
        except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
            raise ValueError(f"not an exact Gaussian rational ({exc}): ({re!r}, {im!r})") from None

    def to_json(self) -> list:
        """The pair [str(re), str(im)] that from_strings reads back."""
        return [str(self.re), str(self.im)]

    # -- field operations ---------------------------------------------------

    def __add__(self, other):
        other = GaussianRational.coerce(other)
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _reduced(self.a + other.a, self.b + other.b, d1)
        return _reduced(self.a * d2 + other.a * d1, self.b * d2 + other.b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussianRational.coerce(other)
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _reduced(self.a - other.a, self.b - other.b, d1)
        return _reduced(self.a * d2 - other.a * d1, self.b * d2 - other.b * d1, d1 * d2)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        other = GaussianRational.coerce(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.coerce(other)
        a2, b2 = other.a, other.b
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        a1, b1, d2 = self.a, self.b, other.d
        return _reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self.d * n)

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def __neg__(self):
        return _triple(-self.a, -self.b, self.d)

    def conjugate(self) -> "GaussianRational":
        return _triple(self.a, -self.b, self.d)

    # -- predicates and conversions ------------------------------------------

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        # int / int is correctly rounded, as float(Fraction) is; a part past a double is named
        # by its decimal exponent, since its digits can be too many for str
        try:
            return complex(self.a / self.d, self.b / self.d)
        except OverflowError:
            exponent = log10(max(abs(self.a), abs(self.b))) - log10(self.d)
            raise EvaluationOverflow(f"an exact value of modulus about 1e{exponent:.0f} exceeds double precision") from None

    def __repr__(self):
        if not self.b:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"


# Slot setters that bypass _Frozen.__setattr__; about twice as fast as
# object.__setattr__ on the arithmetic hot path.
_SET_A = GaussianRational.a.__set__
_SET_B = GaussianRational.b.__set__
_SET_D = GaussianRational.d.__set__


def _triple(a: int, b: int, d: int) -> GaussianRational:
    """(a + b i) / d from a triple already in canonical form."""
    self = object.__new__(GaussianRational)
    _SET_A(self, a)
    _SET_B(self, b)
    _SET_D(self, d)
    return self


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b i) / d for d > 0: divides out gcd(a, b, d), skipped when d == 1."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _triple(a, b, d)


def _over_common_den(re_num: int, re_den: int, im_num: int, im_den: int) -> GaussianRational:
    """re_num / re_den + (im_num / im_den) i, for positive denominators."""
    return _reduced(re_num * im_den, im_num * re_den, re_den * im_den)


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)


def _domain_elt(c: GaussianRational):
    return QQ_I.new(QQ(c.a, c.d), QQ(c.b, c.d))


def _from_domain_elt(e) -> GaussianRational:
    x, y = e.x, e.y
    return _over_common_den(int(x.numerator), int(x.denominator), int(y.numerator), int(y.denominator))


class BiPolynomial(_Frozen):
    """Polynomial in the two formal variables (z, zbar) over Gaussian rationals.

    Stored as a monomial dict {(deg_z, deg_zbar): coefficient} with zero
    coefficients stripped.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, GaussianRational] | None = None):
        clean = {}
        if terms:
            for (i, j), c in terms.items():
                c = GaussianRational.coerce(c)
                if c:
                    clean[(int(i), int(j))] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _of(cls, terms: dict) -> "BiPolynomial":
        """An arithmetic result keyed by int pairs with GaussianRational values:
        no coercion; zero coefficients are dropped, insertion order is kept."""
        self = object.__new__(cls)
        object.__setattr__(self, "terms", {k: c for k, c in terms.items() if c})
        return self

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, c) -> "BiPolynomial":
        return cls({(0, 0): GaussianRational.coerce(c)})

    @classmethod
    def z(cls) -> "BiPolynomial":
        return cls({(1, 0): GR_ONE})

    @classmethod
    def zbar(cls) -> "BiPolynomial":
        return cls({(0, 1): GR_ONE})

    @classmethod
    def monomial(cls, i: int, j: int, c=1) -> "BiPolynomial":
        return cls({(i, j): GaussianRational.coerce(c)})

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: "BiPolynomial") -> "BiPolynomial":
        out = dict(self.terms)
        for k, c in other.terms.items():
            prev = out.get(k)
            out[k] = c if prev is None else prev + c
        return BiPolynomial._of(out)

    def __sub__(self, other: "BiPolynomial") -> "BiPolynomial":
        return self + (-other)

    def __neg__(self) -> "BiPolynomial":
        return BiPolynomial._of({k: -c for k, c in self.terms.items()})

    def __mul__(self, other: "BiPolynomial") -> "BiPolynomial":
        out: dict = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                prev = out.get(k)
                out[k] = c1 * c2 if prev is None else prev + c1 * c2
        return BiPolynomial._of(out)

    def scale(self, c) -> "BiPolynomial":
        c = GaussianRational.coerce(c)
        return BiPolynomial._of({k: v * c for k, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, BiPolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> tuple:
        """(max deg_z, max deg_zbar); (-1, -1) for the zero polynomial."""
        if not self.terms:
            return (-1, -1)
        return (max(i for i, _ in self.terms), max(j for _, j in self.terms))

    def leading_monomial(self) -> tuple:
        """Lexicographically largest (deg_z, deg_zbar) monomial present."""
        return max(self.terms)

    # -- calculus --------------------------------------------------------------

    def derivative_z(self) -> "BiPolynomial":
        return BiPolynomial({(i - 1, j): c * i for (i, j), c in self.terms.items() if i > 0})

    def derivative_zbar(self) -> "BiPolynomial":
        return BiPolynomial({(i, j - 1): c * j for (i, j), c in self.terms.items() if j > 0})

    def conj_swap(self) -> "BiPolynomial":
        """Formal complex conjugate: swap z <-> zbar and conjugate coefficients."""
        return BiPolynomial({(j, i): c.conjugate() for (i, j), c in self.terms.items()})

    # -- evaluation -------------------------------------------------------------

    def eval_exact(self, z: GaussianRational, zbar: GaussianRational) -> GaussianRational:
        total = GR_ZERO
        for (i, j), c in self.terms.items():
            term = c
            for _ in range(i):
                term = term * z
            for _ in range(j):
                term = term * zbar
            total = total + term
        return total

    # -- sympy bridge (gcd of two multi-term polynomials) -------------------------

    def _to_sympy(self, gens: tuple = (0, 1)):
        """This polynomial as a sympy Poly over QQ_I in the variables gens (0 for
        z, 1 for zbar); every variable with a positive exponent must be in gens."""
        d = {tuple(k[g] for g in gens): _domain_elt(c) for k, c in self.terms.items()}
        if not d:
            d = {(0,) * len(gens): QQ_I.zero}
        return sympy.Poly.from_dict(d, *(_GENS[g] for g in gens), domain=QQ_I)

    @classmethod
    def _from_sympy(cls, poly, gens: tuple = (0, 1)) -> "BiPolynomial":
        """The inverse of :meth:`_to_sympy` over the same gens, terms in sympy's order."""
        terms = {}
        for exponents, c in poly.rep.to_dict().items():
            k = [0, 0]
            for g, e in zip(gens, exponents):
                k[g] = e
            terms[tuple(k)] = _from_domain_elt(c)
        return cls(terms)

    def __repr__(self):
        if not self.terms:
            return "BiPolynomial(0)"
        bits = []
        for (i, j), c in sorted(self.terms.items()):
            bits.append(f"({c.re}{'+' if c.im >= 0 else ''}{c.im}i)z^{i}zb^{j}")
        return "BiPolynomial(" + " + ".join(bits) + ")"


def _poly_gcd(a: BiPolynomial, b: BiPolynomial) -> BiPolynomial:
    """Monic gcd.  With a one-term operand it is the monomial z^i zbar^j whose
    exponents are the smallest over both operands' terms; otherwise sympy's,
    over the variables gens (0 for z, 1 for zbar) that occur in a or b (a pair
    in z alone is a one-variable gcd, with the value and term order of the
    two-variable one)."""
    keys = a.terms.keys() | b.terms.keys()
    if len(a.terms) == 1 or len(b.terms) == 1:
        return BiPolynomial._of({(min(i for i, _ in keys), min(j for _, j in keys)): GR_ONE})
    gens = tuple(g for g in (0, 1) if any(k[g] for k in keys))
    return BiPolynomial._from_sympy(a._to_sympy(gens).gcd(b._to_sympy(gens)), gens)


def _poly_div_exact(a: BiPolynomial, b: BiPolynomial) -> BiPolynomial:
    """Exact quotient a / b, its terms ascending in (deg_z, deg_zbar), by long
    division in lex order (Knuth, TAOCP 4.6.1): where b divides a, the leading
    term of every remainder is a multiple of b's; ArithmeticError where not."""
    rest = dict(b.terms)
    bi, bj = m = max(rest)
    lead = rest.pop(m)
    unit = lead == GR_ONE
    r, q = dict(a.terms), []  # q: quotient terms, their monomials falling
    while r:
        i, j = m = max(r)
        c = r.pop(m)  # cancelled exactly by the quotient term times b's leading term
        if not c:  # a term the subtractions cancelled
            continue
        if i < bi or j < bj:
            raise ArithmeticError("inexact polynomial division during normalization")
        c = c if unit else c / lead
        i, j = m = i - bi, j - bj
        q.append((m, c))
        for (ki, kj), v in rest.items():
            k = (ki + i, kj + j)
            r[k] = r.get(k, GR_ZERO) - c * v
    return BiPolynomial._of(dict(reversed(q)))


_POLY_ONE = BiPolynomial.constant(1)


class BiRationalFunction(_Frozen):
    """Quotient of two BiPolynomials in canonical form.

    Canonical form: gcd(num, den) is a unit and the lexicographically leading
    coefficient of the denominator is 1, so equality is plain structural
    equality.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: BiPolynomial, den: BiPolynomial | None = None, _normalized=False):
        if den is None:
            den = _POLY_ONE
        if den.is_zero:
            raise ZeroDivisionError("zero denominator in BiRationalFunction")
        if not _normalized:
            num, den = self._normalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def _normalize(num: BiPolynomial, den: BiPolynomial):
        if num.is_zero:
            return BiPolynomial(), _POLY_ONE
        g = _poly_gcd(num, den)
        if g != _POLY_ONE:
            num = _poly_div_exact(num, g)
            den = _poly_div_exact(den, g)
        lead = den.terms[den.leading_monomial()]
        if lead != GR_ONE:
            inv = GR_ONE / lead
            num = num.scale(inv)
            den = den.scale(inv)
        return num, den

    # -- constructors -----------------------------------------------------------

    @classmethod
    def constant(cls, c) -> "BiRationalFunction":
        return cls(BiPolynomial.constant(c))

    @classmethod
    def zero(cls) -> "BiRationalFunction":
        return _BRF_ZERO

    @classmethod
    def one(cls) -> "BiRationalFunction":
        return _BRF_ONE

    @classmethod
    def z(cls) -> "BiRationalFunction":
        return cls(BiPolynomial.z())

    @classmethod
    def zbar(cls) -> "BiRationalFunction":
        return cls(BiPolynomial.zbar())

    @classmethod
    def from_poles(cls, scalar, poles: Iterable) -> "BiRationalFunction":
        """scalar / prod (z - pole), the shape of every toy-model denominator."""
        den = BiPolynomial.constant(1)
        for p in poles:
            den = den * (BiPolynomial.z() - BiPolynomial.constant(GaussianRational.coerce(p)))
        return cls(BiPolynomial.constant(scalar), den)

    # -- field operations ----------------------------------------------------------

    def __add__(self, other: "BiRationalFunction") -> "BiRationalFunction":
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        return BiRationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "BiRationalFunction") -> "BiRationalFunction":
        if other.is_zero:
            return self
        if self.is_zero:
            return -other
        return BiRationalFunction(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "BiRationalFunction":
        return BiRationalFunction(-self.num, self.den, _normalized=True)

    def __mul__(self, other: "BiRationalFunction") -> "BiRationalFunction":
        if self.is_zero or other.is_zero:
            return _BRF_ZERO
        return BiRationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "BiRationalFunction") -> "BiRationalFunction":
        if other.num.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return BiRationalFunction(self.num * other.den, self.den * other.num)

    def scale(self, c) -> "BiRationalFunction":
        """self times the constant c.  A nonzero constant keeps the canonical
        form (the denominator and the gcd are unchanged), so nothing is
        renormalised; a zero constant gives zero."""
        c = GaussianRational.coerce(c)
        if not c or self.is_zero:
            return _BRF_ZERO
        return BiRationalFunction(self.num.scale(c), self.den, _normalized=True)

    def __eq__(self, other):
        return (
            isinstance(other, BiRationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.num.is_zero

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    # -- calculus ---------------------------------------------------------------------

    def derivative_z(self) -> "BiRationalFunction":
        if self.num.degree()[0] <= 0 and self.den.degree()[0] <= 0:
            return _BRF_ZERO
        return BiRationalFunction(
            self.num.derivative_z() * self.den - self.num * self.den.derivative_z(),
            self.den * self.den,
        )

    def derivative_zbar(self) -> "BiRationalFunction":
        if self.num.degree()[1] <= 0 and self.den.degree()[1] <= 0:
            return _BRF_ZERO
        return BiRationalFunction(
            self.num.derivative_zbar() * self.den - self.num * self.den.derivative_zbar(),
            self.den * self.den,
        )

    def conj_swap(self) -> "BiRationalFunction":
        return BiRationalFunction(self.num.conj_swap(), self.den.conj_swap())

    def invert_chart(self) -> "BiRationalFunction":
        """Substitute z -> 1/z, zbar -> 1/zbar (no Jacobian factor)."""
        ni, nj = self.num.degree()
        di, dj = self.den.degree()
        mi, mj = max(ni, di), max(nj, dj)
        flip = lambda p: BiPolynomial({(mi - i, mj - j): c for (i, j), c in p.terms.items()})
        return BiRationalFunction(flip(self.num), flip(self.den))

    # -- evaluation -----------------------------------------------------------------------

    def evaluate(self, z: complex) -> complex:
        """Numeric value at z with zbar := conj(z); raises PoleHit where
        :meth:`compiled` does."""
        return self.compiled()(complex(z))

    def evaluate_exact(self, z: GaussianRational) -> GaussianRational:
        zb = z.conjugate()
        dv = self.den.eval_exact(z, zb)
        if not dv:
            raise PoleHit(f"denominator vanishes exactly at z={z!r}")
        return self.num.eval_exact(z, zb) / dv

    def compiled(self) -> Callable[[complex], complex]:
        """Closure evaluating this function in doubles, zbar := conj(z).

        The only conversion of coefficients to doubles; raises PoleHit where
        the denominator vanishes to within EVAL_TOLERANCE of the sum of its
        terms' moduli, so a one-term denominator raises only where it is 0
        (and the numerator's size plays no part), and EvaluationOverflow
        where a coefficient is past a double or Python refuses a power z^i or
        a modulus as past one.
        """
        num_terms = [(i, j, c.to_complex()) for (i, j), c in self.num.terms.items()]
        den_terms = [(i, j, c.to_complex()) for (i, j), c in self.den.terms.items()]
        if len(num_terms) == len(den_terms) == 1:
            # the loops below for one term each: abs(d) <= EVAL_TOLERANCE abs(d) < inf holds exactly where d == 0
            (i, j, c), (k, l, e) = num_terms[0], den_terms[0]

            def ev(z: complex) -> complex:
                zb = z.conjugate()
                try:
                    n = 0j + c * z**i * zb**j
                    d = 0j + e * z**k * zb**l
                    abs(d)  # the modulus the loops take, which raises past a double
                except OverflowError:
                    raise EvaluationOverflow(f"a term of the rational function at z={z!r} exceeds double precision") from None
                if d == 0:
                    raise PoleHit(f"denominator vanishes at z={z!r}")
                return n / d

            return ev

        def ev(z: complex) -> complex:
            zb = z.conjugate()
            n = 0j
            d, scale = 0j, 0.0
            try:
                for i, j, c in num_terms:
                    n += c * z**i * zb**j
                for i, j, c in den_terms:
                    term = c * z**i * zb**j
                    d += term
                    scale += abs(term)
            except OverflowError:
                raise EvaluationOverflow(f"a term of the rational function at z={z!r} exceeds double precision") from None
            # a denominator term past a double is no pole
            if abs(d) <= EVAL_TOLERANCE * scale < inf:
                raise PoleHit(f"denominator vanishes at z={z!r}")
            return n / d

        return ev

    # -- serialization ------------------------------------------------------------------------

    def to_json(self) -> dict:
        enc = lambda p: [[i, j, *c.to_json()] for (i, j), c in sorted(p.terms.items())]
        return {"num": enc(self.num), "den": enc(self.den)}

    @classmethod
    def from_json(cls, data: dict) -> "BiRationalFunction":
        dec = lambda rows: BiPolynomial(
            {(exact_int(i), exact_int(j)): GaussianRational.from_strings(re, im) for i, j, re, im in rows}
        )
        num, den = dec(data["num"]), dec(data["den"])
        if den.is_zero:
            raise ZeroDivisionError("zero denominator in serialized rational function")
        # Serialized functions are stored in canonical form; re-normalize anyway
        # so hand-written files are accepted too.
        return cls(num, den)

    def __repr__(self):
        return f"BiRationalFunction({self.num!r} / {self.den!r})"


BRF = BiRationalFunction
_BRF_ZERO = BiRationalFunction(BiPolynomial(), _POLY_ONE, _normalized=True)
_BRF_ONE = BiRationalFunction(_POLY_ONE, _POLY_ONE, _normalized=True)


class RationalFunctionMatrix(_Frozen):
    """Dense matrix of BiRationalFunctions."""

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, entries):
        rows = tuple(tuple(e for e in row) for row in entries)
        if not rows or not rows[0]:
            raise DimensionMismatch("empty matrix")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise DimensionMismatch("ragged matrix rows")
        for row in rows:
            for e in row:
                if not isinstance(e, BiRationalFunction):
                    raise TypeError("matrix entries must be BiRationalFunction")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)

    @classmethod
    def _of(cls, rows: tuple) -> "RationalFunctionMatrix":
        """An arithmetic result, a non-empty tuple of equal-length tuples of
        BiRationalFunctions: stored without the constructor's checks."""
        self = object.__new__(cls)
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", len(rows[0]))
        return self

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None) -> "RationalFunctionMatrix":
        cols = rows if cols is None else cols
        if rows < 1 or cols < 1:
            raise DimensionMismatch("empty matrix")
        return cls._of(tuple((_BRF_ZERO,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "RationalFunctionMatrix":
        one, zero = BiRationalFunction.one(), BiRationalFunction.zero()
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def from_scalars(cls, grid) -> "RationalFunctionMatrix":
        """Build from a grid of constants (int/Fraction/GaussianRational)."""
        return cls([[BiRationalFunction.constant(GaussianRational.coerce(x)) for x in row] for row in grid])

    # -- algebra ------------------------------------------------------------------

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __add__(self, other):
        self._check_same_shape(other)
        return RationalFunctionMatrix._of(
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries))
        )

    def __sub__(self, other):
        self._check_same_shape(other)
        return RationalFunctionMatrix._of(
            tuple(tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries))
        )

    def __matmul__(self, other):
        """Each entry sums, in ascending k, the products whose factors are both nonzero."""
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        rows = [[(k, a) for k, a in enumerate(row) if a] for row in self.entries]
        cols = [{k: b for k, b in enumerate(col) if b} for col in zip(*other.entries)]
        out = []
        for row in rows:
            out_row = []
            for col in cols:
                acc = _BRF_ZERO
                for k, a in row:
                    b = col.get(k)
                    if b is not None:
                        acc = acc + a * b
                out_row.append(acc)
            out.append(tuple(out_row))
        return RationalFunctionMatrix._of(tuple(out))

    def scale(self, f) -> "RationalFunctionMatrix":
        """Every entry times f, a rational function or a constant."""
        if isinstance(f, BiRationalFunction):
            return self.map_entries(lambda e: e * f)
        c = GaussianRational.coerce(f)
        return self.map_entries(lambda e: e.scale(c))

    def power(self, k: int) -> "RationalFunctionMatrix":
        if self.rows != self.cols:
            raise DimensionMismatch("power of a non-square matrix")
        out = RationalFunctionMatrix.identity(self.rows)
        for _ in range(k):
            out = out @ self
        return out

    def trace(self) -> BiRationalFunction:
        if self.rows != self.cols:
            raise DimensionMismatch("trace of a non-square matrix")
        acc = BiRationalFunction.zero()
        for i in range(self.rows):
            acc = acc + self.entries[i][i]
        return acc

    def map_entries(self, fn) -> "RationalFunctionMatrix":
        """fn, from a BiRationalFunction to a BiRationalFunction, on every entry."""
        return RationalFunctionMatrix._of(tuple(tuple(fn(e) for e in row) for row in self.entries))

    def derivative_z(self):
        return self.map_entries(lambda e: e.derivative_z())

    def derivative_zbar(self):
        return self.map_entries(lambda e: e.derivative_zbar())

    def conj_swap(self):
        return self.map_entries(lambda e: e.conj_swap())

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunctionMatrix)
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(self.entries)

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.entries for e in row)

    # -- serialization ----------------------------------------------------------------

    def to_json(self) -> list:
        return [[e.to_json() for e in row] for row in self.entries]

    @classmethod
    def from_json(cls, data) -> "RationalFunctionMatrix":
        return cls([[BiRationalFunction.from_json(e) for e in row] for row in data])

    def __repr__(self):
        return f"RationalFunctionMatrix({self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# exact rank
# ---------------------------------------------------------------------------


def matrix_rank_exact(M: RationalFunctionMatrix) -> int:
    """Exact rank of M over the function field Q(i)(z, zbar): the generic rank.

    Every minor is a rational function, so the rank at a point is this rank
    off the zero set of one nonzero minor and never above it.  It is computed
    by fraction-free (Bareiss) elimination on the entries themselves, with
    BiRationalFunction.one() as the first divisor and no sample point.
    """
    m = [list(row) for row in M.entries]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = _BRF_ONE
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, nrows):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        for r in range(row + 1, nrows):
            for c in range(col + 1, ncols):
                m[r][c] = (m[row][col] * m[r][c] - m[r][col] * m[row][c]) / prev
        prev = m[row][col]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def radical_divides(den: BiPolynomial, allowed: BiPolynomial) -> bool:
    """True when every irreducible factor of den divides allowed.

    Used to verify exactly that a rational entry has poles only at declared
    locations: strip g = gcd(r, allowed) from the remainder r (den at first)
    until r is a constant, or g is one and a foreign factor remains.
    """
    r = den
    while True:
        if r.degree() == (0, 0):
            return True
        g = _poly_gcd(r, allowed)
        if g.degree() == (0, 0):
            return False
        r = _poly_div_exact(r, g)


def _commutator(X: RationalFunctionMatrix, Y: RationalFunctionMatrix) -> RationalFunctionMatrix:
    """X Y - Y X; the zero matrix, with no product, when X or Y is zero."""
    if X.is_zero or Y.is_zero:
        return RationalFunctionMatrix.zeros(X.rows)
    return X @ Y - Y @ X


def wedge_square(A) -> RationalFunctionMatrix:
    """dz^dzbar coefficient of A ^ A, Az Azb - Azb Az, for a matrix 1-form A
    (MatrixOneForm): zero without a product when either part is zero."""
    return _commutator(A.dz_part, A.dzbar_part)


def wedge_bracket(A, B) -> RationalFunctionMatrix:
    """dz^dzbar coefficient of the graded bracket [A ^ B] = A^B + B^A.

    A and B are matrix 1-forms (MatrixOneForm).  Pure-type wedges (dz^dz,
    dzbar^dzbar) drop identically; the orientation convention is
    dzbar^dz = -dz^dzbar, so [A ^ B] = (Az Bzb - Bzb Az) + (Bz Azb - Azb Bz).
    Each commutator with a zero factor is the zero matrix, taken without a
    product, so a zero form on either side multiplies nothing.  For A is B
    the two commutators are the same X = wedge_square(A), computed once, and
    the result is X + X.
    """
    az, azb, bz, bzb = A.dz_part, A.dzbar_part, B.dz_part, B.dzbar_part
    if az.rows != bz.rows or az.cols != bz.cols:
        raise DimensionMismatch("wedge_bracket of forms with different dimensions")
    if A is B:
        X = wedge_square(A)
        return X + X
    return _commutator(az, bzb) + _commutator(bz, azb)
