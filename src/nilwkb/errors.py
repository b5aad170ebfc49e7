"""Exception hierarchy shared across the toolkit.

Each class carries the CLI exit code it maps to: 1 for validation-type
errors (bad input, pole hit, dimension mismatch), 2 for numerical-budget
errors.
"""


class NilwkbError(Exception):
    """Base class for all toolkit errors."""
    exit_code = 1


# --- algebra ---------------------------------------------------------------

class PoleHit(NilwkbError):
    """Evaluation requested at or too close to a pole of a rational function."""


class DimensionMismatch(NilwkbError):
    """Matrix or form dimensions are incompatible."""


class EvaluationOverflow(NilwkbError):
    """An exact coefficient or puncture, a term of a rational function evaluated
    in doubles, or the field an eigenvalue track reads at a point, is past double
    precision: like a pole, a point where the field has no double value."""


# --- connection ------------------------------------------------------------

class ZeroScale(NilwkbError):
    """Scaling a family by zero is not a group action."""


# --- gauge -----------------------------------------------------------------

class NotNilpotent(NilwkbError):
    """A Higgs field expected to be nilpotent is not."""


class ZeroHiggsField(NilwkbError):
    """The Higgs field vanishes identically."""


class BadBlocks(NilwkbError):
    """A block-size list does not match the matrix dimension or grading."""


class FixedPointDetected(NilwkbError):
    """All lower graded connection pieces vanish: the scaling-fixed-point case
    where the secondary-field construction degenerates."""


class FrameNotAligned(NilwkbError):
    """The supplied frame does not exhibit the Higgs field in graded shape."""


# --- holonomy --------------------------------------------------------------

class ClearanceViolated(NilwkbError):
    """A path passes closer to a declared puncture than the allowed clearance."""


class StiffnessBudgetExceeded(NilwkbError):
    """A DOP853 solve failed, or its progress projects more right-hand sides than its budget."""
    exit_code = 2


class BranchPointOnPath(NilwkbError):
    """Eigenvalues of the tracked field collide somewhere on the path."""


class TieAtStart(NilwkbError):
    """The leading sheet cannot be selected: the two largest
    orientation * Re(lam gamma'(0)) are equal within tolerance."""


class InsufficientSamples(NilwkbError):
    """Too few holonomy samples, or too narrow a parameter range, to fit."""


class NonDecayingSequence(NilwkbError):
    """Trace samples do not grow as the parameter decreases; nothing to fit."""


class NonFiniteSample(NilwkbError):
    """A sample handed to the rate fit has a non-finite trace, or a parameter
    that is not finite and positive, or the fit of finite samples leaves
    double precision."""


class HolonomyOverflow(NilwkbError):
    """A transported holonomy, or its or a period's error estimate, exceeds double precision."""
    exit_code = 2


# --- surface ---------------------------------------------------------------

class GluingLengthMismatch(NilwkbError):
    """Identified edges have different lengths or inconsistent directions."""


class UnmatchedEdge(NilwkbError):
    """An edge is missing from the identification list, or appears twice."""


class NonManifoldCorner(NilwkbError):
    """Corner walking around a vertex did not close up consistently."""


class NoRecurrenceWithinBudget(NilwkbError):
    """Leaf tracing exhausted its length budget without recurring near the start."""
    exit_code = 2


class ConnectorNotTransverse(NilwkbError):
    """The splice connector violates the monotonicity predicate; retry with a
    rotated connector or a different angle."""


# --- toymodel --------------------------------------------------------------

class BadPuncture(NilwkbError):
    """The movable puncture collides with one of the fixed punctures 0, 1."""


class UnstableWeights(NilwkbError):
    """The parabolic weight vector fails the stability inequalities."""


# --- cli -------------------------------------------------------------------

class TooManyDigits(NilwkbError):
    """An exact value to be written has more digits than Python converts to a
    string (sys.get_int_max_str_digits())."""
