"""Toolkit for parameter families of flat connections with nilpotent leading term.

Exact symbolic layer: Gaussian-rational rational functions, flatness residuals,
Jordan/grading analysis, diagonal gauge rescalings extracting the secondary
Higgs field and its integer invariant.  Numeric layer: parallel transport,
spectral periods, WKB-curve predicates and growth-rate fits.  Geometry layer:
half-translation surfaces with straight-line flow and WKB loops.  Catalog
layer: the four-punctured-sphere model and shipped flat families.
"""

from .algebra import (
    BiPolynomial,
    BiRationalFunction,
    GaussianRational,
    RationalFunctionMatrix,
    matrix_rank_exact,
    wedge_bracket,
)
from .connection import (
    ConnectionFamily,
    FlatnessReport,
    MatrixOneForm,
    check_flatness,
    conformal_limit_family,
    scale_orbit,
    transform_chart_inverse,
)
from .gauge import (
    GaugeProfile,
    NilpotentType,
    SecondaryData,
    gauge_conjugate,
    graded_decompose,
    is_m_cyclic,
    jordan_type,
    k_differentials,
    reality_obstruction,
    secondary_higgs,
    undo_gauge,
)
from .holonomy import (
    ArcSegment,
    EigenvalueTrack,
    HolonomySample,
    LineSegment,
    ParamPath,
    Period,
    WkbCurveCheck,
    WkbFit,
    is_wkb_curve,
    period,
    pullback,
    transport,
    transport_grid,
    wkb_fit,
)
from .surface import (
    FlatTrajectory,
    PolygonSurface,
    SingularityReport,
    WkbLoop,
    find_wkb_loop,
    flat_torus,
    lift_check,
    staircase,
    trace_flow,
    validate,
)
from .toymodel import (
    FlagConfig,
    ParabolicWeights,
    ToyHiggsField,
    WeightInequalityReport,
    build_toy_higgs,
    check_weight_inequalities,
    nilpotent_cone_graph,
    parabolic_model_connection,
    pdeg,
    pdeg_table,
    residues,
    toy_quadratic_differential,
)
from . import catalog, errors

__version__ = "0.1.0"
