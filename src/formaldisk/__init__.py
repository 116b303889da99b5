"""Symbolic-numeric toolkit for local formality data on the formal disk.

Exact rational power series, poly-vector fields with the Schouten bracket,
polydifferential operators with the Gerstenhaber structure, admissible
graphs and their weights (closed-form and Monte-Carlo), Maurer-Cartan
twisting of L-infinity morphisms, and the wheel identity tying the
graph expansion of the twisted first Taylor coefficient to a
Todd-type determinant.
"""

__version__ = "0.1.0"

from .series import (DEFAULT_CAP, TruncatedSeries, SeriesMatrix,
                     nilpotent_powers, series_at, exp_series,
                     sinh_quotient_series)
from .polyvector import (PolyVectorField, DifferentialForm,
                         schouten_bracket, contract, exterior_derivative,
                         hkr_components, sort_with_sign)
from .polydiff import (PolyDiffOp, bullet, cup, gerstenhaber_bracket,
                       hochschild_differential, hkr)
from .etalgebra import EtaFormScalar, EtaField, EtaOperator
from .graphs import (AdmissibleGraph, enumerate_graphs, vanishing_tag,
                     classify_wheels, wheel_graph,
                     cycle_type_multiplicity, cycle_type_of_wheelish,
                     graphs_with_profile, gamma0, opposite_wheel,
                     wheel_survivors)
from .weights import (modified_bernoulli, wheel_weight_closed, theta_series,
                      inverse_sqrt_sinh_quotient, WeightEstimate,
                      mc_weight, mc_weight_cached)
from .formality import (graph_operator, u_one,
                        MaurerCartanData, xi_matrix, theta_and_det,
                        closed_form_map, twisted_first_taylor, todd_series,
                        tilde_todd_series)
from .linfty import (SmallDGLie, LInftyMorphism, quadratic_example,
                     eta_schouten, eta_mc_residual, eta_twisted_differential)
from .suites import SUITES, run_suite

__all__ = [
    "DEFAULT_CAP", "TruncatedSeries", "SeriesMatrix",
    "nilpotent_powers", "series_at", "exp_series", "sinh_quotient_series",
    "PolyVectorField", "DifferentialForm", "schouten_bracket",
    "contract", "exterior_derivative", "hkr_components", "sort_with_sign",
    "PolyDiffOp", "bullet", "cup", "gerstenhaber_bracket",
    "hochschild_differential", "hkr",
    "EtaFormScalar", "EtaField", "EtaOperator",
    "AdmissibleGraph", "enumerate_graphs", "vanishing_tag",
    "classify_wheels", "wheel_graph", "cycle_type_multiplicity",
    "cycle_type_of_wheelish", "graphs_with_profile", "gamma0",
    "opposite_wheel", "wheel_survivors",
    "modified_bernoulli", "wheel_weight_closed", "theta_series",
    "inverse_sqrt_sinh_quotient", "WeightEstimate", "mc_weight",
    "mc_weight_cached",
    "graph_operator", "u_one", "MaurerCartanData",
    "xi_matrix", "theta_and_det", "closed_form_map",
    "twisted_first_taylor", "todd_series", "tilde_todd_series",
    "SmallDGLie", "LInftyMorphism", "quadratic_example", "eta_schouten",
    "eta_mc_residual", "eta_twisted_differential",
    "SUITES", "run_suite",
    "__version__",
]
