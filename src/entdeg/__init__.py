"""Degree of entanglement of pure two-qubit and two-qutrit states.

The pipeline: decompose a pure bipartite density matrix into local Bloch
vectors u, v and the correlation matrix beta, border them into
alpha = [[1, v^T], [u, beta]], and take P_E = (-det alpha)^(1/4). For qubit
pairs this equals 2 k1 k2 from the Schmidt coefficients and the concurrence,
both of which are computed independently as oracles, and purity forces six
algebraic identities among (u, v, beta) that the sweep harness verifies on
seeded Haar-random ensembles.
"""

from .bloch import BlochForm, bloch_of_reduced, decompose, reconstruct
from .ensemble import SweepReport, haar_random_pure, property_sweep, state_for_index
from .fixtures import ExampleFixture, example_fixtures
from .generators import GeneratorSet, basis_for
from .hyperbolic import (
    RapidityParam,
    boost_density_residual,
    degree_hyperbolic,
    lorentz_boost,
    rapidity_of,
)
from .measure import (
    EntanglementReport,
    PurityViolation,
    alpha_matrix,
    analyze,
    concurrence_pure,
    degree_det,
    degree_schmidt,
    purity_constraints_report,
    schmidt_coeffs,
)
from .states import (
    StateVector,
    density_from_state,
    partial_trace,
    purity,
    state_from_amplitudes,
    validate_density,
)

__version__ = "0.1.0"

__all__ = [
    "BlochForm",
    "EntanglementReport",
    "ExampleFixture",
    "GeneratorSet",
    "PurityViolation",
    "RapidityParam",
    "StateVector",
    "SweepReport",
    "alpha_matrix",
    "analyze",
    "basis_for",
    "bloch_of_reduced",
    "boost_density_residual",
    "concurrence_pure",
    "decompose",
    "degree_det",
    "degree_hyperbolic",
    "degree_schmidt",
    "density_from_state",
    "example_fixtures",
    "haar_random_pure",
    "lorentz_boost",
    "partial_trace",
    "property_sweep",
    "purity",
    "purity_constraints_report",
    "rapidity_of",
    "reconstruct",
    "schmidt_coeffs",
    "state_for_index",
    "state_from_amplitudes",
    "validate_density",
]
