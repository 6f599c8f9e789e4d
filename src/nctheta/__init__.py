"""Quantum theta functions on the noncommutative 4-torus.

A library plus verification CLI covering two module realizations of the
deformed 4-torus (a plane embedding and a mixed line-times-integer-lattice
embedding): Heisenberg operators and their commutation phases, constant
curvature connections, theta vectors and the holomorphy obstruction,
algebra-valued inner products with an independent quadrature oracle,
quantum theta series, quantum translations and their (non-)additivity.
"""

__version__ = "0.1.0"

from .embedding import (
    DeformationMatrix,
    EmbeddingKind,
    EmbeddingMap,
    FinitePart,
    LatticeElement,
    build_embedding,
    commutation_matrix,
    enumerate_indices,
    lattice_element,
    point_parts,
)
from .errors import NCThetaError
from .heisenberg import (
    ClosedFormVector,
    ConnectionSet,
    SampledVector,
    apply_generator,
    apply_pi,
    build_connections,
    connection_commutator_residual,
    measure_commutation_phases,
    sample_vector,
    theta_test_vector,
)
from .qtheta import (
    QuantumThetaSeries,
    VerificationReport,
    additivity_gap,
    inner_product_closed,
    inner_product_oracle,
    quantum_theta_series,
    series_tail_bound,
    verify_consistency_condition,
    verify_functional_equation,
)
from .special import (
    HermitianFormContext,
    gaussian_factor,
    gaussian_quadrature_oracle,
    gaussian_quadrature_oracle_2d,
    hermitian_form,
    jacobi_theta,
    mode_factor,
)
from .structures import (
    ComplexStructure,
    InfeasibilityCertificate,
    holomorphic_feasibility,
    holomorphy_residual,
    make_complex_structure,
    theta_vector,
)

__all__ = [name for name in dir() if not name.startswith("_")]
