"""Complex structures, theta vectors, holomorphy checks and the no-go proof.

A complex structure is one symmetric d x d complex matrix T with positive
definite imaginary part over R^d, the vector-space part of the embedding:
d = 2 on the plane (tau divided entrywise by the deformation parameters)
and d = 1 on R x Z^2. Its theta vector is the Gaussian exp(pi i S^t T S),
times a Schwartz weight over Z^2 on R x Z^2. There full holomorphy is
provably infeasible: the obstruction is a constant, re-derived with sympy
by the Tier-1 tests, and :func:`holomorphic_feasibility` checks each
(tau, m) it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingKind, EmbeddingMap, integer_block_inverse
from .errors import (
    ConsistencyViolated,
    DegenerateTau,
    DegenerateTestVector,
    NotPositive,
)
from .heisenberg import (
    ClosedFormVector,
    _min_im_eig,
    _require_closed,
    apply_connections,
    build_connections,
)

SYMMETRY_TOL = 1e-12
HOLOMORPHY_STEP = 5e-4
HOLOMORPHY_MASK_REL = 1e-5


@dataclass(frozen=True)
class ComplexStructure:
    """Complex structure T, d x d, over the vector-space part R^d of the module.

    ``tau_matrix`` is the d x d parameter matrix T was built from (column j
    of T times theta_j), as given: recomputing it from T could move its
    last digits.
    ``lattice_decay`` is the rate of the Schwartz weight over Z^2 and is set
    exactly on the lattice kind, R x Z^2, where d = 1.
    """

    T: np.ndarray
    tau_matrix: np.ndarray
    lattice_decay: float | None = None

    @property
    def kind(self) -> EmbeddingKind:
        return EmbeddingKind.VECTOR_SPACE if self.lattice_decay is None else EmbeddingKind.LATTICE


def make_complex_structure(kind: EmbeddingKind, tau, theta1: float, theta2: float,
                           lattice_decay: float | None = None) -> ComplexStructure:
    """Validated complex structure for the given embedding kind.

    Vector-space kind: Omega_ij = tau_ij / theta_j must come out symmetric
    (the two holomorphy equations are inconsistent otherwise) with positive
    definite imaginary part; a lattice decay is refused. Lattice kind:
    T = [[tau / theta1]] with Im T > 0; the decay defaults to 1/theta2.
    """
    kind = EmbeddingKind(kind)
    if not (math.isfinite(theta1) and math.isfinite(theta2) and theta1 > 0 and theta2 > 0):
        raise NotPositive("deformation parameters must be finite and strictly positive")
    if not np.isfinite(tau).all():
        raise ValueError("tau must be finite")
    if kind is EmbeddingKind.LATTICE:
        t = complex(tau) / theta1
        if t.imag <= 0:
            raise NotPositive("Im(tau) must be positive")
        decay = 1.0 / theta2 if lattice_decay is None else float(lattice_decay)
        if not (math.isfinite(decay) and decay > 0):
            raise NotPositive("lattice decay must be finite and positive")
        return ComplexStructure(np.array([[t]]), np.array([[complex(tau)]]), decay)

    if lattice_decay is not None:
        raise ValueError("lattice_decay applies to the lattice kind only")
    tau = np.array(tau, dtype=complex)
    if tau.shape != (2, 2):
        raise ValueError("vector-space structure needs a 2x2 tau")
    omega = tau / np.array([[theta1, theta2], [theta1, theta2]])
    if abs(omega[0, 1] - omega[1, 0]) > SYMMETRY_TOL:
        raise ConsistencyViolated(
            "tau12/theta2 != tau21/theta1: the two holomorphy equations are inconsistent")
    if not (np.linalg.eigvalsh(omega.imag) > 0).all():
        raise NotPositive("Im(Omega) must be positive definite")
    return ComplexStructure(omega, tau)


def structure_from_tau(emb: EmbeddingMap, tau,
                       lattice_decay: float | None = None) -> ComplexStructure:
    """Complex structure from its JSON form, for the given embedding.

    ``tau`` is a [re, im] pair for the lattice kind and a 2x2 matrix of
    [re, im] pairs for the vector-space kind.
    """
    if emb.kind is EmbeddingKind.LATTICE:
        tau, theta2 = complex(*tau), emb.theta34
    else:
        tau, theta2 = np.array([[complex(*z) for z in row] for row in tau]), emb.theta2
    return make_complex_structure(emb.kind, tau, emb.theta1, theta2, lattice_decay)


def theta_vector(structure: ComplexStructure) -> ClosedFormVector:
    """Canonical Gaussian annihilated by the antiholomorphic connections.

    exp(pi i S^t T S) over R^d; on the lattice kind times the default
    Schwartz weight exp(-pi c (n1^2 + n2^2)) with c the structure's decay.
    """
    return ClosedFormVector(structure.kind, quadratic=structure.T,
                            decay=structure.lattice_decay)


def antiholomorphic_rows(structure: ComplexStructure) -> np.ndarray:
    """Coefficient rows (d, 4) of the antiholomorphic connections in the nabla
    basis: row j holds tau[j] on the position slots, 1 on its own momentum slot."""
    t = structure.tau_matrix
    rows = np.stack([t, np.eye(len(t))], axis=-1).reshape(len(t), -1)
    return np.pad(rows, ((0, 0), (0, 4 - rows.shape[1])))


def _holomorphy_probes(emb: EmbeddingMap, f: ClosedFormVector):
    rate = math.pi * _min_im_eig(f.quadratic)
    s_max = math.sqrt(-math.log(0.5 * HOLOMORPHY_MASK_REL) / rate) + 0.2
    if emb.kind is EmbeddingKind.LATTICE:
        s = np.linspace(-s_max, s_max, 161)
        n = np.arange(-2, 3)
        return np.ix_(s, n, n)
    s = np.linspace(-s_max, s_max, 45)
    return np.ix_(s, s)


def connection_combo_residual(f, emb: EmbeddingMap, coefficients):
    """Pointwise-relative sup of |sum_i c_i nabla_i f| over masked probe points,
    one per coefficient row (..., 4); one row gives a float.

    The mask keeps points with |f| >= HOLOMORPHY_MASK_REL * max |f|, so the
    residual is meaningful wherever the vector carries weight, including
    the discrete modes of the lattice kind. Derivatives are order-4 central
    differences with step HOLOMORPHY_STEP.
    """
    closed = _require_closed(f)
    coords = _holomorphy_probes(emb, closed)
    vals = closed.evaluate(*coords)
    peak = float(np.max(np.abs(vals)))
    if peak == 0.0:
        raise DegenerateTestVector("zero vector")
    mask = np.abs(vals) >= HOLOMORPHY_MASK_REL * peak
    if not mask.any():
        raise DegenerateTestVector("mask is empty at the requested threshold")

    combo = apply_connections(build_connections(emb), coefficients, closed.evaluate,
                              coords, HOLOMORPHY_STEP)
    rel = np.abs(combo)[..., mask] / np.abs(vals)[mask]
    out = np.max(rel, axis=-1)
    return float(out) if out.ndim == 0 else out


def holomorphy_residual(f, structure: ComplexStructure, emb: EmbeddingMap) -> float:
    """Largest residual of the antiholomorphy equations on a probe grid.

    Vector-space kind checks both equations; lattice kind checks the single
    continuous one. Residuals are those of :func:`connection_combo_residual`,
    relative to |f| pointwise.
    """
    return float(np.max(connection_combo_residual(f, emb, antiholomorphic_rows(structure))))


# The obstruction of the two would-be holomorphy equations over R x Z^2,
#   (tau11/theta1 s + b11 n1 + b12 n2)/tau12 = (tau21/theta1 s + b21 n1 + b22 n2)/tau22,
# identically in s, n1, n2. It depends on neither tau nor m, so it is a
# constant here, re-derived with sympy by the tests (tests/test_structures.py).
RELATIONS = (
    "coefficient of s: (tau11*tau22 - tau12*tau21)/(tau12*tau22) = 0"
    "  (i.e. tau11/tau12 = tau21/tau22)",
    "coefficient of n2: b12 = b22*tau12/tau22",
    "coefficient of n1: b21 = b11*tau22/tau12",
)


# det(b) under the relations, as sympy's ``sstr`` prints it
FORCED_DET = "0"


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Witness that full holomorphy over the lattice kind fails.

    ``relations`` are the consistency conditions forced by requiring a
    common solution of the two would-be holomorphy equations;
    ``forced_det`` is det(b) under those relations, identically zero as a
    rational function, contradicting ``actual_det_b`` != 0.
    """

    tau: tuple
    relations: tuple[str, ...]
    forced_det: str
    actual_b: np.ndarray
    actual_det_b: float

    @property
    def infeasible(self) -> bool:
        return self.forced_det == "0" and self.actual_det_b != 0.0


def holomorphic_feasibility(emb: EmbeddingMap, tau) -> InfeasibilityCertificate:
    """Certificate of the lattice-kind holomorphy obstruction for a generic tau.

    Requiring both antiholomorphy equations to annihilate one function
    forces, by matching coefficients of s, n1, n2, a consistency relation
    on tau and two substitutions for the off-diagonal entries of b. Their
    determinant then cancels exactly, which contradicts b being the inverse
    of the integer block. That cancellation depends on neither tau nor m:
    it is the constant pair ``RELATIONS`` and ``FORCED_DET``, re-derived with
    sympy by the tests. Each call checks the kind of ``emb``, that ``tau``
    is 2x2 with nonzero entries (the derivation divides by each), and
    computes b = m^-1 from the integer block.
    """
    if emb.kind is not EmbeddingKind.LATTICE:
        raise DegenerateTau("the obstruction concerns the lattice kind")
    tau = np.asarray(tau, dtype=complex)
    if tau.shape != (2, 2):
        raise ValueError("tau must be 2x2")
    if np.any(tau == 0):
        raise DegenerateTau("the derivation divides by every tau entry")

    det_m, actual_b = integer_block_inverse(emb.m)

    return InfeasibilityCertificate(
        tau=tuple(map(tuple, tau.tolist())),
        relations=RELATIONS,
        forced_det=FORCED_DET,
        actual_b=actual_b,
        actual_det_b=float(1.0 / det_m),
    )
