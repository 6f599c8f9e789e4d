"""Complex structures, theta vectors, holomorphy checks and the no-go proof.

A plane (vector-space) structure is a symmetric 2x2 complex matrix with
positive-definite imaginary part, assembled entrywise from a complex
parameter matrix divided by the two deformation parameters. A mixed
(lattice) structure carries a single complex scalar over the continuous
coordinate; the discrete coordinates only get a decay rate, because full
holomorphy is provably infeasible there (see
:func:`holomorphic_feasibility`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import sympy

from .embedding import EmbeddingKind, EmbeddingMap
from .errors import (
    ConsistencyViolated,
    DegenerateTau,
    DegenerateTestVector,
    NotPositive,
)
from .heisenberg import (
    ClosedFormVector,
    _fd4,
    _require_closed,
    build_connections,
)

SYMMETRY_TOL = 1e-12
DEFAULT_HOLOMORPHY_STEP = 5e-4
DEFAULT_MASK_REL = 1e-5


@dataclass(frozen=True)
class PlaneStructure:
    """Full complex structure Omega on the vector-space module."""

    omega: np.ndarray
    theta1: float
    theta2: float

    @property
    def kind(self) -> EmbeddingKind:
        return EmbeddingKind.VECTOR_SPACE

    def tau(self) -> np.ndarray:
        """Parameter matrix recovered from Omega and the deformation entries."""
        o = self.omega
        return np.array([[o[0, 0] * self.theta1, o[0, 1] * self.theta2],
                         [o[1, 0] * self.theta1, o[1, 1] * self.theta2]])


@dataclass(frozen=True)
class MixedStructure:
    """Scalar complex structure T over the continuous part only."""

    T: complex
    theta1: float
    theta2: float
    lattice_decay: float

    @property
    def kind(self) -> EmbeddingKind:
        return EmbeddingKind.LATTICE

    def tau(self) -> complex:
        return self.T * self.theta1


ComplexStructure = PlaneStructure | MixedStructure


def make_complex_structure(kind: EmbeddingKind, tau, theta1: float, theta2: float,
                           lattice_decay: float | None = None) -> ComplexStructure:
    """Validated complex structure for the given embedding kind.

    Vector-space kind: Omega_ij = tau_ij / theta_j must come out symmetric
    (the two holomorphy equations are inconsistent otherwise) with positive
    definite imaginary part. Lattice kind: T = tau / theta1 with Im T > 0;
    the discrete decay defaults to 1/theta2.
    """
    kind = EmbeddingKind(kind)
    if theta1 <= 0 or theta2 <= 0:
        raise NotPositive("deformation parameters must be strictly positive")
    if kind is EmbeddingKind.LATTICE:
        t = complex(tau) / theta1
        if t.imag <= 0:
            raise NotPositive("Im(tau) must be positive")
        decay = 1.0 / theta2 if lattice_decay is None else float(lattice_decay)
        if decay <= 0:
            raise NotPositive("lattice decay must be positive")
        return MixedStructure(t, float(theta1), float(theta2), decay)

    tau = np.asarray(tau, dtype=complex)
    if tau.shape != (2, 2):
        raise ValueError("vector-space structure needs a 2x2 tau")
    omega = tau / np.array([[theta1, theta2], [theta1, theta2]])
    if abs(omega[0, 1] - omega[1, 0]) > SYMMETRY_TOL:
        raise ConsistencyViolated(
            "tau12/theta2 != tau21/theta1: the two holomorphy equations are inconsistent")
    if not (np.linalg.eigvalsh(omega.imag) > 0).all():
        raise NotPositive("Im(Omega) must be positive definite")
    return PlaneStructure(omega, float(theta1), float(theta2))


def structure_from_tau(emb: EmbeddingMap, tau,
                       lattice_decay: float | None = None) -> ComplexStructure:
    """Complex structure from its JSON form, for the given embedding.

    ``tau`` is a [re, im] pair for the lattice kind and a 2x2 matrix of
    [re, im] pairs for the vector-space kind.
    """
    if emb.kind is EmbeddingKind.LATTICE:
        return make_complex_structure(emb.kind, complex(*tau), emb.theta1, emb.theta34,
                                      lattice_decay=lattice_decay)
    tau_mat = np.array([[complex(*z) for z in row] for row in tau])
    return make_complex_structure(emb.kind, tau_mat, emb.theta1, emb.theta2)


def theta_vector(structure: ComplexStructure) -> ClosedFormVector:
    """Canonical Gaussian annihilated by the antiholomorphic connections.

    Vector-space kind: exp(pi i S^t Omega S). Lattice kind:
    exp(pi i T s^2) times the default Schwartz weight
    exp(-pi c (n1^2 + n2^2)) with c the structure's decay.
    """
    if isinstance(structure, MixedStructure):
        return ClosedFormVector(EmbeddingKind.LATTICE, quadratic=structure.T,
                                decay=structure.lattice_decay)
    return ClosedFormVector(EmbeddingKind.VECTOR_SPACE,
                            quadratic=structure.omega, linear=np.zeros(2))


def antiholomorphic_rows(structure: ComplexStructure) -> list[np.ndarray]:
    """Coefficient rows of the antiholomorphic connections in the nabla basis."""
    if isinstance(structure, MixedStructure):
        return [np.array([structure.tau(), 1.0, 0.0, 0.0], dtype=complex)]
    t = structure.tau()
    return [np.array([t[0, 0], 1.0, t[0, 1], 0.0], dtype=complex),
            np.array([t[1, 0], 0.0, t[1, 1], 1.0], dtype=complex)]


def _holomorphy_probes(emb: EmbeddingMap, f: ClosedFormVector, mask_rel: float):
    from .heisenberg import _min_im_eig

    rate = math.pi * _min_im_eig(f.quadratic)
    s_max = math.sqrt(-math.log(0.5 * mask_rel) / rate) + 0.2
    if emb.kind is EmbeddingKind.LATTICE:
        s = np.linspace(-s_max, s_max, 161)
        n = np.arange(-2, 3)
        return np.ix_(s, n, n)
    s = np.linspace(-s_max, s_max, 45)
    return np.ix_(s, s)


def connection_combo_residual(f, emb: EmbeddingMap, coefficients, step: float = DEFAULT_HOLOMORPHY_STEP,
                              probes=None, mask_rel: float = DEFAULT_MASK_REL) -> float:
    """Pointwise-relative sup of |sum_i c_i nabla_i f| over masked probe points.

    The mask keeps points with |f| >= mask_rel * max |f|, so the residual
    is meaningful wherever the vector carries weight, including the
    discrete modes of the lattice kind.
    """
    closed = _require_closed(f)
    conn = build_connections(emb)
    coords = probes if probes is not None else _holomorphy_probes(emb, closed, mask_rel)
    coeffs = np.asarray(coefficients, dtype=complex)

    vals = closed.evaluate(*coords)
    peak = float(np.max(np.abs(vals)))
    if peak == 0.0:
        raise DegenerateTestVector("zero vector")
    mask = np.abs(vals) >= mask_rel * peak
    if not mask.any():
        raise DegenerateTestVector("mask is empty at the requested threshold")

    combo = np.zeros(np.broadcast(*coords).shape, dtype=complex)
    for i, c in enumerate(coeffs, start=1):
        if c == 0:
            continue
        mult = conn.multiplier[i - 1]
        lin = sum(m * coord for m, coord in zip(mult, coords) if m != 0.0)
        combo = combo + c * (-2j * math.pi) * lin * vals
        for d, dc in enumerate(conn.derivative[i - 1]):
            if dc != 0.0:
                combo = combo + c * dc * _fd4(closed.evaluate, coords, d, step)
    rel = np.abs(combo)[mask] / np.abs(vals)[mask]
    return float(np.max(rel))


def holomorphy_residual(f, structure: ComplexStructure, emb: EmbeddingMap,
                        step: float = DEFAULT_HOLOMORPHY_STEP, probes=None,
                        mask_rel: float = DEFAULT_MASK_REL) -> float:
    """Largest residual of the antiholomorphy equations on a probe grid.

    Vector-space kind checks both equations; lattice kind checks the single
    continuous one. Derivatives are order-4 central differences with the
    given step, and residuals are relative to |f| pointwise.
    """
    rows = antiholomorphic_rows(structure)
    return max(connection_combo_residual(f, emb, row, step, probes, mask_rel)
               for row in rows)


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Symbolic witness that full holomorphy over the lattice kind fails.

    ``relations`` traces the consistency conditions forced by requiring a
    common solution of the two would-be holomorphy equations;
    ``forced_det`` is det(b) under those relations, identically zero over
    the rational function field, contradicting ``actual_det_b`` != 0.
    """

    tau: tuple
    relations: tuple[str, ...]
    forced_det: sympy.Expr
    actual_b: np.ndarray
    actual_det_b: float

    @property
    def infeasible(self) -> bool:
        return bool(self.forced_det.is_zero) and self.actual_det_b != 0.0


def holomorphic_feasibility(emb: EmbeddingMap, tau) -> InfeasibilityCertificate:
    """Derive the lattice-kind holomorphy obstruction for a generic tau.

    Requiring both antiholomorphy equations to annihilate one function
    forces, by matching coefficients of s, n1, n2, a consistency relation
    on tau and two substitutions for the off-diagonal entries of b. Their
    determinant then cancels exactly, which contradicts b being the
    inverse of the integer block. The cancellation is carried out over the
    rational function field, never in floating point, and is independent
    of the integer block.
    """
    if emb.kind is not EmbeddingKind.LATTICE:
        raise DegenerateTau("the obstruction concerns the lattice kind")
    tau = np.asarray(tau, dtype=complex)
    if tau.shape != (2, 2):
        raise ValueError("tau must be 2x2")
    if np.any(tau == 0):
        raise DegenerateTau("the derivation divides by every tau entry")

    t11, t12, t21, t22 = sympy.symbols("tau11 tau12 tau21 tau22", nonzero=True)
    b11, b12, b21, b22 = sympy.symbols("b11 b12 b21 b22")
    s, n1, n2 = sympy.symbols("s n1 n2")
    th1 = sympy.Symbol("theta1", positive=True)

    # Both equations solved for the derivative term must agree identically.
    lhs1 = (t11 / th1 * s + b11 * n1 + b12 * n2) / t12
    lhs2 = (t21 / th1 * s + b21 * n1 + b22 * n2) / t22
    diff = sympy.expand(lhs1 - lhs2)
    cond_s = sympy.cancel(diff.coeff(s) * th1)
    sol = sympy.solve([diff.coeff(n1), diff.coeff(n2)], [b21, b12], dict=True)[0]
    forced_det = sympy.cancel((b11 * b22 - b12 * b21).subs(sol))

    m = emb.m
    det_m = int(m[0, 0]) * int(m[1, 1]) - int(m[0, 1]) * int(m[1, 0])
    actual_b = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=float) / det_m

    relations = (
        f"coefficient of s: {sympy.sstr(cond_s)} = 0"
        "  (i.e. tau11/tau12 = tau21/tau22)",
        f"coefficient of n2: b12 = {sympy.sstr(sympy.cancel(sol[b12]))}",
        f"coefficient of n1: b21 = {sympy.sstr(sympy.cancel(sol[b21]))}",
    )
    return InfeasibilityCertificate(
        tau=tuple(map(tuple, tau.tolist())),
        relations=relations,
        forced_det=forced_det,
        actual_b=actual_b,
        actual_det_b=float(1.0 / det_m),
    )
