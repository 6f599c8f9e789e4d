"""Embedding maps into M x M^ and the lattice they generate.

Two canonical embeddings of Z^4 are supported:

* vector-space kind, into R^2 x (R^2)^*, parameterized by theta1, theta2
  (optionally extended by a finite-group factor Z_m1 x Z_m2);
* lattice kind, into (R x Z^2) x (R^* x T^2), parameterized by theta1,
  an integer 2x2 matrix m and a real 2x2 matrix delta_hat.

The torus coordinates of lattice points are stored as real lifts, never
reduced mod 1: the half-angle phases attached to the Heisenberg operators
change sign under t -> t + 1 for odd integer shifts, so reduction would
corrupt the cocycle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    EmbeddingConditionViolated,
    KindMismatch,
    NonPositiveDeformation,
    SingularIntegerMatrix,
)

COLUMN_CONDITION_TOL = 1e-12


class EmbeddingKind(Enum):
    VECTOR_SPACE = "vector_space"
    LATTICE = "lattice"


@dataclass(frozen=True)
class FinitePart:
    """Finite-group factor Z_m1 x Z_m2 with twist integers n1, n2."""

    m1: int
    n1: int
    m2: int
    n2: int

    def __post_init__(self):
        for mi, ni, label in ((self.m1, self.n1, "1"), (self.m2, self.n2, "2")):
            if mi <= 0:
                raise NonPositiveDeformation(f"finite order m{label} must be positive")
            if math.gcd(mi, ni) != 1:
                raise ValueError(f"n{label} must be coprime to m{label}")


@dataclass(frozen=True)
class EmbeddingMap:
    """A linear map whose image of Z^4 is the lattice D in M x M^.

    ``entries`` is 4x4 for the vector-space kind and 6x4 for the lattice
    kind, laid out row-wise as the ambient coordinates (M block first,
    then the dual block).
    """

    kind: EmbeddingKind
    entries: np.ndarray
    theta1: float
    theta2: float | None = None
    m: np.ndarray | None = None
    delta_hat: np.ndarray | None = None
    finite_part: FinitePart | None = None
    valid: bool = True

    @property
    def theta34(self) -> float:
        """Second deformation entry induced by the embedding."""
        if self.kind is EmbeddingKind.VECTOR_SPACE:
            return float(self.theta2)
        m, d = self.m, self.delta_hat
        return float(m[0, 0] * d[0, 1] + m[1, 0] * d[1, 1]
                     - m[0, 1] * d[0, 0] - m[1, 1] * d[1, 0])

    def column_condition_residuals(self) -> np.ndarray:
        """Per-column residual of the M / M^ orthogonality condition."""
        x = self.entries
        if self.kind is EmbeddingKind.VECTOR_SPACE:
            return np.abs(x[0] * x[2] + x[1] * x[3])
        return np.abs(x[0] * x[3] + x[1] * x[4] + x[2] * x[5])


@dataclass(frozen=True)
class LatticeElement:
    """A lattice point: integer index k plus its exact ambient coordinates.

    Lattice kind: ``m_part`` is (w1, m1, m2) and ``dual_part`` is
    (w2, t1, t2) with t stored as unreduced lifts. Vector-space kind:
    both parts are the two continuous coordinates.
    """

    kind: EmbeddingKind
    k: tuple[int, int, int, int]
    m_part: np.ndarray
    dual_part: np.ndarray
    m_int: tuple[int, int] | None = None

    @property
    def w1(self) -> float:
        return float(self.m_part[0])

    @property
    def w2(self) -> float:
        return float(self.dual_part[0])

    @property
    def m_shift(self) -> tuple[int, int]:
        if self.kind is not EmbeddingKind.LATTICE:
            raise KindMismatch("integer shift only exists for the lattice kind")
        return self.m_int

    @property
    def t_lift(self) -> np.ndarray:
        if self.kind is not EmbeddingKind.LATTICE:
            raise KindMismatch("torus lift only exists for the lattice kind")
        return self.dual_part[1:]


@dataclass(frozen=True)
class DeformationMatrix:
    """Antisymmetric 4x4 matrix of commutation exponents."""

    theta: np.ndarray

    def phase(self, i: int, j: int) -> complex:
        """Expected commutation phase e^{2 pi i theta_ij} (1-based indices)."""
        return cmath.exp(2j * math.pi * self.theta[i - 1, j - 1])


def _vector_entries(theta1: float, theta2: float) -> np.ndarray:
    return np.array([
        [theta1, 0.0, 0.0, 0.0],
        [0.0, 0.0, theta2, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])


def _lattice_entries(theta1: float, m: np.ndarray, d: np.ndarray) -> np.ndarray:
    return np.array([
        [theta1, 0.0, 0.0, 0.0],
        [0.0, 0.0, float(m[0, 0]), float(m[0, 1])],
        [0.0, 0.0, float(m[1, 0]), float(m[1, 1])],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, d[0, 0], d[0, 1]],
        [0.0, 0.0, d[1, 0], d[1, 1]],
    ])


def build_embedding(kind: EmbeddingKind, theta1: float, theta2: float | None = None,
                    m=None, delta_hat=None, finite_part: FinitePart | None = None,
                    allow_invalid: bool = False) -> EmbeddingMap:
    """Construct and validate an embedding map.

    Violations are reported, never silently fixed. With ``allow_invalid``
    the column condition is only recorded (``valid=False``), which lets the
    operator layer explore configurations where the symmetrized phases no
    longer vanish on generator columns.
    """
    kind = EmbeddingKind(kind)
    if theta1 <= 0:
        raise NonPositiveDeformation("theta1 must be strictly positive")

    if kind is EmbeddingKind.VECTOR_SPACE:
        if theta2 is None or theta2 <= 0:
            raise NonPositiveDeformation("theta2 must be strictly positive")
        emb = EmbeddingMap(kind, _vector_entries(theta1, theta2),
                           float(theta1), float(theta2),
                           finite_part=finite_part)
    else:
        if finite_part is not None:
            raise KindMismatch("finite part is only defined for the vector-space kind")
        m = np.asarray(m)
        if m.shape != (2, 2):
            raise ValueError("m must be a 2x2 matrix")
        if not np.issubdtype(m.dtype, np.integer):
            if np.any(m != np.round(m)):
                raise ValueError("m must have integer entries")
        m = m.astype(np.int64)
        d = np.asarray(delta_hat, dtype=float)
        if int(round(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])) == 0:
            raise SingularIntegerMatrix("det(m) = 0, integer block not invertible")
        emb = EmbeddingMap(kind, _lattice_entries(theta1, m, d),
                           float(theta1), None, m=m, delta_hat=d)

    residuals = emb.column_condition_residuals()
    bad = np.nonzero(residuals > COLUMN_CONDITION_TOL)[0]
    if bad.size and not allow_invalid:
        j = int(bad[0])
        raise EmbeddingConditionViolated(column=j + 1, residual=float(residuals[j]))
    if kind is EmbeddingKind.LATTICE and emb.theta34 <= 0:
        raise NonPositiveDeformation(
            f"derived deformation entry theta34 = {emb.theta34:.6g} must be positive")
    if bad.size:
        emb = EmbeddingMap(emb.kind, emb.entries, emb.theta1, emb.theta2,
                           emb.m, emb.delta_hat, emb.finite_part, valid=False)
    return emb


def commutation_matrix(emb: EmbeddingMap) -> DeformationMatrix:
    """Antisymmetric deformation matrix produced by the embedding.

    Only the (1,2) and (3,4) entries are nonzero for the canonical maps.
    """
    theta = np.zeros((4, 4))
    theta[0, 1] = emb.theta1
    theta[2, 3] = emb.theta34
    theta -= theta.T
    return DeformationMatrix(theta)


def lattice_element(emb: EmbeddingMap, k) -> LatticeElement:
    """Image of the integer vector k under the embedding map."""
    k = np.asarray(k, dtype=np.int64)
    if k.shape != (4,):
        raise ValueError("k must be an integer 4-vector")
    amb = emb.entries @ k.astype(float)
    if emb.kind is EmbeddingKind.VECTOR_SPACE:
        return LatticeElement(emb.kind, tuple(int(v) for v in k),
                              m_part=amb[:2].copy(), dual_part=amb[2:].copy())
    m_int = emb.m @ k[2:]
    m_part = np.array([amb[0], float(m_int[0]), float(m_int[1])])
    dual_part = np.array([amb[3], amb[4], amb[5]])
    return LatticeElement(emb.kind, tuple(int(v) for v in k), m_part, dual_part,
                          m_int=(int(m_int[0]), int(m_int[1])))


def element_add(emb: EmbeddingMap, x: LatticeElement, y: LatticeElement) -> LatticeElement:
    """Lattice sum x + y, recomputed through the map so coordinates stay exact."""
    return lattice_element(emb, np.asarray(x.k) + np.asarray(y.k))


def element_neg(emb: EmbeddingMap, x: LatticeElement) -> LatticeElement:
    return lattice_element(emb, -np.asarray(x.k))


def enumerate_indices(radius: int) -> np.ndarray:
    """Integer 4-vectors with sup norm <= radius in the canonical order.

    Sorted by sup norm first, then lexicographically; this fixes the
    summation order of every truncated series in the package.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    rng = np.arange(-radius, radius + 1, dtype=np.int64)
    ks = np.stack(np.meshgrid(rng, rng, rng, rng, indexing="ij"), axis=-1).reshape(-1, 4)
    order = np.lexsort((ks[:, 3], ks[:, 2], ks[:, 1], ks[:, 0], np.abs(ks).max(axis=1)))
    return ks[order]


def enumerate_lattice(emb: EmbeddingMap, radius: int) -> list[LatticeElement]:
    """All lattice elements with index sup norm <= radius, canonical order."""
    return [lattice_element(emb, k) for k in enumerate_indices(radius)]


def pairing(m_part, dual_part) -> float:
    """Duality pairing <r, s^> between a point of M and a point of M^.

    Componentwise products, summed; torus coordinates enter through their
    real lifts.
    """
    a = np.asarray(m_part, dtype=float)
    b = np.asarray(dual_part, dtype=float)
    if a.shape != b.shape:
        raise KindMismatch("pairing arguments must have matching dimensions")
    return float(a @ b)


def _pairing_exponent_table(emb: EmbeddingMap, left: np.ndarray,
                            right: np.ndarray) -> np.ndarray:
    """Matrix of <x1, y2> - <y1, x2> over two index families (rows x cols)."""
    amb_l = left.astype(float) @ emb.entries.T
    amb_r = right.astype(float) @ emb.entries.T
    if emb.kind is EmbeddingKind.VECTOR_SPACE:
        m_l, d_l = amb_l[:, :2], amb_l[:, 2:]
        m_r, d_r = amb_r[:, :2], amb_r[:, 2:]
    else:
        m_l, d_l = amb_l[:, :3], amb_l[:, 3:]
        m_r, d_r = amb_r[:, :3], amb_r[:, 3:]
    return m_l @ d_r.T - (m_r @ d_l.T).T


def cocycle_identity_max_residual(emb: EmbeddingMap, radius: int = 2) -> float:
    """Worst 2-cocycle defect over all ordered triples within the radius.

    Checks alpha(g,h) alpha(g+h,k) = alpha(h,k) alpha(g,h+k) through the
    phase exponents; sums like g+h are looked up in the doubled-radius
    enumeration, so the check covers every triple exactly once.
    """
    ks = enumerate_indices(radius)
    ks2 = enumerate_indices(2 * radius)
    # Mixed-radix code of an index of sup norm <= 2 radius -> its row in ks2.
    place = (4 * radius + 1) ** np.arange(4)
    row_of = np.empty((4 * radius + 1) ** 4, dtype=np.int64)
    row_of[(ks2 + 2 * radius) @ place] = np.arange(len(ks2))
    pair_sum = row_of[(ks[:, None, :] + ks[None, :, :] + 2 * radius) @ place]
    e_small = _pairing_exponent_table(emb, ks, ks)
    e_wide = _pairing_exponent_table(emb, ks2, ks)
    e_tall = _pairing_exponent_table(emb, ks, ks2)
    worst = 0.0
    for g in range(len(ks)):
        combo = (e_small[g][:, None] + e_wide[pair_sum[g], :]
                 - e_small - e_tall[g][pair_sum])
        worst = max(worst, float(np.max(np.abs(combo))))
    return abs(cmath.exp(1j * math.pi * worst) - 1.0)


def bicharacter_max_residual(emb: EmbeddingMap, rng, n_pairs: int = 20,
                             radius: int = 2) -> float:
    """Worst defect of additivity of the cocycle in either slot."""
    worst = 0.0
    for _ in range(n_pairs):
        ka, kb, kc = rng.integers(-radius, radius + 1, size=(3, 4))
        a, b, c = (lattice_element(emb, k) for k in (ka, kb, kc))
        ab = lattice_element(emb, ka + kb)
        bc = lattice_element(emb, kb + kc)
        worst = max(
            worst,
            abs(cocycle_phase(ab, c) - cocycle_phase(a, c) * cocycle_phase(b, c)),
            abs(cocycle_phase(a, bc) - cocycle_phase(a, b) * cocycle_phase(a, c)),
        )
    return worst


def element_linearity_max_residual(emb: EmbeddingMap, radius: int = 2) -> float:
    """Worst defect of ambient linearity over all index pairs in the radius."""
    ks = enumerate_indices(radius)
    amb = ks.astype(float) @ emb.entries.T
    worst = 0.0
    for a, ka in enumerate(ks):
        summed = amb[a][None, :] + amb
        direct = (ka + ks).astype(float) @ emb.entries.T
        worst = max(worst, float(np.max(np.abs(summed - direct))))
    return worst


def cocycle_phase(x: LatticeElement, y: LatticeElement) -> complex:
    """Cocycle alpha(x, y) of the symmetrized Heisenberg operators.

    Composing two operators pi_x pi_y f, with
    pi_x f(r) = e^{2 pi i <r, x2> + pi i <x1, x2>} f(r + x1),
    the translation parts combine to r + x1 + y1 while the phases pick up
    e^{2 pi i <x1, y2>} from evaluating the y-modulation at r + x1.
    Comparing with pi_{x+y} leaves exactly

        alpha(x, y) = e^{pi i (<x1, y2> - <y1, x2>)},

    a bicharacter with alpha(x, y) = alpha(y, x)^{-1}. The formula is
    validated against operator composition on sampled Gaussians by the
    test suite and the ``validate`` CLI suite.
    """
    if x.kind is not y.kind:
        raise KindMismatch("cocycle arguments must come from the same embedding kind")
    expo = pairing(x.m_part, y.dual_part) - pairing(y.m_part, x.dual_part)
    return cmath.exp(1j * math.pi * expo)
