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
    NotCoprime,
    SingularIntegerMatrix,
)
from .special import _cmul

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
                raise NotCoprime(f"n{label} must be coprime to m{label}")


@dataclass(frozen=True)
class EmbeddingMap:
    """A linear map whose image of Z^4 is the lattice D in M x M^.

    ``entries`` is 4x4 for the vector-space kind and 6x4 for the lattice
    kind, laid out row-wise as the ambient coordinates: the M block in
    the first half of the rows, the dual block in the second. Only
    :func:`point_parts` splits that layout.
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
        cut = len(self.entries) // 2
        return np.abs(np.sum(self.entries[:cut] * self.entries[cut:], axis=0))


@dataclass(frozen=True)
class LatticeElement:
    """Lattice points: integer index rows k of shape (..., 4) plus their exact
    ambient coordinates, over the same leading axes.

    ``m_part`` and ``dual_part`` are the two halves of :func:`point_parts`.
    """

    kind: EmbeddingKind
    k: np.ndarray
    m_part: np.ndarray
    dual_part: np.ndarray


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
    if not (math.isfinite(theta1) and theta1 > 0):
        raise NonPositiveDeformation("theta1 must be finite and strictly positive")

    if kind is EmbeddingKind.VECTOR_SPACE:
        if theta2 is None or not (math.isfinite(theta2) and theta2 > 0):
            raise NonPositiveDeformation("theta2 must be finite and strictly positive")
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
        integer_block_inverse(m)  # SingularIntegerMatrix when det(m) = 0
        emb = EmbeddingMap(kind, _lattice_entries(theta1, m, d),
                           float(theta1), None, m=m, delta_hat=d)

    residuals = emb.column_condition_residuals()
    bad = np.nonzero(residuals > COLUMN_CONDITION_TOL)[0]
    if bad.size and not allow_invalid:
        j = int(bad[0])
        raise EmbeddingConditionViolated(column=j + 1, residual=float(residuals[j]))
    # a non-finite entry of delta_hat makes theta34 non-finite
    if kind is EmbeddingKind.LATTICE and not (math.isfinite(emb.theta34) and emb.theta34 > 0):
        raise NonPositiveDeformation(
            f"derived deformation entry theta34 = {emb.theta34:.6g} must be finite and positive")
    if bad.size:
        emb = EmbeddingMap(emb.kind, emb.entries, emb.theta1, emb.theta2,
                           emb.m, emb.delta_hat, emb.finite_part, valid=False)
    return emb


def integer_block_inverse(m) -> tuple[int, np.ndarray]:
    """det(m), exact in integers, and b = m^-1 of the integer 2x2 block."""
    det = int(m[0, 0]) * int(m[1, 1]) - int(m[0, 1]) * int(m[1, 0])
    if det == 0:
        raise SingularIntegerMatrix("det(m) = 0, integer block not invertible")
    return det, np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=float) / det


def commutation_matrix(emb: EmbeddingMap) -> DeformationMatrix:
    """Antisymmetric deformation matrix produced by the embedding.

    Only the (1,2) and (3,4) entries are nonzero for the canonical maps.
    """
    theta = np.zeros((4, 4))
    theta[0, 1] = emb.theta1
    theta[2, 3] = emb.theta34
    theta -= theta.T
    return DeformationMatrix(theta)


def _index_rows(k) -> np.ndarray:
    """Index rows of shape (..., 4) as int64; ValueError for another shape or
    an entry that is not an int64 integer (integral floats such as 1.0 pass)."""
    k = np.asarray(k)
    if k.ndim == 0 or k.shape[-1] != 4:
        raise ValueError("k must be integer index rows of shape (..., 4)")
    # NaN and infinities fail the magnitude test
    if k.dtype.kind not in "biu" and not np.all((np.abs(k) < 2.0 ** 63) & (k == np.round(k))):
        raise ValueError("k must have integer entries within the int64 range")
    return k.astype(np.int64, copy=False)


def point_parts(emb: EmbeddingMap, ks) -> tuple[np.ndarray, np.ndarray]:
    """M part and dual part of the image of each index row of shape (..., 4).

    Lattice kind: the M part is (w1, m1, m2), with the integer shift
    m (k3, k4) exact in floating point, and the dual part (w2, t1, t2),
    with t stored as unreduced lifts. Vector-space kind: each part is two
    continuous coordinates.
    """
    amb = _index_rows(ks).astype(float) @ emb.entries.T
    cut = len(emb.entries) // 2
    return amb[..., :cut], amb[..., cut:]


def lattice_element(emb: EmbeddingMap, k) -> LatticeElement:
    """Image of the index rows k, of shape (..., 4), under the embedding map."""
    k = _index_rows(k)
    return LatticeElement(emb.kind, k, *point_parts(emb, k))


def element_add(emb: EmbeddingMap, x: LatticeElement, y: LatticeElement) -> LatticeElement:
    """Lattice sum x + y, recomputed through the map so coordinates stay exact."""
    return lattice_element(emb, x.k + y.k)


def enumerate_indices(radius: int) -> np.ndarray:
    """Integer 4-vectors with sup norm <= radius in the canonical order.

    Sorted by sup norm first, then lexicographically; this fixes the
    summation order of every truncated series in the package. The "ij"
    grid is already lexicographic, so a stable sort on the sup norm alone
    gives that order.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    rng = np.arange(-radius, radius + 1, dtype=np.int64)
    ks = np.stack(np.meshgrid(rng, rng, rng, rng, indexing="ij"), axis=-1).reshape(-1, 4)
    return ks[np.argsort(np.abs(ks).max(axis=1), kind="stable")]


def _cocycle_exponent(m_l, d_l, m_r, d_r):
    """Cocycle exponent <x1, y2> - <y1, x2> of x = (m_l, d_l), y = (m_r, d_r).

    Torus coordinates enter through their real lifts. Row families of shape
    (..., rows, d), a point per row, give the (..., rows, cols) table, over
    leading axes that broadcast. Every cocycle route, operator oracle and
    identity certificate alike, reads this formula.
    """
    return m_l @ np.swapaxes(d_r, -1, -2) - np.swapaxes(m_r @ np.swapaxes(d_l, -1, -2), -1, -2)


def _pairing_exponent_table(emb: EmbeddingMap, left: np.ndarray,
                            right: np.ndarray) -> np.ndarray:
    """Matrix of <x1, y2> - <y1, x2> over two index families (rows x cols)."""
    return _cocycle_exponent(*point_parts(emb, left), *point_parts(emb, right))


def _paired_exponent(emb: EmbeddingMap, kg, kh) -> np.ndarray:
    """<x1, y2> - <y1, x2> of each pair of broadcast index arrays (..., 4)."""
    return _pairing_exponent_table(emb, kg[..., None, :], kh[..., None, :])[..., 0, 0]


# Unit roundoff of IEEE double precision (Higham, *Accuracy and Stability
# of Numerical Algorithms*, ch. 2-3).
_UNIT_ROUNDOFF = 2.0 ** -53
# Rows and columns per exponent-table block: the identity certificate holds
# a few arrays of this side at once, whatever the radius.
_TABLE_BLOCK = 625


def _split_form(form: np.ndarray, reach: int) -> tuple[np.ndarray, np.ndarray]:
    """form = hi + lo exactly, with k^T hi l exact in floating point.

    hi is form rounded to a power-of-two grid with |hi| <= 2^bits grid, so
    for integer vectors of sup norm <= reach every partial sum of k^T hi l,
    in any order, is an integer multiple of the grid below
    16 reach^2 2^bits grid <= 2^53 grid.
    """
    bits = 49 - 2 * math.ceil(math.log2(max(reach, 1)))
    _, exponent = np.frexp(np.max(np.abs(form)))
    grid = np.ldexp(1.0, int(exponent) - bits)
    hi = np.round(form / grid) * grid
    return hi, form - hi


def _block_deviation(emb: EmbeddingMap, ks: np.ndarray, ls: np.ndarray,
                     hi: np.ndarray, lo: np.ndarray) -> tuple[float, float]:
    """(max |table|, max of |fl(d - P_lo)| + u |d|) over one table block.

    d = fl(table - P_hi) with P_hi = k^T hi l exact; P_lo = fl(k^T lo l).
    """
    kf, lf = ks.astype(float), ls.astype(float)
    table = _pairing_exponent_table(emb, ks, ls)
    size = np.max(np.abs(table))
    table -= (kf @ hi) @ lf.T
    rest = (kf @ lo) @ lf.T
    np.subtract(table, rest, out=rest)
    np.abs(rest, out=rest)
    np.abs(table, out=table)
    rest += _UNIT_ROUNDOFF * table
    return size, np.max(rest)


def _bilinear_deviation(emb: EmbeddingMap, left: np.ndarray, right: np.ndarray,
                        hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """``_block_deviation`` over the left x right table, block by block."""
    n = _TABLE_BLOCK
    return np.max([_block_deviation(emb, left[i:i + n], right[j:j + n], hi, lo)
                   for i in range(0, len(left), n)
                   for j in range(0, len(right), n)], axis=0)


def cocycle_identity_max_residual(emb: EmbeddingMap, radius: int = 2) -> float:
    """Certified bound on the worst 2-cocycle defect over all ordered triples.

    The identity alpha(g,h) alpha(g+h,k) = alpha(h,k) alpha(g,h+k) holds when
    the phase exponent E(g,h) = <x1, y2> - <y1, x2> is bilinear. A triple
    sweep over g, h, k of sup norm <= radius evaluates

        combo = ((a + w) - s) - t,   a = A(g,h), w = W(g+h,k),
                                     s = A(h,k), t = T(g,h+k),

    from three float tables of ``_pairing_exponent_table``: A over ks x ks,
    W over ks2 x ks and T over ks x ks2 (ks2: sup norm <= 2 radius), and
    reports |e^{i pi max|combo|} - 1|. This function bounds every such
    fl(combo) from the 2 (4 radius + 1)^4 (2 radius + 1)^4 table entries
    instead of the (2 radius + 1)^12 triples, in blocks of bounded memory.

    B, the table of the basis vectors, is read off the table function itself.
    D(k,l) = table(k,l) - k^T B l is the exact deviation of an entry from that
    bilinear form, and b(k,l) = k^T B l. In exact arithmetic the b-terms of a
    combo cancel for any B, so with Delta = 2 max|D_A| + max|D_W| + max|D_T|

        |combo| <= Delta,
        |a + w| = |b(g,h+k) + b(h,k) + D's| <= max|T| + max|A| + Delta,
        |a + w - s| = |b(g,h+k) + D's| <= max|T| + Delta.

    Each of the sweep's three roundings is relative and at most u (the unit
    roundoff), which gives |fl(combo) - combo| <= u (1 + u)^2 (|a + w| +
    |a + w - s| + |combo|), hence

        |fl(combo)| <= Delta + u (1 + u)^2 (2 max|T| + max|A| + 3 Delta).

    |D| is bounded entry by entry (Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 3). B = hi + lo (``_split_form``), where
    P_hi = k^T hi l is exact. P_lo = fl(fl(k^T lo) l) is two 4-term inner
    products, so |P_lo - k^T lo l| <= gamma_8 |k|^T |lo| |l| <=
    gamma_8 16 (2 radius)^2 max|lo|, gamma_n = n u / (1 - n u). With d =
    fl(table - P_hi) and round to nearest, |table - P_hi - P_lo| <= (1 + u)
    |fl(d - P_lo)| + u |d|. The bound is evaluated in floating point on
    nonnegative numbers: its roundings and the factors 1 + u above make
    fewer than 16 factors of (1 - u)^-1, which the final factor 1 + 64 u
    covers.

    |e^{i pi x} - 1| rises on 0 <= x <= 1 to its maximum 2, so a bound of
    1 or more (or not a number) reports 2. The result is therefore never
    below what the triple sweep reports on the same tables.
    """
    u = _UNIT_ROUNDOFF
    ks = enumerate_indices(radius)
    ks2 = enumerate_indices(2 * radius)
    basis = np.eye(4, dtype=np.int64)
    hi, lo = _split_form(_pairing_exponent_table(emb, basis, basis), 2 * radius)
    lo_error = 8 * u / (1 - 8 * u) * 16 * (2 * radius) ** 2 * np.max(np.abs(lo))
    a_size, a_dev = _bilinear_deviation(emb, ks, ks, hi, lo)
    _, w_dev = _bilinear_deviation(emb, ks2, ks, hi, lo)
    t_size, t_dev = _bilinear_deviation(emb, ks, ks2, hi, lo)
    delta = 2 * a_dev + w_dev + t_dev + 4 * lo_error
    worst = (delta + u * (2 * t_size + a_size + 3 * delta)) * (1 + 64 * u)
    worst = float(worst) if worst < 1.0 else 1.0
    return abs(cmath.exp(1j * math.pi * worst) - 1.0)


def bicharacter_max_residual(emb: EmbeddingMap, rng) -> float:
    """Worst defect of cocycle additivity in either slot over 20 random triples in radius 2."""
    ka, kb, kc = np.moveaxis(rng.integers(-2, 3, size=(20, 3, 4)), 1, 0)
    ab_c, a_c, b_c, a_bc, a_b = np.exp(1j * math.pi * _paired_exponent(
        emb, np.stack([ka + kb, ka, kb, ka, ka]), np.stack([kc, kc, kc, kb + kc, kb])))
    defects = np.stack([ab_c - _cmul(a_c, b_c), a_bc - _cmul(a_b, a_c)])
    return float(np.max(np.hypot(defects.real, defects.imag)))


def element_linearity_max_residual(emb: EmbeddingMap) -> float:
    """Worst defect of linearity of :func:`point_parts` over all index pairs of sup norm <= 2."""
    ks = enumerate_indices(2)
    parts = point_parts(emb, ks)
    worst = 0.0
    for a, ka in enumerate(ks):
        for part, direct in zip(parts, point_parts(emb, ka + ks)):
            worst = max(worst, float(np.max(np.abs(part[a] + part - direct))))
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
    expo = float(_cocycle_exponent(x.m_part[None], x.dual_part[None],
                                   y.m_part[None], y.dual_part[None])[0, 0])
    return cmath.exp(1j * math.pi * expo)
