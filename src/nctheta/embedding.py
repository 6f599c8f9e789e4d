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
    k = _index_rows(ks)
    # term by term in index order from +0.0: a matmul rounds differently with
    # the number of rows, and a row's parts must not depend on the rows that
    # share the call. A zero entry would add +-0.0, which leaves such a sum
    # as it is, so its term is skipped.
    amb = np.zeros(k.shape[:-1] + (len(emb.entries),))
    for i, row in enumerate(emb.entries.tolist()):
        for j, entry in enumerate(row):
            if entry:
                amb[..., i] += k[..., j] * entry
    cut = len(emb.entries) // 2
    return amb[..., :cut], amb[..., cut:]


@dataclass(frozen=True)
class IndexPlanes:
    """Index rows split over the two index planes, (k1, k2) and (k3, k4).

    ``points[p]`` holds the distinct points of plane p, as index rows that
    are zero on the other plane, and ``codes[p]`` the point of each row.
    ``reads[i]`` is the plane that ambient coordinate i (row i of
    ``entries``) reads.
    """

    points: tuple[np.ndarray, np.ndarray]
    codes: tuple[np.ndarray, np.ndarray]
    reads: tuple[int, ...]


def _plane_codes(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of (N, 2) integer columns, in lexicographic order: the
    first row holding each, and the distinct row of each row, as indices.

    The int64 code of a row is its offset in the columns' bounding box. A
    box of at most max(N, 2^16) points, as each plane of the canonical grid
    is, ranks the codes by distribution counting: a mask over the box marks
    them, and its running sum numbers them in order. A larger box is never
    built; np.unique sorts the codes instead, and columns whose box does not
    fit in int64 are replaced by their ranks first.
    """
    low = [int(c.min(initial=0)) for c in cols.T]
    span = [int(c.max(initial=0)) - lo + 1 for c, lo in zip(cols.T, low)]
    dense = span[0] * span[1] <= max(len(cols), 2 ** 16)
    if span[0] * span[1] >= 2 ** 63:
        cols = np.stack([np.unique(c, return_inverse=True)[1] for c in cols.T], axis=-1)
        low, span = [0, 0], [len(cols)] * 2
    # in place on the strided columns; as low <= 0, no step leaves int64
    code = cols[:, 0] - low[0]
    code *= span[1]
    code += cols[:, 1]
    code -= low[1]
    if not dense:
        _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
        return first, inverse
    mark = np.zeros(span[0] * span[1], dtype=bool)
    mark[code] = True
    inverse = (np.cumsum(mark) - 1)[code]
    first = np.full(np.count_nonzero(mark), len(code))
    np.minimum.at(first, inverse, np.arange(len(code)))
    return first, inverse


def index_planes(emb: EmbeddingMap, ks) -> IndexPlanes:
    """The two index planes of (N, 4) index rows under the embedding.

    Each ambient coordinate must read one plane: its row of ``entries`` is
    zero on the other, as in the canonical maps (an all-zero row is put on
    (k3, k4)); ValueError otherwise. :func:`point_parts` sums term by term
    from +0.0, so a coordinate of a row equals that coordinate of the row's
    point on the plane it reads, bit for bit.
    """
    ks = _index_rows(ks).reshape(-1, 4)
    off_near, off_far = (np.all(emb.entries[:, cols] == 0, axis=1)
                         for cols in (slice(0, 2), slice(2, 4)))
    if not np.all(off_near | off_far):
        raise ValueError("an ambient coordinate reads both index planes")
    points, codes = [], []
    for plane in range(2):
        cols = slice(2 * plane, 2 * plane + 2)
        first, code = _plane_codes(ks[:, cols])
        point = np.zeros((len(first), 4), dtype=np.int64)
        point[:, cols] = ks[first, cols]
        points.append(point)
        codes.append(code)
    return IndexPlanes(tuple(points), tuple(codes), tuple(off_near.astype(int).tolist()))


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
    summation order of every truncated series in the package. The flat
    positions of the (2r+1)^4 grid, last axis fastest, are already
    lexicographic, so a stable sort of them on the sup norm alone gives
    that order. The sup norm is taken per axis pair by outer maxima, in the
    narrowest unsigned type that holds the radius (a key numpy sorts stably
    by radix up to 16 bits), and the sorted positions are decoded in place,
    one divmod per axis from the last.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    side = 2 * radius + 1
    span = np.abs(np.arange(-radius, radius + 1)).astype(np.min_scalar_type(radius))
    pair = np.maximum.outer(span, span).ravel()
    order = np.argsort(np.maximum.outer(pair, pair).ravel(), kind="stable")
    rows = np.empty((len(order), 4), dtype=np.int64)
    for axis in (3, 2, 1, 0):
        np.divmod(order, side, out=(order, rows[:, axis]))
    rows -= radius
    return rows


def _negated_rows(radius: int) -> np.ndarray:
    """Row of -k in :func:`enumerate_indices` for each row k, at one radius.

    Shell s (sup norm s) spans rows [a_s, b_s), with a_0 = 0, a_s = (2s-1)^4
    and b_s = (2s+1)^4. Negation keeps the sup norm, so it maps each shell
    onto itself, and it reverses the lexicographic order, which sorts the
    rows inside a shell. So it reverses every shell: row a_s + j holds -k
    for the k at row b_s - 1 - j.
    """
    ends = (2 * np.arange(radius + 1) + 1) ** 4
    starts = np.concatenate(([0], ends[:-1]))
    return np.repeat(starts + ends - 1, ends - starts) - np.arange(ends[-1])


def _cocycle_exponent(m_l, d_l, m_r, d_r):
    """Cocycle exponent <x1, y2> - <y1, x2> of x = (m_l, d_l), y = (m_r, d_r).

    Composing pi_x pi_y f, with pi_x f(r) = e^{2 pi i <r, x2> + pi i <x1, x2>}
    f(r + x1), the translations combine to r + x1 + y1 while the phases pick
    up e^{2 pi i <x1, y2>} from the y-modulation at r + x1. Comparing with
    pi_{x+y} leaves alpha(x, y) = e^{pi i (<x1, y2> - <y1, x2>)}, a
    bicharacter with alpha(x, y) = alpha(y, x)^{-1}. Torus coordinates enter
    through their real lifts; (rows, d) point families give the rows x cols
    table. Only :func:`_exponent_split` reads this, at the basis rows.
    """
    return m_l @ d_r.T - d_l @ m_r.T


def _exponent_split(emb: EmbeddingMap) -> tuple[np.ndarray, np.ndarray]:
    """(R mod 2, F) of the split B = R + F of the basis exponent table B.

    R = rint(B) and F = B - R are exact in floating point, with |F| <= 1/2.
    R mod 2, a 0/1 int64 matrix, is also taken in floating point, where it
    is exact, so no theta, however large, overflows an integer product.
    """
    parts = point_parts(emb, np.eye(4, dtype=np.int64))
    form = _cocycle_exponent(*parts, *parts)
    whole = np.rint(form)
    return np.mod(whole, 2.0).astype(np.int64), form - whole


def _paired_exponent(emb: EmbeddingMap, kg, kh) -> np.ndarray:
    """Exponent of alpha, mod 2, of each pair of broadcast index arrays (..., 4).

    With B = R + F (:func:`_exponent_split`), alpha(g, h) = e^{i pi x},
    x = (g^T R h mod 2) + fl(fl(g^T F) h): the parity is exact integer
    arithmetic on g and h mod 2, and |g^T F h| does not grow with theta.
    Both 4-term sums run term by term in index order, so an entry does not
    depend on the shape of the call.
    """
    parity, frac = _exponent_split(emb)
    kg, kh = _index_rows(kg), _index_rows(kh)
    kf = sum(kg[..., i, None] * frac[i] for i in range(4))
    kr = (kg % 2) @ parity
    odd = sum(kr[..., j] * (kh[..., j] % 2) for j in range(4))
    return odd % 2 + sum(kf[..., j] * kh[..., j] for j in range(4))


def _pairing_exponent_table(emb: EmbeddingMap, left, right) -> np.ndarray:
    """:func:`_paired_exponent` of every left row with every right row: the
    (..., rows, cols) table of two index families of shape (..., rows, 4)
    and (..., cols, 4)."""
    return _paired_exponent(emb, np.asarray(left)[..., :, None, :],
                            np.asarray(right)[..., None, :, :])


_UNIT_ROUNDOFF = 2.0 ** -53  # of IEEE double precision


def cocycle_identity_max_residual(emb: EmbeddingMap, radius: int = 2) -> float:
    """Certified bound on the worst 2-cocycle defect over all ordered triples.

    A triple sweep over g, h, k of sup norm <= r = radius would evaluate,
    from the exponents E of :func:`_paired_exponent`,

        combo = ((a + w) - s) - t,   a = E(g,h), w = E(g+h,k),
                                     s = E(h,k), t = E(g,h+k),

    and report |e^{i pi d} - 1| at the largest distance d of a combo from
    the even integers. This bounds d a priori, from r and S = sum |F_ij|.

    E(k,l) = fl(p + fl(fl(k^T F) l)) with p = k^T R l mod 2 exact. Its exact
    value p + k^T F l is k^T B l mod 2, and B is bilinear, so the exact combo
    is an even integer and d <= |fl(combo) - exact combo|. With u the unit
    roundoff and gamma_n = n u / (1 - n u) (Higham, *Accuracy and Stability
    of Numerical Algorithms*, ch. 2-3):

    * fl(fl(k^T F) l) is two 4-term inner products, off from k^T F l by at
      most gamma_8 |k|^T |F| |l| <= gamma_8 y, y = |k|_inf |l|_inf S.
      Adding p rounds once more, by at most u (1 + (1 + gamma_8) y). a and s
      have y <= r^2 S; w and t pair a sum of sup norm <= 2r with a row of
      sup norm <= r, so y <= 2 r^2 S. The four entries are off by at most
      6 gamma_8 r^2 S + u (4 + 6 (1 + gamma_8) r^2 S) together.
    * |E| <= (1 + u)(1 + (1 + gamma_8) y). The combo's three roundings are
      each at most u times a partial sum: u (1 + u)^2 (5 A + 3 W + T) in
      all, with A, W and T the bounds on |a| and |s|, |w| and |t|, so at
      most u (1 + u)^3 (9 + 13 (1 + gamma_8) r^2 S).

    The parts add up to u (67 r^2 S + 13) plus terms of order u^2. Evaluating
    u (68 r^2 S + 14) in floating point leaves a surplus that covers its own
    17 roundings (16 terms in S, two operations), each at most a factor
    1 - u on nonnegative numbers. |e^{i pi x} - 1| rises on [0, 1] to its
    maximum 2, so a bound of 1 or more (or NaN) reports 2: the result is
    never below what the triple sweep reports.
    """
    span = float(np.sum(np.abs(_exponent_split(emb)[1])))
    worst = _UNIT_ROUNDOFF * (68 * radius * radius * span + 14)
    worst = worst if worst < 1.0 else 1.0
    return abs(cmath.exp(1j * math.pi * worst) - 1.0)


def bicharacter_max_residual(emb: EmbeddingMap, rng) -> float:
    """Worst defect of cocycle additivity in either slot over 20 random triples in radius 2."""
    ka, kb, kc = np.moveaxis(rng.integers(-2, 3, size=(20, 3, 4)), 1, 0)
    ab_c, a_c, b_c, a_bc, a_b = np.exp(1j * math.pi * _paired_exponent(
        emb, np.stack([ka + kb, ka, kb, ka, ka]), np.stack([kc, kc, kc, kb + kc, kb])))
    defects = np.stack([ab_c - _cmul(a_c, b_c), a_bc - _cmul(a_b, a_c)])
    return float(np.max(np.hypot(defects.real, defects.imag)))


# Left index rows per block of the all-pairs sweeps: a block is a
# (block, rows) table, 25 x 625 at radius 2.
PAIR_SWEEP_BLOCK = 25


def element_linearity_max_residual(emb: EmbeddingMap) -> float:
    """Worst defect of linearity of :func:`point_parts` over all index pairs of sup norm <= 2.

    :func:`point_parts` skips zero entries, so a coordinate whose row of ``entries`` is
    nonzero on the columns S has at a pair the defect of the pair restricted to S, itself
    a pair of the sweep: each distinct S sweeps the 5^|S| rows that vanish off S.
    """
    ks = enumerate_indices(2)
    nonzero = emb.entries != 0
    worst = 0.0
    for cols in {tuple(row) for row in nonzero.tolist()}:
        sub = ks[~np.any(ks[:, ~np.array(cols)], axis=1)]
        sel = np.split(np.all(nonzero == cols, axis=1), 2)
        parts = [part[:, s] for part, s in zip(point_parts(emb, sub), sel)]
        for lo in range(0, len(sub), PAIR_SWEEP_BLOCK):
            rows = slice(lo, lo + PAIR_SWEEP_BLOCK)
            for part, direct, s in zip(parts, point_parts(emb, sub[rows, None] + sub), sel):
                defect = np.abs(part[rows, None] + part - direct[..., s])
                worst = max(worst, float(np.max(defect, initial=0.0)))
    return worst
