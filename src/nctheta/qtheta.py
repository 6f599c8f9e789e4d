"""Algebra-valued inner products, quantum theta series and their identities.

The closed route computes series coefficients and, in one call over rows,
the self-pairings of :func:`inner_product_closed` from the Hermitian-form
exponential (times the lattice kind's mode factors, one call per table). The
oracle route in :func:`inner_product_oracle` recomputes them by brute force
through the operator layer and numerical integration; it must never touch
``gaussian_factor``, ``mode_factor`` or :func:`inner_product_closed`.

Quantum translations: the plane case uses the independent multiplier
e^{-pi H(g_, h_)}, so the functional equation is a genuine cross-check of
the cocycle identity e^{pi i Im H} = alpha. The lattice case defines the
multiplier by the coefficient quotient, as the functional equation there
demands; the tests then guard the implementation chain rather than a new
identity. Quotients and triple products are evaluated through complex
logarithms of the coefficients, since raw products underflow long before
the quotients become ill-defined.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import islice, product

import numpy as np

from .embedding import (
    _UNIT_ROUNDOFF,
    EmbeddingKind,
    EmbeddingMap,
    LatticeElement,
    _index_rows,
    _exponent_split,
    _paired_exponent,
    enumerate_indices,
    index_planes,
    lattice_element,
    point_parts,
)
from .errors import (
    InternalIdentityViolated,
    KindMismatch,
    TruncationTooSmall,
    UnsupportedVector,
)
from .heisenberg import ClosedFormVector, apply_pi
from .special import (
    HermitianFormContext,
    _cmul,
    gaussian_factor,
    gaussian_quadrature_oracle,
    gaussian_quadrature_oracle_2d,
    hermitian_form,
    hermitian_form_bound,
    jacobi_theta,
    mode_factor,
)
from .structures import ComplexStructure, theta_vector

REASSEMBLY_REL_TOL = 1e-12
COEFFICIENT_FLOOR = 1e-300
MAX_SERIALIZED_ELEMENTS = 256


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Outcome of one identity check: residuals against a tolerance.

    ``residuals`` holds every element as one float array; ``labels`` names
    the first MAX_SERIALIZED_ELEMENTS of them, the ones a report prints.
    """

    name: str
    labels: tuple[str, ...]
    residuals: np.ndarray
    max_residual: float
    tolerance: float
    passed: bool
    metadata: dict = field(default_factory=dict)

    @classmethod
    def build(cls, name: str, labels, residuals, tolerance: float, **metadata):
        residuals = np.asarray(residuals, dtype=np.float64)
        # np.max propagates NaN, so any NaN fails the check
        worst = float(np.max(residuals, initial=0.0))
        return cls(name, tuple(islice(labels, MAX_SERIALIZED_ELEMENTS)), residuals,
                   worst, float(tolerance), worst <= tolerance, metadata)


def _label(k) -> str:
    return ",".join(map(str, map(int, k)))


def inner_product_closed(f: ClosedFormVector, h: LatticeElement):
    """Closed form of <f, pi_h f> for a canonical theta vector, one value per point of h.

    Returns the leading shape of h: a complex for one index. Lattice kind:
    the two discrete mode factors times the Gaussian self-pairing of the
    continuous pair; vector-space kind: the Gaussian self-pairing of the
    full pair. Each factor runs once over all points.
    """
    if h.kind is not f.kind:
        raise KindMismatch("vector and element kinds differ")
    if (any(np.any(np.asarray(x) != 0) for x in (f.linear, f.n_shift, f.n_phase))
            or np.any(f.amplitude != 1.0)):
        raise UnsupportedVector("closed form requires the canonical theta vector")
    shape = h.k.shape[:-1]
    parts = tuple(part.reshape(-1, part.shape[-1]) for part in (h.m_part, h.dual_part))
    ctx = HermitianFormContext(f.quadratic)
    values = gaussian_factor(ctx, _continuous(len(ctx.T), parts))
    if f.kind is EmbeddingKind.LATTICE:
        values = _cmul(_mode_products(parts, 1.0 / f.decay), values)
    return complex(values[0]) if shape == () else values.reshape(shape)


def _discrete_cross_sum(decay: float, u_f, u_g, dv, tol: float) -> np.ndarray:
    """Brute-force sums over Z^2 of the discrete part of f conj(pi_h f), one per point.

    Point j, over the leading axes of u_g and dv (..., 2), sums
    e^{-pi decay (|n+u_f|^2 + |n+u_g[j]|^2)} e^{2 pi i dv[j] . n}
    on a window centered between the two shifts, with the window radius
    chosen so the neglected ring is provably below tol relative to the
    leading term; each point's boundary ring is checked after the fact as
    well.
    """
    u_f = np.asarray(u_f, dtype=float)
    u_g = np.asarray(u_g, dtype=float)
    center = np.round(-(u_f + u_g) / 2.0).astype(int)
    reach = math.ceil(math.sqrt(math.log(100.0 / tol) / (2.0 * math.pi * decay))) + 2
    offsets = np.arange(-reach, reach + 1)
    a = center[..., 0, None, None] + offsets[:, None]
    b = center[..., 1, None, None] + offsets
    expo = (-math.pi * decay * ((a + u_f[0]) ** 2 + (b + u_f[1]) ** 2
                                + (a + u_g[..., 0, None, None]) ** 2
                                + (b + u_g[..., 1, None, None]) ** 2)
            + 2j * math.pi * (dv[..., 0, None, None] * a + dv[..., 1, None, None] * b))
    terms = np.exp(expo)
    mags = np.abs(terms)
    peak = mags.max(axis=(-2, -1))
    ring = np.ones(mags.shape[-2:], dtype=bool)
    ring[1:-1, 1:-1] = False
    if np.any((peak > 0) & (mags[..., ring].max(axis=-1) > tol * peak / 10.0)):
        raise InternalIdentityViolated("discrete window too small for the requested tol")
    return terms.sum(axis=(-2, -1))


def inner_product_oracle(f: ClosedFormVector, h: LatticeElement, tol: float = 1e-10):
    """Brute-force <f, pi_h f>: operator layer + quadrature + direct sums.

    Returns the leading shape of h: a complex for one index. pi_h f is
    produced by the Heisenberg operator itself, over all points at once;
    the pointwise product f conj(pi_h f) is then integrated by the
    quarantined quadrature oracle (1d, or 2d tensorized) and summed directly
    over the discrete modes. Shares no closed-form helpers with
    :func:`inner_product_closed`.
    """
    if not isinstance(f, ClosedFormVector):
        raise UnsupportedVector("the oracle integrates closed-form vectors")
    g = apply_pi(h, f)
    amp = _cmul(f.amplitude, np.conj(g.amplitude))
    quad = f.quadratic - np.conj(g.quadratic)
    lin = 2.0 * (f.linear - np.conj(g.linear))
    if f.kind is EmbeddingKind.LATTICE:
        s_part = gaussian_quadrature_oracle(quad[0, 0], lin[..., 0], tol)
        n_part = _discrete_cross_sum(f.decay, f.n_shift, g.n_shift,
                                     np.subtract(f.n_phase, g.n_phase), tol)
        values = _cmul(_cmul(amp, s_part), n_part)
    else:
        values = _cmul(amp, gaussian_quadrature_oracle_2d(quad, lin, tol))
    return complex(values) if values.ndim == 0 else values


@dataclass(frozen=True, eq=False)
class QuantumThetaSeries:
    """Truncation of the quantum theta series for one embedding.

    ``values`` holds the algebra coefficient of every integer index with
    sup norm <= radius r, a ((2r+1)^4,) array in grid order: C(k) at the
    flat position p = sum_i (k_i + r) (2r+1)^(3-i), the last axis fastest,
    so C(0) is at the centre, C(-k) at the mirrored position, and point a
    of the (k1, k2) plane plus point b of the (k3, k4) plane at
    a (2r+1)^2 + b (:func:`index_planes`). The constructor refuses another
    shape. The series stores nothing else: ``indices``, the (N, 4) index
    rows in the same order (:func:`enumerate_indices`), is decoded on each
    read. ``coefficients`` is a read-only mapping view. ``normalization`` is
    the constant relating the self-pairing of the theta vector to the
    series. Series compare by identity.
    """

    embedding: EmbeddingMap
    structure: ComplexStructure
    radius: int
    normalization: float
    values: np.ndarray

    def __post_init__(self):
        count = (2 * self.radius + 1) ** 4
        if np.shape(self.values) != (count,):
            raise ValueError(f"values of shape {np.shape(self.values)} are not the"
                             f" ({count},) rows of radius {self.radius}")

    @property
    def kind(self) -> EmbeddingKind:
        return self.embedding.kind

    @property
    def coefficients(self) -> Mapping[tuple[int, int, int, int], complex]:
        return _CoefficientView(self)

    @property
    def indices(self) -> np.ndarray:
        """Index row of each value, (N, 4) int64."""
        return enumerate_indices(self.radius)

    def coefficient(self, k) -> complex:
        """C(k); KeyError when k has not four integral entries or lies outside the radius."""
        k = tuple(k)
        r = self.radius
        try:
            inside = len(k) == 4 and all(float(c).is_integer() and abs(c) <= r for c in k)
        except (TypeError, ValueError, OverflowError):
            # an entry that is no number, or an integer beyond the floats
            inside = False
        if not inside:
            raise KeyError(k)
        at = 0
        for c in k:
            at = at * (2 * r + 1) + int(c) + r
        return complex(self.values[at])


class _CoefficientView(Mapping):
    """Index tuple -> coefficient, over the values of a series, in grid order."""

    def __init__(self, series: QuantumThetaSeries):
        self._series = series

    def __getitem__(self, k) -> complex:
        return self._series.coefficient(k)

    def __len__(self) -> int:
        return len(self._series.values)

    def __iter__(self):
        r = self._series.radius
        return product(range(-r, r + 1), repeat=4)


def _stored_values(series: QuantumThetaSeries, ks) -> np.ndarray:
    """Stored coefficients at the rows of an (N, 4) index array, read at their
    grid positions.

    The range check comes first: an index outside the radius raises
    KeyError rather than wrapping round to another row of the table. The
    magnitudes are read as uint64, where |-2^63| does not wrap.
    """
    ks, r = _index_rows(ks), series.radius
    outside = np.abs(ks).view(np.uint64).max(axis=1, initial=0) > r
    if np.any(outside):
        raise KeyError(tuple(ks[np.argmax(outside)].tolist()))
    return series.values[np.ravel_multi_index(tuple((ks + r).T), (2 * r + 1,) * 4)]


def _continuous(d: int, parts):
    """The continuous pair of :func:`point_parts` output, on which H is defined:
    the first d coordinates of each part, (w1, w2) in the lattice kind."""
    m_part, dual_part = parts
    return m_part[..., :d], dual_part[..., :d]


def _mode_products(parts, theta2: float) -> np.ndarray:
    """Product of the two discrete mode factors of each row of lattice-kind
    :func:`point_parts`, from one :func:`mode_factor` call over the distinct
    (t, m) pairs of axis 0 followed by those of axis 1. The product is real,
    as each factor is: tau = 2i/theta2 is purely imaginary, so the theta
    terms pair off as complex conjugates (:func:`mode_factor`)."""
    m_part, dual_part = parts
    ts, ms, slots = [], [], []
    for axis in range(2):
        # Distinct (t, m) pairs under float equality, sorted by t then m,
        # each represented by its first row; m is an integer, exact as a float.
        t, m = dual_part[:, 1 + axis], m_part[:, 1 + axis]
        _, first, inverse = np.unique(t + 1j * m, return_index=True, return_inverse=True)
        slots.append(inverse + sum(map(len, ts)))
        ts.append(t[first])
        ms.append(m[first])
    factors = mode_factor(np.concatenate(ts), np.concatenate(ms), theta2)
    return np.ones(len(m_part)) * factors[slots[0]] * factors[slots[1]]


def _coefficient_parts(emb: EmbeddingMap, structure: ComplexStructure, ks):
    """Gaussian exponent and mode product of the series coefficient C(k).

    For each row k of an (N, 4) index array: the real exponent
    -(pi/2) H(k_, k_) and the real product of the two discrete mode factors
    (all ones for the vector-space kind), so that C(k) = site e^{expo}.
    """
    parts = point_parts(emb, ks)
    pair = _continuous(len(structure.T), parts)
    expo = -0.5 * math.pi * hermitian_form(HermitianFormContext(structure.T), pair, pair).real
    if emb.kind is EmbeddingKind.VECTOR_SPACE:
        return expo, np.ones(len(expo))
    return expo, _mode_products(parts, 1.0 / structure.lattice_decay)


def _log_translation(series: QuantumThetaSeries, kg, kh):
    """log C(g), log C(h), log C(g+h) and log T_g(h) of each pair of index rows.

    ``kg`` and ``kh`` are (..., 4) index arrays whose rows broadcast into
    pairs. Plane case: log T_g(h) = -pi H(g_, h_), independent of the
    coefficients. Lattice case: the quotient
    log C(g+h) - log C(g) - log C(h) - log alpha(g, h), with log alpha the
    paired exponent mod 2 times i pi: only ``exp`` reads the result, so a
    shift by 2 pi i n does not matter. The real mode product may be
    negative, so its logarithm is taken in the complex plane.
    """
    kg, kh = np.broadcast_arrays(_index_rows(kg), _index_rows(kh))
    emb = series.embedding
    expo, site = _coefficient_parts(emb, series.structure,
                                    np.concatenate([kg, kh, kg + kh]).reshape(-1, 4))
    if np.any(np.abs(site) < COEFFICIENT_FLOOR):
        raise InternalIdentityViolated(
            "vanishing mode product; translation quotient undefined")
    logs = expo + np.log(site.astype(complex))
    lg, lh, lgh = (part.reshape(kg.shape[:-1]) for part in np.split(logs, 3))
    if series.kind is EmbeddingKind.VECTOR_SPACE:
        lt = -math.pi * hermitian_form(HermitianFormContext(series.structure.T),
                                       point_parts(emb, kg), point_parts(emb, kh))
    else:
        lt = lgh - lg - lh - 1j * math.pi * _paired_exponent(emb, kg, kh)
    return lg, lh, lgh, lt


def _reassembly_failure(series: QuantumThetaSeries) -> str | None:
    """Label of the first index where the series misses its defining relation.

    For every index with sup norm <= min(radius, 2), normalization times
    the stored coefficient must reproduce the closed-form inner product;
    None when it does everywhere. The indices are read in grid order
    (:func:`enumerate_indices`), which fixes the label of the first failure.
    """
    ks = enumerate_indices(min(series.radius, 2))
    closed = inner_product_closed(theta_vector(series.structure),
                                  lattice_element(series.embedding, ks))
    assembled = series.normalization * _stored_values(series, ks)
    # fails closed: a NaN difference is not within the tolerance
    bad = ~(np.abs(assembled - closed) <= REASSEMBLY_REL_TOL * np.maximum(np.abs(closed), 1e-30))
    return _label(ks[np.argmax(bad)]) if bad.any() else None


def quantum_theta_series(emb: EmbeddingMap, structure: ComplexStructure,
                         radius: int = 4) -> QuantumThetaSeries:
    """Compute all series coefficients with index sup norm <= radius.

    The coefficients fill one array in grid order (:class:`QuantumThetaSeries`)
    from the two index planes: the lattice kind's as an outer product, the
    vector kind's as e^{-(pi/2) x} of an outer sum x (Re H per plane point plus
    the cross term of the two planes). On the way out,
    the defining relation is re-assembled: for every index with sup norm <=
    min(radius, 2), normalization times the coefficient must reproduce the
    closed-form inner product.
    """
    if radius < 1:
        raise ValueError("radius must be at least 1")
    if emb.kind is not structure.kind:
        raise KindMismatch("embedding and structure kinds differ")
    ctx = HermitianFormContext(structure.T)
    plane = (2 * radius + 1) ** 2
    (near, far), _ = index_planes(emb, radius)
    # real on both kinds; the complex values, imaginary part +0.0, are the table format
    if emb.kind is EmbeddingKind.LATTICE:
        # R x Z^2: the exponent reads (w1, w2), the image of (k1, k2), and the
        # mode product (m, t), the image of (k3, k4); each runs once per point
        # of its plane, and the table is their outer product
        pair = _continuous(len(ctx.T), point_parts(emb, near))
        expo = -0.5 * math.pi * hermitian_form(ctx, pair, pair).real
        site = _mode_products(point_parts(emb, far), 1.0 / structure.lattice_decay)
        values = np.empty(plane * plane, dtype=complex)
        np.multiply(np.exp(expo)[:, None], site[None, :], out=values.reshape(plane, plane))
    else:
        # k = a + b, a on the (k1, k2) plane and b on (k3, k4), and k_ is linear in
        # k: Re H(k_, k_) = Re H(a_, a_) + a^T (2 Re B) b + Re H(b_, b_), B the (k1, k2)
        # x (k3, k4) block of the basis form. H runs once per plane point, and the cross
        # term is summed elementwise, where a matmul would round with the table's size
        near_h, far_h = (hermitian_form(ctx, pair, pair).real
                         for pair in (point_parts(emb, near), point_parts(emb, far)))
        cross = 2.0 * _basis_form(emb, structure)[0][:2, 2:].real
        a, b = near[:, :2], far[:, 2:]
        ac = a[:, :1] * cross[0] + a[:, 1:] * cross[1]
        # in place: a fresh (2r+1)^4 array per step would grow the resident set
        expo = ac[:, :1] * b[:, 0]
        expo += ac[:, 1:] * b[:, 1]
        expo += near_h[:, None]
        expo += far_h
        expo *= -0.5 * math.pi
        values = np.exp(expo, out=expo).astype(complex).ravel()
    series = QuantumThetaSeries(emb, structure, radius, ctx.normalization(), values)
    bad = _reassembly_failure(series)
    if bad is not None:
        raise InternalIdentityViolated(
            f"series coefficient at {bad} does not reassemble the inner product")
    return series


def series_tail_bound(series: QuantumThetaSeries, radius: int | None = None) -> float:
    """Upper bound on the summed coefficient magnitudes beyond the radius.

    Coefficient magnitudes are dominated by e^{-E(k)} for an explicit
    positive quadratic form E; the bound sums shell counts against the
    smallest eigenvalue of E. Used to document the radius at which the
    truncation error is negligible.
    """
    r = series.radius if radius is None else radius
    emb = series.embedding
    # 0.5 pi Re H over the basis rows; k3 and k4 have no continuous part in
    # the lattice kind, which keeps the leading 2x2 block.
    form = 0.5 * math.pi * _basis_form(emb, series.structure)[0].real
    if emb.kind is EmbeddingKind.LATTICE:
        c = series.structure.lattice_decay
        disc = 0.5 * math.pi * c * (emb.m.T @ emb.m).astype(float)
        lam = min(np.linalg.eigvalsh(form[:2, :2]).min(), np.linalg.eigvalsh(disc).min())
        # mode-factor surplus: sum over one axis of e^{-2 pi c (n + phi)^2} <= theta(2ci)
        k_const = float(jacobi_theta(2j * c, 0.0).real) ** 2
    else:
        lam = float(np.linalg.eigvalsh(form).min())
        k_const = 1.0
    total = 0.0
    for shell in range(r + 1, r + 202):
        count = (2 * shell + 1) ** 4 - (2 * shell - 1) ** 4
        term = k_const * count * math.exp(-lam * shell * shell)
        total += term
        if term < 1e-30:
            break
    return total


def _basis_form(emb: EmbeddingMap, structure: ComplexStructure):
    """H on the continuous pairs p_i = (x1_i, x2_i) of the four basis rows, the
    4 x 4 complex matrix H(p_i, p_j), with its context and the pairs."""
    ctx = HermitianFormContext(structure.T)
    x1, x2 = _continuous(len(ctx.T), point_parts(emb, np.eye(4, dtype=np.int64)))
    return hermitian_form(ctx, (x1[:, None], x2[:, None]), (x1[None], x2[None])), ctx, (x1, x2)


def _phase_basis(emb: EmbeddingMap, structure: ComplexStructure):
    """Distance from 2Z of each entry of M - B, and the sums L and S that bound
    the rounding of the phase identity (:func:`phase_identity_max_residual`).

    M is Im H on the continuous pairs p_i = (x1_i, x2_i) of the four basis
    rows, B the basis exponent of :func:`_exponent_split`, read mod 2 as
    (R mod 2) + F, the B that alpha reads. L is the sum over i, j of
    Lambda_ij = :func:`hermitian_form_bound` (p_i, p_j) = G_i^T |W| G_j,
    W = (Im T)^{-1}, which bounds |Im H(p_i, p_j)|; the bound is additive,
    so L is one call on the summed magnitudes. S = sum |F_ij|.
    """
    form, ctx, (x1, x2) = _basis_form(emb, structure)
    m = form.imag
    parity, frac = _exponent_split(emb)
    diff = (m - frac) - parity
    total = (np.sum(np.abs(x1), axis=0), np.sum(np.abs(x2), axis=0))
    return (np.abs(diff - 2.0 * np.rint(diff / 2.0)),
            float(hermitian_form_bound(ctx, total, total)), float(np.sum(np.abs(frac))))


def _phase_basis_defect(emb: EmbeddingMap, structure: ComplexStructure):
    """Largest defect |e^{i pi M_ij} - e^{i pi B_ij}| = 2 |sin(pi dist_ij / 2)| of the
    phase identity at a basis pair (e_i, e_j), and that pair (1-based)."""
    dist = _phase_basis(emb, structure)[0]
    i, j = np.unravel_index(np.argmax(dist), dist.shape)
    return 2.0 * math.sin(0.5 * math.pi * float(dist[i, j])), (int(i) + 1, int(j) + 1)


def phase_identity_max_residual(emb: EmbeddingMap, structure: ComplexStructure,
                                radius: int = 2) -> float:
    """Certified bound on the worst defect of e^{pi i Im H(g_, h_)} = alpha(g, h)
    over all pairs of index rows of sup norm <= r = radius.

    This identity is what makes the plane-case functional equation hold
    with the independent translation multiplier; it fails for the lattice
    kind, where the pairing sees the discrete coordinates but the
    Hermitian form does not.

    Im H(k, k') = k^T M k' and alpha(k, k') = e^{i pi k^T B k'} are both
    bilinear in the index rows (:func:`_phase_basis`), so the identity holds
    on all of Z^4 x Z^4 exactly when every entry of M - B is an even integer.
    With N = rint((M - B) / 2) and dist_ij = |M_ij - B_ij - 2 N_ij| (the
    subtraction of 2 N_ij is exact, by Sterbenz's lemma), the pair (e_i, e_j)
    has the defect 2 |sin(pi dist_ij / 2)| (:func:`_phase_basis_defect`).

    A pair sweep would evaluate, at the rows k, k' of each pair, a = fl Im H
    of their :func:`point_parts` pairs and b = :func:`_paired_exponent`, and
    report fl |exp(i fl(pi) a) - exp(i fl(pi) b)|. This bounds that a
    priori, from r, D = sum dist_ij, L and S. With u the unit roundoff,
    gamma_n = n u / (1 - n u) (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 2-3), ||z||_1 = |Re z| + |Im z|, and |k|, |k'| <= r
    entrywise, so that sum_ij |k_i| |k'_j| c_ij <= r^2 sum_ij c_ij:

    * :func:`hermitian_form`, one einsum, at real pairs x, y rounds each entry
      of T x1 + x2 by gamma_3 in ||.||_1 (d <= 2 products (x_j + 0j) T_ij,
      each part rounded once, and d additions), each term (g_i (a_ij + 0j))
      h_j^* of its d^2-term sum by gamma_3 (a real and a complex product)
      and the sum by gamma_3: by 12 u G(x)^T |W| G(y) in all, to first order
      (:func:`hermitian_form_bound`). The basis pairs p_i are the columns
      of ``entries``, exactly, so M_ij is off by 12 u Lambda_ij from the
      exact Im H(p_i, p_j).
    * :func:`point_parts` sums at most four products per coordinate, off by
      gamma_4 sum_j |k_j| |p_j|. So a is off by (12 + 8) u r^2 L from the
      exact k^T M k', and M's own rounding adds 12 u r^2 L.
    * M - B rounds twice, by 2 u (|M_ij| + |F_ij| + 1), with |M_ij| <=
      Lambda_ij: |k^T (M - B - 2N) k'| <= r^2 (D + 2 u (L + S + 16)).
    * b is k^T B k' mod 2 up to u (1 + 9 r^2 S)
      (:func:`embedding.cocycle_identity_max_residual`).
    * fl(pi) and the product round each phase by 2 u pi |x|, with |a| <= r^2 L
      and |b| <= 1 + r^2 S.

    So, mod 2, a - b is within e = r^2 D + u (r^2 (36 L + 13 S + 32) + 3) of
    an even integer, and |e^{ix} - e^{iy}| <= |x - y| bounds the exact phases'
    distance by pi e. Each exp is within 2 u (cos and sin to one unit in the
    last place); the difference and its modulus round by a factor 1 + 3 u,
    and 3 u pi r^2 D <= 48 u pi r^2. The parts add up to

        pi r^2 (D + u (36 L + 13 S + 80)) + (3 pi + 4) u

    plus terms of order u^2. Evaluating pi r^2 (D + u (40 L + 16 S + 96))
    + 16 u leaves a surplus that covers those, and the factor 1 + 64 u
    covers the evaluation's own roundings, fewer than 64 on nonnegative
    numbers, each at most a factor 1 - u. The modulus is at most 2, so a
    bound of 2 or more (or NaN) reports 2: the result is never below what the
    sweep reports. At r >= 1 it is never below the witnessed basis defect
    either, since 2 |sin(pi x / 2)| <= pi x.
    """
    dist, lam, span = _phase_basis(emb, structure)
    u, r2 = _UNIT_ROUNDOFF, radius * radius
    worst = (math.pi * r2 * (float(np.sum(dist)) + u * (40 * lam + 16 * span + 96))
             + 16 * u) * (1 + 64 * u)
    return worst if worst < 2.0 else 2.0


def verify_functional_equation(series: QuantumThetaSeries, kg) -> VerificationReport:
    """Check that translating the series by the index kg reproduces it coefficientwise.

    The left side at index g+h is C(g) C(h) alpha(g, h) T_g(h); the right
    side is the stored coefficient. Only interior indices are compared, so
    truncation never masquerades as failure.
    """
    radius = series.radius
    kg = _index_rows(kg)
    g_norm = int(np.abs(kg).view(np.uint64).max())
    if g_norm > radius // 2:
        raise TruncationTooSmall(
            f"translation index norm {g_norm} exceeds radius/2 = {radius // 2}")
    tolerance = 1e-9 if series.kind is EmbeddingKind.VECTOR_SPACE else 1e-12
    interior = radius - g_norm

    # the h with |g + h| <= interior, g + h in grid order
    kh = enumerate_indices(interior) - kg
    lg, lh, _, lt = _log_translation(series, kg[None], kh)
    alpha = np.exp(1j * math.pi * _paired_exponent(series.embedding, kg, kh))
    lhs = np.exp(lg + lh + lt) * alpha
    ksum = kg + kh
    return VerificationReport.build(
        f"functional-equation g={_label(kg)}", map(_label, ksum),
        np.abs(lhs - _stored_values(series, ksum)), tolerance,
        radius=radius, interior=interior, kind=series.kind.value)


def verify_consistency_condition(series: QuantumThetaSeries, kg, kh) -> VerificationReport:
    """Check C(g+h) = C(g) C(h) T_g(h) alpha(g, h) for one pair of indices or rows of pairs.

    ``kg`` and ``kh`` are index rows of shape (4,) or (N, 4) that broadcast
    into pairs. alpha comes from the paired cocycle exponent, the translation
    from :func:`_log_translation`; the report holds a quotient residual per
    pair. In the plane case this is the nontrivial content of the
    functional equation and reduces to e^{pi i Im H(g_, h_)} = alpha(g, h),
    reported as a phase-identity residual per pair after the quotients.
    """
    vector = series.kind is EmbeddingKind.VECTOR_SPACE
    tolerance = 1e-10 if vector else 1e-12
    kg, kh = np.broadcast_arrays(*np.atleast_2d(kg, kh))
    alpha = np.exp(1j * math.pi * _paired_exponent(series.embedding, kg, kh))
    lg, lh, lgh, lt = _log_translation(series, kg, kh)
    defects = _cmul(np.exp(lg + lh + lt), alpha) - np.exp(lgh)
    names = ["quotient"]
    if vector:
        # the plane translation is log T_g(h) = -pi H(g_, h_)
        defects = np.concatenate([defects, np.exp(-1j * lt.imag) - alpha])
        names.append("phase-identity")
    labels = (f"{name} g={_label(g)} h={_label(h)}" for name in names for g, h in zip(kg, kh))
    return VerificationReport.build(
        "consistency", labels, np.hypot(defects.real, defects.imag), tolerance,
        pairs=len(kg), kind=series.kind.value)


def additivity_gap(series: QuantumThetaSeries, kg1, kg2, kh):
    """|T_{g1}(h) T_{g2}(h) / T_{g1+g2}(h) - 1|, the additivity defect of each triple.

    Three indices give a float, three (N, 4) index arrays the N gaps; the
    translations of all 3N pairs come from one :func:`_log_translation`
    call. Plane translations are additive because the Hermitian form is
    linear in its first slot; lattice translations are not, because the
    mode factors do not multiply exponentially.
    """
    lt = _log_translation(series, np.stack([kg1, kg2, np.add(kg1, kg2)]), kh)[3]
    gap = np.exp(lt[0] + lt[1] - lt[2]) - 1.0
    gap = np.hypot(gap.real, gap.imag)
    return float(gap) if gap.ndim == 0 else gap
