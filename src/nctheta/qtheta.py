"""Algebra-valued inner products, quantum theta series and their identities.

The closed route computes series coefficients from the Hermitian-form
exponential (times the discrete mode factors in the lattice kind). The
oracle route in :func:`inner_product_oracle` recomputes single
coefficients by brute force, pushing the theta vector through the
operator layer and integrating numerically; it must never touch
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

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .embedding import (
    EmbeddingKind,
    EmbeddingMap,
    LatticeElement,
    _pairing_exponent_table,
    cocycle_phase,
    enumerate_indices,
    lattice_element,
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
    gaussian_factor,
    gaussian_quadrature_oracle,
    gaussian_quadrature_oracle_2d,
    jacobi_theta,
    mode_factor,
)
from .structures import ComplexStructure, MixedStructure, theta_vector

REASSEMBLY_REL_TOL = 1e-12
COEFFICIENT_FLOOR = 1e-300


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one identity check: labeled residuals against a tolerance."""

    name: str
    residuals: tuple[tuple[str, float], ...]
    max_residual: float
    tolerance: float
    passed: bool
    metadata: dict = field(default_factory=dict)

    @classmethod
    def build(cls, name: str, residuals, tolerance: float, **metadata):
        residuals = tuple((str(k), float(v)) for k, v in residuals)
        worst = max((v for _, v in residuals), default=0.0)
        return cls(name, residuals, worst, float(tolerance),
                   worst <= tolerance, metadata)


def structure_context(structure: ComplexStructure) -> HermitianFormContext:
    """Hermitian-form context matching a complex structure."""
    if isinstance(structure, MixedStructure):
        return HermitianFormContext(structure.T)
    return HermitianFormContext(structure.omega)


def _label(k) -> str:
    return ",".join(str(int(c)) for c in k)


def inner_product_closed(f: ClosedFormVector, h: LatticeElement,
                         tol: float = 1e-12) -> complex:
    """Closed form of <f, pi_h f> for a canonical theta vector.

    Lattice kind: the two discrete mode factors times the Gaussian
    self-pairing of the continuous pair. Vector-space kind: the Gaussian
    self-pairing of the full pair.
    """
    if f.kind is not h.kind:
        raise KindMismatch("vector and element kinds differ")
    if (np.any(np.asarray(f.linear) != 0) or f.amplitude != 1.0
            or f.n_shift != (0, 0) or f.n_phase != (0.0, 0.0)):
        raise UnsupportedVector("closed form requires the canonical theta vector")
    ctx = HermitianFormContext(f.quadratic)
    if h.kind is EmbeddingKind.LATTICE:
        theta2_eff = 1.0 / f.decay
        m1, m2 = h.m_shift
        t1, t2 = h.t_lift
        return (mode_factor(t1, m1, theta2_eff, tol)
                * mode_factor(t2, m2, theta2_eff, tol)
                * gaussian_factor(ctx, (h.w1, h.w2)))
    return gaussian_factor(ctx, (h.m_part, h.dual_part))


def _discrete_cross_sum(decay: float, u_f, u_g, dv, tol: float) -> complex:
    """Brute-force sum over Z^2 of the discrete part of f conj(pi_h f).

    Terms e^{-pi decay (|n+u_f|^2 + |n+u_g|^2)} e^{2 pi i dv . n} on a
    window centered between the two shifts, with the window radius chosen
    so the neglected ring is provably below tol relative to the leading
    term; the boundary ring is checked after the fact as well.
    """
    u_f = np.asarray(u_f, dtype=float)
    u_g = np.asarray(u_g, dtype=float)
    center = np.round(-(u_f + u_g) / 2.0).astype(int)
    reach = math.ceil(math.sqrt(math.log(100.0 / tol) / (2.0 * math.pi * decay))) + 2
    n1 = center[0] + np.arange(-reach, reach + 1)
    n2 = center[1] + np.arange(-reach, reach + 1)
    a, b = np.meshgrid(n1, n2, indexing="ij")
    expo = (-math.pi * decay * ((a + u_f[0]) ** 2 + (b + u_f[1]) ** 2
                                + (a + u_g[0]) ** 2 + (b + u_g[1]) ** 2)
            + 2j * math.pi * (dv[0] * a + dv[1] * b))
    terms = np.exp(expo)
    mags = np.abs(terms)
    interior_max = float(mags.max())
    ring = np.ones_like(mags, dtype=bool)
    ring[1:-1, 1:-1] = False
    if interior_max > 0 and float(mags[ring].max()) > tol * interior_max / 10.0:
        raise InternalIdentityViolated("discrete window too small for the requested tol")
    return complex(terms.sum())


def inner_product_oracle(f: ClosedFormVector, h: LatticeElement,
                         tol: float = 1e-10) -> complex:
    """Brute-force <f, pi_h f>: operator layer + quadrature + direct sums.

    pi_h f is produced by the Heisenberg operator itself; the pointwise
    product f conj(pi_h f) is then integrated by the quarantined
    quadrature oracle (1d, or 2d tensorized) and summed directly over the
    discrete modes. Shares no closed-form helpers with
    :func:`inner_product_closed`.
    """
    if not isinstance(f, ClosedFormVector):
        raise UnsupportedVector("the oracle integrates closed-form vectors")
    g = apply_pi(h, f)
    amp = f.amplitude * np.conj(g.amplitude)
    if f.kind is EmbeddingKind.LATTICE:
        quad = f.quadratic - np.conj(g.quadratic)
        lin = 2.0 * (f.linear - np.conj(g.linear))
        s_part = gaussian_quadrature_oracle(quad, lin, 0.0, tol)
        dv = (f.n_phase[0] - g.n_phase[0], f.n_phase[1] - g.n_phase[1])
        n_part = _discrete_cross_sum(f.decay, f.n_shift, g.n_shift, dv, tol)
        return complex(amp * s_part * n_part)
    quad = np.asarray(f.quadratic) - np.conj(np.asarray(g.quadratic))
    lin = 2.0 * (np.asarray(f.linear, dtype=complex) - np.conj(np.asarray(g.linear, dtype=complex)))
    return complex(amp * gaussian_quadrature_oracle_2d(quad, lin, 0.0, tol))


@dataclass(frozen=True)
class QuantumThetaSeries:
    """Truncation of the quantum theta series for one embedding.

    ``coefficients`` maps integer indices to the algebra coefficients;
    ``normalization`` is the constant relating the self-pairing of the
    theta vector to the series.
    """

    embedding: EmbeddingMap
    structure: ComplexStructure
    radius: int
    normalization: float
    coefficients: dict[tuple[int, int, int, int], complex]

    @property
    def kind(self) -> EmbeddingKind:
        return self.embedding.kind

    def context(self) -> HermitianFormContext:
        return structure_context(self.structure)

    def coefficient(self, k) -> complex:
        return self.coefficients[tuple(int(c) for c in k)]

    def element(self, k) -> LatticeElement:
        return lattice_element(self.embedding, k)


def _cmul(a, b) -> np.ndarray:
    """Elementwise complex product in the operation order of Python's complex
    type; numpy's own loop may fuse multiply-adds, and the coefficients must
    equal the scalar products bit for bit."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _ambient(emb: EmbeddingMap, ks) -> np.ndarray:
    """Ambient coordinates of each row of an index array, laid out as ``entries``."""
    return np.asarray(ks, dtype=np.int64).astype(float) @ emb.entries.T


def _hermitian_rows(ctx: HermitianFormContext, amb_g, amb_h) -> np.ndarray:
    """H(g_, h_) over broadcast rows of ambient coordinates.

    g_ = T g1 + g2 for the continuous pair (g1, g2): (w1, w2) in the
    lattice kind, the M and dual blocks in the vector-space kind.
    """
    def embed(amb):
        if ctx.is_scalar:
            return ctx.T * amb[..., 0] + amb[..., 3]
        return amb[..., :2] @ ctx.T.T + amb[..., 2:]

    gbar, hstar = embed(amb_g), np.conj(embed(amb_h))
    if ctx.is_scalar:
        return gbar * hstar * ctx.im_inverse
    return np.einsum("...i,ij,...j->...", gbar, ctx.im_inverse, hstar)


def _coefficient_parts(emb: EmbeddingMap, structure: ComplexStructure, ks):
    """Gaussian exponent and mode product of the series coefficient C(k).

    For each row k of an (N, 4) index array: the real exponent
    -(pi/2) H(k_, k_) and the product of the two discrete mode factors
    (all ones for the vector-space kind), so that C(k) = site e^{expo}.
    The mode factors depend on (k3, k4) only, and :func:`mode_factor` runs
    once per distinct (t, m) pair per axis.
    """
    ks = np.asarray(ks, dtype=np.int64)
    amb = _ambient(emb, ks)
    expo = -0.5 * math.pi * _hermitian_rows(structure_context(structure), amb, amb).real
    site = np.ones(len(ks), dtype=complex)
    if emb.kind is EmbeddingKind.LATTICE:
        theta2_eff = 1.0 / structure.lattice_decay
        m_parts = ks[:, 2:] @ emb.m.T
        for axis in range(2):
            pairs = np.stack([amb[:, 4 + axis], m_parts[:, axis]], axis=1)
            _, first, inverse = np.unique(pairs, axis=0, return_index=True,
                                          return_inverse=True)
            factors = np.array([mode_factor(t, int(m), theta2_eff)
                                for t, m in pairs[first]], dtype=complex)
            site = _cmul(site, factors[inverse.reshape(-1)])
    return expo, site


def _log_translation(series: QuantumThetaSeries, kg, kh):
    """Row-wise log C(g), log C(h), log C(g+h) and log T_g(h).

    ``kg`` and ``kh`` are index arrays of which at least one has a single
    row. Plane case: log T_g(h) = -pi H(g_, h_), independent of the
    coefficients. Lattice case: the quotient
    log C(g+h) - log C(g) - log C(h) - log alpha(g, h), with the unreduced
    cocycle logarithm i pi (<g1, h2> - <h1, g2>).
    """
    kg = np.asarray(kg, dtype=np.int64)
    kh = np.asarray(kh, dtype=np.int64)
    emb = series.embedding
    expo, site = _coefficient_parts(emb, series.structure,
                                    np.concatenate([*np.broadcast_arrays(kg, kh), kg + kh]))
    if np.any(np.abs(site) < COEFFICIENT_FLOOR):
        raise InternalIdentityViolated(
            "vanishing mode product; translation quotient undefined")
    lg, lh, lgh = np.split(expo + np.log(site), 3)
    if series.kind is EmbeddingKind.VECTOR_SPACE:
        lt = -math.pi * _hermitian_rows(series.context(), _ambient(emb, kg),
                                        _ambient(emb, kh))
    else:
        lt = lgh - lg - lh - 1j * math.pi * _pairing_exponent_table(emb, kg, kh).ravel()
    return lg, lh, lgh, lt


def _index_tuples(ks):
    """The rows of an (N, 4) index array as tuples of ints, one at a time."""
    return zip(*np.asarray(ks).T.tolist())


def _stored_values(series: QuantumThetaSeries, ks) -> np.ndarray:
    """Stored coefficients at the rows of an (N, 4) index array."""
    return np.array([series.coefficients[k] for k in _index_tuples(ks)], dtype=complex)


def c_factor(series: QuantumThetaSeries, g: LatticeElement) -> complex:
    """Translation coefficient of the functional equation at g.

    Plane case: e^{-(pi/2) H(g_, g_)}. Lattice case: the discrete mode
    product times the continuous Gaussian exponential, identical to the
    series coefficient at g.
    """
    expo, site = _coefficient_parts(series.embedding, series.structure, [g.k])
    return complex(_cmul(site, np.exp(expo))[0])


def translation_factor(series: QuantumThetaSeries, g: LatticeElement,
                       h: LatticeElement) -> complex:
    """Multiplier of the quantum translation by g on the basis element at h.

    Plane case: the independent exponential e^{-pi H(g_, h_)}. Lattice
    case: the coefficient quotient C(g+h) / (C(g) C(h) alpha(g, h)).
    """
    return complex(np.exp(_log_translation(series, [g.k], [h.k])[3][0]))


def basis_multiply(k1, k2, emb: EmbeddingMap):
    """Product of two algebra basis elements: cocycle phase and index sum."""
    k1 = np.asarray(k1, dtype=np.int64)
    k2 = np.asarray(k2, dtype=np.int64)
    phase = cocycle_phase(lattice_element(emb, k1), lattice_element(emb, k2))
    return phase, tuple(int(c) for c in (k1 + k2))


def _reassembly_failure(series: QuantumThetaSeries) -> str | None:
    """Label of the first index where the series misses its defining relation.

    For every index with sup norm <= min(radius, 2), normalization times
    the stored coefficient must reproduce the closed-form inner product;
    None when it does everywhere.
    """
    f = theta_vector(series.structure)
    for k in enumerate_indices(min(series.radius, 2)):
        closed = inner_product_closed(f, lattice_element(series.embedding, k))
        assembled = series.normalization * series.coefficient(k)
        if abs(assembled - closed) > REASSEMBLY_REL_TOL * max(abs(closed), 1e-30):
            return _label(k)
    return None


def quantum_theta_series(emb: EmbeddingMap, structure: ComplexStructure,
                         radius: int = 4) -> QuantumThetaSeries:
    """Compute all series coefficients with index sup norm <= radius.

    On the way out, the defining relation is re-assembled: for every index
    with sup norm <= min(radius, 2), normalization times the coefficient
    must reproduce the closed-form inner product.
    """
    if radius < 1:
        raise ValueError("radius must be at least 1")
    if emb.kind is not structure.kind:
        raise KindMismatch("embedding and structure kinds differ")
    ks = enumerate_indices(radius)
    expo, site = _coefficient_parts(emb, structure, ks)
    coeffs = dict(zip(_index_tuples(ks), _cmul(site, np.exp(expo)).tolist()))
    series = QuantumThetaSeries(emb, structure, radius,
                                structure_context(structure).normalization(), coeffs)
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
    ctx = series.context()
    if emb.kind is EmbeddingKind.LATTICE:
        t = ctx.T
        p = np.array([emb.theta1 * t, 1.0], dtype=complex)
        cont = 0.5 * math.pi * ctx.im_inverse * np.outer(np.conj(p), p).real
        c = series.structure.lattice_decay
        mtm = (emb.m.T @ emb.m).astype(float)
        disc = 0.5 * math.pi * c * mtm
        lam = min(np.linalg.eigvalsh(cont).min(), np.linalg.eigvalsh(disc).min())
        # mode-factor surplus: sum over one axis of e^{-2 pi c (n + phi)^2} <= theta(2ci)
        k_const = float(jacobi_theta(2j * c, 0.0).real) ** 2
    else:
        om = np.asarray(ctx.T)
        p = np.zeros((2, 4), dtype=complex)
        p[:, 0] = om[:, 0] * emb.theta1
        p[:, 2] = om[:, 1] * emb.theta2
        p[0, 1] = 1.0
        p[1, 3] = 1.0
        form = 0.5 * math.pi * (p.conj().T @ ctx.im_inverse @ p).real
        lam = float(np.linalg.eigvalsh(form).min())
        k_const = 1.0
    total = 0.0
    shell = r + 1
    while True:
        count = (2 * shell + 1) ** 4 - (2 * shell - 1) ** 4
        term = k_const * count * math.exp(-lam * shell * shell)
        total += term
        if term < 1e-30 or shell > r + 200:
            break
        shell += 1
    return total


def phase_identity_max_residual(emb: EmbeddingMap, structure: ComplexStructure,
                                radius: int = 2) -> float:
    """Worst defect of e^{pi i Im H(g_, h_)} = alpha(g, h) over all pairs.

    This identity is what makes the plane-case functional equation hold
    with the independent translation multiplier; it fails for the lattice
    kind, where the pairing sees the discrete coordinates but the
    Hermitian form does not.
    """
    ks = enumerate_indices(radius)
    amb = _ambient(emb, ks)
    h_mat = _hermitian_rows(structure_context(structure), amb[:, None], amb[None, :])
    expo = _pairing_exponent_table(emb, ks, ks)
    return float(np.max(np.abs(np.exp(1j * math.pi * h_mat.imag) - np.exp(1j * math.pi * expo))))


def verify_functional_equation(series: QuantumThetaSeries, g: LatticeElement,
                               tolerance: float | None = None) -> VerificationReport:
    """Check that translating the series by g reproduces it coefficientwise.

    The left side at index g+h is C(g) C(h) alpha(g, h) T_g(h); the right
    side is the stored coefficient. Only interior indices are compared, so
    truncation never masquerades as failure.
    """
    radius = series.radius
    kg = np.asarray(g.k, dtype=np.int64)
    g_norm = int(np.max(np.abs(kg)))
    if g_norm > radius // 2:
        raise TruncationTooSmall(
            f"translation index norm {g_norm} exceeds radius/2 = {radius // 2}")
    if tolerance is None:
        tolerance = 1e-9 if series.kind is EmbeddingKind.VECTOR_SPACE else 1e-12
    interior = radius - g_norm

    ks = enumerate_indices(radius)
    kh = ks[np.max(np.abs(kg + ks), axis=1) <= interior]
    lg, lh, _, lt = _log_translation(series, kg[None], kh)
    alpha = np.exp(1j * math.pi * _pairing_exponent_table(series.embedding, kg[None], kh)[0])
    lhs = np.exp(lg + lh + lt) * alpha
    ksum = kg + kh
    residuals = zip(map(_label, ksum.tolist()), np.abs(lhs - _stored_values(series, ksum)))
    return VerificationReport.build(
        f"functional-equation g={_label(kg)}", residuals, tolerance,
        radius=radius, interior=interior, kind=series.kind.value)


def verify_consistency_condition(series: QuantumThetaSeries, g: LatticeElement,
                                 h: LatticeElement,
                                 tolerance: float | None = None) -> VerificationReport:
    """Check C(g+h) = C(g) C(h) T_g(h) alpha(g, h) for one pair.

    In the plane case this is the nontrivial content of the functional
    equation and reduces to e^{pi i Im H(g_, h_)} = alpha(g, h), which is
    reported as a second labeled residual.
    """
    if tolerance is None:
        tolerance = 1e-10 if series.kind is EmbeddingKind.VECTOR_SPACE else 1e-12
    alpha = cocycle_phase(g, h)
    lg, lh, lgh, lt = _log_translation(series, [g.k], [h.k])
    residuals = [("quotient", abs(cmath.exp(lg[0] + lh[0] + lt[0]) * alpha
                                  - cmath.exp(lgh[0])))]
    if series.kind is EmbeddingKind.VECTOR_SPACE:
        emb = series.embedding
        h_gh = _hermitian_rows(series.context(), _ambient(emb, g.k), _ambient(emb, h.k))
        residuals.append(("phase-identity",
                          abs(cmath.exp(1j * math.pi * h_gh.imag) - alpha)))
    return VerificationReport.build(
        f"consistency g={_label(g.k)} h={_label(h.k)}", residuals, tolerance,
        kind=series.kind.value)


def additivity_gap(series: QuantumThetaSeries, g1: LatticeElement,
                   g2: LatticeElement, h: LatticeElement) -> float:
    """|T_{g1}(h) T_{g2}(h) / T_{g1+g2}(h) - 1|, the additivity defect.

    Plane translations are additive because the Hermitian form is linear
    in its first slot; lattice translations are not, because the mode
    factors do not multiply exponentially.
    """
    kgs = [g1.k, g2.k, np.add(g1.k, g2.k)]
    lt = _log_translation(series, kgs, [h.k])[3]
    return abs(cmath.exp(lt[0] + lt[1] - lt[2]) - 1.0)
