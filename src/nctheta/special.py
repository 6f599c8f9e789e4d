"""Scalar special functions: Jacobi theta, Hermitian forms, Gaussian integrals.

The quadrature routine at the bottom is a deliberately independent oracle.
It shares no closed-form helpers with ``gaussian_factor`` or ``mode_factor``
and must stay that way: the whole point of the inner-product verification
is that the two routes meet only at the defining integral.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DivergentIntegral,
    DivergentSeries,
    InternalIdentityViolated,
    NotPositive,
)

IDENTITY_ABS_TOL = 1e-12


def _compensated_sum(terms) -> complex:
    """Neumaier-compensated sum of complex terms, in the given order."""
    s = 0.0 + 0.0j
    c = 0.0 + 0.0j
    for t in terms:
        u = s + t
        if abs(u.real) >= abs(t.real):
            cr = (s.real - u.real) + t.real
        else:
            cr = (t.real - u.real) + s.real
        if abs(u.imag) >= abs(t.imag):
            ci = (s.imag - u.imag) + t.imag
        else:
            ci = (t.imag - u.imag) + s.imag
        c += complex(cr, ci)
        s = u
    return s + c


def theta_truncation(tau: complex, z: complex, tol: float) -> int:
    """Smallest symmetric cutoff N whose geometric tail bound is below tol.

    Terms of theta(tau, z) are bounded by u(n) = e^{-pi a n^2 + c n} with
    a = Im tau and c = 2 pi |Im z|. Past N the term ratio is at most
    rho = e^{-pi a (2N+3) + c}, so the two-sided tail is bounded by
    2 u(N+1) / (1 - rho) once rho < 1.
    """
    a = complex(tau).imag
    c = 2.0 * math.pi * abs(complex(z).imag)
    n = max(1, math.ceil(c / (2.0 * math.pi * a)))
    while True:
        rho_exp = -math.pi * a * (2 * n + 3) + c
        u_exp = -math.pi * a * (n + 1) ** 2 + c * (n + 1)
        if rho_exp < 0:
            rho = math.exp(rho_exp)
            bound = 2.0 * math.exp(min(u_exp, 700.0)) / (1.0 - rho)
            if bound < tol:
                return n
        n += 1
        if n > 10_000_000:
            raise DivergentSeries("theta truncation search did not terminate")


def jacobi_theta(tau: complex, z: complex = 0.0, tol: float = 1e-12,
                 with_meta: bool = False):
    """Classical theta function theta(tau, z) = sum_n e^{pi i tau n^2 + 2 pi i n z}.

    Truncated at the cutoff from :func:`theta_truncation`; terms are added
    in symmetric pairs (n, -n) of ascending |n| with compensated
    accumulation, so results are bit-reproducible. With ``with_meta`` the
    achieved cutoff is returned alongside the value.
    """
    tau = complex(tau)
    z = complex(z)
    if tau.imag <= 0:
        raise DivergentSeries("Im tau must be positive")
    n_max = theta_truncation(tau, z, tol)
    terms = [complex(1.0)]
    for n in range(1, n_max + 1):
        base = 1j * math.pi * tau * n * n
        terms.append(cmath.exp(base + 2j * math.pi * n * z))
        terms.append(cmath.exp(base - 2j * math.pi * n * z))
    value = _compensated_sum(terms)
    if with_meta:
        return value, n_max
    return value


@dataclass(frozen=True)
class HermitianFormContext:
    """Complex structure T (scalar or 2x2) with its cached (Im T)^{-1}.

    Scalar contexts serve the mixed embedding, matrix contexts the plane
    embedding. Im T must be positive (definite).
    """

    T: complex | np.ndarray
    im_inverse: float | np.ndarray = field(init=False)

    def __post_init__(self):
        if np.isscalar(self.T) or np.asarray(self.T).ndim == 0:
            t = complex(self.T)
            if t.imag <= 0:
                raise NotPositive("Im T must be positive")
            object.__setattr__(self, "T", t)
            object.__setattr__(self, "im_inverse", 1.0 / t.imag)
        else:
            t = np.asarray(self.T, dtype=complex)
            if t.shape != (2, 2):
                raise ValueError("matrix context requires a 2x2 complex structure")
            im = t.imag
            if not (np.linalg.eigvalsh(im) > 0).all():
                raise NotPositive("Im T must be positive definite")
            object.__setattr__(self, "T", t)
            object.__setattr__(self, "im_inverse", np.linalg.inv(im))

    @property
    def is_scalar(self) -> bool:
        return np.isscalar(self.T)

    def embed(self, pair):
        """Complex coordinate T x1 + x2 of a point (x1, x2) of M x M^."""
        x1, x2 = pair
        if self.is_scalar:
            return self.T * x1 + x2
        return np.asarray(self.T) @ np.asarray(x1, dtype=float) + np.asarray(x2, dtype=float)

    def embed_conj(self, pair):
        """Conjugate coordinate T* x1 + x2 (the conjugate of embed for real pairs)."""
        x1, x2 = pair
        if self.is_scalar:
            return self.T.conjugate() * x1 + x2
        return np.conj(np.asarray(self.T)) @ np.asarray(x1, dtype=float) + np.asarray(x2, dtype=float)

    def normalization(self) -> float:
        """Gaussian self-pairing constant: 1/sqrt(2 Im T), resp. 1/sqrt(2^2 det Im T)."""
        if self.is_scalar:
            return 1.0 / math.sqrt(2.0 * self.T.imag)
        return 1.0 / math.sqrt(4.0 * np.linalg.det(np.asarray(self.T).imag))


def hermitian_form(ctx: HermitianFormContext, g, h) -> complex:
    """Hermitian pairing H(g, h) = g_ ^t (Im T)^{-1} h_^* of two real pairs.

    ``g`` and ``h`` are (first, second) continuous components; g_ = T g1 + g2
    and h_^* = conj(T) h1 + h2.
    """
    gbar = ctx.embed(g)
    hstar = ctx.embed_conj(h)
    if ctx.is_scalar:
        return gbar * ctx.im_inverse * hstar
    return complex(gbar @ ctx.im_inverse @ hstar)


def _ctilde_minus_q_lambda(ctx: HermitianFormContext, w) -> complex:
    """Completed-square constant of the Gaussian self-pairing integrand.

    Writing the integrand as e^{-pi (q(s) + l(s) + C)} with
    q(s) = 2 (Im T) s^2, l(s) = 2 i w_^* s and C = i w1 w_^*, shifting by
    lambda = (i/2) (Im T)^{-1} w_^* turns the integral into a centered
    Gaussian times e^{-pi (C - q(lambda))}. Computed here from those
    definitions, independently of the Hermitian form.
    """
    w1, _ = w
    wstar = ctx.embed_conj(w)
    if ctx.is_scalar:
        lam = 0.5j * ctx.im_inverse * wstar
        q_lam = 2.0 * ctx.T.imag * lam * lam
        ctilde = 1j * w1 * wstar
        return ctilde - q_lam
    lam = 0.5j * (ctx.im_inverse @ wstar)
    q_lam = 2.0 * (lam @ np.asarray(ctx.T).imag @ lam)
    ctilde = 1j * (np.asarray(w1, dtype=float) @ wstar)
    return complex(ctilde - q_lam)


def gaussian_factor(ctx: HermitianFormContext, w) -> complex:
    """Gaussian self-pairing coefficient: normalization times e^{-(pi/2) H(w,w)}.

    The exponent is recomputed through the completed-square route and the
    two must agree to 1e-12; disagreement means an implementation bug, not
    a data problem.
    """
    h_val = hermitian_form(ctx, w, w)
    mirror = _ctilde_minus_q_lambda(ctx, w)
    if abs(mirror - 0.5 * h_val) > IDENTITY_ABS_TOL:
        raise InternalIdentityViolated(
            f"completed-square constant {mirror} != H/2 = {0.5 * h_val}")
    return ctx.normalization() * cmath.exp(-0.5 * math.pi * h_val)


def completed_square_defect(ctx: HermitianFormContext, w) -> float:
    """|C_w - q(lambda_w) - H(w, w)/2|: the computational lemma's defect.

    Zero in exact arithmetic; exposed so verification suites can measure
    the floating-point defect directly.
    """
    return abs(_ctilde_minus_q_lambda(ctx, w) - 0.5 * hermitian_form(ctx, w, w))


def mode_factor(t: float, m: int, theta2: float, tol: float = 1e-12) -> complex:
    """Per-axis discrete-mode factor of a lattice-kind inner product.

    e^{-(pi/theta2) m^2 - pi i m t} theta(2i/theta2, -t + i m/theta2),
    where t is the unreduced torus lift and m the integer shift.
    """
    if theta2 <= 0:
        raise NotPositive("theta2 must be positive")
    pref = cmath.exp(-math.pi / theta2 * m * m - 1j * math.pi * m * t)
    return pref * jacobi_theta(2j / theta2, complex(-t, m / theta2), tol)


def _decay_profile(im_q: np.ndarray, im_l: np.ndarray):
    """Center and half-width (per axis) of |integrand| = e^{-pi(s' Im q s + Im l . s + ...)}."""
    alpha = math.pi * im_q
    beta = math.pi * im_l
    center = np.linalg.solve(2.0 * alpha, -beta)
    lam_min = float(np.min(np.linalg.eigvalsh(alpha)))
    return center, lam_min


def gaussian_quadrature_oracle(quadratic: complex, linear: complex = 0.0,
                               constant: complex = 0.0, tol: float = 1e-10) -> complex:
    """Numerical integral of exp(pi i (q s^2 + l s)) exp(-pi c) over the line.

    Composite trapezoid on a symmetric window sized from the Gaussian tail
    bound, with grid doubling under Richardson control until successive
    refinements agree to tol relative to the integral of |integrand|.
    Purely numerical: no completed squares, no closed forms.
    """
    q = complex(quadratic)
    l = complex(linear)
    c = complex(constant)
    if q.imag <= 0:
        raise DivergentIntegral("Im(quadratic) must be positive for decay")
    alpha = math.pi * q.imag
    center = -math.pi * l.imag / (2.0 * alpha)
    # e^{-alpha (s - center)^2} tail below tol/20 of the peak, plus margin.
    half = abs(center) + math.sqrt((math.log(20.0 / tol) + 1.0) / alpha) + 2.0 / math.sqrt(alpha)
    const_factor = cmath.exp(-math.pi * c)

    def grid_sums(n: int):
        s = np.linspace(-half, half, n + 1)
        vals = np.exp(1j * math.pi * (q * s * s + l * s)) * const_factor
        h = 2.0 * half / n
        weights = np.full(n + 1, h)
        weights[0] = weights[-1] = 0.5 * h
        return complex(np.sum(weights * vals)), float(np.sum(weights * np.abs(vals)))

    n = 128
    prev, scale = grid_sums(n)
    for _ in range(14):
        n *= 2
        cur, scale = grid_sums(n)
        if abs(cur - prev) <= tol * max(scale, 1e-300):
            return cur
        prev = cur
    raise DivergentIntegral("quadrature did not reach the requested tolerance")


def gaussian_quadrature_oracle_2d(quadratic, linear, constant: complex = 0.0,
                                  tol: float = 1e-10) -> complex:
    """Plane analogue of the quadrature oracle, on a tensor-product grid.

    Integrates exp(pi i (s^t q s + l . s)) exp(-pi c) over R^2 for a 2x2
    complex ``quadratic`` with positive-definite imaginary part.
    """
    q = np.asarray(quadratic, dtype=complex)
    l = np.asarray(linear, dtype=complex)
    c = complex(constant)
    if q.shape != (2, 2):
        raise ValueError("quadratic must be 2x2")
    im_q = q.imag
    if not (np.linalg.eigvalsh(im_q) > 0).all():
        raise DivergentIntegral("Im(quadratic) must be positive definite")
    center, lam_min = _decay_profile(im_q, l.imag)
    reach = math.sqrt((math.log(20.0 / tol) + 1.0) / lam_min) + 2.0 / math.sqrt(lam_min)
    half = np.abs(center) + reach
    const_factor = cmath.exp(-math.pi * c)

    def grid_sums(n: int):
        s1 = np.linspace(-half[0], half[0], n + 1)
        s2 = np.linspace(-half[1], half[1], n + 1)
        a, b = np.meshgrid(s1, s2, indexing="ij", sparse=True)
        quad = q[0, 0] * a * a + (q[0, 1] + q[1, 0]) * a * b + q[1, 1] * b * b
        vals = np.exp(1j * math.pi * (quad + l[0] * a + l[1] * b)) * const_factor
        w1 = np.full(n + 1, 2.0 * half[0] / n)
        w1[0] = w1[-1] = 0.5 * w1[1]
        w2 = np.full(n + 1, 2.0 * half[1] / n)
        w2[0] = w2[-1] = 0.5 * w2[1]
        wgrid = np.outer(w1, w2)
        return complex(np.sum(wgrid * vals)), float(np.sum(wgrid * np.abs(vals)))

    n = 64
    prev, scale = grid_sums(n)
    for _ in range(8):
        n *= 2
        cur, scale = grid_sums(n)
        if abs(cur - prev) <= tol * max(scale, 1e-300):
            return cur
        prev = cur
    raise DivergentIntegral("2d quadrature did not reach the requested tolerance")
