"""Special functions: Jacobi theta, the Hermitian form over rows, Gaussian integrals.

The quadrature routines at the bottom are deliberately independent oracles.
They share no closed-form helpers with ``gaussian_factor`` or ``mode_factor``
and must stay that way: the whole point of the inner-product verification
is that the two routes meet only at the defining integral.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DivergentIntegral,
    DivergentSeries,
    InternalIdentityViolated,
    NotPositive,
)

IDENTITY_ABS_TOL = 1e-12


def _cmul(a, b) -> np.ndarray:
    """Elementwise complex product in the operation order of Python's complex
    type; numpy's own loop may fuse multiply-adds, and array results must
    equal the scalar products bit for bit."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


# past log(DBL_MAX / 4), CPython's cmath.exp forms e^x as e^{x - 1} e
_CMATH_EXP_SCALED = math.log(sys.float_info.max / 4.0)


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


def jacobi_theta(tau: complex, z=0.0, tol: float = 1e-12):
    """Classical theta function theta(tau, z) = sum_n e^{pi i tau n^2 + 2 pi i n z}.

    Each element of ``z`` is a row; a scalar ``z`` returns a complex. Row z
    is cut at N(z) (:func:`theta_truncation`, once per distinct |Im z|); its
    terms 1, then n and -n for n = 1..N, equal cmath.exp of the exponents
    Python's complex type forms, and a Neumaier sum adds them in that
    order. The rows of a block are summed together. Past its cutoff a row
    adds +0.0, a no-op: x + y is -0.0 only when both are, so the sum s and
    the compensation c, from +0.0, never are; s + 0.0 = s and the correction
    (s - s) + 0.0 is +0.0. An overflowing term raises DivergentSeries
    naming the first such row and its smallest n, before any inf is summed.
    """
    tau = complex(tau)
    if tau.imag <= 0:
        raise DivergentSeries("Im tau must be positive")
    z = np.asarray(z, dtype=complex)
    zf = z.ravel()
    heights = np.abs(zf.imag).tolist()
    cut = {h: theta_truncation(tau, complex(0.0, h), tol) for h in set(heights)}
    cuts = np.array([cut[h] for h in heights], dtype=int)
    n_max = int(cuts.max(initial=0))
    # per n, the Python scalars pi i tau n^2 and 2 pi i n, as columns (n, 1)
    base, w = np.array([(1j * math.pi * tau * n * n, 2j * math.pi * n)
                        for n in range(1, n_max + 1)], dtype=complex).reshape(-1, 2).T[..., None]
    out = np.empty(len(zf), dtype=complex)
    step = max(1, 8000 // (2 * n_max + 1))  # a block's arrays under 128 KiB: malloc's heap
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(zf), step):
            rows = slice(start, start + step)
            wz = _cmul(w, zf[rows])
            arg = np.stack([base + wz, base - wz], axis=1)  # (n, sign, row)
            live = np.arange(1, n_max + 1)[:, None, None] <= cuts[rows]
            terms = np.where(live, np.exp(arg), 0.0)
            scaled = live & (arg.real > _CMATH_EXP_SCALED)
            # row by row, n ascending: the first overflow met is the one to name
            hits = np.argwhere(scaled.transpose(2, 0, 1)).tolist() if scaled.any() else ()
            for row, n, sign in hits:
                try:
                    terms[n, sign, row] = cmath.exp(arg[n, sign, row])
                except OverflowError:
                    raise DivergentSeries(f"theta term n = {n + 1} overflows at tau = {tau!r}, "
                                          f"z = {complex(zf[start + row])!r}") from None
            # real and imaginary parts interleaved, from the 1 + 0j of n = 0
            s, c = np.tile([1.0, 0.0], wz.shape[1]), np.zeros(2 * wz.shape[1])
            for t in terms.reshape(2 * n_max, -1).view(float):
                u = s + t
                c += np.where(np.abs(u) >= np.abs(t), (s - u) + t, (t - u) + s)
                s = u
            out[rows] = (s + c).view(complex)
    out = out.reshape(z.shape)
    return complex(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class HermitianFormContext:
    """Complex structure T, a d x d matrix with Im T positive definite, and (Im T)^{-1}.

    d = 1 serves the mixed embedding, whose scalar T is taken as 1 x 1, and
    d = 2 the plane embedding; points are rows of shape (..., d).
    """

    T: np.ndarray
    im_inverse: np.ndarray = field(init=False)

    def __post_init__(self):
        t = np.atleast_2d(np.asarray(self.T, dtype=complex))
        if t.shape not in ((1, 1), (2, 2)):
            raise ValueError("the complex structure must be 1x1 or 2x2")
        # eigvalsh reads one triangle only, so it gets the symmetric part;
        # that of a symmetric Im T is Im T itself, bit for bit
        if not (np.linalg.eigvalsh((t.imag + t.imag.T) / 2) > 0).all():
            raise NotPositive("Im T must be positive definite")
        object.__setattr__(self, "T", t)
        object.__setattr__(self, "im_inverse", np.linalg.inv(t.imag))

    def embed(self, pair) -> np.ndarray:
        """T x1 + x2 of (x1, x2) rows (..., d) of M x M^, as one complex array (..., d):
        in numpy's complex arithmetic, (x1_j + 0j) T_ij summed over j ascending, then x2.
        Each row is formed on its own, so its bits do not depend on the rows beside it."""
        x1 = np.asarray(pair[0], dtype=float)
        columns = (x1[..., j:j + 1] * self.T[:, j] for j in range(1, len(self.T)))
        return sum(columns, x1[..., :1] * self.T[:, 0]) + np.asarray(pair[1], dtype=float)

    def normalization(self) -> float:
        """Gaussian self-pairing constant 1/sqrt(2^d det Im T)."""
        return 1.0 / math.sqrt(2.0 ** len(self.T) * np.linalg.det(self.T.imag))


def hermitian_form(ctx: HermitianFormContext, g, h) -> np.ndarray:
    """Hermitian pairing H(g, h) = g_ ^t (Im T)^{-1} h_^* of real pairs, over rows.

    ``g`` and ``h`` are (first, second) pairs of rows (..., d) that broadcast,
    with g_ = T g1 + g2 and h_^* = conj(T h1 + h2) (:meth:`HermitianFormContext.embed`).
    One einsum, so a pair's value has the same bits alone, among rows, in a
    table or broadcast. A self-pairing, ``h is g``, embeds once.
    """
    gbar = ctx.embed(g)
    hbar = gbar if h is g else ctx.embed(h)
    return np.einsum("...i,ij,...j->...", gbar, ctx.im_inverse, hbar.conjugate())


def hermitian_form_bound(ctx: HermitianFormContext, g, h) -> np.ndarray:
    """G(g)^T |(Im T)^{-1}| G(h) of real pairs, over rows, with
    G(x) = |T|_1 |x1| + |x2| and |T|_1 = |Re T| + |Im T|.

    G(x) bounds |Re| + |Im| of each entry of T x1 + x2, so the result bounds
    |H(g, h)|, and it is additive in |g| and |h|.
    """
    t = np.abs(ctx.T.real) + np.abs(ctx.T.imag)
    gg, hh = (np.abs(x[0]) @ t.T + np.abs(x[1]) for x in (g, h))
    return np.einsum("...i,ij,...j->...", gg, np.abs(ctx.im_inverse), hh)


def _ctilde_minus_q_lambda(ctx: HermitianFormContext, w):
    """Completed-square constant of the Gaussian self-pairing integrand, over rows of w.

    Writing the integrand as e^{-pi (q(s) + l(s) + C)} with
    q(s) = 2 s^t (Im T) s, l(s) = 2 i w_^* . s and C = i w1 . w_^*,
    shifting by lambda = (i/2) (Im T)^{-1} w_^* turns the integral into a
    centered Gaussian times e^{-pi (C - q(lambda))}. Computed here from
    those definitions, independently of the Hermitian form.
    """
    w1, _ = w
    wstar = ctx.embed(w).conjugate()
    lam = 0.5j * np.einsum("ij,...j->...i", ctx.im_inverse, wstar)
    q_lam = 2.0 * np.einsum("...i,ij,...j->...", lam, ctx.T.imag, lam)
    ctilde = 1j * np.einsum("...i,...i->...", np.asarray(w1, dtype=float), wstar)
    return ctilde - q_lam


def gaussian_factor(ctx: HermitianFormContext, w):
    """Gaussian self-pairing coefficient: normalization times e^{-(pi/2) H(w,w)}.

    ``w`` is a pair (w1, w2) over rows. The exponent is recomputed through
    the completed-square route and must agree to 1e-12 on every row;
    disagreement means an implementation bug, not a data problem.
    """
    defect = np.ravel(completed_square_defect(ctx, w))
    bad = np.flatnonzero(defect > IDENTITY_ABS_TOL)
    if bad.size:
        raise InternalIdentityViolated(
            f"completed-square constant misses H/2 by {defect[bad[0]]} at row {bad[0]}")
    return ctx.normalization() * np.exp(-0.5 * math.pi * hermitian_form(ctx, w, w))


def completed_square_defect(ctx: HermitianFormContext, w):
    """|C_w - q(lambda_w) - H(w, w)/2| over rows of w: the computational lemma's defect.

    Zero in exact arithmetic; exposed so verification suites can measure
    the floating-point defect directly.
    """
    return np.abs(_ctilde_minus_q_lambda(ctx, w) - 0.5 * hermitian_form(ctx, w, w))


def mode_factor(t, m, theta2: float):
    """Per-axis discrete-mode factor of a lattice-kind inner product.

    mu(t, m) = e^{-(pi/theta2) m^2 - pi i m t} theta(2i/theta2, -t + i m/theta2),
    where t is the unreduced torus lift and m the integer shift, over pairs
    that broadcast, in one :func:`jacobi_theta` call. mu is real, and this
    returns the real part of the product as Python's complex type forms it,
    a float for one pair. Term n of the theta sum times the prefactor is
    e^{-(pi/theta2)(n^2 + (n+m)^2)} e^{-pi i (2n+m) t}; n -> -(n+m) keeps
    n^2 + (n+m)^2 and negates 2n + m, so the terms pair off as complex
    conjugates (Mumford, *Tata Lectures on Theta I*, ch. I), and the
    imaginary part of the product is rounding.
    """
    if theta2 <= 0:
        raise NotPositive("theta2 must be positive")
    t, m = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(m, dtype=float))
    # the exponent's real part is at most 0, where np.exp is cmath.exp bit for bit
    pref = np.exp(-math.pi / theta2 * m * m - _cmul(_cmul(1j * math.pi, m), t))
    z = np.array(-t, dtype=complex)  # -t + i m/theta2, each part kept bit for bit
    z.imag = m / theta2
    theta = jacobi_theta(2j / theta2, z)
    value = pref.real * theta.real - pref.imag * theta.imag
    return float(value) if value.ndim == 0 else value


def gaussian_quadrature_oracle(quadratic, linear=0.0, tol: float = 1e-10):
    """Trapezoid integrals of exp(pi i (q s^2 + l s)) over the line, one per row.

    The arguments broadcast, and each element of the broadcast shape is a
    row; scalar arguments return a complex. Each row gets a symmetric
    window sized from its Gaussian tail bound and a composite trapezoid
    rule whose grid doubles from n = 128 until two successive levels agree
    to ``tol`` relative to the integral of |integrand|; a row keeps the
    value of the first level where it converges. The stopping rule is
    a-posteriori on purpose: a step size read off the Gaussian's Fourier
    transform would borrow the closed form this oracle is there to check.
    Purely numerical: no completed squares, no closed forms. Rows are
    computed together, with the same floating-point operations as a single
    row on its own.
    """
    q, l = np.broadcast_arrays(np.asarray(quadratic, dtype=complex),
                               np.asarray(linear, dtype=complex))
    shape = q.shape
    q, l = q.reshape(-1, 1), l.reshape(-1, 1)
    if not tol >= 2.0 ** -52:
        raise DivergentIntegral(
            f"quadrature tolerance {tol!r} is below double precision (2**-52)")
    if not (q.imag > 0).all():
        raise DivergentIntegral("Im(quadratic) must be positive for decay")
    alpha = math.pi * q.imag
    center = -math.pi * l.imag / (2.0 * alpha)
    # e^{-alpha (s - center)^2} tail below tol/20 of the peak, plus margin.
    half = (np.abs(center) + np.sqrt((math.log(20.0 / tol) + 1.0) / alpha)
            + 2.0 / np.sqrt(alpha))

    def grid_sums(n: int, q, l, half):
        # blocks of about 2**16 nodes bound the memory of a fine grid over many rows
        value, scale = np.empty(len(q), dtype=complex), np.empty(len(q))
        step = max(1, 2 ** 16 // n)
        for start in range(0, len(q), step):
            part = slice(start, start + step)
            h = 2.0 * half[part] / n
            # the nodes of np.linspace(-half, half, n + 1), bit for bit, per row
            s = np.arange(n + 1.0) * h - half[part]
            s[:, -1:] = half[part]
            vals = np.exp(1j * math.pi * (q[part] * s * s + l[part] * s))
            weights = np.repeat(h, n + 1, axis=-1)
            weights[:, ::n] = 0.5 * h
            value[part] = (weights * vals).sum(axis=-1)
            scale[part] = (weights * np.abs(vals)).sum(axis=-1)
        return value, scale

    out = np.empty(len(q), dtype=complex)
    rows = np.arange(len(q))
    n = 128
    prev, _ = grid_sums(n, q, l, half)
    for _ in range(14):
        n *= 2
        cur, scale = grid_sums(n, q, l, half)
        done = abs(cur - prev) <= tol * np.maximum(scale, 1e-300)
        out[rows[done]] = cur[done]
        if done.all():
            value = out.reshape(shape)
            return complex(value) if value.ndim == 0 else value
        keep = ~done
        rows, prev, q, l, half = rows[keep], cur[keep], q[keep], l[keep], half[keep]
    raise DivergentIntegral("quadrature did not reach the requested tolerance")


def gaussian_quadrature_oracle_2d(quadratic, linear, tol: float = 1e-10):
    """Integral of exp(pi i (s^t q s + l . s)) over R^2, as two line integrals.

    ``quadratic`` is a 2x2 complex matrix whose symmetric part has a
    positive-definite imaginary part. Leading axes of ``quadratic``
    (..., 2, 2) and ``linear`` (..., 2) are rows, and a single row returns
    a complex. With that symmetric part q, the Cholesky factor
    Im q = L L^t and the eigenbasis
    L^{-1} Re q L^{-t} = R diag(mu) R^t, the real map s = T u with
    T = L^{-t} R gives T^t q T = diag(mu) + i I. By Fubini the integral is
    |det T| times the product over k of the line integrals of
    exp(pi i ((mu_k + i) u^2 + (T^t l)_k u)), each computed by
    :func:`gaussian_quadrature_oracle` to tol/2. |det T| scales the
    integral of |integrand| by the same factor, so the result keeps the
    contract of tol relative to the plane integral of |integrand|.

    This is not a completed square. T is a real linear change of variables
    of R^2, so no contour is shifted into the complex domain, the linear
    term stays inside the integrand, and no closed-form value of a Gaussian
    integral enters: each factor is still a trapezoid sum of the integrand
    under the a-posteriori stopping rule. The closed route instead shifts s
    by a complex center and uses the Gaussian's closed-form value, which
    this oracle never computes.
    """
    q = np.asarray(quadratic, dtype=complex)
    l = np.asarray(linear, dtype=complex)
    if q.shape[-2:] != (2, 2):
        raise ValueError("quadratic must be 2x2")
    q = 0.5 * (q + np.swapaxes(q, -1, -2))
    try:
        chol = np.linalg.cholesky(q.imag)
    except np.linalg.LinAlgError:
        raise DivergentIntegral("Im(quadratic) must be positive definite") from None
    chol_inv = np.linalg.inv(chol)
    mu, rot = np.linalg.eigh(chol_inv @ q.real @ np.swapaxes(chol_inv, -1, -2))
    t = np.swapaxes(chol_inv, -1, -2) @ rot
    lines = gaussian_quadrature_oracle(mu + 1j, (l[..., None, :] @ t)[..., 0, :], tol / 2.0)
    jacobian = 1.0 / (chol[..., 0, 0] * chol[..., 1, 1])
    value = _cmul(_cmul(jacobian, lines[..., 0]), lines[..., 1])
    return complex(value) if value.ndim == 0 else value
