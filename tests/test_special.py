import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctheta.errors import (
    DivergentIntegral,
    DivergentSeries,
    NotPositive,
)
from nctheta.special import (
    HermitianFormContext,
    completed_square_defect,
    gaussian_factor,
    gaussian_quadrature_oracle,
    gaussian_quadrature_oracle_2d,
    hermitian_form,
    jacobi_theta,
    mode_factor,
    theta_truncation,
)


def brute_theta(tau, z, n=64):
    """Plain double loop, the independent oracle for the series."""
    return sum(cmath.exp(1j * math.pi * tau * k * k + 2j * math.pi * k * z)
               for k in range(-n, n + 1))


class TestJacobiTheta:
    def test_value_at_i(self):
        val, n = jacobi_theta(1j, 0.0, 1e-12, with_meta=True)
        assert abs(val - brute_theta(1j, 0.0)) <= 1e-15
        assert abs(val - 1.086434811213308) <= 1e-12
        assert n <= 8

    def test_value_at_5i(self):
        val = jacobi_theta(5j, 0.0)
        expected = 1 + 2 * math.exp(-5 * math.pi) + 2 * math.exp(-20 * math.pi)
        assert val.real == pytest.approx(expected, abs=1e-14)
        assert val.imag == 0.0

    def test_periodicity_termwise(self):
        tau = 0.3 + 1.2j
        z = 0.37 - 0.21j
        assert abs(jacobi_theta(tau, z + 1) - jacobi_theta(tau, z)) <= 1e-12

    def test_against_mpmath(self):
        # cross-library oracle: jtheta(3, pi z, e^{pi i tau}) in mpmath terms
        import mpmath

        rng = np.random.default_rng(12)
        for _ in range(10):
            tau = complex(rng.uniform(-1, 1), rng.uniform(0.6, 3))
            z = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))
            ref = complex(mpmath.jtheta(3, mpmath.pi * z,
                                        mpmath.exp(1j * mpmath.pi * tau)))
            mine = jacobi_theta(tau, z, 1e-13)
            assert abs(mine - ref) <= 1e-11 * max(1.0, abs(ref))

    def test_against_brute_force_random(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            tau = complex(rng.uniform(-2, 2), rng.uniform(0.5, 5))
            z = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            mine = jacobi_theta(tau, z, 1e-13)
            ref = brute_theta(tau, z)
            assert abs(mine - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_quasi_periodicity_and_evenness(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(50):
            tau = complex(rng.uniform(-2, 2), rng.uniform(0.5, 5))
            z = complex(rng.uniform(-2, 2), rng.uniform(-0.5, 0.5))
            base = jacobi_theta(tau, z)
            shift = jacobi_theta(tau, z + tau)
            factor = cmath.exp(-1j * math.pi * tau - 2j * math.pi * z)
            scale = max(1.0, abs(shift), abs(factor * base))
            worst = max(worst,
                        abs(jacobi_theta(tau, z + 1) - base) / max(1.0, abs(base)),
                        abs(shift - factor * base) / scale,
                        abs(jacobi_theta(tau, -z) - base) / max(1.0, abs(base)))
        assert worst <= 1e-10

    def test_divergent_series(self):
        with pytest.raises(DivergentSeries):
            jacobi_theta(1.0, 0.0)

    def test_truncation_bound_is_honest(self):
        # enlarging the cutoff beyond the chosen N never moves the value by tol
        for tau, z, tol in [(1j, 0.3 + 0.2j, 1e-12), (5j, -0.3 + 2.5j, 1e-12),
                            (0.7 + 0.6j, 1.1 - 0.9j, 1e-10)]:
            n = theta_truncation(tau, z, tol)
            assert abs(jacobi_theta(tau, z, tol) - brute_theta(tau, z, n + 40)) <= tol


class TestHermitianForm:
    def test_scalar_examples(self):
        ctx = HermitianFormContext(2j)
        assert hermitian_form(ctx, (1, 0), (1, 0)) == pytest.approx(2.0)
        assert hermitian_form(ctx, (0, 1), (0, 1)) == pytest.approx(0.5)
        assert hermitian_form(ctx, (0, 0), (1, 1)) == 0.0

    def test_conjugate_symmetry_and_positivity(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            t = complex(rng.uniform(-2, 2), rng.uniform(0.2, 5))
            ctx = HermitianFormContext(t)
            g = tuple(rng.uniform(-3, 3, 2))
            h = tuple(rng.uniform(-3, 3, 2))
            assert hermitian_form(ctx, g, h) == pytest.approx(
                np.conj(hermitian_form(ctx, h, g)), abs=1e-12)
            hh = hermitian_form(ctx, h, h)
            assert abs(hh.imag) <= 1e-13
            assert hh.real >= 0

    def test_matrix_context(self):
        ctx = HermitianFormContext(1j * np.eye(2))
        g = (np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        assert hermitian_form(ctx, g, g) == pytest.approx(1.0)
        assert ctx.normalization() == pytest.approx(0.5)

    def test_not_positive_rejected(self):
        with pytest.raises(NotPositive):
            HermitianFormContext(1.0 - 0.5j)
        with pytest.raises(NotPositive):
            HermitianFormContext(np.array([[1j, 0], [0, -1j]]))


class TestGaussianFactor:
    def test_scalar_values(self):
        ctx = HermitianFormContext(2j)
        assert gaussian_factor(ctx, (0.0, 0.0)) == pytest.approx(0.5)
        assert gaussian_factor(ctx, (1.0, 0.0)) == pytest.approx(
            0.5 * math.exp(-math.pi), abs=1e-15)

    def test_matrix_value(self):
        ctx = HermitianFormContext(1j * np.eye(2))
        w = (np.zeros(2), np.zeros(2))
        assert gaussian_factor(ctx, w) == pytest.approx(0.5)

    def test_completed_square_identity_sweep(self):
        # the computational lemma: C - q(lambda) = H/2, exactly
        rng = np.random.default_rng(1234)
        worst = 0.0
        for _ in range(10):
            t = complex(rng.uniform(-2, 2), rng.uniform(0.2, 5))
            ctx = HermitianFormContext(t)
            for _ in range(100):
                w = tuple(rng.uniform(-3, 3, 2))
                worst = max(worst, completed_square_defect(ctx, w))
        assert worst <= 1e-12

    def test_matrix_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            r = rng.uniform(-1, 1, (2, 2))
            sym = r + r.T
            im = rng.uniform(0.3, 2, (2, 2))
            im = im @ im.T + 0.3 * np.eye(2)
            ctx = HermitianFormContext(sym + 1j * im)
            w = (rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2))
            assert completed_square_defect(ctx, w) <= 1e-12

    def test_agrees_with_quadrature(self):
        # gaussian_factor vs the independent integral of f conj(pi_w f);
        # the family keeps H moderate so 1e-8 relative is resolvable in doubles
        rng = np.random.default_rng(99)
        for _ in range(50):
            t = complex(rng.uniform(-0.6, 0.6), rng.uniform(0.8, 2.5))
            ctx = HermitianFormContext(t)
            w1, w2 = rng.uniform(-0.7, 0.7, 2)
            direct = gaussian_factor(ctx, (w1, w2))
            quad = t - np.conj(t)
            lin = -2 * (np.conj(t) * w1 + w2)
            const = 1j * np.conj(t) * w1 * w1 + 1j * w1 * w2
            via_oracle = gaussian_quadrature_oracle(quad, lin, const, 1e-11)
            assert abs(direct - via_oracle) <= 1e-8 * max(abs(direct), 1e-15)


class TestModeFactor:
    def test_zero_arguments(self):
        assert mode_factor(0.0, 0, 0.4) == pytest.approx(jacobi_theta(5j, 0.0))

    def test_half_shift(self):
        expected = 1 - 2 * math.exp(-5 * math.pi) + 2 * math.exp(-20 * math.pi)
        assert mode_factor(0.5, 0, 0.4) == pytest.approx(expected, abs=1e-14)

    def test_unit_mode(self):
        # dominant terms n = 0 and n = -1 both contribute e^{-2.5 pi}
        expected = 2 * math.exp(-2.5 * math.pi) * (1 + math.exp(-10 * math.pi))
        assert mode_factor(0.0, 1, 0.4) == pytest.approx(expected, abs=1e-9)

    def test_brute_force_cross_sum(self):
        # independent folded form: sum_n e^{-pi c (n^2 + (n+m)^2)} e^{-pi i (m+2n) t}
        rng = np.random.default_rng(3)
        for _ in range(20):
            theta2 = rng.uniform(0.2, 1.5)
            m = int(rng.integers(-3, 4))
            t = rng.uniform(-2, 2)
            c = 1.0 / theta2
            ref = sum(cmath.exp(-math.pi * c * (n * n + (n + m) ** 2)
                                - 1j * math.pi * (m + 2 * n) * t)
                      for n in range(-40, 41))
            assert abs(mode_factor(t, m, theta2) - ref) <= 1e-12 * max(1, abs(ref))

    def test_requires_positive_theta2(self):
        with pytest.raises(NotPositive):
            mode_factor(0.0, 0, -0.4)


class TestQuadratureOracle:
    def test_plain_gaussian(self):
        assert gaussian_quadrature_oracle(4j) == pytest.approx(0.5, abs=1e-12)

    def test_modulated_gaussian(self):
        got = gaussian_quadrature_oracle(4j, -2.0)
        assert got == pytest.approx(0.5 * math.exp(-math.pi / 4), abs=1e-10)

    def test_constant_factors_out(self):
        c = 0.35 + 0.8j
        a = gaussian_quadrature_oracle(4j, -2.0, c)
        b = cmath.exp(-math.pi * c) * gaussian_quadrature_oracle(4j, -2.0)
        assert abs(a - b) <= 1e-12

    def test_divergent_rejected(self):
        with pytest.raises(DivergentIntegral):
            gaussian_quadrature_oracle(1.0)
        with pytest.raises(DivergentIntegral):
            gaussian_quadrature_oracle_2d(np.eye(2), np.zeros(2))

    def test_2d_plain(self):
        got = gaussian_quadrature_oracle_2d(2j * np.eye(2), np.zeros(2))
        assert got == pytest.approx(0.5, abs=1e-11)

    def test_2d_vs_tensor_of_1d(self):
        # separable integrand: the 2d result must factor
        one = gaussian_quadrature_oracle(2j, -1.0)
        other = gaussian_quadrature_oracle(6j, 0.5)
        both = gaussian_quadrature_oracle_2d(np.diag([2j, 6j]), np.array([-1.0, 0.5]))
        assert abs(both - one * other) <= 1e-10


@given(st.floats(-2, 2), st.floats(0.5, 4), st.floats(-2, 2), st.floats(-0.5, 0.5))
@settings(max_examples=30, deadline=None)
def test_theta_evenness_property(tr, ti, zr, zi):
    tau = complex(tr, ti)
    z = complex(zr, zi)
    a = jacobi_theta(tau, z)
    b = jacobi_theta(tau, -z)
    assert abs(a - b) <= 1e-10 * max(1.0, abs(a))
