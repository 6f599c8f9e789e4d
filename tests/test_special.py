import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctheta.embedding import index_planes, point_parts
from nctheta.errors import (
    DivergentIntegral,
    DivergentSeries,
    InternalIdentityViolated,
    NotPositive,
)
from nctheta.qtheta import _mode_products
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


def tensor_trapezoid_2d(q, l, tol):
    """Plane integral of exp(pi i (s^t q s + l . s)) on one tensor-product grid.

    The reference for the plane oracle, with no change of variables: a
    window per axis from the slowest decay rate of Im q, and a trapezoid
    grid doubled from n = 64 until two levels agree to tol relative to the
    integral of |integrand|. Returns the value and that integral.
    """
    alpha = math.pi * q.imag
    center = np.linalg.solve(2.0 * alpha, -math.pi * l.imag)
    lam_min = float(np.min(np.linalg.eigvalsh(alpha)))
    half = (np.abs(center) + math.sqrt((math.log(20.0 / tol) + 1.0) / lam_min)
            + 2.0 / math.sqrt(lam_min))
    n, prev = 64, None
    while n <= 4096:
        a, b = np.meshgrid(*(np.linspace(-x, x, n + 1) for x in half),
                           indexing="ij", sparse=True)
        vals = np.exp(1j * math.pi * (q[0, 0] * a * a + (q[0, 1] + q[1, 0]) * a * b
                                      + q[1, 1] * b * b + l[0] * a + l[1] * b))
        axis_weights = [np.full(n + 1, 2.0 * x / n) for x in half]
        for w in axis_weights:
            w[0] = w[-1] = 0.5 * w[1]
        weights = np.outer(*axis_weights)
        cur = complex(np.sum(weights * vals))
        scale = float(np.sum(weights * np.abs(vals)))
        if prev is not None and abs(cur - prev) <= tol * scale:
            return cur, scale
        prev, n = cur, 2 * n
    raise AssertionError("tensor-product reference did not converge")


def brute_theta(tau, z, n=64):
    """Plain double loop, the independent oracle for the series."""
    return sum(cmath.exp(1j * math.pi * tau * k * k + 2j * math.pi * k * z)
               for k in range(-n, n + 1))


class TestJacobiTheta:
    def test_value_at_i(self):
        val = jacobi_theta(1j, 0.0, 1e-12)
        n = theta_truncation(1j, 0.0, 1e-12)
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

    def test_term_beyond_the_double_range(self):
        # |e^{2 pi i n z}| = e^{72 pi n} at Im z = -36: the n = 5 term is past
        # the largest double, which the error names with tau and z
        with pytest.raises(DivergentSeries, match=r"n = 5 overflows at tau = 4j, z = \(3-36j\)"):
            jacobi_theta(4j, 3 - 36j)

    def test_truncation_bound_is_honest(self):
        # enlarging the cutoff beyond the chosen N never moves the value by tol
        for tau, z, tol in [(1j, 0.3 + 0.2j, 1e-12), (5j, -0.3 + 2.5j, 1e-12),
                            (0.7 + 0.6j, 1.1 - 0.9j, 1e-10)]:
            n = theta_truncation(tau, z, tol)
            assert abs(jacobi_theta(tau, z, tol) - brute_theta(tau, z, n + 40)) <= tol


class TestHermitianForm:
    def test_scalar_examples(self):
        ctx = HermitianFormContext(2j)
        assert hermitian_form(ctx, ([1], [0]), ([1], [0])) == pytest.approx(2.0)
        assert hermitian_form(ctx, ([0], [1]), ([0], [1])) == pytest.approx(0.5)
        assert hermitian_form(ctx, ([0], [0]), ([1], [1])) == 0.0

    def test_conjugate_symmetry_and_positivity(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            t = complex(rng.uniform(-2, 2), rng.uniform(0.2, 5))
            ctx = HermitianFormContext(t)
            g = tuple(rng.uniform(-3, 3, (2, 1)))
            h = tuple(rng.uniform(-3, 3, (2, 1)))
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

    @pytest.mark.parametrize("matrix", [False, True])
    def test_rows_agree_with_single_pairs(self, matrix):
        # components with leading axes broadcast; each entry is the single
        # pair's value, and the table is Hermitian
        rng = np.random.default_rng(17)
        shape = (12, 2) if matrix else (12, 1)
        for _ in range(5):
            if matrix:
                r = rng.uniform(-1, 1, (2, 2))
                im = rng.uniform(0.3, 2, (2, 2))
                ctx = HermitianFormContext(r + r.T + 1j * (im @ im.T + 0.3 * np.eye(2)))
            else:
                ctx = HermitianFormContext(complex(rng.uniform(-2, 2), rng.uniform(0.2, 5)))
            g1, g2, h1, h2 = rng.uniform(-3, 3, (4, *shape))
            table = hermitian_form(ctx, (g1[:, None], g2[:, None]), (h1[None], h2[None]))
            assert table.shape == (12, 12)
            # |g_| and |h_|, the scale of the rounding error of H(g, h)
            size_g, size_h = (np.sqrt(np.sum(np.abs(ctx.embed(x)) ** 2, axis=-1))
                              for x in ((g1, g2), (h1, h2)))
            for a in range(12):
                for b in range(12):
                    g, h = (g1[a], g2[a]), (h1[b], h2[b])
                    single = hermitian_form(ctx, g, h)
                    assert abs(table[a, b] - single) <= 1e-13 * size_g[a] * size_h[b]
            rows = hermitian_form(ctx, (g1, g2), (h1, h2))
            assert np.all(np.abs(rows - np.diag(table)) <= 1e-13 * size_g * size_h)
            mirror = hermitian_form(ctx, (h1[:, None], h2[:, None]), (g1[None], g2[None]))
            assert np.all(np.abs(table - mirror.T.conj())
                          <= 1e-13 * np.outer(size_g, size_h))

    def test_not_positive_rejected(self):
        with pytest.raises(NotPositive):
            HermitianFormContext(1.0 - 0.5j)
        with pytest.raises(NotPositive):
            HermitianFormContext(np.array([[1j, 0], [0, -1j]]))

    def test_positivity_reads_both_triangles(self):
        # Im T = [[1, 5], [0, 1]]: its lower triangle alone is positive
        # definite, its symmetric part [[1, 2.5], [2.5, 1]] is not
        with pytest.raises(NotPositive):
            HermitianFormContext(np.array([[1j, 5j], [0, 1j]]))
        with pytest.raises(NotPositive):
            HermitianFormContext(np.array([[1j, 0], [5j, 1j]]))

    def test_symmetric_im_t_keeps_its_verdict_and_inverse(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            a = rng.uniform(-2, 2, (2, 2))
            im = a @ a.T + rng.uniform(-0.5, 0.5) * np.eye(2)
            re = rng.uniform(-1, 1, (2, 2))
            t = re + re.T + 1j * im
            # the symmetric part of a symmetric Im T is Im T, bit for bit
            assert ((im + im.T) / 2).tobytes() == im.tobytes()
            if np.linalg.eigvalsh(im).min() > 0:
                ctx = HermitianFormContext(t)
                assert ctx.im_inverse.tobytes() == np.linalg.inv(im).tobytes()
            else:
                with pytest.raises(NotPositive):
                    HermitianFormContext(t)

    @pytest.mark.parametrize("t", [[1j, 1j], 1j * np.eye(3), 1j * np.ones((2, 2, 2))],
                             ids=["row", "3x3", "stacked"])
    def test_only_1x1_or_2x2_structures(self, t):
        with pytest.raises(ValueError, match="1x1 or 2x2"):
            HermitianFormContext(t)

    def test_scalar_is_the_1x1_structure(self):
        # a scalar T and the 1x1 matrix [[T]] are one context: every route
        # over (..., 1) rows agrees bit for bit
        rng = np.random.default_rng(23)
        for _ in range(20):
            t = complex(rng.uniform(-2, 2), rng.uniform(0.2, 5))
            scalar, matrix = HermitianFormContext(t), HermitianFormContext([[t]])
            g1, g2, h1, h2 = rng.uniform(-3, 3, (4, 50, 1))
            for route in (lambda c: hermitian_form(c, (g1, g2), (h1, h2)),
                          lambda c: hermitian_form(c, (g1[:, None], g2[:, None]),
                                                   (h1[None], h2[None])),
                          lambda c: gaussian_factor(c, (g1, g2)),
                          lambda c: completed_square_defect(c, (g1, g2))):
                a, b = route(scalar), route(matrix)
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert scalar.normalization() == matrix.normalization()


def _random_structure(rng, d, shape):
    """A d x d complex T: diagonal, symmetric off-diagonal, or non-symmetric
    (Re T any, Im T with a positive-definite symmetric part plus an
    antisymmetric one); half of its zero entries are -0.0."""
    a = rng.uniform(-1, 1, (d, d))
    im = a @ a.T + 0.3 * np.eye(d)
    re = rng.uniform(-2, 2, (d, d))
    if shape == "diagonal":
        im, re = np.diag(np.diag(im)), np.diag(np.diag(re))
    elif shape == "symmetric":
        re = re + re.T
    else:
        skew = rng.uniform(-0.5, 0.5, (d, d))
        im = im + skew - skew.T
    re[(re == 0) & (rng.random((d, d)) < 0.5)] = -0.0
    return HermitianFormContext(re + 1j * im)


def _signed_points(rng, shape):
    """Coordinates of which about a third are +0.0 or -0.0 and a third small
    integers, so that products and sums meet signed zeros and exact cancellation."""
    x = rng.uniform(-5, 5, shape)
    pick = rng.random(shape)
    x[pick < 0.35] = rng.choice([0.0, -0.0], size=int(np.sum(pick < 0.35)))
    whole = pick > 0.65
    x[whole] = rng.integers(-3, 4, size=int(np.sum(whole)))
    return x


class TestHermitianFormBits:
    # H over rows is one einsum, and T x1 + x2 one complex array: a pair's
    # value has the same bits alone, among rows, in a table and broadcast,
    # signed zeros included
    LAYOUTS = {"rows": ((40,), (40,)), "table": ((6, 1), (1, 9)),
               "broadcast-left": ((30,), ()), "broadcast-right": ((), (30,)),
               "single": ((), ()), "self": ((40,), None)}

    @staticmethod
    def _same(got, ref):
        got, ref = np.asarray(got), np.asarray(ref)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()

    @staticmethod
    def _pairs(g, h):
        """Each pair of the broadcast layout, alone: its index and its g and h of shape (d,)."""
        shape = np.broadcast_shapes(g[0].shape[:-1], h[0].shape[:-1])
        g, h = ([np.broadcast_to(x, shape + x.shape[-1:]) for x in p] for p in (g, h))
        for at in np.ndindex(shape):
            yield at, tuple(x[at] for x in g), tuple(x[at] for x in h)

    @pytest.mark.parametrize("shape", ["diagonal", "symmetric", "non-symmetric"])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_equals_einsum(self, layout, d, shape):
        # each entry equals the einsum of its pair alone, a self-pairing too
        rng = np.random.default_rng([d, len(shape), len(layout)])
        lead_g, lead_h = self.LAYOUTS[layout]
        for _ in range(12):
            ctx = _random_structure(rng, d, shape)
            g = tuple(_signed_points(rng, (2, *lead_g, d)))
            h = g if lead_h is None else tuple(_signed_points(rng, (2, *lead_h, d)))
            got, embedded = hermitian_form(ctx, g, h), ctx.embed(g)
            ref, rows = np.empty(got.shape, dtype=complex), np.empty(embedded.shape, dtype=complex)
            for at, g_at, h_at in self._pairs(g, h):
                ref[at] = hermitian_form(ctx, g_at, g_at if h is g else h_at)
            for at, g_at, _ in self._pairs(g, g):
                rows[at] = ctx.embed(g_at)
            self._same(got, ref)
            self._same(embedded, rows)

    @pytest.mark.parametrize("d", [1, 2])
    def test_infinite_coordinates_give_nan_where_einsum_does(self, d):
        # at an infinite coordinate the zero products of (x + 0j) T_ij are NaN;
        # each part of H over rows is NaN, infinite or finite where that of
        # the pair alone is (a NaN's sign and payload aside)
        rng = np.random.default_rng(47 + d)
        for _ in range(40):
            ctx = _random_structure(rng, d, "non-symmetric")
            g, h = (tuple(_signed_points(rng, (2, 20, d))) for _ in range(2))
            for x in (*g, *h):
                x[rng.random(x.shape) < 0.1] = rng.choice([np.inf, -np.inf])
            with np.errstate(invalid="ignore"):
                got = hermitian_form(ctx, g, h)
                ref = np.array([hermitian_form(ctx, g_at, h_at) for _, g_at, h_at
                                in self._pairs(g, h)])
            for part, expected in ((got.real, ref.real), (got.imag, ref.imag)):
                np.testing.assert_array_equal(part, expected)


class TestGaussianFactor:
    def test_scalar_values(self):
        ctx = HermitianFormContext(2j)
        assert gaussian_factor(ctx, ([0.0], [0.0])) == pytest.approx(0.5)
        assert gaussian_factor(ctx, ([1.0], [0.0])) == pytest.approx(
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
                w = tuple(rng.uniform(-3, 3, (2, 1)))
                worst = max(worst, completed_square_defect(ctx, w))
        assert worst <= 1e-12

    @pytest.mark.parametrize("t", [
        0.4 + 1.7j,
        np.array([[0.3 + 1.2j, 0.1 + 0.2j], [0.1 + 0.2j, -0.5 + 0.9j]]),
    ])
    def test_defect_rows_match_single_rows(self, t):
        # one call over rows against one-row calls, bit for bit, and against
        # calls on a single (d,) point
        ctx = HermitianFormContext(t)
        rng = np.random.default_rng(31)
        shape = (100, len(ctx.T))
        w1, w2 = rng.uniform(-3, 3, shape), rng.uniform(-3, 3, shape)
        rows = completed_square_defect(ctx, (w1, w2))
        assert rows.shape == (100,)
        one_row = [completed_square_defect(ctx, (w1[i:i + 1], w2[i:i + 1]))[0]
                   for i in range(100)]
        assert rows.tolist() == one_row
        single = [completed_square_defect(ctx, (w1[i], w2[i])) for i in range(100)]
        for other in (one_row, single):
            assert np.allclose(rows, other, rtol=0.0, atol=1e-14)
        assert rows.max() <= 1e-12

    def test_guard_names_the_row_that_misses(self, monkeypatch):
        import nctheta.special as special_mod

        ctx = HermitianFormContext(0.4 + 1.7j)
        w = (np.linspace(-2, 2, 7)[:, None], np.linspace(1, -1, 7)[:, None])
        exact = special_mod._ctilde_minus_q_lambda
        assert gaussian_factor(ctx, w).shape == (7,)
        monkeypatch.setattr(special_mod, "_ctilde_minus_q_lambda",
                            lambda ctx, w: exact(ctx, w) + np.where(np.arange(7) == 4, 1e-9, 0))
        with pytest.raises(InternalIdentityViolated, match="at row 4"):
            gaussian_factor(ctx, w)

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
            direct = gaussian_factor(ctx, ([w1], [w2]))
            quad = t - np.conj(t)
            lin = -2 * (np.conj(t) * w1 + w2)
            const = 1j * np.conj(t) * w1 * w1 + 1j * w1 * w2
            via_oracle = cmath.exp(-math.pi * const) * gaussian_quadrature_oracle(quad, lin, 1e-11)
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

    def test_is_real(self):
        # tau = 2i/theta2 is purely imaginary, so the theta terms n and -(n+m)
        # of mu pair off as complex conjugates: a 50-digit sum of the defining
        # series, term by term as written, leaves no imaginary part beyond its
        # own rounding, and the package returns a float. (mpmath's jtheta
        # loses digits at large Im z, so the sum is formed here; its terms
        # beyond |n| = 20 are below 1e-150 of the largest at theta2 <= 3.)
        rng = np.random.default_rng(35)
        for _ in range(40):
            theta2, t = rng.uniform(0.1, 3.0), rng.uniform(-5.0, 5.0)
            m = int(rng.integers(-6, 7))
            with mpmath.workdps(50):
                pi, c = mpmath.pi, 1 / mpmath.mpf(theta2)
                tau, z = 2j * c, -mpmath.mpf(t) + 1j * m * c
                mu = mpmath.fsum(mpmath.exp(-pi * c * m * m - 1j * pi * m * t
                                            + 1j * pi * tau * n * n + 2j * pi * n * z)
                                 for n in range(-20, 21))
                assert abs(mu.imag) < 1e-40 * abs(mu), (theta2, t, m)
            value = mode_factor(t, m, theta2)
            assert type(value) is float
            assert abs(value - float(mu.real)) <= 1e-12 * max(1.0, abs(mu))


def _scalar_theta(tau, z, tol=1e-12):
    """theta(tau, z) as one scalar loop, the reference for the row path: the
    terms 1, then n and -n for n = 1..N through cmath.exp, Neumaier-summed
    in that order. A term that overflows raises OverflowError."""
    tau, z = complex(tau), complex(z)
    terms = [complex(1.0)]
    for n in range(1, theta_truncation(tau, z, tol) + 1):
        base = 1j * math.pi * tau * n * n
        terms.append(cmath.exp(base + 2j * math.pi * n * z))
        terms.append(cmath.exp(base - 2j * math.pi * n * z))
    s = c = 0.0 + 0.0j
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


def _scalar_mode_factor(t, m, theta2):
    """mu(t, m) of one pair through :func:`_scalar_theta`, m an int."""
    pref = cmath.exp(-math.pi / theta2 * m * m - 1j * math.pi * m * t)
    return (pref * _scalar_theta(2j / theta2, complex(-t, m / theta2))).real


class TestThetaRowsBits:
    # jacobi_theta over rows of z and mode_factor over (t, m) pairs equal the
    # scalar loop of each row on its own, bit for bit, signed zeros included

    @staticmethod
    def _same(got, ref):
        ref = np.array(ref).reshape(np.shape(got))
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    def test_canonical_lattice_pairs(self, lattice_config):
        # the distinct (t, m) of each axis of the r=12 (k3, k4) plane, axis 0
        # then axis 1, as the lattice series hands them over
        emb = lattice_config.build_embedding()
        theta2 = 1.0 / lattice_config.build_structure(emb).lattice_decay
        (_, far), _ = index_planes(emb, 12)
        parts = point_parts(emb, far)
        m_part, dual_part = parts
        ts, ms, refs = [], [], []
        for axis in range(2):
            t, m = dual_part[:, 1 + axis], m_part[:, 1 + axis]
            _, first, inverse = np.unique(t + 1j * m, return_index=True, return_inverse=True)
            factors = [_scalar_mode_factor(float(t[i]), int(m[i]), theta2) for i in first]
            ts.append(t[first])
            ms.append(m[first])
            refs.append(np.array(factors)[inverse])
        t, m = np.concatenate(ts), np.concatenate(ms)
        assert len(t) == 1250
        self._same(mode_factor(t, m, theta2), [_scalar_mode_factor(float(a), int(b), theta2)
                                               for a, b in zip(t, m)])
        self._same(_mode_products(parts, theta2), np.ones(len(m_part)) * refs[0] * refs[1])

    def test_random_pairs(self):
        rng = np.random.default_rng(45)
        skipped = 0
        for theta2 in rng.uniform(0.1, 3.0, 8):
            t = rng.uniform(-6.0, 6.0, 150)
            t[:6] = [0.0, -0.0, 0.5, -0.5, 1.0, -2.5]
            m = rng.integers(-30, 31, 150)
            refs, keep = [], []
            for a, b in zip(t.tolist(), m.tolist()):
                try:
                    refs.append(_scalar_mode_factor(a, b, theta2))
                    keep.append(True)
                except OverflowError:
                    keep.append(False)
            skipped += keep.count(False)
            keep = np.array(keep)
            self._same(mode_factor(t[keep], m[keep], theta2), refs)
            # broadcast pairs: a column of t against a row of m
            got = mode_factor(t[keep][:5, None], m[keep][None, :7], theta2)
            self._same(got, [[_scalar_mode_factor(a, b, theta2) for b in m[keep][:7].tolist()]
                             for a in t[keep][:5].tolist()])
        assert 0 < skipped < 300

    def test_rows_at_the_scaled_exponent(self):
        # the largest term of each row has real part R in (708.4, 709.7),
        # where cmath.exp scales e^x as e^{x - 1} e and np.exp does not: the
        # peak n0 is exact for tau = i R / (pi n0^2) and Im z = -+Im tau n0
        rng = np.random.default_rng(709)
        differ = 0
        for n0 in (2, 4, 6):
            for peak in rng.uniform(708.45, 709.65, 3):
                tau = complex(rng.uniform(-1.0, 1.0), peak / (math.pi * n0 * n0))
                y = tau.imag * n0 * rng.choice([-1.0, 1.0], 8)
                z = rng.uniform(-2.0, 2.0, 8) + 1j * y
                z = np.concatenate([z, rng.uniform(-1.0, 1.0, 4) + 0.3j])
                for row in z[:8].tolist():
                    sign = 1 if row.imag < 0 else -1
                    arg = 1j * math.pi * tau * n0 * n0 + sign * 2j * math.pi * n0 * row
                    assert 708.4 < arg.real < 709.7
                    differ += np.exp(arg) != cmath.exp(arg)
                self._same(jacobi_theta(tau, z), [_scalar_theta(tau, row) for row in z.tolist()])
        assert differ > 0

    def test_rows_with_different_cutoffs(self):
        # rows past their own cutoff add +0.0 while the longest row runs on
        rng = np.random.default_rng(17)
        for _ in range(6):
            tau = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.3, 2.0))
            z = rng.uniform(-3.0, 3.0, (6, 5)) + 1j * rng.uniform(-6.0, 6.0, (6, 5))
            z[0, :4] = [0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
            z[1] = z[1].real
            cutoffs = {theta_truncation(tau, row, 1e-12) for row in z.ravel().tolist()}
            assert len(cutoffs) > 3
            for tol in (1e-12, 1e-6):
                self._same(jacobi_theta(tau, z, tol),
                           [_scalar_theta(tau, row, tol) for row in z.ravel().tolist()])

    def test_scalar_calls_keep_their_types(self):
        value = jacobi_theta(5j, 0.0)
        assert type(value) is complex and value == _scalar_theta(5j, 0.0)
        for t in (0.3, np.float64(-0.0), np.float64(1.25)):
            value = mode_factor(t, 2, 0.4)
            assert type(value) is float
            assert np.float64(value).tobytes() == np.float64(
                _scalar_mode_factor(float(t), 2, 0.4)).tobytes()

    def test_overflow_names_the_first_row(self):
        # alone, the last row overflows first, at n = 3; the row path names
        # the first overflowing row in the given order and its smallest n,
        # and no RuntimeWarning escapes on the way
        with pytest.raises(OverflowError):
            _scalar_theta(4j, 3 - 36j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergentSeries,
                               match=r"^theta term n = 3 overflows at tau = 4j, z = \(1-60j\)$"):
                jacobi_theta(4j, 1 - 60j)
            with pytest.raises(DivergentSeries,
                               match=r"^theta term n = 5 overflows at tau = 4j, z = \(3-36j\)$"):
                jacobi_theta(4j, [0.1 + 0.2j, 3 - 36j, 1 - 60j])
            with pytest.raises(DivergentSeries,
                               match=r"^theta term n = 2 overflows at tau = 5j, z = \(-0.25-100j\)$"):
                mode_factor([0.0, 0.25, 0.5], [1, -40, -60], 0.4)


class TestQuadratureOracle:
    def test_plain_gaussian(self):
        assert gaussian_quadrature_oracle(4j) == pytest.approx(0.5, abs=1e-12)

    def test_modulated_gaussian(self):
        got = gaussian_quadrature_oracle(4j, -2.0)
        assert got == pytest.approx(0.5 * math.exp(-math.pi / 4), abs=1e-10)

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

    def test_2d_matches_tensor_grid(self):
        # Re q != 0, off-diagonal Im q and complex l: the substitution has a
        # non-trivial Cholesky factor and rotation on every draw
        rng = np.random.default_rng(8)
        for _ in range(12):
            r = rng.uniform(-1, 1, (2, 2))
            a = rng.uniform(-1, 1, (2, 2))
            q = 0.5 * (r + r.T) + 1j * (a @ a.T + 0.5 * np.eye(2))
            l = rng.uniform(-1.5, 1.5, 2) + 1j * rng.uniform(-1, 1, 2)
            ref, scale = tensor_trapezoid_2d(q, l, 1e-14)
            got = gaussian_quadrature_oracle_2d(q, l, 1e-13)
            assert abs(got - ref) <= 1e-12 * scale

    def test_2d_reads_the_symmetric_part(self):
        # s^t q s only sees (q + q^t) / 2; dyadic entries keep that exact
        sym = np.array([[0.25 + 1.5j, -0.5 + 0.25j], [-0.5 + 0.25j, 0.75 + 1.0j]])
        skew = np.array([[0.0, 0.5 - 0.25j], [-0.5 + 0.25j, 0.0]])
        l = np.array([0.5 - 0.25j, -1.0 + 0.5j])
        assert (gaussian_quadrature_oracle_2d(sym + skew, l)
                == gaussian_quadrature_oracle_2d(sym, l))

    def test_rows_integrate_as_on_their_own(self):
        # the oscillating middle row needs three more doublings than the others
        q = np.array([0.3 + 2.1j, 30.0 + 1.0j, -0.7 + 0.5j])
        l = np.array([0.4 - 0.7j, 1.0 + 0.3j, -2.0 + 1.0j])
        together = gaussian_quadrature_oracle(q, l, 1e-11)
        alone = [gaussian_quadrature_oracle(qk, lk, 1e-11) for qk, lk in zip(q, l)]
        assert list(together) == alone

    def test_2d_rows_integrate_as_on_their_own(self):
        # a stack of two different matrices, each with its own Cholesky
        # factor and rotation, against the two single calls
        q = np.array([[[0.25 + 1.5j, -0.5 + 0.25j], [-0.5 + 0.25j, 0.75 + 1.0j]],
                      [[-0.3 + 0.8j, 0.2 - 0.1j], [0.2 - 0.1j, 0.4 + 2.0j]]])
        l = np.array([[0.5 - 0.25j, -1.0 + 0.5j], [0.7 + 0.1j, 0.3 - 0.4j]])
        together = gaussian_quadrature_oracle_2d(q, l, 1e-11)
        alone = [gaussian_quadrature_oracle_2d(qk, lk, 1e-11) for qk, lk in zip(q, l)]
        assert together.shape == (2,)
        assert list(together) == alone

    def test_tolerance_below_double_precision_refused(self):
        # the plane case runs in test_config_cli under a memory limit
        for tol in (2.0 ** -53, 1e-17, 0.0, -1e-10):
            with pytest.raises(DivergentIntegral, match="below double precision"):
                gaussian_quadrature_oracle(4j, 0.0, tol)


@given(st.floats(-2, 2), st.floats(0.5, 4), st.floats(-2, 2), st.floats(-0.5, 0.5))
@settings(max_examples=30, deadline=None)
def test_theta_evenness_property(tr, ti, zr, zi):
    tau = complex(tr, ti)
    z = complex(zr, zi)
    a = jacobi_theta(tau, z)
    b = jacobi_theta(tau, -z)
    assert abs(a - b) <= 1e-10 * max(1.0, abs(a))
