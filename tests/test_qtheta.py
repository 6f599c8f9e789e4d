import cmath
import copy
import dataclasses
import itertools
import json
import math
import re
import time
import warnings

import mpmath
import numpy as np
import pytest

import nctheta.embedding as embedding_mod
import nctheta.qtheta as qtheta_mod
from conftest import GOLDEN_DIR, load_golden, pairing_exponent_table, save_golden
from test_config_cli import _non_canonical_config
from nctheta.config import parse_config
from nctheta.embedding import (
    _UNIT_ROUNDOFF,
    PAIR_SWEEP_BLOCK,
    EmbeddingKind,
    _paired_exponent,
    build_embedding,
    enumerate_indices,
    lattice_element,
    point_parts,
)
from nctheta.errors import KindMismatch, TruncationTooSmall, UnsupportedVector
from nctheta.heisenberg import apply_pi
from nctheta.qtheta import (
    QuantumThetaSeries,
    _log_translation,
    _stored_values,
    additivity_gap,
    inner_product_closed,
    inner_product_oracle,
    phase_identity_max_residual,
    quantum_theta_series,
    series_tail_bound,
    verify_consistency_condition,
    verify_functional_equation,
)
from nctheta.report import _random_lattice_embedding, run_suite
from nctheta.special import (
    HermitianFormContext,
    _cmul,
    hermitian_form,
    hermitian_form_bound,
    jacobi_theta,
    mode_factor,
)
from nctheta.structures import structure_from_tau, theta_vector


@pytest.fixture(scope="module")
def lattice_series(lattice_emb, lattice_structure):
    return quantum_theta_series(lattice_emb, lattice_structure, radius=4)


@pytest.fixture(scope="module")
def vector_series(vector_emb, vector_structure):
    return quantum_theta_series(vector_emb, vector_structure, radius=4)


class TestInnerProductClosed:
    def test_zero_element_norm(self, lattice_emb, lattice_structure):
        f = theta_vector(lattice_structure)
        got = inner_product_closed(f, lattice_element(lattice_emb, [0, 0, 0, 0]))
        expected = 0.5 * jacobi_theta(5j, 0.0) ** 2
        assert got == pytest.approx(expected, abs=1e-15)

    def test_third_generator(self, lattice_emb, lattice_structure):
        f = theta_vector(lattice_structure)
        got = inner_product_closed(f, lattice_element(lattice_emb, [0, 0, 1, 0]))
        expected = mode_factor(0.0, 1, 0.4) * mode_factor(0.3, 0, 0.4) * 0.5
        assert got == pytest.approx(expected, abs=1e-18)

    def test_vector_zero(self, vector_emb, vector_structure):
        f = theta_vector(vector_structure)
        got = inner_product_closed(f, lattice_element(vector_emb, [0, 0, 0, 0]))
        assert got == pytest.approx(0.5)

    def test_rejects_noncanonical_vector(self, lattice_emb, lattice_structure):
        from dataclasses import replace

        theta = theta_vector(lattice_structure)
        # a pushed vector carries array-valued fields: still UnsupportedVector,
        # not numpy's ambiguous-truth ValueError
        for f in (replace(theta, amplitude=2.0 + 0j),
                  apply_pi(lattice_element(lattice_emb, [0, 0, 1, 0]), theta)):
            with pytest.raises(UnsupportedVector):
                inner_product_closed(f, lattice_element(lattice_emb, [0, 0, 0, 0]))


class TestOracleEquivalence:
    def test_lattice_radius2(self, lattice_emb, lattice_structure):
        f = theta_vector(lattice_structure)
        for k in enumerate_indices(2):
            h = lattice_element(lattice_emb, k)
            closed = inner_product_closed(f, h)
            oracle = inner_product_oracle(f, h, 1e-10)
            assert abs(closed - oracle) <= max(1e-8 * abs(oracle), 1e-15), k

    def test_vector_radius1(self, vector_emb, vector_structure):
        f = theta_vector(vector_structure)
        for k in enumerate_indices(1):
            h = lattice_element(vector_emb, k)
            closed = inner_product_closed(f, h)
            oracle = inner_product_oracle(f, h, 1e-10)
            assert abs(closed - oracle) <= max(1e-8 * abs(oracle), 1e-15), k

    def test_large_mode_decay(self, lattice_emb, lattice_structure):
        # coefficients decay like e^{-pi |m|^2 / theta2}; both routes agree
        f = theta_vector(lattice_structure)
        h = lattice_element(lattice_emb, [0, 0, 3, 0])
        closed = inner_product_closed(f, h)
        oracle = inner_product_oracle(f, h, 1e-12)
        assert abs(closed) < 1e-9
        assert abs(closed - oracle) <= 1e-6 * abs(closed)

    def test_conjugate_symmetry(self, lattice_emb, lattice_structure):
        # pi_{-h} = pi_h^{-1} = pi_h^* here since alpha(h, -h) = 1,
        # so the coefficient at -h is the conjugate of the one at h
        f = theta_vector(lattice_structure)
        rng = np.random.default_rng(21)
        for _ in range(10):
            k = rng.integers(-2, 3, size=4)
            h = lattice_element(lattice_emb, k)
            neg = lattice_element(lattice_emb, -k)
            alpha = np.exp(1j * math.pi * _paired_exponent(lattice_emb, k, -k))
            assert alpha == pytest.approx(1.0)
            a = inner_product_oracle(f, h, 1e-11)
            b = inner_product_oracle(f, neg, 1e-11)
            assert b == pytest.approx(np.conj(a), abs=1e-12)

    def test_vector_oracle_compare_off_diagonal_tau(self, vector_config):
        # Re tau and off-diagonal entries in both rows of tau
        data = copy.deepcopy(vector_config.raw)
        data["embedding"].update(theta1=0.7, theta2=1.3)
        data["structure"]["tau"] = [[[0.2, 0.9], [0.1, 0.3]],
                                    [[0.053846153846153844, 0.16153846153846155],
                                     [0.4, 1.1]]]
        (check,) = run_suite(parse_config(data), "oracle-compare").checks
        assert check.name == "oracle-equivalence"
        assert check.passed, check.max_residual

    @pytest.mark.parametrize("kind, route", [
        pytest.param("lattice", inner_product_oracle, id="lattice"),
        pytest.param("vector", inner_product_oracle, id="vector"),
        pytest.param("lattice", inner_product_closed, id="lattice-closed"),
        pytest.param("vector", inner_product_closed, id="vector-closed"),
    ])
    def test_rows_match_one_row_calls(self, kind, route, request):
        # the 625 radius-2 index rows in one call, bit for bit as one at a time
        emb = request.getfixturevalue(f"{kind}_emb")
        f = theta_vector(request.getfixturevalue(f"{kind}_structure"))
        ks = enumerate_indices(2)
        rows = route(f, lattice_element(emb, ks))
        ones = [route(f, lattice_element(emb, k)) for k in ks]
        assert all(type(one) is complex for one in ones)
        assert rows.shape == (len(ks),)
        assert rows.view(np.uint64).tolist() == np.array(ones).view(np.uint64).tolist()

    @pytest.mark.parametrize("route", [inner_product_oracle, inner_product_closed])
    @pytest.mark.parametrize("kind", ["lattice", "vector"])
    def test_leading_axes_give_the_flat_values(self, kind, route, request):
        # (25, 25, 4) index rows give (25, 25) values: the flat call, reshaped
        emb = request.getfixturevalue(f"{kind}_emb")
        f = theta_vector(request.getfixturevalue(f"{kind}_structure"))
        ks = enumerate_indices(2)
        grid = route(f, lattice_element(emb, ks.reshape(25, 25, 4)))
        flat = route(f, lattice_element(emb, ks))
        assert grid.shape == (25, 25)
        assert grid.tobytes() == flat.reshape(25, 25).tobytes()

    @pytest.mark.parametrize("route", [inner_product_oracle, inner_product_closed])
    @pytest.mark.parametrize("kind", ["lattice", "vector"])
    def test_no_elements_give_an_empty_array(self, kind, route, request):
        emb = request.getfixturevalue(f"{kind}_emb")
        f = theta_vector(request.getfixturevalue(f"{kind}_structure"))
        rows = route(f, lattice_element(emb, np.empty((0, 4), dtype=np.int64)))
        assert rows.shape == (0,) and rows.dtype == complex

    def test_closed_rows_check_every_kind(self, lattice_emb, vector_emb, lattice_structure,
                                          vector_structure):
        ks = enumerate_indices(1)
        for f, emb in ((theta_vector(lattice_structure), vector_emb),
                       (theta_vector(vector_structure), lattice_emb)):
            with pytest.raises(KindMismatch):
                inner_product_closed(f, lattice_element(emb, ks))

    @pytest.mark.parametrize("kind, integrator", [
        ("lattice", "gaussian_quadrature_oracle"),
        ("vector", "gaussian_quadrature_oracle_2d"),
    ])
    def test_oracle_compare_calls_the_oracle_once(self, kind, integrator, request,
                                                  monkeypatch):
        import nctheta.report as report_mod

        calls = []

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(report_mod, "inner_product_oracle")
        counted(report_mod, "inner_product_closed")
        counted(qtheta_mod, integrator)
        (check,) = run_suite(request.getfixturevalue(f"{kind}_config"),
                             "oracle-compare").checks
        assert check.passed, check.max_residual
        assert calls == ["inner_product_oracle", integrator, "inner_product_closed"]

    @pytest.mark.parametrize("kind", ["lattice", "vector"])
    def test_closed_route_is_called_once_per_caller(self, kind, request, monkeypatch):
        import nctheta.report as report_mod

        calls = []
        for module in (report_mod, qtheta_mod):
            real = module.inner_product_closed

            def wrapper(f, h, _real=real, _name=module.__name__):
                calls.append(_name)
                return _real(f, h)
            monkeypatch.setattr(module, "inner_product_closed", wrapper)
        checks = run_suite(request.getfixturevalue(f"{kind}_config"), "inner-product").checks
        assert all(c.passed for c in checks)
        assert calls == ["nctheta.report"]
        calls.clear()
        quantum_theta_series(request.getfixturevalue(f"{kind}_emb"),
                             request.getfixturevalue(f"{kind}_structure"), radius=3)
        assert calls == ["nctheta.qtheta"]

    def test_oracle_equivalence_sees_a_wrong_gaussian_factor(self, vector_config,
                                                              monkeypatch):
        # the oracle shares no code with the closed route, so a relative
        # error of 1e-6 in the closed route's Gaussian factor shows in full
        exact = qtheta_mod.gaussian_factor
        monkeypatch.setattr(qtheta_mod, "gaussian_factor",
                            lambda ctx, w: exact(ctx, w) * (1 + 1e-6))
        (check,) = run_suite(vector_config, "oracle-compare").checks
        assert check.name == "oracle-equivalence"
        assert not check.passed
        assert check.max_residual == pytest.approx(1e-6, rel=1e-2)


class TestSeries:
    def test_zero_coefficients(self, lattice_series, vector_series):
        assert vector_series.coefficient([0, 0, 0, 0]) == 1.0
        b0 = lattice_series.coefficient([0, 0, 0, 0])
        assert abs(b0 - jacobi_theta(5j, 0.0) ** 2) <= 1e-12
        assert abs(b0.imag) <= 1e-16

    def test_modulation_coefficient(self, lattice_series):
        # H((0,1),(0,1)) = 1/(2 Im T) = 0.25... times pi/2 in the exponent
        got = lattice_series.coefficient([0, 1, 0, 0])
        expected = jacobi_theta(5j, 0.0) ** 2 * cmath.exp(-math.pi / 4)
        assert got == pytest.approx(expected, abs=1e-15)

    def test_lookup_refuses_the_int64_minimum(self, lattice_series):
        # |-2^63| wraps to -2^63 in int64, which would pass the range check
        with pytest.raises(KeyError):
            _stored_values(lattice_series, [[-2**63, 0, 0, 0]])

    def test_lookup_stays_inside_the_radius(self, lattice_series):
        series = lattice_series
        assert series.radius == 4
        # the row table would alias these to rows of the series without
        # the range check
        with pytest.raises(KeyError):
            series.coefficient([5, 0, 0, 0])
        with pytest.raises(KeyError):
            _stored_values(series, [[0, 0, 0, 0], [0, 0, 0, -5]])
        assert series.coefficients.get((0, 0, 0, -5), "absent") == "absent"
        assert (0, 0, 0, -4) in series.coefficients
        # iteration is in grid order, the last index fastest
        keys = list(itertools.product(range(-4, 5), repeat=4))
        assert len(series.coefficients) == len(keys) == 9 ** 4
        assert list(series.coefficients) == keys
        items = list(series.coefficients.items())
        assert [k for k, _ in items] == keys
        assert [c for _, c in items] == series.values.tolist()
        assert series.coefficients[(1, -2, 3, -4)] == series.coefficient([1, -2, 3, -4])

    @pytest.mark.parametrize("radius", range(7))
    def test_negated_rows_match_the_row_lookup(self, lattice_emb, lattice_structure, radius):
        # values are in grid order: the index rows of the grid, last axis
        # fastest, are at positions 0, 1, ..., and -k at the mirrored
        # position, which the symmetry check reads as values[::-1]; each
        # stored value is its own position, so a lookup reads the positions
        n = (2 * radius + 1) ** 4
        series = QuantumThetaSeries(lattice_emb, lattice_structure, radius, 1.0,
                                    np.arange(n, dtype=complex))
        ks = series.indices
        assert ks.dtype == np.int64
        assert ks.tolist() == [list(k) for k in itertools.product(range(-radius, radius + 1),
                                                                  repeat=4)]
        np.testing.assert_array_equal(_stored_values(series, ks), np.arange(n))
        np.testing.assert_array_equal(_stored_values(series, -ks), np.arange(n)[::-1])

    @pytest.mark.parametrize("k", [(0.5, 0, 0, 0), (0.9, 0, 0, 0), (0, 0, 0, -3.5),
                                   (math.nan, 0, 0, 0), (math.inf, 0, 0, 0),
                                   (10**400, 0, 0, 0), ("1", 0, 0, 0), (None, 0, 0, 0)],
                             ids=["0.5", "0.9", "-3.5", "nan", "inf", "10**400", "str", "None"])
    def test_lookup_refuses_a_non_integral_index(self, lattice_series, k):
        # int() would truncate these to an index of the series; `in` must
        # agree with iteration, which yields integer tuples only
        with pytest.raises(KeyError):
            lattice_series.coefficient(k)
        assert k not in lattice_series.coefficients
        assert lattice_series.coefficients.get(k) is None
        assert (1.0, 0.0, 0.0, 0.0) in lattice_series.coefficients
        assert lattice_series.coefficient([1.0, 0, 0, 0]) == lattice_series.coefficient([1, 0, 0, 0])

    def test_series_does_not_read_the_finite_part(self, vector_config_path):
        # a vector config's finite_part reaches only the commutation suite
        # (README); carrying Manin's finite-group factor into C(k) has to
        # change this test
        raw = json.loads(vector_config_path.read_text())
        assert raw["embedding"]["finite_part"] == {"m1": 2, "n1": 1, "m2": 3, "n2": 2}
        bare = {key: value for key, value in raw["embedding"].items() if key != "finite_part"}
        tables, parts = [], []
        for embedding in (raw["embedding"], bare,
                          {**bare, "finite_part": {"m1": 5, "n1": 1, "m2": 7, "n2": 2}}):
            cfg = parse_config({**raw, "embedding": embedding})
            emb = cfg.build_embedding()
            parts.append(emb.finite_part and emb.finite_part.m1)
            series = quantum_theta_series(emb, cfg.build_structure(emb), radius=3)
            tables.append(series.values.tobytes())
        assert parts == [2, None, 5]
        assert tables[0] == tables[1] == tables[2]

    def test_normalizations(self, lattice_series, vector_series):
        assert lattice_series.normalization == pytest.approx(0.5)
        assert vector_series.normalization == pytest.approx(0.5)

    def test_reassembles_inner_product(self, lattice_series, lattice_structure):
        f = theta_vector(lattice_structure)
        for k in enumerate_indices(2):
            h = lattice_element(lattice_series.embedding, k)
            closed = inner_product_closed(f, h)
            assembled = lattice_series.normalization * lattice_series.coefficient(k)
            assert abs(assembled - closed) <= 1e-12 * max(abs(closed), 1e-30)

    @pytest.mark.parametrize("kind", ["lattice", "vector"])
    def test_reassembly_refuses_permuted_head_rows(self, kind, request):
        # a series holds its values in grid order; the check reads the 625
        # positions of the sup-norm-2 box in grid order too (enumerate_indices)
        # and refuses a permutation of them at the first index whose value
        # leaves the closed form, that is, its own value: indices of one
        # orbit share a value, so that index may lie past the first moved one
        series = request.getfixturevalue(f"{kind}_series")
        ks = enumerate_indices(2)
        side = 2 * series.radius + 1
        at = np.ravel_multi_index(tuple((ks + series.radius).T), (side,) * 4)
        assert sorted(at.tolist()) == [p for p, k in enumerate(series.indices.tolist())
                                       if max(map(abs, k)) <= 2]
        perm = np.random.default_rng(7).permutation(625)
        values = series.values.copy()
        values[at] = values[at[perm]]
        permuted = QuantumThetaSeries(series.embedding, series.structure, series.radius,
                                      series.normalization, values)
        head = series.values[at]
        left = np.abs(values[at] - head) > qtheta_mod.REASSEMBLY_REL_TOL * np.abs(head)
        assert left.any()
        assert qtheta_mod._reassembly_failure(series) is None
        assert qtheta_mod._reassembly_failure(permuted) == qtheta_mod._label(
            ks[np.argmax(left)]) == "-2,-2,-2,-2"

    @pytest.mark.parametrize("shape", [(9 ** 4 - 1,), (9 ** 4 + 1,), (9 ** 4, 1), (),
                                       (9, 9, 9, 9)])
    def test_series_refuses_values_of_another_shape(self, lattice_series, shape):
        series = lattice_series
        with pytest.raises(ValueError, match=re.escape(
                f"values of shape {shape} are not the (6561,) rows of radius 4")):
            QuantumThetaSeries(series.embedding, series.structure, series.radius,
                               series.normalization, np.zeros(shape, dtype=complex))

    def test_oracle_matches_scaled_coefficients(self, lattice_series, lattice_structure):
        f = theta_vector(lattice_structure)
        rng = np.random.default_rng(4)
        for _ in range(12):
            k = rng.integers(-2, 3, size=4)
            h = lattice_element(lattice_series.embedding, k)
            oracle = inner_product_oracle(f, h, 1e-10)
            scaled = lattice_series.normalization * lattice_series.coefficient(k)
            assert abs(scaled - oracle) <= max(1e-8 * abs(oracle), 1e-15)

    def test_tail_bound_documented_radius(self, lattice_series, vector_series):
        # lattice decay is fast (documented radius 6); the plane series decays
        # like e^{-(pi/2) theta2^2 k3^2} along the slowest axis, radius ~12
        for series, cap in ((lattice_series, 6), (vector_series, 12)):
            r = series.radius
            while series_tail_bound(series, r) >= 1e-12:
                r += 1
            assert r <= cap
            assert series_tail_bound(series, r) < 1e-12

    def test_tail_bound_dominates_actual_tail(self, lattice_emb, lattice_structure):
        # the estimate must bound the directly summed coefficient ring
        small = quantum_theta_series(lattice_emb, lattice_structure, radius=2)
        big = quantum_theta_series(lattice_emb, lattice_structure, radius=4)
        ring = sum(abs(c) for k, c in big.coefficients.items()
                   if max(abs(v) for v in k) > 2)
        assert ring <= series_tail_bound(small)

    def test_radius_validation(self, lattice_emb, lattice_structure):
        with pytest.raises(ValueError):
            quantum_theta_series(lattice_emb, lattice_structure, radius=0)

    def test_coefficient_decay_fit(self, lattice_series, vector_series):
        # |coefficient(k)| <= e^{-c |k|^2} with a positive fitted rate
        for series in (lattice_series, vector_series):
            rates = [-math.log(abs(c)) / sum(v * v for v in k)
                     for k, c in series.coefficients.items() if any(k)]
            assert min(rates) > 0


def _translation(series, g, h) -> complex:
    """T_g(h), the quantum translation multiplier, from its logarithm."""
    return complex(np.exp(_log_translation(series, [g.k], [h.k])[3][0]))


def _row_coefficient_parts(emb, structure, ks):
    """The lattice coefficient parts over rows, the formula the plane route
    replaces: -(pi/2) H of each row's (w1, w2) and the mode product of each
    row's (m, t)."""
    parts = point_parts(emb, ks)
    pair = qtheta_mod._continuous(len(structure.T), parts)
    expo = -0.5 * math.pi * hermitian_form(HermitianFormContext(structure.T),
                                           pair, pair).real
    return expo, qtheta_mod._mode_products(parts, 1.0 / structure.lattice_decay)


def _plane_case(name, lattice_emb, lattice_structure):
    if name == "fixture":
        return lattice_emb, lattice_structure
    if name == "m2111":
        emb = build_embedding(EmbeddingKind.LATTICE, 0.5, m=[[2, 1], [1, 1]],
                              delta_hat=[[0.25, 0.25], [-0.5, -0.25]])
        return emb, structure_from_tau(emb, [0.3, 0.2])
    emb = _random_lattice_embedding(np.random.default_rng(int(name.split("-")[1])))
    return emb, structure_from_tau(emb, [0.3, 1.0], lattice_decay=1.0)


class TestPlaneRoute:
    @pytest.mark.parametrize("name", ["fixture", "m2111", "random-1", "random-2", "random-6"])
    def test_plane_route_equals_the_row_formula(self, name, lattice_emb, lattice_structure):
        emb, structure = _plane_case(name, lattice_emb, lattice_structure)
        ks = embedding_mod.enumerate_indices(4)  # the series' grid order
        expo, site = qtheta_mod._coefficient_parts(emb, structure, ks)
        ref_expo, ref_site = _row_coefficient_parts(emb, structure, ks)
        assert expo.tobytes() == ref_expo.tobytes()
        assert site.tobytes() == ref_site.tobytes()
        series = quantum_theta_series(emb, structure, radius=4)
        assert series.values.tobytes() == _cmul(ref_site, np.exp(ref_expo)).tobytes()

    @pytest.mark.parametrize("name", ["fixture", "off-diagonal-tau", "non-canonical-tau"])
    def test_vector_series_equals_the_row_formula(self, name, vector_config, monkeypatch):
        # the vector series runs H once per plane point and builds no per-row
        # pair; under a diagonal T its values equal e^{-(pi/2) Re H} of each
        # decoded row's pair bit for bit, under an off-diagonal T the two lie
        # within twice the bound each keeps to the exact value
        non_canonical = _non_canonical_config("vector").raw["structure"]["tau"]
        changes = {"fixture": {}, "off-diagonal-tau": OFF_DIAGONAL_TAU,
                   "non-canonical-tau": {"tau": non_canonical}}
        emb, structure = _vector_setup(vector_config, **changes[name])
        ks = embedding_mod.enumerate_indices(4)  # the series' grid order
        pair = point_parts(emb, ks)
        ref_expo = -0.5 * math.pi * hermitian_form(HermitianFormContext(structure.T),
                                                   pair, pair).real
        expo, site = qtheta_mod._coefficient_parts(emb, structure, ks)
        assert expo.tobytes() == ref_expo.tobytes() and not np.any(site != 1.0)
        sizes, original = [], qtheta_mod.point_parts
        monkeypatch.setattr(qtheta_mod, "point_parts",
                            lambda e, k: sizes.append(len(k)) or original(e, k))
        monkeypatch.setattr(qtheta_mod, "_reassembly_failure", lambda series: None)
        series = quantum_theta_series(emb, structure, radius=4)
        # one call per plane, (2r+1)^2 points each, and one on the four basis rows
        assert sizes == [81, 81, 4]
        row = np.exp(ref_expo)
        if name == "fixture":
            assert series.values.tobytes() == row.astype(complex).tobytes()
        else:
            assert not np.any(series.values.imag)
            bound = vector_relative_bound(emb, structure, ref_expo)
            assert np.all(np.abs(series.values.real - row) <= 2.02 * bound * row)

    @pytest.mark.parametrize("radius", [3, 6])
    def test_mode_factor_runs_per_plane_point(self, radius, lattice_emb, lattice_structure,
                                              monkeypatch):
        # one mode_factor call per _mode_products call, handed at most
        # (2r+1)^2 distinct (t, m) pairs per axis: one per point of the
        # (k3, k4) plane; the radius-2 reassembly is left out of the count
        pairs, tables = [], []
        factor, products = qtheta_mod.mode_factor, qtheta_mod._mode_products
        monkeypatch.setattr(qtheta_mod, "mode_factor", lambda t, m, theta2: pairs.append(
            np.broadcast(t, m).size) or factor(t, m, theta2))
        monkeypatch.setattr(qtheta_mod, "_mode_products",
                            lambda *a: tables.append(a) or products(*a))
        monkeypatch.setattr(qtheta_mod, "_reassembly_failure", lambda series: None)
        quantum_theta_series(lattice_emb, lattice_structure, radius=radius)
        assert len(pairs) == len(tables) == 1
        assert 0 < pairs[0] <= 2 * (2 * radius + 1) ** 2


class TestFactors:
    def test_translation_by_zero(self, lattice_series, vector_series):
        zero = lattice_element(lattice_series.embedding, [0, 0, 0, 0])
        h = lattice_element(lattice_series.embedding, [1, 2, 0, -1])
        # the lattice-kind zero translation rescales by 1/C(0), not 1
        got = _translation(lattice_series, zero, h)
        assert got == pytest.approx(1.0 / lattice_series.coefficient([0, 0, 0, 0]))
        zv = lattice_element(vector_series.embedding, [0, 0, 0, 0])
        hv = lattice_element(vector_series.embedding, [1, 2, 0, -1])
        assert _translation(vector_series, zv, hv) == pytest.approx(1.0)

    def test_lattice_quotient_construction(self, lattice_series):
        emb = lattice_series.embedding
        rng = np.random.default_rng(9)
        for _ in range(10):
            kg, kh = rng.integers(-2, 3, size=(2, 4))
            g, h = lattice_element(emb, kg), lattice_element(emb, kh)
            lhs = (lattice_series.coefficient(kg) * lattice_series.coefficient(kh)
                   * complex(np.exp(1j * math.pi * _paired_exponent(emb, kg, kh)))
                   * _translation(lattice_series, g, h))
            rhs = lattice_series.coefficient(kg + kh)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestFunctionalEquation:
    def test_vector_generators(self, vector_series):
        for j in range(4):
            rep = verify_functional_equation(vector_series, np.eye(4, dtype=int)[j])
            assert rep.passed
            assert rep.max_residual <= 1e-9

    def test_lattice_generators(self, lattice_series):
        for j in range(4):
            rep = verify_functional_equation(lattice_series, np.eye(4, dtype=int)[j])
            assert rep.passed
            assert rep.max_residual <= 1e-12

    def test_zero_translation(self, lattice_series, vector_series):
        for series in (lattice_series, vector_series):
            rep = verify_functional_equation(series, [0, 0, 0, 0])
            assert rep.max_residual <= 1e-12

    def test_interior_window_counts(self, vector_series):
        rep = verify_functional_equation(vector_series, [1, 0, 0, 0])
        assert len(rep.residuals) == 7 ** 4

    def test_labels_are_formatted_only_for_printed_elements(
            self, vector_emb, vector_structure, monkeypatch):
        series = quantum_theta_series(vector_emb, vector_structure, radius=8)
        label, calls = qtheta_mod._label, []

        def counting_label(k):
            calls.append(k)
            return label(k)

        monkeypatch.setattr(qtheta_mod, "_label", counting_label)
        rep = verify_functional_equation(series, [1, 0, 0, 0])
        # the printed elements plus the check's own name
        assert len(calls) <= qtheta_mod.MAX_SERIALIZED_ELEMENTS + 1
        assert len(rep.labels) == qtheta_mod.MAX_SERIALIZED_ELEMENTS
        assert len(rep.residuals) == 15 ** 4

    def test_radius_guard(self, vector_series):
        with pytest.raises(TruncationTooSmall):
            verify_functional_equation(vector_series, [3, 0, 0, 0])

    def test_radius_guard_reads_the_int64_minimum(self, vector_series):
        # |-2^63| wraps to -2^63 in int64, which would pass the guard
        with pytest.raises(TruncationTooSmall, match="9223372036854775808 exceeds"):
            verify_functional_equation(vector_series, [-2**63, 0, 0, 0])


@pytest.mark.parametrize("check, ks", [
    pytest.param(verify_functional_equation, ([0.9, 0, 1.5, 0],), id="functional-equation"),
    pytest.param(additivity_gap, ([0, 0, 1.7, 0], [0, 0, 1, 0], [0, 0, 0, 1.2]),
                 id="additivity"),
    pytest.param(verify_consistency_condition, ([0.5, 0, 0, 0], [0, 0, 0, 1]),
                 id="consistency"),
])
def test_translation_checks_refuse_a_non_integral_index(lattice_series, check, ks):
    # int64 would truncate each index and check the integral one in its place
    with pytest.raises(ValueError, match="integer entries"):
        check(lattice_series, *ks)


def phase_sweep_residual(emb, structure, radius):
    """Reference: the phase identity defect swept over every pair of the radius,
    PAIR_SWEEP_BLOCK left rows at a time."""
    ks = enumerate_indices(radius)
    ctx = HermitianFormContext(structure.T)
    x1, x2 = qtheta_mod._continuous(len(structure.T), point_parts(emb, ks))
    worst = 0.0
    for lo in range(0, len(ks), PAIR_SWEEP_BLOCK):
        rows = slice(lo, lo + PAIR_SWEEP_BLOCK)
        h_mat = hermitian_form(ctx, (x1[rows, None], x2[rows, None]), (x1[None], x2[None]))
        expo = pairing_exponent_table(emb, ks[rows], ks)
        worst = max(worst, float(np.max(np.abs(
            np.exp(1j * math.pi * h_mat.imag) - np.exp(1j * math.pi * expo)))))
    return worst


OFF_DIAGONAL_TAU = {"theta1": 0.7, "theta2": 1.3,
                    "tau": [[[0.2, 0.9], [0.1, 0.3]],
                            [[0.053846153846153844, 0.16153846153846155], [0.4, 1.1]]]}


def _vector_setup(vector_config, theta1=None, theta2=None, tau=None):
    """Embedding and structure of the canonical vector config with the given changes."""
    data = copy.deepcopy(vector_config.raw)
    if theta1 is not None:
        data["embedding"].update(theta1=theta1, theta2=theta2)
    if tau is not None:
        data["structure"]["tau"] = tau
    cfg = parse_config(data)
    emb = cfg.build_embedding()
    return emb, cfg.build_structure(emb)


def _exact_inverse(structure):
    """(Im T)^{-1} at the current mpmath precision, from the float entries of T."""
    return mpmath.matrix(structure.T.imag.tolist()) ** -1


def vector_relative_bound(emb, structure, expo):
    """Bound on |C^/C - 1| for each vector coefficient C = e^E of exponent E in ``expo``.

    E = -(pi/2) Re H(k_, k_) = -(pi/2) k^T Q k, with Q_ij = Re H(p_i, p_j) on
    the basis pairs p_i (the columns of ``entries``, exact floats), H formed
    from the float entries of T and the exact W = (Im T)^{-1}. The series
    forms Re H(a_, a_) + X + Re H(b_, b_) for the row k = a + b, a on the
    (k1, k2) plane and b on (k3, k4), and X = a^T (2 Re B) b with B the
    (k1, k2) x (k3, k4) block of the basis form. Let u be the unit roundoff,
    Lambda_ij = G(p_i)^T |W| G(p_j) (:func:`hermitian_form_bound`), S(k) =
    |k|^T Lambda |k| = S_aa + 2 S_ab + S_bb, and eps_W the largest relative
    error of an entry of the computed inverse. To first order in u:

    * Re H(a_, a_): point_parts rounds each coordinate once (2 u, one per
      slot of H), T x1 + x2 rounds by gamma_3 and the einsum by 2 gamma_3
      (the account of :func:`phase_identity_max_residual`), the inverse by
      eps_W: (14 u + eps_W) G(a)^T |W| G(a) <= (14 u + eps_W) S_aa, since
      G(a) <= sum_i |a_i| G(p_i). The same for b.
    * X: each B_ij is off by (12 u + eps_W) Lambda_ij (exact coordinates),
      and the elementwise sum a^T (2 Re B) b rounds four times, gamma_4
      |a|^T |2 B| |b| with |B_ij| <= Lambda_ij: (16 u + eps_W) 2 S_ab.
    * The two additions of the outer sum add u S(k) each, and the product
      with fl(-pi/2) 2 u |E|.

    So the computed exponent is off by at most (pi/2) (18 u + eps_W) S(k) +
    2 u |E|; the row formula, one einsum over the whole row, by (14 u +
    eps_W) in place of 18 u. S(k) <= lambda_max(Lambda) |k|^2 and k^T Q k >=
    lambda_min(Q) |k|^2, so with kappa = lambda_max(Lambda) / lambda_min(Q),
    S(k) <= kappa (2/pi) |E|, and the exponent is off by at most

        delta = ((18 u + eps_W) kappa + 2 u) |E|.

    np.exp rounds within 2 u, so |C^/C - 1| <= (e^delta - 1)(1 + 2 u) + 2 u
    <= 1.01 (delta + 2 u) while delta < 0.01; the factor 1.01 also covers
    the terms of order u^2 and the rounding of kappa, Lambda and Q here.
    """
    form, ctx, (x1, x2) = qtheta_mod._basis_form(emb, structure)
    lam = hermitian_form_bound(ctx, (x1[:, None], x2[:, None]), (x1[None], x2[None]))
    kappa = np.linalg.eigvalsh(lam).max() / np.linalg.eigvalsh(form.real).min()
    with mpmath.workdps(50):
        exact = _exact_inverse(structure)
        eps_w = max(abs(a - exact[i, j]) / abs(exact[i, j]) if exact[i, j] else
                    (0.0 if a == 0 else math.inf) for (i, j), a in np.ndenumerate(ctx.im_inverse))
    delta = ((18 * _UNIT_ROUNDOFF + float(eps_w)) * kappa + 2 * _UNIT_ROUNDOFF) * np.abs(expo)
    assert np.all(delta < 0.01)
    return 1.01 * (delta + 2 * _UNIT_ROUNDOFF)


def _reference_exponents(emb, structure, ks):
    """-(pi/2) Re H(k_, k_) of each index row at 50 digits: from the float
    entries of T and of the embedding, read as exact binary numbers, and
    the exact (Im T)^{-1}."""
    with mpmath.workdps(50):
        t = [[mpmath.mpc(z) for z in row] for row in structure.T.tolist()]
        w = _exact_inverse(structure)
        entries = [[mpmath.mpf(e) for e in row] for row in emb.entries.tolist()]
        out = []
        for k in ks.tolist():
            x = [mpmath.fsum(e * kj for e, kj in zip(row, k)) for row in entries]
            g = [t[i][0] * x[0] + t[i][1] * x[1] + x[2 + i] for i in range(2)]
            re_h = mpmath.fsum(w[i, j] * (g[i].real * g[j].real + g[i].imag * g[j].imag)
                               for i in range(2) for j in range(2))
            out.append(-mpmath.pi / 2 * re_h)
    return out


class TestVectorReference:
    @pytest.mark.parametrize("name", ["fixture", "off-diagonal-tau"])
    def test_sampled_rows_within_the_bound(self, name, vector_config):
        # 1,000 seeded rows of the r=8 table and up to 500 of the rows whose
        # bits differ from the row formula, against a 50-digit reference
        emb, structure = _vector_setup(
            vector_config, **{"fixture": {}, "off-diagonal-tau": OFF_DIAGONAL_TAU}[name])
        series = quantum_theta_series(emb, structure, radius=8)
        ks = series.indices
        pair = point_parts(emb, ks)
        row = np.exp(-0.5 * math.pi * hermitian_form(HermitianFormContext(structure.T),
                                                     pair, pair).real)
        moved = np.flatnonzero(series.values.real != row)
        rng = np.random.default_rng(8)
        rows = np.union1d(rng.choice(len(ks), 1000, replace=False),
                          rng.choice(moved, min(moved.size, 500), replace=False))
        expo = _reference_exponents(emb, structure, ks[rows])
        bound = vector_relative_bound(emb, structure, np.array([abs(float(e)) for e in expo]))
        values = series.values[rows]
        assert not np.any(values.imag)
        # the exponent of the rows of sup norm >= 3 scaled by 1 + 1e-12, which
        # the bound must catch
        mutant = values.real * np.exp(1e-12 * np.array([float(e) for e in expo])
                                      * (np.abs(ks[rows]).max(axis=1) >= 3))
        with mpmath.workdps(50):
            exact = [mpmath.exp(e) for e in expo]
            errors, mutant_errors = ([float(abs(mpmath.mpf(v) / c - 1)) for v, c in zip(x, exact)]
                                     for x in (values.real.tolist(), mutant.tolist()))
        assert min(exact) > np.finfo(float).tiny  # every sampled value is a normal double
        assert np.all(np.array(errors) <= bound)
        assert np.any(np.array(mutant_errors) > bound)


@pytest.mark.parametrize("which", ["d1", "diagonal-d2", "off-diagonal-d2"])
def test_self_pairing_equals_the_pairing_of_a_copy(which, lattice_structure, vector_config):
    # H(g, g) embeds g once; the pairing of g with a copy embeds it twice
    if which == "d1":
        t = lattice_structure.T
    elif which == "diagonal-d2":
        t = _vector_setup(vector_config)[1].T
    else:
        t = _vector_setup(vector_config, **OFF_DIAGONAL_TAU)[1].T
    ctx = HermitianFormContext(t)
    if which == "diagonal-d2":
        assert ctx.T[0, 1] == ctx.T[1, 0] == 0
    rng = np.random.default_rng(41)
    g = tuple(rng.uniform(-12, 12, (2, 1000, len(ctx.T))))
    same = hermitian_form(ctx, g, g)
    copied = hermitian_form(ctx, g, (g[0].copy(), g[1].copy()))
    assert same.shape == (1000,) and same.tobytes() == copied.tobytes()


PHASE_CONFIGS = {"canonical": {}, "theta-20.3-18.5": {"theta1": 20.3, "theta2": 18.5},
                 "off-diagonal-tau": OFF_DIAGONAL_TAU}


class TestConsistency:
    def test_phase_identity_vector(self, vector_emb, vector_structure):
        assert phase_identity_max_residual(vector_emb, vector_structure, 2) <= 1e-10

    def test_phase_identity_fails_on_lattice(self, lattice_emb, lattice_structure):
        # the pairing sees the discrete part, the Hermitian form does not
        assert phase_identity_max_residual(lattice_emb, lattice_structure, 1) > 0.1
        defect, pair = qtheta_mod._phase_basis_defect(lattice_emb, lattice_structure)
        assert defect > 0.1
        assert pair[0] > 2 or pair[1] > 2  # a pair that reads a discrete coordinate

    @pytest.mark.parametrize("radius", [1, 2])
    @pytest.mark.parametrize("name", list(PHASE_CONFIGS))
    def test_phase_certificate_bounds_the_sweep(self, name, radius, vector_config):
        emb, structure = _vector_setup(vector_config, **PHASE_CONFIGS[name])
        reference = phase_sweep_residual(emb, structure, radius)
        certified = phase_identity_max_residual(emb, structure, radius)
        assert reference <= certified <= 1e-10
        # the witness is a pair of the sweep, so it never exceeds it by more than rounding
        assert qtheta_mod._phase_basis_defect(emb, structure)[0] <= reference + 1e-15

    def test_phase_certificate_fails_on_a_scaled_entry_of_t(self, vector_config):
        # T_12 != T_21 breaks the symmetry of Im T that the identity needs
        emb, structure = _vector_setup(vector_config, **OFF_DIAGONAL_TAU)
        scale = np.ones((2, 2))
        scale[0, 1] = 1.5
        broken = dataclasses.replace(structure, T=structure.T * scale)
        defect, _ = qtheta_mod._phase_basis_defect(emb, broken)
        reference = phase_sweep_residual(emb, broken, 2)
        certified = phase_identity_max_residual(emb, broken, 2)
        assert 1e-10 < defect <= reference + 1e-15
        assert reference <= certified

    def test_phase_certificate_is_fast(self, vector_emb, vector_structure):
        phase_identity_max_residual(vector_emb, vector_structure, 2)  # warm caches
        timings = []
        for _ in range(5):
            start = time.perf_counter()
            phase_identity_max_residual(vector_emb, vector_structure, 2)
            timings.append(time.perf_counter() - start)
        assert min(timings) < 1e-3

    def test_suite_forms_no_pair_table(self, vector_config, monkeypatch):
        # the 4x4 basis table and the 50 pairs are the largest pairings the
        # suite forms; a self-pairing of the series rows (g is h) is no table
        sizes = {"hermitian_form": [], "_paired_exponent": []}

        def counted(module, name, size_of):
            original = getattr(module, name)

            def wrapper(first, g, h, *args):
                if g is not h:
                    sizes[name].append(math.prod(size_of(g, h)))
                return original(first, g, h, *args)
            monkeypatch.setattr(module, name, wrapper)

        def pair_size(g, h):
            return np.broadcast_shapes(np.shape(g[0])[:-1], np.shape(h[0])[:-1])

        def index_size(g, h):
            return np.broadcast_shapes(np.shape(g)[:-1], np.shape(h)[:-1])

        counted(qtheta_mod, "hermitian_form", pair_size)
        counted(qtheta_mod, "_paired_exponent", index_size)
        counted(embedding_mod, "_paired_exponent", index_size)
        checks = run_suite(vector_config, "consistency").checks
        assert [c.name for c in checks] == ["phase-identity", "consistency-condition"]
        assert all(c.passed for c in checks)
        assert checks[0].metadata == {"basis_defect": 0.0, "basis_pair": [1, 1]}
        assert max(sizes["hermitian_form"]) == max(sizes["_paired_exponent"]) == 50
        assert 16 in sizes["hermitian_form"]

    def test_condition_reports(self, lattice_series, vector_series):
        rng = np.random.default_rng(31)
        for series, tol in ((vector_series, 1e-10), (lattice_series, 1e-12)):
            for _ in range(25):
                kg, kh = rng.integers(-2, 3, size=(2, 4))
                rep = verify_consistency_condition(series, kg, kh)
                assert rep.passed
                assert rep.max_residual <= tol

    def test_zero_pair(self, vector_series):
        z = [0, 0, 0, 0]
        rep = verify_consistency_condition(vector_series, z, z)
        assert rep.max_residual <= 1e-14


class TestAdditivity:
    def test_vector_always_additive(self, vector_series):
        rng = np.random.default_rng(77)
        for _ in range(100):
            k1, k2, k3 = rng.integers(-2, 3, size=(3, 4))
            gap = additivity_gap(vector_series, k1, k2, k3)
            assert gap <= 1e-12

    def test_lattice_witness_gap(self, lattice_series, regen_golden, lattice_config):
        g, h = [0, 0, 1, 0], [0, 0, 0, 1]
        gap = additivity_gap(lattice_series, g, g, h)
        assert gap > 0.01
        payload = {"config_hash": lattice_config.content_hash(),
                   "witness": "g1=g2=(0,0,1,0) h=(0,0,0,1)",
                   "gap": gap}
        name = "additivity_witness.json"
        if regen_golden or not (GOLDEN_DIR / name).exists():
            save_golden(name, payload)
        golden = load_golden(name)
        assert golden["config_hash"] == payload["config_hash"]
        assert gap == pytest.approx(golden["gap"], rel=1e-12)

    def test_pure_continuous_directions_measured(self, lattice_series):
        # no claim either way; the gaps are measured and must be finite
        rng = np.random.default_rng(13)
        gaps = []
        for _ in range(10):
            ks = np.zeros((3, 4), dtype=np.int64)
            ks[:2, :2] = rng.integers(-2, 3, size=(2, 2))
            ks[2] = rng.integers(-2, 3, size=4)
            gaps.append(additivity_gap(lattice_series, *ks))
        assert all(math.isfinite(g) for g in gaps)


@pytest.fixture(scope="module", params=["lattice", "vector", "vector-off-diagonal"])
def translation_series(request, vector_config):
    if request.param == "vector-off-diagonal":
        # off-diagonal tau, where a matmul embedding would round by row count
        data = copy.deepcopy(vector_config.raw)
        data["structure"]["tau"] = [[[0.1, 0.5], [0.04, 0.08]], [[0.05, 0.1], [0.02, 0.4]]]
        cfg = parse_config(data)
        emb = cfg.build_embedding()
        return quantum_theta_series(emb, cfg.build_structure(emb), radius=4)
    return request.getfixturevalue(f"{request.param}_series")


class TestTranslationRows:
    TRIPLES = np.moveaxis(np.random.default_rng(18).integers(-2, 3, size=(200, 3, 4)), 1, 0)

    def test_log_translation_rows_match_one_row_calls(self, translation_series):
        kg, _, kh = self.TRIPLES
        rows = np.stack(_log_translation(translation_series, kg, kh), axis=-1)
        ones = np.array([[part[0] for part in _log_translation(translation_series, [g], [h])]
                         for g, h in zip(kg, kh)])
        assert rows.shape == (200, 4)
        assert rows.view(np.uint64).tolist() == ones.view(np.uint64).tolist()

    def test_additivity_rows_match_one_triple_calls(self, translation_series):
        gaps = additivity_gap(translation_series, *self.TRIPLES)
        ones = [additivity_gap(translation_series, *ks) for ks in zip(*self.TRIPLES)]
        assert all(type(one) is float for one in ones)
        assert gaps.shape == (200,)
        assert gaps.tolist() == ones

    def test_consistency_rows_match_one_pair_reports(self, translation_series):
        kg, _, kh = self.TRIPLES
        rep = verify_consistency_condition(translation_series, kg, kh)
        ones = [verify_consistency_condition(translation_series, g, h) for g, h in zip(kg, kh)]
        per_pair = 2 if translation_series.kind is EmbeddingKind.VECTOR_SPACE else 1
        assert all(len(one.residuals) == per_pair for one in ones)
        assert len(rep.residuals) == 200 * per_pair
        assert rep.max_residual == max(one.max_residual for one in ones)
        assert rep.passed

    @pytest.mark.parametrize("kind, additivity_calls", [("lattice", 2), ("vector", 1)])
    def test_suites_make_one_call_over_rows(self, kind, additivity_calls, request,
                                            monkeypatch):
        import nctheta.report as report_mod

        calls = []
        for name in ("verify_consistency_condition", "additivity_gap"):
            real = getattr(report_mod, name)

            def wrapper(*args, _real=real, _name=name):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(report_mod, name, wrapper)
        cfg = request.getfixturevalue(f"{kind}_config")
        assert all(c.passed for c in run_suite(cfg, "consistency").checks)
        assert calls == ["verify_consistency_condition"]
        calls.clear()
        assert all(c.passed for c in run_suite(cfg, "additivity").checks)
        assert calls == ["additivity_gap"] * additivity_calls


def test_translation_suites_read_negative_mode_products(lattice_config, monkeypatch):
    # the real mode product is negative at some rows; the translations take
    # its complex logarithm, so the suites that read them pass on the
    # canonical lattice at radius 4 without a numpy warning
    sites = []
    real = qtheta_mod._coefficient_parts

    def recording(*args):
        expo, site = real(*args)
        sites.append(site)
        return expo, site
    monkeypatch.setattr(qtheta_mod, "_coefficient_parts", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for suite in ("functional-equation", "consistency", "additivity"):
            report = run_suite(lattice_config, suite)
            assert report.passed, report.summary()
    assert min(float(site.min()) for site in sites) < 0
