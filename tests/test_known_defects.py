"""Known defects, one strict xfail each.

Each test asserts what the ROADMAP item it names gives as done, not what
the package does today, so it fails now and is marked
``xfail(strict=True)``: a change that mends the defect makes the test
XPASS, which fails the suite until that change removes the mark.
"""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import nctheta
from nctheta.config import parse_config
from nctheta.qtheta import _log_translation, quantum_theta_series
from nctheta.report import run_suite
from nctheta.special import mode_factor


def _config(base, radius=None, **sections):
    """BASE's config with each given section's entries replaced, at RADIUS."""
    raw = {**base.raw, **{name: {**base.raw[name], **entries}
                          for name, entries in sections.items()}}
    return parse_config(raw if radius is None else {**raw, "radius": radius})


def _errored(report) -> list:
    return [c.name for c in report.checks if c.name.endswith("(errored)")]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the canonical lattice quantum-theta"
                                       " overflows a theta term at r=16")
def test_lattice_quantum_theta_gets_a_verdict_at_radius_16(lattice_config):
    report = run_suite(_config(lattice_config, radius=16), "quantum-theta")
    assert _errored(report) == [] and report.passed


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: quantum-theta overflows a theta"
                                       " term on the m=[[2,1],[1,1]] config at r=6")
def test_non_canonical_lattice_quantum_theta_gets_a_verdict_at_radius_6(lattice_config):
    cfg = _config(lattice_config, radius=6,
                  embedding={"m": [[2, 1], [1, 1]], "delta_hat": [[0.25, 0.25], [-0.5, -0.25]]},
                  structure={"tau": [0.3, 0.2]})
    report = run_suite(cfg, "quantum-theta")
    assert _errored(report) == [] and report.passed


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: consistency errors with a vanishing"
                                       " mode product at lattice_decay=20")
def test_consistency_gets_a_verdict_at_lattice_decay_20(lattice_config):
    report = run_suite(_config(lattice_config, structure={"lattice_decay": 20}), "consistency")
    assert _errored(report) == [] and report.passed


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: functional-equation errors with a"
                                       " vanishing mode product on the canonical lattice at r=10")
def test_lattice_functional_equation_gets_a_verdict_at_radius_10(lattice_config):
    report = run_suite(_config(lattice_config, radius=10), "functional-equation")
    assert _errored(report) == [] and report.passed


def _zero_set(cfg, radius: int) -> np.ndarray:
    """Mask over the (k3, k4) plane points of the grid, in lexicographic
    order, where a mode factor mu(t, m) vanishes: m odd and t = 1/2 mod 1 on
    an axis, the zero of theta with the odd characteristic, in exact
    arithmetic from the config's m and delta_hat."""
    m = cfg.raw["embedding"]["m"]
    d = [[Fraction(str(x)) for x in row] for row in cfg.raw["embedding"]["delta_hat"]]
    return np.array([
        any((m[i][0] * k3 + m[i][1] * k4) % 2 == 1
            and (d[i][0] * k3 + d[i][1] * k4 - Fraction(1, 2)).denominator == 1
            for i in range(2))
        for k3, k4 in itertools.product(range(-radius, radius + 1), repeat=2)])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the canonical r=8 table holds"
                                       " noise, not 0, on its zero set")
def test_lattice_table_is_zero_on_its_zero_set(lattice_config):
    emb = lattice_config.build_embedding()
    series = quantum_theta_series(emb, lattice_config.build_structure(emb), radius=8)
    zero = _zero_set(lattice_config, 8)
    assert zero.sum() == 28
    plane = len(zero)
    # grid order: position a (2r+1)^2 + b holds (k1, k2) point a and (k3, k4) point b
    on_zero_set = series.values.reshape(plane, plane)[:, zero]
    assert on_zero_set.size == 8092
    assert not on_zero_set.any()


@pytest.mark.xfail(strict=True, reason="ROADMAP items 3 and 5: mode_factor x 1.5 at |m| >= 3"
                                       " passes every lattice check at r=4")
def test_scaled_mode_factor_fails_lattice_all(lattice_config, monkeypatch):
    def scaled(t, m, theta2):
        return mode_factor(t, m, theta2) * (1.5 if abs(m) >= 3 else 1.0)

    clean = run_suite(lattice_config, "quantum-theta").series.values
    for module in (nctheta, nctheta.qtheta, nctheta.special):
        monkeypatch.setattr(module, "mode_factor", scaled)
    report = run_suite(lattice_config, "all")
    assert not np.array_equal(report.series.values, clean)  # the mutant is live
    assert not report.passed


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: on the lattice kind T_0(h) = 1/C(0),"
                                       " not 1")
def test_translation_by_zero_is_the_identity(lattice_config, vector_config):
    for cfg in (lattice_config, vector_config):
        emb = cfg.build_embedding()
        series = quantum_theta_series(emb, cfg.build_structure(emb), radius=2)
        hs = nctheta.enumerate_indices(1)
        log_t = _log_translation(series, np.zeros((1, 4), dtype=np.int64), hs)[3]
        assert np.max(np.abs(np.exp(log_t) - 1.0)) <= 1e-15, cfg.raw["embedding"]["kind"]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: the quadrature oracle loses the"
                                       " cancelling integrals of tau=diag(0.05i, 0.04i)")
def test_small_tau_vector_passes_oracle_compare(vector_config):
    cfg = _config(vector_config,
                  structure={"tau": [[[0.0, 0.05], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.04]]]})
    assert run_suite(cfg, "oracle-compare").passed


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13: commutation errors as a whole where"
                                       " some phase masks are empty, at theta1=25.3")
def test_large_theta1_lattice_commutation_does_not_error(lattice_config):
    assert _errored(run_suite(_config(lattice_config, embedding={"theta1": 25.3}),
                              "commutation")) == []


_ITEM_7_CONFIGS = {
    "vector-theta-5-4": ("vector", {"embedding": {"theta1": 5, "theta2": 4},
                                    "structure": {"tau": [[[0.0, 5.0], [0.0, 0.0]],
                                                          [[0.0, 0.0], [0.0, 4.0]]]}}),
    "vector-theta-20.3-18.5": ("vector", {"embedding": {"theta1": 20.3, "theta2": 18.5}}),
    "lattice-theta1-25.3": ("lattice", {"embedding": {"theta1": 25.3}}),
    "lattice-decay-20": ("lattice", {"structure": {"lattice_decay": 20}}),
}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7: on these configs `all` errors, leaks"
                                       " numpy warnings or ends a check at inf")
@pytest.mark.parametrize("name", list(_ITEM_7_CONFIGS))
def test_large_deformation_all_gets_a_verdict_without_warnings(name, request):
    # every check reaches a verdict and no numpy warning leaks from `all` at
    # r=4; the warnings are recorded here, so they do not reach the suite's count
    kind, sections = _ITEM_7_CONFIGS[name]
    cfg = _config(request.getfixturevalue(f"{kind}_config"), **sections)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_suite(cfg, "all")
    assert _errored(report) == []
    assert [str(w.message) for w in caught] == []
    if name == "lattice-decay-20":
        (check,) = [c for c in report.checks if c.name == "discrete-direction-no-annihilation"]
        assert math.isfinite(check.max_residual)
