"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines; a plain `pytest` run enforces the same assertions silently.
"""

import cmath
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import load_golden
from nctheta.embedding import (
    EmbeddingKind,
    FinitePart,
    build_embedding,
    commutation_matrix,
    enumerate_indices,
    lattice_element,
)
from nctheta.heisenberg import (
    connection_commutator_residual,
    default_finite_vector,
    measure_commutation_phases,
    sample_vector,
    theta_test_vector,
)
from nctheta.qtheta import (
    additivity_gap,
    inner_product_closed,
    inner_product_oracle,
    phase_identity_max_residual,
    quantum_theta_series,
    verify_consistency_condition,
    verify_functional_equation,
)
from nctheta.special import HermitianFormContext, completed_square_defect, jacobi_theta
from nctheta.structures import (
    holomorphic_feasibility,
    holomorphy_residual,
    theta_vector,
)

ORACLE_REL = 1e-8
ORACLE_ABS_FLOOR = 1e-15


def _report(number: int, text: str):
    print(f"[PASS] criterion {number}: {text}")


@pytest.fixture(scope="module")
def both(lattice_emb, vector_emb, lattice_structure, vector_structure):
    return ((lattice_emb, lattice_structure), (vector_emb, vector_structure))


def test_criterion_01_oracle_equivalence(both):
    started = time.perf_counter()
    worst = 0.0
    for emb, structure in both:
        f = theta_vector(structure)
        for k in enumerate_indices(2):
            h = lattice_element(emb, k)
            closed = inner_product_closed(f, h)
            oracle = inner_product_oracle(f, h, ORACLE_REL / 100.0)
            defect = abs(closed - oracle)
            assert defect <= max(ORACLE_REL * abs(oracle), ORACLE_ABS_FLOOR), k
            worst = max(worst, defect / max(abs(oracle), ORACLE_ABS_FLOOR / ORACLE_REL))
    elapsed = time.perf_counter() - started
    assert elapsed <= 60.0
    _report(1, f"closed vs oracle on 2x625 indices, worst rel {worst:.2e},"
               f" {elapsed:.1f}s <= 60s")


def test_criterion_02_computational_lemma():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(10):
        t = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.2, 5.0))
        ctx = HermitianFormContext(t)
        for _ in range(100):
            w = rng.uniform(-3.0, 3.0, size=2)
            worst = max(worst, float(completed_square_defect(ctx, (w[:1], w[1:]))))
    assert worst <= 1e-12
    _report(2, f"completed square equals H/2, worst defect {worst:.2e} <= 1e-12"
               " over 100 w x 10 T")


def test_criterion_03_commutation_phases(lattice_emb):
    worst = 0.0
    fp = FinitePart(m1=2, n1=1, m2=3, n2=2)
    finite_emb = build_embedding(EmbeddingKind.VECTOR_SPACE, 0.5, 0.4,
                                 finite_part=fp)
    plain_vec = build_embedding(EmbeddingKind.VECTOR_SPACE, 0.5, 0.4)
    cases = [
        (lattice_emb, None),
        (plain_vec, None),
        (finite_emb, default_finite_vector(fp)),
    ]
    for emb, fin in cases:
        f = sample_vector(theta_test_vector(emb), step=1 / 16, finite_vector=fin)
        theta = commutation_matrix(emb)
        for i in range(1, 5):
            for j in range(1, 5):
                got = measure_commutation_phases(emb, [(i, j)], f)[0]
                worst = max(worst, abs(got - theta.phase(i, j)))
    assert worst <= 1e-9
    _report(3, f"measured operator phases match e^(2 pi i theta_ij), worst"
               f" {worst:.2e} <= 1e-9 (both embeddings + finite factor)")


def test_criterion_04_connection_contract(both):
    worst = 0.0
    for emb, _ in both:
        f = theta_test_vector(emb)
        for i in range(1, 5):
            for j in range(1, 5):
                worst = max(worst, connection_commutator_residual(
                    emb, i, j, f, step=1e-3))
        refine = [connection_commutator_residual(emb, 2, 2, f, step=s)
                  for s in (4e-3, 2e-3, 1e-3)]
        assert refine[0] > refine[1] > refine[2]
    assert worst <= 1e-6
    _report(4, f"[nabla_i, U_j] = 2 pi i delta_ij U_j, worst residual"
               f" {worst:.2e} <= 1e-6 at step 1e-3; refinement decreases")


def test_criterion_05_holomorphy(both):
    worst = 0.0
    for emb, structure in both:
        f = theta_vector(structure)
        worst = max(worst, holomorphy_residual(f, structure, emb))
    assert worst <= 1e-8
    from dataclasses import replace

    emb, structure = both[0]
    bad = replace(theta_vector(structure), quadratic=structure.T + 1.0)
    control = holomorphy_residual(bad, structure, emb)
    assert control > 0.1
    _report(5, f"theta vectors are antiholomorphic, worst residual {worst:.2e}"
               f" <= 1e-8; negative control {control:.2f} > 0.1")


def test_criterion_06_nogo(lattice_emb):
    rng = np.random.default_rng(6)
    embeddings = [lattice_emb]
    while len(embeddings) < 5:
        m = rng.integers(-3, 4, size=(2, 2))
        det = int(m[0, 0]) * int(m[1, 1]) - int(m[0, 1]) * int(m[1, 0])
        if det <= 0:
            continue
        c = 0.25 / det
        delta = np.array([[m[1, 0] * c, m[1, 1] * c],
                          [-m[0, 0] * c, -m[0, 1] * c]])
        embeddings.append(build_embedding(EmbeddingKind.LATTICE, 0.5, m=m,
                                          delta_hat=delta))
    count = 0
    for _ in range(20):
        signs = rng.choice([-1.0, 1.0], size=(2, 2, 2))
        tau = (rng.uniform(0.3, 2.0, size=(2, 2)) * signs[..., 0]
               + 1j * rng.uniform(0.3, 2.0, size=(2, 2)) * signs[..., 1])
        for emb in embeddings:
            cert = holomorphic_feasibility(emb, tau)
            assert cert.forced_det == "0"
            assert cert.actual_det_b != 0
            assert cert.infeasible
            count += 1
    _report(6, f"symbolic det(b) = 0 certificates for {count} (tau, m) pairs,"
               " all infeasible")


def test_criterion_07_vector_phase_identity_and_functional(vector_emb,
                                                           vector_structure):
    phase_worst = phase_identity_max_residual(vector_emb, vector_structure, 2)
    assert phase_worst <= 1e-10
    series = quantum_theta_series(vector_emb, vector_structure, radius=4)
    rng = np.random.default_rng(7)
    fe_worst = 0.0
    kgs = [np.eye(4, dtype=np.int64)[i] for i in range(4)]
    kgs += list(rng.integers(-2, 3, size=(3, 4)))
    for kg in kgs:
        rep = verify_functional_equation(series, kg)
        assert rep.passed
        fe_worst = max(fe_worst, rep.max_residual)
    assert fe_worst <= 1e-9
    _report(7, f"phase identity worst {phase_worst:.2e} <= 1e-10 on radius-2"
               f" pairs; functional equation (independent multiplier) worst"
               f" {fe_worst:.2e} <= 1e-9")


def test_criterion_08_lattice_functional_and_consistency(lattice_emb,
                                                         lattice_structure):
    series = quantum_theta_series(lattice_emb, lattice_structure, radius=4)
    rng = np.random.default_rng(8)
    fe_worst = 0.0
    kgs = [np.eye(4, dtype=np.int64)[i] for i in range(4)]
    kgs += list(rng.integers(-2, 3, size=(3, 4)))
    for kg in kgs:
        rep = verify_functional_equation(series, kg)
        assert rep.passed
        fe_worst = max(fe_worst, rep.max_residual)
    cc_worst = 0.0
    for _ in range(50):
        kg, kh = rng.integers(-2, 3, size=(2, 4))
        rep = verify_consistency_condition(series, kg, kh)
        assert rep.passed
        cc_worst = max(cc_worst, rep.max_residual)
    _report(8, f"lattice functional equation worst {fe_worst:.2e} <= 1e-12;"
               f" consistency condition worst {cc_worst:.2e} <= 1e-12")


def test_criterion_09_additivity_dichotomy(lattice_emb, lattice_structure,
                                           vector_emb, vector_structure,
                                           lattice_config):
    vec_series = quantum_theta_series(vector_emb, vector_structure, radius=4)
    rng = np.random.default_rng(9)
    vec_worst = 0.0
    for _ in range(100):
        k1, k2, k3 = rng.integers(-2, 3, size=(3, 4))
        vec_worst = max(vec_worst, additivity_gap(vec_series, k1, k2, k3))
    assert vec_worst <= 1e-12

    lat_series = quantum_theta_series(lattice_emb, lattice_structure, radius=4)
    g, h = [0, 0, 1, 0], [0, 0, 0, 1]
    gap = additivity_gap(lat_series, g, g, h)
    assert gap > 0.01
    golden = load_golden("additivity_witness.json")
    assert golden["config_hash"] == lattice_config.content_hash()
    assert gap == pytest.approx(golden["gap"], rel=1e-12)
    _report(9, f"plane translations additive (worst gap {vec_worst:.2e} <= 1e-12);"
               f" lattice witness gap {gap:.6f} > 0.01 matches golden value")


def test_criterion_10_jacobi_theta():
    val = jacobi_theta(1j, 0.0, 1e-13)
    brute = sum(cmath.exp(1j * math.pi * 1j * n * n) for n in range(-40, 41))
    assert abs(val - brute) <= 1e-13
    assert abs(val - 1.086434811213308) <= 1e-12
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(50):
        tau = complex(rng.uniform(-2, 2), rng.uniform(0.5, 5))
        z = complex(rng.uniform(-2, 2), rng.uniform(-0.5, 0.5))
        base = jacobi_theta(tau, z)
        shifted = jacobi_theta(tau, z + tau)
        factor = cmath.exp(-1j * math.pi * tau - 2j * math.pi * z)
        scale = max(1.0, abs(shifted), abs(factor * base))
        worst = max(worst,
                    abs(jacobi_theta(tau, z + 1) - base) / max(1.0, abs(base)),
                    abs(shifted - factor * base) / scale,
                    abs(jacobi_theta(tau, -z) - base) / max(1.0, abs(base)))
    assert worst <= 1e-10
    _report(10, f"theta(i, 0) matches to 1e-12; quasi-periodicity and evenness"
                f" worst {worst:.2e} <= 1e-10 over 50 seeded (tau, z)")


def test_criterion_11_reproducibility(lattice_config_path, tmp_path, cli_env):
    out = tmp_path / "report.json"
    cmd = [sys.executable, "-m", "nctheta", "all",
           "--config", str(lattice_config_path),
           "--seed", "42", "--output", str(out)]
    first = subprocess.run(cmd, capture_output=True, text=True, cwd=tmp_path,
                           env=cli_env)
    assert first.returncode == 0, first.stderr + first.stdout
    blob_a = out.read_bytes()
    coeff_a = out.with_name("report.coefficients.json").read_bytes()
    second = subprocess.run(cmd, capture_output=True, text=True, cwd=tmp_path,
                            env=cli_env)
    assert second.returncode == 0, second.stderr + second.stdout
    assert out.read_bytes() == blob_a
    assert out.with_name("report.coefficients.json").read_bytes() == coeff_a
    _report(11, "two `nctheta all --seed 42` runs: exit 0, byte-identical"
                " report and coefficient export")
