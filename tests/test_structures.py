import math
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctheta.embedding import EmbeddingKind, build_embedding
from nctheta.errors import (
    ConsistencyViolated,
    DegenerateTau,
    NotPositive,
)
from nctheta.report import _random_lattice_embedding
from nctheta.structures import (
    FORCED_DET,
    RELATIONS,
    connection_combo_residual,
    holomorphic_feasibility,
    holomorphy_residual,
    make_complex_structure,
    theta_vector,
)


class TestMakeStructure:
    def test_plane_entrywise_division(self):
        st_ = make_complex_structure(EmbeddingKind.VECTOR_SPACE,
                                     [[0.5j, 0], [0, 0.4j]], 0.5, 0.4)
        assert st_.kind is EmbeddingKind.VECTOR_SPACE
        assert np.allclose(st_.T, 1j * np.eye(2))

    def test_mixed_scalar_division(self):
        st_ = make_complex_structure(EmbeddingKind.LATTICE, 1j, 0.5, 0.4)
        assert st_.kind is EmbeddingKind.LATTICE
        assert np.array_equal(st_.T, [[2j]])
        assert st_.lattice_decay == pytest.approx(2.5)

    @pytest.mark.parametrize("kind, tau, theta1, theta2", [
        (EmbeddingKind.LATTICE, 0.3 + 0.2j, 2.9, 0.7),
        (EmbeddingKind.LATTICE, 0.1 + 0.7j, 0.3, 0.7),
        (EmbeddingKind.VECTOR_SPACE, [[0.1 + 0.5j, 0.04 + 0.08j], [0.05 + 0.1j, 0.02 + 0.4j]],
         0.5, 0.4),
    ], ids=["lattice-2.9", "lattice-0.3", "off-diagonal-vector"])
    def test_tau_is_the_one_given(self, kind, tau, theta1, theta2):
        # T times the thetas would move these in the last place
        st_ = make_complex_structure(kind, tau, theta1, theta2)
        assert st_.tau_matrix.tolist() == np.array(tau, dtype=complex).reshape(st_.T.shape).tolist()

    def test_rejects_asymmetric_omega(self):
        with pytest.raises(ConsistencyViolated):
            make_complex_structure(EmbeddingKind.VECTOR_SPACE,
                                   [[0.5j, 0.1], [0.0, 0.4j]], 0.5, 0.4)

    def test_rejects_nonpositive_imag(self):
        with pytest.raises(NotPositive):
            make_complex_structure(EmbeddingKind.LATTICE, 1.0 - 1j, 0.5, 0.4)
        with pytest.raises(NotPositive):
            make_complex_structure(EmbeddingKind.VECTOR_SPACE,
                                   [[0.5j, 0], [0, -0.4j]], 0.5, 0.4)
        with pytest.raises(NotPositive):
            make_complex_structure(EmbeddingKind.LATTICE, 1j, -0.5, 0.4)

    @pytest.mark.parametrize("kind, tau, theta1, decay, error", [
        pytest.param(EmbeddingKind.LATTICE, 1j, np.nan, None, NotPositive, id="nan-theta1"),
        pytest.param(EmbeddingKind.LATTICE, 1j, 0.5, np.inf, NotPositive, id="inf-decay"),
        pytest.param(EmbeddingKind.LATTICE, 1j, 0.5, np.nan, NotPositive, id="nan-decay"),
        pytest.param(EmbeddingKind.LATTICE, complex(0.0, np.inf), 0.5, None, ValueError,
                     id="inf-tau"),
        pytest.param(EmbeddingKind.VECTOR_SPACE, [[0.5j, 0], [0, complex(np.nan, 1)]], 0.5,
                     None, ValueError, id="nan-tau-matrix"),
    ])
    def test_rejects_nonfinite_parameters(self, kind, tau, theta1, decay, error):
        with pytest.raises(error, match="finite"):
            make_complex_structure(kind, tau, theta1, 0.4, lattice_decay=decay)

    def test_decay_refused_on_the_plane(self):
        with pytest.raises(ValueError, match="lattice kind only"):
            make_complex_structure(EmbeddingKind.VECTOR_SPACE, [[0.5j, 0], [0, 0.4j]],
                                   0.5, 0.4, lattice_decay=1.0)

    def test_custom_decay(self):
        st_ = make_complex_structure(EmbeddingKind.LATTICE, 1j, 0.5, 0.4,
                                     lattice_decay=1.7)
        assert st_.lattice_decay == 1.7

    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=80, deadline=None)
    def test_rejection_property(self, a, b, c, d):
        # accepted exactly when omega is symmetric with positive definite Im
        tau = np.array([[complex(a, b), complex(c, d)],
                        [complex(c, d) * 0.5 / 0.4, complex(a, 2 + abs(b))]])
        omega = tau / np.array([[0.5, 0.4], [0.5, 0.4]])
        sym_ok = abs(omega[0, 1] - omega[1, 0]) <= 1e-12
        pd_ok = bool((np.linalg.eigvalsh(omega.imag) > 0).all())
        try:
            make_complex_structure(EmbeddingKind.VECTOR_SPACE, tau, 0.5, 0.4)
            accepted = True
        except (ConsistencyViolated, NotPositive):
            accepted = False
        assert accepted == (sym_ok and pd_ok)


class TestThetaVector:
    @pytest.mark.parametrize("kind, tau, d", [
        (EmbeddingKind.LATTICE, 1j, 1),
        (EmbeddingKind.VECTOR_SPACE, [[0.5j, 0], [0, 0.4j]], 2),
    ], ids=["lattice", "vector"])
    def test_one_d_by_d_gaussian_on_both_kinds(self, kind, tau, d):
        st_ = make_complex_structure(kind, tau, 0.5, 0.4)
        assert st_.T.shape == (d, d)
        assert theta_vector(st_).quadratic.shape == (d, d)
        assert (theta_vector(st_).decay is None) == (kind is EmbeddingKind.VECTOR_SPACE)

    def test_plane_values(self, vector_structure):
        f = theta_vector(vector_structure)
        assert f.evaluate(0.0, 0.0) == pytest.approx(1.0)
        # exp(pi i S^t (iI) S) = exp(-pi |S|^2)
        assert f.evaluate(1.0, 1.0) == pytest.approx(math.exp(-2 * math.pi))

    def test_mixed_values(self, lattice_structure):
        f = theta_vector(lattice_structure)
        assert f.evaluate(0.5, 1, 0) == pytest.approx(
            math.exp(-0.5 * math.pi) * math.exp(-2.5 * math.pi))

    def test_norm_partial_sums_converge(self, lattice_structure):
        # documented radius: the discrete tail is dominated by
        # 8 (R+1) e^{-2 pi c (R+1)^2}, far below 1e-12 already at R = 3
        f = theta_vector(lattice_structure)
        c = lattice_structure.lattice_decay
        s = np.linspace(-6, 6, 4001)

        def partial(radius):
            n = np.arange(-radius, radius + 1)
            vals = np.abs(f.evaluate(*np.ix_(s, n, n))) ** 2
            return float(np.trapezoid(vals.sum(axis=(1, 2)), s))

        p3, p5 = partial(3), partial(5)
        assert abs(p5 - p3) <= 1e-12
        bound = 8 * 4 * math.exp(-2 * math.pi * c * 16)
        assert bound <= 1e-12
        # and the value matches the closed normalization 0.5 theta^2
        from nctheta.special import jacobi_theta
        expected = 0.5 * jacobi_theta(2j * c, 0.0).real ** 2
        assert p5 == pytest.approx(expected, rel=1e-6)


class TestHolomorphyResidual:
    def test_plane_both_equations(self, vector_emb, vector_structure):
        f = theta_vector(vector_structure)
        assert holomorphy_residual(f, vector_structure, vector_emb) <= 1e-8

    def test_mixed_single_equation(self, lattice_emb, lattice_structure):
        f = theta_vector(lattice_structure)
        assert holomorphy_residual(f, lattice_structure, lattice_emb) <= 1e-8

    def test_negative_control(self, lattice_emb, lattice_structure):
        f = theta_vector(lattice_structure)
        bad = replace(f, quadratic=f.quadratic + 1.0)
        assert holomorphy_residual(bad, lattice_structure, lattice_emb) > 0.1

    def test_plane_negative_control(self, vector_emb, vector_structure):
        f = theta_vector(vector_structure)
        bad = replace(f, quadratic=np.asarray(f.quadratic) + np.diag([1.0, 1.0]))
        assert holomorphy_residual(bad, vector_structure, vector_emb) > 0.1

    def test_discrete_combos_never_annihilate(self, lattice_emb, lattice_structure):
        f = theta_vector(lattice_structure)
        rng = np.random.default_rng(11)
        lows = []
        for _ in range(40):
            c = rng.normal(size=4).view(complex)
            c = c / np.linalg.norm(c)
            lows.append(connection_combo_residual(f, lattice_emb,
                                                  [0.0, 0.0, c[0], c[1]]))
        assert min(lows) > 0.01


PINNED_TAUS = [
    np.array([[1 + 1j, 2.0 + 0.5j], [3.0 - 1j, 6 / (1 + 1j)]]),
    np.array([[0.3 - 0.7j, -1.2 + 0.4j], [0.9 + 0.9j, 2.0 - 0.1j]]),
    np.array([[-1.5j, 0.4], [-0.8 + 2j, 1.1 + 0.2j]]),
]


class TestNoGo:
    def test_generic_tau_certificate(self, lattice_emb):
        tau = np.array([[1 + 1j, 2.0 + 0.5j], [3.0 - 1j, 6 / (1 + 1j)]])
        cert = holomorphic_feasibility(lattice_emb, tau)
        assert cert.forced_det == "0"
        assert cert.actual_det_b != 0
        assert cert.infeasible
        assert len(cert.relations) == 3

    @pytest.mark.parametrize("tau, error, match", [
        (np.array([[1 + 1j, 0], [3.0, 2.0]]), DegenerateTau, "divides"),
        (np.ones((3, 3), dtype=complex), ValueError, "2x2"),
        (1 + 1j, ValueError, "2x2"),
    ], ids=["zero-entry", "3x3", "scalar"])
    def test_degenerate_tau(self, lattice_emb, tau, error, match):
        with pytest.raises(error, match=match):
            holomorphic_feasibility(lattice_emb, tau)

    @pytest.mark.parametrize("tau", [np.eye(2) + 1j * np.eye(2), PINNED_TAUS[0]],
                             ids=["diagonal", "generic"])
    def test_wrong_kind(self, vector_emb, tau):
        with pytest.raises(DegenerateTau, match="lattice kind"):
            holomorphic_feasibility(vector_emb, tau)

    def test_certificate_independent_of_m(self):
        # the symbolic cancellation never references the integer block
        tau = np.array([[0.3 - 0.7j, -1.2 + 0.4j], [0.9 + 0.9j, 2.0 - 0.1j]])
        dets = []
        for m in ([[1, 0], [0, 1]], [[2, 1], [1, 1]], [[3, -1], [1, 2]]):
            m = np.asarray(m)
            det = int(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
            delta = np.array([[m[1, 0] * 0.25 / det, m[1, 1] * 0.25 / det],
                              [-m[0, 0] * 0.25 / det, -m[0, 1] * 0.25 / det]])
            emb = build_embedding(EmbeddingKind.LATTICE, 0.5, m=m, delta_hat=delta)
            cert = holomorphic_feasibility(emb, tau)
            assert cert.forced_det == "0"
            dets.append(cert.forced_det)
        assert len(set(dets)) == 1

    def test_seeded_sweep(self, lattice_emb):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            signs = rng.choice([-1.0, 1.0], size=(2, 2, 2))
            tau = (rng.uniform(0.3, 2.0, size=(2, 2)) * signs[..., 0]
                   + 1j * rng.uniform(0.3, 2.0, size=(2, 2)) * signs[..., 1])
            cert = holomorphic_feasibility(lattice_emb, tau)
            assert cert.forced_det == "0" and cert.infeasible


# Recorded from the certificate while it was still derived on every call.
PINNED_RELATIONS = (
    "coefficient of s: (tau11*tau22 - tau12*tau21)/(tau12*tau22) = 0"
    "  (i.e. tau11/tau12 = tau21/tau22)",
    "coefficient of n2: b12 = b22*tau12/tau22",
    "coefficient of n1: b21 = b11*tau22/tau12",
)


class TestCertificateCache:
    def test_nctheta_all_never_loads_sympy(self, cli_env, lattice_config_path,
                                           tmp_path):
        # a fresh interpreter, so no other test has imported sympy into it
        script = textwrap.dedent(f"""
            import sys
            from nctheta.cli import main
            code = main(["all", "--config", {str(lattice_config_path)!r},
                         "--seed", "42", "--output", "report.json"])
            assert code == 0, code
            assert "sympy" not in sys.modules, "sympy loaded"
            assert "mpmath" not in sys.modules, "mpmath loaded"
        """)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=cli_env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert "holomorphy-nogo-certificates" in proc.stdout

    @pytest.mark.parametrize("tau", PINNED_TAUS, ids=["t0", "t1", "t2"])
    @pytest.mark.parametrize("which", ["canonical", "random"])
    def test_certificate_content_is_pinned(self, lattice_config, which, tau):
        if which == "canonical":
            emb = lattice_config.build_embedding()
            b, det_b = [[1.0, 0.0], [0.0, 1.0]], 1.0
        else:
            emb = _random_lattice_embedding(np.random.default_rng(5))
            assert emb.m.tolist() == [[1, 2], [-3, 2]]
            b, det_b = [[0.25, -0.25], [0.375, 0.125]], 0.125
        cert = holomorphic_feasibility(emb, tau)
        assert cert.relations == PINNED_RELATIONS
        assert cert.forced_det == "0"
        assert cert.infeasible is True
        assert cert.actual_b.tolist() == b
        assert cert.actual_det_b == det_b
        assert cert.tau == tuple(map(tuple, tau.tolist()))


def _sympy_derivation(**scale):
    """Relations and forced det(b) of the two would-be holomorphy equations,
    each solved for the derivative term, with the named symbols scaled
    (b11 enters the first equation only; tau21 and b22 the second).
    sympy is imported, not skipped: this is the only derivation of the
    constants in ``structures``."""
    import sympy

    names = "b11 b12 b21 b22 n1 n2 s tau11 tau12 tau21 tau22 theta1".split()
    sym = {name: sympy.Symbol(name) for name in names}
    b11, b12, b21, b22, n1, n2, s, t11, t12, t21, t22, th1 = (
        scale.get(name, 1) * sym[name] for name in names)
    diff = sympy.expand((t11 / th1 * s + b11 * n1 + b12 * n2) / t12
                        - (t21 / th1 * s + b21 * n1 + b22 * n2) / t22)
    cond_s = sympy.cancel(diff.coeff(sym["s"]) * sym["theta1"])
    sol = sympy.solve([diff.coeff(sym["n1"]), diff.coeff(sym["n2"])], [b21, b12],
                      dict=True)[0]
    forced_det = sympy.cancel((sym["b11"] * sym["b22"] - b12 * b21).subs(sol))
    relations = (
        f"coefficient of s: {sympy.sstr(cond_s)} = 0"
        "  (i.e. tau11/tau12 = tau21/tau22)",
        f"coefficient of n2: b12 = {sympy.sstr(sympy.cancel(sol[b12]))}",
        f"coefficient of n1: b21 = {sympy.sstr(sympy.cancel(sol[b21]))}",
    )
    return relations, sympy.sstr(forced_det)


# Scaled symbols and the forced det(b) sympy derives; every scaling but
# "none" changes the relations, so each is a negative control.
PERTURBATIONS = {
    "none": ({}, "0"),
    "b22->2b22": ({"b22": 2}, "-b11*b22"),
    "tau21->3tau21": ({"tau21": 3}, "0"),
    "b11->-b11": ({"b11": -1}, "2*b11*b22"),
}


class TestExactDerivation:
    @pytest.mark.parametrize("scales, forced_det", PERTURBATIONS.values(),
                             ids=PERTURBATIONS)
    def test_matches_sympy(self, scales, forced_det):
        relations, derived_det = _sympy_derivation(**scales)
        assert derived_det == forced_det
        constants = (RELATIONS, FORCED_DET)
        assert ((relations, derived_det) == constants) == (not scales)

    def test_perturbed_equation_is_not_infeasible(self, lattice_emb):
        # b22 -> 2 b22 in the second equation: det(b) no longer cancels
        relations, forced_det = _sympy_derivation(b22=2)
        assert forced_det != "0"
        cert = replace(holomorphic_feasibility(lattice_emb, PINNED_TAUS[0]),
                       relations=relations, forced_det=forced_det)
        assert cert.infeasible is False
