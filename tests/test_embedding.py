import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctheta.embedding import (
    EmbeddingKind,
    bicharacter_max_residual,
    build_embedding,
    cocycle_identity_max_residual,
    cocycle_phase,
    commutation_matrix,
    element_add,
    element_linearity_max_residual,
    enumerate_indices,
    enumerate_lattice,
    lattice_element,
    pairing,
)
from nctheta.errors import (
    EmbeddingConditionViolated,
    KindMismatch,
    NonPositiveDeformation,
    SingularIntegerMatrix,
)

IDENTITY = [[1, 0], [0, 1]]
CANON_DELTA = [[0.0, 0.7], [0.3, 0.0]]


def test_build_canonical_lattice(lattice_emb):
    assert lattice_emb.kind is EmbeddingKind.LATTICE
    # direct evaluation of the derived deformation entry
    m, d = np.array(IDENTITY), np.array(CANON_DELTA)
    theta34 = m[0, 0] * d[0, 1] + m[1, 0] * d[1, 1] - m[0, 1] * d[0, 0] - m[1, 1] * d[1, 0]
    assert lattice_emb.theta34 == pytest.approx(theta34)
    assert lattice_emb.theta34 == pytest.approx(0.4)
    assert lattice_emb.entries.shape == (6, 4)


def test_build_vector_space(vector_emb):
    # every cross product x_1i x_3i + x_2i x_4i vanishes for the canonical map
    assert np.max(vector_emb.column_condition_residuals()) == 0.0
    assert vector_emb.entries.shape == (4, 4)


def test_column_condition_violation_reports_column():
    with pytest.raises(EmbeddingConditionViolated) as err:
        build_embedding(EmbeddingKind.LATTICE, 0.5, m=IDENTITY,
                        delta_hat=[[0.1, 0.7], [0.3, 0.0]])
    # column 3 sum is m11 d11 + m21 d21 = 0.1
    assert err.value.column == 3
    assert err.value.residual == pytest.approx(0.1)


def test_singular_integer_matrix_rejected():
    with pytest.raises(SingularIntegerMatrix):
        build_embedding(EmbeddingKind.LATTICE, 0.5, m=[[1, 1], [1, 1]],
                        delta_hat=CANON_DELTA)


def test_nonpositive_deformation_rejected():
    with pytest.raises(NonPositiveDeformation):
        build_embedding(EmbeddingKind.LATTICE, -0.5, m=IDENTITY, delta_hat=CANON_DELTA)
    with pytest.raises(NonPositiveDeformation):
        # theta34 = -0.4 < 0
        build_embedding(EmbeddingKind.LATTICE, 0.5, m=IDENTITY,
                        delta_hat=[[0.0, -0.7], [-0.3, 0.0]])
    with pytest.raises(NonPositiveDeformation):
        build_embedding(EmbeddingKind.VECTOR_SPACE, 0.5, 0.0)


def test_allow_invalid_keeps_map():
    emb = build_embedding(EmbeddingKind.LATTICE, 0.5, m=IDENTITY,
                          delta_hat=[[0.1, 0.7], [0.3, 0.0]], allow_invalid=True)
    assert not emb.valid
    assert np.max(emb.column_condition_residuals()) == pytest.approx(0.1)


def test_commutation_matrix_values(lattice_emb, vector_emb):
    th = commutation_matrix(lattice_emb).theta
    assert th[0, 1] == pytest.approx(0.5)
    assert th[2, 3] == pytest.approx(0.4)
    assert np.max(np.abs(th + th.T)) == 0.0
    thv = commutation_matrix(vector_emb).theta
    assert thv[2, 3] == pytest.approx(0.4)


def test_commutation_matrix_general_m():
    # column sums: 2*0.2 - 0.4 = 0 and 0.3 - 0.3 = 0; the derived entry is
    # 2*0.3 + 1*(-0.3) - 1*0.2 - 1*(-0.4) = 0.5
    emb = build_embedding(EmbeddingKind.LATTICE, 0.5, m=[[2, 1], [1, 1]],
                          delta_hat=[[0.2, 0.3], [-0.4, -0.3]])
    assert commutation_matrix(emb).theta[2, 3] == pytest.approx(0.5)


def test_lattice_element_columns(lattice_emb):
    el = lattice_element(lattice_emb, [0, 0, 1, 0])
    assert el.w1 == 0.0
    assert el.m_shift == (1, 0)
    assert el.w2 == 0.0
    assert tuple(el.t_lift) == (0.0, 0.3)
    el1 = lattice_element(lattice_emb, [1, 0, 0, 0])
    assert el1.w1 == pytest.approx(0.5)
    assert el1.m_shift == (0, 0)
    zero = lattice_element(lattice_emb, [0, 0, 0, 0])
    assert np.all(zero.m_part == 0) and np.all(zero.dual_part == 0)


def test_lattice_element_integer_part_exact(lattice_emb):
    el = lattice_element(lattice_emb, [3, -2, 7, -5])
    assert isinstance(el.m_shift[0], int)
    assert el.m_shift == (7, -5)


def test_torus_lifts_not_reduced(lattice_emb):
    el = lattice_element(lattice_emb, [0, 0, 0, 3])
    assert el.t_lift[0] == pytest.approx(2.1)  # 3 * 0.7, beyond [0, 1)


def test_enumerate_counts_and_order(lattice_emb):
    assert len(enumerate_lattice(lattice_emb, 0)) == 1
    assert len(enumerate_lattice(lattice_emb, 1)) == 81
    els = enumerate_lattice(lattice_emb, 2)
    assert len(els) == 625
    assert els[0].k == (0, 0, 0, 0)
    norms = [max(abs(c) for c in e.k) for e in els]
    assert norms == sorted(norms)
    # reference definition of the canonical order: sup norm, then lexicographic
    rng = range(-3, 4)
    reference = sorted(itertools.product(rng, rng, rng, rng),
                       key=lambda k: (max(abs(c) for c in k), k))
    ks = enumerate_indices(3)
    assert ks.dtype == np.int64
    assert [tuple(k) for k in ks.tolist()] == reference


def test_enumerate_indices_rejects_negative():
    with pytest.raises(ValueError):
        enumerate_indices(-1)


def test_pairing_values():
    assert pairing((1.0, 0.0, 0.0), (0.25, 0.0, 0.0)) == pytest.approx(0.25)
    assert pairing((0.0, 1.0, 2.0), (0.0, 0.3, 0.1)) == pytest.approx(0.5)
    assert pairing((0.0, 0.0, 0.0), (0.9, 0.4, 0.1)) == 0.0
    with pytest.raises(KindMismatch):
        pairing((1.0, 2.0), (1.0, 2.0, 3.0))


def test_cocycle_generator_pair(lattice_emb):
    g = lattice_element(lattice_emb, [1, 0, 0, 0])
    h = lattice_element(lattice_emb, [0, 1, 0, 0])
    # exponent <g1, h2> - <h1, g2> = 0.5, so the phase is i
    assert cocycle_phase(g, h) == pytest.approx(1j)


def test_cocycle_with_zero_and_inverse(lattice_emb):
    rng = np.random.default_rng(0)
    zero = lattice_element(lattice_emb, [0, 0, 0, 0])
    for _ in range(5):
        k = rng.integers(-3, 4, size=4)
        x = lattice_element(lattice_emb, k)
        y = lattice_element(lattice_emb, rng.integers(-3, 4, size=4))
        assert cocycle_phase(x, zero) == pytest.approx(1.0)
        assert cocycle_phase(x, y) * cocycle_phase(y, x) == pytest.approx(1.0)


def test_cocycle_kind_mismatch(lattice_emb, vector_emb):
    with pytest.raises(KindMismatch):
        cocycle_phase(lattice_element(lattice_emb, [1, 0, 0, 0]),
                      lattice_element(vector_emb, [1, 0, 0, 0]))


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
       st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
       st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=60, deadline=None)
def test_cocycle_bicharacter_property(a1, a2, a3, a4, b1, b2, b3, b4):
    emb = build_embedding(EmbeddingKind.LATTICE, 0.5, m=IDENTITY,
                          delta_hat=CANON_DELTA)
    ka = np.array([a1, a2, a3, a4])
    kb = np.array([b1, b2, b3, b4])
    kc = np.array([1, -2, 0, 1])
    x, y, z = (lattice_element(emb, k) for k in (ka, kb, kc))
    xy = lattice_element(emb, ka + kb)
    lhs = cocycle_phase(xy, z)
    rhs = cocycle_phase(x, z) * cocycle_phase(y, z)
    assert abs(lhs - rhs) <= 1e-12


def test_cocycle_identity_all_triples(lattice_emb, vector_emb):
    assert cocycle_identity_max_residual(lattice_emb, 2) <= 1e-12
    assert cocycle_identity_max_residual(vector_emb, 2) <= 1e-12


def test_bicharacter_and_linearity(lattice_emb, vector_emb):
    rng = np.random.default_rng(123)
    assert bicharacter_max_residual(lattice_emb, rng) <= 1e-12
    assert bicharacter_max_residual(vector_emb, rng) <= 1e-12
    assert element_linearity_max_residual(lattice_emb) <= 1e-12
    assert element_linearity_max_residual(vector_emb) <= 1e-12


def test_element_add(lattice_emb):
    x = lattice_element(lattice_emb, [1, 2, -1, 0])
    y = lattice_element(lattice_emb, [0, -1, 3, 2])
    s = element_add(lattice_emb, x, y)
    assert s.k == (1, 1, 2, 2)
    assert np.allclose(s.m_part, x.m_part + y.m_part, atol=1e-12)
    assert np.allclose(s.dual_part, x.dual_part + y.dual_part, atol=1e-12)


def test_column_condition_residual_documented(lattice_emb):
    # every column of a valid map satisfies the orthogonality sum
    assert np.max(lattice_emb.column_condition_residuals()) <= 1e-12
