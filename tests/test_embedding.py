import cmath
import copy
import itertools
import json
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pairing_exponent_table
from nctheta import embedding
from nctheta.embedding import (
    PAIR_SWEEP_BLOCK,
    EmbeddingKind,
    EmbeddingMap,
    FinitePart,
    bicharacter_max_residual,
    build_embedding,
    cocycle_identity_max_residual,
    commutation_matrix,
    element_linearity_max_residual,
    enumerate_indices,
    lattice_element,
    point_parts,
)
from nctheta.errors import (
    EmbeddingConditionViolated,
    NonPositiveDeformation,
    SingularIntegerMatrix,
)
from nctheta.config import parse_config
from nctheta.report import _random_lattice_embedding, run_suite

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


@pytest.mark.parametrize("kind, theta1, theta2, delta_hat", [
    pytest.param(EmbeddingKind.LATTICE, np.nan, None, CANON_DELTA, id="nan-theta1"),
    pytest.param(EmbeddingKind.LATTICE, np.inf, None, CANON_DELTA, id="inf-theta1"),
    pytest.param(EmbeddingKind.LATTICE, 0.5, None, [[0.0, np.nan], [0.3, 0.0]],
                 id="nan-delta-hat"),
    pytest.param(EmbeddingKind.VECTOR_SPACE, 0.5, np.inf, None, id="inf-theta2"),
    pytest.param(EmbeddingKind.VECTOR_SPACE, 0.5, np.nan, None, id="nan-theta2"),
])
def test_nonfinite_deformation_rejected(kind, theta1, theta2, delta_hat):
    with pytest.raises(NonPositiveDeformation, match="finite"):
        build_embedding(kind, theta1, theta2, m=IDENTITY, delta_hat=delta_hat)


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
    # M part (w1, m1, m2), dual part (w2, t1, t2)
    el = lattice_element(lattice_emb, [0, 0, 1, 0])
    assert el.m_part[0] == 0.0
    assert el.m_part[1:].tolist() == [1, 0]
    assert el.dual_part[0] == 0.0
    assert el.dual_part[1:].tolist() == [0.0, 0.3]
    el1 = lattice_element(lattice_emb, [1, 0, 0, 0])
    assert el1.m_part[0] == pytest.approx(0.5)
    assert el1.m_part[1:].tolist() == [0, 0]
    zero = lattice_element(lattice_emb, [0, 0, 0, 0])
    assert np.all(zero.m_part == 0) and np.all(zero.dual_part == 0)


def test_lattice_element_integer_part_exact(lattice_emb):
    el = lattice_element(lattice_emb, [3, -2, 7, -5])
    assert el.k.dtype == np.int64
    assert np.all(el.m_part[1:] == np.round(el.m_part[1:]))
    assert el.m_part[1:].tolist() == [7, -5]


def test_torus_lifts_not_reduced(lattice_emb):
    el = lattice_element(lattice_emb, [0, 0, 0, 3])
    assert el.dual_part[1] == pytest.approx(2.1)  # 3 * 0.7, beyond [0, 1)


@pytest.mark.parametrize("k", [
    pytest.param([0.5, 0, 1.9, 0], id="fraction"),  # int64 would truncate to (0, 0, 1, 0)
    pytest.param([[0, 0, 0, 0], [0, 0, 1e-9, 0]], id="fraction-in-a-row"),
    pytest.param([np.nan] * 4, id="nan"),
    pytest.param([np.inf, 0, 0, 0], id="inf"),
    pytest.param([1e20, 0, 0, 0], id="beyond-int64"),  # astype would wrap it round
    pytest.param([0, 0, 1], id="three-entries"),
    pytest.param([[0, 0, 0, 0, 0]], id="five-entries"),
    pytest.param(3, id="scalar"),
    pytest.param([1 + 1j, 0, 0, 0], id="complex"),  # int64 would drop the imaginary part
])
def test_lattice_element_rejects_a_malformed_index(lattice_emb, k):
    with pytest.raises(ValueError):
        lattice_element(lattice_emb, k)


def test_lattice_element_accepts_integral_floats(lattice_emb):
    el = lattice_element(lattice_emb, [1.0, 0.0, -2.0, 3.0])
    assert el.k.dtype == np.int64 and el.k.tolist() == [1, 0, -2, 3]
    assert el.m_part.tobytes() == lattice_element(lattice_emb, [1, 0, -2, 3]).m_part.tobytes()


# Both fixtures plus a lattice map with a non-diagonal integer block and a
# vector map with other deformations.
POINT_EMBEDDINGS = {
    "lattice-fixture": (EmbeddingKind.LATTICE, 0.5, None, IDENTITY, CANON_DELTA),
    "vector-fixture": (EmbeddingKind.VECTOR_SPACE, 0.5, 0.4, None, None),
    "lattice-m2111": (EmbeddingKind.LATTICE, 0.5, None, [[2, 1], [1, 1]],
                      [[0.25, 0.25], [-0.5, -0.25]]),
    "vector-0.7-1.3": (EmbeddingKind.VECTOR_SPACE, 0.7, 1.3, None, None),
}


@pytest.mark.parametrize("name", list(POINT_EMBEDDINGS))
def test_point_parts_match_lattice_element(name):
    # the batched rows equal the one-row case bit for bit, and the integer
    # shift equals m (k3, k4) in integers
    kind, theta1, theta2, m, delta = POINT_EMBEDDINGS[name]
    emb = build_embedding(kind, theta1, theta2, m=m, delta_hat=delta)
    ks = enumerate_indices(2)
    m_parts, dual_parts = point_parts(emb, ks)
    for k, m_part, dual_part in zip(ks, m_parts, dual_parts):
        el = lattice_element(emb, k)
        assert el.m_part.tobytes() == m_part.tobytes()
        assert el.dual_part.tobytes() == dual_part.tobytes()
        if kind is EmbeddingKind.LATTICE:
            assert np.all(el.m_part[1:] == np.round(m_part[1:]))
            assert el.m_part[1:].tolist() == (emb.m @ k[2:]).tolist()
    rows = lattice_element(emb, ks)
    assert rows.k.tolist() == ks.tolist()
    assert rows.m_part.tobytes() == m_parts.tobytes()
    assert rows.dual_part.tobytes() == dual_parts.tobytes()


def test_point_parts_layout_on_basis_rows():
    m, d = [[2, 1], [1, 1]], [[0.25, 0.25], [-0.5, -0.25]]
    lat = build_embedding(EmbeddingKind.LATTICE, 0.5, m=m, delta_hat=d)
    m_part, dual_part = point_parts(lat, np.eye(4, dtype=np.int64))
    assert m_part.tolist() == [[0.5, 0, 0], [0, 0, 0], [0, 2, 1], [0, 1, 1]]
    assert dual_part.tolist() == [[0, 0, 0], [1, 0, 0], [0, 0.25, -0.5], [0, 0.25, -0.25]]
    vec = build_embedding(EmbeddingKind.VECTOR_SPACE, 0.7, 1.3)
    m_part, dual_part = point_parts(vec, np.eye(4, dtype=np.int64))
    assert m_part.tolist() == [[0.7, 0], [0, 0], [0, 1.3], [0, 0]]
    assert dual_part.tolist() == [[0, 0], [1, 0], [0, 0], [0, 1]]


def _dense_embeddings(seed: int) -> list:
    """Random lattice maps with dense, non-dyadic delta_hat (column condition
    not enforced) and random vector maps."""
    rng = np.random.default_rng(seed)
    maps = []
    while len(maps) < 4:
        m = rng.integers(-3, 4, size=(2, 2))
        d = rng.uniform(-1.0, 1.0, size=(2, 2))
        if round(np.linalg.det(m)) == 0:
            continue
        theta34 = m[0, 0] * d[0, 1] + m[1, 0] * d[1, 1] - m[0, 1] * d[0, 0] - m[1, 1] * d[1, 0]
        maps.append(build_embedding(EmbeddingKind.LATTICE, rng.uniform(0.1, 3.0), m=m,
                                    delta_hat=d if theta34 > 0 else -d, allow_invalid=True))
    return maps + [build_embedding(EmbeddingKind.VECTOR_SPACE, *rng.uniform(0.1, 3.0, 2))
                   for _ in range(2)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_point_parts_do_not_depend_on_the_call(seed):
    # each coordinate is summed term by term from +0.0, so the parts of the
    # radius-4 grid equal one-row calls and the parts of each row's plane
    # points, at its plane codes divmod(p, 81), bit for bit
    ks = embedding.enumerate_indices(4)
    codes = np.divmod(np.arange(len(ks)), 81)
    for emb in _dense_embeddings(seed):
        table = np.concatenate(point_parts(emb, ks), axis=-1)
        rows = np.concatenate([np.concatenate(point_parts(emb, k)) for k in ks[::7]])
        assert rows.tobytes() == table[::7].tobytes()
        points, reads = embedding.index_planes(emb, 4)
        at_points = [np.concatenate(point_parts(emb, p), axis=-1)[c]
                     for p, c in zip(points, codes)]
        by_plane = np.choose(reads, at_points)
        assert by_plane.tobytes() == table.tobytes()


@pytest.mark.parametrize("block, sizes", [(1, [49] * 49), (200, [196] * 12 + [49]),
                                          (embedding.BLOCK_ROWS, [49 ** 2])])
def test_slab_blocks_cover_the_grid_in_whole_slabs(monkeypatch, block, sizes):
    # blocks of whole slabs, the last one partial, cover the radius-3 grid in
    # order; each block's rows are the slabs of its (k1, k2) points
    monkeypatch.setattr(embedding, "BLOCK_ROWS", block)
    blocks = embedding.slab_blocks(3)
    assert [(slabs.stop - slabs.start) * 49 for slabs in blocks] == sizes
    assert [slabs.start for slabs in blocks] == [0] + [slabs.stop for slabs in blocks[:-1]]


def test_index_planes_split_the_rows():
    emb = build_embedding(EmbeddingKind.LATTICE, 0.5, m=[[2, 1], [1, 1]],
                          delta_hat=[[0.25, 0.25], [-0.5, -0.25]])
    (near, far), reads = embedding.index_planes(emb, 3)
    # (w1, m1, m2, w2, t1, t2): w reads (k1, k2), m and t read (k3, k4)
    assert reads == (0, 1, 1, 0, 1, 1)
    assert near.shape == far.shape == (49, 4)
    assert not near[:, 2:].any() and not far[:, :2].any()
    # grid position p holds the sum of the points at its plane codes divmod(p, 49)
    a, b = np.divmod(np.arange(7 ** 4), 49)
    assert np.array_equal(near[a] + far[b], embedding.enumerate_indices(3))
    # a block of positions decodes to the same rows
    block = slice(100, 1100)
    assert np.array_equal(embedding.enumerate_indices(3, block), near[a[block]] + far[b[block]])
    vec = embedding.index_planes(build_embedding(EmbeddingKind.VECTOR_SPACE, 0.5, 0.4), 3)
    # (theta1 k1, theta2 k3, k2, k4)
    assert vec[1] == (0, 1, 0, 1)


def _count_unique_calls(monkeypatch):
    calls = []
    unique = np.unique

    def counted(*args, **kwargs):
        calls.append(args)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    return calls


# radius, row count, and whether the rows hold only the corners of the box
@pytest.mark.parametrize("radius, rows, corners", [
    (7, 500, False),
    (9, 1, False),
    (0, 0, False),
    (127, 300, False),
    (128, 300, False),
    (149, 100_000, False),
    (200, 40, True),
    (0, 5, False),
], ids=["duplicates", "one-row", "no-rows", "box-2^16", "box-over-2^16",
        "box-under-the-rows", "corners-only", "radius-0"])
def test_plane_codes_match_the_sorted_reference(lattice_emb, radius, rows, corners):
    rng = np.random.default_rng(rows + radius)
    if corners:
        ks = rng.choice([-radius, radius], size=(rows, 4))
    else:
        ks = rng.integers(-radius, radius, size=(rows, 4), endpoint=True)
    if rows > 1:
        ks[0], ks[-1] = -radius, radius
    # the rank of each row's plane point among the sorted points of the box
    side = np.arange(-radius, radius + 1)
    box = np.stack(np.meshgrid(side, side, indexing="ij"), axis=-1).reshape(-1, 2)
    ranks = [np.unique(np.concatenate([box, ks[:, 2 * p:2 * p + 2]]), axis=0,
                       return_inverse=True)[1].ravel()[len(box):] for p in range(2)]
    # is the plane code divmod(p, (2r+1)^2) of the row's grid position p,
    # and indexes the point of index_planes
    position = np.ravel_multi_index(tuple((ks + radius).T), (2 * radius + 1,) * 4)
    codes = np.divmod(position, len(box))
    points, _ = embedding.index_planes(lattice_emb, radius)
    for p in range(2):
        np.testing.assert_array_equal(codes[p], ranks[p])
        np.testing.assert_array_equal(points[p][:, 2 * p:2 * p + 2], box)
        assert not np.delete(points[p], [2 * p, 2 * p + 1], axis=1).any()
    np.testing.assert_array_equal(points[0][codes[0]] + points[1][codes[1]], ks)


@pytest.mark.parametrize("radius", range(1, 7))
def test_index_planes_of_the_canonical_grid_sort_nothing(monkeypatch, lattice_emb, radius):
    calls = _count_unique_calls(monkeypatch)
    (near, far), _ = embedding.index_planes(lattice_emb, radius)
    ks = embedding.enumerate_indices(radius)
    assert calls == []
    assert len(near) == len(far) == (2 * radius + 1) ** 2
    # the points of each plane's box, in lexicographic order
    box = list(itertools.product(range(-radius, radius + 1), repeat=2))
    assert near[:, :2].tolist() == far[:, 2:].tolist() == [list(p) for p in box]
    # the grid is their outer sum, the first plane's point slower
    assert np.array_equal((near[:, None] + far[None]).reshape(-1, 4), ks)


def test_index_planes_refuse_a_coordinate_on_both_planes(lattice_emb):
    # the CSV writer gathers each ambient coordinate at the point of the one
    # plane it reads, which a coordinate reading both would get wrong
    entries = lattice_emb.entries.copy()
    entries[0, 2] = 1.0  # w1 = theta1 k1 + k3
    mixed = embedding.EmbeddingMap(lattice_emb.kind, entries, lattice_emb.theta1,
                                   m=lattice_emb.m, delta_hat=lattice_emb.delta_hat)
    with pytest.raises(ValueError, match="both index planes"):
        embedding.index_planes(mixed, 1)


def test_enumerate_counts_and_order(lattice_emb):
    assert len(enumerate_indices(0)) == 1
    assert len(enumerate_indices(1)) == 81
    els = [lattice_element(lattice_emb, k) for k in enumerate_indices(2)]
    assert len(els) == 625
    # grid order: the zero index at the centre, -k at the mirrored position
    assert tuple(els[312].k) == (0, 0, 0, 0)
    assert all(np.array_equal(a.k, -b.k) for a, b in zip(els, els[::-1]))
    # reference definition of the grid order: lexicographic, the last index fastest
    rng = range(-3, 4)
    reference = list(itertools.product(rng, rng, rng, rng))
    ks = enumerate_indices(3)
    assert ks.dtype == np.int64
    assert [tuple(k) for k in ks.tolist()] == reference


@pytest.mark.parametrize("radius", range(14))
def test_enumerate_indices_matches_the_sorted_grid(radius):
    # the grid order of a series is the "ij" grid rows, the last axis
    # fastest, sorted lexicographically; a slice of positions decodes to
    # those rows of the grid
    rng = np.arange(-radius, radius + 1, dtype=np.int64)
    grid = np.stack(np.meshgrid(rng, rng, rng, rng, indexing="ij"), axis=-1).reshape(-1, 4)
    ks = enumerate_indices(radius)
    assert ks.dtype == grid.dtype == np.int64
    np.testing.assert_array_equal(ks, grid)
    np.testing.assert_array_equal(enumerate_indices(radius, slice(1, None, 3)), grid[1::3])


def test_enumerate_indices_is_the_centre_box_of_every_larger_radius():
    # the grid of a smaller radius is the centre box of every larger grid,
    # which the reassembly check reads at sup norm <= 2
    for large in range(9):
        side = 2 * large + 1
        grid = enumerate_indices(large).reshape((side,) * 4 + (4,))
        for q in range(large + 1):
            box = slice(large - q, large + q + 1)
            np.testing.assert_array_equal(grid[box, box, box, box].reshape(-1, 4),
                                          enumerate_indices(q))


def test_enumerate_indices_rejects_negative():
    with pytest.raises(ValueError):
        enumerate_indices(-1)


def _alpha(emb, kg, kh):
    """alpha(g, h) of each pair of index rows, read off the paired exponent."""
    return np.exp(1j * math.pi * embedding._paired_exponent(emb, kg, kh))


def test_cocycle_generator_pair(lattice_emb):
    # exponent <g1, h2> - <h1, g2> = 0.5, so the phase is i
    assert _alpha(lattice_emb, [1, 0, 0, 0], [0, 1, 0, 0]) == pytest.approx(1j)


def test_cocycle_with_zero_and_inverse(lattice_emb):
    rng = np.random.default_rng(0)
    zero = [0, 0, 0, 0]
    for _ in range(5):
        k = rng.integers(-3, 4, size=4)
        x, y = k, rng.integers(-3, 4, size=4)
        assert _alpha(lattice_emb, x, zero) == pytest.approx(1.0)
        assert _alpha(lattice_emb, x, y) * _alpha(lattice_emb, y, x) == pytest.approx(1.0)


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
    lhs = _alpha(emb, ka + kb, kc)
    rhs = _alpha(emb, ka, kc) * _alpha(emb, kb, kc)
    assert abs(lhs - rhs) <= 1e-12


def test_cocycle_identity_all_triples(lattice_emb, vector_emb):
    assert cocycle_identity_max_residual(lattice_emb, 2) <= 1e-12
    assert cocycle_identity_max_residual(vector_emb, 2) <= 1e-12


IDENTITY_ABS = 1e-12  # default tolerances.identity_abs of the validate suite


def triple_sweep_residual(emb, radius):
    """Reference: the cocycle defect swept over every triple of the radius.

    alpha(g,h) alpha(g+h,k) = alpha(h,k) alpha(g,h+k) through the phase
    exponents, one g at a time, with sums looked up in the doubled-radius
    enumeration. |e^{i pi x} - 1| has period 2 in x, so each combo counts
    by its distance to the nearest even integer.
    """
    ks = enumerate_indices(radius)
    ks2 = enumerate_indices(2 * radius)
    place = (4 * radius + 1) ** np.arange(4)
    row_of = np.empty((4 * radius + 1) ** 4, dtype=np.int64)
    row_of[(ks2 + 2 * radius) @ place] = np.arange(len(ks2))
    pair_sum = row_of[(ks[:, None, :] + ks[None, :, :] + 2 * radius) @ place]
    e_small = pairing_exponent_table(emb, ks, ks)
    e_wide = pairing_exponent_table(emb, ks2, ks)
    e_tall = pairing_exponent_table(emb, ks, ks2)
    worst = 0.0
    for g in range(len(ks)):
        combo = (e_small[g][:, None] + e_wide[pair_sum[g], :]
                 - e_small - e_tall[g][pair_sum])
        worst = max(worst, float(np.max(np.abs(combo - 2 * np.round(combo / 2)))))
    return abs(cmath.exp(1j * math.pi * worst) - 1.0)


# theta1 = 2.7 gives R = rint(B) an odd entry, so parities reach the sweep
SWEPT = {
    "lattice": lambda: build_embedding(EmbeddingKind.LATTICE, 0.5, m=IDENTITY,
                                       delta_hat=CANON_DELTA),
    "vector": lambda: build_embedding(EmbeddingKind.VECTOR_SPACE, 0.5, 0.4),
    "theta1-2.7": lambda: build_embedding(EmbeddingKind.LATTICE, 2.7, m=IDENTITY,
                                          delta_hat=CANON_DELTA),
}


@pytest.mark.parametrize("which, radius", [("lattice", 1), ("lattice", 2), ("vector", 1),
                                           ("vector", 2), ("theta1-2.7", 1)])
def test_cocycle_certificate_bounds_the_sweep(which, radius):
    emb = SWEPT[which]()
    reference = triple_sweep_residual(emb, radius)
    certified = cocycle_identity_max_residual(emb, radius)
    assert reference <= certified <= IDENTITY_ABS


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=8, deadline=None, derandomize=True)
def test_cocycle_certificate_random_lattice(seed):
    emb = _random_lattice_embedding(np.random.default_rng(seed))
    reference = triple_sweep_residual(emb, 1)
    certified = cocycle_identity_max_residual(emb, 1)
    assert reference <= certified <= IDENTITY_ABS


@given(theta1=st.floats(0.01, 50.0), theta2=st.floats(0.01, 50.0),
       m1=st.integers(1, 6), m2=st.integers(1, 6))
@settings(max_examples=8, deadline=None, derandomize=True)
def test_cocycle_certificate_random_vector(theta1, theta2, m1, m2):
    finite = FinitePart(m1, 1, m2, 1)
    emb = build_embedding(EmbeddingKind.VECTOR_SPACE, theta1, theta2,
                          finite_part=finite)
    reference = triple_sweep_residual(emb, 1)
    certified = cocycle_identity_max_residual(emb, 1)
    assert reference <= certified <= IDENTITY_ABS


@given(kind=st.sampled_from(["lattice", "vector"]),
       theta1=st.floats(0.01, 50.0, exclude_min=True),
       theta2=st.floats(0.01, 50.0, exclude_min=True))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_cocycle_certificate_large_deformations(kind, theta1, theta2):
    # the bound reads only |F| <= 1/2, so no theta fails it from rounding
    if kind == "lattice":
        emb = build_embedding(EmbeddingKind.LATTICE, theta1, m=IDENTITY,
                              delta_hat=[[0.0, theta2], [0.0, 0.0]])
    else:
        emb = build_embedding(EmbeddingKind.VECTOR_SPACE, theta1, theta2)
    assert cocycle_identity_max_residual(emb, 2) <= IDENTITY_ABS


LARGE_DEFORMATIONS = {
    "vector-20.3-18.5": {"theta1": 20.3, "theta2": 18.5},
    "lattice-25.3": {"theta1": 25.3},
}


def _large_deformation(which, lattice_config, vector_config):
    cfg = copy.deepcopy((lattice_config if which.startswith("lattice") else vector_config).raw)
    cfg["embedding"].update(LARGE_DEFORMATIONS[which])
    return parse_config(cfg)


@pytest.mark.parametrize("which", list(LARGE_DEFORMATIONS))
def test_validate_passes_large_deformations(which, lattice_config, vector_config):
    # guards cocycle-identity, whose bound no longer grows with theta. On the
    # vector config pi_{g+h} f leaves the oracle's sample grid for every
    # drawn pair, so cocycle-operator-oracle resolves none and fails as a
    # named check instead of comparing vanishing samples
    report = run_suite(_large_deformation(which, lattice_config, vector_config), "validate")
    checks = {c.name: c for c in report.checks}
    failed = [c.name for c in report.checks if not c.passed]
    oracle = checks["cocycle-operator-oracle"]
    if which.startswith("vector"):
        assert failed == ["cocycle-operator-oracle"]
        assert oracle.metadata["pairs_resolved"] == 0 and oracle.max_residual == math.inf
    else:
        assert failed == []
        assert oracle.metadata["pairs_resolved"] >= 1
    assert checks["cocycle-identity"].tolerance == IDENTITY_ABS


@pytest.mark.parametrize("which", list(LARGE_DEFORMATIONS))
def test_validate_large_deformations_without_numpy_warnings(which, lattice_config,
                                                            vector_config):
    # the operator oracle reads a descriptor that over- or underflows as an
    # unresolved pair, so turning warnings into errors leaves the report as it is
    cfg = _large_deformation(which, lattice_config, vector_config)
    report = run_suite(cfg, "validate")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        strict = run_suite(cfg, "validate")
    assert json.dumps(strict.to_dict()) == json.dumps(report.to_dict())


@pytest.mark.parametrize("kind", ["lattice", "vector"])
def test_operator_oracle_resolves_every_canonical_pair(kind, request):
    report = run_suite(request.getfixturevalue(f"{kind}_config"), "validate")
    oracle = {c.name: c for c in report.checks}["cocycle-operator-oracle"]
    assert oracle.passed and oracle.metadata["pairs_resolved"] == 20


_U = Fraction(1, 2**53)
_GAMMA_8 = 8 * _U / (1 - 8 * _U)


def _split_cases(rng):
    """Embeddings with theta up to 50, odd and even R, and thetas of 2^52 + 1
    (odd R), 3 2^53 and 1e300 (beyond int64)."""
    thetas = rng.uniform(0.01, 50.0, size=(3, 2))
    return ([build_embedding(EmbeddingKind.VECTOR_SPACE, *t) for t in thetas]
            + [build_embedding(EmbeddingKind.LATTICE, t1, m=IDENTITY,
                               delta_hat=[[0.0, t2], [0.0, 0.0]]) for t1, t2 in thetas]
            + [_random_lattice_embedding(rng), build_embedding(EmbeddingKind.LATTICE, 2.7,
                                                               m=IDENTITY, delta_hat=CANON_DELTA)]
            + [build_embedding(EmbeddingKind.VECTOR_SPACE, 2.0**52 + 1, 3 * 2.0**53),
               build_embedding(EmbeddingKind.VECTOR_SPACE, 1e300, 7.5)])


@pytest.mark.parametrize("reach", [1, 4, 8])
def test_exponent_split_is_exact(reach):
    # B = R + F bit for bit with |F| <= 1/2, R mod 2 an int64 0/1 matrix;
    # the paired exponent agrees mod 2 with k^T B l, evaluated exactly on
    # B's float entries, to the certified per-entry bound gamma_8 y +
    # u (1 + (1 + gamma_8) y), y = |k|^T |F| |l| (cocycle_identity_max_residual)
    rng = np.random.default_rng(reach)
    corners = np.array(list(itertools.product([-reach, reach], repeat=4)))
    ks = np.concatenate([corners, rng.integers(-reach, reach + 1, size=(64, 4))])
    ls = rng.permutation(ks)
    basis = np.eye(4, dtype=np.int64)
    for emb in _split_cases(rng):
        parts = point_parts(emb, basis)
        form = embedding._cocycle_exponent(*parts, *parts)
        parity, frac = embedding._exponent_split(emb)
        whole = np.rint(form)
        assert np.array_equal(whole + frac, form)
        assert np.all(np.abs(frac) <= 0.5)
        assert parity.dtype == np.int64
        assert np.array_equal(parity, np.mod(whole, 2.0)) and set(parity.flat) <= {0, 1}
        got = embedding._paired_exponent(emb, ks, ls)
        assert np.array_equal(got, [embedding._paired_exponent(emb, k, l)
                                    for k, l in zip(ks, ls)])
        b = [[Fraction(x) for x in row] for row in form]
        f = [[abs(Fraction(x)) for x in row] for row in frac]
        for k, l, x in zip(ks.tolist(), ls.tolist(), got.tolist()):
            exact = sum(k[i] * b[i][j] * l[j] for i in range(4) for j in range(4))
            y = sum(abs(k[i]) * f[i][j] * abs(l[j]) for i in range(4) for j in range(4))
            diff = Fraction(x) - exact
            diff -= 2 * round(diff / 2)
            assert abs(diff) <= _GAMMA_8 * y + _U * (1 + (1 + _GAMMA_8) * y)


def _marks(ks, k):
    return np.all(ks == np.asarray(k), axis=1)


def _quadratic(scale):
    def term(left, right):
        return scale * np.outer(left[:, 0], right[:, 0]).astype(float) ** 2
    return term


def _bump(size, at=([1, 0, 0, 0], [0, 1, 0, 0])):
    def term(left, right):
        return size * np.outer(_marks(left, at[0]), _marks(right, at[1])).astype(float)
    return term


def _sign_flip(left, right):
    # the term that negates the (generator 1, generator 2) entry, 0.5 on
    # both fixtures
    return -1.0 * np.outer(_marks(left, [1, 0, 0, 0]),
                           _marks(right, [0, 1, 0, 0])).astype(float)


MUTATIONS = {
    "quadratic-1e-15": _quadratic(1e-15),
    "quadratic-1e-13": _quadratic(1e-13),
    "quadratic-1e-3": _quadratic(1e-3),
    "bump-1e-14": _bump(1e-14),
    "bump-1e-12": _bump(1e-12),
    "bump-1e-6": _bump(1e-6),
    "bump-0.5": _bump(0.5),
    "bump-2": _bump(2.0),
    # entries off the basis rows
    "bump-wide-1e-12": _bump(1e-12, ([2, 0, 0, 0], [0, 1, 0, 0])),
    "bump-tall-1e-12": _bump(1e-12, ([1, 0, 0, 0], [0, 2, 0, 0])),
    "sign-flip": _sign_flip,
}
# validate's operator oracle sees the wrong alpha
ORACLE_FAILS = {"sign-flip", "bump-1e-6", "bump-0.5", "quadratic-1e-3"}
# alpha stays bit-identical: an off-basis bump never reaches B, and a shift
# of an entry of B by 2 moves R by 2 and leaves R mod 2 and F alone
ALPHA_UNMOVED = {"bump-wide-1e-12", "bump-tall-1e-12", "bump-2"}
# alpha moves, by less than the oracle's 1e-10 resolution: these pass
# validate unseen
BELOW_RESOLUTION = {"quadratic-1e-15", "quadratic-1e-13", "bump-1e-14", "bump-1e-12"}


@pytest.mark.parametrize("name", list(MUTATIONS))
@pytest.mark.parametrize("which", ["lattice", "vector"])
def test_cocycle_certificate_catches_broken_tables(which, name, lattice_config,
                                                   vector_config, monkeypatch):
    # every cocycle route reads alpha through the basis table B, so a wrong
    # table is a wrong B: the term of each mutation at the basis rows is
    # added to B, and the mutation lands in exactly one of the three sets
    cfg = lattice_config if which == "lattice" else vector_config
    emb = cfg.build_embedding()
    ks = enumerate_indices(2)
    before = np.exp(1j * math.pi * pairing_exponent_table(emb, ks, ks))
    basis = np.eye(4, dtype=np.int64)
    extra = MUTATIONS[name](basis, basis)
    original = embedding._cocycle_exponent
    monkeypatch.setattr(embedding, "_cocycle_exponent",
                        lambda *parts: original(*parts) + extra)
    after = np.exp(1j * math.pi * pairing_exponent_table(emb, ks, ks))
    assert [name in ORACLE_FAILS, name in ALPHA_UNMOVED,
            name in BELOW_RESOLUTION].count(True) == 1
    if name in ALPHA_UNMOVED:
        assert after.tobytes() == before.tobytes()
        return
    oracle = {c.name: c for c in run_suite(cfg, "validate").checks}["cocycle-operator-oracle"]
    assert oracle.tolerance == 1e-10
    if name in ORACLE_FAILS:
        assert not oracle.passed
    else:
        assert 0 < np.max(np.abs(after - before)) < oracle.tolerance
        assert oracle.passed


def _flipped_exponent(m_l, d_l, m_r, d_r):
    # <x1, y2> + <y1, x2>: bilinear, so the identity certificate holds, but
    # not the cocycle of the Heisenberg operators
    return m_l @ np.swapaxes(d_r, -1, -2) + np.swapaxes(m_r @ np.swapaxes(d_l, -1, -2), -1, -2)


@pytest.mark.parametrize("which", ["lattice", "vector"])
def test_validate_checks_the_shared_exponent(which, lattice_config, vector_config,
                                              monkeypatch):
    # the operator oracle reads the exponent that the certificate bounds and
    # the series uses, so a wrong but bilinear exponent fails validate
    cfg = lattice_config if which == "lattice" else vector_config
    monkeypatch.setattr(embedding, "_cocycle_exponent", _flipped_exponent)
    checks = {c.name: c for c in run_suite(cfg, "validate").checks}
    assert not checks["cocycle-operator-oracle"].passed
    assert checks["cocycle-operator-oracle"].tolerance == 1e-10
    assert checks["cocycle-identity"].passed


def test_cocycle_certificate_memory(lattice_emb):
    # the certificate reads the 4x4 split alone, no exponent table
    cocycle_identity_max_residual(lattice_emb, 1)  # warm imports and caches
    tracemalloc.start()
    try:
        cocycle_identity_max_residual(lattice_emb, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_bicharacter_and_linearity(lattice_emb, vector_emb):
    rng = np.random.default_rng(123)
    assert bicharacter_max_residual(lattice_emb, rng) <= 1e-12
    assert bicharacter_max_residual(vector_emb, rng) <= 1e-12
    assert element_linearity_max_residual(lattice_emb) <= 1e-12
    assert element_linearity_max_residual(vector_emb) <= 1e-12


def _full_linearity_sweep(emb):
    """Reference: the linearity defect over all 625 x 625 pairs of radius-2 rows,
    every ambient coordinate at every pair."""
    ks = enumerate_indices(2)
    parts = point_parts(emb, ks)
    worst = 0.0
    for lo in range(0, len(ks), PAIR_SWEEP_BLOCK):
        rows = slice(lo, lo + PAIR_SWEEP_BLOCK)
        for part, direct in zip(parts, point_parts(emb, ks[rows, None] + ks)):
            worst = max(worst, float(np.max(np.abs(part[rows, None] + part - direct))))
    return worst


def _linearity_cases():
    """Embeddings whose coordinates read one, two or all index columns."""
    lattice = {"m": IDENTITY, "delta_hat": CANON_DELTA}
    mixed = {"m": [[2, 1], [1, 1]], "delta_hat": [[0.25, 0.25], [-0.5, -0.25]]}
    cases = {
        "lattice-canonical": build_embedding(EmbeddingKind.LATTICE, 0.5, **lattice),
        "vector-canonical": build_embedding(EmbeddingKind.VECTOR_SPACE, 0.5, 0.4,
                                            finite_part=FinitePart(2, 1, 3, 2)),
        "lattice-m-2111": build_embedding(EmbeddingKind.LATTICE, 0.5, **mixed),
    }
    for theta in (7.3, 25.3, 50.0):
        cases[f"lattice-theta-{theta}"] = build_embedding(EmbeddingKind.LATTICE, theta, **mixed)
        cases[f"vector-theta-{theta}"] = build_embedding(EmbeddingKind.VECTOR_SPACE, theta,
                                                         0.73 * theta)
    for seed in range(4):
        cases[f"random-lattice-{seed}"] = _random_lattice_embedding(np.random.default_rng(seed))
    # rows read all four columns, or a mix of 0 to 4 of them: the sweep is
    # not only the canonical layout's single columns
    rng = np.random.default_rng(28)
    cases["dense-4x4"] = EmbeddingMap(EmbeddingKind.VECTOR_SPACE, rng.normal(size=(4, 4)),
                                      0.5, 0.4)
    support = np.array([[1, 0, 0, 0], [0, 1, 1, 0], [1, 1, 1, 1],
                        [0, 0, 0, 0], [1, 0, 1, 1], [0, 1, 1, 0]])
    cases["mixed-supports"] = EmbeddingMap(EmbeddingKind.LATTICE,
                                           support * rng.normal(size=(6, 4)), 0.5)
    return cases


LINEARITY_CASES = _linearity_cases()


@pytest.mark.parametrize("name", LINEARITY_CASES)
def test_reduced_linearity_sweep_equals_the_full_sweep(name):
    emb = LINEARITY_CASES[name]
    assert element_linearity_max_residual(emb) == _full_linearity_sweep(emb)


def test_reduced_linearity_sweep_finds_a_rounding_defect():
    # pinned from a seeded search: seed 1 draws m = [[-2, -1], [3, -1]], whose
    # torus coordinates 0.15 k3 - 0.05 k4 round, so the sweep is not 0 == 0
    emb = _random_lattice_embedding(np.random.default_rng(1))
    assert emb.m.tolist() == [[-2, -1], [3, -1]]
    assert element_linearity_max_residual(emb) == _full_linearity_sweep(emb) == 2.0 ** -53
    dense = LINEARITY_CASES["dense-4x4"]
    assert element_linearity_max_residual(dense) > 0.0


def test_bicharacter_reads_the_paired_exponent(lattice_emb):
    # the 20 triples go through the paired exponent in one pass and match
    # the phases of one-pair calls
    ks = np.random.default_rng(5).integers(-2, 3, size=(20, 3, 4))

    def alpha(kg, kh):
        return complex(_alpha(lattice_emb, kg, kh))

    worst = 0.0
    for ka, kb, kc in ks:
        worst = max(worst,
                    abs(alpha(ka + kb, kc) - alpha(ka, kc) * alpha(kb, kc)),
                    abs(alpha(ka, kb + kc) - alpha(ka, kb) * alpha(ka, kc)))
    assert bicharacter_max_residual(lattice_emb, np.random.default_rng(5)) == worst


def test_element_add(lattice_emb):
    x = lattice_element(lattice_emb, [1, 2, -1, 0])
    y = lattice_element(lattice_emb, [0, -1, 3, 2])
    s = lattice_element(lattice_emb, x.k + y.k)
    assert tuple(s.k) == (1, 1, 2, 2)
    assert np.allclose(s.m_part, x.m_part + y.m_part, atol=1e-12)
    assert np.allclose(s.dual_part, x.dual_part + y.dual_part, atol=1e-12)


def test_column_condition_residual_documented(lattice_emb):
    # every column of a valid map satisfies the orthogonality sum
    assert np.max(lattice_emb.column_condition_residuals()) <= 1e-12
