import math
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from nctheta import heisenberg
from nctheta.config import parse_config
from nctheta.embedding import (
    EmbeddingKind,
    FinitePart,
    build_embedding,
    commutation_matrix,
    enumerate_indices,
    lattice_element,
)
from nctheta.errors import (
    DegenerateTestVector,
    KindMismatch,
    NotPositive,
    UnsupportedVector,
)
from nctheta.heisenberg import (
    PHASE_MASK_THRESHOLD,
    ClosedFormVector,
    apply_generator,
    apply_pi,
    build_connections,
    connection_commutator_residual,
    default_finite_vector,
    measure_commutation_phase,
    measure_commutation_phases,
    representation_defect,
    sample_vector,
    theta_test_vector,
)
from nctheta.report import run_suite
from nctheta.structures import make_complex_structure, theta_vector


def _full_exponent_values(f, coords):
    """Reference samples of a one-point form: amplitude * exp(full exponent),
    one exponential per point."""
    if f.kind is EmbeddingKind.LATTICE:
        s, n1, n2 = coords
        (u1, u2), (p1, p2) = f.n_shift, f.n_phase
        expo = (1j * math.pi * (f.quadratic * s * s + 2.0 * f.linear * s)
                - math.pi * f.decay * ((n1 + u1) ** 2 + (n2 + u2) ** 2)
                + 2j * math.pi * (p1 * n1 + p2 * n2))
    else:
        q, l = f.quadratic, f.linear
        expo = 1j * math.pi * (sum(q[i, j] * coords[i] * coords[j]
                                   for i in range(2) for j in range(2))
                               + 2.0 * (l[0] * coords[0] + l[1] * coords[1]))
    return f.amplitude * np.exp(expo)


@pytest.fixture(scope="module")
def lattice_theta(lattice_emb):
    st = make_complex_structure(EmbeddingKind.LATTICE, 1j, 0.5, lattice_emb.theta34)
    return theta_vector(st)


class TestClosedForm:
    def test_requires_decaying_quadratic(self):
        with pytest.raises(NotPositive):
            ClosedFormVector(EmbeddingKind.LATTICE, quadratic=1.0, decay=2.5)
        with pytest.raises(NotPositive):
            ClosedFormVector(EmbeddingKind.LATTICE, quadratic=2j, decay=-1.0)

    def test_vector_forms_take_no_decay(self):
        with pytest.raises(KindMismatch):
            ClosedFormVector(EmbeddingKind.VECTOR_SPACE, quadratic=2j * np.eye(2), decay=1.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_scalar_and_one_by_one_forms_agree_bit_for_bit(self, seed, lattice_emb):
        # a lattice T and linear given as scalars or as 1 x 1 and (1,) arrays
        # are one form: the same samples, and the same forms pushed over rows
        rng = np.random.default_rng(seed)
        t = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.3, 3.0))
        linear = complex(*rng.uniform(-0.5, 0.5, size=2))
        scalar = ClosedFormVector(EmbeddingKind.LATTICE, quadratic=t, linear=linear, decay=1.3)
        matrix = ClosedFormVector(EmbeddingKind.LATTICE, quadratic=[[t]], linear=[linear],
                                  decay=1.3)
        grids = np.ix_(np.linspace(-3.0, 3.0, 25), np.arange(-3, 4), np.arange(-2, 3))
        h = lattice_element(lattice_emb, rng.integers(-2, 3, size=(7, 4)))
        for a, b in [(scalar, matrix), (apply_pi(h, scalar), apply_pi(h, matrix))]:
            assert a.evaluate(*grids).tobytes() == b.evaluate(*grids).tobytes()

    def test_evaluate_canonical(self, lattice_theta):
        # exp(pi i T s^2) with T = 2i is exp(-2 pi s^2)
        assert lattice_theta.evaluate(0.25, 0, 0) == pytest.approx(
            math.exp(-2 * math.pi * 0.0625))
        assert lattice_theta.evaluate(0.5, 1, 0) == pytest.approx(
            math.exp(-math.pi / 2) * math.exp(-2.5 * math.pi))

    @pytest.mark.parametrize("case", ["lattice", "lattice-pushed", "vector-pushed",
                                      "vector-cross", "vector-cross-pushed"])
    @pytest.mark.parametrize("mesh", ["open", "full"])
    def test_separable_matches_the_full_exponent(self, case, mesh, lattice_emb, vector_emb,
                                                 lattice_theta):
        # one exponential per axis against amplitude * exp(full exponent) at
        # every point, on an open mesh and on full broadcast coordinates
        if case.startswith("lattice"):
            emb = lattice_emb
            f = replace(lattice_theta, linear=0.25 - 0.1j, amplitude=0.7 - 0.2j,
                        n_shift=(1, -2), n_phase=(0.2, -0.15))
            axes = (np.linspace(-4.0, 4.0, 33), np.arange(-5, 6), np.arange(-4, 5))
        else:
            emb = vector_emb
            quadratic = [[2j, 0.3 + 0.1j], [-0.1 + 0.2j, 1.5j]] if "cross" in case else 2j * np.eye(2)
            f = ClosedFormVector(EmbeddingKind.VECTOR_SPACE, quadratic=np.array(quadratic),
                                 linear=np.array([0.2 + 0.05j, -0.3j]), amplitude=1.3 + 0.4j)
            axes = (np.linspace(-4.0, 4.0, 33), np.linspace(-3.0, 3.0, 25))
        coords = np.ix_(*axes) if mesh == "open" else np.meshgrid(*axes, indexing="ij")
        forms = [f]
        if case.endswith("pushed"):
            ks = np.random.default_rng(5).integers(-2, 3, size=(6, 4))
            rows = apply_pi(lattice_element(emb, ks), f).evaluate(*coords)
            forms = [apply_pi(lattice_element(emb, k), f) for k in ks]
            assert rows.shape == (6,) + np.broadcast(*coords).shape
        else:
            rows = f.evaluate(*coords)[None]
        for got, form in zip(rows, forms):
            want = _full_exponent_values(form, coords)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), case

    def test_monotone_decay_along_rays(self, lattice_theta):
        s = np.linspace(0, 3, 40)
        vals = np.abs(lattice_theta.evaluate(s, 0, 0))
        assert np.all(np.diff(vals) < 0)
        n = np.arange(0, 5)
        vals_n = np.abs(lattice_theta.evaluate(0.0, n, 0))
        assert np.all(np.diff(vals_n) < 0)


class TestApplyPi:
    def test_pure_modulation(self, lattice_emb, lattice_theta):
        # h = second column: w2 = 1, everything else 0
        h = lattice_element(lattice_emb, [0, 1, 0, 0])
        out = apply_pi(h, lattice_theta)
        got = out.evaluate(0.25, 0, 0)
        expected = np.exp(2j * math.pi * 0.25) * lattice_theta.evaluate(0.25, 0, 0)
        assert got == pytest.approx(expected)
        assert got == pytest.approx(1j * math.exp(-math.pi / 8))

    def test_zero_element_is_identity(self, lattice_emb, lattice_theta):
        h = lattice_element(lattice_emb, [0, 0, 0, 0])
        out = apply_pi(h, lattice_theta)
        s = np.linspace(-2, 2, 11)
        assert np.allclose(out.evaluate(s, 1, -1), lattice_theta.evaluate(s, 1, -1))

    def test_composition_is_cocycle(self, lattice_emb, lattice_theta):
        f = sample_vector(lattice_theta, step=1 / 16)
        rng = np.random.default_rng(17)
        for _ in range(10):
            kg, kh = rng.integers(-2, 3, size=(2, 4))
            g = lattice_element(lattice_emb, kg)
            h = lattice_element(lattice_emb, kh)
            assert representation_defect(lattice_emb, g, h, f) <= 1e-10

    def test_representation_property_all_radius1_pairs(self, lattice_emb,
                                                       lattice_theta):
        f = sample_vector(lattice_theta, step=1 / 8)
        ks = enumerate_indices(1)
        defects = representation_defect(lattice_emb, lattice_element(lattice_emb, ks[:, None]),
                                         lattice_element(lattice_emb, ks[None]), f)
        assert defects.shape == (81, 81)
        # an unresolved pair reads NaN and fails the comparison
        assert np.max(defects) <= 1e-10

    @pytest.mark.parametrize("kind", ["lattice", "vector"])
    def test_defect_rows_match_single_pairs(self, kind, request):
        # rows of (g, h) pairs, broadcast over two axes and run in blocks,
        # give each pair's one-pair residual bit for bit
        emb = request.getfixturevalue(f"{kind}_emb")
        f = sample_vector(theta_test_vector(emb), step=1 / 8)
        kg, kh = np.random.default_rng(23).integers(-2, 3, size=(2, 11, 4))
        rows = representation_defect(emb, lattice_element(emb, kg[:, None]),
                                     lattice_element(emb, kh[None]), f)
        assert rows.shape == (11, 11)
        for a, b in np.ndindex(rows.shape):
            one = representation_defect(emb, lattice_element(emb, kg[a]),
                                        lattice_element(emb, kh[b]), f)
            assert isinstance(one, float)
            assert rows[a, b].tobytes() == np.float64(one).tobytes(), (kg[a], kh[b])

    def test_unresolved_pairs_read_nan(self):
        # at theta1 = 20.3 the shift by g = e1 moves pi_{g+h} f off the sample
        # grid, whose half-width is about 5: the pair compares vanishing samples
        emb = build_embedding(EmbeddingKind.VECTOR_SPACE, 20.3, 18.5)
        f = sample_vector(theta_test_vector(emb), step=1 / 16)
        with np.errstate(over="ignore", invalid="ignore"):  # off-grid tails overflow
            defects = representation_defect(
                emb, lattice_element(emb, [[1, 0, 0, 0], [0, 1, 0, 0]]),
                lattice_element(emb, [0, 0, 0, 0]), f)
        assert np.isnan(defects[0])
        assert defects[1] <= 1e-10

    def test_closed_form_matches_sampled(self, lattice_emb, lattice_theta):
        # pi-stability: the descriptor transform against the pointwise
        # definition e^{2 pi i (w2 s + t.n) + i pi (w1 w2 + m.t)} f(s + w1, n + m)
        f = replace(lattice_theta, linear=0.25, n_shift=(1, -1), n_phase=(0.2, -0.15))
        for k in ([1, 1, 1, 0], [-1, 2, 1, -1]):
            h = lattice_element(lattice_emb, k)
            sampled = apply_pi(h, sample_vector(f, step=1 / 16))
            s, n1, n2 = sampled.grids()
            (w1, m1, m2), (w2, t1, t2) = h.m_part, h.dual_part
            direct = (np.exp(2j * math.pi * (w2 * s + t1 * n1 + t2 * n2)
                             + 1j * math.pi * (w1 * w2 + m1 * t1 + m2 * t2))
                      * f.evaluate(s + w1, n1 + m1, n2 + m2))
            assert np.max(np.abs(sampled.values - direct)) <= 1e-10, k

    def test_sampled_vector_takes_one_point(self, lattice_emb, lattice_theta):
        f = sample_vector(lattice_theta, step=1 / 4)
        rows = lattice_element(lattice_emb, [[0, 0, 1, 0], [1, 0, 0, 0]])
        with pytest.raises(ValueError):
            apply_pi(rows, f)
        # a closed form pushed through the rows evaluates each of them: the
        # rows lead, and two rows no longer unpack as one shift's two entries
        pushed = apply_pi(rows, lattice_theta).evaluate(0.0, 0, 0)
        single = [apply_pi(lattice_element(lattice_emb, k), lattice_theta).evaluate(0.0, 0, 0)
                  for k in rows.k]
        assert pushed.shape == (2,)
        assert pushed.tobytes() == np.array(single).tobytes()

    @pytest.mark.parametrize("kind", ["lattice", "vector"])
    def test_rows_evaluate_each_point(self, kind, request):
        # each row of a pushed form's samples is the one-point push's
        # samples, bit for bit; row axes lead the grid axes
        emb = request.getfixturevalue(f"{kind}_emb")
        f = theta_vector(request.getfixturevalue(f"{kind}_structure"))
        grids = sample_vector(f, step=1 / 8).grids()
        ks = enumerate_indices(1).reshape(9, 9, 4)
        rows = apply_pi(lattice_element(emb, ks), f).evaluate(*grids)
        assert rows.shape == (9, 9) + np.broadcast(*grids).shape
        for idx in np.ndindex(9, 9):
            one = apply_pi(lattice_element(emb, ks[idx]), f).evaluate(*grids)
            assert rows[idx].tobytes() == one.tobytes(), ks[idx]

    @pytest.mark.parametrize("kind", ["lattice", "vector"])
    def test_rows_push_each_point(self, kind, request):
        # a closed form pushed through rows carries, per point, the
        # descriptor of the one-point push, bit for bit
        emb = request.getfixturevalue(f"{kind}_emb")
        f = theta_vector(request.getfixturevalue(f"{kind}_structure"))
        ks = enumerate_indices(1)
        rows = apply_pi(lattice_element(emb, ks), f)
        for j, k in enumerate(ks):
            one = apply_pi(lattice_element(emb, k), f)
            for name in ("linear", "amplitude", "n_shift", "n_phase"):
                got, want = np.asarray(getattr(rows, name)), np.asarray(getattr(one, name))
                if got.ndim > want.ndim:
                    got = got[j]
                assert got.tobytes() == want.tobytes(), (name, k)

    def test_kind_mismatch(self, vector_emb, lattice_theta):
        h = lattice_element(vector_emb, [1, 0, 0, 0])
        with pytest.raises(KindMismatch):
            apply_pi(h, lattice_theta)

    def test_vector_kind_transform(self, vector_emb, vector_structure):
        f = theta_vector(vector_structure)
        h = lattice_element(vector_emb, [1, 2, -1, 1])
        out = apply_pi(h, f)
        s1, s2 = 0.3, -0.4
        x1, x2 = h.m_part, h.dual_part
        direct = (np.exp(2j * math.pi * (x2[0] * s1 + x2[1] * s2)
                         + 1j * math.pi * float(x1 @ x2))
                  * f.evaluate(s1 + x1[0], s2 + x1[1]))
        assert out.evaluate(s1, s2) == pytest.approx(direct)


class TestGenerators:
    def test_u1_shifts(self, lattice_emb, lattice_theta):
        out = apply_generator(lattice_emb, 1, lattice_theta)
        s = np.linspace(-1, 1, 7)
        assert np.allclose(out.evaluate(s, 0, 1),
                           lattice_theta.evaluate(s + 0.5, 0, 1))

    def test_u3_shifts_modes(self, lattice_emb, lattice_theta):
        out = apply_generator(lattice_emb, 3, lattice_theta)
        # m column (1, 0), t column (0, 0.3): phase e^{2 pi i 0.3 n2} e^{pi i 0.3 m2...}
        val = out.evaluate(0.0, 0, 0)
        expected = (np.exp(2j * math.pi * 0.0) * lattice_theta.evaluate(0.0, 1, 0))
        assert val == pytest.approx(expected)

    def test_generator_on_zero_vector(self, lattice_emb, lattice_theta):
        zero = sample_vector(replace(lattice_theta, amplitude=0.0), step=1 / 8)
        out = apply_generator(lattice_emb, 2, zero)
        assert np.all(out.values == 0)

    def test_finite_operator_phase(self):
        fp = FinitePart(m1=2, n1=1, m2=3, n2=2)
        emb = build_embedding(EmbeddingKind.VECTOR_SPACE, 0.5, 0.4, finite_part=fp)
        fin = default_finite_vector(fp)
        f = sample_vector(theta_test_vector(emb), step=1 / 8, finite_vector=fin)
        out = apply_generator(emb, 2, f)
        # W_2 multiplies by e^{2 pi i k1 / 2}: -1 at k1 = 1
        assert np.allclose(out.finite_vector[1], -fin[1])
        assert np.allclose(out.finite_vector[0], fin[0])
        # the continuous shift of U_1 picks up n1/m1
        out1 = apply_generator(emb, 1, f)
        src = out1.source
        assert src.linear == pytest.approx(
            np.asarray(f.source.quadratic) @ np.array([1.0, 0.0]) + 0.0)


class TestCommutationPhase:
    def test_lattice_all_pairs(self, lattice_emb):
        f = sample_vector(theta_test_vector(lattice_emb), step=1 / 16)
        theta = commutation_matrix(lattice_emb)
        for i in range(1, 5):
            for j in range(1, 5):
                got = measure_commutation_phase(lattice_emb, i, j, f)
                assert abs(got - theta.phase(i, j)) <= 1e-9

    def test_vector_with_finite_part(self):
        fp = FinitePart(m1=2, n1=1, m2=3, n2=2)
        emb = build_embedding(EmbeddingKind.VECTOR_SPACE, 0.5, 0.4, finite_part=fp)
        f = sample_vector(theta_test_vector(emb), step=1 / 8,
                          finite_vector=default_finite_vector(fp))
        theta = commutation_matrix(emb)
        for (i, j) in [(1, 2), (2, 1), (3, 4), (4, 3), (1, 3), (2, 4), (1, 4)]:
            got = measure_commutation_phase(emb, i, j, f)
            assert abs(got - theta.phase(i, j)) <= 1e-9

    def test_finite_part_changes_raw_phase(self):
        # without the finite operators the rational shift shows up in the phase
        fp = FinitePart(m1=2, n1=1, m2=3, n2=2)
        emb = build_embedding(EmbeddingKind.VECTOR_SPACE, 0.5, 0.4, finite_part=fp)
        f = sample_vector(theta_test_vector(emb), step=1 / 8)  # no finite vector
        got = measure_commutation_phase(emb, 1, 2, f)
        bare = np.exp(2j * math.pi * (0.5 + 0.5))
        assert abs(got - bare) <= 1e-9
        assert abs(got - commutation_matrix(emb).phase(1, 2)) > 0.5

    def test_two_resolution_agreement(self, lattice_emb):
        # the measurement is its own oracle: refining the grid moves nothing
        coarse = sample_vector(theta_test_vector(lattice_emb), step=1 / 16)
        fine = sample_vector(theta_test_vector(lattice_emb), step=1 / 32)
        for (i, j) in [(1, 2), (3, 4), (2, 3)]:
            a = measure_commutation_phase(lattice_emb, i, j, coarse)
            b = measure_commutation_phase(lattice_emb, i, j, fine)
            assert abs(a - b) <= 1e-10

    def test_degenerate_vector_raises(self, lattice_emb):
        faint = replace(theta_test_vector(lattice_emb), amplitude=1e-12)
        dead = sample_vector(faint, step=1 / 8)
        with pytest.raises(DegenerateTestVector):
            measure_commutation_phase(lattice_emb, 1, 2, dead)


ALL_PAIRS = [(i, j) for i in range(1, 5) for j in range(1, 5)]
CANON_DELTA = [[0.0, 0.7], [0.3, 0.0]]
CANON_FINITE = FinitePart(m1=2, n1=1, m2=3, n2=2)
PHASE_EMBEDDINGS = {
    "lattice-canonical": dict(kind=EmbeddingKind.LATTICE, theta1=0.5, m=[[1, 0], [0, 1]],
                              delta_hat=CANON_DELTA),
    "vector-canonical": dict(kind=EmbeddingKind.VECTOR_SPACE, theta1=0.5, theta2=0.4,
                             finite_part=CANON_FINITE),
    "vector-theta-20.3-18.5": dict(kind=EmbeddingKind.VECTOR_SPACE, theta1=20.3, theta2=18.5,
                                   finite_part=CANON_FINITE),
    "lattice-theta1-25.3": dict(kind=EmbeddingKind.LATTICE, theta1=25.3, m=[[1, 0], [0, 1]],
                                delta_hat=CANON_DELTA),
}


def _suite_setup(name):
    """Embedding and sampled test vector as the commutation suite builds them."""
    emb = build_embedding(**PHASE_EMBEDDINGS[name])
    fin = default_finite_vector(emb.finite_part) if emb.finite_part else None
    return emb, sample_vector(theta_test_vector(emb), step=1 / 16, finite_vector=fin)


def _reference_phase(emb, i, j, f):
    """Reference: the one-pair measurement, both words formed for each ordered pair."""
    ji = heisenberg.apply_generator(emb, i, heisenberg.apply_generator(emb, j, f))
    ij = heisenberg.apply_generator(emb, j, heisenberg.apply_generator(emb, i, f))
    num = heisenberg._tensor_values(ji)
    den = heisenberg._tensor_values(ij)
    mask = np.abs(den) > PHASE_MASK_THRESHOLD
    if not mask.any():
        raise DegenerateTestVector("all grid magnitudes below the phase threshold")
    return complex(np.mean(num[mask] / den[mask]))


def _bits(z):
    return struct.pack("<dd", z.real, z.imag)


def _outcome(measure, *args):
    """The bits of a measured phase, or the type and message of its refusal."""
    try:
        return _bits(measure(*args))
    except DegenerateTestVector as exc:
        return type(exc), str(exc)


class TestBatchedCommutationPhases:
    # the large thetas overflow in the samples of the shifted words, on both routes
    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning",
                                "ignore:invalid value encountered in multiply:RuntimeWarning")
    @pytest.mark.parametrize("name", PHASE_EMBEDDINGS)
    def test_every_pair_matches_the_per_pair_reference(self, name):
        emb, f = _suite_setup(name)
        expected = {pair: _outcome(_reference_phase, emb, *pair, f) for pair in ALL_PAIRS}
        for pair in ALL_PAIRS:
            assert _outcome(lambda: measure_commutation_phases(emb, [pair], f)[0]) \
                == expected[pair], pair
        resolved = [pair for pair in ALL_PAIRS if isinstance(expected[pair], bytes)]
        assert resolved
        got = measure_commutation_phases(emb, resolved, f)
        assert [_bits(z) for z in got] == [expected[pair] for pair in resolved]
        if len(resolved) == len(ALL_PAIRS):
            return
        # the shifted Gaussians of the large thetas leave the grid: the
        # 16-pair call refuses as the first unresolved pair did
        with pytest.raises(DegenerateTestVector,
                           match="^all grid magnitudes below the phase threshold$"):
            measure_commutation_phases(emb, ALL_PAIRS, f)

    @pytest.mark.parametrize("name", ["lattice-canonical", "vector-canonical"])
    @pytest.mark.parametrize("pairs", [
        [(3, 1), (2, 2), (1, 3)],
        [(1, 2), (1, 2), (2, 1), (1, 2)],
        ALL_PAIRS[::-1],
        [],
    ], ids=["subset", "repeated", "reversed", "empty"])
    def test_subsets_repeats_and_orders(self, name, pairs):
        emb, f = _suite_setup(name)
        got = measure_commutation_phases(emb, pairs, f)
        assert [_bits(z) for z in got] == [_bits(_reference_phase(emb, i, j, f))
                                           for i, j in pairs]

    def test_degenerate_config_still_refused(self):
        # vector theta = (5, 4), tau = diag(5i, 4i): U_1 and U_3 shift the
        # test vector off its grid
        cfg = parse_config({
            "embedding": {"kind": "vector_space", "theta1": 5, "theta2": 4},
            "structure": {"tau": [[[0, 5], [0, 0]], [[0, 0], [0, 4]]]},
            "seed": 42})
        message = "all grid magnitudes below the phase threshold"
        emb = cfg.build_embedding()
        f = sample_vector(theta_test_vector(emb), step=1 / 16)
        with pytest.raises(DegenerateTestVector, match=f"^{message}$"):
            measure_commutation_phases(emb, ALL_PAIRS, f)
        [check] = run_suite(cfg, "commutation").checks
        assert check.name == "commutation (errored)"
        assert check.metadata["error"] == f"DegenerateTestVector: {message}"

    def test_peak_memory_of_all_pairs_within_one_reference_pair(self):
        # every pair's words are released before the next pair's are formed,
        # so 16 pairs peak no higher than one pair of the per-pair reference
        emb, f = _suite_setup("vector-canonical")
        measure_commutation_phases(emb, ALL_PAIRS, f)
        _reference_phase(emb, 1, 2, f)
        peaks = []
        for call in (lambda: _reference_phase(emb, 1, 2, f),
                     lambda: measure_commutation_phases(emb, ALL_PAIRS, f)):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0]

    @pytest.mark.parametrize("fixture", ["lattice_config", "vector_config"])
    def test_suite_forms_each_word_once(self, fixture, request, monkeypatch):
        # 4 diagonal pairs have one word each and 6 off-diagonal pairs two:
        # 16 words of two generators, where one word per order and pair
        # would form 32 words of two
        cfg = request.getfixturevalue(fixture)
        calls = {"apply_generator": 0, "_tensor_values": 0}

        def counted(name):
            original = getattr(heisenberg, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(heisenberg, name, counted(name))
        [check] = run_suite(cfg, "commutation").checks
        assert check.passed
        assert calls == {"apply_generator": 32, "_tensor_values": 16}

    @pytest.mark.parametrize("bad", [(0, 1), (1, 0), (5, 1), (1, 5)])
    def test_refuses_generator_indices_before_forming_a_word(self, bad, lattice_emb,
                                                             monkeypatch):
        f = sample_vector(theta_test_vector(lattice_emb), step=1 / 16)
        formed = []
        original = heisenberg.apply_generator
        monkeypatch.setattr(heisenberg, "apply_generator",
                            lambda *args: formed.append(args) or original(*args))
        with pytest.raises(ValueError, match=r"^generator index must be in 1\.\.4$"):
            measure_commutation_phases(lattice_emb, [(1, 2), bad], f)
        assert formed == []


class TestConnections:
    def test_lattice_matrix(self, lattice_emb):
        conn = build_connections(lattice_emb)
        expected = np.array([[2.0, 0, 0, 0], [0, 0, 0, 1],
                             [0, 1, 0, 0], [0, 0, 1, 0]])
        assert np.allclose(conn.matrix, expected)

    def test_inverse_integer_block(self):
        emb = build_embedding(EmbeddingKind.LATTICE, 0.5, m=[[2, 1], [1, 1]],
                              delta_hat=[[0.2, 0.3], [-0.4, -0.3]])
        conn = build_connections(emb)
        b = conn.matrix[2:, 1:3]
        assert np.allclose(b, [[1, -1], [-1, 2]])
        assert np.allclose(np.array([[2, 1], [1, 1]]) @ b, np.eye(2))

    def test_vector_matrix(self, vector_emb):
        conn = build_connections(vector_emb)
        expected = np.array([[2.0, 0, 0, 0], [0, 0, 1, 0],
                             [0, 2.5, 0, 0], [0, 0, 0, 1]])
        assert np.allclose(conn.matrix, expected)
        # rows solve (coefficients . map) = identity
        assert np.allclose(conn.matrix @ vector_emb.entries, np.eye(4), atol=1e-12)

    def test_duality_rows_lattice(self, lattice_emb):
        conn = build_connections(lattice_emb)
        assert np.allclose(conn.matrix @ lattice_emb.entries[:4], np.eye(4),
                           atol=1e-12)


class TestCommutatorResidual:
    def test_all_pairs_both_kinds(self, lattice_emb, vector_emb):
        for emb in (lattice_emb, vector_emb):
            f = theta_test_vector(emb)
            for i in range(1, 5):
                for j in range(1, 5):
                    r = connection_commutator_residual(emb, i, j, f, step=1e-3)
                    assert r <= 1e-6, (emb.kind, i, j, r)

    def test_refinement_shrinks_residual(self, lattice_emb):
        f = theta_test_vector(lattice_emb)
        resids = [connection_commutator_residual(lattice_emb, 2, 2, f, step=s)
                  for s in (8e-3, 4e-3, 2e-3, 1e-3)]
        assert all(b < a for a, b in zip(resids, resids[1:]))
        assert all(b <= a / 8 for a, b in zip(resids, resids[1:]))

    @pytest.mark.parametrize("bad", [(0, 1), (1, 0), (5, 1), (1, 5)])
    def test_refuses_generator_indices_outside_one_to_four(self, bad, lattice_emb, vector_emb):
        # index 0 used to wrap round to generator 4, and 5 to end in an IndexError
        for emb in (lattice_emb, vector_emb):
            with pytest.raises(ValueError, match=r"^generator index must be in 1\.\.4$"):
                connection_commutator_residual(emb, *bad, theta_test_vector(emb))

    def test_requires_closed_backing(self, lattice_emb, lattice_theta):
        raw = sample_vector(lattice_theta, step=1 / 8).values
        with pytest.raises(UnsupportedVector):
            connection_commutator_residual(lattice_emb, 1, 1, raw)
