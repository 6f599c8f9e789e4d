"""Module vectors and the Heisenberg operators acting on them.

Every module vector is a :class:`ClosedFormVector`: a Gaussian descriptor
(quadratic, linear and constant exponent data plus discrete decay), closed
under every operator in this module, and evaluable exactly at arbitrary
points. A :class:`SampledVector` is a closed form together with a sample
grid; its values are that closed form evaluated on the grid. Operators act
on the closed form and leave the grid alone, so the samples of a result
are exact.

Operator word order: products are written as acting on the right, so in
the word U_j U_i the factor U_j acts first. The measured commutation phase
(U_j U_i f) / (U_i U_j f) then equals e^{2 pi i theta_ij} with theta from
:func:`nctheta.embedding.commutation_matrix`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations

import numpy as np

from .embedding import (
    EmbeddingKind,
    EmbeddingMap,
    LatticeElement,
    _paired_exponent,
    lattice_element,
)
from .errors import (
    DegenerateTestVector,
    KindMismatch,
    NotPositive,
    UnsupportedVector,
)
from .special import _cmul

PHASE_MASK_THRESHOLD = 1e-8
# Pairs per block of representation_defect: a block holds three sample
# grids per pair (two complex, one real).
REPRESENTATION_BLOCK = 4
# Sample grids extend until the Gaussian tails fall below this magnitude.
SAMPLE_TAIL = 1e-45


def _min_im_eig(quadratic) -> float:
    return float(np.min(np.linalg.eigvalsh(quadratic.imag)))


@dataclass(frozen=True)
class ClosedFormVector:
    """Gaussian module element, exactly evaluable and operator-stable.

    One Gaussian over R^d, d = 2 on the plane and 1 on R x Z^2, with a d x d
    ``quadratic`` and a (d,) ``linear`` (scalars are taken as 1 x 1 and (d,)):
        f(S) = amplitude * exp(pi i (S^t quadratic S + 2 linear . S))
    On R x Z^2, and only there, ``decay`` is set and f carries the Z^2 factor
        exp(-pi decay |n + n_shift|^2) * exp(2 pi i n_phase . n).

    A form pushed through rows of lattice points (:func:`apply_pi`) holds one
    ``linear``, ``amplitude``, ``n_shift`` and ``n_phase`` per point.
    """

    kind: EmbeddingKind
    quadratic: np.ndarray
    linear: np.ndarray = 0.0
    amplitude: complex = 1.0
    decay: float | None = None
    n_shift: tuple[int, int] = (0, 0)
    n_phase: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        d = 1 if self.kind is EmbeddingKind.LATTICE else 2
        quadratic = np.reshape(np.asarray(self.quadratic, dtype=complex), (d, d))
        linear = np.asarray(self.linear, dtype=complex)
        object.__setattr__(self, "quadratic", quadratic)
        object.__setattr__(self, "linear", np.full(d, linear) if linear.ndim == 0 else linear)
        if _min_im_eig(quadratic) <= 0:
            raise NotPositive("Im(quadratic) must be positive (definite)")
        if d == 1 and (self.decay is None or self.decay <= 0):
            raise NotPositive("lattice vectors need a positive discrete decay")
        if d == 2 and self.decay is not None:
            raise KindMismatch("vector-space vectors have no discrete decay")

    def evaluate(self, *coords) -> np.ndarray:
        """Pointwise values at (S, n); arguments broadcast like numpy arrays.

        The exponent is a sum of one term per coordinate, plus a cross term
        per off-diagonal pair of ``quadratic``, so each term is exponentiated
        on its own coordinates and the factors multiply: on an open mesh
        (``np.ix_``) that is one exponential per axis point, not one per
        grid point. The Z^2 factors come first, when ``decay`` is set. A
        form pushed through rows of points gives one grid per row: the rows
        lead, the result has shape (..., *grid), and each row equals the
        one-point evaluation bit for bit.
        """
        coords = [np.asarray(c) for c in coords]
        pad = (1,) * np.broadcast(*coords).ndim

        def lead(param):
            """A parameter's row axes, ahead of the grid axes."""
            return np.reshape(param, np.shape(param) + pad)

        # numpy's complex product runs the same loop on a row of a block as on
        # one row, so rows match one-point calls bit for bit; _cmul would cost
        # as much as the exponentials it multiplies
        q, d = self.quadratic, len(self.quadratic)
        value = lead(self.amplitude)
        if self.decay is not None:
            shifts = np.moveaxis(np.asarray(self.n_shift), -1, 0)
            phases = np.moveaxis(np.asarray(self.n_phase), -1, 0)
            for n, u, p in zip(coords[d:], shifts, phases):
                value = value * np.exp(-math.pi * self.decay * (n + lead(u)) ** 2
                                       + 2j * math.pi * lead(p) * n)
        for j, s in enumerate(coords[:d]):
            value = value * np.exp(1j * math.pi * (q[j, j] * s * s
                                                   + 2.0 * lead(self.linear[..., j]) * s))
        for i, j in combinations(range(d), 2):
            cross = q[i, j] + q[j, i]
            if cross != 0:
                value = value * np.exp(1j * math.pi * cross * coords[i] * coords[j])
        return value

    def sup_extent(self) -> float:
        """Continuous half-width beyond which |f| drops under SAMPLE_TAIL."""
        rate = math.pi * _min_im_eig(self.quadratic)
        return math.sqrt(-math.log(SAMPLE_TAIL) / rate) + 1.0


@dataclass(frozen=True)
class SampledVector:
    """A closed-form module element together with a sample grid.

    ``axes`` holds one sample axis per coordinate: the continuous axes (one
    for the lattice kind, two for the vector-space kind) and, for lattice
    vectors, the symmetric integer window n in [-w, w] twice. ``values``
    are the samples of ``source`` on that grid, evaluated on first use, so
    samples and source cannot disagree.
    """

    kind: EmbeddingKind
    axes: tuple[np.ndarray, ...]
    source: ClosedFormVector
    finite_vector: np.ndarray | None = None

    @cached_property
    def values(self) -> np.ndarray:
        return self.source.evaluate(*self.grids())

    def grids(self):
        """Open mesh of all coordinates, broadcastable against values."""
        return np.ix_(*self.axes)


def theta_test_vector(emb: EmbeddingMap) -> ClosedFormVector:
    """A generic normalized Gaussian suitable for operator measurements."""
    if emb.kind is EmbeddingKind.LATTICE:
        return ClosedFormVector(emb.kind, quadratic=2j, decay=1.0 / emb.theta34)
    return ClosedFormVector(emb.kind, quadratic=2j * np.eye(2))


def sample_vector(f: ClosedFormVector, step: float,
                  finite_vector: np.ndarray | None = None) -> SampledVector:
    """Sample a closed form on a symmetric uniform grid with the given step.

    The grid reaches out until the Gaussian tails of ``f`` fall below
    SAMPLE_TAIL, in the continuous axes and, for the lattice kind, in the
    integer window. ``finite_vector`` is the factor on the finite group
    Z_m1 x Z_m2, if the embedding has one.
    """
    n_pts = int(round(f.sup_extent() / step))
    axes = (step * np.arange(-n_pts, n_pts + 1),) * len(f.quadratic)
    if f.decay is not None:
        window = math.ceil(math.sqrt(-math.log(SAMPLE_TAIL) / (math.pi * f.decay))) + 1
        axes += (np.arange(-window, window + 1),) * 2
    return SampledVector(f.kind, axes, f, finite_vector=finite_vector)


def default_finite_vector(fp) -> np.ndarray:
    """Deterministic nowhere-vanishing test function on Z_m1 x Z_m2."""
    k1 = np.arange(fp.m1)[:, None]
    k2 = np.arange(fp.m2)[None, :]
    mag = 1.0 + 0.25 * np.cos(1.0 + k1 + 2.0 * k2)
    return mag * np.exp(2j * math.pi * (0.37 * k1 + 0.71 * k2))


def _transform_closed(h: LatticeElement, f: ClosedFormVector) -> ClosedFormVector:
    """Push a closed form through pi_h at each point of h; the Gaussian class is stable.
    The first d coordinates of h's parts push f(S), the rest the Z^2 factor."""
    if f.kind is not h.kind:
        raise KindMismatch("vector and lattice element kinds differ")
    q, l, d = f.quadratic, f.linear, len(f.quadratic)
    row, x1, x2 = h.m_part[..., None, :d], h.m_part[..., :d, None], h.dual_part[..., :d, None]
    expo = (row @ q @ x1 + 2.0 * (l[..., None, :] @ x1) + row @ x2)[..., 0, 0]
    changes = {"linear": (q @ x1)[..., 0] + l + h.dual_part[..., :d],
               "amplitude": _cmul(f.amplitude, np.exp(1j * math.pi * expo))}
    if f.decay is not None:
        m, t = h.m_part[..., d:], h.dual_part[..., d:]
        expo = np.sum((2.0 * np.asarray(f.n_phase) + t) * m, axis=-1)
        changes.update(amplitude=_cmul(changes["amplitude"], np.exp(1j * math.pi * expo)),
                       n_shift=np.add(f.n_shift, m), n_phase=np.add(f.n_phase, t))
    return replace(f, **changes)


def apply_pi(h: LatticeElement, f):
    """Heisenberg operator pi_h: translate by the M part, modulate by the
    dual part, with the symmetrizing half-phase on the cross term.

    Closed forms stay closed forms, one descriptor entry per point of h. A
    sampled vector takes one point (ValueError for rows): it keeps its grid
    and carries the transformed closed form, so its values are the exact
    re-evaluation on that grid. The finite factor is untouched here; see
    :func:`apply_generator`.
    """
    if isinstance(f, ClosedFormVector):
        return _transform_closed(h, f)
    if h.k.ndim != 1:
        raise ValueError("a sampled vector is pushed through one lattice point")
    return replace(f, source=_transform_closed(h, f.source))


def _check_generators(*indices) -> None:
    if not all(1 <= j <= 4 for j in indices):
        raise ValueError("generator index must be in 1..4")


def _finite_operator(fp, j: int, finite_vector: np.ndarray) -> np.ndarray:
    """Generator action on the finite factor Z_m1 x Z_m2."""
    v = finite_vector
    if j == 1:
        return np.roll(v, 1, axis=0)
    if j == 2:
        k1 = np.arange(fp.m1)[:, None]
        return np.exp(2j * math.pi * fp.n1 * k1 / fp.m1) * v
    if j == 3:
        return np.roll(v, 1, axis=1)
    k2 = np.arange(fp.m2)[None, :]
    return np.exp(2j * math.pi * fp.n2 * k2 / fp.m2) * v


def generator_element(emb: EmbeddingMap, j: int) -> LatticeElement:
    """Lattice element realizing the continuous part of generator U_j.

    With a finite factor present, the vector-space shifts acquire the
    rational corrections n_i/m_i that the finite operators cancel in the
    commutation phases.
    """
    _check_generators(j)
    el = lattice_element(emb, np.eye(4, dtype=np.int64)[j - 1])
    fp = emb.finite_part
    if fp is None or emb.kind is not EmbeddingKind.VECTOR_SPACE:
        return el
    m_part = el.m_part.copy()
    if j == 1:
        m_part[0] += fp.n1 / fp.m1
    elif j == 3:
        m_part[1] += fp.n2 / fp.m2
    return replace(el, m_part=m_part)


def apply_generator(emb: EmbeddingMap, j: int, f):
    """Torus generator U_j acting on a module vector.

    Equals pi at the j-th embedding column; when the embedding carries a
    finite factor (vector-space kind), the continuous shift is corrected
    and the finite operator acts on the attached finite vector.
    """
    out = apply_pi(generator_element(emb, j), f)
    fp = emb.finite_part
    fin = getattr(f, "finite_vector", None)
    if fp is not None and fin is not None:
        out = replace(out, finite_vector=_finite_operator(fp, j, fin))
    return out


def _tensor_values(f: SampledVector) -> np.ndarray:
    if f.finite_vector is None:
        return f.values
    extra = (1,) * f.finite_vector.ndim
    return f.values.reshape(f.values.shape + extra) * f.finite_vector


def measure_commutation_phases(emb: EmbeddingMap, pairs, f: SampledVector) -> list[complex]:
    """Measured commutation phases of generators U_i and U_j, one per (i, j) of PAIRS.

    Each is the pointwise ratio of the word U_j U_i (U_j acts first) to the
    word U_i U_j, averaged over grid points whose reference magnitude exceeds
    PHASE_MASK_THRESHOLD; for a valid embedding, e^{2 pi i theta_ij}. Both
    words of {i, j} are formed once, and released before the next pair's.
    """
    pairs = [tuple(pair) for pair in pairs]
    _check_generators(*(j for pair in pairs for j in pair))
    phases = {}
    for a, b in dict.fromkeys((min(pair), max(pair)) for pair in pairs):
        # first[x] is the word in which U_x acts first
        first = {x: _tensor_values(apply_generator(emb, y, apply_generator(emb, x, f)))
                 for x, y in {(a, b), (b, a)}}
        for i, j in {(a, b), (b, a)} & set(pairs):
            mask = np.abs(first[i]) > PHASE_MASK_THRESHOLD
            if not mask.any():
                raise DegenerateTestVector("all grid magnitudes below the phase threshold")
            ratio = first[j][mask]
            ratio /= first[i][mask]
            phases[i, j] = complex(np.mean(ratio))
        del first, mask, ratio
    return [phases[pair] for pair in pairs]


@dataclass(frozen=True)
class ConnectionSet:
    """Constant-curvature connection coefficients for one embedding.

    ``matrix`` is the 4x4 coefficient table: row i defines
    nabla_i = -2 pi i (multiplier coefficients . coordinates)
              + (derivative coefficients . d/ds).
    Vector-space kind: coordinates (s1, s2), derivatives (d/ds1, d/ds2).
    Lattice kind: coordinates (s, n1, n2), a single derivative d/ds.
    """

    kind: EmbeddingKind
    matrix: np.ndarray

    @property
    def multiplier(self) -> np.ndarray:
        cut = 2 if self.kind is EmbeddingKind.VECTOR_SPACE else 3
        return self.matrix[:, :cut]

    @property
    def derivative(self) -> np.ndarray:
        cut = 2 if self.kind is EmbeddingKind.VECTOR_SPACE else 3
        return self.matrix[:, cut:]


def build_connections(emb: EmbeddingMap) -> ConnectionSet:
    """Connection coefficients: rows solving (coefficients . first four rows
    of the map) = identity, the inverse of those rows. On the lattice kind
    that embeds 1/theta1 and the inverse of the integer block."""
    return ConnectionSet(emb.kind, np.linalg.inv(emb.entries[:4]))


def _require_closed(f) -> ClosedFormVector:
    if isinstance(f, ClosedFormVector):
        return f
    if isinstance(f, SampledVector):
        return f.source
    raise UnsupportedVector("residual measurement needs a module vector")


def _fd4(evaluate, coords, axis: int, step: float) -> np.ndarray:
    """Order-4 central difference along one continuous coordinate."""
    def shifted(mult):
        moved = list(coords)
        moved[axis] = coords[axis] + mult * step
        return evaluate(*moved)

    return (-shifted(2.0) + 8.0 * shifted(1.0) - 8.0 * shifted(-1.0) + shifted(-2.0)) / (12.0 * step)


def apply_connections(conn: ConnectionSet, coefficients, evaluate, coords,
                      step: float) -> np.ndarray:
    """sum_i c_i nabla_i of a function at the probe coordinates ``coords``, one
    grid per row of ``coefficients`` (..., 4), rows leading.

    ``evaluate`` gives the function's values at broadcast coordinates;
    derivatives are order-4 central differences with the given step. The
    values, each connection's multiplier and each derivative axis some row
    reads are formed once per call. Each row accumulates its terms
    connection by connection, the multiplier first and then one derivative
    at a time, and skips zero coefficients: a row's grid does not depend on
    the rows that share the call.
    """
    rows = np.asarray(coefficients, dtype=complex)
    flat = rows.reshape(-1, 4)
    shape = np.broadcast(*coords).shape
    vals = evaluate(*coords)
    lins = [sum(m * coord for m, coord in zip(mult, coords) if m != 0.0)
            for mult in conn.multiplier]
    read = np.any(conn.derivative[np.any(flat != 0, axis=0)] != 0.0, axis=0)
    derivs = {d: _fd4(evaluate, coords, d, step) for d in np.flatnonzero(read).tolist()}
    out = np.zeros((len(flat),) + shape, dtype=complex)
    for combo, row in zip(out, flat):
        for c, lin, deriv in zip(row, lins, conn.derivative):
            if c == 0:
                continue
            combo += c * (-2j * math.pi) * lin * vals
            for d, dc in enumerate(deriv):
                if dc != 0.0:
                    combo += c * dc * derivs[d]
    return out.reshape(rows.shape[:-1] + shape)


def _probe_coords(emb: EmbeddingMap):
    if emb.kind is EmbeddingKind.LATTICE:
        s = np.linspace(-2.5, 2.5, 205)
        n = np.arange(-2, 3)
        return np.ix_(s, n, n)
    s = np.linspace(-2.0, 2.0, 41)
    return np.ix_(s, s)


def connection_commutator_residual(emb: EmbeddingMap, i, j: int, f,
                                   step: float = 1e-3):
    """Sup-norm defect of [nabla_i, U_j] = 2 pi i delta_ij U_j on a probe grid,
    one per connection index of ``i``; an int ``i`` gives a float.

    Derivatives use order-4 central differences with the given step; the
    defect is normalized by max |U_j f| over the probes. The finite factor
    is outside the scope of this contract and is ignored.
    """
    i = np.asarray(i)
    _check_generators(*i.ravel(), j)
    closed = _require_closed(f)
    conn = build_connections(emb)
    el = lattice_element(emb, np.eye(4, dtype=np.int64)[j - 1])
    uf = _transform_closed(el, closed)
    coords = _probe_coords(emb)
    rows = np.eye(4)[i - 1]
    term1 = apply_connections(conn, rows, uf.evaluate, coords, step)

    # (pi_h f)(x) = e^{2 pi i <dual, x> + pi i <m, dual>} f(x + m) for h = (m, dual)
    shifted = [c + x for c, x in zip(coords, el.m_part)]
    phase = np.exp(2j * math.pi * sum(x * c for x, c in zip(el.dual_part, coords))
                   + 1j * math.pi * sum(x * y for x, y in zip(el.m_part, el.dual_part)))
    term2 = phase * apply_connections(conn, rows, closed.evaluate, shifted, step)

    uf_vals = uf.evaluate(*coords)
    defect = term1 - term2
    defect[i == j] -= 2j * math.pi * uf_vals
    denom = float(np.max(np.abs(uf_vals)))
    if denom < PHASE_MASK_THRESHOLD:
        raise DegenerateTestVector("test vector vanishes on the probe grid")
    out = np.max(np.abs(defect).reshape(i.shape + (-1,)), axis=-1) / denom
    return float(out) if out.ndim == 0 else out


def _pair_rows(el: LatticeElement, shape) -> list[np.ndarray]:
    """k, M part and dual part of EL broadcast to the pair SHAPE, as (N, ...) rows."""
    return [np.broadcast_to(a, shape + a.shape[-1:]).reshape(-1, a.shape[-1])
            for a in (el.k, el.m_part, el.dual_part)]


def representation_defect(emb: EmbeddingMap, g: LatticeElement, h: LatticeElement,
                          f: SampledVector):
    """Sup-norm of pi_g pi_h f - alpha(g, h) pi_{g+h} f on the grid of f,
    relative to max |f|, for each pair of broadcast rows of g and h.

    This is the operator-composition oracle behind the cocycle formula: alpha
    is the one every route reads (``embedding._paired_exponent``), and the
    other side is the phases of :func:`apply_pi`.

    A pair is resolved when max |alpha pi_{g+h} f| on the grid reaches
    PHASE_MASK_THRESHOLD max |f| and every sample of both sides is finite.
    An unresolved pair reads NaN, with no numpy warning: its samples vanish
    on the grid, or a descriptor over- or underflowed on the way (pi_h f
    with an amplitude of 0 that pi_g multiplies by an overflowing
    exponential). Pairs run in blocks of REPRESENTATION_BLOCK, so memory
    does not grow with their number. One pair gives a float.
    """
    denom = float(np.max(np.abs(f.values)))
    if denom == 0.0:
        raise DegenerateTestVector("zero test vector")
    alpha = np.exp(1j * math.pi * _paired_exponent(emb, g.k, h.k))
    shape = alpha.shape
    total = lattice_element(emb, g.k + h.k)
    sides = [_pair_rows(el, shape) for el in (g, h, total)]
    grids = f.grids()
    alpha = alpha.reshape((-1,) + (1,) * len(grids))
    out = np.empty(len(alpha))
    for lo in range(0, len(alpha), REPRESENTATION_BLOCK):
        gb, hb, sb = (LatticeElement(emb.kind, *(a[lo:lo + REPRESENTATION_BLOCK] for a in side))
                      for side in sides)
        with np.errstate(over="ignore", invalid="ignore"):
            lhs = _transform_closed(gb, _transform_closed(hb, f.source)).evaluate(*grids)
            rhs = _transform_closed(sb, f.source).evaluate(*grids)
        np.multiply(alpha[lo:lo + REPRESENTATION_BLOCK], rhs, out=rhs)
        peak = np.max(np.abs(rhs).reshape(len(rhs), -1), axis=1)
        lhs -= rhs
        defect = np.max(np.abs(lhs).reshape(len(rhs), -1), axis=1) / denom
        resolved = (peak >= PHASE_MASK_THRESHOLD * denom) & np.isfinite(defect)
        out[lo:lo + len(rhs)] = np.where(resolved, defect, np.nan)
    out = out.reshape(shape)
    return float(out) if out.ndim == 0 else out
