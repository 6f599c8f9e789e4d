"""Verification suites and deterministic run reports.

Every suite draws its randomness from a named per-suite stream spawned
from the config seed (Philox counter-based generators, recorded in the
report), so identical configs reproduce identical residuals bit for bit.
Serialized reports deliberately omit wall-clock timing: byte-identical
re-runs are part of the package contract, and timing goes to the console
instead.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig
from .embedding import (
    EmbeddingKind,
    bicharacter_max_residual,
    build_embedding,
    cocycle_identity_max_residual,
    commutation_matrix,
    element_linearity_max_residual,
    enumerate_indices,
    integer_block_inverse,
    lattice_element,
    slab_blocks,
)
from .errors import ConfigInvalid, NCThetaError, SingularIntegerMatrix
from .export import export_coefficients
from .heisenberg import (
    connection_commutator_residual,
    default_finite_vector,
    measure_commutation_phases,
    representation_defect,
    sample_vector,
    theta_test_vector,
)
from .qtheta import (
    VerificationReport,
    _label,
    _phase_basis_defect,
    additivity_gap,
    inner_product_closed,
    inner_product_oracle,
    phase_identity_max_residual,
    quantum_theta_series,
    series_tail_bound,
    verify_consistency_condition,
    verify_functional_equation,
)
from .special import (
    HermitianFormContext,
    completed_square_defect,
    jacobi_theta,
    theta_truncation,
)
from .structures import (
    FORCED_DET,
    RELATIONS,
    antiholomorphic_rows,
    connection_combo_residual,
    holomorphic_feasibility,
    holomorphy_residual,
    theta_vector,
)

RNG_ALGORITHM = "philox4x64"


def _rng_streams(seed: int) -> dict:
    children = np.random.SeedSequence(seed).spawn(len(SUITE_NAMES))
    return {name: np.random.Generator(np.random.Philox(child))
            for name, child in zip(SUITE_NAMES, children)}


@dataclass
class RunContext:
    config: RunConfig
    emb: object
    structure: object
    table: object = None  # the quantum-theta series, exported by write_report
    _rngs: dict | None = field(default=None, init=False, repr=False)
    _series: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def tol(self) -> dict:
        return self.config.tolerances

    def rng(self, suite: str) -> np.random.Generator:
        """The random stream of SUITE; a suite that draws needs a seed.

        The streams are built on the first draw, so a run whose suites never
        draw does not load ``numpy.random``.
        """
        if self.config.seed is None:
            raise ConfigInvalid(f"suite '{suite}' draws random samples; a seed is"
                                " mandatory", "$.seed")
        if self._rngs is None:
            self._rngs = _rng_streams(self.config.seed)
        return self._rngs[suite]

    def series(self, radius: int):
        """The quantum theta series at RADIUS, built (and reassembled) once per run."""
        if radius not in self._series:
            self._series[radius] = quantum_theta_series(self.emb, self.structure, radius)
        return self._series[radius]


def _lower_bound(actual: float, threshold: float) -> float:
    """Residual that passes (value <= 1) exactly when actual exceeds threshold."""
    return math.inf if actual <= 0 else threshold / actual


# --- individual suites -----------------------------------------------------

def _suite_validate(ctx: RunContext) -> list[VerificationReport]:
    emb, tol = ctx.emb, ctx.tol["identity_abs"]
    rng = ctx.rng("validate")
    theta = commutation_matrix(emb).theta
    reports = [
        VerificationReport.build(
            "embedding-columns", [f"column {j}" for j in range(1, 5)],
            emb.column_condition_residuals(), tol, kind=emb.kind.value, valid=emb.valid),
        VerificationReport.build(
            "deformation-antisymmetry", ["max|theta + theta^T|"],
            [np.max(np.abs(theta + theta.T))],
            tol, theta12=float(theta[0, 1]), theta34=float(theta[2, 3])),
        VerificationReport.build(
            "element-linearity", ["radius 2"], [element_linearity_max_residual(emb)], tol),
        VerificationReport.build(
            "cocycle-bicharacter", ["20 random triples"],
            [bicharacter_max_residual(emb, rng)], tol),
        VerificationReport.build(
            "cocycle-identity", ["all radius-2 triples"],
            [cocycle_identity_max_residual(emb, 2)], tol),
    ]
    f = sample_vector(theta_test_vector(emb), step=1 / 16)
    kg, kh = np.moveaxis(rng.integers(-2, 3, size=(20, 2, 4)), 1, 0)
    defects = representation_defect(emb, lattice_element(emb, kg), lattice_element(emb, kh), f)
    # an unresolved pair reads NaN; with none resolved the check fails
    resolved = defects[~np.isnan(defects)]
    reports.append(VerificationReport.build(
        "cocycle-operator-oracle", ["20 random pairs"],
        [resolved.max() if resolved.size else math.inf], 1e-10, pairs_resolved=resolved.size))
    return reports


def _suite_commutation(ctx: RunContext) -> list[VerificationReport]:
    emb = ctx.emb
    fin = default_finite_vector(emb.finite_part) if emb.finite_part else None
    f = sample_vector(theta_test_vector(emb), step=1 / 16, finite_vector=fin)
    theta = commutation_matrix(emb)
    entries = {}
    measured = {}
    pairs = [(i, j) for i in range(1, 5) for j in range(1, 5)]
    for (i, j), got in zip(pairs, measure_commutation_phases(emb, pairs, f)):
        entries[f"U{i},U{j}"] = abs(got - theta.phase(i, j))
        measured[f"{i}{j}"] = [got.real, got.imag]
    return [VerificationReport.build(
        "commutation-phases", entries, list(entries.values()), ctx.tol["phase_abs"],
        finite_part=emb.finite_part is not None, measured=measured)]


def _suite_connections(ctx: RunContext) -> list[VerificationReport]:
    emb = ctx.emb
    f = theta_test_vector(emb)
    # one call per generator j covers every connection i
    by_j = {j: connection_commutator_residual(emb, range(1, 5), j, f, step=1e-3)
            for j in range(1, 5)}
    entries = {f"nabla{i},U{j}": by_j[j][i - 1] for i in range(1, 5) for j in range(1, 5)}
    reports = [VerificationReport.build("connection-commutator", entries,
                                        list(entries.values()), 1e-6, step=1e-3)]
    pairs = [(2, 2)] if emb.kind is EmbeddingKind.LATTICE else [(2, 2), (4, 4)]
    steps = (8e-3, 4e-3, 2e-3)
    ratio_entries = {}
    for i, j in pairs:
        resids = [connection_commutator_residual(emb, i, j, f, step=s) for s in steps]
        for a in range(len(steps) - 1):
            ratio_entries[f"nabla{i},U{j} {steps[a]:g}->{steps[a + 1]:g}"] = (
                resids[a + 1] / resids[a])
    reports.append(VerificationReport.build(
        "connection-refinement", ratio_entries, list(ratio_entries.values()), 0.125,
        note="order-4 differences: each halving must shrink the residual 8x"))
    return reports


def _suite_holomorphy(ctx: RunContext) -> list[VerificationReport]:
    emb, structure = ctx.emb, ctx.structure
    f = theta_vector(structure)
    rows = antiholomorphic_rows(structure)
    reports = [VerificationReport.build(
        "holomorphy-residual", [f"equation {idx + 1}" for idx in range(len(rows))],
        connection_combo_residual(f, emb, rows), 1e-8)]

    control = replace(f, quadratic=f.quadratic + 1.0)
    bad = holomorphy_residual(control, structure, emb)
    reports.append(VerificationReport.build(
        "holomorphy-negative-control", ["threshold 0.1 / residual"],
        [_lower_bound(bad, 0.1)], 1.0, residual=bad))

    if emb.kind is EmbeddingKind.LATTICE:
        c = ctx.rng("holomorphy").normal(size=(40, 4)).view(complex)
        # each row over its norm as np.linalg.norm takes it of one vector,
        # sqrt(re . re + im . im) by dot products; a norm along an axis sums
        # in another order and moves the last digit of some rows
        re, im = c.real[:, None], c.imag[:, None]
        c = c / np.sqrt(re @ np.swapaxes(re, 1, 2) + im @ np.swapaxes(im, 1, 2))[:, 0]
        worst_low = float(np.min(connection_combo_residual(f, emb, np.pad(c, ((0, 0), (2, 0))))))
        reports.append(VerificationReport.build(
            "discrete-direction-no-annihilation", ["threshold 0.01 / min residual"],
            [_lower_bound(worst_low, 0.01)], 1.0, min_residual=worst_low, combos=40))
    return reports


def _random_lattice_embedding(rng):
    while True:
        m = rng.integers(-3, 4, size=(2, 2))
        try:
            det, _ = integer_block_inverse(m)
        except SingularIntegerMatrix:
            continue
        if det > 0:
            c = 0.25 / det
            delta = np.array([[m[1, 0] * c, m[1, 1] * c],
                              [-m[0, 0] * c, -m[0, 1] * c]])
            return build_embedding(EmbeddingKind.LATTICE, 0.5, m=m, delta_hat=delta)


def _suite_nogo(ctx: RunContext) -> list[VerificationReport]:
    if ctx.emb.kind is not EmbeddingKind.LATTICE:
        raise ConfigInvalid("the nogo suite needs a lattice-kind config", "$.embedding.kind")
    rng = ctx.rng("nogo")
    embeddings = [ctx.emb] + [_random_lattice_embedding(rng) for _ in range(4)]
    entries = {}
    for ti in range(20):
        signs = rng.choice([-1.0, 1.0], size=(2, 2, 2))
        tau = (rng.uniform(0.3, 2.0, size=(2, 2)) * signs[..., 0]
               + 1j * rng.uniform(0.3, 2.0, size=(2, 2)) * signs[..., 1])
        for mi, emb in enumerate(embeddings):
            cert = holomorphic_feasibility(emb, tau)
            entries[f"tau {ti} m {mi}"] = 0.0 if cert.infeasible else 1.0
    return [VerificationReport.build(
        "holomorphy-nogo-certificates", entries, list(entries.values()), 0.5,
        relations=list(RELATIONS), forced_det=FORCED_DET)]


def _suite_inner_product(ctx: RunContext) -> list[VerificationReport]:
    emb, tol = ctx.emb, ctx.tol
    f = theta_vector(ctx.structure)
    ks = enumerate_indices(1)
    closed = inner_product_closed(f, lattice_element(emb, np.concatenate([ks, -ks])))
    at_k, at_minus_k = np.split(closed, 2)
    zero = complex(at_k[len(ks) // 2])  # in grid order k = 0 is at the centre
    reports = [
        VerificationReport.build("inner-product-conjugate-symmetry", map(_label, ks),
                                 np.abs(at_minus_k - np.conj(at_k)), tol["identity_abs"]),
        VerificationReport.build(
            "inner-product-norm", ["imaginary part at 0", "positivity"],
            [abs(zero.imag), 0.0 if zero.real > 0 else 1.0],
            tol["identity_abs"], norm_sq=zero.real),
    ]

    rng = ctx.rng("inner-product")
    worst = 0.0
    for _ in range(10):
        t_val = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.2, 5.0))
        w1, w2 = rng.uniform(-3.0, 3.0, size=(100, 2)).T.reshape(2, 100, 1)
        worst = max(worst, completed_square_defect(HermitianFormContext(t_val), (w1, w2)).max())
    reports.append(VerificationReport.build(
        "completed-square-identity", ["100 w x 10 T"], [worst], tol["identity_abs"]))
    return reports


def _suite_quantum_theta(ctx: RunContext) -> list[VerificationReport]:
    emb, structure = ctx.emb, ctx.structure
    tol = ctx.tol["identity_abs"]
    series = ctx.series(ctx.config.radius)
    expected0, cutoff = 1.0 + 0.0j, None
    if emb.kind is EmbeddingKind.LATTICE:
        tau0 = 2j / (1.0 / structure.lattice_decay)  # 2i / theta2_eff
        expected0, cutoff = jacobi_theta(tau0, 0.0) ** 2, theta_truncation(tau0, 0.0, 1e-12)
    values, radius = series.values, series.radius
    blocks = slab_blocks(radius)
    # block by block; np.max and np.min over the blocks' results keep a NaN,
    # where Python's max and min may drop it. In grid order C(-k) is at the
    # mirrored position, and C(0) at the centre.
    sym = float(np.max([np.max(np.abs(values[::-1][rows] - np.conj(values[rows])))
                        for rows, _ in blocks]))
    centre = len(values) // 2
    zero_defect = abs(complex(values[centre]) - expected0)
    # |C(k)| <= C(0) since pi_k is unitary, so the rate is measured relative
    # to C(0), over every k but 0, whose rate 0/0 is NaN. A coefficient that
    # underflowed to 0 decays without bound: its rate is +inf. |k|^2 is
    # |a|^2 + |b|^2 over the points a, b of the two index planes.
    plane_sq = np.add.outer(*[np.arange(-radius, radius + 1) ** 2] * 2).ravel()

    def decay_rate(rows, slabs):
        sq = np.add.outer(plane_sq[slabs], plane_sq).ravel()
        ratio = np.abs(values[rows]) / abs(values[centre])
        if rows.start <= centre < rows.stop:
            sq, ratio = (np.delete(x, centre - rows.start) for x in (sq, ratio))
        return np.min(-np.log(ratio) / sq)

    with np.errstate(divide="ignore"):
        decay_min = float(np.min([decay_rate(rows, slabs) for rows, slabs in blocks]))

    bounds = [series_tail_bound(series)]  # at radius, radius + 1, ..., to the first < 1e-12
    while bounds[-1] >= 1e-12:
        bounds.append(series_tail_bound(series, radius + len(bounds)))
    doc_radius = radius + len(bounds) - 1

    reports = [
        VerificationReport.build("coefficient-at-zero", ["defect"], [zero_defect],
                                 tol, expected=[expected0.real, expected0.imag],
                                 theta_cutoff=cutoff),
        VerificationReport.build("coefficient-symmetry", ["max over radius"], [sym], tol),
        VerificationReport.build(
            "coefficient-decay", ["positive quadratic rate"],
            [0.0 if decay_min > 0 else 1.0], 0.5, rate=decay_min),
        VerificationReport.build(
            "series-tail-bound", [f"bound at radius {doc_radius}"],
            [bounds[-1]], 1e-12, documented_radius=doc_radius, bound_at_config_radius=bounds[0]),
    ]
    ctx.table = series
    return reports


def _suite_functional_equation(ctx: RunContext) -> list[VerificationReport]:
    rng = ctx.rng("functional-equation")
    series = ctx.series(max(2, ctx.config.radius))
    half = max(1, ctx.config.radius // 2)
    kgs = [np.eye(4, dtype=np.int64)[i] for i in range(4)]
    kgs += list(rng.integers(-half, half + 1, size=(2, 4)))
    return [verify_functional_equation(series, kg) for kg in kgs]


def _suite_consistency(ctx: RunContext) -> list[VerificationReport]:
    emb, structure = ctx.emb, ctx.structure
    rng = ctx.rng("consistency")
    series = ctx.series(max(2, min(ctx.config.radius, 4)))
    reports = []
    if emb.kind is EmbeddingKind.VECTOR_SPACE:
        # a bound at radius 2 from the 4x4 basis, with the worst basis pair's defect
        defect, pair = _phase_basis_defect(emb, structure)
        reports.append(VerificationReport.build(
            "phase-identity", ["all radius-2 pairs"],
            [phase_identity_max_residual(emb, structure, 2)], 1e-10,
            basis_defect=defect, basis_pair=list(pair)))
    check = verify_consistency_condition(
        series, *np.moveaxis(rng.integers(-2, 3, size=(50, 2, 4)), 1, 0))
    reports.append(VerificationReport.build(
        "consistency-condition", ["50 random pairs"], [check.max_residual], check.tolerance))
    return reports


def _suite_additivity(ctx: RunContext) -> list[VerificationReport]:
    emb = ctx.emb
    rng = ctx.rng("additivity")
    series = ctx.series(max(2, min(ctx.config.radius, 4)))
    if emb.kind is EmbeddingKind.VECTOR_SPACE:
        gaps = additivity_gap(series, *np.moveaxis(rng.integers(-2, 3, size=(100, 3, 4)), 1, 0))
        return [VerificationReport.build(
            "additivity-gaps", [f"triple {idx}" for idx in range(100)], gaps, 1e-12,
            triples=100)]
    g, h = [0, 0, 1, 0], [0, 0, 0, 1]
    witness = additivity_gap(series, g, g, h)
    # per triple: the w-slots of g1 and g2, then h
    draws = rng.integers(-2, 3, size=(10, 2, 4))
    kgs = np.pad(draws[:, 0].reshape(10, 2, 2), ((0, 0), (0, 0), (0, 2)))
    gaps = additivity_gap(series, kgs[:, 0], kgs[:, 1], draws[:, 1])
    pure_w = {f"triple {idx}": gap for idx, gap in enumerate(gaps.tolist())}
    return [VerificationReport.build(
        "non-additivity-witness", ["threshold 0.01 / gap"],
        [_lower_bound(witness, 0.01)], 1.0, witness_gap=witness,
        witness="g1 = g2 = third generator, h = fourth generator",
        pure_w_direction_gaps=pure_w,
        note="pure-w gaps are measured and reported, nothing is asserted")]


def _suite_oracle_compare(ctx: RunContext) -> list[VerificationReport]:
    emb, structure = ctx.emb, ctx.structure
    rel_tol = ctx.tol["oracle_rel"]
    abs_floor = 1e-15
    f = theta_vector(structure)
    ks = enumerate_indices(2)
    h = lattice_element(emb, ks)
    oracle = inner_product_oracle(f, h, rel_tol / 100.0)
    diff = inner_product_closed(f, h) - oracle
    # value <= rel_tol exactly when |closed - oracle| <= max(rel |o|, floor); hypot
    # rounds as Python's abs does, numpy's complex abs may not
    residuals = (np.hypot(diff.real, diff.imag)
                 / np.maximum(np.hypot(oracle.real, oracle.imag), abs_floor / rel_tol))
    return [VerificationReport.build(
        "oracle-equivalence", map(_label, ks), residuals, rel_tol,
        indices=len(ks), abs_floor=abs_floor)]


_SUITE_FUNCS = {
    "validate": _suite_validate,
    "commutation": _suite_commutation,
    "connections": _suite_connections,
    "holomorphy": _suite_holomorphy,
    "nogo": _suite_nogo,
    "inner-product": _suite_inner_product,
    "quantum-theta": _suite_quantum_theta,
    "functional-equation": _suite_functional_equation,
    "consistency": _suite_consistency,
    "additivity": _suite_additivity,
    "oracle-compare": _suite_oracle_compare,
}
# The order fixes each suite's random stream: _rng_streams spawns one child
# seed per name, in this order.
SUITE_NAMES = tuple(_SUITE_FUNCS)


# --- run report --------------------------------------------------------------

@dataclass
class RunReport:
    suite: str
    config: dict
    config_hash: str
    seed: int | None
    checks: list[VerificationReport]
    elapsed_seconds: float
    series: object = None  # exported next to the report, never serialized into it
    artifacts: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> dict:
        failed = [c.name for c in self.checks if not c.passed]
        return {"checks": len(self.checks), "failed": len(failed),
                "failed_names": failed, "ok": self.passed}

    def to_dict(self) -> dict:
        """Serializable form; timing is intentionally left out."""
        return {
            "suite": self.suite,
            "config": self.config,
            "config_hash": self.config_hash,
            "rng": {"algorithm": RNG_ALGORITHM, "seed": self.seed},
            "package": {"name": "nctheta", "version": __version__},
            "checks": [_check_dict(c) for c in self.checks],
            "artifacts": self.artifacts,
            "summary": self.summary(),
        }


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, complex):
        return _json_safe([value.real, value.imag])
    if isinstance(value, (np.floating, np.integer, np.ndarray)):
        return _json_safe(value.tolist())
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def _check_dict(c: VerificationReport) -> dict:
    elements = [[k, _json_safe(v)]
                for k, v in zip(c.labels, c.residuals[:len(c.labels)].tolist())]
    return {
        "name": c.name,
        "max_residual": _json_safe(c.max_residual),
        "tolerance": _json_safe(c.tolerance),
        "passed": c.passed,
        "elements": elements,
        "elements_total": len(c.residuals),
        "metadata": _json_safe(c.metadata),
    }


def run_suite(config: RunConfig, suite: str) -> RunReport:
    """Execute one suite (or all of them) and assemble the report.

    Module errors inside a suite are captured as failed checks. A config
    error escapes: an unknown suite, a suite that draws random samples from
    a config without a seed, or a suite run on a kind it cannot handle.
    I/O errors escape as well.
    """
    if suite != "all" and suite not in _SUITE_FUNCS:
        raise ConfigInvalid(f"unknown suite '{suite}'", "$")
    emb = config.build_embedding()
    structure = config.build_structure(emb)
    ctx = RunContext(config, emb, structure)

    names = list(_SUITE_FUNCS) if suite == "all" else [suite]
    if suite == "all" and emb.kind is not EmbeddingKind.LATTICE:
        names.remove("nogo")

    started = time.perf_counter()
    checks: list[VerificationReport] = []
    for name in names:
        try:
            checks.extend(_SUITE_FUNCS[name](ctx))
        except ConfigInvalid:
            raise
        except NCThetaError as err:
            checks.append(VerificationReport.build(
                f"{name} (errored)", ["error"], [math.inf], 0.0,
                error=f"{type(err).__name__}: {err}"))
    elapsed = time.perf_counter() - started
    return RunReport(suite, config.canonical_dict(), config.content_hash(),
                     config.seed, checks, elapsed, ctx.table)


def write_report(report: RunReport, path, fmt: str = "json") -> Path:
    """Serialize the report; bytes depend only on config and seed.

    A series on the report goes first to ``<stem>.coefficients.<fmt>`` next
    to PATH and named in ``artifacts``; a JSON report, which prints them, adds
    the sha256 of its bytes as written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if report.series is not None:
        digest = hashlib.sha256() if fmt == "json" else None
        table = path.with_name(f"{path.stem}.coefficients.{fmt}")
        export_coefficients(report.series, fmt, table, digest=digest)
        report.artifacts["coefficients"] = {"file": table.name} | (
            {} if digest is None else {"sha256": digest.hexdigest()})
    if fmt == "json":
        path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True,
                                   allow_nan=False) + "\n", newline="\n")
        return path
    if fmt != "csv":
        raise ValueError(f"unknown report format: {fmt}")
    lines = ["check,label,residual,tolerance,passed"]
    for c in report.checks:
        # names and labels carry index labels such as "g=1,0,0,0"
        name = c.name.replace(",", ";")
        for label, value in zip(c.labels, c.residuals[:len(c.labels)].tolist()):
            safe = label.replace(",", ";")
            lines.append(f"{name},{safe},{value!r},{c.tolerance!r},{c.passed}")
        lines.append(f"{name},(max),{c.max_residual!r},{c.tolerance!r},{c.passed}")
    lines.append(f"summary,,{report.summary()['failed']},,{report.passed}")
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return path
