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
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, require_seed
from .embedding import (
    EmbeddingKind,
    bicharacter_max_residual,
    cocycle_identity_max_residual,
    commutation_matrix,
    element_linearity_max_residual,
    enumerate_indices,
    lattice_element,
)
from .errors import ConfigInvalid, NCThetaError
from .export import export_coefficients
from .heisenberg import (
    connection_commutator_residual,
    default_finite_vector,
    measure_commutation_phase,
    representation_defect,
    sample_vector,
    theta_test_vector,
)
from .qtheta import (
    VerificationReport,
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
from .special import HermitianFormContext, completed_square_defect, jacobi_theta
from .structures import (
    connection_combo_residual,
    holomorphic_feasibility,
    holomorphy_residual,
    theta_vector,
)

RNG_ALGORITHM = "philox4x64"
MAX_SERIALIZED_ELEMENTS = 256

SUITE_NAMES = (
    "validate", "commutation", "connections", "holomorphy", "nogo",
    "inner-product", "quantum-theta", "functional-equation", "consistency",
    "additivity", "oracle-compare",
)


def _rng_streams(seed: int) -> dict:
    children = np.random.SeedSequence(seed).spawn(len(SUITE_NAMES))
    return {name: np.random.Generator(np.random.Philox(child))
            for name, child in zip(SUITE_NAMES, children)}


@dataclass
class RunContext:
    config: RunConfig
    suite: str
    emb: object
    structure: object
    rngs: dict
    artifacts: dict = field(default_factory=dict)

    @property
    def tol(self) -> dict:
        return self.config.tolerances


def _lower_bound_entry(label: str, actual: float, threshold: float):
    """Entry that passes (value <= 1) exactly when actual exceeds threshold."""
    value = math.inf if actual <= 0 else threshold / actual
    return (label, value)


# --- individual suites -----------------------------------------------------

def _suite_validate(ctx: RunContext) -> list[VerificationReport]:
    emb, tol = ctx.emb, ctx.tol["identity_abs"]
    rng = ctx.rngs["validate"]
    theta = commutation_matrix(emb).theta
    reports = [
        VerificationReport.build(
            "embedding-columns",
            [(f"column {j + 1}", r) for j, r in enumerate(emb.column_condition_residuals())],
            tol, kind=emb.kind.value, valid=emb.valid),
        VerificationReport.build(
            "deformation-antisymmetry",
            [("max|theta + theta^T|", float(np.max(np.abs(theta + theta.T))))],
            tol, theta12=float(theta[0, 1]), theta34=float(theta[2, 3])),
        VerificationReport.build(
            "element-linearity",
            [("radius 2", element_linearity_max_residual(emb, 2))], tol),
        VerificationReport.build(
            "cocycle-bicharacter",
            [("20 random pairs", bicharacter_max_residual(emb, rng, 20))], tol),
        VerificationReport.build(
            "cocycle-identity",
            [("all radius-2 triples", cocycle_identity_max_residual(emb, 2))], tol),
    ]
    f = sample_vector(theta_test_vector(emb), step=1 / 16)
    worst = 0.0
    for _ in range(20):
        kg, kh = rng.integers(-2, 3, size=(2, 4))
        worst = max(worst, representation_defect(
            emb, lattice_element(emb, kg), lattice_element(emb, kh), f))
    reports.append(VerificationReport.build(
        "cocycle-operator-oracle", [("20 random pairs", worst)], 1e-10))
    return reports


def _suite_commutation(ctx: RunContext) -> list[VerificationReport]:
    emb = ctx.emb
    fin = default_finite_vector(emb.finite_part) if emb.finite_part else None
    f = sample_vector(theta_test_vector(emb), step=1 / 16, finite_vector=fin)
    theta = commutation_matrix(emb)
    entries = []
    measured = {}
    for i in range(1, 5):
        for j in range(1, 5):
            got = measure_commutation_phase(emb, i, j, f)
            expected = theta.phase(i, j)
            entries.append((f"U{i},U{j}", abs(got - expected)))
            measured[f"{i}{j}"] = [got.real, got.imag]
    return [VerificationReport.build(
        "commutation-phases", entries, ctx.tol["phase_abs"],
        finite_part=emb.finite_part is not None, measured=measured)]


def _suite_connections(ctx: RunContext) -> list[VerificationReport]:
    emb = ctx.emb
    f = theta_test_vector(emb)
    entries = [(f"nabla{i},U{j}", connection_commutator_residual(emb, i, j, f, step=1e-3))
               for i in range(1, 5) for j in range(1, 5)]
    reports = [VerificationReport.build("connection-commutator", entries, 1e-6,
                                        step=1e-3)]
    pairs = [(2, 2)] if emb.kind is EmbeddingKind.LATTICE else [(2, 2), (4, 4)]
    steps = (8e-3, 4e-3, 2e-3)
    ratio_entries = []
    for i, j in pairs:
        resids = [connection_commutator_residual(emb, i, j, f, step=s) for s in steps]
        for a in range(len(steps) - 1):
            ratio_entries.append((f"nabla{i},U{j} {steps[a]:g}->{steps[a + 1]:g}",
                                  resids[a + 1] / resids[a]))
    reports.append(VerificationReport.build(
        "connection-refinement", ratio_entries, 0.125,
        note="order-4 differences: each halving must shrink the residual 8x"))
    return reports


def _suite_holomorphy(ctx: RunContext) -> list[VerificationReport]:
    emb, structure = ctx.emb, ctx.structure
    f = theta_vector(structure)
    from .structures import antiholomorphic_rows

    rows = antiholomorphic_rows(structure)
    entries = [(f"equation {idx + 1}", connection_combo_residual(f, emb, row))
               for idx, row in enumerate(rows)]
    reports = [VerificationReport.build("holomorphy-residual", entries, 1e-8)]

    control = replace(f, quadratic=f.quadratic + 1.0)
    bad = holomorphy_residual(control, structure, emb)
    reports.append(VerificationReport.build(
        "holomorphy-negative-control",
        [_lower_bound_entry("threshold 0.1 / residual", bad, 0.1)],
        1.0, residual=bad))

    if emb.kind is EmbeddingKind.LATTICE:
        rng = ctx.rngs["holomorphy"]
        worst_low = math.inf
        for _ in range(40):
            c = rng.normal(size=4).view(complex)
            c = c / np.linalg.norm(c)
            worst_low = min(worst_low, connection_combo_residual(
                f, emb, [0.0, 0.0, c[0], c[1]]))
        reports.append(VerificationReport.build(
            "discrete-direction-no-annihilation",
            [_lower_bound_entry("threshold 0.01 / min residual", worst_low, 0.01)],
            1.0, min_residual=worst_low, combos=40))
    return reports


def _random_lattice_embedding(rng):
    from .embedding import build_embedding

    while True:
        m = rng.integers(-3, 4, size=(2, 2))
        det = int(m[0, 0]) * int(m[1, 1]) - int(m[0, 1]) * int(m[1, 0])
        if det <= 0:
            continue
        c = 0.25 / det
        delta = np.array([[m[1, 0] * c, m[1, 1] * c],
                          [-m[0, 0] * c, -m[0, 1] * c]])
        return build_embedding(EmbeddingKind.LATTICE, 0.5, m=m, delta_hat=delta)


def _suite_nogo(ctx: RunContext) -> list[VerificationReport]:
    if ctx.emb.kind is not EmbeddingKind.LATTICE:
        raise ConfigInvalid("the nogo suite needs a lattice-kind config", "$.embedding.kind")
    rng = ctx.rngs["nogo"]
    embeddings = [ctx.emb] + [_random_lattice_embedding(rng) for _ in range(4)]
    entries = []
    first = None
    for ti in range(20):
        signs = rng.choice([-1.0, 1.0], size=(2, 2, 2))
        tau = (rng.uniform(0.3, 2.0, size=(2, 2)) * signs[..., 0]
               + 1j * rng.uniform(0.3, 2.0, size=(2, 2)) * signs[..., 1])
        for mi, emb in enumerate(embeddings):
            cert = holomorphic_feasibility(emb, tau)
            ok = cert.forced_det.is_zero and cert.infeasible
            entries.append((f"tau {ti} m {mi}", 0.0 if ok else 1.0))
            if first is None:
                first = cert
    return [VerificationReport.build(
        "holomorphy-nogo-certificates", entries, 0.5,
        relations=list(first.relations), forced_det=str(first.forced_det))]


def _suite_inner_product(ctx: RunContext) -> list[VerificationReport]:
    emb, structure = ctx.emb, ctx.structure
    tol = ctx.tol
    f = theta_vector(structure)
    sym_entries = []
    for k in enumerate_indices(1):
        h = lattice_element(emb, k)
        neg = lattice_element(emb, -np.asarray(k))
        sym_entries.append((",".join(map(str, k)),
                            abs(inner_product_closed(f, neg)
                                - np.conj(inner_product_closed(f, h)))))
    zero = inner_product_closed(f, lattice_element(emb, [0, 0, 0, 0]))
    reports = [
        VerificationReport.build("inner-product-conjugate-symmetry", sym_entries,
                                 tol["identity_abs"]),
        VerificationReport.build(
            "inner-product-norm",
            [("imaginary part at 0", abs(zero.imag)),
             ("positivity", 0.0 if zero.real > 0 else 1.0)],
            tol["identity_abs"], norm_sq=zero.real),
    ]

    rng = ctx.rngs["inner-product"]
    worst = 0.0
    for _ in range(10):
        t_val = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.2, 5.0))
        ctx_h = HermitianFormContext(t_val)
        for _ in range(100):
            w = rng.uniform(-3.0, 3.0, size=2)
            worst = max(worst, completed_square_defect(ctx_h, (w[0], w[1])))
    reports.append(VerificationReport.build(
        "completed-square-identity", [("100 w x 10 T", worst)], tol["identity_abs"]))
    return reports


def _suite_quantum_theta(ctx: RunContext) -> list[VerificationReport]:
    emb, structure = ctx.emb, ctx.structure
    tol = ctx.tol["identity_abs"]
    series = quantum_theta_series(emb, structure, ctx.config.radius)
    cutoff = None
    if emb.kind is EmbeddingKind.LATTICE:
        theta2_eff = 1.0 / structure.lattice_decay
        expected0, cutoff = jacobi_theta(2j / theta2_eff, 0.0, with_meta=True)
        expected0 = expected0 ** 2
    else:
        expected0 = 1.0 + 0.0j
    zero_defect = abs(series.coefficient([0, 0, 0, 0]) - expected0)

    ks = enumerate_indices(series.radius)
    values = _stored_values(series, ks)
    sym = float(np.max(np.abs(_stored_values(series, -ks) - np.conj(values))))
    # Row 0 is k = 0. A coefficient that underflowed to 0 decays without
    # bound: its rate is +inf.
    norm_sq = np.sum(ks * ks, axis=1)
    with np.errstate(divide="ignore"):
        rates = -np.log(np.abs(values[1:])) / norm_sq[1:]
    decay_min = float(rates.min())

    doc_radius = series.radius
    while series_tail_bound(series, doc_radius) >= 1e-12:
        doc_radius += 1

    reports = [
        VerificationReport.build("coefficient-at-zero", [("defect", zero_defect)],
                                 tol, expected=[expected0.real, expected0.imag],
                                 theta_cutoff=cutoff),
        VerificationReport.build("coefficient-symmetry",
                                 [("max over radius", sym)], tol),
        VerificationReport.build(
            "coefficient-decay",
            [("positive quadratic rate", 0.0 if decay_min > 0 else 1.0)],
            0.5, rate=decay_min),
        VerificationReport.build(
            "series-tail-bound",
            [(f"bound at radius {doc_radius}", series_tail_bound(series, doc_radius))],
            1e-12, documented_radius=doc_radius,
            bound_at_config_radius=series_tail_bound(series)),
    ]
    if ctx.config.output is not None:
        fmt = ctx.config.output.get("format", "json")
        out = Path(ctx.config.output["path"])
        target = out.with_name(out.stem + ".coefficients." + fmt)
        export_coefficients(series, fmt, target)
        digest = hashlib.sha256(target.read_bytes()).hexdigest()
        ctx.artifacts["coefficients"] = {"file": target.name, "sha256": digest}
    return reports


def _random_elements(emb, rng, count, radius):
    ks = rng.integers(-radius, radius + 1, size=(count, 4))
    return [lattice_element(emb, k) for k in ks]


def _suite_functional_equation(ctx: RunContext) -> list[VerificationReport]:
    emb, structure = ctx.emb, ctx.structure
    series = quantum_theta_series(emb, structure, ctx.config.radius)
    rng = ctx.rngs["functional-equation"]
    half = max(1, ctx.config.radius // 2)
    kgs = [np.eye(4, dtype=np.int64)[i] for i in range(4)]
    kgs += list(rng.integers(-half, half + 1, size=(2, 4)))
    return [verify_functional_equation(series, lattice_element(emb, kg))
            for kg in kgs]


def _suite_consistency(ctx: RunContext) -> list[VerificationReport]:
    emb, structure = ctx.emb, ctx.structure
    series = quantum_theta_series(emb, structure, max(2, min(ctx.config.radius, 4)))
    rng = ctx.rngs["consistency"]
    reports = []
    if emb.kind is EmbeddingKind.VECTOR_SPACE:
        reports.append(VerificationReport.build(
            "phase-identity",
            [("all radius-2 pairs", phase_identity_max_residual(emb, structure, 2))],
            1e-10))
    worst_q = 0.0
    for _ in range(50):
        g, h = _random_elements(emb, rng, 2, 2)
        rep = verify_consistency_condition(series, g, h)
        worst_q = max(worst_q, rep.max_residual)
    tol = 1e-10 if emb.kind is EmbeddingKind.VECTOR_SPACE else 1e-12
    reports.append(VerificationReport.build(
        "consistency-condition", [("50 random pairs", worst_q)], tol))
    return reports


def _suite_additivity(ctx: RunContext) -> list[VerificationReport]:
    emb, structure = ctx.emb, ctx.structure
    series = quantum_theta_series(emb, structure, max(2, min(ctx.config.radius, 4)))
    rng = ctx.rngs["additivity"]
    if emb.kind is EmbeddingKind.VECTOR_SPACE:
        entries = []
        for idx in range(100):
            g1, g2, h = _random_elements(emb, rng, 3, 2)
            entries.append((f"triple {idx}", additivity_gap(series, g1, g2, h)))
        return [VerificationReport.build("additivity-gaps", entries, 1e-12,
                                         triples=100)]
    g = lattice_element(emb, [0, 0, 1, 0])
    h = lattice_element(emb, [0, 0, 0, 1])
    witness = additivity_gap(series, g, g, h)
    pure_w = {}
    for idx in range(10):
        ks = np.zeros((3, 4), dtype=np.int64)
        ks[:2, :2] = rng.integers(-2, 3, size=(2, 2))
        ks[2] = rng.integers(-2, 3, size=4)
        g1, g2, hh = (lattice_element(emb, k) for k in ks)
        pure_w[f"triple {idx}"] = additivity_gap(series, g1, g2, hh)
    return [VerificationReport.build(
        "non-additivity-witness",
        [_lower_bound_entry("threshold 0.01 / gap", witness, 0.01)],
        1.0, witness_gap=witness,
        witness="g1 = g2 = third generator, h = fourth generator",
        pure_w_direction_gaps=pure_w,
        note="pure-w gaps are measured and reported, nothing is asserted")]


def _suite_oracle_compare(ctx: RunContext) -> list[VerificationReport]:
    emb, structure = ctx.emb, ctx.structure
    rel_tol = ctx.tol["oracle_rel"]
    abs_floor = 1e-15
    f = theta_vector(structure)
    ks = enumerate_indices(2)

    def one(k):
        # value <= rel_tol exactly when |closed - oracle| <= max(rel |o|, floor)
        h = lattice_element(emb, k)
        closed = inner_product_closed(f, h)
        oracle = inner_product_oracle(f, h, rel_tol / 100.0)
        return abs(closed - oracle) / max(abs(oracle), abs_floor / rel_tol)

    entries = [(",".join(map(str, k)), one(k)) for k in ks]
    return [VerificationReport.build(
        "oracle-equivalence", entries, rel_tol,
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


# --- run report --------------------------------------------------------------

@dataclass
class RunReport:
    suite: str
    config: dict
    config_hash: str
    seed: int | None
    checks: list[VerificationReport]
    artifacts: dict
    elapsed_seconds: float

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
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return _json_safe(value.tolist())
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def _check_dict(c: VerificationReport) -> dict:
    elements = [[k, _json_safe(v)] for k, v in c.residuals[:MAX_SERIALIZED_ELEMENTS]]
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

    Module errors inside a suite are captured as failed checks; only I/O
    errors escape.
    """
    if suite != "all" and suite not in _SUITE_FUNCS:
        raise ConfigInvalid(f"unknown suite '{suite}'", "$")
    seed = require_seed(config, suite)
    emb = config.build_embedding()
    structure = config.build_structure(emb)
    ctx = RunContext(config, suite, emb, structure, _rng_streams(seed))

    names = list(_SUITE_FUNCS) if suite == "all" else [suite]
    if suite == "all" and emb.kind is not EmbeddingKind.LATTICE:
        names.remove("nogo")

    started = time.perf_counter()
    checks: list[VerificationReport] = []
    for name in names:
        try:
            checks.extend(_SUITE_FUNCS[name](ctx))
        except NCThetaError as err:
            checks.append(VerificationReport.build(
                f"{name} (errored)", [("error", math.inf)], 0.0,
                error=f"{type(err).__name__}: {err}"))
    elapsed = time.perf_counter() - started
    return RunReport(suite, config.canonical_dict(), config.content_hash(),
                     config.seed, checks, ctx.artifacts, elapsed)


def write_report(report: RunReport, path, fmt: str = "json") -> Path:
    """Serialize the report; bytes depend only on config and seed."""
    import json

    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
                        newline="\n")
        return path
    if fmt != "csv":
        raise ValueError(f"unknown report format: {fmt}")
    lines = ["check,label,residual,tolerance,passed"]
    for c in report.checks:
        for label, value in c.residuals[:MAX_SERIALIZED_ELEMENTS]:
            safe = label.replace(",", ";")
            lines.append(f"{c.name},{safe},{value!r},{c.tolerance!r},{c.passed}")
        lines.append(f"{c.name},(max),{c.max_residual!r},{c.tolerance!r},{c.passed}")
    lines.append(f"summary,,{report.summary()['failed']},,{report.passed}")
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return path
