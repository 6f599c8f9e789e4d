"""Run configuration: JSON schema, loading, defaults and validation."""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema

from .embedding import EmbeddingKind, EmbeddingMap, FinitePart, build_embedding
from .errors import ConfigInvalid, ConfigSyntax, NCThetaError
from .structures import ComplexStructure, structure_from_tau

DEFAULT_RADIUS = 4
DEFAULT_TOLERANCES = {
    "oracle_rel": 1e-8,
    "identity_abs": 1e-12,
    "phase_abs": 1e-9,
}

_NUM = {"type": "number"}
_PAIR = {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2}
_MAT2 = {"type": "array", "minItems": 2, "maxItems": 2,
         "items": {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2}}
_CPX_MAT2 = {"type": "array", "minItems": 2, "maxItems": 2,
             "items": {"type": "array", "items": _PAIR, "minItems": 2, "maxItems": 2}}

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["embedding", "structure"],
    "additionalProperties": False,
    "properties": {
        "embedding": {
            "type": "object",
            "required": ["kind", "theta1"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["vector_space", "lattice"]},
                "theta1": {"type": "number", "exclusiveMinimum": 0},
                "theta2": {"type": "number", "exclusiveMinimum": 0},
                "m": {"type": "array", "minItems": 2, "maxItems": 2,
                      "items": {"type": "array", "items": {"type": "integer"},
                                "minItems": 2, "maxItems": 2}},
                "delta_hat": _MAT2,
                "finite_part": {
                    "type": "object",
                    "required": ["m1", "n1", "m2", "n2"],
                    "additionalProperties": False,
                    "properties": {"m1": {"type": "integer", "minimum": 1},
                                   "n1": {"type": "integer"},
                                   "m2": {"type": "integer", "minimum": 1},
                                   "n2": {"type": "integer"}},
                },
            },
        },
        "structure": {
            "type": "object",
            "required": ["tau"],
            "additionalProperties": False,
            "properties": {
                "tau": {"oneOf": [_PAIR, _CPX_MAT2]},
                "lattice_decay": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "radius": {"type": "integer", "minimum": 1},
        "tolerances": {
            "type": "object",
            "additionalProperties": False,
            "properties": {k: {"type": "number", "exclusiveMinimum": 0}
                           for k in DEFAULT_TOLERANCES},
        },
        "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
        "output": {
            "type": "object",
            "required": ["path"],
            "additionalProperties": False,
            "properties": {"path": {"type": "string"},
                           "format": {"enum": ["json", "csv"]}},
        },
    },
}


@functools.cache
def _config_validator():
    """Schema validator, built once per process.

    A "number" is finite here: Python's JSON parser and ``float`` accept
    NaN and infinities, which no tolerance or deformation can take.
    """
    base = jsonschema.Draft202012Validator

    def finite_number(checker, x) -> bool:
        return (base.TYPE_CHECKER.is_type(x, "number")
                and (isinstance(x, int) or math.isfinite(x)))

    finite = base.TYPE_CHECKER.redefine("number", finite_number)
    cls = jsonschema.validators.extend(base, type_checker=finite)
    cls.check_schema(CONFIG_SCHEMA)
    return cls(CONFIG_SCHEMA)


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration with defaults filled in."""

    embedding: dict
    structure: dict
    radius: int
    tolerances: dict
    seed: int | None
    output: dict | None
    allow_invalid: bool = False
    raw: dict = field(default_factory=dict, repr=False)

    def canonical_dict(self) -> dict:
        return {
            "embedding": self.embedding,
            "structure": self.structure,
            "radius": self.radius,
            "tolerances": self.tolerances,
            "seed": self.seed,
            "output": self.output,
        }

    def content_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True).encode()
        return "sha256:" + hashlib.sha256(blob).hexdigest()

    def build_embedding(self) -> EmbeddingMap:
        e = self.embedding
        fp = None
        if e.get("finite_part") is not None:
            fp = FinitePart(**e["finite_part"])
        return build_embedding(
            EmbeddingKind(e["kind"]), e["theta1"], e.get("theta2"),
            m=e.get("m"), delta_hat=e.get("delta_hat"), finite_part=fp,
            allow_invalid=self.allow_invalid)

    def build_structure(self, emb: EmbeddingMap) -> ComplexStructure:
        return structure_from_tau(emb, self.structure["tau"],
                                  self.structure.get("lattice_decay"))


def _structure_shape_ok(kind: str, tau) -> bool:
    scalar = isinstance(tau[0], (int, float))
    return scalar == (kind == "lattice")


def parse_config(data: dict, allow_invalid: bool = False) -> RunConfig:
    """Validate a raw config dict and fill defaults.

    Schema violations raise :class:`ConfigInvalid` with a JSON path;
    embedding and structure invariant failures surface through the same
    error with the underlying cause chained.
    """
    err = jsonschema.exceptions.best_match(_config_validator().iter_errors(data))
    if err is not None:
        raise ConfigInvalid(err.message, err.json_path) from err

    emb_cfg = data["embedding"]
    kind = emb_cfg["kind"]
    if kind == "lattice" and ("m" not in emb_cfg or "delta_hat" not in emb_cfg):
        raise ConfigInvalid("lattice embeddings need m and delta_hat", "$.embedding")
    if kind == "vector_space" and "theta2" not in emb_cfg:
        raise ConfigInvalid("vector-space embeddings need theta2", "$.embedding")
    if kind == "lattice" and "finite_part" in emb_cfg:
        raise ConfigInvalid("finite_part applies to the vector-space kind only",
                            "$.embedding.finite_part")
    if kind == "vector_space" and "lattice_decay" in data["structure"]:
        raise ConfigInvalid("lattice_decay applies to the lattice kind only",
                            "$.structure.lattice_decay")
    if not _structure_shape_ok(kind, data["structure"]["tau"]):
        raise ConfigInvalid(
            "tau must be a [re, im] pair for lattice kind, a 2x2 matrix of pairs"
            " for vector_space", "$.structure.tau")

    tolerances = dict(DEFAULT_TOLERANCES)
    tolerances.update(data.get("tolerances", {}))
    cfg = RunConfig(
        embedding=emb_cfg,
        structure=data["structure"],
        radius=data.get("radius", DEFAULT_RADIUS),
        tolerances=tolerances,
        seed=data.get("seed"),
        output=data.get("output"),
        allow_invalid=allow_invalid,
        raw=data,
    )
    try:
        emb = cfg.build_embedding()
    except NCThetaError as err:
        raise ConfigInvalid(f"{type(err).__name__}: {err}", "$.embedding") from err
    try:
        cfg.build_structure(emb)
    except NCThetaError as err:
        raise ConfigInvalid(f"{type(err).__name__}: {err}", "$.structure.tau") from err
    return cfg


def load_config(path, allow_invalid: bool = False) -> RunConfig:
    """Read, parse and validate a JSON config file; errors name the file."""
    p = Path(path)
    if not p.is_file():
        raise ConfigInvalid(f"config file not found: {p}", "$")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as err:
        raise ConfigSyntax(f"{p}: {err}") from err
    try:
        return parse_config(data, allow_invalid=allow_invalid)
    except ConfigInvalid as err:
        raise ConfigInvalid(f"{p}: {err.message}", err.json_path) from err

