"""Run configuration: JSON schema, loading, defaults and validation."""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path

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


# The JSON types of the schema. A "number" is finite: Python's JSON parser
# and ``float`` accept NaN and infinities, which no tolerance or deformation
# can take. An "integer" is a JSON integer, so 2.0 is not one.
_JSON_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "integer": lambda x: isinstance(x, int) and not isinstance(x, bool),
    "number": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                         or isinstance(x, float) and math.isfinite(x)),
}
# keyword: (the type it constrains, the test a violation passes, the message)
_LIMITS = {
    "minimum": ("number", operator.lt, "is less than the minimum of {!r}"),
    "maximum": ("number", operator.gt, "is greater than the maximum of {!r}"),
    "exclusiveMinimum": ("number", operator.le, "is less than or equal to the minimum of {!r}"),
    "minItems": ("array", lambda x, n: len(x) < n, "is too short"),
    "maxItems": ("array", lambda x, n: len(x) > n, "is too long"),
}
# Every keyword `_violation` reads; a test holds CONFIG_SCHEMA to these.
_SCHEMA_KEYWORDS = frozenset({"type", "enum", "oneOf", "required", "additionalProperties",
                              "properties", "items", *_LIMITS})


def _violation(schema: dict, x, path: str = "$"):
    """(message, JSON path) of the first place where ``x`` breaks ``schema``.

    Reads the keywords of _SCHEMA_KEYWORDS (``additionalProperties`` false
    only) in the order the schema lists them, a node before its children,
    with the messages of the ``jsonschema`` package. None when ``x`` is
    valid.
    """
    for key, want in schema.items():
        if key == "type" and not _JSON_TYPES[want](x):
            return f"{x!r} is not of type {want!r}", path
        if key == "enum" and x not in want:
            return f"{x!r} is not one of {want!r}", path
        if key == "oneOf":
            valid = [s for s in want if _violation(s, x, path) is None]
            if not valid:
                return f"{x!r} is not valid under any of the given schemas", path
            if len(valid) > 1:
                return f"{x!r} is valid under each of {', '.join(map(repr, valid))}", path
        if key in _LIMITS:
            kind, broken, text = _LIMITS[key]
            if _JSON_TYPES[kind](x) and broken(x, want):
                return f"{x!r} {text.format(want)}", path
        if key == "items" and isinstance(x, list):
            for i, item in enumerate(x):
                if found := _violation(want, item, f"{path}[{i}]"):
                    return found
        if not isinstance(x, dict):
            continue
        if key == "required" and (missing := [k for k in want if k not in x]):
            return f"{missing[0]!r} is a required property", path
        if key == "additionalProperties" and (
                extra := sorted(set(x) - set(schema.get("properties", ())), key=str)):
            return ("Additional properties are not allowed ({} {} unexpected)".format(
                ", ".join(map(repr, extra)), "was" if len(extra) == 1 else "were"), path)
        if key == "properties":
            for name, sub in want.items():
                if name in x and (found := _violation(sub, x[name], f"{path}.{name}")):
                    return found
    return None


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


def parse_config(data: dict, allow_invalid: bool = False) -> RunConfig:
    """Validate a raw config dict and fill defaults.

    Schema violations raise :class:`ConfigInvalid` with a JSON path;
    embedding and structure invariant failures surface through the same
    error with the underlying cause chained.
    """
    found = _violation(CONFIG_SCHEMA, data)
    if found is not None:
        raise ConfigInvalid(*found)

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
    if isinstance(data["structure"]["tau"][0], (int, float)) != (kind == "lattice"):
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
        # RFC 8259: JSON exchanged between systems is UTF-8
        data = json.loads(p.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as err:
        # RecursionError: nesting deeper than the decoder's recursion limit
        raise ConfigSyntax(f"{p}: {err}") from err
    try:
        return parse_config(data, allow_invalid=allow_invalid)
    except ConfigInvalid as err:
        raise ConfigInvalid(f"{p}: {err.message}", err.json_path) from err

