import copy
import csv
import gc
import hashlib
import io
import itertools
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
import textwrap
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nctheta
from conftest import load_golden
from nctheta import embedding as embedding_mod
from nctheta.cli import EXIT_INTERNAL_ERROR, main
from nctheta.config import _SCHEMA_KEYWORDS, CONFIG_SCHEMA, _violation, load_config, parse_config
from nctheta.embedding import enumerate_indices, point_parts
from nctheta.errors import ConfigInvalid, ConfigSyntax, TruncationTooSmall
from nctheta.export import _CSV_ROW, _write_table, export_coefficients, load_series
from nctheta.qtheta import (MAX_SERIALIZED_ELEMENTS, QuantumThetaSeries, VerificationReport,
                            _label, _reassembly_failure, quantum_theta_series)
from nctheta.report import (SUITE_NAMES, RunContext, _check_dict, _rng_streams, run_suite,
                            write_report)


def minimal_lattice(**overrides):
    cfg = {
        "embedding": {"kind": "lattice", "theta1": 0.5,
                      "m": [[1, 0], [0, 1]],
                      "delta_hat": [[0.0, 0.7], [0.3, 0.0]]},
        "structure": {"tau": [0.0, 1.0]},
        "seed": 7,
    }
    cfg.update(overrides)
    return cfg


class TestLoadConfig:
    def test_canonical_fixture(self, lattice_config):
        assert lattice_config.radius == 4
        assert lattice_config.seed == 42
        emb = lattice_config.build_embedding()
        assert emb.theta34 == pytest.approx(0.4)

    def test_defaults_filled(self):
        cfg = parse_config(minimal_lattice())
        assert cfg.radius == 4
        assert cfg.tolerances["oracle_rel"] == 1e-8
        assert cfg.tolerances["identity_abs"] == 1e-12
        assert cfg.tolerances["phase_abs"] == 1e-9

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            load_config(tmp_path / "nope.json")

    def test_syntax_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigSyntax):
            load_config(bad)

    def test_non_utf8_config_is_a_config_error(self, tmp_path, capsys):
        # RFC 8259 JSON is UTF-8; other bytes are a syntax error naming the file
        bad = tmp_path / "c.json"
        bad.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigSyntax, match="c.json: 'utf-8' codec can't decode byte 0xff"):
            load_config(bad)
        assert main(["quantum-theta", "--config", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {bad}: 'utf-8' codec")

    def test_deeply_nested_config_is_a_config_error(self, tmp_path, capsys):
        # nesting deeper than the decoder's recursion limit is a syntax error
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 200000 + "]" * 200000)
        with pytest.raises(ConfigSyntax, match="deep.json: maximum recursion depth"):
            load_config(bad)
        assert main(["validate", "--config", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {bad}: maximum recursion")

    def test_schema_violation_carries_path(self):
        raw = minimal_lattice()
        raw["radius"] = "four"
        with pytest.raises(ConfigInvalid) as err:
            parse_config(raw)
        assert "radius" in err.value.json_path

    def test_embedding_violation_surfaces(self):
        raw = minimal_lattice()
        raw["embedding"]["delta_hat"] = [[0.1, 0.7], [0.3, 0.0]]
        with pytest.raises(ConfigInvalid) as err:
            parse_config(raw)
        assert "column 3" in str(err.value)

    def test_structure_violation_carries_path(self):
        raw = minimal_lattice()
        raw["structure"] = {"tau": [0.0, -1.0]}
        with pytest.raises(ConfigInvalid) as err:
            parse_config(raw)
        assert err.value.json_path == "$.structure.tau"
        assert "NotPositive" in str(err.value)

    def test_structure_kind_shape(self):
        raw = minimal_lattice()
        raw["structure"] = {"tau": [[[0.0, 0.5], [0.0, 0.0]],
                                    [[0.0, 0.0], [0.0, 0.4]]]}
        with pytest.raises(ConfigInvalid):
            parse_config(raw)

    def test_seed_mandatory_for_random_suites(self):
        cfg = parse_config({k: v for k, v in minimal_lattice().items()
                            if k != "seed"})
        with pytest.raises(ConfigInvalid):
            run_suite(cfg, "additivity")
        assert run_suite(cfg, "commutation").passed

    def test_content_hash_stable(self):
        a = parse_config(minimal_lattice())
        b = parse_config(minimal_lattice())
        assert a.content_hash() == b.content_hash()
        c = parse_config(minimal_lattice(radius=5))
        assert c.content_hash() != a.content_hash()


def _schema_nodes(schema):
    """Every (keyword, value) pair of a schema and of its subschemas."""
    yield from schema.items()
    for sub in (*schema.get("properties", {}).values(), *schema.get("oneOf", ()),
                *([schema["items"]] if "items" in schema else [])):
        yield from _schema_nodes(sub)


# What a mutation writes: a field name of the schema or one it does not know,
# and a value of every shape it takes, integral floats, non-finite numbers,
# a bool and an integer past the seed's maximum among them.
_MUTANT_NAMES = sorted({name for key, value in _schema_nodes(CONFIG_SCHEMA)
                        if key == "properties" for name in value} | {"extra"})
_MUTANT_VALUES = (
    0, 1, -1, 2, 2.0, 0.5, -0.25, 2**64, 2**64 - 1, 1e-300, math.nan, math.inf, True, None,
    "x", "csv", "lattice", [], [1], [0.5, 1], [[1, 0], [0, 1]], [[0.5, 1], [2, 3.0]],
    [[[0.0, 0.5], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.4]]], {}, {"path": "r.json"})


def _mutate(cfg, rng):
    """One seeded edit of a dict or list anywhere in cfg: set, drop or add an entry."""
    def containers(node):
        yield node
        for child in (node.values() if isinstance(node, dict) else node):
            if isinstance(child, (dict, list)):
                yield from containers(child)

    node = rng.choice(list(containers(cfg)))
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    op = rng.randrange(3)
    value = copy.deepcopy(rng.choice(_MUTANT_VALUES))
    if op == 0 and keys:
        node[rng.choice(keys)] = value
    elif op == 1 and keys:
        node.pop(rng.choice(keys))
    elif isinstance(node, dict):
        node[rng.choice(_MUTANT_NAMES)] = value
    else:
        node.append(copy.deepcopy(rng.choice(node)) if node and rng.random() < 0.5 else value)


class TestSchema:
    def test_every_schema_keyword_is_interpreted(self):
        # a keyword the interpreter does not read would be ignored silently
        pairs = list(_schema_nodes(CONFIG_SCHEMA))
        assert {key for key, _ in pairs} <= _SCHEMA_KEYWORDS
        assert all(value is False for key, value in pairs if key == "additionalProperties")

    def test_interpreter_agrees_with_jsonschema(self, lattice_config_path,
                                                vector_config_path):
        # the independent route: jsonschema's Draft 2020-12 validator with the
        # config's two types, "number" finite and "integer" an int, not a bool
        jsonschema = pytest.importorskip("jsonschema")
        base = jsonschema.Draft202012Validator
        types = base.TYPE_CHECKER.redefine_many({
            "number": lambda _, x: not isinstance(x, bool) and (
                isinstance(x, int) or isinstance(x, float) and math.isfinite(x)),
            "integer": lambda _, x: isinstance(x, int) and not isinstance(x, bool)})
        cls = jsonschema.validators.extend(base, type_checker=types)
        cls.check_schema(CONFIG_SCHEMA)
        validator = cls(CONFIG_SCHEMA)
        texts = [lattice_config_path.read_text(), vector_config_path.read_text()]
        rng = random.Random(2026)
        accepted = single = 0
        for n in range(1500):
            cfg = json.loads(texts[n % 2])
            for _ in range(rng.randint(1, 3)):
                _mutate(cfg, rng)
            found = _violation(CONFIG_SCHEMA, cfg)
            errors = list(itertools.islice(validator.iter_errors(cfg), 2))
            assert (found is None) == (not errors), (cfg, found, errors)
            accepted += found is None
            # the error as raised, a oneOf one at tau itself (best_match
            # would pick one of its inner errors instead)
            if len(errors) == 1:
                single += 1
                assert found == (errors[0].message, errors[0].json_path), cfg
        # the sample holds both verdicts and many single errors
        assert accepted > 50 and single > 500, (accepted, single)


def _non_canonical_config(kind):
    """A non-canonical lattice or an off-diagonal vector config."""
    if kind == "lattice":
        return parse_config(minimal_lattice(
            embedding={"kind": "lattice", "theta1": 0.5, "m": [[2, 1], [1, 1]],
                       "delta_hat": [[0.25, 0.25], [-0.5, -0.25]]},
            structure={"tau": [0.3, 0.2]}))
    return parse_config({"embedding": {"kind": "vector_space", "theta1": 0.5, "theta2": 0.4},
                         "structure": {"tau": [[[0.1, 0.5], [0.04, 0.08]],
                                               [[0.05, 0.1], [0.02, 0.4]]]}})


def _non_canonical_series(kind):
    """A radius-2 series of :func:`_non_canonical_config` whose values hold
    signed zeros, subnormal and tiny values, integer valued and negative
    floats; im is distinct in every row."""
    cfg = _non_canonical_config(kind)
    emb = cfg.build_embedding()
    series = quantum_theta_series(emb, cfg.build_structure(emb), radius=2)
    rng = np.random.default_rng(3)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, 3.0, -7.0,
                        -2.5, 0.1, 1e16, -1e-300])
    n = len(series.values)
    series.values.real = special[rng.integers(0, len(special), size=n)]
    series.values.imag = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    return series


def _reload_outcome(path):
    """The reloaded values' bytes, or the message of the ValueError raised."""
    try:
        return load_series(path).values.tobytes()
    except ValueError as err:
        return str(err)


def _shell_order(radius):
    """Grid positions of radius r in shell order, the order in which tables
    were written before the grid order: sup norm first, then lexicographic."""
    return np.argsort(np.abs(enumerate_indices(radius)).max(axis=1), kind="stable")


@pytest.fixture(scope="class")
def golden_tables(lattice_config, vector_config, tmp_path_factory):
    """The tables of tests/golden/table_digests.json, by name, as (radius, bytes)."""
    configs, tables = {"lattice": lattice_config, "vector": vector_config}, {}
    out = tmp_path_factory.mktemp("golden")
    for name in load_golden("table_digests.json")["sha256"]:
        kind, radius, fmt = name.split(" ")
        emb = configs[kind].build_embedding()
        series = quantum_theta_series(emb, configs[kind].build_structure(emb),
                                      radius=int(radius[2:]))
        path = export_coefficients(series, fmt, out / f"{kind}.{fmt}")
        tables[name] = series.radius, path.read_bytes()
    return tables


class _WriteSpy:
    """A binary file that records the bytes of each write before passing them on."""

    def __init__(self, fh, writes: list):
        self.fh, self.writes = fh, writes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes.append(bytes(data))
        return self.fh.write(data)


def _spy_on_writes(monkeypatch, path: Path) -> list:
    """The bytes of each write to PATH, as the file is opened through io.open."""
    writes, original = [], io.open

    def spy(file, mode="r", *args, **kwargs):
        fh = original(file, mode, *args, **kwargs)
        return _WriteSpy(fh, writes) if Path(file) == path else fh

    monkeypatch.setattr(io, "open", spy)
    return writes


class TestExport:
    def test_tables_keep_their_golden_bytes(self, golden_tables):
        # the r=4 CSV and JSON tables and the r=8 CSV table of both fixtures,
        # byte for byte as tests/golden/table_digests.json records them
        golden = load_golden("table_digests.json")["sha256"]
        assert {name: hashlib.sha256(table).hexdigest()
                for name, (_, table) in golden_tables.items()} == golden

    def test_tables_are_the_shell_order_tables_permuted(self, golden_tables):
        # a table's rows are in grid order; put into shell order (sup norm,
        # then lexicographic), in which tables were written before, each is
        # the earlier table byte for byte: the CSV lines move, and so do the
        # JSON codes, while its values do not
        shell = load_golden("table_digests.json")["shell_order_sha256"]
        digests = {}
        for name, (radius, table) in golden_tables.items():
            order = _shell_order(radius)
            if name.endswith("csv"):
                header, *lines = table.split(b"\n")[:-1]
                table = b"\n".join([header] + [lines[p] for p in order.tolist()]) + b"\n"
            else:
                head, codes, tail = re.split(rb'(?<="coefficients": \[)(.*?)(?=\])', table,
                                             maxsplit=1)
                codes = codes.split(b", ")
                table = head + b", ".join(codes[p] for p in order.tolist()) + tail
            digests[name] = hashlib.sha256(table).hexdigest()
        assert digests == shell

    def test_csv_row_count_and_header(self, lattice_emb, lattice_structure, tmp_path):
        series = quantum_theta_series(lattice_emb, lattice_structure, radius=1)
        out = export_coefficients(series, "csv", tmp_path / "coeff.csv")
        lines = out.read_text().splitlines()
        assert lines[0] == "k1,k2,k3,k4,w1,w2,m1,m2,t1,t2,re,im"
        assert len(lines) == 1 + 81

    def test_csv_zero_row(self, lattice_emb, lattice_structure, tmp_path):
        # rows in grid order: k = 0 is the centre row, 40 of 81
        series = quantum_theta_series(lattice_emb, lattice_structure, radius=1)
        out = export_coefficients(series, "csv", tmp_path / "coeff.csv")
        first = out.read_text().splitlines()[1 + 40].split(",")
        assert first[:4] == ["0", "0", "0", "0"]
        assert float(first[10]) == pytest.approx(1.000000602807, rel=1e-9)
        assert float(first[11]) == 0.0

    def test_json_roundtrip_byte_identical(self, lattice_emb, lattice_structure,
                                           tmp_path):
        series = quantum_theta_series(lattice_emb, lattice_structure, radius=1)
        j1 = export_coefficients(series, "json", tmp_path / "a.json")
        reloaded = load_series(j1)
        j2 = export_coefficients(reloaded, "json", tmp_path / "b.json")
        assert j1.read_bytes() == j2.read_bytes()
        c1 = export_coefficients(series, "csv", tmp_path / "a.csv")
        c2 = export_coefficients(reloaded, "csv", tmp_path / "b.csv")
        assert c1.read_bytes() == c2.read_bytes()

    @pytest.mark.parametrize("case, radius", [("fixture", 4), ("fixture", 8), ("m2111", 2)])
    def test_lattice_coefficients_are_stored_real(self, case, radius, lattice_config,
                                                  tmp_path):
        # the mode product is real (special.mode_factor), so every lattice
        # coefficient holds im +0.0, never -0.0, and its table reloads as such
        cfg = lattice_config if case == "fixture" else parse_config(minimal_lattice(
            embedding={"kind": "lattice", "theta1": 0.5, "m": [[2, 1], [1, 1]],
                       "delta_hat": [[0.25, 0.25], [-0.5, -0.25]]},
            structure={"tau": [0.3, 0.2]}))
        emb = cfg.build_embedding()
        series = quantum_theta_series(emb, cfg.build_structure(emb), radius=radius)
        assert not series.values.imag.view(np.uint64).any()
        j1 = export_coefficients(series, "json", tmp_path / "a.json")
        reloaded = load_series(j1)
        assert not reloaded.values.imag.view(np.uint64).any()
        j2 = export_coefficients(reloaded, "json", tmp_path / "b.json")
        assert j1.read_bytes() == j2.read_bytes()

    def test_reload_keeps_the_rounding_im_of_earlier_tables(self, lattice_emb,
                                                            lattice_structure, tmp_path):
        # the rounding noise in im of the tables written while the mode
        # product was complex makes nearly every pair distinct; a series
        # holding it stores each pair once, reloads as stored and re-exports
        # unchanged
        series = quantum_theta_series(lattice_emb, lattice_structure, radius=2)
        noise = np.random.default_rng(5).standard_normal(len(series.values)) * 1e-17
        series.values.imag = noise * series.values.real
        j1 = export_coefficients(series, "json", tmp_path / "a.json")
        distinct = len(np.unique(series.values.view(np.uint64).reshape(-1, 2), axis=0))
        assert len(json.loads(j1.read_text())["values"]) == distinct > 600
        reloaded = load_series(j1)
        assert reloaded.values.tobytes() == series.values.tobytes()
        assert export_coefficients(reloaded, "json", tmp_path / "b.json").read_bytes() \
            == j1.read_bytes()

    def test_reload_rejects_table_that_misses_its_parameters(
            self, lattice_emb, lattice_structure, tmp_path):
        series = quantum_theta_series(lattice_emb, lattice_structure, radius=1)
        path = export_coefficients(series, "json", tmp_path / "a.json")
        data = json.loads(path.read_text())
        # row 0 alone reads the doubled value
        real, imag = data["values"][data["coefficients"][0]]
        data["coefficients"][0] = len(data["values"])
        data["values"].append([2.0 * real, imag])
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="coefficient at -1,-1,-1,-1"):
            load_series(path)

    @pytest.mark.parametrize("fault", ["missing", "added", "three-entries", "entry-moved-up",
                                       "object-row", "ambient-row", "true-re", "int-im",
                                       "rows-not-a-list", "no-coefficients", "no-radius",
                                       "bad-radius", "not-json", "null-re",
                                       "nan-im-outside-norm-2",
                                       "bogus-kind", "string-tau", "string-theta1",
                                       "null-normalization", "negative-decay",
                                       "infinite-decay", "nan-theta1", "singular-m",
                                       "rescaled-normalization", "kind-mismatch",
                                       "pair-row", "true-code", "float-code", "string-code",
                                       "negative-code", "past-values-code", "nan-re",
                                       "shared-nan-im", "no-values", "values-not-a-list"])
    @pytest.mark.parametrize("layout", ["compact", "writer"])
    def test_reload_rejects_malformed_rows(self, lattice_emb, lattice_structure,
                                           tmp_path, fault, layout):
        # the reader is one json.loads, so a table gives the same message
        # compact and indented with sorted keys, as the writer lays it out
        series = quantum_theta_series(lattice_emb, lattice_structure, radius=3)
        path = export_coefficients(series, "json", tmp_path / "a.json")
        data = json.loads(path.read_text())
        rows, values = data["coefficients"], data["values"]
        # row j, the first in grid order inside sup norm 2, where the
        # reassembly check runs, and no row before it reads its value or that
        # of row j + 1
        j = 400
        k = _label(series.indices[j])
        assert k == "-2,-2,-2,-2"
        assert series.indices[-1].tolist() == [3, 3, 3, 3]
        assert {rows[j], rows[j + 1]}.isdisjoint(rows[:j])
        value = values[rows[j]]
        # the value of the last row is read first by another row
        shared = _label(series.indices[rows.index(rows[-1])])
        assert shared != "3,3,3,3"
        not_finite = f"coefficient at {k} is not a pair of finite floats"
        bad_code = f"the code for index {k} is not an integer in range({len(values)})"
        message = {"missing": "holds 2400 rows, not the 2401 indices of radius 3",
                   "added": "holds 2402 rows, not the 2401 indices of radius 3",
                   "three-entries": not_finite, "entry-moved-up": not_finite,
                   "true-re": not_finite, "int-im": not_finite, "null-re": not_finite,
                   "nan-re": not_finite,
                   "shared-nan-im": f"coefficient at {shared} is not a pair of finite floats",
                   "object-row": bad_code, "ambient-row": bad_code, "pair-row": bad_code,
                   "true-code": bad_code, "float-code": bad_code, "string-code": bad_code,
                   "negative-code": bad_code, "past-values-code": bad_code,
                   "rows-not-a-list": "not laid out as a coefficient table",
                   "values-not-a-list": "not laid out as a coefficient table",
                   "bad-radius": "the radius must be a positive integer",
                   "not-json": "not a JSON table",
                   "nan-im-outside-norm-2":
                       "coefficient at 3,3,3,3 is not a pair of finite floats",
                   "null-normalization": "the normalization must be a finite float",
                   "bogus-kind": "embedding or structure is not valid",
                   "string-tau": "embedding or structure is not valid",
                   "string-theta1": "embedding or structure is not valid",
                   "negative-decay": "embedding or structure is not valid",
                   "infinite-decay": "embedding or structure is not valid",
                   "nan-theta1": "embedding or structure is not valid",
                   "singular-m": "embedding or structure is not valid",
                   "rescaled-normalization": "normalization 1.0 is not the structure's 0.5",
                   "kind-mismatch": "kind 'vector_space' is not its embedding's 'lattice'",
                   }.get(fault, f"no '{fault[3:]}' entry")
        if fault == "missing":
            del rows[1000]
        elif fault == "added":
            rows.append(rows[-1])
        elif fault == "three-entries":
            value.append(0.0)
        elif fault == "entry-moved-up":
            # three entries and then one: still twice as many floats as values
            value.append(values[rows[j + 1]].pop(0))
        elif fault == "object-row":
            # the row of the tables that held each index beside its coefficient
            rows[j] = {"im": value[1], "k": series.indices[j].tolist(), "re": value[0]}
        elif fault == "ambient-row":
            # and of the tables before them, with the index's ambient coordinates
            ambient = np.concatenate(point_parts(lattice_emb, series.indices[j]), axis=-1)
            rows[j] = {"ambient": ambient.tolist(), "im": value[1],
                       "k": series.indices[j].tolist(), "re": value[0]}
        elif fault == "pair-row":
            # and of the tables after them, which held [re, im] in every row
            rows[j] = list(value)
        elif fault.endswith("-code"):
            rows[j] = {"true-code": True, "float-code": 1.0, "string-code": "3",
                       "negative-code": -1, "past-values-code": len(values)}[fault]
        elif fault == "true-re":
            value[0] = True
        elif fault == "int-im":
            value[1] = 1
        elif fault == "null-re":
            value[0] = None
        elif fault == "nan-re":
            value[0] = math.nan
        elif fault == "rows-not-a-list":
            data["coefficients"] = dict(enumerate(rows))
        elif fault == "values-not-a-list":
            data["values"] = dict(enumerate(values))
        elif fault.startswith("no-"):
            del data[fault[3:]]
        elif fault == "bad-radius":
            data["radius"] = 1.5
        elif fault == "nan-im-outside-norm-2":
            # in a value that the last row alone reads
            values.append([values[rows[-1]][0], math.nan])
            rows[-1] = len(values) - 1
        elif fault == "shared-nan-im":
            values[rows[-1]][1] = math.nan
        elif fault == "bogus-kind":
            data["embedding"]["kind"] = "bogus"
        elif fault == "string-tau":
            data["structure"]["tau"] = "x"
        elif fault == "string-theta1":
            data["embedding"]["theta1"] = "x"
        elif fault == "null-normalization":
            data["normalization"] = None
        elif fault == "negative-decay":
            data["structure"]["lattice_decay"] = -1
        elif fault == "infinite-decay":
            # json writes Infinity and NaN, and reads them back
            data["structure"]["lattice_decay"] = math.inf
        elif fault == "nan-theta1":
            data["embedding"]["theta1"] = math.nan
        elif fault == "singular-m":
            data["embedding"]["m"] = [[1, 2], [2, 4]]
        elif fault == "rescaled-normalization":
            # normalization times C is unchanged, so only the scale is wrong
            data["normalization"] *= 2.0
            for v in values:
                v[0] /= 2.0
                v[1] /= 2.0
        elif fault == "kind-mismatch":
            data["kind"] = "vector_space"
        layouts = {"compact": json.dumps,
                   "writer": lambda d: json.dumps(d, indent=2, sort_keys=True) + "\n"}
        path.write_text("not json" if fault == "not-json" else layouts[layout](data))
        with pytest.raises(ValueError, match=f"a.json: .*{re.escape(message)}"):
            load_series(path)

    @pytest.mark.parametrize("case, outcome", [
        ("split-row", None), ("crlf", None),
        ("string-holds-separator", "is not a pair of finite floats"),
        ("string-across-rows", "not a JSON table"),
        ("row-of-two-elements", "not a JSON table"),
        ("row-of-two-pairs", "not a JSON table"),
        ("int-re", "is not a pair of finite floats"),
        ("nan-re", "is not a pair of finite floats"),
        ("object-row", "code for index -2,-2,-2,-2 is not an integer"),
        ("duplicate-key-first", None),
        ("duplicate-key-last", "holds 1 rows, not the 625 indices"),
        ("nested-entry", "holds 0 rows, not the 625 indices")])
    def test_reload_reads_adversarial_rows_as_json_loads(self, lattice_emb, lattice_structure,
                                                         tmp_path, case, outcome):
        # edits of the written text near its layout reload as json.loads
        # reads them: the same values, or the message of what it reads
        series = quantum_theta_series(lattice_emb, lattice_structure, radius=2)
        text = export_coefficients(series, "json", tmp_path / "a.json").read_text()
        lines = text.splitlines()
        codes = lines[1]
        assert codes.startswith('  "coefficients": [') and codes.endswith("],")
        row, after = lines[lines.index('  "values": [') + 1:][:2]
        assert row.startswith("    [") and row.endswith("],")
        re_, im = row[5:-2].split(", ")
        edit = {
            # a string across a line break, then two pairs on one line
            "string-across-rows": f'    ["a,\nb", {im}],\n    [1.0, 0.0]],[[2.0, 0.0],',
            # a value list closed early, and an empty entry beside two pairs
            "row-of-two-elements": "    [1.0, 0.0]],[[2.0, 0.0],",
            "row-of-two-pairs": "    [1.0, 0.0], [2.0, 0.0],\n,",
            "split-row": f"    [{re_},\n     {im}],",
            "string-holds-separator": f'    ["{re_}],[", {im}],',
            "int-re": f"    [1, {im}],",
            "nan-re": f"    [NaN, {im}],",
        }
        if case == "string-across-rows":
            text = text.replace(f"{row}\n{after}", edit[case], 1)
        elif case in edit:
            text = text.replace(row, edit[case], 1)
        elif case == "crlf":
            text = text.replace("\n", "\r\n")
        elif case == "object-row":
            # in place of the first code
            text = text.replace(codes, '  "coefficients": [{"im": 0.0, "k": [0, 0, 0, 0],'
                                ' "re": 1.0}, ' + codes.split(", ", 1)[1], 1)
        elif case == "duplicate-key-first":
            text = text.replace('"coefficients": [', '"coefficients": [],\n  "coefficients": [', 1)
        elif case == "duplicate-key-last":
            text = text.replace("\n}\n", ',\n  "coefficients": [0]\n}\n')
        elif case == "nested-entry":
            # the codes under a key that sorts before "coefficients", which is empty
            text = text.replace(codes, '  "a": {' + codes[2:-1] + '},\n  "coefficients": [],', 1)
        path = tmp_path / "b.json"
        path.write_bytes(text.encode())
        got = _reload_outcome(path)
        if outcome is None:
            assert got == series.values.tobytes()
        else:
            assert outcome in got

    def test_reload_refuses_text_that_is_not_utf8(self, lattice_emb, lattice_structure,
                                                 tmp_path):
        series = quantum_theta_series(lattice_emb, lattice_structure, radius=1)
        path = export_coefficients(series, "json", tmp_path / "a.json")
        path.write_bytes(path.read_bytes().replace(b"0.0", b"0.\xe9", 1))
        with pytest.raises(ValueError, match="a.json: not a JSON table .*'utf-8' codec"):
            load_series(path)

    def test_reload_refuses_nesting_deeper_than_the_decoder_reaches(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000 + "]" * 200000)
        with pytest.raises(ValueError, match="deep.json: not a JSON table .*recursion"):
            load_series(path)

    def test_reload_is_bit_exact(self, lattice_emb, lattice_structure, tmp_path):
        # finite doubles at the edges of the format reload bit for bit, in
        # rows of sup norm 3, outside the reassembly check
        series = quantum_theta_series(lattice_emb, lattice_structure, radius=3)
        outer = np.flatnonzero(np.abs(series.indices).max(axis=1) == 3)

        @settings(max_examples=12, deadline=None, derandomize=True)
        @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2,
                        max_size=64))
        @example([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                  -2.225073858507201e-308, 1.7976931348623157e308,
                  -1.7976931348623157e308, 1e-310, 0.1])
        def check(floats):
            values = series.values.copy()
            pairs = np.array(floats[:len(floats) // 2 * 2]).view(complex)
            values[outer[:len(pairs)]] = pairs
            table = QuantumThetaSeries(series.embedding, series.structure, series.radius,
                                       series.normalization, values)
            path = export_coefficients(table, "json", tmp_path / "bits.json")
            # each distinct pair of bit patterns is stored once
            stored = json.loads(path.read_text())["values"]
            assert len(stored) == len(np.unique(values.view(np.uint64).reshape(-1, 2), axis=0))
            assert load_series(path).values.view(np.uint64).tolist() \
                == values.view(np.uint64).tolist()

        check()

    @pytest.mark.parametrize("kind", ["lattice", "vector", "non-canonical-lattice",
                                      "off-diagonal-vector", "noise-im-lattice",
                                      "outer-noise-im-lattice"])
    @pytest.mark.parametrize("radius", [1, 3])
    def test_reload_decodes_the_text_once(self, request, monkeypatch, tmp_path, kind, radius):
        # every table is read by one json.loads of the file's text, also one
        # whose im holds rounding noise, as lattice tables written while the
        # mode product was complex do: in every row, or in the outer shell
        if kind in ("lattice", "vector"):
            emb = request.getfixturevalue(f"{kind}_emb")
            structure = request.getfixturevalue(f"{kind}_structure")
        elif kind.endswith("noise-im-lattice"):
            emb, structure = request.getfixturevalue("lattice_emb"), \
                request.getfixturevalue("lattice_structure")
        else:
            cfg = parse_config(minimal_lattice(
                embedding={"kind": "lattice", "theta1": 0.5, "m": [[2, 1], [1, 1]],
                           "delta_hat": [[0.25, 0.25], [-0.5, -0.25]]},
                structure={"tau": [0.3, 0.2]}) if kind == "non-canonical-lattice" else {
                "embedding": {"kind": "vector_space", "theta1": 0.5, "theta2": 0.4},
                "structure": {"tau": [[[0.1, 0.5], [0.04, 0.08]],
                                      [[0.05, 0.1], [0.02, 0.4]]]}})
            emb = cfg.build_embedding()
            structure = cfg.build_structure(emb)
        series = quantum_theta_series(emb, structure, radius=radius)
        if kind.endswith("noise-im-lattice"):
            noise = np.random.default_rng(5).standard_normal(len(series.values)) * 1e-17
            if kind.startswith("outer"):
                noise[np.abs(series.indices).max(axis=1) < radius] = 0.0
            series.values.imag = noise * series.values.real
        path = export_coefficients(series, "json", tmp_path / "a.json")
        text, decoded = path.read_text(), []
        loads = json.loads

        def spy(s, *args, **kwargs):
            decoded.append(s)
            return loads(s, *args, **kwargs)

        monkeypatch.setattr(json, "loads", spy)
        reloaded = load_series(path)
        monkeypatch.undo()
        assert reloaded.values.tobytes() == series.values.tobytes()
        assert decoded == [text]

    def test_reload_bounds_its_work_by_the_row_count(self, lattice_emb, lattice_structure,
                                                     tmp_path):
        # 81 rows cannot fill radius 2, let alone a (2 * 10**6 + 1)^4 table
        series = quantum_theta_series(lattice_emb, lattice_structure, radius=1)
        path = export_coefficients(series, "json", tmp_path / "a.json")
        data = json.loads(path.read_text())
        data["radius"] = 10**6
        path.write_text(json.dumps(data))
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"a.json: the table holds 81 rows, not the"
                                             f" {(2 * 10**6 + 1) ** 4} indices of radius"):
            load_series(path)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("layout", ["index", "ambient", "pairs"])
    @pytest.mark.parametrize("kind", ["lattice", "vector", "off-diagonal-vector"])
    def test_reload_refuses_the_object_rows_of_earlier_tables(self, request, tmp_path,
                                                              kind, layout, capsys):
        # a table without "values" whose rows are {"im", "k", "re"} objects,
        # with the index's ambient coordinates or without, or [re, im] lists,
        # is refused as any table without "values"; its header makes the
        # config from which the CLI writes the table anew
        if kind == "off-diagonal-vector":
            cfg = parse_config({"embedding": {"kind": "vector_space", "theta1": 0.5,
                                              "theta2": 0.4},
                                "structure": {"tau": [[[0.1, 0.5], [0.04, 0.08]],
                                                      [[0.05, 0.1], [0.02, 0.4]]]}})
            emb = cfg.build_embedding()
            structure = cfg.build_structure(emb)
        else:
            emb = request.getfixturevalue(f"{kind}_emb")
            structure = request.getfixturevalue(f"{kind}_structure")
        series = quantum_theta_series(emb, structure, radius=2)
        new = export_coefficients(series, "json", tmp_path / "new.json")
        data = json.loads(new.read_text())
        header = {key: data[key] for key in ("embedding", "structure", "radius")}
        pairs = [data["values"][code] for code in data.pop("coefficients")]
        # an old row's ambient list: the CSV table's (w1, w2, m1, m2, t1, t2)
        table = export_coefficients(series, "csv", tmp_path / "new.csv")
        ambient = np.loadtxt(table, delimiter=",", skiprows=1, usecols=range(4, 10))
        del data["values"]
        data["coefficients"] = pairs if layout == "pairs" else [
            {"im": im, "k": k, "re": re, **({"ambient": point} if layout == "ambient" else {})}
            for (re, im), k, point in zip(pairs, series.indices.tolist(), ambient.tolist())]
        old = tmp_path / "old.json"
        old.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        with pytest.raises(ValueError) as refused:
            load_series(old)
        assert str(refused.value) == f"{old}: the table has no 'values' entry"
        config = tmp_path / "config.json"
        config.write_text(json.dumps(header))
        assert main(["quantum-theta", "--config", str(config), "--output",
                     str(tmp_path / "again.json"), "--format", "json"]) == 0
        capsys.readouterr()
        # the header's tau is the config's, so the table comes back byte for byte
        assert (tmp_path / "again.coefficients.json").read_bytes() == new.read_bytes()

    @pytest.mark.parametrize("kind", ["lattice", "vector"])
    def test_reload_refuses_a_shell_order_table(self, request, tmp_path, kind):
        # tables written before the grid order held the same header and
        # values, with the codes in shell order; the reassembly check, which
        # reads the sup-norm-2 box in grid order, refuses one at its first
        # index, whose code is that of another index
        series = quantum_theta_series(request.getfixturevalue(f"{kind}_emb"),
                                      request.getfixturevalue(f"{kind}_structure"), radius=3)
        data = json.loads(export_coefficients(series, "json", tmp_path / "new.json").read_text())
        data["coefficients"] = [data["coefficients"][p] for p in _shell_order(3).tolist()]
        old = tmp_path / "old.json"
        old.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        with pytest.raises(ValueError) as refused:
            load_series(old)
        assert str(refused.value) == (
            f"{old}: stored coefficient at -2,-2,-2,-2 does not reassemble the inner product")

    @pytest.mark.parametrize("kind", ["lattice", "vector", "non-canonical-lattice",
                                      "off-diagonal-vector"])
    def test_json_row_i_is_the_csv_row_of_the_ith_index(self, request, tmp_path, kind):
        # the JSON table leaves each code's index to the grid order, the last
        # index fastest, which the CSV table writes out; code i reads the
        # value of CSV row i
        if kind in ("lattice", "vector"):
            series = quantum_theta_series(request.getfixturevalue(f"{kind}_emb"),
                                          request.getfixturevalue(f"{kind}_structure"),
                                          radius=3)
        else:
            series = _non_canonical_series(kind.split("-")[-1])
        table = json.loads(export_coefficients(series, "json", tmp_path / "t.json").read_text())
        rows = [table["values"][code] for code in table["coefficients"]]
        lines = export_coefficients(series, "csv", tmp_path / "t.csv").read_text()
        cells = [line.split(",") for line in lines.splitlines()[1:]]
        r = series.radius
        assert [[int(c) for c in row[:4]] for row in cells] == [
            list(k) for k in itertools.product(range(-r, r + 1), repeat=4)]
        np.testing.assert_array_equal(
            np.array(rows, dtype=float).view(np.uint64),
            np.array([[float(c) for c in row[10:]] for row in cells]).view(np.uint64))
        assert len(rows) == len(cells) == (2 * series.radius + 1) ** 4

    @pytest.mark.parametrize("collecting", [True, False])
    def test_reload_leaves_the_collector_as_it_was(self, lattice_emb, lattice_structure,
                                                   tmp_path, collecting):
        series = quantum_theta_series(lattice_emb, lattice_structure, radius=1)
        good = export_coefficients(series, "json", tmp_path / "a.json")
        bad = tmp_path / "b.json"
        bad.write_text("not json")
        was = gc.isenabled()
        try:
            (gc.enable if collecting else gc.disable)()
            load_series(good)
            assert gc.isenabled() is collecting
            with pytest.raises(ValueError, match="not a JSON table"):
                load_series(bad)
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if was else gc.disable)()

    def test_reassembly_check_fails_closed_on_nan(self, lattice_emb, lattice_structure):
        # a NaN anywhere in the radius-2 box fails the check at its index:
        # here at grid position 3 of radius 1, and at its centre
        series = quantum_theta_series(lattice_emb, lattice_structure, radius=1)
        series.values[3] = complex("nan")
        assert _reassembly_failure(series) == _label(series.indices[3]) == "-1,-1,0,-1"
        series.values[3] = series.values[77]  # C(k) = C(-k) on the canonical lattice
        assert _reassembly_failure(series) is None
        series.values[40] = complex("nan")
        assert _reassembly_failure(series) == "0,0,0,0"

    @pytest.mark.parametrize("kind", ["lattice", "vector"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_block_boundaries_do_not_move_bytes(self, request, monkeypatch, tmp_path,
                                                kind, fmt):
        series = quantum_theta_series(request.getfixturevalue(f"{kind}_emb"),
                                      request.getfixturevalue(f"{kind}_structure"),
                                      radius=2)
        tables = []
        for block in (1, 5, embedding_mod.BLOCK_ROWS):
            monkeypatch.setattr(embedding_mod, "BLOCK_ROWS", block)
            tables.append(export_coefficients(series, fmt, tmp_path / f"{block}.{fmt}")
                          .read_bytes())
        assert tables[0] == tables[1] == tables[2]
        assert len(series.indices) == 625

    @pytest.mark.parametrize("kind", ["lattice", "vector"])
    def test_write_table_matches_per_row_format(self, kind, monkeypatch):
        series = _non_canonical_series(kind)
        n = len(series.values)
        # the table as the per-row writer laid it out
        m_part, dual_part = point_parts(series.embedding, series.indices)
        block = np.zeros((n, 12))
        block[:, :4] = series.indices
        if kind == "lattice":
            block[:, [4, 6, 7]] = m_part
            block[:, [5, 8, 9]] = dual_part
        else:
            block[:, [4, 5]] = m_part
            block[:, [8, 9]] = dual_part
        block[:, 10] = series.values.real
        block[:, 11] = series.values.imag
        expected = "".join(_CSV_ROW % tuple(r.tolist()) for r in block)
        # each write is the text of one slab of 25 rows, whatever the blocks
        # blocks of one slab of 25 rows, and of four slabs with one slab last
        for rows, sizes in ((37, [25] * 25), (100, [100] * 6 + [25])):
            monkeypatch.setattr(embedding_mod, "BLOCK_ROWS", rows)
            assert [r.stop - r.start for r, _ in embedding_mod.slab_blocks(2)] == sizes
            out, written = io.BytesIO(), []
            _write_table(_WriteSpy(out, written), series)
            assert out.getvalue().decode("ascii") == expected
            assert [text.count(b"\n") for text in written] == [25] * 25
        assert len(np.unique(block[:, 11])) == n

    def test_csv_export_refuses_a_digest(self, tmp_path):
        # only a JSON table is hashed; a CSV export asked for a digest makes no file
        series = _non_canonical_series("lattice")
        path = tmp_path / "out" / "t.csv"
        with pytest.raises(ValueError, match="only a JSON table is hashed"):
            export_coefficients(series, "csv", path, digest=hashlib.sha256())
        assert not path.parent.exists()

    def test_index_planes_once_per_series(self, lattice_config, vector_emb, vector_structure,
                                          monkeypatch, tmp_path):
        # a series reads the two planes of its grid once, and a CSV table
        # once per write, however many blocks either runs over; a JSON
        # table reads none
        original, calls = embedding_mod.index_planes, []

        def counted(emb, radius):
            calls.append(radius)
            return original(emb, radius)

        def covered():
            # the radii the calls read since the last look, in order
            seen = calls.copy()
            calls.clear()
            return seen

        for module in [m for name, m in sys.modules.items() if name.startswith("nctheta")]:
            if getattr(module, "index_planes", None) is original:
                monkeypatch.setattr(module, "index_planes", counted)
        monkeypatch.setattr(embedding_mod, "BLOCK_ROWS", 1000)
        report = run_suite(lattice_config, "quantum-theta")
        assert covered() == [4]
        write_report(report, tmp_path / "r.csv", fmt="csv")
        assert covered() == [4]
        table = export_coefficients(report.series, "json", tmp_path / "t.json")
        assert covered() == []

        series = load_series(table)
        for n in (1, 2):
            export_coefficients(series, "json", tmp_path / f"{n}.json")
        assert covered() == []
        tables = []
        for n in (1, 2):
            tables.append(export_coefficients(series, "csv", tmp_path / f"{n}.csv").read_bytes())
            assert covered() == [4]
        assert tables[0] == tables[1] == (tmp_path / "r.coefficients.csv").read_bytes()

        vector = quantum_theta_series(vector_emb, vector_structure, radius=2)
        assert covered() == [2]
        export_coefficients(vector, "json", tmp_path / "v.json")
        assert covered() == []
        export_coefficients(vector, "csv", tmp_path / "v.csv")
        assert covered() == [2]

    @pytest.mark.parametrize("kind", ["lattice", "vector", "off-diagonal-vector"])
    def test_blocks_do_not_move_the_series_or_its_checks(self, request, monkeypatch, kind):
        if kind == "off-diagonal-vector":
            cfg = _non_canonical_config("vector")
        else:
            cfg = request.getfixturevalue(f"{kind}_config")
        cfg = parse_config({**cfg.raw, "radius": 2})
        runs = []
        for block in (1, 7, embedding_mod.BLOCK_ROWS):
            monkeypatch.setattr(embedding_mod, "BLOCK_ROWS", block)
            report = run_suite(cfg, "quantum-theta")
            assert report.passed, report.summary()
            runs.append((report.series.values.tobytes(), json.dumps(report.to_dict())))
        assert runs[0] == runs[1] == runs[2]
        assert len(report.series.values) == 625

    def test_vector_export(self, vector_emb, vector_structure, tmp_path):
        series = quantum_theta_series(vector_emb, vector_structure, radius=1)
        out = export_coefficients(series, "csv", tmp_path / "v.csv")
        rows = out.read_text().splitlines()
        assert len(rows) == 82
        # integer slots stay zero for the plane kind
        assert all(r.split(",")[6] == "0" and r.split(",")[7] == "0"
                   for r in rows[1:])


class TestRunSuite:
    def test_unknown_suite(self, lattice_config):
        with pytest.raises(ConfigInvalid):
            run_suite(lattice_config, "everything")

    def test_commutation_report(self, lattice_config):
        report = run_suite(lattice_config, "commutation")
        assert report.passed
        assert report.checks[0].name == "commutation-phases"
        assert len(report.checks[0].residuals) == 16

    def test_error_captured_not_raised(self, lattice_config, monkeypatch):
        # a module error inside a suite becomes an errored check
        import nctheta.report as report_mod

        def broken(ctx):
            raise TruncationTooSmall("translation index beyond radius/2")

        monkeypatch.setitem(report_mod._SUITE_FUNCS, "commutation", broken)
        report = run_suite(lattice_config, "commutation")
        assert not report.passed
        assert "errored" in report.checks[0].name

    def test_report_roundtrip(self, lattice_config, tmp_path):
        report = run_suite(lattice_config, "validate")
        p = write_report(report, tmp_path / "r.json")
        data = json.loads(p.read_text())
        assert data["summary"]["ok"] is True
        assert data["rng"]["algorithm"] == "philox4x64"
        assert "elapsed" not in json.dumps(data)

    def test_csv_report(self, lattice_config, tmp_path):
        report = run_suite(lattice_config, "commutation")
        p = write_report(report, tmp_path / "r.csv", fmt="csv")
        lines = p.read_text().splitlines()
        assert lines[0] == "check,label,residual,tolerance,passed"
        assert lines[-1].startswith("summary")

    @pytest.mark.parametrize("kind", ["lattice", "vector"])
    def test_csv_report_of_all_has_five_fields_per_line(self, kind, request, tmp_path):
        # check names carry index labels ("functional-equation g=1,0,0,0"),
        # so they are escaped as the labels are
        report = run_suite(request.getfixturevalue(f"{kind}_config"), "all")
        p = write_report(report, tmp_path / "r.csv", fmt="csv")
        rows = list(csv.reader(p.read_text().splitlines()))
        assert len(rows) > len(report.checks)
        assert {len(row) for row in rows} == {5}

    @pytest.mark.parametrize("residuals", [[("a", 1e-13), ("b", math.nan)],
                                           [("b", math.nan), ("a", 1e-13)],
                                           [(f"e{i}", 1e-13) for i in range(300)]
                                           + [("e300", math.nan)]],
                             ids=["nan-last", "nan-first", "nan-past-printed"])
    def test_nan_residual_fails_its_check(self, residuals):
        labels, values = zip(*residuals)
        check = VerificationReport.build("x", labels, values, 1e-12)
        assert math.isnan(check.max_residual)
        assert check.passed is False
        serialized = _check_dict(check)
        assert len(serialized["elements"]) == min(len(values), MAX_SERIALIZED_ELEMENTS)
        assert serialized["elements_total"] == len(values)

    def test_nonfinite_values_serialize_as_strict_json(self, lattice_config, tmp_path):
        report = run_suite(lattice_config, "validate")
        report.checks.append(VerificationReport.build(
            "x", ["a", "b"], [1e-13, math.nan], 1e-12, scalar=np.float64("nan"),
            z=complex(math.nan, 1.0), arr=np.array([math.inf, -math.inf])))
        p = write_report(report, tmp_path / "r.json")

        def refuse(token):
            raise ValueError(f"bare {token} in the report")

        check = json.loads(p.read_text(), parse_constant=refuse)["checks"][-1]
        assert check["max_residual"] == "nan" and check["passed"] is False
        assert check["elements"] == [["a", 1e-13], ["b", "nan"]]
        assert check["metadata"] == {"scalar": "nan", "z": ["nan", 1.0],
                                     "arr": ["inf", "-inf"]}

    def test_run_suite_writes_no_file(self, lattice_config, tmp_path, monkeypatch):
        # the fixture's output path is relative: reports/lattice_report.json
        assert not Path(lattice_config.output["path"]).is_absolute()
        monkeypatch.chdir(tmp_path)
        report = run_suite(lattice_config, "quantum-theta")
        assert list(tmp_path.iterdir()) == []
        assert report.artifacts == {}
        assert report.series is not None and "series" not in report.to_dict()

        path = write_report(report, tmp_path / "out" / "r.json")
        table = tmp_path / "out" / "r.coefficients.json"
        digest = hashlib.sha256(table.read_bytes()).hexdigest()
        assert sorted(p.name for p in path.parent.iterdir()) == [table.name, path.name]
        assert json.loads(path.read_text())["artifacts"] == {
            "coefficients": {"file": table.name, "sha256": digest}}

    @pytest.mark.parametrize("kind", ["lattice", "vector"])
    def test_quantum_theta_builds_no_row_table(self, kind, request, tmp_path):
        # a series stores its fields alone, also after its suite and its
        # tables have read it: no row table, positions or index rows
        report = run_suite(request.getfixturevalue(f"{kind}_config"), "quantum-theta")
        write_report(report, tmp_path / "r.json")
        write_report(report, tmp_path / "r.csv", fmt="csv")
        assert list(vars(report.series)) == ["embedding", "structure", "radius",
                                             "normalization", "values"]

    def test_streams_built_on_the_first_draw_match_the_spawned_ones(self, lattice_config):
        ctx = RunContext(lattice_config, None, None)
        # the first draw is from the last stream, so no stream rides on the order of draws
        drawn = {name: ctx.rng(name).integers(0, 2 ** 62, 16) for name in SUITE_NAMES[::-1]}
        streams = _rng_streams(lattice_config.seed)
        for name in SUITE_NAMES:
            assert drawn[name].tolist() == streams[name].integers(0, 2 ** 62, 16).tolist()

    def test_first_draw_without_a_seed_is_a_config_error(self):
        cfg = parse_config({k: v for k, v in minimal_lattice().items() if k != "seed"})
        ctx = RunContext(cfg, None, None)
        for _ in range(2):
            with pytest.raises(ConfigInvalid) as err:
                ctx.rng("validate")
            assert err.value.json_path == "$.seed"

    @pytest.mark.parametrize("kind", ["lattice", "vector"])
    def test_quantum_theta_never_loads_numpy_random(self, kind, request, cli_env, tmp_path):
        # a fresh interpreter, so no other test has imported numpy.random into it
        path = request.getfixturevalue(f"{kind}_config_path")
        script = textwrap.dedent(f"""
            import sys
            from nctheta.cli import main
            code = main(["quantum-theta", "--config", {str(path)!r}, "--seed", "42",
                         "--format", "csv", "--output", "report.csv"])
            assert code == 0, code
            assert "numpy.random" not in sys.modules, "numpy.random loaded"
        """)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=cli_env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert (tmp_path / "report.coefficients.csv").exists()

    def test_write_report_makes_no_csv_digest(self, monkeypatch, tmp_path):
        # a CSV report prints no artifacts, so its table is written unhashed
        import nctheta.report as report_mod

        report = run_suite(parse_config(minimal_lattice(radius=6)), "quantum-theta")
        made, original = [], hashlib.sha256

        def sha256(*args):
            made.append(args)
            return original(*args)

        monkeypatch.setattr(report_mod.hashlib, "sha256", sha256)
        written = _spy_on_writes(monkeypatch, tmp_path / "r.coefficients.csv")
        write_report(report, tmp_path / "r.csv", fmt="csv")
        monkeypatch.undo()
        # no digest is made; the header and one write per slab of a table of several blocks
        assert made == []
        assert len(written) == 1 + 13 ** 2
        data = (tmp_path / "r.coefficients.csv").read_bytes()
        assert b"".join(written) == data
        assert len(data) > 2 << 20
        assert data == export_coefficients(report.series, "csv", tmp_path / "ref.csv").read_bytes()
        assert report.artifacts == {"coefficients": {"file": "r.coefficients.csv"}}

    def test_write_report_hashes_the_whole_json_table(self, monkeypatch, tmp_path):
        # the JSON report's sha256 covers every byte of its table, fed as written
        import nctheta.report as report_mod

        report = run_suite(parse_config(minimal_lattice(radius=6)), "quantum-theta")
        made, original = [], hashlib.sha256

        def sha256(*args):
            made.append(original(*args))
            return made[-1]

        monkeypatch.setattr(report_mod.hashlib, "sha256", sha256)
        written = _spy_on_writes(monkeypatch, tmp_path / "r.coefficients.json")
        path = write_report(report, tmp_path / "r.json")
        monkeypatch.undo()
        data = (tmp_path / "r.coefficients.json").read_bytes()
        assert written == [data]
        reference = export_coefficients(report.series, "json", tmp_path / "ref.json")
        assert data == reference.read_bytes()
        sha = hashlib.sha256(data).hexdigest()
        assert [digest.hexdigest() for digest in made] == [sha]
        assert report.artifacts == {"coefficients": {"file": "r.coefficients.json", "sha256": sha}}
        assert json.loads(path.read_text())["artifacts"] == report.artifacts

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_write_report_reads_no_table_back(self, fmt, monkeypatch, tmp_path):
        # the table is opened once, to write; a JSON table is hashed as it
        # is written, a CSV one not at all. The CSV table spans seven blocks
        # of slabs
        monkeypatch.setattr(embedding_mod, "BLOCK_ROWS", 100)
        assert len(embedding_mod.slab_blocks(2)) == 7
        report = run_suite(parse_config(minimal_lattice(radius=2)), "quantum-theta")
        table = tmp_path / f"r.coefficients.{fmt}"
        original, modes = io.open, []

        def spy(file, mode="r", *args, **kwargs):
            if isinstance(file, (str, Path)) and Path(file) == table:
                modes.append(mode)
            return original(file, mode, *args, **kwargs)

        monkeypatch.setattr(io, "open", spy)
        monkeypatch.setattr("builtins.open", spy)
        write_report(report, tmp_path / f"r.{fmt}", fmt=fmt)
        monkeypatch.undo()
        assert modes == ["wb"]
        if fmt == "csv":
            assert report.artifacts == {"coefficients": {"file": table.name}}
        else:
            assert report.artifacts == {
                "coefficients": {"file": table.name,
                                 "sha256": hashlib.sha256(table.read_bytes()).hexdigest()}}


class TestSuiteCoverage:
    def test_every_suite_produces_checks(self, tmp_path):
        cfg = parse_config(minimal_lattice(radius=2))
        from nctheta.report import SUITE_NAMES

        for suite in SUITE_NAMES:
            report = run_suite(cfg, suite)
            assert report.checks, suite
            assert report.passed, (suite, report.summary())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("raw", [
        minimal_lattice(embedding={"kind": "lattice", "theta1": 0.5,
                                   "m": [[2, 1], [1, 1]],
                                   "delta_hat": [[0.25, 0.25], [-0.5, -0.25]]},
                        structure={"tau": [0.3, 0.2]}),
        minimal_lattice(structure={"tau": [0.0, 1.0], "lattice_decay": 20}),
        {"embedding": {"kind": "vector_space", "theta1": 5, "theta2": 4},
         "structure": {"tau": [[[0.0, 5.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 4.0]]]},
         "seed": 7},
    ], ids=["lattice-m2111", "lattice-decay20", "vector-theta54"])
    def test_quantum_theta_with_underflowed_coefficients(self, raw):
        # coefficients that underflow to 0 count as infinite decay: no crash,
        # no numpy warning
        report = run_suite(parse_config(raw), "quantum-theta")
        assert [c.name for c in report.checks] == [
            "coefficient-at-zero", "coefficient-symmetry", "coefficient-decay",
            "series-tail-bound"]
        assert report.passed, report.summary()

    @pytest.mark.parametrize("kind, checks", [("lattice", 29), ("vector", 28)])
    def test_all_at_the_minimum_radius(self, kind, checks, request):
        # functional-equation translates by norm-1 indices, so it reads a
        # radius-2 series when the config asks for radius 1
        cfg = request.getfixturevalue(f"{kind}_config")
        report = run_suite(parse_config({**cfg.raw, "radius": 1}), "all")
        assert report.passed, report.summary()
        assert len(report.checks) == checks

    def test_coefficient_decay_is_relative_to_zero(self):
        # C(0) = theta(0.1i)^2 is about 10 here, so |C(k)| > 1 near 0; the
        # rate of |C(k)| / C(0) is still positive
        report = run_suite(parse_config(minimal_lattice(
            structure={"tau": [0.0, 1.0], "lattice_decay": 0.05})), "quantum-theta")
        (decay,) = [c for c in report.checks if c.name == "coefficient-decay"]
        assert decay.passed
        assert decay.metadata["rate"] == pytest.approx(0.113, abs=1e-3)

    @pytest.mark.parametrize("kind", ["lattice", "vector"])
    def test_inner_product_norm_reads_the_zero_index(self, kind, request):
        # norm_sq is the real part of <f, pi_0 f>, the closed form at k = 0,
        # bit for bit; the suite lists its indices in grid order, where k = 0
        # is the centre row, not the first
        from nctheta.embedding import lattice_element
        from nctheta.qtheta import inner_product_closed, theta_vector

        cfg = request.getfixturevalue(f"{kind}_config")
        report = run_suite(cfg, "inner-product")
        (norm,) = [c for c in report.checks if c.name == "inner-product-norm"]
        emb = cfg.build_embedding()
        zero = inner_product_closed(theta_vector(cfg.build_structure(emb)),
                                    lattice_element(emb, np.zeros(4, dtype=np.int64)))
        assert np.float64(norm.metadata["norm_sq"]).tobytes() == np.float64(zero.real).tobytes()

    @pytest.mark.parametrize("kind", ["lattice", "vector"])
    def test_a_nan_coefficient_fails_symmetry_and_decay(self, kind, request, monkeypatch):
        # the checks reduce block by block; with 7-row blocks the NaN at row
        # 100 and at its negation, row 524, lies in a later block than the
        # first, whose result a Python max() or min() over the blocks would keep
        import nctheta.report as report_mod

        def with_nan(emb, structure, radius):
            series = quantum_theta_series(emb, structure, radius)
            series.values[100] = complex("nan")
            return series

        monkeypatch.setattr(report_mod, "quantum_theta_series", with_nan)
        monkeypatch.setattr(embedding_mod, "BLOCK_ROWS", 7)
        report = run_suite(request.getfixturevalue(f"{kind}_config"), "quantum-theta")
        assert report.summary()["failed_names"] == ["coefficient-symmetry", "coefficient-decay"]
        checks = {c.name: c for c in report.checks}
        assert math.isnan(checks["coefficient-symmetry"].max_residual)
        assert math.isnan(checks["coefficient-decay"].metadata["rate"])

    @pytest.mark.parametrize("kind", ["lattice", "vector"])
    def test_quantum_theta_holds_the_table_and_one_block(self, kind, request, tmp_path):
        # every pass over the table runs in row blocks, so a radius-8 run and
        # its CSV write hold the table (its values) plus a fixed budget; a
        # pass over all 83,521 rows at once holds 0.6 MiB per int64 column and
        # 1.3 MiB per complex one, and whole-table passes peaked 5.3 (lattice)
        # and 8.0 (vector) MiB above the table
        cfg = request.getfixturevalue(f"{kind}_config")
        write_report(run_suite(parse_config({**cfg.raw, "radius": 1}), "quantum-theta"),
                     tmp_path / "warm.csv", fmt="csv")  # imports and caches
        tracemalloc.start()
        try:
            report = run_suite(parse_config({**cfg.raw, "radius": 8}), "quantum-theta")
            write_report(report, tmp_path / "r.csv", fmt="csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = report.series.values.nbytes
        assert peak - table < 4 * 2**20, (peak, table)

    @pytest.mark.parametrize("kind", ["lattice", "vector"])
    def test_quantum_theta_decodes_one_block_of_rows_at_a_time(self, kind, request,
                                                                monkeypatch, tmp_path):
        # a radius-8 run and its CSV write read the two index planes of the
        # grid, slab by slab: they never decode the run's grid as (N, 4)
        # rows. They still call enumerate_indices, at the reassembly
        # check's radius: the benchmark's traced runs require a call
        enumerate_ = embedding_mod.enumerate_indices
        enumerated = []

        def counted(radius, rows=slice(None)):
            enumerated.append(radius)
            return enumerate_(radius, rows)

        for module in [m for name, m in sys.modules.items() if name.startswith("nctheta")]:
            for attr, value in list(vars(module).items()):
                if value is enumerate_:
                    monkeypatch.setattr(module, attr, counted)
        cfg = request.getfixturevalue(f"{kind}_config")
        report = run_suite(parse_config({**cfg.raw, "radius": 8}), "quantum-theta")
        write_report(report, tmp_path / "r.csv", fmt="csv")
        assert report.passed, report.summary()
        assert enumerated
        assert 8 not in enumerated
        assert "indices" not in vars(report.series)

    def test_series_built_once_per_radius(self, lattice_config, monkeypatch):
        # quantum-theta, functional-equation, consistency and additivity share
        # the radius-4 series of one run
        import nctheta.report as report_mod

        built = []

        def counted(emb, structure, radius):
            built.append(radius)
            return quantum_theta_series(emb, structure, radius)

        monkeypatch.setattr(report_mod, "quantum_theta_series", counted)
        report = run_suite(lattice_config, "all")
        assert report.passed, report.summary()
        assert built == [4]
        for suite in ("quantum-theta", "additivity"):
            run_suite(lattice_config, suite)
        assert built == [4, 4, 4]

    @pytest.mark.parametrize("kind, radius, calls", [("lattice", 12, [12]),
                                                     ("vector", 8, [8, 9, 10, 11, 12])])
    def test_tail_bound_once_per_radius(self, kind, radius, calls, request, monkeypatch):
        # quantum-theta bounds the tail at each radius from the config's to the
        # documented one, once each, and reports the first and last of them
        import nctheta.report as report_mod
        from nctheta.qtheta import series_tail_bound

        cfg = request.getfixturevalue(f"{kind}_config")
        seen = []

        def counted(series, r=None):
            seen.append(series.radius if r is None else r)
            return series_tail_bound(series, r)

        monkeypatch.setattr(report_mod, "series_tail_bound", counted)
        report = run_suite(parse_config({**cfg.raw, "radius": radius}), "quantum-theta")
        monkeypatch.undo()
        assert seen == calls
        # the check as built by searching the radius, then bounding again at
        # the documented and at the config radius
        series, doc = report.series, radius
        while series_tail_bound(series, doc) >= 1e-12:
            doc += 1
        expected = VerificationReport.build(
            "series-tail-bound", [f"bound at radius {doc}"], [series_tail_bound(series, doc)],
            1e-12, documented_radius=doc, bound_at_config_radius=series_tail_bound(series))
        check = next(c for c in report.checks if c.name == "series-tail-bound")
        assert _check_dict(check) == _check_dict(expected)

    def test_vector_additivity_suite(self, vector_config):
        report = run_suite(vector_config, "additivity")
        assert report.passed
        assert report.checks[0].max_residual <= 1e-12


def _assert_config_error(raw, json_path, tmp_path, capsys):
    """Run validate on raw: exit 2, naming the file and json_path on stderr."""
    bad = tmp_path / "schema_bad.json"
    bad.write_text(json.dumps(raw))
    code = main(["validate", "--config", str(bad)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith(f"config error: {bad}: ")
    assert err.endswith(f"(at {json_path})\n")
    return err


class TestCli:
    def test_exit_zero_and_report(self, lattice_config_path, tmp_path):
        out = tmp_path / "rep.json"
        code = main(["commutation", "--config", str(lattice_config_path),
                     "--output", str(out)])
        assert code == 0
        assert out.exists()

    def test_config_error_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["validate", "--config", str(bad)]) == 2
        assert main(["validate", "--config", str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize("field, value, json_path", [
        ("theta1", "half", "$.embedding.theta1"),
        ("delta_hat", [[0.1, 0.7], [0.3, 0.0]], "$.embedding"),
        ("finite_part", {"m1": 2, "n1": 1, "m2": 3, "n2": 2}, "$.embedding.finite_part"),
        # the plane's theta vector has no Z^2 factor for a decay to weigh
        ("lattice_decay", 1e-3, "$.structure.lattice_decay"),
    ])
    def test_config_error_names_file_and_field(self, field, value, json_path,
                                               vector_config_path, tmp_path, capsys):
        # a schema error, an embedding-invariant error and a field of the
        # other kind in a config file
        section = json_path.split(".")[1]
        raw = (minimal_lattice() if section == "embedding"
               else json.loads(vector_config_path.read_text()))
        raw[section][field] = value
        _assert_config_error(raw, json_path, tmp_path, capsys)

    @pytest.mark.parametrize("kind, keys, value, json_path", [
        ("lattice", ["seed"], 42.0, "$.seed"),
        ("vector", ["radius"], 2.0, "$.radius"),
        ("vector", ["embedding", "finite_part", "m1"], 2.0, "$.embedding.finite_part.m1"),
        # an integral float in an integer matrix
        ("lattice", ["embedding", "m"], [[1.0, 0], [0, 1.0]], "$.embedding.m[0][0]"),
    ])
    def test_integral_float_in_an_integer_field(self, kind, keys, value, json_path,
                                                 request, tmp_path, capsys):
        # an integer field takes JSON integers only, so 2.0 is a config error
        raw = json.loads(request.getfixturevalue(f"{kind}_config_path").read_text())
        node = raw
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        err = _assert_config_error(raw, json_path, tmp_path, capsys)
        assert "is not of type 'integer'" in err

    def test_finite_part_twist_not_coprime_exit_two(self, vector_config_path, tmp_path,
                                                     capsys):
        # schema-valid, but n1 = 2 shares a factor with m1 = 2
        raw = json.loads(vector_config_path.read_text())
        raw["embedding"]["finite_part"] = {"m1": 2, "n1": 2, "m2": 3, "n2": 2}
        bad = tmp_path / "twist.json"
        bad.write_text(json.dumps(raw))
        code = main(["validate", "--config", str(bad)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: {bad}: NotCoprime: n1 must be coprime to m1"
            " (at $.embedding)\n")

    def test_seed_requirement_exit_two(self, tmp_path):
        raw = minimal_lattice()
        del raw["seed"]
        p = tmp_path / "noseed.json"
        p.write_text(json.dumps(raw))
        assert main(["additivity", "--config", str(p)]) == 2

    @pytest.mark.parametrize("kind, suite, code", [
        ("lattice", "inner-product", 2),
        ("lattice", "commutation", 0),
        ("lattice", "quantum-theta", 0),
        ("vector", "holomorphy", 0),
    ])
    def test_seed_rule_follows_the_draws(self, kind, suite, code, request, tmp_path,
                                         capsys):
        # a suite needs a seed exactly when it draws from its random stream
        raw = json.loads(request.getfixturevalue(f"{kind}_config_path").read_text())
        del raw["seed"], raw["output"]
        p = tmp_path / "noseed.json"
        p.write_text(json.dumps(raw))
        assert main([suite, "--config", str(p)]) == code
        err = capsys.readouterr().err
        assert err == ("" if code == 0 else
                       f"config error: suite '{suite}' draws random samples;"
                       " a seed is mandatory (at $.seed)\n")

    def test_suite_on_the_wrong_kind_exit_two(self, vector_config_path, capsys):
        code = main(["nogo", "--config", str(vector_config_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: the nogo suite needs a lattice-kind config"
            " (at $.embedding.kind)\n")

    def test_check_failure_exit_one(self, tmp_path):
        # an invalid embedding kept alive by --allow-invalid fails validation
        raw = minimal_lattice()
        raw["embedding"]["delta_hat"] = [[0.1, 0.7], [0.3, 0.0]]
        p = tmp_path / "invalid.json"
        p.write_text(json.dumps(raw))
        code = main(["validate", "--config", str(p), "--allow-invalid",
                     "--output", str(tmp_path / "r.json")])
        assert code == 1

    def test_flag_overrides(self, lattice_config_path, tmp_path):
        out = tmp_path / "rep.json"
        code = main(["quantum-theta", "--config", str(lattice_config_path),
                     "--radius", "2", "--seed", "7",
                     "--output", str(out), "--format", "json"])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["config"]["radius"] == 2
        assert data["rng"]["seed"] == 7
        coeff = out.with_name("rep.coefficients.json")
        assert coeff.exists()
        assert len(json.loads(coeff.read_text())["coefficients"]) == 625

    @pytest.mark.parametrize("kind, argv, json_path", [
        *[(kind, argv, path) for kind in ("lattice", "vector") for argv, path in [
            (["quantum-theta", "--radius", "0"], "$.radius"),
            (["quantum-theta", "--radius", "-1"], "$.radius"),
            (["consistency", "--radius", "0"], "$.radius"),
            (["validate", "--seed", "-3"], "$.seed"),
            (["oracle-compare", "--tol-oracle", "-1"], "$.tolerances.oracle_rel"),
        ]],
        # lattice only, the faster oracle-compare: the NaN case needs one kind
        ("lattice", ["oracle-compare", "--tol-oracle", "nan"], "$.tolerances.oracle_rel"),
    ])
    def test_flag_overrides_pass_the_schema(self, kind, argv, json_path, request,
                                            tmp_path, capsys):
        # a flag is held to the same schema as the config field it overrides
        config = request.getfixturevalue(f"{kind}_config_path")
        code = main(argv + ["--config", str(config), "--output", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("config error: ")
        assert err.endswith(f"(at {json_path})\n")
        assert not any(tmp_path.iterdir())

    def test_io_error_exit_three(self, lattice_config_path, tmp_path):
        target = tmp_path / "dir_as_file"
        target.mkdir()
        code = main(["commutation", "--config", str(lattice_config_path),
                     "--output", str(target)])
        assert code == 3

    def test_unwritable_table_exits_three(self, lattice_config_path, tmp_path, capsys):
        # the table is written before the report: a table path that is a
        # directory ends the run with no report
        (tmp_path / "r.coefficients.csv").mkdir()
        code = main(["quantum-theta", "--config", str(lattice_config_path), "--radius", "2",
                     "--format", "csv", "--output", str(tmp_path / "r.csv")])
        assert code == 3
        assert capsys.readouterr().err.startswith("i/o error:")
        assert not (tmp_path / "r.csv").exists()

    def test_theta_overflow_is_an_errored_check(self, tmp_path, capsys):
        # at radius 6 a theta term of this config's mode factors passes the
        # largest double: the suite gets a named error, not an internal one
        cfg = minimal_lattice(embedding={"kind": "lattice", "theta1": 0.5,
                                         "m": [[2, 1], [1, 1]],
                                         "delta_hat": [[0.25, 0.25], [-0.5, -0.25]]},
                              structure={"tau": [0.3, 0.2]}, radius=6)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "r.json"
        code = main(["quantum-theta", "--config", str(path), "--output", str(out)])
        assert code == 1
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("[FAIL] quantum-theta (errored): DivergentSeries: theta term n = ")
        assert "overflows at tau = " in first and ", z = " in first
        (check,) = json.loads(out.read_text())["checks"]
        assert check["name"] == "quantum-theta (errored)"

    def test_internal_error_exit_four(self, lattice_config_path, monkeypatch, capsys):
        # an exception that escapes the suites is a program defect: one line
        # on stderr, no traceback, and a code apart from "a check failed"
        def broken(cfg, suite):
            raise OverflowError("math range error")

        monkeypatch.setattr("nctheta.cli.run_suite", broken)
        code = main(["quantum-theta", "--config", str(lattice_config_path)])
        assert code == EXIT_INTERNAL_ERROR == 4
        err = capsys.readouterr().err
        assert err == "internal error: OverflowError: math range error\n"

    def test_errored_check_prints_its_error(self, lattice_config_path, monkeypatch,
                                            tmp_path, capsys):
        import nctheta.report as report_mod

        def broken(ctx):
            raise TruncationTooSmall("translation index beyond radius/2")

        monkeypatch.setitem(report_mod._SUITE_FUNCS, "commutation", broken)
        out = tmp_path / "r.json"
        code = main(["commutation", "--config", str(lattice_config_path),
                     "--output", str(out)])
        assert code == 1
        assert capsys.readouterr().out.splitlines()[0] == (
            "[FAIL] commutation (errored): TruncationTooSmall:"
            " translation index beyond radius/2")
        # the report itself is as before: an infinite residual, the error in metadata
        (check,) = json.loads(out.read_text())["checks"]
        assert check == {
            "name": "commutation (errored)", "max_residual": "inf",
            "tolerance": 0.0, "passed": False, "elements": [["error", "inf"]],
            "elements_total": 1,
            "metadata": {"error": "TruncationTooSmall: translation index beyond radius/2"}}

    def test_unreachable_oracle_tolerance_is_an_errored_check(
            self, vector_config_path, tmp_path, cli_env):
        # 1e-17 / 100 is below what doubles resolve, so the quadrature oracle
        # refuses it before building a grid. The address-space limit turns a
        # grid that doubles without bound into a MemoryError (exit 4); one
        # BLAS thread keeps numpy's own reservations far below the limit.
        def limit_address_space():
            _, hard = resource.getrlimit(resource.RLIMIT_AS)
            resource.setrlimit(resource.RLIMIT_AS, (1_500_000 * 1024, hard))

        proc = subprocess.run(
            [sys.executable, "-m", "nctheta", "oracle-compare",
             "--config", str(vector_config_path), "--tol-oracle", "1e-17",
             "--output", "r.json"],
            capture_output=True, text=True, cwd=tmp_path,
            env={**cli_env, "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=limit_address_space)
        assert proc.returncode == 1, proc.stderr + proc.stdout
        first = proc.stdout.splitlines()[0]
        assert first.startswith("[FAIL] oracle-compare (errored): DivergentIntegral: ")
        assert "below double precision" in first
        (check,) = json.loads((tmp_path / "r.json").read_text())["checks"]
        assert check["name"] == "oracle-compare (errored)"
        assert check["metadata"]["error"].startswith("DivergentIntegral: ")

    def test_module_entry_point(self, lattice_config_path, tmp_path, cli_env):
        which = subprocess.run(
            [sys.executable, "-c", "import nctheta; print(nctheta.__file__)"],
            capture_output=True, text=True, cwd=tmp_path, env=cli_env)
        assert which.returncode == 0, which.stderr + which.stdout
        assert (Path(which.stdout.strip()).resolve()
                == Path(nctheta.__file__).resolve())
        out = tmp_path / "rep.json"
        proc = subprocess.run(
            [sys.executable, "-m", "nctheta", "validate",
             "--config", str(lattice_config_path), "--output", str(out)],
            capture_output=True, text=True, cwd=tmp_path, env=cli_env)
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert out.exists()

    def test_runs_without_scipy(self, lattice_config_path, vector_config_path,
                                tmp_path, cli_env):
        # a None entry in sys.modules makes every import of the module fail
        configs = [str(lattice_config_path), str(vector_config_path)]
        script = (
            "import sys\n"
            "sys.modules['scipy'] = sys.modules['jsonschema'] = None\n"
            "from nctheta.cli import main\n"
            f"print([main([suite, '--config', cfg, '--output', 'r.json'])"
            f" for cfg in {configs!r} for suite in ('validate', 'commutation')])\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, cwd=tmp_path, env=cli_env)
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0]", proc.stdout


class TestProcessExit:
    """The CLI freezes the heap at exit, so Python's shutdown collections skip it."""

    @pytest.mark.parametrize("suite, fmt, radius",
                             [("quantum-theta", "csv", 3), ("all", "json", 2)])
    @pytest.mark.parametrize("kind", ["lattice", "vector"])
    def test_fresh_interpreter_outputs_are_complete(self, kind, suite, fmt, radius,
                                                    request, cli_env, tmp_path):
        # what the CLI writes is closed before main returns, not by the last collection
        path = request.getfixturevalue(f"{kind}_config_path")
        proc = subprocess.run(
            [sys.executable, "-m", "nctheta", suite, "--config", str(path),
             "--format", fmt, "--radius", str(radius), "--seed", "42",
             "--output", f"r.{fmt}"],
            capture_output=True, text=True, cwd=tmp_path, env=cli_env)
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert proc.stderr == ""
        cfg = load_config(path)
        emb = cfg.build_embedding()
        series = quantum_theta_series(emb, cfg.build_structure(emb), radius)
        expected = export_coefficients(series, fmt, tmp_path / "expected" / f"t.{fmt}")
        table = (tmp_path / f"r.coefficients.{fmt}").read_bytes()
        assert table == expected.read_bytes()
        if fmt == "json":
            report = json.loads((tmp_path / "r.json").read_text())
            assert report["summary"]["ok"] is True
            assert report["artifacts"]["coefficients"] == {
                "file": "r.coefficients.json", "sha256": hashlib.sha256(table).hexdigest()}

    @pytest.mark.parametrize("module, frozen", [("nctheta.cli", True), ("nctheta", False)])
    def test_only_the_cli_freezes_the_heap_at_exit(self, module, frozen, cli_env, tmp_path):
        # atexit runs callbacks last in, first out: this probe runs after the CLI's hook
        script = textwrap.dedent(f"""
            import atexit, gc
            atexit.register(lambda: print(gc.get_freeze_count()))
            import {module}
        """)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, cwd=tmp_path, env=cli_env)
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert (int(proc.stdout) > 0) is frozen

    @pytest.mark.parametrize("collecting", [True, False])
    def test_main_leaves_the_collector_as_it_was(self, lattice_config_path, tmp_path,
                                                 collecting):
        was = gc.isenabled()
        try:
            (gc.enable if collecting else gc.disable)()
            code = main(["validate", "--config", str(lattice_config_path),
                         "--output", str(tmp_path / "r.json")])
            assert code == 0
            assert gc.isenabled() is collecting
            assert gc.get_freeze_count() == 0
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("suite, fmt", [("all", "json"), ("quantum-theta", "csv")])
    def test_every_file_is_closed_before_main_returns(self, suite, fmt, lattice_config_path,
                                                      tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            code = main([suite, "--config", str(lattice_config_path), "--radius", "2",
                         "--format", fmt, "--output", str(tmp_path / f"r.{fmt}")])
            gc.collect()
        assert code == 0
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    @pytest.mark.parametrize("target", ["closed pipe", "/dev/full"])
    def test_stdout_error_exits_three(self, target, lattice_config_path, cli_env, tmp_path):
        # one line on stderr, no traceback and no "Exception ignored" from the
        # flush at shutdown; the report is written all the same
        if target == "closed pipe":
            read_end, stdout = os.pipe()
            os.close(read_end)
            message = "[Errno 32] Broken pipe"
        else:
            if not os.path.exists(target):
                pytest.skip("no /dev/full on this platform")
            stdout = os.open(target, os.O_WRONLY)
            message = "[Errno 28] No space left on device"
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "nctheta", "validate", "--config",
                 str(lattice_config_path), "--output", "r.json"],
                stdout=stdout, stderr=subprocess.PIPE, text=True, cwd=tmp_path, env=cli_env)
        finally:
            os.close(stdout)
        assert proc.returncode == 3
        assert proc.stderr == f"i/o error: {message}\n"
        assert json.loads((tmp_path / "r.json").read_text())["summary"]["ok"] is True

    def test_stderr_error_keeps_the_exit_code(self, cli_env, tmp_path):
        # a config error whose message cannot be written is still a config error
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this platform")
        stderr = os.open("/dev/full", os.O_WRONLY)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "nctheta", "validate", "--config", "missing.json"],
                stdout=subprocess.PIPE, stderr=stderr, cwd=tmp_path, env=cli_env)
        finally:
            os.close(stderr)
        assert proc.returncode == 2
        assert proc.stdout == b""
