"""Bit-exact export and reload of quantum theta series coefficients.

Two formats, rows in the canonical enumeration order. The CSV table has a
fixed header and 17-significant-digit decimals, with each index and its
ambient coordinates beside its coefficient. The JSON table holds what fixes
the series: the embedding and structure parameters, the radius and the
normalization, and per row only the coefficient as an ``[re, im]`` pair;
row i belongs to ``enumerate_indices(radius)[i]``, so a series can be
reloaded and re-exported byte-identically. The ambient coordinates of an
index k are ``point_parts(embedding, k)``.
"""

from __future__ import annotations

import gc
import json
import math
import re
from itertools import chain
from pathlib import Path

import numpy as np

from .embedding import (
    EmbeddingKind,
    build_embedding,
    enumerate_indices,
    index_planes,
    point_parts,
)
from .errors import NCThetaError
from .qtheta import REASSEMBLY_REL_TOL, QuantumThetaSeries, _label, _reassembly_failure
from .special import HermitianFormContext
from .structures import structure_from_tau

CSV_HEADER = "k1,k2,k3,k4,w1,w2,m1,m2,t1,t2,re,im"
# Rows are built and formatted this many at a time, which bounds the memory held.
CHUNK_ROWS = 4096

# One row per format, filled from the block columns (k1..k4, w1, w2, m1, m2,
# t1, t2, re, im) in the order given next to it. A JSON row is one line at
# the depth of a row in the payload; json.dumps prints floats as their repr.
_CSV_ROW = ("%d,%d,%d,%d," + ",".join(["%.17g"] * 8) + "\n", range(12))
_JSON_ROW = ("    [%r, %r]", [10, 11])
# One conversion of a row template: %d, %r or a %g with its precision.
_CONVERSION = re.compile(r"%[.0-9]*[dgr]")


def _table_cells(series: QuantumThetaSeries, columns):
    """Source and values of each table column (k1..k4, w1, w2, m1, m2, t1,
    t2, re, im) that ``columns`` read, None for the others, and the codes
    of the rows.

    A source numbers the code array that gathers the values per row, or is
    None for a constant. When a column before re is read, sources 0 and 1
    are the index planes (:func:`index_planes`), whose points the values
    run over; the distinct bit patterns of re and im over the whole table
    (-0.0 and 0.0 stay apart) come next, so each value is formatted once
    per table. Lattice kind: (w1, w2, m1, m2, t1, t2) with unreduced torus
    lifts. Vector-space kind: the M part fills (w1, w2), the dual part
    (t1, t2), and the integer slots are zero.
    """
    cells, codes = [None] * 10, []
    if min(columns) < 10:
        points, codes, reads = index_planes(series.embedding, series.indices, series.radius)
        index = [(p, points[p][:, j]) for p in range(2) for j in (2 * p, 2 * p + 1)]
        # each plane's points through the map, one column per row of entries
        ambient = [np.concatenate(point_parts(series.embedding, plane), axis=-1)
                   for plane in points]
        # the row of entries behind each of (w1, w2, m1, m2, t1, t2)
        lattice = series.kind is EmbeddingKind.LATTICE
        slots = [0, 3, 1, 2, 4, 5] if lattice else [0, 1, None, None, 2, 3]
        cells = index + [(None, 0.0) if i is None else (reads[i], ambient[reads[i]][:, i])
                         for i in slots]
        codes = list(codes)
    for column in (series.values.real, series.values.imag):
        bits, inverse = np.unique(column.view(np.uint64), return_inverse=True)
        cells.append((len(codes), bits.view(np.float64)))
        codes.append(inverse)
    return cells, codes


def _joined(last, new):
    """Two adjacent row-template parts as one, or None when they stay apart.

    A part is (None, literal text) or (source, one text per code of the
    source; see :func:`_table_cells`). Literals join each other and sourced
    parts; two parts of one source join code by code.
    """
    (a, x), (b, y) = last, new
    if None not in (a, b) and a != b:
        return None
    return (b if a is None else a), x + y


def _row_parts(row, cells) -> list:
    """The row template as parts (see :func:`_joined`): each sourced cell
    formatted once per code of its source, constants once, and each run of
    adjacent slots that read one source joined into one part."""
    template, columns = row
    pieces = _CONVERSION.split(template)
    parts = [(None, pieces[0])]
    for spec, col, piece in zip(_CONVERSION.findall(template), columns, pieces[1:]):
        source, values = cells[col]
        if source is None:
            cell = (None, spec % values)
        else:
            cell = (source, np.array([spec % v for v in values.tolist()], dtype=object))
        for new in (cell, (None, piece)):
            both = _joined(parts[-1], new)
            if both is None:
                parts.append(new)
            else:
                parts[-1] = both
    return parts


def _write_table(fh, row, separator: str, series: QuantumThetaSeries) -> None:
    """Write the table through a (template, columns) row format, with the
    separator between rows.

    Rows go in blocks of CHUNK_ROWS, each as one str.join over the parts of
    :func:`_row_parts`, whose texts are gathered by the rows' codes. Every
    row starts with the separator, a literal of its template, which the
    table's first row drops.
    """
    template, columns = row
    cells, codes = _table_cells(series, columns)
    parts = _row_parts((separator + template, columns), cells)
    for lo in range(0, len(series.indices), CHUNK_ROWS):
        rows = slice(lo, lo + CHUNK_ROWS)
        text = np.empty((len(codes[0][rows]), len(parts)), dtype=object)
        for j, (source, payload) in enumerate(parts):
            text[:, j] = payload if source is None else payload[codes[source][rows]]
        block = "".join(text.ravel().tolist())
        fh.write(block if lo else block[len(separator):])


def export_coefficients(series: QuantumThetaSeries, fmt: str, path) -> Path:
    """Write the coefficient table; returns the path written."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown export format: {fmt}")
    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        with path.open("w", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            _write_table(fh, _CSV_ROW, "", series)
        return path
    emb = series.embedding
    emb_params = {"kind": emb.kind.value, "theta1": emb.theta1}
    if emb.kind is EmbeddingKind.LATTICE:
        emb_params["m"] = emb.m.tolist()
        emb_params["delta_hat"] = emb.delta_hat.tolist()
    else:
        emb_params["theta2"] = emb.theta2

    st = series.structure
    t = st.tau()
    # tau as [re, im] pairs: a 2x2 matrix of them on the plane, the one pair on R x Z^2
    pairs = np.stack([t.real, t.imag], axis=-1).tolist()
    st_params = ({"tau": pairs} if st.lattice_decay is None
                 else {"tau": pairs[0][0], "lattice_decay": st.lattice_decay})
    payload = {
        "kind": emb.kind.value,
        "embedding": emb_params,
        "structure": st_params,
        "radius": series.radius,
        "normalization": series.normalization,
        "coefficients": [],
    }
    head, tail = json.dumps(payload, indent=2, sort_keys=True).split(
        '"coefficients": []', 1)
    with path.open("w", newline="\n") as fh:
        fh.write(head + '"coefficients": [\n')
        _write_table(fh, _JSON_ROW, ",\n", series)
        fh.write("\n  ]" + tail + "\n")
    return path


# The writer's frame around the rows: the header's "coefficients" entry, a
# key of the top-level object, opens before the first row and closes after
# the last; the header alone holds it empty.
_ROWS_OPEN, _ROWS_CLOSE, _NO_ROWS = '"coefficients": [\n', "\n  ]", '"coefficients": []'


def _decoded(text: str):
    """``json.loads(text)``, with the cyclic collector paused: the decoder
    builds a list per row, none of them in a cycle, and the collector's
    passes over them would take about a quarter of the decoding time of a
    radius-8 table."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text)
    finally:
        if collecting:
            gc.enable()


def _pair_values(rows: list):
    """The rows as complex values re + i im, and whether each row is a list
    of two floats; a row that is not reads as NaN."""
    pairs = set(map(type, rows)) == {list} and set(map(len, rows)) == {2}
    flat = list(chain.from_iterable(rows)) if pairs else []
    floats = pairs and set(map(type, flat)) == {float}
    if not floats:
        flat = list(chain.from_iterable(
            row if type(row) is list and len(row) == 2 and set(map(type, row)) <= {float}
            else (math.nan, math.nan) for row in rows))
    return np.fromiter(flat, float, 2 * len(rows)).view(complex), floats


def _distinct_rows(text: str):
    """A table laid out as :func:`export_coefficients` writes it, parsed once
    per distinct row: the header, whose "coefficients" entry is left empty,
    and the value re + i im of each row. None for any other text, and for a
    table of which more than half the rows are distinct, where parsing the
    distinct rows alone would save little of the decode.

    The layout: the text is ``json.dumps(header, indent=2, sort_keys=True)``
    of its header, with the top-level ``"coefficients": []`` opened into
    the rows, one per line and ",\n" between them, and a newline at the
    end. C(-k) = conj C(k) and C is stored real, so row -k repeats row k: a
    table written from a series passes the one-half line.

    Why the rows read as in ``json.loads(text)``: the k distinct row texts
    r_1..r_k are decoded at once as ``[[r_1],[r_2],...,[r_k]]`` and taken
    only as k one-item lists, each holding a list of two floats. With no
    string in that value, every "]", "," and "[" of the text is structural,
    so each of the k - 1 inserted "],[" is a comma between two elements of
    an array whose elements are arrays. Only the outer array is one: a
    one-item list has no comma, and a pair holds floats. The outer array's
    k elements have exactly k - 1 commas between them, so these are the
    inserted ones: element i is "[" + r_i + "]", and r_i is one JSON value,
    which reads the same wherever it stands. So the block of rows, a
    ",\n"-separated list of the r_i, reads as the list of their values,
    which is the header's entry in ``json.loads(text)``.
    """
    start = text.find(_ROWS_OPEN)
    end = text.rfind(_ROWS_CLOSE, start + len(_ROWS_OPEN)) if start >= 0 else -1
    if end < 0:
        return None
    head, tail = text[:start], text[end + len(_ROWS_CLOSE):]
    # indented by two, the entry is a key of the top-level object
    if not head.endswith("\n  ") or not tail.endswith("\n"):
        return None
    try:
        header = json.loads(head + _NO_ROWS + tail)
        if json.dumps(header, indent=2, sort_keys=True).split(_NO_ROWS, 1) != [head, tail[:-1]]:
            return None
    except (ValueError, RecursionError):
        return None
    rows = text[start + len(_ROWS_OPEN):end].split(",\n")
    distinct = dict.fromkeys(rows)
    if 2 * len(distinct) > len(rows):
        return None
    number = dict(zip(distinct, range(len(distinct))))
    try:
        parsed = _decoded("[[" + "],[".join(distinct) + "]]")
        # a number, or an element of another length, raises; a one-key
        # object or a one-character string leaves a string, which fails below
        pairs = [row for (row,) in parsed]
    except (ValueError, TypeError, RecursionError):
        return None
    values, floats = _pair_values(pairs)
    if len(pairs) != len(distinct) or not floats:
        return None
    return header, values[np.fromiter(map(number.__getitem__, rows), np.intp, len(rows))]


def load_series(path) -> QuantumThetaSeries:
    """Reload a JSON coefficient export; values are taken as stored.

    The table must hold one row per index with sup norm <= radius, row i
    the coefficient at ``enumerate_indices(radius)[i]`` as a list of two
    finite floats [re, im], and its coefficients must reproduce the
    closed-form inner product at sup norm <= 2, as a computed series does;
    its header must define a valid embedding and structure, of the kind it
    names, and the normalization of that structure; otherwise ValueError,
    naming the path, also for a file that is not UTF-8 text. The row count
    is checked before any index is enumerated, so the work is bounded by
    the table's size whatever radius it names. Rows that are objects, the
    layout of earlier tables, are refused.

    A table in the writer's layout is parsed once per distinct row
    (:func:`_distinct_rows`), any other text whole by ``json.loads``; both
    give the same values, or the same error, which names the first row
    that fails.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not a JSON table ({err})") from None
    table = _distinct_rows(text)
    if table is None:
        try:
            data = _decoded(text)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: not a JSON table ({err})") from None
        values = None
    else:
        data, values = table
    try:
        e, st = data["embedding"], data["structure"]
        kind, theta1, tau = e["kind"], e["theta1"], st["tau"]
        radius, normalization, rows = data["radius"], data["normalization"], data["coefficients"]
        table_kind = data["kind"]
        if type(rows) is not list:
            raise TypeError
    except KeyError as err:
        raise ValueError(f"{path}: the table has no {err} entry") from None
    except TypeError:
        raise ValueError(f"{path}: not laid out as a coefficient table") from None
    if type(radius) is not int or radius < 1:
        raise ValueError(f"{path}: the radius must be a positive integer")
    count = (2 * radius + 1) ** 4
    size = len(rows) if values is None else len(values)
    if size != count:
        raise ValueError(f"{path}: the table holds {size} rows, not the {count}"
                         f" indices of radius {radius}")
    indices = enumerate_indices(radius)
    if values is None:
        values, floats = _pair_values(rows)
        if not floats and dict in set(map(type, rows)):
            first = next(i for i, row in enumerate(rows) if type(row) is dict)
            raise ValueError(
                f"{path}: the row for index {_label(indices[first])} is an object, the"
                " layout of earlier tables; a row is now [re, im], in the order of"
                " enumerate_indices(radius). The header's embedding, structure and"
                " radius make the config from which `nctheta quantum-theta` writes"
                " the table anew")
    bad = ~np.isfinite(values)
    if np.any(bad):
        raise ValueError(f"{path}: the coefficient at {_label(indices[np.argmax(bad)])}"
                         " is not a pair of finite floats")
    if type(normalization) is not float or not math.isfinite(normalization):
        raise ValueError(f"{path}: the normalization must be a finite float")
    try:
        emb = build_embedding(EmbeddingKind(kind), theta1, e.get("theta2"),
                              m=e.get("m"), delta_hat=e.get("delta_hat"))
        structure = structure_from_tau(emb, tau, st.get("lattice_decay"))
    except (ValueError, TypeError, NCThetaError) as err:
        raise ValueError(f"{path}: the embedding or structure is not valid"
                         f" ({type(err).__name__}: {err})") from None
    if table_kind != emb.kind.value:
        raise ValueError(f"{path}: the table's kind {table_kind!r} is not its"
                         f" embedding's {emb.kind.value!r}")
    # the coefficients are taken as stored, but their scale is not: a table
    # whose normalization and coefficients are rescaled together would
    # otherwise pass the reassembly check
    expected = HermitianFormContext(structure.T).normalization()
    if not abs(normalization - expected) <= REASSEMBLY_REL_TOL * abs(expected):
        raise ValueError(f"{path}: the normalization {normalization!r} is not"
                         f" the structure's {expected!r}")
    series = QuantumThetaSeries(emb, structure, radius, normalization, indices, values)
    bad = _reassembly_failure(series)
    if bad is not None:
        raise ValueError(f"{path}: stored coefficient at {bad} does not"
                         " reassemble the inner product")
    return series
