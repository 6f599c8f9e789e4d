"""Bit-exact export and reload of quantum theta series coefficients.

Two formats, rows in the canonical enumeration order. The CSV table has a
fixed header and 17-significant-digit decimals, with each index's ambient
coordinates beside its coefficient. The JSON table holds what fixes the
series: the embedding and structure parameters, the radius and the
normalization, and per row only the index and the coefficient, so a series
can be reloaded and re-exported byte-identically; the ambient coordinates
of an index k are ``point_parts(embedding, k)``.
"""

from __future__ import annotations

import gc
import json
import math
import re
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .embedding import EmbeddingKind, build_embedding, enumerate_indices, point_parts
from .errors import NCThetaError
from .qtheta import REASSEMBLY_REL_TOL, QuantumThetaSeries, _label, _reassembly_failure
from .special import HermitianFormContext
from .structures import structure_from_tau

CSV_HEADER = "k1,k2,k3,k4,w1,w2,m1,m2,t1,t2,re,im"
# Rows are built and formatted this many at a time, which bounds the memory held.
CHUNK_ROWS = 4096

# One row per format, filled from the block columns (k1..k4, w1, w2, m1, m2,
# t1, t2, re, im) in the order given next to it. A JSON row is laid out by
# json.dumps itself, at the depth of a row in the payload; floats print as
# their repr there too.
_CSV_ROW = ("%d,%d,%d,%d," + ",".join(["%.17g"] * 8) + "\n", range(12))
_JSON_ROW = ("\n".join("    " + line for line in json.dumps(
    {"im": "%r", "k": ["%d"] * 4, "re": "%r"},
    indent=2, sort_keys=True).replace('"%r"', "%r").replace('"%d"', "%d").splitlines()),
    [11, 0, 1, 2, 3, 10])
# One conversion of a row template: %d, %r or a %g with its precision.
_CONVERSION = re.compile(r"%[.0-9]*[dgr]")


def _table_cells(series: QuantumThetaSeries):
    """Source and values of each table column (k1..k4, w1, w2, m1, m2, t1, t2,
    re, im), and the codes of the rows.

    A source numbers the code array that gathers the values per row, or is
    None for a constant. Sources 0 and 1 are the index planes, whose points
    the values run over; 2 and 3 are the distinct bit patterns of re and
    im over the whole table (-0.0 and 0.0 stay apart), so each value is
    formatted once per table. Lattice kind: (w1, w2, m1, m2, t1, t2) with
    unreduced torus lifts. Vector-space kind: the M part fills (w1, w2), the
    dual part (t1, t2), and the integer slots are zero.
    """
    planes = series.index_planes
    index = [(p, planes.points[p][:, j]) for p in range(2) for j in (2 * p, 2 * p + 1)]
    # each plane's points through the map, one column per row of entries
    ambient = [np.concatenate(point_parts(series.embedding, points), axis=-1)
               for points in planes.points]
    # the row of entries behind each of (w1, w2, m1, m2, t1, t2)
    lattice = series.kind is EmbeddingKind.LATTICE
    slots = [0, 3, 1, 2, 4, 5] if lattice else [0, 1, None, None, 2, 3]
    reads = planes.reads
    cells = [(None, 0.0) if i is None else (reads[i], ambient[reads[i]][:, i]) for i in slots]
    codes = list(planes.codes)
    for column in (series.values.real, series.values.imag):
        bits, inverse = np.unique(column.view(np.uint64), return_inverse=True)
        cells.append((len(codes), bits.view(np.float64)))
        codes.append(inverse)
    return index + cells, codes


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
    cells, codes = _table_cells(series)
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


def _first_gap(ks: np.ndarray) -> str:
    """The first fault of (N, 4) index rows within a radius whose (2r+1)^4
    indices they are too few to fill: "<k> is repeated" for the first
    repeated index in the canonical order, else "<k> is missing" for the
    first missing one.

    The rows are sorted into the canonical order, so the work is bounded by
    their count and not by the radius. Without repeats, the first missing
    index lies in the first shell the rows cannot fill, whose enumeration is
    a prefix of the radius's: it is the first place the sorted rows leave.
    """
    order = np.lexsort((*ks.T[::-1], np.abs(ks).max(axis=1, initial=0)))
    rows = ks[order]
    same = np.all(rows[1:] == rows[:-1], axis=1)
    if same.any():
        return f"{_label(rows[np.argmax(same)])} is repeated"
    shell = 0
    while (2 * shell + 1) ** 4 <= len(rows):
        shell += 1
    head = enumerate_indices(shell)
    left = np.any(rows != head[:len(rows)], axis=1)
    return f"{_label(head[np.argmax(left) if left.any() else len(rows)])} is missing"


def load_series(path) -> QuantumThetaSeries:
    """Reload a JSON coefficient export; values are taken as stored.

    The table must hold exactly one row for every index with sup norm
    <= radius, each with an index of four integers and finite floats re
    and im, and its coefficients must reproduce the closed-form inner
    product at sup norm <= 2, as a computed series does; its header must
    define a valid embedding and structure, of the kind it names, and the
    normalization of that structure; otherwise ValueError, naming the
    path. Other row entries, such as the ``ambient`` coordinates of
    earlier tables, are ignored.
    """
    text = Path(path).read_text()
    # The decoder builds a dict and a list per row, none of them in a
    # cycle; the cyclic collector's passes over them take about a third of
    # the decoding time of a radius-8 table, so it is paused meanwhile.
    collecting = gc.isenabled()
    gc.disable()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: not a JSON table ({err})") from None
    finally:
        if collecting:
            gc.enable()
    try:
        e, st = data["embedding"], data["structure"]
        kind, theta1, tau = e["kind"], e["theta1"], st["tau"]
        radius, normalization, rows = data["radius"], data["normalization"], data["coefficients"]
        table_kind = data["kind"]
        ks = list(map(itemgetter("k"), rows))
        re_im = list(chain(map(itemgetter("re"), rows), map(itemgetter("im"), rows)))
    except KeyError as err:
        raise ValueError(f"{path}: the table or one of its rows has no {err} entry") from None
    except TypeError:
        raise ValueError(f"{path}: not laid out as a coefficient table") from None
    if type(radius) is not int or radius < 1:
        raise ValueError(f"{path}: the radius must be a positive integer")
    try:
        # a float or bool entry is refused, not truncated to an integer
        if not (set(map(len, ks)) <= {4}
                and set(map(type, chain.from_iterable(ks))) <= {int}):
            raise TypeError
        ks = np.fromiter(chain.from_iterable(ks), np.int64, 4 * len(ks)).reshape(-1, 4)
    except (TypeError, OverflowError):
        raise ValueError(f"{path}: every row needs an index of four integers") from None
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
    # as unsigned, so that the magnitude of -2^63 does not wrap negative
    outside = np.abs(ks).view(np.uint64).max(axis=1, initial=0) > radius
    if np.any(outside):
        raise ValueError(f"{path}: the row for index {_label(ks[np.argmax(outside)])}"
                         f" lies outside radius {radius}")
    if (2 * radius + 1) ** 4 > len(ks):
        raise ValueError(f"{path}: the row for index {_first_gap(ks)}")
    indices = enumerate_indices(radius)
    values = np.empty(len(indices), dtype=complex)
    series = QuantumThetaSeries(emb, structure, radius, normalization, indices, values)
    at = series._row_table[tuple((ks + radius).T)]
    counts = np.bincount(at, minlength=len(indices))
    if np.any(counts != 1):
        # no fewer rows than indices, so a row is repeated wherever one is missing
        k = indices[np.argmax(counts > 1)]
        raise ValueError(f"{path}: the row for index {_label(k)} is repeated")
    # re, then im, of every row; an entry that is not a float reads as NaN
    if not set(map(type, re_im)) <= {float}:
        re_im = [v if type(v) is float else np.nan for v in re_im]
    coeffs = np.fromiter(re_im, float, len(re_im)).reshape(2, -1)
    bad = ~np.isfinite(coeffs).all(axis=0)
    if np.any(bad):
        raise ValueError(f"{path}: the coefficient at {_label(ks[np.argmax(bad)])}"
                         " is not a pair of finite floats")
    values.real[at], values.imag[at] = coeffs
    bad = _reassembly_failure(series)
    if bad is not None:
        raise ValueError(f"{path}: stored coefficient at {bad} does not"
                         " reassemble the inner product")
    return series
