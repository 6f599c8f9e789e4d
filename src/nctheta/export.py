"""Bit-exact export and reload of quantum theta series coefficients.

Two formats, rows in the grid order of :class:`QuantumThetaSeries` (the
last index fastest, :func:`enumerate_indices`). The CSV table has a fixed
header and 17-significant-digit decimals, with each index and its ambient
coordinates beside its coefficient. The JSON table holds what fixes the series: the
embedding and structure parameters, the radius and the normalization, each
distinct coefficient once as an ``[re, im]`` pair in ``values``, and per
index one code into ``values`` in ``coefficients``, in grid order, so a
series can be reloaded and re-exported byte-identically. The ambient
coordinates of an index k are ``point_parts(embedding, k)``.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from .embedding import (
    EmbeddingKind,
    build_embedding,
    enumerate_indices,
    index_planes,
    point_parts,
    slab_blocks,
)
from .errors import NCThetaError
from .qtheta import (
    REASSEMBLY_REL_TOL,
    QuantumThetaSeries,
    _label,
    _reassembly_failure,
)
from .special import HermitianFormContext
from .structures import structure_from_tau

CSV_HEADER = "k1,k2,k3,k4,w1,w2,m1,m2,t1,t2,re,im"

# One CSV row, filled from the columns k1..k4, w1, w2, m1, m2, t1, t2, re, im.
_CSV_ROW = "%d,%d,%d,%d," + ",".join(["%.17g"] * 8) + "\n"
# One conversion of the row template: %d or a %g with its precision.
_CONVERSION = re.compile(r"%[.0-9]*[dg]")


def _ascending(bits) -> np.ndarray:
    """The distinct values of an integer array in ascending order, by a sort
    (np.unique finds them by hashing, several times slower here)."""
    bits = np.sort(bits)
    return bits[np.concatenate(([True], bits[1:] != bits[:-1]))]


def _distinct(bits, blocks) -> np.ndarray:
    """The distinct uint64 bit patterns of a float column, in ascending order
    (-0.0 and 0.0 stay apart): those of each block (:func:`slab_blocks`),
    then those of their union."""
    return _ascending(np.concatenate([_ascending(bits[rows]) for rows, _ in blocks]))


def _table_cells(series: QuantumThetaSeries, points, reads, distinct):
    """Source and values of each CSV column (k1..k4, w1, w2, m1, m2, t1,
    t2, re, im).

    A source numbers the codes that gather the values per row (see
    :func:`_write_table`), or is None for a constant. Sources 0 and 1 are
    the index planes, whose ``points`` the values run over, with ``reads``
    (:func:`index_planes`); sources 2 and 3 the ``distinct`` bit patterns of
    re and im (:func:`_distinct`), so each value is formatted once per
    table. Lattice kind: (w1, w2, m1, m2, t1, t2) with unreduced torus
    lifts. Vector-space kind: the M part fills (w1, w2), the dual part (t1,
    t2), and the integer slots are zero.
    """
    index = [(p, points[p][:, j]) for p in range(2) for j in (2 * p, 2 * p + 1)]
    # each plane's points through the map, one column per row of entries
    ambient = [np.concatenate(point_parts(series.embedding, plane), axis=-1)
               for plane in points]
    # the row of entries behind each of (w1, w2, m1, m2, t1, t2)
    lattice = series.kind is EmbeddingKind.LATTICE
    slots = [0, 3, 1, 2, 4, 5] if lattice else [0, 1, None, None, 2, 3]
    cells = index + [(None, np.zeros(1)) if i is None else (reads[i], ambient[reads[i]][:, i])
                     for i in slots]
    return cells + [(2 + j, bits.view(np.float64)) for j, bits in enumerate(distinct)]


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


def _row_parts(cells) -> list:
    """The CSV row template as parts (see :func:`_joined`): each cell
    formatted once per value, a cell of one text (a constant, or a column
    such as im that holds one value) as literal text, and each run of
    adjacent slots that read one source joined into one part."""
    pieces = _CONVERSION.split(_CSV_ROW)
    parts = [(None, pieces[0])]
    for spec, (source, values), piece in zip(_CONVERSION.findall(_CSV_ROW), cells, pieces[1:]):
        texts = [spec % v for v in values.tolist()]
        cell = ((None, texts[0]) if len(set(texts)) == 1
                else (source, np.array(texts, dtype=object)))
        for new in (cell, (None, piece)):
            both = _joined(parts[-1], new)
            if both is None:
                parts.append(new)
            else:
                parts[-1] = both
    return parts


def _write_table(fh, series: QuantumThetaSeries) -> None:
    """Write the CSV rows of the table to the binary file ``fh``, as ASCII
    bytes, one slab at a time.

    Rows are placed a block of :func:`slab_blocks` at a time in a piece list
    kept for the table, a (slabs, (2r+1)^2, parts) object array of the parts
    of :func:`_row_parts`: the literals and the texts of the second index
    plane (source 1) once, those of the first (source 0) once per slab, and
    those of re and im per block, at each row's bit pattern among the
    distinct ones (np.searchsorted, sources 2 and 3). Beyond the table it
    holds the distinct patterns, one block of pieces and one slab's text,
    a str.join small enough for the allocator to reuse its memory.
    """
    bits = [column.view(np.uint64) for column in (series.values.real, series.values.imag)]
    blocks = slab_blocks(series.radius)
    distinct = [_distinct(column, blocks) for column in bits]
    points, reads = index_planes(series.embedding, series.radius)
    parts = _row_parts(_table_cells(series, points, reads, distinct))
    plane = len(points[0])
    pieces = np.empty((blocks[0][1].stop, plane, len(parts)), dtype=object)
    for j, (source, payload) in enumerate(parts):
        if source in (None, 1):
            pieces[:, :, j] = payload
    for rows, slabs in blocks:
        text = pieces[:slabs.stop - slabs.start]
        for j, (source, payload) in enumerate(parts):
            if source == 0:
                text[:, :, j] = payload[slabs, None]
            elif source in (2, 3):
                codes = np.searchsorted(distinct[source - 2], bits[source - 2][rows])
                text[:, :, j] = payload[codes].reshape(len(text), plane)
        for slab in text:
            fh.write("".join(slab.ravel().tolist()).encode("ascii"))


def _values_and_codes(series: QuantumThetaSeries):
    """The JSON table's ``values`` text, one ``[re, im]`` per line in
    ascending order of the (re, im) bit patterns, and its ``coefficients``
    text, one code into ``values`` per index on one line.

    json.dumps prints a float as its repr, and both depend only on the
    values, so a reloaded table re-exports byte for byte.
    """
    # the bit patterns of each column, as in :func:`_distinct`, and every row's code
    (re_bits, re_codes), (im_bits, im_codes) = (
        np.unique(column.view(np.uint64), return_inverse=True)
        for column in (series.values.real, series.values.imag))
    pairs, codes = np.unique(re_codes * len(im_bits) + im_codes, return_inverse=True)
    re_text = np.array([repr(v) for v in re_bits.view(np.float64).tolist()], dtype=object)
    im_text = np.array([repr(v) for v in im_bits.view(np.float64).tolist()], dtype=object)
    re_code, im_code = np.divmod(pairs, len(im_bits))
    rows = "    [" + re_text[re_code] + ", " + im_text[im_code] + "]"
    code_text = np.array([str(i) for i in range(len(pairs))], dtype=object)
    return ",\n".join(rows.tolist()), ", ".join(code_text[codes].tolist())


def export_coefficients(series: QuantumThetaSeries, fmt: str, path, *, digest=None) -> Path:
    """Write the coefficient table, and a JSON table's bytes to ``digest`` if
    given; returns the path. A CSV table is not hashed: a digest with
    ``fmt="csv"`` is refused before any file is made."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown export format: {fmt}")
    if fmt == "csv" and digest is not None:
        raise ValueError("only a JSON table is hashed as it is written")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        with path.open("wb") as fh:
            fh.write((CSV_HEADER + "\n").encode("ascii"))
            _write_table(fh, series)
        return path
    emb = series.embedding
    emb_params = {"kind": emb.kind.value, "theta1": emb.theta1}
    if emb.kind is EmbeddingKind.LATTICE:
        emb_params["m"] = emb.m.tolist()
        emb_params["delta_hat"] = emb.delta_hat.tolist()
    else:
        emb_params["theta2"] = emb.theta2

    st = series.structure
    t = st.tau_matrix
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
        "values": [],
    }
    values, codes = _values_and_codes(series)
    text = json.dumps(payload, indent=2, sort_keys=True)
    text = text.replace('"coefficients": []', f'"coefficients": [{codes}]', 1)
    text = text.replace('"values": []', f'"values": [\n{values}\n  ]', 1)
    data = (text + "\n").encode("ascii")
    if digest is not None:
        digest.update(data)
    path.write_bytes(data)
    return path


def load_series(path) -> QuantumThetaSeries:
    """Reload a JSON coefficient export; values are taken as stored.

    The table must hold in ``coefficients`` one code per index with sup
    norm <= radius, in grid order, each an integer position in ``values``,
    whose entries are lists of two finite floats [re, im]; its coefficients
    must reproduce the closed-form inner product at sup norm <= 2, as a
    computed series does; its header must define a valid embedding and
    structure, of the kind it names, and the normalization of that
    structure. Otherwise ValueError, naming the path, also for a file that
    is not UTF-8 text or JSON. The row count is checked first, so the work
    is bounded by the table's size whatever radius it names, and a message
    that names an index decodes that row alone.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as err:
        # RecursionError: nesting deeper than the decoder's recursion limit
        raise ValueError(f"{path}: not a JSON table ({err})") from None
    try:
        e, st = data["embedding"], data["structure"]
        kind, theta1, tau = e["kind"], e["theta1"], st["tau"]
        radius, normalization, rows = data["radius"], data["normalization"], data["coefficients"]
        table_kind, pairs = data["kind"], data["values"]
        if type(rows) is not list or type(pairs) is not list:
            raise TypeError
    except KeyError as err:
        raise ValueError(f"{path}: the table has no {err} entry") from None
    except TypeError:
        raise ValueError(f"{path}: not laid out as a coefficient table") from None
    if type(radius) is not int or radius < 1:
        raise ValueError(f"{path}: the radius must be a positive integer")
    count = (2 * radius + 1) ** 4
    if len(rows) != count:
        raise ValueError(f"{path}: the table holds {len(rows)} rows, not the {count}"
                         f" indices of radius {radius}")

    def label_at(row: int) -> str:
        return _label(enumerate_indices(radius, slice(row, row + 1))[0])

    n = len(pairs)
    codes = np.array(rows) if set(map(type, rows)) == {int} else None
    if codes is None or codes.min() < 0 or codes.max() >= n:
        first = next(i for i, c in enumerate(rows) if type(c) is not int or not 0 <= c < n)
        raise ValueError(f"{path}: the code for index {label_at(first)} is not an"
                         f" integer in range({n})")
    nan = (math.nan, math.nan)
    table = np.array([v if type(v) is list and len(v) == 2 and type(v[0]) is float
                      and type(v[1]) is float else nan for v in pairs])
    values = table.view(complex)[codes, 0]
    bad = ~np.isfinite(values)
    if np.any(bad):
        raise ValueError(f"{path}: the coefficient at {label_at(int(np.argmax(bad)))}"
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
    series = QuantumThetaSeries(emb, structure, radius, normalization, values)
    bad = _reassembly_failure(series)
    if bad is not None:
        raise ValueError(f"{path}: stored coefficient at {bad} does not reassemble the"
                         " inner product")
    return series
