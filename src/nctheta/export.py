"""Bit-exact export and reload of quantum theta series coefficients.

Two formats: a CSV table with a fixed header and 17-significant-digit
decimals, rows in the canonical enumeration order, and a JSON mirror that
carries the embedding and structure parameters so a series can be
reloaded and re-exported byte-identically.
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
from .qtheta import QuantumThetaSeries, _label, _reassembly_failure, _rows
from .structures import MixedStructure, structure_from_tau

CSV_HEADER = "k1,k2,k3,k4,w1,w2,m1,m2,t1,t2,re,im"
# Rows are built and formatted this many at a time, which bounds the memory held.
CHUNK_ROWS = 4096

# One row per format, filled from the block columns (k1..k4, w1, w2, m1, m2,
# t1, t2, re, im) in the order given next to it. A JSON row is laid out by
# json.dumps itself, at the depth of a row in the payload; floats print as
# their repr there too.
_CSV_ROW = ("%d,%d,%d,%d," + ",".join(["%.17g"] * 8) + "\n", range(12))
_JSON_ROW = ("\n".join("    " + line for line in json.dumps(
    {"ambient": ["%r"] * 6, "im": "%r", "k": ["%d"] * 4, "re": "%r"},
    indent=2, sort_keys=True).replace('"%r"', "%r").replace('"%d"', "%d").splitlines()),
    [4, 5, 6, 7, 8, 9, 11, 0, 1, 2, 3, 10])
# One conversion of a row template: %d, %r or a %g with its precision.
_CONVERSION = re.compile(r"%[.0-9]*[dgr]")


def _blocks(series: QuantumThetaSeries):
    """The table in blocks of rows: index, six ambient slots, coefficient.

    Lattice kind: (w1, w2, m1, m2, t1, t2) with unreduced torus lifts.
    Vector-space kind: the M part fills (w1, w2), the dual part (t1, t2),
    and the integer slots are zero.
    """
    for lo in range(0, len(series.indices), CHUNK_ROWS):
        k = series.indices[lo:lo + CHUNK_ROWS]
        values = series.values[lo:lo + CHUNK_ROWS]
        m_part, dual_part = point_parts(series.embedding, k)
        block = np.zeros((len(k), 12))
        block[:, :4] = k
        if series.kind is EmbeddingKind.LATTICE:
            block[:, [4, 6, 7]] = m_part
            block[:, [5, 8, 9]] = dual_part
        else:
            block[:, [4, 5]] = m_part
            block[:, [8, 9]] = dual_part
        block[:, 10] = values.real
        block[:, 11] = values.imag
        yield block


def _write_rows(fh, row, separator: str, blocks) -> None:
    """Write blocks of rows through a (template, columns) row format.

    A block is written as one str.join over the template's literal pieces
    and the cell texts, laid out row by row. A cell is formatted once per
    distinct bit pattern of its column in the block (a block repeats few
    distinct values; -0.0 and 0.0 stay apart).
    """
    template, columns = row
    specs = _CONVERSION.findall(template)
    pieces = _CONVERSION.split(template)
    for i, block in enumerate(blocks):
        cells = block[:, columns]
        text = np.empty((len(block), len(pieces) + len(specs)), dtype=object)
        text[:, 0::2] = pieces
        # every row but the table's first starts with the separator
        text[0 if i else 1:, 0] = separator + pieces[0]
        for j, spec in enumerate(specs):
            bits, inverse = np.unique(cells[:, j].view(np.uint64), return_inverse=True)
            distinct = bits.view(np.float64)
            if spec == "%d":
                distinct = distinct.astype(np.int64)
            text[:, 2 * j + 1] = np.array([spec % v for v in distinct.tolist()],
                                          dtype=object)[inverse]
        fh.write("".join(text.ravel().tolist()))


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
            _write_rows(fh, _CSV_ROW, "", _blocks(series))
        return path
    emb = series.embedding
    emb_params = {"kind": emb.kind.value, "theta1": emb.theta1}
    if emb.kind is EmbeddingKind.LATTICE:
        emb_params["m"] = emb.m.tolist()
        emb_params["delta_hat"] = emb.delta_hat.tolist()
    else:
        emb_params["theta2"] = emb.theta2

    st = series.structure
    if isinstance(st, MixedStructure):
        st_params = {"tau": [st.tau().real, st.tau().imag],
                     "lattice_decay": st.lattice_decay}
    else:
        t = st.tau()
        st_params = {"tau": [[[t[0, 0].real, t[0, 0].imag], [t[0, 1].real, t[0, 1].imag]],
                             [[t[1, 0].real, t[1, 0].imag], [t[1, 1].real, t[1, 1].imag]]]}
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
        _write_rows(fh, _JSON_ROW, ",\n", _blocks(series))
        fh.write("\n  ]" + tail + "\n")
    return path


def load_series(path) -> QuantumThetaSeries:
    """Reload a JSON coefficient export; values are taken as stored.

    The table must hold exactly one row for every index with sup norm
    <= radius, each with an index of four integers and finite floats re
    and im, and its coefficients must reproduce the closed-form inner
    product at sup norm <= 2, as a computed series does; its header must
    define a valid embedding and structure and a finite normalization;
    otherwise ValueError, naming the path.
    """
    text = Path(path).read_text()
    # The decoder builds a dict and two lists per row, none of them in a
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
    indices = enumerate_indices(radius)
    values = np.empty(len(indices), dtype=complex)
    series = QuantumThetaSeries(emb, structure, radius, normalization, indices, values)
    try:
        at = _rows(series, ks)
    except KeyError as err:
        raise ValueError(f"{path}: the row for index {_label(err.args[0])}"
                         f" lies outside radius {radius}") from None
    counts = np.bincount(at, minlength=len(indices))
    if np.any(counts != 1):
        repeated = np.any(counts > 1)
        k = indices[np.argmax(counts > 1 if repeated else counts == 0)]
        raise ValueError(f"{path}: the row for index {_label(k)} is"
                         f" {'repeated' if repeated else 'missing'}")
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
