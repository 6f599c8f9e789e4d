"""Bit-exact export and reload of quantum theta series coefficients.

Two formats: a CSV table with a fixed header and 17-significant-digit
decimals, rows in the canonical enumeration order, and a JSON mirror that
carries the embedding and structure parameters so a series can be
reloaded and re-exported byte-identically.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .embedding import EmbeddingKind, build_embedding, enumerate_indices
from .qtheta import QuantumThetaSeries, _ambient, _reassembly_failure, _stored_values
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


def _blocks(series: QuantumThetaSeries):
    """The table in blocks of rows: index, six ambient slots, coefficient.

    Lattice kind: (w1, w2, m1, m2, t1, t2) with unreduced torus lifts.
    Vector-space kind: the M part fills (w1, w2), the dual part (t1, t2),
    and the integer slots are zero.
    """
    ks = enumerate_indices(series.radius)
    for lo in range(0, len(ks), CHUNK_ROWS):
        k = ks[lo:lo + CHUNK_ROWS]
        amb = _ambient(series.embedding, k)
        values = _stored_values(series, k)
        block = np.zeros((len(k), 12))
        block[:, :4] = k
        if series.kind is EmbeddingKind.LATTICE:
            block[:, [4, 5, 8, 9]] = amb[:, [0, 3, 4, 5]]
            block[:, 6:8] = k[:, 2:] @ series.embedding.m.T
        else:
            block[:, [4, 5, 8, 9]] = amb
        block[:, 10] = values.real
        block[:, 11] = values.imag
        yield block


def _write_rows(fh, row, separator: str, series: QuantumThetaSeries) -> None:
    """Write the table through a (template, columns) row format."""
    template, columns = row
    for i, block in enumerate(_blocks(series)):
        cells = tuple(block[:, columns].ravel().tolist())
        fh.write((separator if i else "") + separator.join([template] * len(block)) % cells)


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
            _write_rows(fh, _CSV_ROW, "", series)
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
        _write_rows(fh, _JSON_ROW, ",\n", series)
        fh.write("\n  ]" + tail + "\n")
    return path


def load_series(path) -> QuantumThetaSeries:
    """Reload a JSON coefficient export; values are taken as stored.

    The stored coefficients must reproduce the closed-form inner product
    at sup norm <= 2, as a computed series does; a table that does not
    match its own parameters raises ValueError.
    """
    data = json.loads(Path(path).read_text())
    e = data["embedding"]
    emb = build_embedding(EmbeddingKind(e["kind"]), e["theta1"], e.get("theta2"),
                          m=e.get("m"), delta_hat=e.get("delta_hat"))
    structure = structure_from_tau(emb, data["structure"]["tau"],
                                   data["structure"].get("lattice_decay"))
    coeffs = {tuple(row["k"]): complex(row["re"], row["im"])
              for row in data["coefficients"]}
    series = QuantumThetaSeries(emb, structure, data["radius"],
                                data["normalization"], coeffs)
    bad = _reassembly_failure(series)
    if bad is not None:
        raise ValueError(f"{path}: stored coefficient at {bad} does not"
                         " reassemble the inner product")
    return series
