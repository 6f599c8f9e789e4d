"""Worker for the table-roundtrip workload; runs in its own interpreter.

    python3 roundtrip.py RECORD WORKDIR FIXTURES RADIUS END TRACE

Set-up (untimed): import ``nctheta.export``, then compute the series of
each fixture at RADIUS.  Each op then, for one kind:

1. writes the JSON table with ``export_coefficients`` (timed write);
2. reloads it with ``load_series`` (timed read);
3. checks, untimed, that the reloaded coefficients equal the source
   series bit for bit, and that the table is byte-identical to its
   re-export.  The first op of a kind re-exports the reloaded series and
   compares the bytes; a later op compares its table's sha256 with that
   verified table, since equal bytes reload to an equal series and so
   re-export to the same bytes.

Ops alternate between the kinds.  The first pass over both always runs;
after it, an op starts only if, taking as long as its previous run, it
ends by END (a ``time.monotonic`` reading, the system-wide clock shared
with the parent).  With TRACE=1 there are exactly three passes: one
plain, then two traced ones whose spans go to
``WORKDIR/trace-pass<N>.npz``.  A `pace.Pace` samples the machine's
speed throughout; RECORD gets its samples for the import, each write and
each read.
"""

import sys
import time

T_SCRIPT = time.monotonic()

import pace  # noqa: E402

PACE = pace.Pace()
PACE.start()

import nctheta.export as export  # noqa: E402

T_READY = time.monotonic()
PACE_SETUP = PACE.mark()

import hashlib  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from nctheta.config import load_config  # noqa: E402
from nctheta.embedding import enumerate_indices  # noqa: E402
from nctheta.qtheta import quantum_theta_series  # noqa: E402

KINDS = ("lattice", "vector")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _bits(series, keys) -> np.ndarray:
    values = np.array([series.coefficients.get(k, complex("nan")) for k in keys],
                      dtype=np.complex128)
    return values.view(np.uint64)


def _op(series, keys, reference, workdir: Path, kind: str, verified: dict) -> dict:
    table = workdir / f"{kind}.coefficients.json"
    out = {"kind": kind, "rows": len(keys), "error": None, "problems": []}
    try:
        p0, t0 = PACE.mark(), time.perf_counter()
        export.export_coefficients(series, "json", table)
        p1, t1 = PACE.mark(), time.perf_counter()
        loaded = export.load_series(table)
        p2, t2 = PACE.mark(), time.perf_counter()
    except Exception as err:  # a failed op is counted, the pass goes on
        out["error"] = f"{type(err).__name__}: {err}"
        return out
    out.update(write_s=t1 - t0, read_s=t2 - t1, write_pace=pace.since(p1, p0),
               read_pace=pace.since(p2, p1), sha256=_digest(table))
    if len(loaded.coefficients) != len(keys) or not np.array_equal(
            _bits(loaded, keys), reference):
        out["problems"].append("reloaded coefficients differ from the source series")
    if kind not in verified:
        reexport = workdir / f"{kind}.reexport.json"
        t3 = time.perf_counter()
        try:
            export.export_coefficients(loaded, "json", reexport)
        except Exception as err:
            out["error"] = f"re-export: {type(err).__name__}: {err}"
            return out
        if _digest(reexport) != out["sha256"]:
            out["problems"].append("re-export is not byte-identical")
        reexport.unlink()
        verified[kind] = out["sha256"]
        out["reexport_s"] = time.perf_counter() - t3
    elif out["sha256"] != verified[kind]:
        out["problems"].append("table differs from the verified table of the same kind")
    table.unlink()
    return out


def main(argv: list[str]) -> int:
    record_path, workdir, fixtures = argv[0], Path(argv[1]), Path(argv[2])
    radius, end, trace = int(argv[3]), float(argv[4]), argv[5] == "1"

    setup = []
    for kind in KINDS:
        cfg = load_config(fixtures / f"canonical_{kind}.json")
        emb = cfg.build_embedding()
        series = quantum_theta_series(emb, cfg.build_structure(emb), radius)
        keys = [tuple(int(c) for c in k) for k in enumerate_indices(radius)]
        setup.append((kind, series, keys, _bits(series, keys)))

    tracer = None
    passes = []
    verified: dict = {}
    cost: dict = {}
    while not trace or len(passes) < 3:
        index = len(passes)
        if trace and index == 1:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        ops = []
        for k, (kind, series, keys, reference) in enumerate(setup):
            if not trace and index > 0 and time.monotonic() + cost[kind] > end:
                break
            t0 = time.monotonic()
            if tracer is None:
                ops.append(_op(series, keys, reference, workdir, kind, verified))
            else:
                with tracer.root(index * len(setup) + k):
                    ops.append(_op(series, keys, reference, workdir, kind, verified))
            # What a later op of this kind takes: all but the one re-export.
            cost[kind] = time.monotonic() - t0 - ops[-1].get("reexport_s", 0.0)
        if tracer is not None:
            tracer.dump(workdir / f"trace-pass{index}.npz")
            tracer.reset()
        if ops:
            passes.append({"traced": tracer is not None, "ops": ops})
        if len(ops) < len(setup):
            break

    PACE.stop()
    record = {"t_script": T_SCRIPT, "t_ready": T_READY, "pace_setup": PACE_SETUP,
              "pace_all": PACE.mark(), "passes": passes,
              "unwrapped": tracer.unwrapped_bindings() if tracer else []}
    Path(record_path).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
