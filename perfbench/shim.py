"""One benchmark op in a fresh interpreter, as a user's command would run.

    python3 shim.py RECORD MODULE [--trace SPANS --op N] [-- CLI_ARGS...]

Imports MODULE and notes when it is ready (``time.monotonic`` is the
system-wide CLOCK_MONOTONIC, so the parent can subtract its spawn time).
Without ``--``, that is all: a set-up probe.  With ``--``, MODULE must be
``nctheta.cli`` and ``cli.main(CLI_ARGS)`` runs; its exit code is passed
on, and an exception escaping it is recorded and re-raised unchanged.
With ``--trace``, the layer functions are wrapped first and the spans are
written to SPANS when the op ends.  A `pace.Pace` samples the machine's
speed from the start of this script to the end of the op.  RECORD
receives the timestamps, the speed samples of the import and of the op,
the exit code or exception, and the coverage of the wrapping, as JSON.
"""

import sys
import time

T_SCRIPT = time.monotonic()

import importlib  # noqa: E402
import json  # noqa: E402

import pace  # noqa: E402

PACE = pace.Pace()
PACE.start()


def main(argv: list[str]) -> int:
    record_path, module_name, rest = argv[0], argv[1], argv[2:]
    cli_args = None
    if "--" in rest:
        cut = rest.index("--")
        rest, cli_args = rest[:cut], rest[cut + 1:]
    opts = dict(zip(rest[::2], rest[1::2]))

    module = importlib.import_module(module_name)
    record = {"t_script": T_SCRIPT, "t_ready": time.monotonic(),
              "rc": 0, "error": None}
    ready = record["pace_setup"] = PACE.mark()
    if cli_args is None:
        PACE.stop()
        _write(record_path, record)
        return 0

    tracer = None
    if "--trace" in opts:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        record["unwrapped"] = tracer.unwrapped_bindings()
    try:
        if tracer is None:
            record["rc"] = module.main(cli_args)
        else:
            with tracer.root(int(opts["--op"])):
                record["rc"] = module.main(cli_args)
    except BaseException as err:
        record["rc"] = None
        record["error"] = f"{type(err).__name__}: {err}"
        raise
    finally:
        PACE.stop()
        record["pace_op"] = pace.since(PACE.mark(), ready)
        if tracer is not None:
            tracer.dump(opts["--trace"])
        _write(record_path, record)
    return record["rc"]


def _write(path: str, record: dict) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
