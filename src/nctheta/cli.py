"""Command line interface: nctheta <suite> --config <path> [...]."""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys

from .config import load_config, parse_config
from .errors import ConfigInvalid, ConfigSyntax, NCThetaError
from .report import SUITE_NAMES, run_suite, write_report

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_IO_ERROR = 3
EXIT_INTERNAL_ERROR = 4
# Shutdown's collections walk numpy's and nctheta's ~22,000 tracked objects (30-45 ms
# a run on 2 vCPUs, 9-12 ms frozen); atexit hooks run first, and they skip a frozen heap.
atexit.register(gc.freeze)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nctheta",
        description="Numerical verification of quantum theta identities on"
                    " the noncommutative 4-torus.")
    parser.add_argument("suite", choices=list(SUITE_NAMES) + ["all"],
                        help="which verification suite to run")
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--radius", type=int, help="override truncation radius")
    parser.add_argument("--tol-oracle", type=float,
                        help="override the oracle relative tolerance")
    parser.add_argument("--seed", type=int, help="override the RNG seed")
    parser.add_argument("--output", help="report path (overrides config)")
    parser.add_argument("--format", choices=["json", "csv"],
                        help="report format (overrides config)")
    parser.add_argument("--allow-invalid", action="store_true",
                        help="keep going when the embedding column condition"
                             " fails; phases are then computed in full")
    return parser


def _apply_overrides(cfg, args):
    """Merge the flags into the config data and validate it like a file."""
    data = dict(cfg.raw)
    if args.radius is not None:
        data["radius"] = args.radius
    if args.tol_oracle is not None:
        data["tolerances"] = {**data.get("tolerances", {}), "oracle_rel": args.tol_oracle}
    if args.seed is not None:
        data["seed"] = args.seed
    output = dict(data.get("output") or {})
    if args.output is not None:
        output["path"] = args.output
    if args.format is not None:
        output["format"] = args.format
    if output:
        output.setdefault("format", "json")
        if "path" not in output:
            raise ConfigInvalid("an output path is required (config output.path"
                                " or --output)", "$.output.path")
        data["output"] = output
    return parse_config(data, allow_invalid=cfg.allow_invalid)


def _emit(stream, text: str) -> OSError | None:
    """Print TEXT to STREAM and flush it; returns the error if that fails.

    Python flushes the standard streams again at exit, where bytes that
    failed here would fail again ("Exception ignored", exit 120); after a
    failure the stream's descriptor points at devnull, so they go there.
    """
    try:
        print(text, file=stream, flush=True)
    except OSError as err:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        return err
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, allow_invalid=args.allow_invalid)
        cfg = _apply_overrides(cfg, args)
        report = run_suite(cfg, args.suite)
    except (ConfigSyntax, ConfigInvalid) as err:
        _emit(sys.stderr, f"config error: {err}")
        return EXIT_CONFIG_ERROR
    except NCThetaError as err:
        _emit(sys.stderr, f"error: {type(err).__name__}: {err}")
        return EXIT_CONFIG_ERROR
    except OSError as err:
        _emit(sys.stderr, f"i/o error: {err}")
        return EXIT_IO_ERROR
    except Exception as err:
        # A defect of the program, not a failed check: one line, own code.
        _emit(sys.stderr, f"internal error: {type(err).__name__}: {err}")
        return EXIT_INTERNAL_ERROR

    summary = report.summary()
    lines = []
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        # an errored check has no residual to show; its captured error says why
        detail = check.metadata.get("error") or (
            f"max residual {check.max_residual:.3e} (tolerance {check.tolerance:.3e})")
        lines.append(f"[{status}] {check.name}: {detail}")
    lines.append(f"{summary['checks']} checks, {summary['failed']} failed,"
                 f" elapsed {report.elapsed_seconds:.2f}s")

    # the report is written whatever becomes of stdout (a closed pipe, a full disk)
    errors = []
    if cfg.output is not None:
        try:
            path = write_report(report, cfg.output["path"],
                                cfg.output.get("format", "json"))
        except OSError as err:
            errors.append(err)
        else:
            lines.append(f"report written to {path}")
    failed = _emit(sys.stdout, "\n".join(lines))
    if failed is not None:
        errors.append(failed)
    if errors:
        _emit(sys.stderr, "\n".join(f"i/o error: {err}" for err in errors))
        return EXIT_IO_ERROR
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
