"""Command-line interface.

Subcommands: run (single pipeline execution), sweep (parameter sweeps with a
CSV summary), export (circuit export), inspect-mps (decompose the encoded
state and report bond structure). Exit codes: 0 success, 2 config/validation
error, 1 runtime error.

The config file describes the computation and nothing else; the command
line says only where the result goes (--out, default stdout; inspect-mps
writes its MPS only to --out) and in which format (--format). No option
restates a config setting, and the config holds no output paths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .circuit import export_circuit
from .mps import is_left_canonical, mps_to_json
from .pipeline import (
    METRIC_COLUMNS,
    ConfigError,
    RunConfig,
    SweepConfig,
    encode,
    parse_config,
    report_row,
    rows_to_csv,
    run_full,
    sweep_full,
)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="symprep",
        description="Compile reflection-symmetric distributions into low-depth "
        "state-preparation circuits and verify them classically.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, *formats, out="output path (default: stdout)"):
        """--config and --out, plus --format when there is a choice (the
        first format is the default)."""
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", default=None, help=out)
        if formats:
            p.add_argument("--format", default=formats[0], choices=formats)

    common(sub.add_parser("run", help="execute one pipeline run"), "json", "csv")
    common(sub.add_parser("sweep", help="run a parameter sweep"), "csv", "json")
    common(sub.add_parser("export", help="export the preparation circuit"), "json", "qasm_like")
    common(sub.add_parser("inspect-mps", help="bond structure of the encoded state"),
           out="write the MPS as JSON to this path (default: the MPS is not written; "
           "the bond summary always goes to stdout)")
    return ap


def _load(args, want: type):
    cfg = parse_config(args.config)
    if not isinstance(cfg, want):
        need = "a sweep config (a 'vary' section)" if want is SweepConfig else "a run config"
        raise ConfigError(f"'{args.command}' needs {need}")
    return cfg


def _emit(text: str, out: str | None) -> None:
    """Write text to stdout, or atomically to the file out: a temp file in
    the same directory is renamed over it, so out is never half written."""
    if not out:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return
    tmp = f"{out}.{os.getpid()}.tmp"
    fh = open(tmp, "x")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        os.unlink(tmp)
        raise


def _cmd_run(args) -> int:
    cfg = _load(args, RunConfig)
    res = run_full(cfg)
    if args.format == "csv":
        text = rows_to_csv([report_row(res.report, cfg.num_layers)], METRIC_COLUMNS)
    else:
        text = json.dumps(res.report_doc, indent=2) + "\n"
    _emit(text, args.out)
    if args.out:
        print(f"report written to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    _, rows = sweep_full(_load(args, SweepConfig))
    if args.format == "json":
        text = json.dumps({"rows": rows}, indent=2)
    else:
        text = rows_to_csv(rows)
    _emit(text, args.out)
    return 0


def _cmd_export(args) -> int:
    res = run_full(_load(args, RunConfig))
    _emit(export_circuit(res.circuit, args.format), args.out)
    return 0


def _cmd_inspect(args) -> int:
    cfg = _load(args, RunConfig)
    _, m = encode(cfg)
    summary = {
        "n_qubits": m.n_qubits,
        "bond_dims": m.bond_dims,
        "canonical": is_left_canonical(m),
        "method": cfg.method,
    }
    print(json.dumps(summary, indent=2))
    if args.out:
        _emit(mps_to_json(m), args.out)
        print(f"mps written to {args.out}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "export": _cmd_export,
    "inspect-mps": _cmd_inspect,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:  # ConfigError, or domain validation the pipeline did not wrap
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # PipelineError or another runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
