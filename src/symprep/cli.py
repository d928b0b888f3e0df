"""Command-line interface.

Subcommands: run (single pipeline execution), sweep (parameter sweeps with a
CSV summary), export (circuit export), inspect-mps (decompose the encoded
state and report bond structure). Exit codes: 0 success, 2 config/validation
error, 1 runtime error.

The pipeline itself is deterministic; --seed is recorded in report metadata
only (it exists so reports produced alongside seeded property tests are
self-describing).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .circuit import export_circuit
from .dist import amplitudes, left_half, sample_pdf
from .mps import is_left_canonical, mps_from_statevector, mps_to_json
from .pipeline import (
    METRIC_COLUMNS,
    ConfigError,
    PipelineError,
    RunConfig,
    SweepConfig,
    config_from_dict,
    read_config,
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

    def common(p, formats, default_format):
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", default=default_format, choices=formats)
        p.add_argument("--seed", type=int, default=None,
                       help="recorded in report metadata; the pipeline is deterministic")
        p.add_argument("--assume-symmetric", action="store_true",
                       help="treat a tabulated distribution as mirror symmetric")

    common(sub.add_parser("run", help="execute one pipeline run"), ("json", "csv"), "json")
    common(sub.add_parser("sweep", help="run a parameter sweep"), ("csv", "json"), "csv")
    common(sub.add_parser("export", help="export the preparation circuit"),
           ("json", "qasm_like"), "json")
    common(sub.add_parser("inspect-mps", help="bond structure of the encoded state"),
           ("json",), "json")
    return ap


@dataclasses.dataclass(frozen=True)
class Outputs:
    """Where `run` writes its report and circuit; the config's 'outputs'."""

    report_path: str | None = None
    circuit_path: str | None = None


def _outputs_from_dict(doc: dict) -> Outputs:
    section = doc.get("outputs", {})
    if not isinstance(section, dict):
        raise ConfigError("outputs must be an object")
    unknown = sorted(set(section) - {f.name for f in dataclasses.fields(Outputs)})
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in outputs")
    for key, value in section.items():
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"outputs.{key} must be a path string, got {value!r}")
    return Outputs(**section)


def _load(args, want: type):
    """Read the config file once: the pipeline config and the CLI's Outputs."""
    doc = read_config(args.config)
    cfg = config_from_dict(doc, assume_symmetric=args.assume_symmetric)
    if not isinstance(cfg, want):
        need = "a sweep config (a 'vary' section)" if want is SweepConfig else "a run config"
        raise ConfigError(f"'{args.command}' needs {need}")
    return cfg, _outputs_from_dict(doc["base"] if isinstance(cfg, SweepConfig) else doc)


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
    cfg, outputs = _load(args, RunConfig)
    if args.seed is not None:  # report metadata only
        cfg = dataclasses.replace(cfg, seed=args.seed)
    res = run_full(cfg)
    if args.format == "csv":
        text = rows_to_csv([report_row(res.report, cfg.num_layers)], METRIC_COLUMNS)
    else:
        text = json.dumps(res.report_doc, indent=2) + "\n"
    report_path = args.out or outputs.report_path
    _emit(text, report_path)
    if report_path:
        print(f"report written to {report_path}")
    if outputs.circuit_path:
        fmt = "qasm_like" if outputs.circuit_path.endswith((".qasm", ".txt")) else "json"
        _emit(export_circuit(res.circuit, fmt), outputs.circuit_path)
    return 0


def _cmd_sweep(args) -> int:
    cfg, outputs = _load(args, SweepConfig)
    _, rows = sweep_full(cfg)
    if args.format == "json":
        text = json.dumps({"rows": rows}, indent=2)
    else:
        text = rows_to_csv(rows)
    _emit(text, args.out or outputs.report_path)
    return 0


def _cmd_export(args) -> int:
    cfg, outputs = _load(args, RunConfig)
    res = run_full(cfg)
    _emit(export_circuit(res.circuit, args.format), args.out or outputs.circuit_path)
    return 0


def _cmd_inspect(args) -> int:
    cfg, _ = _load(args, RunConfig)
    try:
        target = sample_pdf(cfg.dist, cfg.grid)
        encode = left_half(target) if cfg.method == "symmetry" else target
        m = mps_from_statevector(amplitudes(encode))
    except Exception as exc:
        raise PipelineError(f"inspect-mps: {exc}") from exc
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
