"""End-to-end orchestration: config parsing, single runs, and sweeps.

A run executes: sample the target density, optionally cut to its left half,
encode as amplitudes, decompose to an exact MPS, build the disentangler
stack, emit the preparation circuit (plus reflection wrapper for the
symmetry method), simulate densely, and score against the full target.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .circuit import Circuit, accounting, add_reflection_wrapper, prep_circuit, simulate
from .disentangler import build_stack
from .dist import (
    FAMILIES,
    DistSpec,
    Grid,
    TargetDistribution,
    amplitudes,
    is_mirror_symmetric,
    left_half,
    sample_pdf,
)
from .metrics import MetricsReport, classical_fidelity, kl_divergence, meyer_wallach_purity
from .mps import DENSE_LIMIT, mps_from_statevector

__all__ = [
    "ConfigError",
    "PipelineError",
    "RunConfig",
    "SweepConfig",
    "RunResult",
    "parse_config",
    "config_from_dict",
    "run",
    "run_full",
    "sweep",
    "sweep_full",
    "SWEEP_COLUMNS",
]

REPORT_FORMAT = 1

SWEEP_COLUMNS = [
    "varied_param",
    "value",
    "chi",
    "num_layers",
    "kl",
    "fidelity",
    "q_measure",
    "truncation_error",
    "residual",
    "cnot_depth_analytic",
    "error",
]
METRIC_COLUMNS = SWEEP_COLUMNS[2:-1]  # one run's columns, chi .. cnot_depth_analytic

_VARY_KEYS = ("bond_dims", "qubit_counts", "layer_counts")


class ConfigError(ValueError):
    """Invalid or inconsistent configuration (CLI exit code 2)."""


class PipelineError(RuntimeError):
    """Runtime failure inside a pipeline stage (CLI exit code 1)."""


@dataclass(frozen=True)
class RunConfig:
    dist: DistSpec
    grid: Grid
    n_qubits: int
    method: str = "symmetry"
    num_layers: int = 1
    chi_work: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.n_qubits < 3:
            raise ConfigError(f"n_qubits must be >= 3, got {self.n_qubits}")
        if self.n_qubits > DENSE_LIMIT:
            raise ConfigError(f"n_qubits must be <= {DENSE_LIMIT} for dense verification, got {self.n_qubits}")
        if self.method not in ("symmetry", "baseline"):
            raise ConfigError(f"method must be symmetry or baseline, got {self.method!r}")
        if self.method == "symmetry" and self.n_qubits < 4:
            # the half state on n-1 qubits needs at least three for a layer
            raise ConfigError(f"method=symmetry needs n_qubits >= 4, got {self.n_qubits}")
        if self.num_layers < 1:
            raise ConfigError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.chi_work is not None and self.chi_work < 2:
            raise ConfigError(f"chi_work must be >= 2, got {self.chi_work}")
        if self.grid.n_qubits != self.n_qubits:
            raise ConfigError("grid qubit count does not match n_qubits")
        if self.method == "symmetry" and not is_mirror_symmetric(self.dist, self.grid):
            raise ConfigError(
                "method=symmetry needs a density that is mirror symmetric about "
                "the grid center (or a table with assume_symmetric set)"
            )


@dataclass(frozen=True)
class SweepConfig:
    base: RunConfig
    vary_key: str
    vary_values: tuple

    def __post_init__(self):
        if self.vary_key not in _VARY_KEYS:
            raise ConfigError(f"vary key must be one of {_VARY_KEYS}, got {self.vary_key!r}")
        vals = tuple(_int(v, self.vary_key) for v in self.vary_values)
        if not vals:
            raise ConfigError("vary list must be non-empty")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ConfigError(f"vary list must be strictly increasing, got {list(vals)}")
        if self.vary_key == "bond_dims":
            for v in vals:
                if v < 2 or (v & (v - 1)) != 0:
                    raise ConfigError(
                        f"bond_dims entries must be powers of two >= 2, got {v} "
                        "(each maps to num_layers = log2(chi))"
                    )
        object.__setattr__(self, "vary_values", vals)


@dataclass(frozen=True)
class RunResult:
    report: MetricsReport
    report_doc: dict
    circuit: Circuit
    state: np.ndarray
    target: TargetDistribution
    residual_history: tuple = field(default=())


def _reject_unknown(d: dict, allowed, ctx: str) -> None:
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {ctx}")


def _int(v, key: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{key} must be an integer, got {v!r}")
    return v


def _number(v, key: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{key} must be a number, got {v!r}")
    return float(v)


def _dist_param(v, default, key: str):
    # the family default's type decides the value's type
    if isinstance(default, float):
        return _number(v, key)
    if isinstance(default, tuple):  # weights
        if not isinstance(v, list):
            raise ConfigError(f"{key} must be a list of numbers, got {v!r}")
        return tuple(_number(x, key) for x in v)
    want = bool if isinstance(default, bool) else str  # a flag, or a path
    if not isinstance(v, want):
        raise ConfigError(f"{key} must be a {want.__name__}, got {v!r}")
    return v


def _dist_from_dict(d: dict) -> DistSpec:
    if not isinstance(d, dict) or not isinstance(d.get("kind"), str):
        raise ConfigError("dist must be an object with a 'kind' key")
    fam = FAMILIES.get(d["kind"])
    if fam is None:
        raise ConfigError(f"unknown dist kind {d['kind']!r}")
    _reject_unknown(d, ("kind", *fam.params), "dist")
    params = {k: _dist_param(v, fam.params[k], f"dist.{k}") for k, v in d.items() if k != "kind"}
    try:
        return DistSpec(d["kind"], **params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_from_dict(doc: dict, *, assume_symmetric: bool = False) -> RunConfig | SweepConfig:
    """Validate a parsed config document. Unknown keys are rejected and values
    are not coerced. The 'outputs' section belongs to the CLI and is not read."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    if "vary" in doc:
        _reject_unknown(doc, ("base", "vary"), "sweep config")
        if "base" not in doc:
            raise ConfigError("sweep config needs a 'base' run config")
        base = config_from_dict(doc["base"], assume_symmetric=assume_symmetric)
        if not isinstance(base, RunConfig):
            raise ConfigError("sweep base must be a run config, not another sweep")
        vary = doc["vary"]
        if not isinstance(vary, dict) or len(vary) != 1:
            raise ConfigError(f"vary must hold exactly one of {_VARY_KEYS}")
        (key, values), = vary.items()
        if key not in _VARY_KEYS:
            raise ConfigError(f"vary key must be one of {_VARY_KEYS}, got {key!r}")
        if not isinstance(values, list):
            raise ConfigError(f"vary.{key} must be a list of integers, got {values!r}")
        return SweepConfig(base=base, vary_key=key, vary_values=tuple(values))

    allowed = (
        "dist", "grid", "n_qubits", "method", "num_layers", "chi_work", "outputs", "seed",
    )
    _reject_unknown(doc, allowed, "run config")
    if "dist" not in doc or "n_qubits" not in doc:
        raise ConfigError("run config needs at least 'dist' and 'n_qubits'")
    dist_doc = doc["dist"]
    if assume_symmetric and isinstance(dist_doc, dict) and dist_doc.get("kind") == "table":
        dist_doc = {**dist_doc, "assume_symmetric": True}
    spec = _dist_from_dict(dist_doc)
    n_qubits = _int(doc["n_qubits"], "n_qubits")

    grid_doc = doc.get("grid", {})
    if not isinstance(grid_doc, dict):
        raise ConfigError("grid must be an object")
    _reject_unknown(grid_doc, ("min", "max", "convention"), "grid")
    if "min" in grid_doc or "max" in grid_doc:
        if not ("min" in grid_doc and "max" in grid_doc):
            raise ConfigError("grid needs both min and max")
        gmin, gmax = _number(grid_doc["min"], "grid.min"), _number(grid_doc["max"], "grid.max")
    else:
        fam = FAMILIES[spec.kind]
        if fam.center is None:
            raise ConfigError("table dists need an explicit grid (no natural scale)")
        # five natural scale units either side of the center of symmetry
        c, unit = fam.center(spec), fam.scale(spec)
        gmin, gmax = c - 5.0 * unit, c + 5.0 * unit
    try:
        grid = Grid(gmin, gmax, n_qubits, grid_doc.get("convention", "midpoint"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    chi_work, seed = doc.get("chi_work"), doc.get("seed")
    return RunConfig(
        dist=spec,
        grid=grid,
        n_qubits=n_qubits,
        method=doc.get("method", "symmetry"),
        num_layers=_int(doc.get("num_layers", 1), "num_layers"),
        chi_work=None if chi_work is None else _int(chi_work, "chi_work"),
        seed=None if seed is None else _int(seed, "seed"),
    )


def read_config(path: str) -> dict:
    """Load a JSON config document; a missing or malformed file is a ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def parse_config(path: str, *, assume_symmetric: bool = False) -> RunConfig | SweepConfig:
    """Load and validate a JSON config file."""
    return config_from_dict(read_config(path), assume_symmetric=assume_symmetric)


def _config_echo(cfg: RunConfig) -> dict:
    dist = {"kind": cfg.dist.kind}
    for key in FAMILIES[cfg.dist.kind].params:
        if key == "weights":
            dist["inline_weights"] = len(cfg.dist.weights)
        else:
            dist[key] = getattr(cfg.dist, key)
    return {
        "dist": dist,
        "grid": {
            "min": cfg.grid.min,
            "max": cfg.grid.max,
            "convention": cfg.grid.convention,
        },
        "n_qubits": cfg.n_qubits,
        "method": cfg.method,
        "num_layers": cfg.num_layers,
        "chi_work": cfg.chi_work,
        "seed": cfg.seed,
    }


def run_full(config: RunConfig) -> RunResult:
    """Execute the pipeline and return the report plus artifacts; writes nothing."""
    stage = "sample_pdf"
    try:
        target = sample_pdf(config.dist, config.grid)
        encode = target
        if config.method == "symmetry":
            stage = "left_half"
            encode = left_half(target)
        stage = "amplitudes"
        amp = amplitudes(encode)
        stage = "mps_from_statevector"
        m = mps_from_statevector(amp)
        stage = "build_stack"
        stack = build_stack(m, config.num_layers, config.chi_work)
        stage = "prep_circuit"
        circ = prep_circuit(stack)
        if config.method == "symmetry":
            stage = "add_reflection_wrapper"
            circ = add_reflection_wrapper(circ)
        stage = "simulate"
        psi = simulate(circ)
        stage = "metrics"
        probs = psi * psi
        stats = accounting(circ, num_layers=config.num_layers, symmetry=config.method == "symmetry")
        report = MetricsReport(
            kl_divergence=kl_divergence(target.p, probs),
            classical_fidelity=classical_fidelity(target.p, probs),
            meyer_wallach_q=meyer_wallach_purity(psi),
            truncation_error=stack.truncation_error,
            residual_infidelity=stack.residual_infidelity,
            gate_stats=stats,
        )
    except (ConfigError, PipelineError):
        raise
    except Exception as exc:
        raise PipelineError(f"stage {stage}: {exc}") from exc

    doc = {
        "artifact": {"name": "symprep", "version": __version__, "report_format": REPORT_FORMAT},
        "config": _config_echo(config),
        "metrics": {
            "kl_divergence": report.kl_divergence,
            "kl_log_base": "natural",
            "classical_fidelity": report.classical_fidelity,
            "meyer_wallach_q": report.meyer_wallach_q,
            "truncation_error": report.truncation_error,
            "residual_infidelity": report.residual_infidelity,
            "residual_history": list(stack.residual_history),
        },
        "gate_stats": {
            "cnot_count_analytic": report.gate_stats.cnot_count_analytic,
            "cnot_depth_analytic": report.gate_stats.cnot_depth_analytic,
            "two_qubit_gate_count": report.gate_stats.two_qubit_gate_count,
            "total_gate_count": report.gate_stats.total_gate_count,
            "cnot_depth_counted": report.gate_stats.cnot_depth_counted,
        },
    }
    return RunResult(
        report=report,
        report_doc=doc,
        circuit=circ,
        state=psi,
        target=target,
        residual_history=stack.residual_history,
    )


def report_row(report: MetricsReport, num_layers: int) -> dict:
    """The METRIC_COLUMNS of one run, as a CSV-ready dict."""
    return {
        "chi": 2**num_layers,
        "num_layers": num_layers,
        "kl": report.kl_divergence,
        "fidelity": report.classical_fidelity,
        "q_measure": report.meyer_wallach_q,
        "truncation_error": report.truncation_error,
        "residual": report.residual_infidelity,
        "cnot_depth_analytic": report.gate_stats.cnot_depth_analytic,
    }


def run(config: RunConfig) -> MetricsReport:
    """Spec-level entry point: execute and return the metrics report."""
    return run_full(config).report


def _point_config(base: RunConfig, key: str, value: int) -> RunConfig:
    if key == "qubit_counts":
        return replace(base, n_qubits=value, grid=replace(base.grid, n_qubits=value))
    # bond_dims chi = 2^L maps to L layers
    return replace(base, num_layers=value.bit_length() - 1 if key == "bond_dims" else value)


def sweep_full(config: SweepConfig):
    """Run every point; per-point failures become rows with an error note.

    Returns (reports, rows): reports holds a MetricsReport per successful
    point, rows one CSV-ready dict per point in vary order.
    """
    reports = []
    rows = []
    for value in config.vary_values:
        row = {c: "" for c in SWEEP_COLUMNS}
        row["varied_param"] = config.vary_key
        row["value"] = value
        try:
            cfg = _point_config(config.base, config.vary_key, value)
            rep = run_full(cfg).report
            reports.append(rep)
            row.update(report_row(rep, cfg.num_layers))
        except (ConfigError, PipelineError, ValueError) as exc:
            row["error"] = str(exc)
        rows.append(row)
    return reports, rows


def sweep(config: SweepConfig):
    """Spec-level entry point: one MetricsReport per successful point."""
    return sweep_full(config)[0]


def rows_to_csv(rows, columns=SWEEP_COLUMNS) -> str:
    """CSV text with a header line of `columns`, then one line per row."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    for row in rows:
        w.writerow([_csv_cell(row[c]) for c in columns])
    return buf.getvalue()


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)
