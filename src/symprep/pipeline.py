"""End-to-end orchestration: config parsing, single runs, and sweeps.

A run executes: sample the target density, optionally cut to its left half,
encode as amplitudes, decompose to an exact MPS (together `encode`), build
the disentangler stack, emit the preparation circuit (plus reflection
wrapper for the symmetry method), simulate densely, and score against the
full target. A failure is a PipelineError that names its stage.

A layer or bond sweep encodes once, builds one stack and emits one circuit,
for its largest point; every smaller point is verified on a prefix of that
stack, which the sequential build makes bit-identical to the point's own
stack, and on the matching tail of that circuit, so a sweep emits and
checks its gates once.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import __version__
from .circuit import DENSE_LIMIT, Circuit, GateStats, accounting, add_reflection_wrapper, prep_circuit, simulate
from .disentangler import DisentanglerStack, build_stack
from .dist import (
    FAMILIES,
    DistError,
    DistSpec,
    Grid,
    TargetDistribution,
    amplitudes,
    check_fits,
    is_mirror_symmetric,
    left_half,
    sample_pdf,
)
from .metrics import classical_fidelity, kl_divergence, meyer_wallach_purity
from .mps import Mps, mps_from_statevector
from .numerics import is_int

__all__ = [
    "ConfigError",
    "PipelineError",
    "RunConfig",
    "SweepConfig",
    "MetricsReport",
    "RunResult",
    "parse_config",
    "config_from_dict",
    "encode",
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
    seed: int | None = None

    def __post_init__(self):
        for key in ("n_qubits", "num_layers", "seed"):
            v = getattr(self, key)
            if not is_int(v) and not (v is None and key == "seed"):
                raise ConfigError(f"{key} must be an integer, got {v!r}")
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
        if self.grid.n_qubits != self.n_qubits:
            raise ConfigError("grid qubit count does not match n_qubits")
        try:
            check_fits(self.dist, self.grid)
        except DistError as exc:
            raise ConfigError(str(exc)) from exc
        if self.method == "symmetry" and not is_mirror_symmetric(self.dist, self.grid):
            raise ConfigError(
                "method=symmetry needs a density that is mirror symmetric about "
                "the grid center (a table: weights equal to their mirror image)"
            )


@dataclass(frozen=True)
class SweepConfig:
    base: RunConfig
    vary_key: str
    vary_values: tuple

    def __post_init__(self):
        if self.vary_key not in _VARY_KEYS:
            raise ConfigError(f"vary key must be one of {_VARY_KEYS}, got {self.vary_key!r}")
        vals = tuple(self.vary_values)
        if not vals or not all(is_int(v) for v in vals):
            raise ConfigError(f"{self.vary_key} must be a non-empty list of integers, got {list(vals)}")
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
class MetricsReport:
    kl_divergence: float
    classical_fidelity: float
    meyer_wallach_q: float
    truncation_error: float
    residual_infidelity: float
    gate_stats: GateStats


@dataclass(frozen=True)
class RunResult:
    report: MetricsReport
    report_doc: dict
    circuit: Circuit
    state: np.ndarray
    target: TargetDistribution
    stack: DisentanglerStack


# a run config document's keys are RunConfig's fields, its grid's are Grid's
# but n_qubits (the run's); a key left out takes the field's default
_RUN_KEYS = tuple(f.name for f in fields(RunConfig))
_GRID_KEYS = tuple(f.name for f in fields(Grid) if f.name != "n_qubits")


def _reject_unknown(d: dict, allowed, ctx: str) -> None:
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {ctx}")


def _dist_from_dict(d: dict) -> DistSpec:
    if not isinstance(d, dict) or not isinstance(d.get("kind"), str) or d["kind"] not in FAMILIES:
        raise ConfigError(f"dist must be an object whose 'kind' is one of {list(FAMILIES)}")
    _reject_unknown(d, ("kind", *FAMILIES[d["kind"]].params), "dist")
    params = {k: v for k, v in d.items() if k != "kind"}
    if None in params.values():  # DistSpec reads None as unset
        raise ConfigError("dist parameters must not be null; leave a key out for its default")
    return DistSpec(d["kind"], **params)


def _refuse_long_ints(node, where: str = "") -> None:
    # an int past str()'s digit limit is named by its key, never printed; 10^d has over 3d bits
    limit = sys.get_int_max_str_digits()
    for k, v in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(v, (dict, list)):
            _refuse_long_ints(v, f"{where}{k}.")
        elif is_int(v) and limit and v.bit_length() > 3 * limit and abs(v) >= 10**limit:
            raise ConfigError(f"{where}{k} is an integer of more than {limit} digits")


def config_from_dict(doc: dict) -> RunConfig | SweepConfig:
    """Validate a parsed config document: a run config, or a sweep config
    ({"base": run config, "vary": ...}). The document describes the
    computation only; where results go is the caller's business. Unknown
    keys are rejected and values are not coerced."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    _refuse_long_ints(doc)  # before any message formats a value
    if "vary" in doc:
        _reject_unknown(doc, ("base", "vary"), "sweep config")
        if not isinstance(doc.get("base"), dict):  # checked here: the root error would misname it
            raise ConfigError("sweep base must be a run config object")
        base = config_from_dict(doc["base"])
        if not isinstance(base, RunConfig):
            raise ConfigError("sweep base must be a run config, not another sweep")
        vary = doc["vary"]
        if not isinstance(vary, dict) or len(vary) != 1:
            raise ConfigError(f"vary must hold exactly one of {_VARY_KEYS}")
        (key, values), = vary.items()
        if not isinstance(values, list):
            raise ConfigError(f"vary.{key} must be a list of integers, got {values!r}")
        return SweepConfig(base=base, vary_key=key, vary_values=tuple(values))

    _reject_unknown(doc, _RUN_KEYS, "run config")
    if "dist" not in doc or "n_qubits" not in doc:
        raise ConfigError("run config needs at least 'dist' and 'n_qubits'")
    grid_doc = doc.get("grid", {})
    if not isinstance(grid_doc, dict):
        raise ConfigError("grid must be an object")
    _reject_unknown(grid_doc, _GRID_KEYS, "grid")
    if ("min" in grid_doc) != ("max" in grid_doc):
        raise ConfigError("grid needs both min and max")

    try:  # the constructors check every value
        spec = _dist_from_dict(doc["dist"])
        if "min" in grid_doc:
            gmin, gmax = grid_doc["min"], grid_doc["max"]
        else:
            fam = FAMILIES[spec.kind]
            if fam.center is None:
                raise ConfigError("table dists need an explicit grid (no natural scale)")
            # five natural scale units either side of the center of symmetry
            c, unit = fam.center(spec), fam.scale(spec)
            gmin, gmax = c - 5.0 * unit, c + 5.0 * unit
        opts = {k: v for k, v in grid_doc.items() if k not in ("min", "max")}
        grid = Grid(gmin, gmax, doc["n_qubits"], **opts)
    except DistError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(dist=spec, grid=grid, **{k: v for k, v in doc.items() if k not in ("dist", "grid")})


def parse_config(path: str) -> RunConfig | SweepConfig:
    """Load and validate a JSON config file; a missing or malformed file is
    a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:  # a directory, no permission, not UTF-8
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer past Python's digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(doc)


def _config_echo(cfg: RunConfig) -> dict:
    # the inverse of config_from_dict; a table's weights tuple echoes as a list
    dist = {"kind": cfg.dist.kind}
    for key in FAMILIES[cfg.dist.kind].params:
        v = getattr(cfg.dist, key)
        dist[key] = list(v) if isinstance(v, tuple) else v
    grid = {k: getattr(cfg.grid, k) for k in _GRID_KEYS}
    return {k: getattr(cfg, k) for k in _RUN_KEYS} | {"dist": dist, "grid": grid}


@contextmanager
def _stage(name: str):
    """Re-raise any failure in the block as PipelineError("stage <name>: ...")."""
    try:
        yield
    except Exception as exc:
        raise PipelineError(f"stage {name}: {exc}") from exc


def encode(config: RunConfig) -> tuple[TargetDistribution, Mps]:
    """The sampled target and the exact MPS of the state the circuit
    prepares: the target's amplitudes, or its left half's for the symmetry
    method."""
    with _stage("sample_pdf"):
        target = sample_pdf(config.dist, config.grid)
    encoded = target
    if config.method == "symmetry":
        with _stage("left_half"):
            encoded = left_half(target)
    with _stage("amplitudes"):
        amp = amplitudes(encoded)
    with _stage("mps_from_statevector"):
        m = mps_from_statevector(amp)
    return target, m


def _verify(config: RunConfig, target: TargetDistribution, stack: DisentanglerStack, circ: Circuit) -> RunResult:
    # simulate and score the circuit emitted for a built stack
    with _stage("simulate"):
        psi = simulate(circ)
    with _stage("metrics"):
        probs = psi * psi
        stats = accounting(circ, num_layers=config.num_layers)
        report = MetricsReport(
            kl_divergence=kl_divergence(target.p, probs),
            classical_fidelity=classical_fidelity(target.p, probs),
            meyer_wallach_q=meyer_wallach_purity(psi),
            truncation_error=stack.truncation_error,
            residual_infidelity=stack.residual_infidelity,
            gate_stats=stats,
        )

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
        "gate_stats": asdict(report.gate_stats),
    }
    return RunResult(report=report, report_doc=doc, circuit=circ, state=psi, target=target, stack=stack)


def run_full(config: RunConfig) -> RunResult:
    """Execute the pipeline and return the report plus artifacts; writes nothing."""
    target, m = encode(config)
    with _stage("build_stack"):
        stack = build_stack(m, config.num_layers)
    with _stage("prep_circuit"):
        circ = prep_circuit(stack)
    if config.method == "symmetry":
        with _stage("add_reflection_wrapper"):
            circ = add_reflection_wrapper(circ)
    return _verify(config, target, stack, circ)


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


def _largest_point(config: SweepConfig):
    """(target, stack, circuit, report) of a layer or bond sweep's largest point, run
    through run_full; None for a qubit sweep (each point encodes another
    state) or when that run fails."""
    if config.vary_key == "qubit_counts":
        return None
    try:
        res = run_full(_point_config(config.base, config.vary_key, config.vary_values[-1]))
    except (PipelineError, ValueError):
        return None
    return res.target, res.stack, res.circuit, res.report  # not the state


def sweep_full(config: SweepConfig):
    """Run every point; per-point failures become rows with an error note.

    Returns (reports, rows): reports holds a MetricsReport per successful
    point, rows one CSV-ready dict per point in vary order.

    A layer or bond sweep encodes once and builds one stack: its largest
    point runs through run_full, and every smaller point is verified on a
    prefix of that stack, which is bit for bit the stack run_full would
    build for it. Its circuit is the largest point's without the first
    layers' gates: prep_circuit emits the last-built layer first, one gate
    per stack wire, and the wrapper only appends. If that shared run fails,
    every point runs alone, so each row carries the error run_full gives it.
    """
    shared = _largest_point(config)
    reports = []
    rows = []
    for value in config.vary_values:
        row = {c: "" for c in SWEEP_COLUMNS}
        row["varied_param"] = config.vary_key
        row["value"] = value
        try:
            cfg = _point_config(config.base, config.vary_key, value)
            if shared is None:
                rep = run_full(cfg).report
            else:
                target, stack, circ, largest = shared
                if cfg.num_layers == len(stack.layers):
                    rep = largest
                else:
                    tail = Circuit(circ.n_qubits, circ.gates[(len(stack.layers) - cfg.num_layers) * stack.n_qubits :])
                    rep = _verify(cfg, target, stack.prefix(cfg.num_layers), tail).report
            reports.append(rep)
            row.update(report_row(rep, cfg.num_layers))
        except (PipelineError, ValueError) as exc:  # a ConfigError is a ValueError
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
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)
