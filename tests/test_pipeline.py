"""Config parsing, end-to-end runs, sweeps, and the CLI surface."""

import json
import sys
from dataclasses import fields

import numpy as np
import pytest

from symprep import numerics, pipeline
from symprep.circuit import add_reflection_wrapper, export_circuit, prep_circuit, simulate
from symprep.cli import main
from symprep.disentangler import DisentanglerError
from symprep.pipeline import (
    SWEEP_COLUMNS,
    ConfigError,
    PipelineError,
    RunConfig,
    SweepConfig,
    config_from_dict,
    encode,
    parse_config,
    report_row,
    rows_to_csv,
    run,
    run_full,
    sweep,
    sweep_full,
)
from symprep.dist import FAMILIES, DistError, DistSpec, Grid


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def minimal_doc(**over):
    doc = {"dist": {"kind": "normal", "mu": 0.0, "sigma2": 0.01}, "n_qubits": 6}
    doc.update(over)
    return doc


def test_minimal_config_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, minimal_doc()))
    assert isinstance(cfg, RunConfig)
    assert cfg.method == "symmetry"
    assert cfg.num_layers == 1
    assert cfg.grid.convention == "midpoint"
    # default grid: five standard deviations either side of the mean
    assert cfg.grid.min == -0.5 and cfg.grid.max == 0.5


def test_default_grid_other_kinds():
    c1 = config_from_dict({"dist": {"kind": "lorentzian", "gamma": 1.0}, "n_qubits": 6})
    assert (c1.grid.min, c1.grid.max) == (-5.0, 5.0)
    c2 = config_from_dict({"dist": {"kind": "student_t", "nu": 2.0}, "n_qubits": 6})
    assert (c2.grid.min, c2.grid.max) == (-5.0, 5.0)  # the standard t's scale is 1, for any nu
    with pytest.raises(ConfigError):
        config_from_dict({"dist": {"kind": "table", "weights": [1.0] * 64}, "n_qubits": 6})


@pytest.mark.parametrize("nu", [1e-3, 1e6])
def test_default_grid_student_t_extreme_nu(nu):
    # a grid of nu scale units would be +-0.005 (a flat target) at nu = 1e-3
    # and +-5e6 (zero density on every point) at nu = 1e6
    cfg = config_from_dict({"dist": {"kind": "student_t", "nu": nu}, "n_qubits": 6})
    assert (cfg.grid.min, cfg.grid.max) == (-5.0, 5.0)
    res = run_full(cfg)
    p = res.target.p
    assert p[0] < 0.1 * p[len(p) // 2]  # the grid reaches the tails
    assert 0.0 <= res.report.kl_divergence < 1e-3


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        config_from_dict(minimal_doc(num_layers=0))
    with pytest.raises(ConfigError):
        config_from_dict(minimal_doc(bogus=1))
    with pytest.raises(ConfigError):
        config_from_dict(minimal_doc(dist={"kind": "normal", "scale": 2.0}))
    with pytest.raises(ConfigError):
        config_from_dict(minimal_doc(n_qubits=2))
    with pytest.raises(ConfigError):
        config_from_dict(minimal_doc(method="mirror"))
    with pytest.raises(ConfigError):
        config_from_dict({"n_qubits": 6})
    with pytest.raises(ConfigError):
        config_from_dict(minimal_doc(grid={"min": -1.0}))  # max missing


@pytest.mark.parametrize(
    "over",
    [
        {"n_qubits": 6.7},
        {"num_layers": True},
        {"seed": 3.9},
        {"dist": {"kind": "normal", "sigma2": "0.01"}},
        {"grid": {"min": "-1", "max": 1.0}},
        {"dist": {"kind": "table", "weights": ["1"] * 64}, "grid": {"min": 0.0, "max": 1.0}},
        # json.load accepts Infinity and NaN, and integers past the float range
        {"dist": {"kind": "normal", "sigma2": float("inf")}, "grid": {"min": -0.5, "max": 0.5}},
        {"dist": {"kind": "normal", "sigma2": 10**400}, "grid": {"min": -0.5, "max": 0.5}},
        {"grid": {"min": -1.0, "max": float("inf")}},
        {"dist": {"kind": "normal", "mu": float("nan")}, "grid": {"min": -0.5, "max": 0.5}},
        {"dist": {"kind": "normal", "mu": float("nan")}, "grid": {"min": -0.5, "max": 0.5}, "method": "baseline"},
        {"dist": {"kind": "table", "weights": [1.0] * 63 + [float("nan")]}, "grid": {"min": 0.0, "max": 1.0},
         "method": "baseline"},
        # every table fault is refused before sampling: a length that is not
        # 2^n, a negative weight, no mass, a table that is not its own mirror
        # image under method symmetry, and the keys of a symmetry flag and a
        # side file, which a table no longer has
        {"dist": {"kind": "table", "weights": [1.0, 2.0, 3.0]}, "grid": {"min": 0.0, "max": 1.0},
         "n_qubits": 4, "method": "baseline"},
        {"dist": {"kind": "table", "weights": [1.0] * 63 + [-0.5]}, "grid": {"min": 0.0, "max": 1.0},
         "method": "baseline"},
        {"dist": {"kind": "table", "weights": [0.0] * 64}, "grid": {"min": 0.0, "max": 1.0},
         "method": "baseline"},
        {"dist": {"kind": "table", "weights": list(range(1, 17))}, "grid": {"min": 0.0, "max": 1.0},
         "n_qubits": 4, "method": "symmetry"},
        {"dist": {"kind": "table", "weights": [1.0] * 64, "assume_symmetric": True},
         "grid": {"min": 0.0, "max": 1.0}},
        {"dist": {"kind": "table", "path": 5}, "grid": {"min": 0.0, "max": 1.0}},
        {"dist": {"kind": "table", "path": "missing.csv", "weights": [1.0] * 64},
         "grid": {"min": 0.0, "max": 1.0}, "method": "baseline"},
        {"dist": 5},
        {"grid": [-1.0, 1.0]},
        {"dist": {"kind": "normal", "mu": None}},  # null is not "unset"
        {"vary": {"layer_counts": [1.5, 2]}},
        {"vary": {"bond_dims": 5}},
    ],
    ids=repr,
)
def test_config_values_are_not_coerced(over, tmp_path, capsys):
    if "vary" in over:
        doc = {"base": minimal_doc(), **over}
    else:
        doc = minimal_doc(**over)
    with pytest.raises(ConfigError):
        config_from_dict(doc)
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "config root must be an object"),
        (json.dumps({"base": {"base": minimal_doc(), "vary": {"bond_dims": [2]}}, "vary": {"bond_dims": [2]}}),
         "not another sweep"),
        ("{not json", "not valid JSON"),
        (None, "cannot read config file"),
        (b"\xff\xfe{}", "cannot read config file"),
    ],
    ids=["root list", "sweep of a sweep", "not JSON", "directory", "not UTF-8"],
)
def test_config_files_refused(text, message, tmp_path, capsys):
    # every file fault is a config error (exit 2), not a runtime error
    path = tmp_path / "cfg.json"
    if text is None:
        path.mkdir()
    elif isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        parse_config(str(path))
    assert main(["sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


def test_chi_work_is_an_unknown_key(tmp_path, capsys):
    # the working bond is derived inside build_stack, not configured
    doc = minimal_doc(chi_work=2)
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_dict(doc)
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    assert "config error" in capsys.readouterr().err


def _direct(**over):
    # RunConfig(DistSpec, Grid) built in code, as the demos do
    spec = over.pop("dist", None) or DistSpec("normal", mu=0.0, sigma2=0.01)
    n = over.pop("n_qubits", 6)
    grid = over.pop("grid", None) or Grid(-0.5, 0.5, n)
    return RunConfig(dist=spec, grid=grid, n_qubits=n, **over)


@pytest.mark.parametrize(
    "build, error",
    [
        pytest.param(lambda: _direct(n_qubits=6.0, grid=Grid(-0.5, 0.5, 6)), ConfigError, id="n_qubits 6.0"),
        pytest.param(lambda: _direct(num_layers=True), ConfigError, id="num_layers True"),
        pytest.param(lambda: _direct(num_layers=1.0), ConfigError, id="num_layers 1.0"),
        pytest.param(lambda: _direct(seed=3.9), ConfigError, id="seed 3.9"),
        pytest.param(lambda: DistSpec("normal", sigma2="0.01"), DistError, id="sigma2 str"),
        pytest.param(lambda: DistSpec("normal", sigma2=True), DistError, id="sigma2 True"),
        pytest.param(lambda: DistSpec("normal", mu=float("nan")), DistError, id="mu nan"),
        pytest.param(lambda: DistSpec("normal", sigma2=float("inf")), DistError, id="sigma2 inf"),
        pytest.param(lambda: DistSpec("normal", sigma2=10**400), DistError, id="sigma2 10**400"),
        pytest.param(lambda: DistSpec("table", weights=("1",) * 64), DistError, id="weights str"),
        pytest.param(lambda: DistSpec("table", weights=(1.0,) * 63 + (float("nan"),)), DistError, id="weights nan"),
        pytest.param(lambda: DistSpec("table", weights=(1.0,) * 63 + (-0.5,)), DistError, id="weights negative"),
        pytest.param(lambda: DistSpec("table", weights=(0.0,) * 64), DistError, id="weights all zero"),
        pytest.param(lambda: _direct(dist=DistSpec("table", weights=(1.0,) * 3), grid=Grid(0.0, 1.0, 6),
                                     method="baseline"), ConfigError, id="weights length 3 at n=6"),
        pytest.param(lambda: Grid("-1", 1.0, 4), DistError, id="grid.min str"),
        pytest.param(lambda: Grid(-1, 1.0, 4.5), DistError, id="grid n_qubits 4.5"),
    ],
)
def test_constructor_values_are_not_coerced(build, error):
    # the library door applies the same rules as config_from_dict
    with pytest.raises(error):
        build()


def test_both_doors_echo_the_same_config():
    doc = minimal_doc(dist={"kind": "normal", "mu": 0, "sigma2": 1}, grid={"min": -5, "max": 5})
    direct = _direct(dist=DistSpec("normal", mu=0, sigma2=1), grid=Grid(-5, 5, 6))
    echo = run_full(direct).report_doc["config"]
    assert json.dumps(echo) == json.dumps(run_full(config_from_dict(doc)).report_doc["config"])
    assert echo["grid"]["min"] == -5.0 and isinstance(echo["grid"]["min"], float)
    assert isinstance(echo["dist"]["mu"], float)


@pytest.mark.parametrize("kind", [k for k, fam in FAMILIES.items() if fam.pdf is not None])
def test_family_table(kind):
    fam = FAMILIES[kind]
    # off-default parameters, each still valid
    dist = {"kind": kind, **{k: v + 0.5 for k, v in fam.params.items()}}
    cfg = config_from_dict({"dist": dist, "n_qubits": 6})
    center, unit = fam.center(cfg.dist), fam.scale(cfg.dist)
    assert (cfg.grid.min, cfg.grid.max) == (center - 5.0 * unit, center + 5.0 * unit)
    echo = run_full(cfg).report_doc["config"]
    assert config_from_dict(echo).dist == cfg.dist
    assert config_from_dict(echo) == cfg
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_dict({"dist": {**dist, "scale": 1.0}, "n_qubits": 6})


@pytest.mark.parametrize("method", ["symmetry", "baseline"])
@pytest.mark.parametrize("convention", ["midpoint", "endpoint"])
@pytest.mark.parametrize("kind", list(FAMILIES))
def test_config_echo_reads_back_as_the_config(kind, convention, method):
    # the report's config echo is the config: through JSON and config_from_dict
    # it gives back the RunConfig that ran, a table's weights included
    if kind == "table":
        dist = {"kind": kind, "weights": [1.0, 2.0, 0.5, 4.0, 4.0, 0.5, 2.0, 1.0] * 2}
        grid = {"min": 0.0, "max": 1.0, "convention": convention}
    else:
        dist = {"kind": kind, **{k: v + 0.5 for k, v in FAMILIES[kind].params.items()}}
        grid = {"convention": convention}
    cfg = config_from_dict({"dist": dist, "grid": grid, "n_qubits": 4, "method": method, "seed": 3})
    echo = run_full(cfg).report_doc["config"]
    assert config_from_dict(json.loads(json.dumps(echo))) == cfg


def test_n_qubits_limits():
    # refused before any 2^n allocation: at n=40 a sampled grid is 8 TiB
    with pytest.raises(ConfigError, match="<= 24"):
        config_from_dict(minimal_doc(n_qubits=40))
    cfg = config_from_dict({"base": minimal_doc(method="baseline"), "vary": {"qubit_counts": [6, 25]}})
    reports, rows = sweep_full(cfg)
    assert len(reports) == 1 and rows[0]["error"] == ""
    assert "<= 24" in rows[1]["error"]


def test_symmetry_method_needs_symmetric_density():
    doc = minimal_doc(grid={"min": -0.5, "max": 1.5})  # center 0.5, mean 0
    with pytest.raises(ConfigError):
        config_from_dict(doc)
    assert config_from_dict({**doc, "method": "baseline"}).method == "baseline"
    # a table passes when its weights equal their mirror image, bit for bit
    tdoc = {
        "dist": {"kind": "table", "weights": [1.0] * 15 + [1.0 + 2**-52]},
        "grid": {"min": 0.0, "max": 1.0},
        "n_qubits": 4,
    }
    with pytest.raises(ConfigError, match="mirror symmetric"):
        config_from_dict(tdoc)
    cfg = config_from_dict({**tdoc, "dist": {"kind": "table", "weights": [1.0] * 16}})
    assert cfg.method == "symmetry"
    # the half state of a symmetric n=3 run is too small for a layer
    t3 = {**tdoc, "dist": {"kind": "table", "weights": [1.0] * 8}, "n_qubits": 3}
    with pytest.raises(ConfigError, match="n_qubits >= 4"):
        config_from_dict(t3)


def test_cli_runs_mirrored_table_with_symmetry(tmp_path, capsys):
    # method symmetry is the one declaration: the weights show the symmetry
    doc = {
        "dist": {"kind": "table", "weights": [1.0, 2.0, 3.0, 4.0] * 2 + [4.0, 3.0, 2.0, 1.0] * 2},
        "grid": {"min": 0.0, "max": 1.0},
        "n_qubits": 4,
        "method": "symmetry",
    }
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["method"] == "symmetry"
    assert report["config"]["dist"] == doc["dist"]
    unmirrored = {**doc, "dist": {"kind": "table", "weights": [1.0, 2.0, 3.0, 4.0] * 4}}
    assert main(["run", "--config", write_config(tmp_path, unmirrored, "unmirrored.json")]) == 2
    assert "mirror symmetric" in capsys.readouterr().err


def test_sweep_config_validation():
    base = minimal_doc()
    ok = config_from_dict({"base": base, "vary": {"bond_dims": [2, 4]}})
    assert isinstance(ok, SweepConfig)
    with pytest.raises(ConfigError):
        config_from_dict({"base": base, "vary": {"bond_dims": [4, 2]}})
    with pytest.raises(ConfigError):
        config_from_dict({"base": base, "vary": {"bond_dims": []}})
    with pytest.raises(ConfigError):
        config_from_dict({"base": base, "vary": {"bond_dims": [2, 6]}})  # not 2^L
    with pytest.raises(ConfigError):
        config_from_dict({"base": base, "vary": {"steps": [1, 2]}})
    with pytest.raises(ConfigError):
        config_from_dict({"base": base, "vary": {"bond_dims": [2], "layer_counts": [1]}})
    with pytest.raises(ConfigError):
        config_from_dict({"vary": {"bond_dims": [2]}})
    for bad_base in (5, [1], None):
        with pytest.raises(ConfigError, match="sweep base must be a run config object"):
            config_from_dict({"base": bad_base, "vary": {"bond_dims": [2]}})


def test_run_point_mass_table_is_exact():
    w = [0.0] * 16
    w[3] = 1.0
    cfg = config_from_dict(
        {
            "dist": {"kind": "table", "weights": w},
            "grid": {"min": 0.0, "max": 1.0},
            "n_qubits": 4,
            "method": "baseline",
        }
    )
    report = run(cfg)
    assert report.kl_divergence <= 1e-10
    assert report.classical_fidelity >= 1.0 - 1e-10


def test_run_report_document(tmp_path, capsys):
    out = tmp_path / "report.json"
    doc = minimal_doc()
    assert main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    capsys.readouterr()
    res = run_full(config_from_dict(doc))
    doc = json.loads(out.read_text())
    assert doc["artifact"]["name"] == "symprep"
    assert doc["config"]["method"] == "symmetry"
    assert doc["config"]["grid"]["min"] == -0.5
    assert set(doc["config"]) == {f.name for f in fields(RunConfig)}
    assert doc["metrics"]["kl_log_base"] == "natural"
    assert doc["metrics"]["kl_divergence"] == res.report.kl_divergence
    assert doc["gate_stats"]["two_qubit_gate_count"] == res.report.gate_stats.two_qubit_gate_count


def test_run_determinism():
    cfg = config_from_dict(minimal_doc())
    d1 = run_full(cfg).report_doc
    d2 = run_full(cfg).report_doc
    assert json.dumps(d1) == json.dumps(d2)


def test_run_circuit_export_path(tmp_path):
    out = tmp_path / "circ.json"
    cfg = write_config(tmp_path, minimal_doc())
    assert main(["export", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_text()
    doc = json.loads(text)
    assert doc["n_qubits"] == 6
    kinds = [g["kind"] for g in doc["gates"]]
    assert kinds.count("hadamard") == 1
    assert kinds.count("cnot") == 5
    # the pipeline is deterministic: export writes the circuit run_full emits
    assert text == export_circuit(run_full(config_from_dict(minimal_doc())).circuit, "json")


def test_sweep_rows_and_reports(tmp_path):
    out = tmp_path / "sweep.csv"
    doc = {"base": minimal_doc(), "vary": {"layer_counts": [1, 2]}}
    assert main(["sweep", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    reports = sweep(config_from_dict(doc))
    assert len(reports) == 2
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("varied_param,value,chi,num_layers,kl,")
    assert len(lines) == 3
    assert reports[1].kl_divergence <= reports[0].kl_divergence * 1.5


def test_sweep_qubit_counts():
    cfg = config_from_dict({"base": minimal_doc(), "vary": {"qubit_counts": [5, 6]}})
    reports, rows = sweep_full(cfg)
    assert len(reports) == 2
    assert rows[0]["value"] == 5 and rows[1]["value"] == 6
    assert all(row["error"] == "" for row in rows)


# a valid config whose density underflows to zero on every grid point: a
# runtime failure of stage sample_pdf
UNDERFLOW = {
    "dist": {"kind": "normal", "mu": 0.0, "sigma2": 1e-4},
    "grid": {"min": 10.0, "max": 11.0},
    "n_qubits": 4,
    "method": "baseline",
}


def test_sweep_continues_past_failures():
    cfg = config_from_dict({"base": UNDERFLOW, "vary": {"layer_counts": [1, 2]}})
    reports, rows = sweep_full(cfg)
    assert reports == []
    assert len(rows) == 2
    assert all("zero on every grid point" in row["error"] for row in rows)


def test_pipeline_error_carries_stage():
    cfg = config_from_dict(UNDERFLOW)
    with pytest.raises(PipelineError, match="stage sample_pdf: normal weights are zero on every grid point"):
        run(cfg)


def point_doc(base, key, value):
    if key == "qubit_counts":
        return {**base, "n_qubits": value}
    return {**base, "num_layers": value.bit_length() - 1 if key == "bond_dims" else value}


def per_point(doc):
    """(reports, rows) of a sweep document, every point a run_full of its own."""
    (key, values), = doc["vary"].items()
    reports, rows = [], []
    for value in values:
        row = {**dict.fromkeys(SWEEP_COLUMNS, ""), "varied_param": key, "value": value}
        try:
            cfg = config_from_dict(point_doc(doc["base"], key, value))
            rep = run_full(cfg).report
        except (ConfigError, PipelineError) as exc:
            row["error"] = str(exc)
        else:
            reports.append(rep)
            row.update(report_row(rep, cfg.num_layers))
        rows.append(row)
    return reports, rows


def assert_sweep_is_per_point(doc):
    reports, rows = sweep_full(config_from_dict(doc))
    want_reports, want_rows = per_point(doc)
    assert rows == want_rows
    assert rows_to_csv(rows) == rows_to_csv(want_rows)
    assert repr(reports) == repr(want_reports)  # float reprs round-trip: bit for bit
    return rows


FAMILY_DOCS = {
    "normal": {"dist": {"kind": "normal", "mu": 0.0, "sigma2": 0.01}, "grid": {"min": -0.5, "max": 0.5}},
    "lorentzian": {"dist": {"kind": "lorentzian", "gamma": 1.0}},
    "student_t": {"dist": {"kind": "student_t", "nu": 3.0}},
}
# each vary list holds one value that cannot run (0 layers, a symmetric
# run on 3 qubits), so error rows are compared too
VARY = {"layer_counts": [0, 1, 2, 4], "bond_dims": [2, 8], "qubit_counts": [3, 5, 7]}


@pytest.mark.parametrize("method", ["symmetry", "baseline"])
@pytest.mark.parametrize("family", sorted(FAMILY_DOCS))
@pytest.mark.parametrize("key", sorted(VARY))
def test_sweep_equals_per_point_runs(key, family, method):
    base = {**FAMILY_DOCS[family], "n_qubits": 8, "method": method}
    rows = assert_sweep_is_per_point({"base": base, "vary": {key: VARY[key]}})
    assert sum(not row["error"] for row in rows) >= 2


def test_sweep_falls_back_when_the_shared_run_fails(monkeypatch):
    # the largest point fails in build_stack: every point then runs alone,
    # and only the largest one's row carries the error
    real = pipeline.build_stack

    def no_third_layer(m, num_layers):
        if num_layers == 3:
            raise DisentanglerError("no third layer")
        return real(m, num_layers)

    monkeypatch.setattr(pipeline, "build_stack", no_third_layer)
    doc = {"base": minimal_doc(method="baseline"), "vary": {"layer_counts": [1, 2, 3]}}
    rows = assert_sweep_is_per_point(doc)
    assert [row["error"] for row in rows] == ["", "", "stage build_stack: no third layer"]


def test_layer_sweep_builds_one_stack(monkeypatch):
    # encode and build once, at the largest point: a (1, 3, 5) sweep makes
    # the SVD calls of one 5-layer run, where per-point runs make 1 + 3 + 5
    # layers' worth and three encodes
    real, calls = numerics.svd, []

    def counting(a):
        calls.append(1)
        return real(a)

    for name, mod in list(sys.modules.items()):
        if name == "symprep" or name.startswith("symprep."):
            for attr, val in list(vars(mod).items()):
                if val is real:
                    monkeypatch.setattr(mod, attr, counting)
    sweep_full(config_from_dict({"base": minimal_doc(n_qubits=9), "vary": {"layer_counts": [1, 3, 5]}}))
    swept = len(calls)
    calls.clear()
    run_full(config_from_dict(minimal_doc(n_qubits=9, num_layers=5)))
    assert swept == len(calls) > 0


@pytest.mark.parametrize("method", ["symmetry", "baseline"])
@pytest.mark.parametrize("vary", [{"layer_counts": [1, 2, 4]}, {"bond_dims": [2, 4, 16]}], ids=lambda v: next(iter(v)))
def test_sweep_points_score_the_largest_circuits_tail(vary, method, monkeypatch):
    # one prep_circuit per sweep: every smaller point simulates a tail of the
    # largest point's circuit, gate for gate the circuit its own run emits
    stacks, circuits = [], []
    monkeypatch.setattr(pipeline, "prep_circuit", lambda stack: stacks.append(stack) or prep_circuit(stack))
    monkeypatch.setattr(pipeline, "simulate", lambda c: circuits.append(c) or simulate(c))
    sweep_full(config_from_dict({"base": minimal_doc(n_qubits=7, method=method), "vary": vary}))
    assert len(stacks) == 1
    (key, values), = vary.items()
    layers = [v.bit_length() - 1 if key == "bond_dims" else v for v in values]
    assert len(circuits) == len(layers)  # the largest point's run simulates first
    for num_layers, circ in zip(layers[-1:] + layers[:-1], circuits):
        want = prep_circuit(stacks[0].prefix(num_layers))
        if method == "symmetry":
            want = add_reflection_wrapper(want)
        assert circ.n_qubits == want.n_qubits and len(circ.gates) == len(want.gates)
        for g, h in zip(circ.gates, want.gates):
            assert (g.kind, g.qubits) == (h.kind, h.qubits)
            assert (g.matrix is h.matrix is None) or g.matrix.tobytes() == h.matrix.tobytes()


def test_run_result_carries_its_stack():
    cfg = config_from_dict(minimal_doc(num_layers=2))
    res = run_full(cfg)
    assert len(res.stack.layers) == 2
    assert res.report.residual_infidelity == res.stack.residual_infidelity
    assert res.report.truncation_error == res.stack.truncation_history[-1]
    assert res.report_doc["metrics"]["residual_history"] == list(res.stack.residual_history)
    target, m = encode(cfg)
    assert np.array_equal(target.p, res.target.p) and m.n_qubits == 5  # the half state


def test_runconfig_direct_validation():
    spec = DistSpec("normal", mu=0.0, sigma2=0.01)
    grid = Grid(-0.5, 0.5, 6)
    with pytest.raises(ConfigError):
        RunConfig(dist=spec, grid=grid, n_qubits=7)  # grid width mismatch
    with pytest.raises(ConfigError):
        RunConfig(dist=spec, grid=Grid(-0.5, 0.5, 3), n_qubits=3)  # symmetric n=3


def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg = write_config(tmp_path, minimal_doc())
    assert main(["run", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["metrics"]["kl_divergence"] > 0

    bad = write_config(tmp_path, minimal_doc(bogus=1), "bad.json")
    assert main(["run", "--config", bad]) == 2
    assert "unknown key" in capsys.readouterr().err

    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()

    sweep_doc = {"base": minimal_doc(), "vary": {"bond_dims": [2]}}
    sweep_cfg = write_config(tmp_path, sweep_doc, "sweep.json")
    assert main(["run", "--config", sweep_cfg]) == 2
    capsys.readouterr()

    underflow = write_config(tmp_path, UNDERFLOW, "underflow.json")
    assert main(["run", "--config", underflow]) == 1
    assert "sample_pdf" in capsys.readouterr().err


def test_cli_sweep_csv(tmp_path, capsys):
    doc = {"base": minimal_doc(), "vary": {"bond_dims": [2, 4]}}
    cfg = write_config(tmp_path, doc, "sweep.json")
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "bond_dims"


def test_cli_sweep_json_equals_csv(tmp_path, capsys):
    # the n=3 point fails (method symmetry needs 4 qubits): its row holds the error
    doc = {"base": minimal_doc(), "vary": {"qubit_counts": [3, 4, 5]}}
    cfg = write_config(tmp_path, doc, "sweep.json")
    assert main(["sweep", "--config", cfg]) == 0
    text = capsys.readouterr().out
    assert main(["sweep", "--config", cfg, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [list(r) for r in rows] == [SWEEP_COLUMNS] * 3
    assert rows[0]["error"] and not rows[1]["error"]
    assert rows_to_csv(rows) == text


def test_cli_export_and_inspect(tmp_path, capsys):
    cfg = write_config(tmp_path, minimal_doc())
    assert main(["export", "--config", cfg, "--format", "qasm_like"]) == 0
    text = capsys.readouterr().out
    assert "h q0" in text and "cx q0,q5" in text

    out = tmp_path / "state.json"
    assert main(["inspect-mps", "--config", cfg, "--out", str(out)]) == 0
    summary = capsys.readouterr().out
    assert '"canonical": true' in summary
    saved = json.loads(out.read_text())
    assert saved["n_qubits"] == 5  # symmetry method encodes the half state

    # without --out the MPS goes nowhere: stdout holds the summary alone
    assert main(["inspect-mps", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["n_qubits"] == 5
    with pytest.raises(SystemExit):
        main(["inspect-mps", "--help"])
    assert "the MPS is not written" in " ".join(capsys.readouterr().out.split())


def test_cli_inspect_names_the_failing_stage(tmp_path, capsys):
    # inspect-mps runs the pipeline's encode step, so its errors read as run's
    assert main(["inspect-mps", "--config", write_config(tmp_path, UNDERFLOW)]) == 1
    assert "error: stage sample_pdf: normal weights are zero on every grid point" in capsys.readouterr().err


def test_cli_seed_recorded(tmp_path, capsys):
    cfg = write_config(tmp_path, minimal_doc(seed=7))
    assert main(["run", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["seed"] == 7


@pytest.mark.parametrize("command", ["run", "sweep", "export", "inspect-mps"])
def test_cli_refuses_restated_settings(command, tmp_path, capsys):
    # the config holds seed and method (the one symmetry declaration); no
    # option restates them, and inspect-mps has one output format, so it
    # takes no --format
    cfg = write_config(tmp_path, minimal_doc())
    options = [["--seed", "1"], ["--assume-symmetric"]]
    if command == "inspect-mps":
        options.append(["--format", "json"])
    for option in options:
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, *option])
        assert exc.value.code == 2
        assert option[0] in capsys.readouterr().err


def test_outputs_is_an_unknown_key(tmp_path, capsys):
    # output paths belong to the command line (--out), not to the config
    outputs = {"report_path": "r.json"}
    run_doc = minimal_doc(outputs=outputs)
    sweep_doc = {"base": minimal_doc(outputs=outputs), "vary": {"bond_dims": [2]}}
    for command, doc in (("run", run_doc), ("sweep", sweep_doc)):
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_dict(doc)
        assert main([command, "--config", write_config(tmp_path, doc)]) == 2
        assert "unknown key" in capsys.readouterr().err


def test_report_csv_format(tmp_path, capsys):
    cfg = write_config(tmp_path, minimal_doc())
    assert main(["run", "--config", cfg, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "chi,num_layers,kl,fidelity,q_measure,truncation_error,residual,cnot_depth_analytic"
    assert len(lines) == 2


def test_cli_writes_outputs_atomically(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, minimal_doc())
    out = tmp_path / "out"
    out.mkdir()
    report, circ = out / "report.json", out / "circ.qasm"
    assert main(["run", "--config", cfg, "--out", str(report)]) == 0
    assert str(report) in capsys.readouterr().out
    assert json.loads(report.read_text())["config"]["n_qubits"] == 6
    assert main(["export", "--config", cfg, "--format", "qasm_like", "--out", str(circ)]) == 0
    assert "cx q0,q5" in circ.read_text()
    assert sorted(p.name for p in out.iterdir()) == ["circ.qasm", "report.json"]

    # a failed write removes its temp file: a directory cannot be replaced
    for command in ("run", "export"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert "error" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["circ.qasm", "report.json"]

    # the library writes nothing
    empty = tmp_path / "empty"
    empty.mkdir()
    monkeypatch.chdir(empty)
    run_full(config_from_dict(minimal_doc()))
    assert list(empty.iterdir()) == []
