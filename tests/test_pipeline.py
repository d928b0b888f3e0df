"""Config parsing, end-to-end runs, sweeps, and the CLI surface."""

import json

import numpy as np
import pytest

from symprep.cli import main
from symprep.pipeline import (
    ConfigError,
    PipelineError,
    RunConfig,
    SweepConfig,
    config_from_dict,
    parse_config,
    run,
    run_full,
    sweep,
    sweep_full,
)
from symprep.dist import FAMILIES, DistSpec, Grid


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
    assert (c2.grid.min, c2.grid.max) == (-10.0, 10.0)
    with pytest.raises(ConfigError):
        config_from_dict({"dist": {"kind": "table", "weights": [1.0] * 64}, "n_qubits": 6})


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
        {"chi_work": 4.5},
        {"dist": {"kind": "normal", "sigma2": "0.01"}},
        {"grid": {"min": "-1", "max": 1.0}},
        {"dist": {"kind": "table", "weights": [1.0] * 64, "assume_symmetric": "no"},
         "grid": {"min": 0.0, "max": 1.0}},
        {"dist": {"kind": "table", "weights": ["1"] * 64}, "grid": {"min": 0.0, "max": 1.0}},
        {"dist": {"kind": "table", "path": 5}, "grid": {"min": 0.0, "max": 1.0}},
        {"dist": 5},
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
    # tables only pass with the explicit flag
    tdoc = {
        "dist": {"kind": "table", "weights": [1.0] * 16},
        "grid": {"min": 0.0, "max": 1.0},
        "n_qubits": 4,
    }
    with pytest.raises(ConfigError):
        config_from_dict(tdoc)
    cfg = config_from_dict(tdoc, assume_symmetric=True)
    assert cfg.dist.assume_symmetric
    # the half state of a symmetric n=3 run is too small for a layer
    t3 = {**tdoc, "dist": {"kind": "table", "weights": [1.0] * 8}, "n_qubits": 3}
    with pytest.raises(ConfigError, match="n_qubits >= 4"):
        config_from_dict(t3, assume_symmetric=True)


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
    doc = minimal_doc(outputs={"report_path": str(out)})
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 0
    capsys.readouterr()
    res = run_full(config_from_dict(doc))
    doc = json.loads(out.read_text())
    assert doc["artifact"]["name"] == "symprep"
    assert doc["config"]["method"] == "symmetry"
    assert doc["config"]["grid"]["min"] == -0.5
    assert doc["metrics"]["kl_log_base"] == "natural"
    assert doc["metrics"]["kl_divergence"] == res.report.kl_divergence
    assert doc["gate_stats"]["two_qubit_gate_count"] == res.report.gate_stats.two_qubit_gate_count


def test_run_determinism():
    cfg = config_from_dict(minimal_doc())
    d1 = run_full(cfg).report_doc
    d2 = run_full(cfg).report_doc
    assert json.dumps(d1) == json.dumps(d2)


def test_run_circuit_export_path(tmp_path, capsys):
    out = tmp_path / "circ.json"
    cfg = write_config(tmp_path, minimal_doc(outputs={"circuit_path": str(out)}))
    assert main(["run", "--config", cfg]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["n_qubits"] == 6
    kinds = [g["kind"] for g in doc["gates"]]
    assert kinds.count("hadamard") == 1
    assert kinds.count("cnot") == 5


def test_sweep_rows_and_reports(tmp_path):
    out = tmp_path / "sweep.csv"
    doc = {
        "base": minimal_doc(outputs={"report_path": str(out)}),
        "vary": {"layer_counts": [1, 2]},
    }
    assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 0
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


def test_sweep_continues_past_failures(tmp_path):
    missing = str(tmp_path / "nope.csv")
    base = {
        "dist": {"kind": "table", "path": missing},
        "grid": {"min": 0.0, "max": 1.0},
        "n_qubits": 4,
        "method": "baseline",
    }
    cfg = config_from_dict({"base": base, "vary": {"layer_counts": [1, 2]}})
    reports, rows = sweep_full(cfg)
    assert reports == []
    assert len(rows) == 2
    assert all("not found" in row["error"] for row in rows)


def test_pipeline_error_carries_stage(tmp_path):
    missing = str(tmp_path / "nope.csv")
    cfg = config_from_dict(
        {
            "dist": {"kind": "table", "path": missing},
            "grid": {"min": 0.0, "max": 1.0},
            "n_qubits": 4,
            "method": "baseline",
        }
    )
    with pytest.raises(PipelineError, match="sample_pdf"):
        run(cfg)


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

    missing_table = write_config(
        tmp_path,
        {
            "dist": {"kind": "table", "path": str(tmp_path / "nope.csv")},
            "grid": {"min": 0.0, "max": 1.0},
            "n_qubits": 4,
            "method": "baseline",
        },
        "table.json",
    )
    assert main(["run", "--config", missing_table]) == 1
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


def test_cli_seed_recorded(tmp_path, capsys):
    cfg = write_config(tmp_path, minimal_doc())
    assert main(["run", "--config", cfg, "--seed", "7"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["seed"] == 7


def test_report_csv_format(tmp_path, capsys):
    cfg = write_config(tmp_path, minimal_doc())
    assert main(["run", "--config", cfg, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "chi,num_layers,kl,fidelity,q_measure,truncation_error,residual,cnot_depth_analytic"
    assert len(lines) == 2


def test_cli_writes_outputs_atomically(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    report, circ = out / "report.json", out / "circ.qasm"
    doc = minimal_doc(outputs={"report_path": str(report), "circuit_path": str(circ)})
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 0
    assert str(report) in capsys.readouterr().out
    assert json.loads(report.read_text())["config"]["n_qubits"] == 6
    assert "cx q0,q5" in circ.read_text()
    assert sorted(p.name for p in out.iterdir()) == ["circ.qasm", "report.json"]

    # a failed write removes its temp file: a directory cannot be replaced
    doc = minimal_doc(outputs={"report_path": str(out)})
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 1
    capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == ["circ.qasm", "report.json"]

    # the CLI owns 'outputs'; 'format' is not one of its keys
    bad = write_config(tmp_path, minimal_doc(outputs={"format": "json"}), "bad.json")
    assert main(["run", "--config", bad]) == 2
    assert "unknown key" in capsys.readouterr().err

    # the library writes nothing, whatever the document's outputs say
    empty = tmp_path / "empty"
    empty.mkdir()
    monkeypatch.chdir(empty)
    run_full(config_from_dict(minimal_doc(outputs={"report_path": "r.json", "circuit_path": "c.json"})))
    assert list(empty.iterdir()) == []
