"""Per-metric drift of every benchmark run between two source trees.

    python3 tools/drift.py OTHER_SRC

Runs every `run_full` call of `tools/digest.py`'s pools (seeds 0-2, each
sweep expanded to its points) once under this checkout's `src/` and once
under OTHER_SRC (say, the `src/` of a checkout of the parent commit), each
in a child process, and prints one line per workload:

- max |dpsi|: the largest entry-wise difference of the simulated states;
- for KL, fidelity, Meyer-Wallach Q, residual and truncation error, the
  largest relative and absolute difference (relative to the larger of the
  two magnitudes; 0 when both are 0);
- whether the gate kinds and wires, the gate stats and the bond dims of the
  encoded MPS are equal on every run.

A change that moves only the last bits of outputs reports these figures
instead of a digest that no longer matches. Like the digest, the requests
are the benchmark's own, imported read-only from `perfbench/`.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"

METRICS = {
    "kl": "kl_divergence",
    "fidelity": "classical_fidelity",
    "q": "meyer_wallach_q",
    "residual": "residual_infidelity",
    "truncation": "truncation_error",
}


def dump(name: str, out: str) -> None:
    """Child: run the workload's `run_full` calls and pickle what is compared."""
    import digest  # pins BLAS as the benchmark does, then loads numpy

    from symprep.pipeline import encode

    records = []
    for item in digest.requests(name):
        if not isinstance(item, digest.run.RunItem):
            continue
        res = item.call()
        records.append({
            "state": res.state,
            "metrics": {k: getattr(res.report, attr) for k, attr in METRICS.items()},
            "gates": [(g.kind, tuple(g.qubits)) for g in res.circuit.gates],
            "gate_stats": dataclasses.asdict(res.report.gate_stats),
            "bond_dims": encode(item.cfg)[1].bond_dims,
        })
    with open(out, "wb") as f:
        pickle.dump(records, f)


def _records(src: Path, name: str, tmp: str) -> list:
    out = os.path.join(tmp, "records.pkl")
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, __file__, "--dump", name, out], env=env, check=True)
    with open(out, "rb") as f:
        return pickle.load(f)


def _delta(a: float, b: float) -> tuple[float, float]:
    d = abs(a - b)
    scale = max(abs(a), abs(b))
    return (d / scale if scale else 0.0), d


def compare(name: str, ours: list, theirs: list) -> str:
    if len(ours) != len(theirs):
        return f"{name} run counts differ: {len(ours)} vs {len(theirs)}"
    dpsi = max(float(np.max(np.abs(a["state"] - b["state"]))) for a, b in zip(ours, theirs))
    parts = [f"{name} runs {len(ours)} max|dpsi| {dpsi:.2g}"]
    for key in METRICS:
        deltas = [_delta(a["metrics"][key], b["metrics"][key]) for a, b in zip(ours, theirs)]
        rel, ab = (max(col) for col in zip(*deltas))
        parts.append(f"{key} rel {rel:.2g} abs {ab:.2g}")
    for key in ("gates", "gate_stats", "bond_dims"):
        same = all(a[key] == b[key] for a, b in zip(ours, theirs))
        parts.append(f"{key} {'equal' if same else 'DIFFER'}")
    return ", ".join(parts)


def main() -> None:
    if len(sys.argv) == 4 and sys.argv[1] == "--dump":
        dump(sys.argv[2], sys.argv[3])
        return
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    other = Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads  # the pool names only; symprep is not imported here

    for name in workloads.POOLS:
        with tempfile.TemporaryDirectory() as tmp:
            ours = _records(SRC, name, tmp)
            theirs = _records(other, name, tmp)
        print(compare(name, ours, theirs), flush=True)


if __name__ == "__main__":
    main()
