"""Print three SHA-256 per benchmark workload: a byte-level parity check.

    PYTHONPATH=src python3 tools/digest.py

symprep is imported from PYTHONPATH, so pointing it at two source trees
(say, a checkout of the parent commit and the working tree) and comparing
the printed lines tells whether a change kept every output bit-identical.

The requests and their fingerprints are the benchmark's own, imported
read-only from `perfbench/run.py`: per workload and seed in SEEDS,
`make_items` gives the pool, and each output goes into the first hash
through `RunItem.fingerprint` (sorted report document, state bytes) or
`SweepItem.fingerprint` (sweep rows and reports). This tool adds the
emitted gates, which those fingerprints leave out: every gate's kind,
wires and matrix bytes, of each `run_full` request and, for sweep-mix, of
a `run_full` of each sweep point.

The second hash, after `states+gates`, covers only the state bytes and the
emitted gates of the same `run_full` calls, no report document or sweep
row. A change that moves only the last bits of reported metrics changes
the first hash and keeps the second.

The third, after `gates`, covers only the emitted gates. A change that moves
only the last bits of simulated states (a new dense kernel, say) changes
the first two and keeps the third, which shows the circuits are unchanged.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

# run.py pins BLAS to one thread before numpy loads, as the benchmark runs.
import run  # noqa: E402
import workloads  # noqa: E402

import numpy as np  # noqa: E402

SEEDS = (0, 1, 2)


def _update_run(full, core, gates, item: run.RunItem) -> None:
    res = item.call()
    full.update(repr(item.fingerprint(res)).encode())
    core.update(np.ascontiguousarray(res.state).tobytes())
    for g in res.circuit.gates:
        for h in (full, core, gates):
            h.update(repr((g.kind, g.qubits)).encode())
            if g.matrix is not None:
                h.update(g.matrix.tobytes())


def requests(name: str):
    """Every request of the workload's pools for SEEDS, in order; each sweep
    is followed by a `run_full` RunItem of each of its points."""
    for seed in SEEDS:
        for item in run.make_items(name, seed):
            yield item
            if isinstance(item, run.SweepItem):
                for point in workloads.sweep_points(item.doc):
                    yield run.RunItem(point)


def workload_digests(name: str) -> tuple[str, str, str]:
    """(hash of reports, states and gates; of states and gates; of gates)."""
    full, core, gates = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for item in requests(name):
        if isinstance(item, run.SweepItem):
            full.update(repr(item.fingerprint(item.call())).encode())
        else:
            _update_run(full, core, gates, item)
    return full.hexdigest(), core.hexdigest(), gates.hexdigest()


def main() -> None:
    for name in workloads.POOLS:
        full, core, gates = workload_digests(name)
        print(f"{name} {full} states+gates {core} gates {gates}", flush=True)


if __name__ == "__main__":
    main()
