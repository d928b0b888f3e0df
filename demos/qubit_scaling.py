"""Grid resolution scaling: the one-layer KL barely moves with qubit count.

Doubling the grid resolution adds one qubit but the smooth density keeps
its entanglement structure, so a fixed-depth circuit holds its accuracy.
"""

import symprep as sp

dist = sp.DistSpec("normal", mu=0.0, sigma2=0.01)

print("n qubits   KL (symmetry, 1 layer)   CNOT depth   two-qubit gates")
for n in range(6, 16, 2):
    cfg = sp.RunConfig(
        dist=dist,
        grid=sp.Grid(-0.5, 0.5, n),
        n_qubits=n,
        method="symmetry",
        num_layers=1,
    )
    r = sp.run(cfg)
    g = r.gate_stats
    print(f"{n:8d}   {r.kl_divergence:21.4e}   {g.cnot_depth_counted:10d}   "
          f"{g.two_qubit_gate_count:15d}")
