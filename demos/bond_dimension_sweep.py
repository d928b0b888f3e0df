"""Sweep the working bond dimension and watch the KL floor drop.

Each bond dimension chi = 2^L maps to L staircase layers. Runs the sweep
through the same code path the CLI uses and prints the CSV rows.
"""

import json

import symprep as sp
from symprep.pipeline import config_from_dict, rows_to_csv, sweep_full

doc = {
    "base": {
        "dist": {"kind": "normal", "mu": 0.0, "sigma2": 0.01},
        "grid": {"min": -0.5, "max": 0.5},
        "n_qubits": 10,
        "method": "symmetry",
    },
    "vary": {"bond_dims": [2, 4, 8, 16, 32]},
}

cfg = config_from_dict(doc)
reports, rows = sweep_full(cfg)

print(json.dumps(doc, indent=2))
print()
print(rows_to_csv(rows))

best = reports[-1]
print(f"chi = 32 reaches KL = {best.kl_divergence:.3e} "
      f"at CNOT depth {best.gate_stats.cnot_depth_counted}")
