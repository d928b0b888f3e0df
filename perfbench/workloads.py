"""Seeded request pools for the three benchmark workloads.

A pool is the list of requests one pass of the closed loop sends, in order.
The generators return plain config documents (the dicts `config_from_dict`
accepts), so symprep only ever sees the generated configs, never the seed.

- deep-stack: one normal density at n=14 with 11 disentangler layers, the
  symmetry and baseline methods alternating.
- wide-verify: the same density at n=20 with one layer, both methods.
- sweep-mix: 24 sweep requests, one per family x sweep shape x method.
  Each slot has a fixed qubit count and a fixed stratum of its family
  parameter; the seed draws the parameter within its stratum and shuffles
  the request order. The fixed structure keeps the work and accuracy of a
  whole pass nearly the same from seed to seed, so runs with different
  seeds compare.
"""

from __future__ import annotations

import random

NORMAL = {"kind": "normal", "mu": 0.0, "sigma2": 0.01}
NORMAL_GRID = {"min": -0.5, "max": 0.5}

# family -> (parameter key, low, high, fixed keys)
FAMILIES = {
    "normal": ("sigma2", 0.005, 0.05, {"mu": 0.0}),
    "lorentzian": ("gamma", 0.5, 2.0, {"x0": 0.0}),
    "student_t": ("nu", 1.5, 6.0, {}),
}
METHODS = ("symmetry", "baseline")

# (vary key, values); bond_dims chi maps to num_layers = log2(chi)
SWEEP_SHAPES = (
    ("layer_counts", (1, 3, 5)),
    ("layer_counts", (2, 4)),
    ("bond_dims", (2, 8, 32)),
    ("bond_dims", (4, 16)),
)
# qubit counts of the (symmetry, baseline) slots of one family and shape;
# fixed, because the work of a request grows steeply with n
QUBIT_SIZES = ((6, 7), (8, 9), (10, 11), (12, 11))


def fixed_pool(n_qubits: int, num_layers: int, seed: int) -> list[dict]:
    """Both methods on the normal density; the seed picks which goes first."""
    methods = list(METHODS)
    random.Random(seed).shuffle(methods)
    return [
        {
            "dist": dict(NORMAL),
            "grid": dict(NORMAL_GRID),
            "n_qubits": n_qubits,
            "num_layers": num_layers,
            "method": method,
            "seed": seed,
        }
        for method in methods
    ]


def sweep_pool(seed: int) -> list[dict]:
    """24 sweep documents (config_from_dict input) drawn from `seed`."""
    rng = random.Random(seed)
    docs = []
    for f, (family, (key, lo, hi, fixed)) in enumerate(FAMILIES.items()):
        width = (hi - lo) / (len(SWEEP_SHAPES) * len(METHODS))
        for s, (vary_key, values) in enumerate(SWEEP_SHAPES):
            # rotate the qubit sizes so each family meets every shape size
            sizes = QUBIT_SIZES[(s + f) % len(QUBIT_SIZES)]
            for m, (method, n_qubits) in enumerate(zip(METHODS, sizes)):
                stratum = s * len(METHODS) + m
                dist = {"kind": family, **fixed, key: lo + (stratum + rng.random()) * width}
                docs.append(
                    {
                        "base": {
                            "dist": dist,
                            "n_qubits": n_qubits,
                            "method": method,
                            "seed": seed,
                        },
                        "vary": {vary_key: list(values)},
                    }
                )
    rng.shuffle(docs)
    return docs


def sweep_points(doc: dict) -> list[dict]:
    """The single-run documents a sweep document expands to, in vary order."""
    (vary_key, values), = doc["vary"].items()
    points = []
    for v in values:
        layers = v.bit_length() - 1 if vary_key == "bond_dims" else v
        points.append({**doc["base"], "num_layers": layers})
    return points


POOLS = {
    "deep-stack": lambda seed: fixed_pool(14, 11, seed),
    "wide-verify": lambda seed: fixed_pool(20, 1, seed),
    "sweep-mix": sweep_pool,
}
