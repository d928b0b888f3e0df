"""Set-up probe: a fresh interpreter imports symprep and runs one tiny job.

`run.py` times this script as a whole process, which is the set-up cost every
CLI invocation pays before its real work. Run it with `src` on PYTHONPATH.
"""

from symprep.pipeline import config_from_dict, run_full

if __name__ == "__main__":
    cfg = config_from_dict(
        {"dist": {"kind": "normal", "mu": 0.0, "sigma2": 0.01}, "n_qubits": 4, "method": "symmetry"}
    )
    run_full(cfg)
