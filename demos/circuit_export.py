"""Build a small preparation circuit, inspect it, and export both formats.

Shows the gate list the compiler emits for a 5-qubit symmetric target:
a reflection wrapper (H plus CNOT fan) around a staircase of two-qubit
blocks acting on the half register.
"""

import symprep as sp

cfg = sp.RunConfig(
    dist=sp.DistSpec("normal", mu=0.0, sigma2=0.01),
    grid=sp.Grid(-0.5, 0.5, 5),
    n_qubits=5,
    method="symmetry",
    num_layers=1,
)
res = sp.run_full(cfg)
circ = res.circuit

print(f"{circ.n_qubits} qubits, {len(circ.gates)} gates")
for g in circ.gates:
    print(f"  {g.kind:9s} on {g.qubits}")

stats = res.report.gate_stats  # accounting of the emitted circuit
print(f"\nCNOT depth = {stats.cnot_depth_counted}")
print(f"two-qubit gate count = {stats.two_qubit_gate_count}")

print("\nqasm-like export:")
print(sp.export_circuit(circ, "qasm_like"))

# json export round-trips bit exactly
text = sp.export_circuit(circ, "json")
again = sp.import_circuit(text)
assert [g.kind for g in again.gates] == [g.kind for g in circ.gates]
print(f"json export: {len(text)} bytes, round trip ok")
