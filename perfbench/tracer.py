"""Per-module spans around symprep's public functions, installed from outside.

`Tracer.install` replaces each traced function, in every loaded `symprep`
module namespace that binds it, with a wrapper that records a span: wall
time, time covered by traced children (so self time = span - children) and
per-function counters. Nothing in symprep is edited; `uninstall` restores
the original objects.

A traced name that is missing raises at install time, and `check_called`
raises when a function a workload must call was never called, so a later
refactor cannot make the per-layer numbers silently read zero.
"""

from __future__ import annotations

import importlib
import sys
import time

import numpy as np

PACKAGE = "symprep"

ALL = ("deep-stack", "wide-verify", "sweep-mix")
SWEEP = ("sweep-mix",)

# (module, public function, workloads that must call it)
TRACED = (
    ("numerics", "svd", ALL),
    ("numerics", "complete_isometry", ALL),
    ("dist", "sample_pdf", ALL),
    ("dist", "left_half", ALL),
    ("dist", "amplitudes", ALL),
    ("mps", "mps_from_statevector", ALL),
    ("mps", "truncate", ALL),
    ("disentangler", "build_stack", ALL),
    ("disentangler", "build_layer", ALL),
    ("circuit", "prep_circuit", ALL),
    ("circuit", "add_reflection_wrapper", ALL),
    ("circuit", "simulate", ALL),
    ("circuit", "accounting", ALL),
    ("statevec", "apply_1q", ALL),
    ("statevec", "apply_2q", ALL),
    ("metrics", "kl_divergence", ALL),
    ("metrics", "classical_fidelity", ALL),
    ("metrics", "meyer_wallach_purity", ALL),
    ("pipeline", "run_full", ALL),
    ("pipeline", "config_from_dict", SWEEP),
    ("pipeline", "sweep_full", SWEEP),
)

# counters that must repeat exactly from request to request of one config
EXACT_COUNTS = ("numerics.svd_calls", "mps.truncate_calls", "circuit.gates", "statevec.apply_calls")


class TraceError(RuntimeError):
    """The traced surface of symprep no longer matches the benchmark."""


class _Frame:
    __slots__ = ("key", "children", "child_by_key", "marks")

    def __init__(self, key):
        self.key = key
        self.children = 0.0
        self.child_by_key = {}
        self.marks = []


class Tracer:
    def __init__(self):
        self._patched = []  # (module object, attribute, original)
        self._stack = []
        self._active = {}
        self.total_calls = {}
        self._req = None

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        for mod_name in {m for m, _, _ in TRACED}:
            importlib.import_module(f"{PACKAGE}.{mod_name}")
        modules = [m for name, m in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for mod_name, fn_name, _ in TRACED:
            home = importlib.import_module(f"{PACKAGE}.{mod_name}")
            orig = getattr(home, fn_name, None)
            if not callable(orig):
                raise TraceError(f"{PACKAGE}.{mod_name}.{fn_name} is missing")
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))
            self.total_calls[f"{mod_name}.{fn_name}"] = 0

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def check_called(self, workload: str) -> None:
        missing = [f"{m}.{f}" for m, f, must in TRACED
                   if workload in must and self.total_calls.get(f"{m}.{f}", 0) == 0]
        if missing:
            raise TraceError(f"workload {workload} never called traced function(s) {missing}")

    # -- spans ----------------------------------------------------------
    def _wrap(self, key, fn):
        tracer = self

        def traced(*args, **kwargs):
            frame = _Frame(key)
            stack = tracer._stack
            outer = tracer._active.get(key, 0) == 0
            tracer._active[key] = tracer._active.get(key, 0) + 1
            if key == "mps.truncate":
                for f in reversed(stack):
                    if f.key == "disentangler.build_stack":
                        f.marks.append(time.perf_counter())
                        break
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                dt = t1 - t0
                stack.pop()
                tracer._active[key] -= 1
                if stack:
                    parent = stack[-1]
                    parent.children += dt
                    parent.child_by_key[key] = parent.child_by_key.get(key, 0.0) + dt
            tracer._record(frame, dt, t1, outer, args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def _record(self, frame, dt, t_end, outer, args, out) -> None:
        key = frame.key
        self.total_calls[key] += 1
        req = self._req
        if req is None:
            return
        calls, incl, self_s, extra = req["calls"], req["incl"], req["self"], req["extra"]
        calls[key] = calls.get(key, 0) + 1
        self_s[key] = self_s.get(key, 0.0) + dt - frame.children
        if outer:
            incl[key] = incl.get(key, 0.0) + dt
        if key == "numerics.svd":
            shape = np.shape(args[0])
            m, n = shape if len(shape) == 2 else (0, 0)
            extra["svd_work"] += m * n * min(m, n)
        elif key == "circuit.simulate":
            c = args[0]
            extra["gates"] += len(c.gates)
            extra["simulate_bytes"] += len(c.gates) * 2**c.n_qubits * 16
        elif key == "mps.mps_from_statevector":
            extra["max_bond"] = max(extra["max_bond"], max(out.bond_dims))
        elif key == "disentangler.build_stack":
            cb = frame.child_by_key
            extra["apply_s"] += dt - cb.get("mps.truncate", 0.0) - cb.get("disentangler.build_layer", 0.0)
            marks = frame.marks + [t_end]
            extra["layers"].extend(b - a for a, b in zip(marks, marks[1:]))

    # -- per-request collection -----------------------------------------
    def begin_request(self) -> None:
        self._req = {
            "calls": {}, "incl": {}, "self": {},
            "extra": {"svd_work": 0, "gates": 0, "simulate_bytes": 0,
                      "max_bond": 0, "apply_s": 0.0, "layers": []},
        }

    def end_request(self) -> dict:
        """Per-layer figures of the request just finished."""
        req, self._req = self._req, None
        calls, incl, self_s, x = req["calls"], req["incl"], req["self"], req["extra"]
        c = lambda k: calls.get(k, 0)  # noqa: E731
        t = lambda k: incl.get(k, 0.0)  # noqa: E731
        figures = {
            "numerics.svd_calls": c("numerics.svd"),
            "numerics.svd_s": t("numerics.svd"),
            "numerics.svd_work": x["svd_work"],
            "numerics.complete_isometry_calls": c("numerics.complete_isometry"),
            "numerics.complete_isometry_s": t("numerics.complete_isometry"),
            "mps.truncate_calls": c("mps.truncate"),
            "mps.truncate_s": t("mps.truncate"),
            "mps.from_statevector_s": t("mps.mps_from_statevector"),
            "mps.max_bond": x["max_bond"],
            "disentangler.build_stack_s": t("disentangler.build_stack"),
            "disentangler.build_layer_s": t("disentangler.build_layer"),
            "disentangler.apply_s": x["apply_s"],
            "disentangler.layer_s": sum(x["layers"]) / len(x["layers"]) if x["layers"] else 0.0,
            "circuit.prep_circuit_s": t("circuit.prep_circuit"),
            "circuit.reflection_wrapper_s": t("circuit.add_reflection_wrapper"),
            "circuit.simulate_s": t("circuit.simulate"),
            "circuit.accounting_s": t("circuit.accounting"),
            "circuit.gates": x["gates"],
            "circuit.simulate_bytes": x["simulate_bytes"],
            "statevec.apply_calls": c("statevec.apply_1q") + c("statevec.apply_2q"),
            "statevec.apply_s": t("statevec.apply_1q") + t("statevec.apply_2q"),
            "metrics.kl_s": t("metrics.kl_divergence"),
            "metrics.fidelity_s": t("metrics.classical_fidelity"),
            "metrics.meyer_wallach_s": t("metrics.meyer_wallach_purity"),
            "dist.sample_pdf_s": t("dist.sample_pdf"),
            "dist.left_half_s": t("dist.left_half"),
            "dist.amplitudes_s": t("dist.amplitudes"),
            "pipeline.self_s": self_s.get("pipeline.run_full", 0.0),
            "pipeline.sweep_self_s": self_s.get("pipeline.sweep_full", 0.0),
            "pipeline.config_s": t("pipeline.config_from_dict"),
        }
        return {"figures": figures, "self_s": dict(self_s), "layers": x["layers"]}
