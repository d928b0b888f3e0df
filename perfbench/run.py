"""Closed-loop benchmark of symprep: one client, one request at a time.

    python3 perfbench/run.py --workload deep-stack --seed 1 --seconds 20 --trace 0

Run from the repository root (the sources are read from `src/`). A request
is one `run_full` call (deep-stack, wide-verify) or one `config_from_dict` +
`sweep_full` call (sweep-mix). Each run:

1. times set-up: fresh interpreters that import symprep and run a tiny job;
2. sends one untimed warm-up pass of the workload's pool and keeps a
   fingerprint of every output;
3. sends whole passes for `--seconds`, timing each request and, just before
   it, a fixed reference kernel, and comparing each output with its warm-up
   fingerprint (outside the timed call);
4. re-runs every pool entry once more and checks it against the
   benchmark's own dense interpreter, KL and fidelity recomputation and, for
   sweeps, against single `run_full` calls of every sweep point.

With `--trace 1` untraced passes alternate with passes in which every traced
public symprep function is wrapped by `tracer.Tracer`; the result then holds
the per-layer figures and the tracing overhead instead of the end-to-end
metrics, and the run fails if the traced self times do not account for the
untraced request time within that overhead. The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: on a small shared box the default thread pool
# makes small-matrix LAPACK calls slower and far noisier.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import EXACT_COUNTS, Tracer  # noqa: E402

SETUP_REPEATS = 7
IMPORT_REPEATS = 3
SUBPROCESS_TIMEOUT_S = 60
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
# share of request_s the traced self times may stray beyond the overhead
ACCOUNT_MARGIN = 0.01


class BenchError(RuntimeError):
    pass


# -- environment and set-up -------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_probe(extra_args=()) -> tuple[float, str]:
    cmd = [sys.executable, *extra_args, str(HERE / "probe.py")]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return dt, proc.stderr


def measure_setup() -> tuple[float, list]:
    times = [run_probe()[0] for _ in range(SETUP_REPEATS)]
    return statistics.median(times), times


def measure_dist_import() -> float:
    """Cumulative import time of symprep.dist (scipy.stats included), from
    `python -X importtime`, median over a few fresh interpreters."""
    values = []
    for _ in range(IMPORT_REPEATS):
        _, err = run_probe(("-X", "importtime"))
        for line in err.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] == "symprep.dist":
                values.append(int(parts[1]) * 1e-6)
                break
        else:
            raise BenchError("-X importtime printed no line for symprep.dist")
    return statistics.median(values)


def environment() -> dict:
    import scipy

    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    blas = {"name": info.get("name"), "version": info.get("version")}

    return {
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


# -- requests ---------------------------------------------------------------

class RunItem:
    """One run_full request on a config parsed once, outside the timing."""

    def __init__(self, doc):
        from symprep.pipeline import config_from_dict

        self.doc = doc
        self.cfg = config_from_dict(doc)

    def call(self):
        from symprep.pipeline import run_full

        return run_full(self.cfg)

    @staticmethod
    def fingerprint(res):
        digest = hashlib.blake2b(np.ascontiguousarray(res.state).tobytes(), digest_size=16)
        return json.dumps(res.report_doc, sort_keys=True), digest.hexdigest()

    def check(self):
        problems, record = checks.check_result(self.call())
        return problems, [record]


class SweepItem:
    """One config_from_dict + sweep_full request."""

    def __init__(self, doc):
        self.doc = doc

    def call(self):
        from symprep.pipeline import config_from_dict, sweep_full

        return sweep_full(config_from_dict(self.doc))

    @staticmethod
    def fingerprint(out):
        reports, rows = out
        errors = [row["error"] for row in rows if row["error"]]
        if errors:
            return ("error", tuple(errors))
        return json.dumps(rows, sort_keys=True), repr(reports)

    def check(self):
        from symprep.pipeline import config_from_dict, run_full

        reports, rows = self.call()
        problems, records = [], []
        errors = [row["error"] for row in rows if row["error"]]
        if errors:
            return [f"sweep rows report errors: {errors}"], []
        points = workloads.sweep_points(self.doc)
        if len(points) != len(reports):
            return [f"sweep returned {len(reports)} reports for {len(points)} points"], []
        for point, swept in zip(points, reports):
            res = run_full(config_from_dict(point))
            if res.report != swept:
                problems.append(f"run_full report differs from sweep report at {point}")
            p, record = checks.check_result(res)
            problems.extend(p)
            records.append(record)
        return problems, records


def make_items(workload: str, seed: int):
    docs = workloads.POOLS[workload](seed)
    cls = SweepItem if workload == "sweep-mix" else RunItem
    return [cls(d) for d in docs]


# -- phases -----------------------------------------------------------------

def warm_up(items) -> list:
    """Fingerprint of each pool entry's first output."""
    expected = []
    for item in items:
        try:
            expected.append(item.fingerprint(item.call()))
        except Exception as exc:  # counted: every later request of this item fails
            expected.append(("raised", repr(exc)))
    return expected


# The host's speed drifts by tens of percent over tens of seconds (other
# tenants), so one run's raw request times follow the drift. Each request is
# therefore also timed against this fixed reference, run just before it on
# the same core; the ratio cancels most of the drift. SVDs of the sizes an
# MPS sweep meets tracked all three workloads better than a mix of small SVDs
# and a pure-Python loop did (run-to-run spread of the ratio 0.04-0.06
# against 0.06-0.09 on deep-stack and sweep-mix).
_REF_MATS = [
    np.random.default_rng(0).normal(size=shape)
    for shape in [(64, 32)] * 2 + [(32, 16)] * 6 + [(16, 8)] * 20 + [(8, 4)] * 20
]


def reference_kernel() -> float:
    """Wall time of a fixed set of 48 small SVDs (~2.5 ms)."""
    t0 = time.perf_counter()
    for m in _REF_MATS:
        np.linalg.svd(m, full_matrices=False)
    return time.perf_counter() - t0


class Phase:
    """Requests sent in one mode (untraced or traced) and their outcomes."""

    def __init__(self, size: int):
        self.durations = [[] for _ in range(size)]
        self.ref_durations = [[] for _ in range(size)]
        self.traces = [[] for _ in range(size)]
        self.failed = [0] * size
        self.failures = []
        self.attempted = 0
        self.pass_walls = []


def send_pass(items, expected, phase: Phase, tracer=None) -> None:
    """One closed-loop pass over the pool: each request waits for the last."""
    start = time.perf_counter()
    for i, item in enumerate(items):
        phase.ref_durations[i].append(reference_kernel())
        if tracer is not None:
            tracer.begin_request()
        t0 = time.perf_counter()
        try:
            out = item.call()
        except Exception as exc:  # a failed request is counted, not fatal
            out, err = None, repr(exc)
        else:
            err = None
        dt = time.perf_counter() - t0
        if tracer is not None:
            phase.traces[i].append(tracer.end_request())
        phase.attempted += 1
        phase.durations[i].append(dt)
        if err is None and expected[i][0] in ("raised", "error"):
            err = f"warm-up failed: {expected[i][1]}"
        if err is None and item.fingerprint(out) != expected[i]:
            err = "output differs from the warm-up output"
        if err is not None:
            phase.failed[i] += 1
            phase.failures.append(f"item {i}: {err}")
        del out
    phase.pass_walls.append(time.perf_counter() - start)


def timed_phases(items, expected, seconds, tracer=None) -> list:
    """Whole passes until `seconds` have elapsed; with a tracer, untraced and
    traced passes alternate so both see the same machine conditions."""
    phases = [Phase(len(items)) for _ in range(1 if tracer is None else 2)]
    start = time.perf_counter()
    while True:
        send_pass(items, expected, phases[0])
        if tracer is not None:
            tracer.install()
            try:
                send_pass(items, expected, phases[1], tracer)
            finally:
                tracer.uninstall()
        if time.perf_counter() - start >= seconds:
            return phases


def check_phase(items) -> tuple[list, list, list]:
    """(problems, accuracy records, indices of items with problems)."""
    problems, records, bad = [], [], []
    for i, item in enumerate(items):
        try:
            p, r = item.check()
        except Exception as exc:
            p, r = [f"check raised {exc!r}"], []
        if p:
            bad.append(i)
            problems.extend(f"item {i}: {msg}" for msg in p)
        records.extend(r)
    return problems, records, bad


# -- aggregation ------------------------------------------------------------

def pool_request_s(durations) -> float:
    """Mean over pool entries of each entry's median request time."""
    return statistics.fmean(statistics.median(d) for d in durations)


def ratios(phase: Phase) -> list:
    """Per pool entry, each request's time over its reference-kernel time."""
    return [[t / r for t, r in zip(d, refs)] for d, refs in zip(phase.durations, phase.ref_durations)]


def pass_ratio(phase: Phase) -> float:
    """Median over passes of the pass's request time over its reference time."""
    per_pass = zip(zip(*phase.durations), zip(*phase.ref_durations))
    return statistics.median(sum(d) / sum(r) for d, r in per_pass)


def tail(durations) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile that leaves at
    least TAIL_BEYOND samples above it, i.e. the (TAIL_BEYOND+1)-th largest."""
    flat = sorted(x for d in durations for x in d)
    n = len(flat)
    if n <= TAIL_BEYOND:
        return flat[-1], 100.0, n
    return flat[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def layer_figures(traces) -> dict:
    """Per-layer figures: per pool entry the median over its traced requests
    (exact counters must agree across them), then the mean over entries."""
    per_item = []
    for i, reqs in enumerate(traces):
        figs = [r["figures"] for r in reqs]
        for key in EXACT_COUNTS:
            vals = {f[key] for f in figs}
            if len(vals) != 1:
                raise BenchError(f"{key} differs between requests of pool entry {i}: {sorted(vals)}")
        per_item.append({k: statistics.median(f[k] for f in figs) for k in figs[0]})
    return {k: statistics.fmean(item[k] for item in per_item) for k in per_item[0]}


def self_time_table(traces) -> dict:
    keys = sorted({k for reqs in traces for r in reqs for k in r["self_s"]})
    return {
        k: statistics.fmean(statistics.median(r["self_s"].get(k, 0.0) for r in reqs) for reqs in traces)
        for k in keys
    }


def declared_metrics(section: str) -> dict:
    """name -> declaration, for one metric list of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m for m in json.load(fh)[section]}


def as_metrics(values: dict, section: str) -> dict:
    declared = declared_metrics(section)
    if set(values) != set(declared):
        raise BenchError(f"measured {sorted(set(values) ^ set(declared))} differ from BENCHMARK.json {section}")
    return {k: {"value": values[k], "unit": declared[k]["unit"]} for k in declared}


# -- main -------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.POOLS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "symprep" / "__init__.py").is_file():
        print(f"perfbench: no symprep sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment()
    if args.trace:
        dist_import_s = measure_dist_import()
    else:
        setup_s, setup_times = measure_setup()

    items = make_items(args.workload, args.seed)
    expected = warm_up(items)

    detail = {"workload": args.workload, "seed": args.seed, "pool": len(items), "env": env}
    tracer = Tracer() if args.trace else None
    runs = timed_phases(items, expected, args.seconds, tracer)
    plain = runs[0]
    if tracer is not None:
        tracer.check_called(args.workload)
        traced = runs[1]
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems, records, bad = check_phase(items)
    if not records:
        raise BenchError(f"no output could be checked: {problems[:5]}")
    attempted = sum(r.attempted for r in runs)
    # a request fails if it raised or differed from the warm-up output, and
    # every request of a pool entry whose output fails the checks fails too
    failed = sum(len(r.durations[i]) if i in bad else r.failed[i]
                 for r in runs for i in range(len(items)))
    problems += [msg for r in runs for msg in r.failures[:5]]
    correct = failed == 0 and not problems and bool(records)

    request_s = pool_request_s(plain.durations)
    tail_s, tail_pct, samples = tail(plain.durations)
    detail.update(
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted,
        problems=problems[:20],
        request_s_tail_percentile=tail_pct,
        request_samples=samples,
        durations_s=plain.durations,
        ref_durations_s=plain.ref_durations,
        pass_walls_s=plain.pass_walls,
        max_state_err=max((r["state_err"] for r in records), default=None),
        max_kl_err=max((r["kl_err"] for r in records), default=None),
    )

    if args.trace:
        figures = layer_figures(traced.traces)
        overhead_s = pool_request_s(traced.durations) - request_s
        # self times of all traced spans of a request, aggregated like request_s
        accounted_s = pool_request_s([[sum(r["self_s"].values()) for r in reqs] for reqs in traced.traces])
        if abs(accounted_s - request_s) > abs(overhead_s) + ACCOUNT_MARGIN * request_s:
            raise BenchError(
                f"traced self times sum to {accounted_s:.6g} s, untraced request_s is {request_s:.6g} s: "
                f"more apart than the tracing overhead {overhead_s:.6g} s"
            )
        figures["dist.import_s"] = dist_import_s
        figures["trace.overhead_s"] = overhead_s
        detail.update(
            untraced_request_s=request_s,
            accounted_s=accounted_s,
            self_s=self_time_table(traced.traces),
            layer_s_per_entry=[
                [statistics.median(r["layers"][j] for r in reqs) for j in range(len(reqs[0]["layers"]))]
                for reqs in traced.traces
            ],
        )
        metrics = as_metrics(figures, "per_layer")
    else:
        values = {
            "setup_s": setup_s,
            "request_ref": pass_ratio(plain),
            "request_ref_tail": tail(ratios(plain))[0],
            "peak_rss_mib": peak_rss_mib,
            "kl_geomean": statistics.geometric_mean(r["kl"] for r in records),
            "infidelity_max": max(1.0 - r["fidelity"] for r in records),
            "cnot_cost": statistics.fmean(r["cnot_cost"] for r in records),
            "cnot_depth": statistics.fmean(r["cnot_depth"] for r in records),
        }
        detail["setup_times_s"] = setup_times
        metrics = as_metrics(values, "end_to_end")
        declared = declared_metrics("end_to_end")
        rows = [(k, m["value"], m["unit"], f"{declared[k]['better']} is better, bound {declared[k]['bound']}")
                for k, m in metrics.items()]
        # Printed but not bounded: raw times follow the host's drift (see
        # reference_kernel), and failed_frac is 0 when all is well, so no
        # share of it can bound it; the result line carries failed/attempted.
        rows += [
            ("reference_s", statistics.median(x for d in plain.ref_durations for x in d), "s", "median"),
            ("request_s", request_s, "s", "lower is better, median"),
            ("request_s_tail", tail_s, "s", f"lower is better, p{tail_pct:.1f} of {samples} samples"),
            ("requests_per_s", (attempted - failed) / sum(plain.pass_walls), "1/s", "higher is better"),
            ("failed_frac", failed / attempted, "ratio", "lower is better"),
        ]
        for name, value, unit, note in rows:
            print(f"{args.workload:12s} {name:20s} {value:<14.6g} {unit:6s} {note}")

    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
