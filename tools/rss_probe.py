"""Peak RSS of a fixed number of benchmark passes, in one process.

    PYTHONPATH=src python3 tools/rss_probe.py WORKLOAD SEED [PASSES]

The benchmark's `peak_rss_mib` is read after as many passes as fit in its
run time, and it grows with the number of requests a run completes, so a
change that makes requests faster can read as more memory. This probe holds
the work fixed: it runs the benchmark's own `environment()`, one warm-up
pass of the workload's pool for SEED (`make_items`, `warm_up`) and PASSES
(default 20) `send_pass` passes, then prints `ru_maxrss` in MiB. It exits 1
if any request raised or differed from its warm-up output.

symprep is imported from PYTHONPATH, so running the probe once with a
checkout of the parent commit and once with the working tree compares the
two at equal work. As with `tools/digest.py`, the benchmark's code is
imported read-only from `perfbench/run.py`.
"""

from __future__ import annotations

import argparse
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

# run.py pins BLAS to one thread before numpy loads, as the benchmark runs.
import run  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Peak RSS of a fixed number of benchmark passes.")
    parser.add_argument("workload", choices=sorted(workloads.POOLS))
    parser.add_argument("seed", type=int)
    parser.add_argument("passes", type=int, nargs="?", default=20)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("passes must be at least 1")

    run.environment()
    items = run.make_items(args.workload, args.seed)
    expected = run.warm_up(items)
    phase = run.Phase(len(items))
    for _ in range(args.passes):
        run.send_pass(items, expected, phase)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(phase.failed)
    print(f"{args.workload} seed {args.seed} passes {args.passes} peak_rss_mib {peak_rss_mib:.2f} "
          f"failed {failed}/{phase.attempted}")
    for msg in phase.failures[:5]:
        print(f"  {msg}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
