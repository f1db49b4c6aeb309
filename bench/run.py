"""kpidiag benchmark: time the real CLI on seeded workloads and check its output.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program is imported and
started from the checkout's `src/`, and the run exits 2 without a result
when that is missing. With `--trace 0` the run sets the workload up at least
three times and for at least five seconds (reporting the median set-up
time), then starts one CLI iteration
after another, closed loop, until `--seconds` have passed (at least three
iterations), checking every iteration's exit codes, report and digests.
With `--trace 1` it sets up once, runs one untraced iteration, then the same
steps in one traced process (bench/traced.py) and reports the per-layer
metrics. The last line of standard output is the JSON result; the metric
names and units come from BENCHMARK.json. A full record (environment,
per-iteration numbers, digests, spans) goes to .kpibench/results/.
"""

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kpidiag" / "__init__.py").is_file():
        print(f"error: no kpidiag sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kpidiag

    if Path(kpidiag.__file__).resolve().parent != SRC / "kpidiag":
        print(f"error: imported kpidiag from {kpidiag.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
