"""The repo's benchmark: four workloads and a layer ladder.

    python3 benchmarks/layers/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/layers/run.py [--seed 42] [--workload NAME] [--traced]
                                     [--seconds S | --smoke]
                                     [--repeat N] [--out FILE]
    python3 benchmarks/layers/run.py compare A.json B.json

The last line of standard output is one JSON object — ``correct``,
``attempted``, ``failed``, ``metrics`` — holding exactly the metrics
``BENCHMARK.json`` names: the end-to-end ones, or with ``--trace 1`` the
per-layer ones.  The exit code is non-zero when any output was wrong or
a run was invalid.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import procs  # noqa: E402  (needs this directory on the path)
import report  # noqa: E402

sys.path.insert(0, str(procs.SRC))

SMOKE_SECONDS = 0.5


def main(argv: list[str]) -> int:
    spec = json.loads((procs.REPO_ROOT / "BENCHMARK.json").read_text())
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return report.compare(spec, argv[1], argv[2])

    parser = argparse.ArgumentParser(
        prog="benchmarks/layers/run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter, allow_abbrev=False,
    )
    parser.add_argument("--workload", help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="length of a run: each workload executes a fixed "
                             "number of ops per second of it")
    parser.add_argument("--smoke", action="store_true",
                        help=f"--seconds {SMOKE_SECONDS} and one set-up per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload (seed, seed+1, ...), then a summary")
    parser.add_argument("--out", help="also write the runs to this JSON file")
    args = parser.parse_args(argv)

    procs.build()
    try:
        import ladder
        import workloads
    except ImportError as err:
        print(f"error: the program to measure is not here ({err})", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for name in names:
        if name not in workloads.WORKLOADS:
            parser.error(f"unknown workload {name!r} (known: {', '.join(workloads.WORKLOADS)})")
    traced = bool(args.trace or args.traced)
    seconds = SMOKE_SECONDS if args.smoke else args.seconds

    # SIGTERM unwinds like Ctrl-C, so every subprocess and scratch
    # directory is torn down by the context managers that own them
    signal.signal(signal.SIGTERM, signal.default_int_handler)

    runs = []
    for name in names:
        workload = workloads.WORKLOADS[name]
        for repeat in range(args.repeat):
            seed = args.seed + repeat
            if traced:
                result = ladder.run_traced(workload, seed, seconds)
            else:
                result = workloads.run_untraced(
                    workload, seed, seconds, once=args.smoke
                )
            report.print_run(spec, result, traced)
            runs.append(report.as_document(result, traced))
    if args.repeat > 1:
        report.print_repeats(spec, runs, traced)
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    print(json.dumps(report.contract_line(spec, runs[-1], traced)))
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
