"""The search stack's benchmark: three seeded workloads, one command.

Usage (from the root of a checkout)::

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1] [--repeat N]
                             [--baseline]

One run builds its inputs from ``--seed``, measures for ``--seconds``,
checks every answer, prints every metric by name and unit to standard
error, and prints as the last line of standard output one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
With ``--workload all`` (the default) the last line maps each workload
to its object instead.

``--repeat N`` runs the workload N times in fresh processes with seeds
``N, N+1, ...`` (from ``--seed``) and prints each metric's median and
quartile spread (Q3 - Q1 over the median), the figures the bounds in
``BENCHMARK.json`` are set from.  ``--baseline`` prints the reference
figures a speed-up must beat: the unsharded in-process service on
corpus-serve's query stream, and the serial executor on batch-process's
batches.

See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.common import (WorkDir, cpu_times, emit,  # noqa: E402
                              ensure_program, log, median, quartile_spread,
                              steal_share)

WORKLOADS = ("engine-cold", "corpus-serve", "batch-process")


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    from perfbench import batch_process, corpus_serve, engine_cold
    module = {"engine-cold": engine_cold, "corpus-serve": corpus_serve,
              "batch-process": batch_process}[name]
    with WorkDir(name) as workdir:
        return module.run(seed, seconds, trace, workdir)


def describe(name: str, result) -> None:
    print(f"{name}: correct={result['correct']} attempted="
          f"{result['attempted']} failed={result['failed']}",
          file=sys.stderr)
    for metric, entry in result["metrics"].items():
        print(f"  {metric:32s} {entry['value']:14.6g} {entry['unit']}",
              file=sys.stderr)


def repeat(options) -> int:
    """Run one workload ``options.repeat`` times and print each
    metric's median and quartile spread."""
    values = {}
    units = {}
    shares = set()
    for offset in range(options.repeat):
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", options.workload,
                   "--seed", str(options.seed + offset),
                   "--seconds", str(options.seconds),
                   "--trace", str(options.trace)]
        completed = subprocess.run(command, stdout=subprocess.PIPE,
                                   text=True, check=True)
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {options.seed + offset}: incorrect answers",
                  file=sys.stderr)
            return 1
        shares.add((result["failed"], result["attempted"]))
        print(f"seed {options.seed + offset}: " + " ".join(
            f"{metric}={entry['value']:.6g}"
            for metric, entry in sorted(result["metrics"].items())),
            flush=True)
        for metric, entry in result["metrics"].items():
            values.setdefault(metric, []).append(entry["value"])
            units[metric] = entry["unit"]
    print(f"{options.workload}: {options.repeat} runs, seeds "
          f"{options.seed}..{options.seed + options.repeat - 1}; failed/"
          f"attempted {sorted(shares)}")
    for metric, series in values.items():
        spread = quartile_spread(series) if len(series) > 1 else 0.0
        print(f"  {metric:32s} median {median(series):12.6g} "
              f"{units[metric]:6s} spread {spread:7.3f}")
    return 0


def baseline(options) -> int:
    """Print the reference figures a corpus or executor speed-up must
    beat (see README.md)."""
    from perfbench import batch_process, corpus_serve
    figures = {}
    for name, module in (("corpus-serve", corpus_serve),
                         ("batch-process", batch_process)):
        with WorkDir(f"{name}-baseline") as workdir:
            figures[name] = module.baseline(options.seed, options.seconds,
                                            workdir)
        print(f"{name} baseline: " + " ".join(
            f"{metric}={value:.6g}" for metric, value
            in figures[name].items()), file=sys.stderr)
    emit(figures)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measured seconds per run (BENCHMARK.json's "
                             "run_seconds, which the bounds were set on)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="run N times and print medians and spreads")
    parser.add_argument("--baseline", action="store_true",
                        help="print the reference figures: the unsharded "
                             "in-process service on corpus-serve's stream "
                             "and the serial executor on batch-process's "
                             "batches")
    options = parser.parse_args()
    ensure_program()
    if options.baseline:
        return baseline(options)
    if options.repeat:
        if options.workload == "all":
            parser.error("--repeat needs one --workload")
        return repeat(options)
    names = WORKLOADS if options.workload == "all" else (options.workload,)
    results = {}
    for name in names:
        before = cpu_times()
        results[name] = run_workload(name, options.seed, options.seconds,
                                     bool(options.trace))
        describe(name, results[name])
        log(f"{name}: CPU time stolen by the host during the run: "
            f"{steal_share(before, cpu_times()):.1%}")
    emit(results[names[0]] if len(names) == 1 else results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
