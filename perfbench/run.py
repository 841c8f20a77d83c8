"""Benchmark of the xsd2jsonschema translator.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
Workloads (see README.md in this directory): ``wide``, ``deep``,
``corpus`` and ``cli``. With ``--trace 0`` the last line of stdout is a
JSON object with the end-to-end metrics; with ``--trace 1`` a separate
traced run reports the per-layer metrics instead. Earlier lines give the
sample count, failures by reason and errors by exception class.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import Counter
from time import perf_counter

import docgen
from ops import (
    CEILING_S, PACKAGE, SRC, SpeedGauge, cli_op, child_env, interpreter_slowness, library_op,
    load_program, loop_slowness, make_case, percentile,
)

# p90 needs ten samples beyond it, so an untraced run keeps going past
# --seconds until it has this many ops (but never past MAX_RUN_S)
MIN_OPS = 100
MAX_RUN_S = 120.0
SETUP_REPEATS = 5
# documents generated (with their references) during set-up; later ops
# generate theirs between timed calls
POOL = 8


def set_up(workload: str, seed: int):
    """Returns the set-up time at the reference speed, the program and
    the first documents with their references."""
    gauge = SpeedGauge(loop_slowness)
    seconds = 0.0

    def timed(step):
        nonlocal seconds
        start = perf_counter()
        out = step()
        seconds += (perf_counter() - start) * gauge.speed()
        return out

    program = timed(load_program)
    pool = [timed(lambda i=i: make_case(workload, seed, i)) for i in range(POOL)]
    return seconds, program, pool


def closed_loop(op, case_at, seconds: float, slowness, period: int) -> list:
    """One caller: each op starts when the previous one has returned.
    Each op's time is scaled to the reference speed by ``slowness()``
    measured just before and just after it. The loop ends only after a
    multiple of ``period`` ops (``docgen.MIX_PERIOD``)."""
    results = []
    start = perf_counter()
    gauge = SpeedGauge(slowness)
    while True:
        elapsed = perf_counter() - start
        done = elapsed >= MAX_RUN_S or (elapsed >= seconds and len(results) >= MIN_OPS)
        if done and len(results) % period == 0:
            return results
        result = op(case_at(len(results)))
        result.speed = gauge.speed()
        results.append(result)


def end_to_end(results: list, setup_s: float) -> dict[str, tuple[float, str]]:
    charged = [r.charged_ms for r in results]
    return {
        "charged_docs_per_s": (1000 * len(charged) / sum(charged), "1/s"),
        "latency_p50_ms": (percentile(charged, 0.5), "ms"),
        "latency_p90_ms": (percentile(charged, 0.9), "ms"),
        "setup_s": (setup_s, "s"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(docgen.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, program, pool = set_up(args.workload, args.seed)
        setups.append(seconds)

    def case_at(index: int):
        return pool[index] if index < len(pool) else make_case(args.workload, args.seed, index)

    period = docgen.MIX_PERIOD[args.workload]
    if args.trace:
        from stages import traced_run

        traced = traced_run(program, args.workload, args.seed, args.seconds, case_at, period)
        results, metrics = traced["results"], traced["metrics"]
        for (stage, name, expected), n in sorted(traced["errors"].items()):
            print(f"stage error: {stage} {name} x{n}{' (expected)' if expected else ''}")
        print(f"composition mismatches (traced stages vs translate): {traced['mismatches']}")
        correct = traced["mismatches"] == 0
    else:
        if args.workload == "cli":
            env = child_env()
            results = closed_loop(
                lambda case: cli_op(env, case), case_at, args.seconds, lambda: interpreter_slowness(env),
                period,
            )
        else:
            results = closed_loop(lambda case: library_op(program, case), case_at, args.seconds, loop_slowness, period)
        metrics = end_to_end(results, statistics.median(setups))
        correct = True

    failures = Counter(r.failure or "slower than ceiling" for r in results if not r.ok)
    wrong = sum(r.wrong for r in results)
    print(
        f"workload={args.workload} seed={args.seed} loop=closed callers=1 samples={len(results)}"
        f" failed={sum(failures.values())} wrong={wrong} ceiling_ms={CEILING_S * 1000:g}"
        f" timed_s={sum(r.seconds for r in results):.3f}"
        f" speed_p50={statistics.median(r.speed for r in results):.3f}"
        f" unscaled_op_ms_p50={1000 * statistics.median(r.seconds for r in results):.3f}"
    )
    for reason, n in failures.most_common():
        print(f"failure: {reason} x{n}")
    print(json.dumps({
        "correct": correct and wrong == 0,
        "attempted": len(results),
        "failed": sum(failures.values()),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
