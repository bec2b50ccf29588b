"""Host-time benchmark of the simulator.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py            # every workload, both modes

``--trace 0`` measures the end-to-end metrics with nothing wrapped:
the workload is set up ``SETUP_REPEATS`` times (set-up time is the
import time plus the median set-up), then timed passes run while the
next one still fits in ``--seconds`` (at least one), each on a fresh
runner with a cold cell cache over the graphs set-up built, and the
medians are reported.
``--trace 1`` runs one untraced pass and then one pass with every layer
wrapped (see ``layers.py``), and reports per-layer host times and
counts; the spans are written to ``perfbench/out/``.

Every pass's outputs are digested (see ``cells.py``).  On the default
seed the digest must match the one pinned in ``digests.json``; on any
seed every pass of a run, traced or not, must produce the same digest,
and every cell must satisfy walks <= L1 misses <= accesses.  A pass
whose digest is wrong counts all its cells as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 3
"""Set-ups per measuring run; ``setup_s`` uses their median."""


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the simulator."
    )
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, help="measuring time (default: run_seconds)"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pin",
        action="store_true",
        help="store this run's digest as the workload's pinned digest "
        "(default seed only)",
    )
    return parser.parse_args(argv)


def _measure(workload, seed: int, seconds: float, checker) -> dict:
    """End-to-end metrics of set-ups and timed passes, nothing wrapped."""
    clock = time.perf_counter
    import_s = clock() - _T0
    workdir = str(OUT)
    setups: list[float] = []
    prepared = None
    for _ in range(SETUP_REPEATS):
        if prepared is not None:
            prepared.close()
            prepared = None  # free the last graphs before building anew
            gc.collect()
        start = clock()
        prepared = workload.setup(seed, workdir)
        setups.append(clock() - start)

    runs: list[float] = []
    rates: list[float] = []
    measure_start = clock()
    while True:
        gc.collect()
        start = clock()
        extra = workload.execute(prepared)
        runs.append(clock() - start)
        results = workload.results(prepared)
        checker.check(results, extra)
        rates.append(checker.accesses / runs[-1])
        prepared.close()
        if clock() - measure_start + runs[-1] > seconds:
            break
        prepared = workload.prepare(workdir)

    print(
        f"  {len(runs)} pass(es); run_s samples "
        + ", ".join(f"{r:.3f}" for r in runs)
        + "; setup_s samples "
        + ", ".join(f"{s:.3f}" for s in setups)
        + f" + imports {import_s:.3f}"
    )
    return {
        "run_s": statistics.median(runs),
        "setup_s": import_s + statistics.median(setups),
        "sim_accesses_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "cells_ok": (checker.attempted - checker.failed) / checker.attempted,
    }


def _trace(workload, seed: int, checker) -> dict:
    """One untraced pass, then one traced set-up and pass."""
    import layers

    clock = time.perf_counter
    workdir = str(OUT)
    prepared = workload.setup(seed, workdir)
    gc.collect()
    start = clock()
    extra = workload.execute(prepared)
    untraced_s = clock() - start
    checker.check(workload.results(prepared), extra)
    prepared.close()
    prepared = None  # free the graphs before the traced set-up
    gc.collect()

    rec, metrics, results, extra = layers.traced_pass(workload, seed, workdir)
    checker.check(results, extra)
    traced_s = metrics["traced_run_s"]
    metrics["trace_overhead_s"] = traced_s - untraced_s
    layered = sum(metrics[m] for m in layers.SELF_TIME_METRICS)
    print(
        f"  traced run_s {traced_s:.3f} (untraced {untraced_s:.3f}); "
        f"layer self times sum to {layered:.3f} s = "
        f"{layered / traced_s:.1%} of it"
    )
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.json"
    rec.write(str(spans_path))
    print(f"  {len(rec.spans)} spans written to {spans_path.relative_to(ROOT)}")
    return metrics


def _report(spec: dict, key: str, metrics: dict, base: float | None) -> dict:
    """Print the metrics of ``spec[key]`` and return them as JSON
    entries."""
    out = {}
    layer_map = None
    if key == "per_layer":
        from layers import LAYER_MAP as layer_map
    for entry in spec[key]:
        name, unit = entry["name"], entry["unit"]
        value = metrics[name]
        out[name] = {"value": value, "unit": unit}
        line = f"  {name:28s} {value:>16.6g} {unit:11s}"
        if layer_map is not None:
            share = (
                f"{value / base:6.1%}" if unit == "s" and base else "     -"
            )
            moves, mostly, barely = layer_map[name]
            line += f" {share}  moves {moves}; on {mostly}; not {barely}"
        print(line)
    return out


def _run_one(args: argparse.Namespace, spec: dict) -> int:
    sys.path[:0] = [str(SRC), str(HERE)]
    import cells

    workload = cells.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"unknown workload {args.workload!r}; known: "
            + ", ".join(cells.WORKLOADS),
            file=sys.stderr,
        )
        return 2
    pinned = json.loads(DIGESTS.read_text())
    default_seed = args.seed == cells.DEFAULT_SEED
    if args.pin and not default_seed:
        print("--pin needs the default seed", file=sys.stderr)
        return 2
    expected = pinned.get(workload.name) if default_seed and not args.pin else None
    OUT.mkdir(exist_ok=True)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    checker = cells.Checker(expected)

    mode = "traced" if args.trace else "untraced"
    print(f"{workload.name} seed={args.seed} ({mode})")
    if args.trace:
        metrics = _trace(workload, args.seed, checker)
    else:
        metrics = _measure(workload, args.seed, seconds, checker)
    digests = sorted(set(checker.digests))
    status = "pinned" if expected else "no pinned digest for this seed"
    if expected and digests != [expected]:
        status = f"MISMATCH, pinned {expected[:16]}"
    print(
        f"  digest {', '.join(d[:16] for d in digests)} ({status}); "
        f"cells_failed {checker.failed / checker.attempted:.4f} "
        f"({checker.failed} of {checker.attempted})"
    )
    if args.pin and checker.correct and len(digests) == 1:
        pinned[workload.name] = digests[0]
        DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
        print(f"  pinned {digests[0]}")
    key = "per_layer" if args.trace else "end_to_end"
    base = metrics.get("traced_run_s")
    result = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": _report(spec, key, metrics, base),
    }
    print(json.dumps(result))
    return 0


def _run_all(args: argparse.Namespace, spec: dict) -> int:
    """Every workload untraced then traced, each in its own process (peak
    memory is per process), followed by a summary table."""
    rows = []
    for entry in spec["workloads"]:
        for trace in (0, 1):
            command = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload",
                entry["name"],
                "--seed",
                str(args.seed),
                "--trace",
                str(trace),
            ]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            done = subprocess.run(
                command, capture_output=True, text=True, cwd=ROOT
            )
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if done.returncode != 0 or not lines:
                print(done.stderr, file=sys.stderr)
                return 1
            rows.append((entry["name"], trace, json.loads(lines[-1])))
    print("\nsummary (end-to-end, untraced)")
    names = [m["name"] for m in spec["end_to_end"]]
    print(f"  {'workload':20s}" + "".join(f"{n:>20s}" for n in names))
    for name, trace, result in rows:
        if trace == 0:
            values = result["metrics"]
            print(
                f"  {name:20s}"
                + "".join(f"{values[n]['value']:>20.6g}" for n in names)
            )
    return 0 if all(result["correct"] for _, _, result in rows) else 1


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"no simulator sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    if args.workload is None:
        return _run_all(args, spec)
    return _run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
