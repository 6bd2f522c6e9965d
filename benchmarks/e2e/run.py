#!/usr/bin/env python3
"""The repo's end-to-end benchmark: one command, four workloads.

    python3 benchmarks/e2e/run.py --workload cold-local-25k --seed 1 --seconds 20 --trace 0

runs one workload in this process (the driver starts one process per
run) and prints every metric by name with its unit and sample count,
then -- as the last line of stdout -- one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 1`` prints the
per-layer metrics instead of the end-to-end ones.  ``--all`` runs every
workload, each in its own subprocess; ``--all --sets 2 --runs 10`` is
the repeatability check the bounds in ``BENCHMARK.json`` come from.
See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: BENCHMARK.json workload name -> workloads.build key.
WORKLOADS = {
    "cold-local-25k": "cold-local",
    "cold-cluster-25k": "cold-cluster",
    "warm-http-mix": "warm-http-mix",
    "live-25k": "live",
}

SETUP_REPEATS = 3
DEFAULT_SEED = 20160626
DEFAULT_OP_TIMEOUT = 60.0
#: Seconds past ``--seconds`` after which the watchdog kills the run.
WATCHDOG_ALLOWANCE = 150.0


def bootstrap_environment() -> None:
    """Point this process and every child at the program under test.

    ``REPRO_ENCODING=auto`` goes through the environment rather than an
    ``encoding=`` argument, so the harness keeps running unchanged if
    that knob is removed (ROADMAP 3a makes ``auto`` the only state).
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmark: program source not found under {SRC}")
    os.environ["REPRO_ENCODING"] = "auto"
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    sys.path.insert(0, str(SRC))
    # cold-cluster tears its workers down every round, which the
    # coordinator reports as "cluster worker died" at WARNING.
    logging.getLogger("repro").setLevel(logging.ERROR)
    # multiprocessing's manager socket lands in TMPDIR; keep it inside
    # the checkout when the path fits an AF_UNIX address.
    scratch = OUT / "tmp"
    if len(str(scratch)) < 60:
        scratch.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(scratch)


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def environment_record() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
    }


def start_watchdog(limit: float) -> threading.Timer:
    """The per-run watchdog: a wedged run kills its children and exits
    non-zero instead of hanging the caller."""
    from measure import kill_children

    def fire() -> None:
        print(f"benchmark: watchdog fired after {limit:g}s", file=sys.stderr, flush=True)
        kill_children()
        os._exit(3)

    timer = threading.Timer(limit, fire)
    timer.daemon = True
    timer.start()
    return timer


def assert_released(env) -> None:
    """No child process and no listening socket may outlive a workload."""
    from measure import child_pids, is_listening

    deadline = time.monotonic() + 5.0
    while child_pids() and time.monotonic() < deadline:
        time.sleep(0.05)
    leftovers = child_pids()
    listening = [address for address in env.children.addresses if is_listening(address)]
    if leftovers or listening:
        raise RuntimeError(
            f"not released: children {leftovers}, listening sockets {listening}"
        )


def run_workload(args, contract: dict) -> dict:
    """One run of one workload in this process; returns the result object."""
    import inputs
    import layers
    import workloads
    from measure import (
        Recorder, Spans, kill_children, median_ms, now, percentile, rss_mb,
    )

    size = dict(inputs.SIZES["quick" if args.quick else "full"])
    if args.clusters:
        size["clusters"] = args.clusters
    if args.cluster_size:
        size["cluster_size"] = args.cluster_size
    seconds = 2.0 if args.quick else args.seconds
    repeats = 1 if (args.quick or args.trace) else SETUP_REPEATS
    env = workloads.Env(seed=args.seed, size=size, op_timeout=args.op_timeout)
    workload = workloads.build(WORKLOADS[args.workload], env)
    recorder = Recorder(args.op_timeout)
    spans = Spans()
    watchdog = start_watchdog(seconds + WATCHDOG_ALLOWANCE)
    setups: list[float] = []
    layer_metrics, report = {}, {}
    try:
        for repeat in range(repeats):
            if repeat:
                workload.teardown()
            started = now()
            workload.setup()
            setups.append(now() - started)
        started = now()
        workload.prepare_oracle()
        oracle_seconds = now() - started
        if args.trace:
            names = [metric["name"] for metric in contract["per_layer"]]
            layer_metrics, report = layers.traced_run(
                workload, env, recorder, seconds, spans, names
            )
        else:
            workload.timed(recorder, seconds)
        started = now()
        workload.finish(recorder)
        oracle_seconds += now() - started
    except BaseException:
        kill_children()
        raise
    finally:
        workload.teardown()
        env.children.reap()
        watchdog.cancel()
    assert_released(env)
    if args.trace:
        spans.dump(str(OUT / f"spans-{args.workload}-{args.seed}.json"))

    parent_mb, children_mb = rss_mb()
    counts = recorder.latencies["count"] or [args.op_timeout]
    writes = recorder.latencies["write"] or [args.op_timeout]
    tail = workload.tail_percentile
    beyond = len(counts) - max(1, -(-tail * len(counts) // 100))
    computed = {
        **layer_metrics,
        "setup_s": statistics.median(setups),
        "count_p50_ms": median_ms(counts),
        "count_tail_ms": percentile(counts, tail) * 1000.0,
        "counts_per_s": recorder.correct_counts / recorder.wall_seconds,
        "write_p50_ms": median_ms(writes),
        "peak_rss_mb": parent_mb + children_mb,
        "rss.parent_mb": parent_mb,
        "rss.children_mb": children_mb,
        "failed_share": recorder.failed / max(1, recorder.attempted),
    }

    print(f"workload {args.workload}  seed {args.seed}  timed {recorder.wall_seconds:.1f}s"
          f"  trace {int(args.trace)}  env {json.dumps(environment_record())}")
    print(f"  input: {workload.graph.tuple_count} tuples, {workload.graph.universe_size} elements,"
          f" shard_count {size['shard_count']}; oracle {oracle_seconds:.3f}s (outside setup_s)")
    notes = {
        "setup_s": f"median of n={len(setups)} set-ups",
        "count_p50_ms": f"n={len(counts)}",
        "count_tail_ms": f"p{tail}, n={len(counts)}, {beyond} beyond",
        "counts_per_s": f"{recorder.correct_counts} correct counts",
        "write_p50_ms": f"n={len(writes)}",
        "failed_share": f"{recorder.failed} of {recorder.attempted} ops",
    }
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for metric in contract[section]:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": computed[name], "unit": unit}
        print(f"  {name:<40} {computed[name]:>14.4f} {unit:<6} {notes.get(name, '')}")
    if not args.trace:
        for name, unit in (("count_tail_ms", "ms"), ("failed_share", "ratio")):
            print(f"  {name:<40} {computed[name]:>14.4f} {unit:<6} {notes[name]} (not gated)")
        for tag, values in sorted(recorder.by_tag.items()):
            print(f"    op {tag:<12} p50 {median_ms(values):10.3f} ms  n={len(values)}")
    else:
        overhead, noise = report["overhead"], report["noise"]
        verdict = f"{overhead:.4f}" if overhead > noise else "not measurable"
        print(f"  harness-span overhead on count p50: {verdict}"
              f" (untraced phase's own spread {noise:.4f})")
        print("  engine span ring, mean ms per retained trace (cross-check baseline):")
        for name, value in sorted(report["engine_spans"].items()):
            print(f"    {name:<28} {value:10.3f}")
    for error in recorder.errors:
        print(f"  FAILED OP: {error}")
    return {
        "correct": recorder.wrong == 0,
        "attempted": max(1, recorder.attempted),
        "failed": recorder.failed,
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# --all: every workload in its own subprocess, optionally in sets
# ----------------------------------------------------------------------
def run_subprocess(name: str, seed: int, args) -> dict:
    argv = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(int(args.trace)),
        "--op-timeout", str(args.op_timeout),
    ]
    if args.quick:
        argv.append("--quick")
    completed = subprocess.run(
        argv, capture_output=True, text=True,
        timeout=args.seconds + WATCHDOG_ALLOWANCE + 30,
    )
    sys.stdout.write(completed.stdout)
    sys.stderr.write(completed.stderr)
    if completed.returncode != 0:
        sys.exit(f"benchmark: workload {name} exited with {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run_all(args, contract: dict) -> int:
    from measure import spread

    names = [workload["name"] for workload in contract["workloads"]]
    section = "per_layer" if args.trace else "end_to_end"
    sets: list[dict] = []
    healthy = True
    for set_index in range(args.sets):
        values: dict = {}
        for name in names:
            for run in range(args.runs):
                result = run_subprocess(name, args.seed + run, args)
                healthy &= result["correct"] and result["failed"] == 0
                for metric, entry in result["metrics"].items():
                    values.setdefault((name, metric), []).append(entry["value"])
        sets.append(values)
    if args.sets < 2 and args.runs < 2:
        return 0 if healthy else 1
    bounds = {m["name"]: m.get("bound") for m in contract[section]}
    better = {m["name"]: m["better"] for m in contract[section]}
    print(f"\nrepeatability: {args.sets} set(s) x {args.runs} run(s), seeds {args.seed}..")
    print(f"{'workload':<18} {'metric':<16} " + " ".join(
        f"{'median' + str(i + 1):>12} {'iqr/med':>8}" for i in range(args.sets)
    ) + f" {'worse by':>9} {'bound':>6}")
    for key in sets[0]:
        name, metric = key
        medians = [statistics.median(values[key]) for values in sets]
        cells = " ".join(
            f"{median:>12.4f} {spread(values[key]):>8.4f}"
            for median, values in zip(medians, sets)
        )
        worse = 0.0
        if len(medians) > 1 and medians[0]:
            change = (medians[-1] - medians[0]) / medians[0]
            worse = change if better[metric] == "lower" else -change
        bound = bounds.get(metric)
        flag = ""
        if bound is not None:
            widest = max(spread(values[key]) for values in sets)
            if worse > bound or (metric != "setup_s" and widest > bound):
                flag = "  OVER BOUND"
                healthy = False
        print(f"{name:<18} {metric:<16} {cells} {worse:>9.4f} "
              f"{bound if bound is not None else '-':>6}{flag}")
    return 0 if healthy else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, each in its own subprocess")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="timed phase length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sets", type=int, default=1, help="with --all: repeat the whole suite this many times and compare medians")
    parser.add_argument("--runs", type=int, default=1, help="with --all: runs per workload per set, each on its own seed")
    parser.add_argument("--quick", action="store_true", help="smoke: ~1e4 tuples, one set-up, 2 s timed phase")
    parser.add_argument("--op-timeout", type=float, default=DEFAULT_OP_TIMEOUT, help="per-op timeout in seconds; a slower op is a counted failure")
    parser.add_argument("--clusters", type=int, default=0, help="override the generator's cluster count (outside the gated sizes)")
    parser.add_argument("--cluster-size", type=int, default=0, help="override the generator's cluster size (40 is the 1e5-tuple point)")
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload NAME and --all")

    bootstrap_environment()
    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.all:
        return run_all(args, contract)
    result = run_workload(args, contract)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
