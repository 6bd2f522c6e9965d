"""Measurement plumbing: op records, percentiles, spans, processes."""

from __future__ import annotations

import json
import math
import os
import resource
import signal
import socket
import statistics
import subprocess
import threading
import time
from contextlib import contextmanager

now = time.perf_counter


class OpTimeout(Exception):
    """An op exceeded the per-op timeout (counted in ``failed``)."""


def call_with_timeout(fn, timeout: float):
    """Run ``fn()`` on a daemon thread, waiting at most ``timeout``.

    A cliff must become a counted failed op, never a hang: on timeout
    the thread is abandoned (the caller tears the engine down, which is
    what actually stops the work) and :class:`OpTimeout` is raised.
    """
    box: dict = {}

    def target() -> None:
        try:
            box["value"] = fn()
        except BaseException as exc:  # re-raised on the caller's thread
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        raise OpTimeout(f"op still running after {timeout:g}s")
    if "error" in box:
        raise box["error"]
    return box["value"]


class Recorder:
    """Caller-observed op outcomes of one timed phase.

    A failed op (error, timeout, wrong count) counts as missing every
    latency figure: it enters the latency lists at the op timeout.
    """

    def __init__(self, op_timeout: float):
        self.op_timeout = op_timeout
        self.latencies: dict[str, list[float]] = {"count": [], "write": []}
        self.by_tag: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: list[str] = []
        self.wall_seconds = 0.0
        self._lock = threading.Lock()

    def ok(self, kind: str, seconds: float, tag: str | None = None) -> None:
        with self._lock:
            self.attempted += 1
            self.latencies[kind].append(seconds)
            if tag is not None:
                self.by_tag.setdefault(tag, []).append(seconds)

    def fail(self, kind: str, reason: str, wrong: bool = False) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1
            self.wrong += wrong
            self.latencies[kind].append(self.op_timeout)
            if len(self.errors) < 10:
                self.errors.append(reason)

    def mark_wrong(self, reason: str) -> None:
        """Turn an already-recorded ok count into a wrong one (ad-hoc
        counts are verified after the timed phase)."""
        with self._lock:
            self.failed += 1
            self.wrong += 1
            self.latencies["count"].append(self.op_timeout)
            if len(self.errors) < 10:
                self.errors.append(reason)

    def check(self, ok: bool, reason: str) -> None:
        """An untimed verification (the live workload's final state)."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.wrong += 1
                self.errors.append(reason)

    @property
    def correct_counts(self) -> int:
        return sum(1 for s in self.latencies["count"] if s < self.op_timeout)


def timed_op(
    recorder: Recorder, kind: str, fn, expected=None, tag=None, spans=None,
    threaded: bool = True,
):
    """Run one op under the per-op timeout and record its outcome.

    Returns the op's value, or ``None`` when it failed.  Raises
    :class:`OpTimeout` through (after recording) so the caller can
    abandon state the hung op may still hold.  ``threaded=False`` is
    for ops that enforce the timeout themselves (HTTP socket timeouts).
    """
    started = now()
    try:
        with span_of(spans, kind, tag=tag):
            value = call_with_timeout(fn, recorder.op_timeout) if threaded else fn()
    except OpTimeout as exc:
        recorder.fail(kind, f"{tag or kind}: {exc}")
        raise
    except Exception as exc:
        recorder.fail(kind, f"{tag or kind}: {type(exc).__name__}: {exc}")
        return None
    seconds = now() - started
    if expected is not None and value != expected:
        recorder.fail(kind, f"{tag or kind}: got {value}, oracle {expected}", wrong=True)
        return None
    recorder.ok(kind, seconds, tag)
    return value


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median_ms(values) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def spread(values) -> float:
    """Interquartile range over the median (0 for fewer than 4 values)."""
    if len(values) < 4:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


# ----------------------------------------------------------------------
# Harness spans (the traced run)
# ----------------------------------------------------------------------
class Spans:
    """In-memory spans around the harness's calls into each layer.

    One record per span: name, start, end, parent, request id.  Kept in
    memory and written out once, at exit (:meth:`dump`).
    """

    def __init__(self):
        self.records: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, request: str | None = None, **attributes):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        record = {
            "name": name,
            "start": now(),
            "end": None,
            "parent": parent["id"] if parent else None,
            "request": request or (parent["request"] if parent else None),
            **attributes,
        }
        with self._lock:
            record["id"] = len(self.records)
            self.records.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            stack.pop()
            record["end"] = now()

    def self_seconds(self) -> dict[str, float]:
        """Per span name: duration minus what child spans cover, summed."""
        covered: dict[int, float] = {}
        for record in self.records:
            if record["parent"] is not None and record["end"] is not None:
                covered[record["parent"]] = (
                    covered.get(record["parent"], 0.0)
                    + record["end"] - record["start"]
                )
        out: dict[str, float] = {}
        for record in self.records:
            if record["end"] is None:
                continue
            own = record["end"] - record["start"] - covered.get(record["id"], 0.0)
            out[record["name"]] = out.get(record["name"], 0.0) + max(0.0, own)
        return out

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.records, handle)


@contextmanager
def span_of(spans: Spans | None, name: str, **attributes):
    """``spans.span(...)`` when the traced run is on, else nothing."""
    if spans is None:
        yield None
    else:
        with spans.span(name, **attributes) as record:
            yield record


# ----------------------------------------------------------------------
# Processes, sockets, memory
# ----------------------------------------------------------------------
class Children:
    """Every subprocess the harness starts, reaped on every exit path."""

    def __init__(self):
        self.processes: list[subprocess.Popen] = []
        self.addresses: list[tuple[str, int]] = []

    def spawn(self, argv) -> subprocess.Popen:
        process = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
        self.processes.append(process)
        return process

    def reap(self, processes=None, grace: float = 5.0) -> None:
        """Terminate ``processes`` (default: all) and wait for them,
        killing whatever outlives the grace period."""
        targets = list(self.processes if processes is None else processes)
        for process in targets:
            if process.poll() is None:
                process.terminate()
        deadline = time.monotonic() + grace
        for process in targets:
            try:
                process.wait(max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(10)
        self.processes = [p for p in self.processes if p not in targets]


def child_pids() -> list[int]:
    """Live (non-zombie) direct children of this process, from /proc."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            found.append(int(entry))
    return found


def kill_children() -> None:
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def is_listening(address: tuple[str, int]) -> bool:
    try:
        with socket.create_connection(address, timeout=1.0):
            return True
    except OSError:
        return False


def rss_mb() -> tuple[float, float]:
    """``(parent, children)`` peak RSS in MB.

    The children figure is the kernel's max over every child this
    process has waited for, so it is read after everything is reaped.
    """
    parent = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return parent, children
