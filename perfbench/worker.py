"""One benchmark sample, in a fresh process.

Usage: ``python worker.py SPEC_JSON``.  The worker imports rookdual from
``SPEC["src"]`` and prints ``ready``; the parent times set-up from the
spawn to that line.  Unless the spec is a probe, the worker then runs
the workload body once, traced when ``SPEC["trace"]`` is true.  It
prints one JSON line with the speedometer's reference times, the body's
wall and CPU time, the peak resident memory, and the output the parent
checks.  The package's own stdout is captured, so the protocol lines are
the only output.
"""

import contextlib
import gc
import io
import json
import os
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction

PIECE_ITERATIONS = 1_500
SAMPLING_INTERVAL_S = 0.2
EDGE_PIECES = 5


def reference_piece() -> float:
    """Time of a fixed few milliseconds of pure-Python work that does not
    touch rookdual: updates of a small tuple-keyed dict with Fraction
    sums, the staple of the package's exact linear algebra.  The dict
    stays small, so the piece does not raise the peak resident memory,
    and the collector is off, so objects the package keeps alive cannot
    slow the piece down."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        x = 12345
        for i in range(PIECE_ITERATIONS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            key = (x % 61, x % 53)
            table[key] = table.get(key, 0) + Fraction(1, 1 + i % 7)
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class Speedometer:
    """Samples how fast this machine runs Python right now.

    On a shared machine that speed drifts by a factor of two within
    seconds.  The speedometer times the reference piece back to back at
    the edges of the body and, from a timer signal, every
    ``SAMPLING_INTERVAL_S`` during it; the parent divides by the mean
    piece time to cancel the drift.  ``in_body_s`` is the time the timed
    pieces took out of the body, which the body's times leave out."""

    def __init__(self):
        self.pieces = []
        self.in_body_s = 0.0

    def edge(self):
        self.pieces += [reference_piece() for _ in range(EDGE_PIECES)]

    def _tick(self, signum, frame):
        seconds = reference_piece()
        self.pieces.append(seconds)
        self.in_body_s += seconds

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLING_INTERVAL_S, SAMPLING_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def run_body(spec: dict) -> dict:
    """The workload, through the package's public entry points."""
    if spec["kind"] == "cli":
        from rookdual import cli

        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = cli.main(list(spec["argv"]))
        return {"exit_code": code, "stdout": captured.getvalue()}
    if spec["kind"] == "centralizer":
        from rookdual import dualities

        cells = []
        for space, n, k in spec["cells"]:
            data = dualities.centralizer_data(n, k, space)
            dims = [
                data.dim_commutant_of_left,
                data.dim_span_of_right,
                data.dim_commutant_of_right,
                data.dim_span_of_left,
            ]
            cells.append({"cell": [space, n, k], "dims": dims, "ok": data.ok})
        return {"cells": cells}
    raise ValueError(f"unknown workload kind {spec['kind']!r}")


def _measure(spec: dict, speedometer: Speedometer) -> dict:
    """Run the body once.  A traced body runs without the speedometer's
    timer, so that its pieces do not land in the layers' times."""
    tracer = None
    timer = contextlib.nullcontext() if spec.get("trace") else speedometer
    if spec.get("trace"):
        from tracer import Tracer  # beside this file, first on sys.path

        tracer = Tracer()
        tracer.install()

    result = {}
    cpu_start = _cpu_seconds()
    start = time.perf_counter()
    try:
        with timer:
            result["output"] = run_body(spec)
    except Exception:  # the program failed; the parent counts it as a failed check
        result["error"] = traceback.format_exc()
    result["wall_s"] = time.perf_counter() - start - speedometer.in_body_s
    result["cpu_s"] = _cpu_seconds() - cpu_start - speedometer.in_body_s
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        result["trace"] = tracer.summary()
    return result


def main() -> int:
    spec = json.loads(sys.argv[1])
    protocol = sys.stdout
    import rookdual
    import rookdual.cli  # noqa: F401  (part of what a CLI user's start-up imports)

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(rookdual.__file__).startswith(src + os.sep):
        print(f"rookdual imported from {rookdual.__file__}, not {src}", file=sys.stderr)
        return 3
    protocol.write("ready\n")
    protocol.flush()
    speedometer = Speedometer()
    speedometer.edge()
    result = {}
    if spec["kind"] != "probe":
        result.update(_measure(spec, speedometer))
    speedometer.edge()
    result["reference_s"] = speedometer.pieces
    protocol.write(json.dumps(result) + "\n")
    protocol.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
