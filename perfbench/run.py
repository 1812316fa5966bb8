"""Benchmark of ``rookdual verify`` and ``centralizer_data``.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 40 --trace 0

Each sample runs the workload once in a fresh single-threaded worker
process (``worker.py``), one worker at a time, with rookdual imported
from the checkout's ``src``.  A CLI user pays the package's in-process
caches on every run, so no sample inherits them.  The seed sets each
worker's ``PYTHONHASHSEED`` and the order of the centralizer cells.
Samples repeat while another one fits in ``--seconds``.  Every output is
checked against closed-form predictions (``oracle.py``).

End-to-end metrics (``--trace 0``), medians over the samples:
``wall_s`` and ``cpu_s`` of the workload body, ``setup_s`` from spawning
a worker to rookdual imported and ready (over extra probe workers too),
and ``peak_rss_mb`` of the worker.  The three times are rescaled to a
reference speed (see ``REFERENCE_PIECE_S``), because on a shared machine
the speed of Python code drifts by a factor of two within seconds.
Per-layer metrics (``--trace 1``) come from ``tracer.py``; they are raw
seconds and exact counts, and ``trace.overhead_s`` compares traced with
untraced samples of the same run.

The last line of stdout is one JSON object with ``correct``,
``attempted`` and ``failed`` (checks made and failed, over all samples)
and ``metrics``.  The line before it records the seed, the Python
version, the CPU count, the git SHA and a digest of the package source,
the sample counts, every sample's raw values, and in a traced run the
time of each cell.  The exit code is 0 when every check passed.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"

# Each run must end well inside 180 s, whatever --seconds asks for.
RUN_BUDGET_S = 170.0
SETUP_PROBES = 7
# Typical time of worker.reference_piece() on the shared 2-vCPU 2.0 GHz
# Xeon VM (Python 3.11.7) the benchmark was defined on.  Timed
# end-to-end metrics are rescaled by REFERENCE_PIECE_S / (the mean piece
# time in the same worker), so they read as seconds at that speed whatever
# the machine's momentary load; the raw times are in the metadata line.
REFERENCE_PIECE_S = 0.007


@dataclass(frozen=True)
class Workload:
    """One set of inputs: the spec the worker runs and the checks on its
    output.  ``cells`` are shuffled per sample by the seed."""

    name: str
    kind: str
    check: Callable[[dict], list]
    argv: tuple = ()
    cells: tuple = ()

    def spec(self, rng: random.Random) -> dict:
        cells = list(self.cells)
        rng.shuffle(cells)
        return {"kind": self.kind, "argv": list(self.argv), "cells": cells}


CENTRALIZER_CELLS = (
    ("V", 3, 3),
    ("V", 4, 2),
    ("V", 2, 4),
    ("V", 4, 3),
    ("U", 3, 2),
    ("U", 2, 3),
    ("U", 4, 2),
    ("U", 3, 3),
)


def _verify_check(cells, full_cells, morphisms):
    return lambda output: oracle.check_verify(output, cells, full_cells, morphisms)


def _centralizer_check(cells):
    return lambda output: oracle.check_centralizer(output, cells)


WORKLOADS = {
    w.name: w
    for w in (
        # The user-facing grid run; action-matrix builds dominate it.
        Workload(
            "verify-all",
            "cli",
            _verify_check(
                oracle.SEED_GRID, oracle.SEED_FULL_CELLS, oracle.morphism_floor(2, 2, None)
            ),
            argv=("verify", "--all", "--format", "json"),
        ),
        # Deformation maps and products only: no action space, no commutant.
        Workload(
            "verify-props-k3",
            "cli",
            _verify_check((), (), oracle.morphism_floor(2, 3, 10_000)),
            argv=("verify", "--props", "--n", "2", "--k", "3", "--format", "json"),
        ),
        # Commutant solves on the cells the grid skips plus extension cells.
        Workload(
            "centralizer",
            "centralizer",
            _centralizer_check(CENTRALIZER_CELLS),
            cells=CENTRALIZER_CELLS,
        ),
    )
}


class SetupError(RuntimeError):
    """The worker could not import rookdual from the checkout."""


@dataclass
class Sample:
    setup_s: float
    seconds: float  # spawn to exit
    result: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)

    @property
    def speed(self) -> float:
        """Factor that rescales this worker's times to reference speed."""
        return REFERENCE_PIECE_S / statistics.fmean(self.result["reference_s"])


def spawn(spec: dict, hash_seed: int, timeout: float) -> Sample:
    """Run one worker; time set-up from the spawn to its ``ready`` line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hash_seed)
    payload = json.dumps({**spec, "src": str(SRC)})
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), payload],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        text=True,
    )
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if first.strip() != "ready":
            proc.wait(timeout=timeout)
            raise SetupError(f"worker exited with {proc.returncode} before ready")
        rest, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sample = Sample(setup_s, time.perf_counter() - start)
    lines = rest.strip().splitlines()
    if proc.returncode != 0 or not lines:
        if spec["kind"] == "probe":
            raise SetupError(f"probe exited with {proc.returncode}")
        sample.checks = [("worker_exit", False)]
        return sample
    sample.result = json.loads(lines[-1])
    return sample


def run_samples(workload: Workload, seed: int, seconds: float, trace: bool):
    """Probes for set-up time, then samples until another one would not
    fit in ``seconds``.  A traced run alternates untraced and traced
    samples, so that the trace overhead is measured in the same run."""
    rng = random.Random(seed)
    started = time.perf_counter()
    deadline = started + seconds
    budget_end = started + RUN_BUDGET_S

    def timeout():
        return max(1.0, budget_end - time.perf_counter())

    spawn({"kind": "probe"}, rng.randrange(2**32), timeout())  # fills the bytecode cache
    probes = [
        spawn({"kind": "probe"}, rng.randrange(2**32), timeout()) for _ in range(SETUP_PROBES)
    ]
    modes = (False, True) if trace else (False,)
    samples = {mode: [] for mode in modes}
    while True:
        for mode in modes:
            spec = {**workload.spec(rng), "trace": mode}
            sample = spawn(spec, rng.randrange(2**32), timeout())
            if not sample.checks:
                sample.checks = _check(workload, sample.result)
            samples[mode].append(sample)
        now = time.perf_counter()
        next_cost = sum(statistics.median(s.seconds for s in samples[m]) for m in modes)
        if now + next_cost > min(deadline, budget_end):
            return probes, samples


def _check(workload: Workload, result: dict) -> list:
    if "error" in result:
        print(result["error"], file=sys.stderr)
        return [("body_raised", False)]
    return workload.check(result["output"])


def end_to_end_metrics(probes: list, samples: list) -> dict:
    """Medians over the samples; set-up over the probes and the samples.
    Times are at reference speed."""

    def median(key):
        return statistics.median(s.result[key] * s.speed for s in samples)

    setups = [w.setup_s * w.speed for w in probes + samples]
    return {
        "wall_s": {"value": median("wall_s"), "unit": "s"},
        "cpu_s": {"value": median("cpu_s"), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {
            "value": statistics.median(s.result["peak_rss_mb"] for s in samples),
            "unit": "MB",
        },
    }


def per_layer_metrics(untraced: list, traced: list) -> dict:
    """Layer metrics from the traced samples: times are medians over the
    samples, counts are taken from the first (they repeat exactly)."""
    summaries = [s.result["trace"] for s in traced]
    first = summaries[0]

    def group_seconds(name):
        return statistics.median(t["groups"].get(name, {}).get("seconds", 0.0) for t in summaries)

    def group_calls(name):
        return first["groups"].get(name, {}).get("calls", 0)

    builds = group_calls("tensor_actions.build")
    traced_s = statistics.median(s.result["wall_s"] for s in traced)
    untraced_s = statistics.median(s.result["wall_s"] for s in untraced)
    attributed = statistics.median(
        sum(s.result["trace"]["layers"].values()) / s.result["wall_s"] for s in traced
    )
    values = {
        "tensor_actions.build_s": (group_seconds("tensor_actions.build"), "s"),
        "tensor_actions.matrix_builds": (builds, "count"),
        "tensor_actions.distinct_matrices": (first["distinct_matrices"], "count"),
        "tensor_actions.build_useful_ratio": (
            first["distinct_matrices"] / builds if builds else 0.0,
            "ratio",
        ),
        "tensor_actions.match_calls": (first["counts"].get("tensor_actions.match", 0), "count"),
        "tensor_actions.nnz": (first["nnz"], "count"),
        "exact_linalg.matmul_s": (group_seconds("exact_linalg.matmul"), "s"),
        "exact_linalg.matmul_calls": (group_calls("exact_linalg.matmul"), "count"),
        "exact_linalg.commutant_s": (group_seconds("exact_linalg.commutant"), "s"),
        "exact_linalg.commutant_unknowns": (first["commutant_unknowns"], "count"),
        "exact_linalg.rowspace_adds": (
            first["counts"].get("exact_linalg.rowspace_add", 0),
            "count",
        ),
        "exact_linalg.span_s": (group_seconds("exact_linalg.span"), "s"),
        "semigroups.product_s": (group_seconds("semigroups.product"), "s"),
        "semigroups.product_calls": (group_calls("semigroups.product"), "count"),
        "morphisms.report_s": (group_seconds("morphisms.report"), "s"),
        "morphisms.deform_s": (group_seconds("morphisms.deform"), "s"),
        "dualities.commute_s": (group_seconds("dualities.commute"), "s"),
        "dualities.faithful_s": (group_seconds("dualities.faithful"), "s"),
        "dualities.centralizer_s": (group_seconds("dualities.centralizer"), "s"),
        "diagrams.enumerate_s": (group_seconds("diagrams.enumerate"), "s"),
        "diagrams.enumerate_calls": (group_calls("diagrams.enumerate"), "count"),
    }
    for layer in first["layers"]:
        values[f"{layer}.self_s"] = (
            statistics.median(t["layers"][layer] for t in summaries),
            "s",
        )
    values["trace.traced_s"] = (traced_s, "s")
    values["trace.untraced_s"] = (untraced_s, "s")
    values["trace.overhead_s"] = (traced_s - untraced_s, "s")
    values["trace.attributed_share"] = (attributed, "ratio")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def environment(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """What a result depends on besides the code: the git SHA when the
    checkout is a git work tree, and a digest of the package source."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "rookdual").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rookdual" / "__init__.py").is_file():
        print(f"error: no rookdual package under {SRC}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    try:
        probes, samples = run_samples(workloads[args.workload], args.seed, args.seconds, trace)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    checks = [c for group in samples.values() for s in group for c in s.checks]
    failed = [name for name, ok in checks if not ok]
    untraced = [s for s in samples[False] if "wall_s" in s.result]
    traced = [s for s in samples.get(True, []) if "trace" in s.result]
    correct = not failed and bool(untraced) and (bool(traced) or not trace)

    meta = environment(args.workload, args.seed, args.seconds, trace)
    meta["samples"] = {mode and "traced" or "untraced": len(group) for mode, group in samples.items()}
    meta["raw"] = {  # per worker, before rescaling to reference speed
        "setup_s": [w.setup_s for w in probes + untraced],
        "speed": [w.speed for w in probes + untraced],
        **{key: [s.result[key] for s in untraced] for key in ("wall_s", "cpu_s", "peak_rss_mb")},
    }
    meta["failed_checks"] = sorted(set(failed))
    if traced:
        first = traced[0].result["trace"]
        meta["cells"] = first["cells"]
        meta["absent"] = first["absent"]
        meta["counts_repeat"] = all(_counts(s.result["trace"]) == _counts(first) for s in traced)
    print(json.dumps({"meta": meta}))

    if not correct:
        metrics = {}
    elif trace:
        metrics = per_layer_metrics(untraced, traced)
    else:
        metrics = end_to_end_metrics(probes, untraced)
    result = {"correct": correct, "attempted": len(checks), "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


def _counts(summary: dict) -> dict:
    return {k: summary[k] for k in ("counts", "distinct_matrices", "nnz", "commutant_unknowns")}


if __name__ == "__main__":
    sys.exit(main())
