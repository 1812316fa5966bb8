"""Tests of the benchmark itself, on cells small enough to run in seconds.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

TINY_GRID = tuple(c for c in oracle.SEED_GRID if c[1] <= 2 and c[2] <= 2)
TINY_CELLS = (("V", 2, 2), ("U", 1, 2), ("V", 2, 3))
TINY = {
    "tiny-verify": run.Workload(
        "tiny-verify",
        "cli",
        run._verify_check(TINY_GRID, oracle.SEED_FULL_CELLS, oracle.morphism_floor(2, 2, None)),
        argv=("verify", "--all", "--max-n", "2", "--max-k", "2", "--format", "json"),
    ),
    "tiny-centralizer": run.Workload(
        "tiny-centralizer", "centralizer", run._centralizer_check(TINY_CELLS), cells=TINY_CELLS
    ),
}
COUNTS = (
    "tensor_actions.matrix_builds",
    "tensor_actions.distinct_matrices",
    "tensor_actions.match_calls",
    "tensor_actions.nnz",
    "exact_linalg.commutant_unknowns",
    "exact_linalg.rowspace_adds",
    "semigroups.product_calls",
    "diagrams.enumerate_calls",
)


def _declared():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _run(capsys, workload, seed, trace):
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        workloads=TINY,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2])["meta"], json.loads(lines[-1])


def test_closed_forms_match_known_counts():
    assert [oracle.pistar_count(k) for k in (1, 2, 3)] == [2, 12, 128]
    assert [oracle.matched_partitions(k, k, k) for k in (3, 4, 5)] == [25, 339, 6721]
    assert [oracle.rook_count(n, n) for n in (1, 2, 3)] == [2, 7, 34]
    # Values printed by the seed's ``verify --all``.
    assert oracle.expected_dims("V", 2, 3) == (19, 19, 6, 6)
    assert oracle.expected_dims("V", 3, 3) == (25, 25, 33, 33)
    assert oracle.expected_dims("U", 1, 2) == (10, 10, 2, 2)
    assert oracle.expected_dims("U", 2, 2) == (12, 12, 7, 7)


def test_oracle_flags_wrong_dimension(monkeypatch):
    output = worker.run_body({"kind": "centralizer", "cells": [["V", 2, 2]]})
    assert all(ok for _, ok in oracle.check_centralizer(output, (("V", 2, 2),)))

    wrong = (4, 3, 6, 6)
    monkeypatch.setattr(oracle, "expected_dims", lambda *cell: wrong)
    failed = [name for name, ok in oracle.check_centralizer(output, (("V", 2, 2),)) if not ok]
    assert failed == ["V(2,2).dims"]


def test_oracle_flags_missing_work():
    report = {
        "all_match": True,
        "duality": [
            {"space": "V", "n": 1, "k": 1, "commute_ok": True, "match": True,
             "centralizer_dims": None, **oracle.expected_faithfulness("V", 1, 1)},
        ],
        "morphisms": [
            {"map_name": "coarsening_sum", "k": 2, "homomorphism_ok": True,
             "inverse_ok": True, "pairs_checked": 100},
        ],
    }
    output = {"exit_code": 0, "stdout": json.dumps(report)}
    floor = {("coarsening_sum", 2, None): 144}
    failed = [n for n, ok in oracle.check_verify(output, (("V", 1, 1), ("V", 1, 2)),
                                                 oracle.SEED_FULL_CELLS, floor) if not ok]
    assert failed == ["V(1,1).centralizer_computed", "V(1,2).present",
                      "coarsening_sum.pairs_checked"]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_harness_end_to_end(capsys, workload):
    code, meta, result = _run(capsys, workload, seed=3, trace=0)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert meta["seed"] == 3 and meta["python"] and meta["nproc"] >= 1


def test_traced_counts_repeat(capsys):
    _, meta_a, first = _run(capsys, "tiny-centralizer", seed=1, trace=1)
    _, meta_b, second = _run(capsys, "tiny-centralizer", seed=2, trace=1)
    assert first["correct"] and second["correct"]
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == declared
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["exact_linalg.rowspace_adds"]["value"] > 0
    assert first["metrics"]["trace.attributed_share"]["value"] >= 0.9
    assert meta_a["absent"] == [] and meta_a["counts_repeat"]


def test_removed_name_is_reported_absent():
    import rookdual  # noqa: F401  (the tracer patches imported modules only)

    t = tracer.Tracer()
    t.install(sites=[
        ("dualities", "no_such_function", tracer.TIMED, "g"),
        ("exact_linalg", "NoSuchClass.method", tracer.COUNT, "c"),
    ])
    assert t.absent == ["dualities.no_such_function", "exact_linalg.NoSuchClass.method"]
