"""Closed-form predictions and output checks for the benchmark.

Nothing here imports rookdual: every expected value is computed from
the paper's formulas, so a wrong answer from the package cannot also
move its own yardstick.  A check is a ``(name, ok)`` pair; a workload's
checks are counted as attempted and the failing ones as failed.

Checks are semantic, not byte-for-byte.  A report may carry extra
fields or fill in a cell the seed skips (its dimensions are then
checked too); it may not drop a cell, a morphism report, or checked
pairs, so that doing less work cannot pass for a speed-up.
"""

import json
import math

# The seed's ``verify --all`` grid: cells with the full double-centralizer
# check, and cells where only spans and faithfulness are checked today.
V_FULL_CELLS = tuple(("V", n, k) for n in (1, 2, 3) for k in (1, 2, 3))
V_SPAN_CELLS = (("V", 4, 2), ("V", 2, 4), ("V", 4, 4))
U_FULL_CELLS = tuple(("U", n, k) for n in (1, 2) for k in (1, 2))
U_SPAN_CELLS = (("U", 3, 2), ("U", 2, 3))
SEED_GRID = V_FULL_CELLS + V_SPAN_CELLS + U_FULL_CELLS + U_SPAN_CELLS
SEED_FULL_CELLS = frozenset(V_FULL_CELLS + U_FULL_CELLS)


def stirling2(n: int, m: int) -> int:
    """Stirling number of the second kind, by the triangle recurrence."""
    row = [1] + [0] * m  # S(0, j)
    for i in range(1, n + 1):
        prev = row
        row = [0] * (m + 1)
        for j in range(1, min(i, m) + 1):
            row[j] = j * prev[j] + prev[j - 1]
    return row[m]


def matched_partitions(a: int, b: int, max_blocks: int) -> int:
    """Partitions of a top points and b bottom points into at most
    ``max_blocks`` blocks, every block meeting both rows."""
    return sum(
        stirling2(a, m) * stirling2(b, m) * math.factorial(m)
        for m in range(min(a, b, max_blocks) + 1)
    )


def pistar_count(k: int, max_blocks: int | None = None) -> int:
    """Partial dual elements on k strands with at most ``max_blocks`` blocks."""
    limit = k if max_blocks is None else max_blocks
    return sum(
        math.comb(k, a) * math.comb(k, b) * matched_partitions(a, b, limit)
        for a in range(k + 1)
        for b in range(k + 1)
    )


def rook_count(n: int, max_rank: int, min_rank: int = 0) -> int:
    """Partial injections on n points with rank in [min_rank, max_rank]."""
    return sum(
        math.comb(n, r) ** 2 * math.factorial(r)
        for r in range(min_rank, min(n, max_rank) + 1)
    )


def expected_dims(space: str, n: int, k: int) -> tuple:
    """Predicted ``(commutant of left, span of right, commutant of right,
    span of left)``, the order of ``CentralizerData.dims``."""
    if space == "V":
        left_commutant = matched_partitions(k, k, n)
        right_commutant = rook_count(n, k, min_rank=1)
    else:
        left_commutant = pistar_count(k, n)
        right_commutant = rook_count(n, k)
    return (left_commutant, left_commutant, right_commutant, right_commutant)


def expected_faithfulness(space: str, n: int, k: int) -> dict:
    """The paper's faithfulness iff-conditions, keyed as in the report."""
    if space == "V":
        right_semigroup = n >= 2 or k == 1
    else:
        right_semigroup = True
    return {
        "semigroup_faithful_left": True,
        "semigroup_faithful_right": right_semigroup,
        "algebra_faithful_left": k >= n,
        "algebra_faithful_right": k <= n,
    }


def morphism_floor(n: int, k: int, sampled_pairs: int | None) -> dict:
    """Minimum ``pairs_checked`` for each morphism report of ``verify
    --props`` at (n, k): all pairs when exhaustive, else the sample size."""
    elements = pistar_count(k)
    pairs = elements**2 if sampled_pairs is None else sampled_pairs
    return {
        ("coarsening_sum", k, None): pairs,
        ("block_subset_sum", k, None): pairs,
        ("hat_consistency", k, n): elements * (n + 1) ** k,
        ("tilde_factorization", k, n): elements,
    }


def _cell_name(space, n, k) -> str:
    return f"{space}({n},{k})"


def check_cell(cell: tuple, report: dict | None, require_dims: bool) -> list:
    """Checks on one duality report (a ``verify`` JSON entry)."""
    name = _cell_name(*cell)
    if report is None:
        return [(f"{name}.present", False)]
    checks = [
        (f"{name}.present", True),
        (f"{name}.commute_ok", report.get("commute_ok") is True),
        (f"{name}.match", report.get("match") is True),
    ]
    for key, value in expected_faithfulness(*cell).items():
        checks.append((f"{name}.{key}", report.get(key) is value))
    dims = report.get("centralizer_dims")
    if dims is None:
        checks.append((f"{name}.centralizer_computed", not require_dims))
    else:
        checks.append((f"{name}.centralizer_dims", tuple(dims) == expected_dims(*cell)))
        checks.append((f"{name}.centralizer_ok", report.get("centralizer_ok") is True))
    return checks


def check_morphisms(reports: list, floor: dict) -> list:
    """Each expected morphism report is present, holds, and checked at
    least its floor of pairs."""
    by_key = {(r.get("map_name"), r.get("k"), r.get("n")): r for r in reports}
    checks = []
    for key, min_pairs in floor.items():
        name = key[0]
        report = by_key.get(key)
        if report is None:
            checks.append((f"{name}.present", False))
            continue
        checks += [
            (f"{name}.present", True),
            (f"{name}.homomorphism_ok", report.get("homomorphism_ok") is True),
            (f"{name}.inverse_ok", report.get("inverse_ok") is True),
            (f"{name}.pairs_checked", report.get("pairs_checked", 0) >= min_pairs),
        ]
    return checks


def check_verify(output: dict, cells: tuple, full_cells, morphisms: dict) -> list:
    """Checks on one ``rookdual verify --format json`` run: exit code,
    ``all_match``, every expected cell and every expected morphism report."""
    checks = [("exit_code", output.get("exit_code") == 0)]
    try:
        report = json.loads(output.get("stdout", ""))
    except json.JSONDecodeError:
        return checks + [("json", False)]
    checks.append(("all_match", report.get("all_match") is True))
    by_cell = {
        (r.get("space"), r.get("n"), r.get("k")): r for r in report.get("duality", [])
    }
    for cell in cells:
        checks += check_cell(cell, by_cell.get(cell), cell in full_cells)
    checks += check_morphisms(report.get("morphisms", []), morphisms)
    return checks


def check_centralizer(output: dict, cells: tuple) -> list:
    """Checks on the ``centralizer_data`` workload: every cell solved,
    with the predicted dimensions and both span equalities."""
    by_cell = {tuple(c["cell"]): c for c in output.get("cells", [])}
    checks = []
    for cell in cells:
        name = _cell_name(*cell)
        got = by_cell.get(cell)
        if got is None:
            checks.append((f"{name}.solved", False))
            continue
        checks += [
            (f"{name}.solved", True),
            (f"{name}.dims", tuple(got["dims"]) == expected_dims(*cell)),
            (f"{name}.ok", got["ok"] is True),
        ]
    return checks
