"""Acceptance gate: one test per acceptance criterion.

Each criterion gets exactly one test function so a verbose run shows
one pass/fail line per criterion.  Everything is exact rational
arithmetic; the only inequalities are the wall-clock budgets.
"""

import itertools
import random
import time

from rookdual import (
    ActionSpace,
    DeformationCell,
    DualityCell,
    bullet_multiply,
    centralizer_data,
    count_is,
    count_istar,
    enumerate_is,
    enumerate_istar,
    enumerate_pistar,
    multiply_composition,
    multiply_istar,
    multiply_pistar,
    parse_element,
    predicted_faithful,
    run_grid,
    star_multiply,
)
from rookdual.cli import main
from rookdual.diagrams import HatElement

from oracles import all_elements_commute, exact_action
from test_semigroups import _all_partitions_k2


def test_criterion_1_worked_product(capsys):
    code = main(["multiply", "--semigroup", "is", "--n", "5",
                 "[2,-,3,5,-]", "[5,4,1,-,-]"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "[-,5,2,-,-]\n"
    # budget is on the operation itself: parse, multiply, format
    best = min(
        _timed_once("[2,-,3,5,-]", "[5,4,1,-,-]") for _ in range(20)
    )
    assert best < 0.001, f"product took {best * 1000:.3f} ms"
    print(f"criterion 1: product [-,5,2,-,-] in {best * 1e6:.1f} us")


def _timed_once(lhs_text, rhs_text):
    start = time.perf_counter()
    lhs = parse_element(lhs_text, "is", 5)
    rhs = parse_element(rhs_text, "is", 5)
    str(lhs * rhs)
    return time.perf_counter() - start


def test_criterion_2_actions_commute():
    start = time.monotonic()
    cells_v = [(n, k) for n in (1, 2, 3) for k in (1, 2, 3)]
    cells_u = [(n, k) for n in (1, 2) for k in (1, 2)] + [(3, 2), (2, 3)]
    for n, k in cells_v:
        assert all_elements_commute(DualityCell(n, k, "V")), (n, k, "V")
    for n, k in cells_u:
        assert all_elements_commute(DualityCell(n, k, "U")), (n, k, "U")
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(f"criterion 2: {len(cells_v) + len(cells_u)} cells commute "
          f"in {elapsed:.1f}s")


def test_criterion_3_tensor_space_centralizers():
    start = time.monotonic()
    for n, k in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3)):
        data = centralizer_data(n, k, "V")
        assert data.ok, (n, k, data.dims)
        assert data.dim_commutant_of_left == data.dim_span_of_right
        assert data.dim_commutant_of_right == data.dim_span_of_left
        if (n, k) == (3, 2):
            assert data.dim_commutant_of_left == 3
            assert data.dim_span_of_right == 3
    elapsed = time.monotonic() - start
    assert elapsed < 300
    print(f"criterion 3: six tensor-space cells in {elapsed:.1f}s")


def test_criterion_4_augmented_space_centralizers():
    start = time.monotonic()
    for n, k in ((1, 1), (2, 1), (1, 2), (2, 2)):
        data = centralizer_data(n, k, "U")
        assert data.ok, (n, k, data.dims)
        assert data.dim_commutant_of_left == data.dim_span_of_right
        assert data.dim_commutant_of_right == data.dim_span_of_left
        if (n, k) == (2, 2):
            assert data.dim_commutant_of_left == 12
            assert data.dim_span_of_right == 12
    elapsed = time.monotonic() - start
    assert elapsed < 300
    print(f"criterion 4: four augmented-space cells in {elapsed:.1f}s")


def test_criterion_5_faithfulness_grid(capsys):
    reports = run_grid()
    for r in reports:
        left_s, left_a = predicted_faithful(r.space, "left", r.n, r.k)
        right_s, right_a = predicted_faithful(r.space, "right", r.n, r.k)
        assert r.semigroup_faithful_left == left_s
        assert r.semigroup_faithful_right == right_s
        assert r.algebra_faithful_left == left_a
        assert r.algebra_faithful_right == right_a
        assert r.match, (r.space, r.n, r.k)
    # boundary cells the predicate table pivots on
    cells = {(r.space, r.n, r.k) for r in reports}
    for cell in (("V", 1, 2), ("V", 2, 2), ("V", 2, 3), ("V", 3, 2),
                 ("U", 1, 2), ("U", 2, 1), ("U", 2, 2)):
        assert cell in cells
    code = main(["verify", "--all"])
    capsys.readouterr()
    assert code == 0
    print(f"criterion 5: {len(reports)} grid cells match, verify exits 0")


def test_criterion_6_deformed_action_identities():
    start = time.monotonic()
    for n, k in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 2)):
        hat = DeformationCell(k).hat_consistency(n)
        tilde = DeformationCell(k).tilde_factorization(n)
        assert hat.homomorphism_ok, (n, k)
        assert tilde.homomorphism_ok, (n, k)
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(f"criterion 6: hat and tilde identities hold in {elapsed:.1f}s")


def test_criterion_7_morphism_suite():
    for map_name in ("coarsening_sum", "block_subset_sum"):
        for k in (1, 2):
            report = DeformationCell(k).homomorphism(map_name)
            assert report.homomorphism_ok and report.inverse_ok
            if k == 2:
                assert report.pairs_checked == 144
        report = DeformationCell(3).homomorphism(map_name)
        assert report.pairs_checked == 16_384
        assert report.homomorphism_ok and report.inverse_ok
    print("criterion 7: both deformation maps are homomorphisms with "
          "two-sided inverses")


def test_criterion_8_element_counts():
    assert len(enumerate_is(3)) == 34 and count_is(3) == 34
    assert len(enumerate_istar(3)) == 25 and count_istar(3) == 25
    assert len(enumerate_pistar(2)) == 12
    assert len(enumerate_istar(1)) == 1 and count_istar(1) == 1
    print("criterion 8: counts 34, 25, 12, 1 confirmed")


def test_criterion_9_property_suites():
    rng = random.Random(19)

    # associativity, family by family
    for n in (1, 2, 3):
        els = enumerate_is(n)
        for a, b, c in itertools.product(els, repeat=3):
            assert (a * b) * c == a * (b * c)
    from test_diagrams import brute_partitions, raw_points
    from rookdual.diagrams import canonicalize, primed, unprimed
    comp_els = {
        1: [
            canonicalize(
                [[(primed if pr else unprimed)(i) for pr, i in block]
                 for block in part], 1)
            for part in brute_partitions(raw_points(1))
            if part
        ],
        2: _all_partitions_k2(),
    }
    for k in (1, 2):
        for a, b, c in itertools.product(comp_els[k], repeat=3):
            left = multiply_composition(multiply_composition(a, b).diagram, c).diagram
            right = multiply_composition(a, multiply_composition(b, c).diagram).diagram
            assert left == right
    for k in (1, 2):
        els = enumerate_istar(k)
        for a, b, c in itertools.product(els, repeat=3):
            assert multiply_istar(multiply_istar(a, b), c) == \
                multiply_istar(a, multiply_istar(b, c))
        els = enumerate_pistar(k)
        for a, b, c in itertools.product(els, repeat=3):
            assert multiply_pistar(multiply_pistar(a, b), c) == \
                multiply_pistar(a, multiply_pistar(b, c))
        hats = [HatElement.wrap(d) for d in els] + [HatElement.zero(k)]
        for a, b, c in itertools.product(hats, repeat=3):
            assert star_multiply(star_multiply(a, b), c) == \
                star_multiply(a, star_multiply(b, c))
        for a, b, c in itertools.product(els, repeat=3):
            assert bullet_multiply(bullet_multiply(a, b), c) == \
                bullet_multiply(a, bullet_multiply(b, c))
    big_hats = [HatElement.wrap(d) for d in enumerate_pistar(3)] + [HatElement.zero(3)]
    for _ in range(400):
        a, b, c = (rng.choice(enumerate_pistar(3)) for _ in range(3))
        assert multiply_pistar(multiply_pistar(a, b), c) == \
            multiply_pistar(a, multiply_pistar(b, c))
        assert bullet_multiply(bullet_multiply(a, b), c) == \
            bullet_multiply(a, bullet_multiply(b, c))
        a, b, c = (rng.choice(enumerate_istar(3)) for _ in range(3))
        assert multiply_istar(multiply_istar(a, b), c) == \
            multiply_istar(a, multiply_istar(b, c))
        a, b, c = (rng.choice(big_hats) for _ in range(3))
        assert star_multiply(star_multiply(a, b), c) == \
            star_multiply(a, star_multiply(b, c))

    # matrix oracle: the tensor action reverses diagram products
    for n in (1, 2, 3):
        for k in range(1, n + 1):
            space = ActionSpace("V", n, k)
            mats = {a: exact_action(a, space) for a in enumerate_istar(k)}
            for a, b in itertools.product(enumerate_istar(k), repeat=2):
                assert mats[multiply_istar(a, b)] == mats[b] * mats[a]
            space = ActionSpace("U", n, k)
            mats = {a: exact_action(a, space, "plain")
                    for a in enumerate_pistar(k)}
            for a, b in itertools.product(enumerate_pistar(k), repeat=2):
                assert mats[multiply_pistar(a, b)] == mats[b] * mats[a]

    # parse/format round trip on every enumerated element
    for n in (1, 2, 3):
        for a in enumerate_is(n):
            assert parse_element(str(a), "is", n) == a
    for k in (1, 2, 3):
        for a in enumerate_istar(k):
            assert parse_element(str(a), "istar", k) == a
        for a in enumerate_pistar(k):
            assert parse_element(str(a), "pistar", k) == a
    print("criterion 9: associativity, action oracle, and notation "
          "round-trips all hold")
