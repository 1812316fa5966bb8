"""Double-centralizer checks, faithfulness, and the grid driver."""

import pytest

from rookdual import (
    DualityCell,
    centralizer_data,
    default_grid,
    predicted_algebra_faithful,
    predicted_semigroup_faithful,
    run_full_report,
    run_grid,
    verify_algebra_faithfulness,
    verify_commutation,
    verify_semigroup_faithfulness,
)


def test_commutation_on_the_core_grid():
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            assert verify_commutation(n, k, "V")
    for n in (1, 2):
        for k in (1, 2):
            assert verify_commutation(n, k, "U")
    assert verify_commutation(3, 2, "U")
    assert verify_commutation(2, 3, "U")


CENTRALIZER_V = {
    (1, 1): (1, 1),
    (2, 1): (1, 1),
    (1, 2): (1, 1),
    (2, 2): (3, 3),
    (3, 2): (3, 3),
    (2, 3): (19, 19),
}

CENTRALIZER_U = {
    (1, 1): (2, 2),
    (2, 1): (2, 2),
    (1, 2): (10, 10),
    (2, 2): (12, 12),
}


@pytest.mark.parametrize("cell,expected", sorted(CENTRALIZER_V.items()))
def test_centralizer_on_V(cell, expected):
    n, k = cell
    duality = DualityCell(n, k, "V")
    dim_comm, dim_span, right_in_comm, comm_in_right = duality.half_centralizer("left")
    assert (dim_comm, dim_span) == expected
    assert right_in_comm and comm_in_right


@pytest.mark.parametrize("cell,expected", sorted(CENTRALIZER_U.items()))
def test_centralizer_on_U(cell, expected):
    n, k = cell
    duality = DualityCell(n, k, "U")
    dim_comm, dim_span, right_in_comm, comm_in_right = duality.half_centralizer("left")
    assert (dim_comm, dim_span) == expected
    assert right_in_comm and comm_in_right


def test_centralizer_both_directions():
    data = centralizer_data(3, 3, "V")
    assert data.dims == (25, 25, 33, 33)
    assert data.ok
    data = centralizer_data(2, 2, "U")
    assert data.dims == (12, 12, 7, 7)
    assert data.ok


@pytest.mark.parametrize(
    "right, inside",
    [
        ([(0, 1, 2, 3)], True),  # support {0,5,10,15}: classes (0,15), (5,10)
        ([(0, 1, 2, 3), (0, -1, -1, -1)], False),  # {0} cuts the class (0,15)
        ([(0, 1, 2, 3), (1, 0, 2, 3)], False),  # coordinate 4 is in no class
    ],
)
def test_centralizer_inclusions_can_fail(right, inside):
    """The left commutant of V(2,2) has the classes (0,15), (5,10) and
    (6,9).  A right side swapped for one that leaves it, or that spans
    too little of it, must fail the inclusions."""

    class Tampered(DualityCell):
        def targets(self, side):
            return right if side == "right" else super().targets(side)

    comm, span, right_in, comm_in = Tampered(2, 2, "V").half_centralizer("left")
    assert (comm, span, right_in, comm_in) == (3, len(right), inside, False)


def test_span_never_exceeds_commutant():
    """Commutation alone gives one inclusion, so this inequality must
    hold even where the full equality is not being asserted."""
    for n, k, space in ((1, 2, "V"), (2, 2, "V"), (2, 1, "U"), (1, 2, "U")):
        data = centralizer_data(n, k, space)
        assert data.dim_span_of_right <= data.dim_commutant_of_left
        assert data.dim_span_of_left <= data.dim_commutant_of_right


def test_semigroup_faithfulness_boundaries():
    # one-point ground set: all dual elements act as the identity
    assert not verify_semigroup_faithfulness(1, 2, "istar_on_V")
    assert not verify_semigroup_faithfulness(1, 3, "istar_on_V")
    assert verify_semigroup_faithfulness(1, 1, "istar_on_V")
    assert verify_semigroup_faithfulness(2, 2, "istar_on_V")
    assert verify_semigroup_faithfulness(2, 3, "istar_on_V")
    for n, k in ((1, 1), (1, 2), (2, 1), (3, 2)):
        assert verify_semigroup_faithfulness(n, k, "is_on_V")
        assert verify_semigroup_faithfulness(n, k, "is_on_U")
        assert verify_semigroup_faithfulness(n, k, "pistar_on_U")
    with pytest.raises(ValueError):
        verify_semigroup_faithfulness(2, 2, "nonsense")


def test_algebra_faithfulness_boundaries():
    # contracted rook algebra on V: faithful exactly when k >= n
    assert verify_algebra_faithfulness(2, 2, "contracted_is_on_V")
    assert verify_algebra_faithfulness(2, 3, "contracted_is_on_V")
    assert not verify_algebra_faithfulness(2, 1, "contracted_is_on_V")
    assert not verify_algebra_faithfulness(3, 2, "contracted_is_on_V")
    # dual side on V: faithful exactly when k <= n
    assert verify_algebra_faithfulness(2, 2, "istar_on_V")
    assert verify_algebra_faithfulness(3, 2, "istar_on_V")
    assert not verify_algebra_faithfulness(2, 3, "istar_on_V")
    assert not verify_algebra_faithfulness(1, 2, "istar_on_V")
    # full rook algebra on U: k >= n
    assert verify_algebra_faithfulness(1, 1, "is_on_U")
    assert verify_algebra_faithfulness(2, 2, "is_on_U")
    assert not verify_algebra_faithfulness(2, 1, "is_on_U")
    # partial dual algebra on U: k <= n
    assert verify_algebra_faithfulness(2, 2, "pistar_on_U")
    assert verify_algebra_faithfulness(2, 1, "pistar_on_U")
    assert not verify_algebra_faithfulness(1, 2, "pistar_on_U")
    with pytest.raises(ValueError):
        verify_algebra_faithfulness(2, 2, "nonsense")


def test_predictions_table():
    assert predicted_semigroup_faithful(1, 2, "is_on_V")
    assert not predicted_semigroup_faithful(1, 2, "istar_on_V")
    assert predicted_semigroup_faithful(1, 1, "istar_on_V")
    assert predicted_semigroup_faithful(2, 9, "istar_on_V")
    assert predicted_semigroup_faithful(1, 5, "pistar_on_U")
    assert predicted_algebra_faithful(2, 3, "contracted_is_on_V")
    assert not predicted_algebra_faithful(3, 2, "contracted_is_on_V")
    assert predicted_algebra_faithful(3, 2, "istar_on_V")
    assert not predicted_algebra_faithful(2, 3, "pistar_on_U")
    assert predicted_algebra_faithful(3, 3, "is_on_U")


def test_full_report_matches_everywhere_small():
    for n, k, space in ((1, 1, "V"), (2, 2, "V"), (1, 2, "U"), (2, 2, "U")):
        report = run_full_report(n, k, space)
        assert report.commute_ok
        assert report.centralizer_ok
        assert report.match
        d = report.to_json_dict()
        assert d["n"] == n and d["k"] == k and d["space"] == space
        assert d["match"] is True
        assert len(d["centralizer_dims"]) == 4


def test_full_report_without_commutant():
    report = run_full_report(4, 2, "V", with_commutant=False)
    assert report.centralizer_dims is None
    assert report.centralizer_ok is None
    assert report.match
    assert not report.algebra_faithful_left  # k < n kills the contracted algebra
    assert report.to_json_dict()["centralizer_dims"] is None


def test_default_grid_shape():
    grid = default_grid()
    assert ("V", 3, 3, True) in grid
    assert ("V", 4, 4, False) in grid
    assert ("U", 2, 2, True) in grid
    assert ("U", 3, 2, False) in grid
    assert ("V", 4, 4, True) not in grid
    v_only = default_grid(spaces=("V",))
    assert all(space == "V" for space, *_ in v_only)


def test_run_grid_bounds():
    reports = run_grid(spaces=("V",), max_n=2, max_k=2)
    assert {(r.n, r.k) for r in reports} == {(1, 1), (1, 2), (2, 1), (2, 2)}
    assert all(r.match for r in reports)
    reports = run_grid(spaces=("U",), max_n=1, max_k=1)
    assert [(r.n, r.k, r.space) for r in reports] == [(1, 1, "U")]
