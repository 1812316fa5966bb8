"""The Fraction matrices, rank and span oracles of ``oracles``
cross-checked against sympy on small dense instances, and the
commutant of target tuples (orbits of the permutation sources joined
by a union-find over the graded live entries), cross-checked against
sympy, against the Fraction null-space solve kept here as the oracle
and against the flat union-find of ``oracles``, also on random partial
permutations."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from rookdual import (
    GRID,
    ActionSpace,
    DualityCell,
    SizeGuardError,
    action_targets,
    enumerate_istar,
    is_generators,
    targets_commutant,
)

from oracles import (
    ExactMatrix,
    RowSpace,
    cell_targets,
    exact_action,
    flat_targets_commutant,
    in_span,
    rank,
    span_dimension,
    targets_matrix,
    transpose,
    vectorize,
)


def dense(m: ExactMatrix):
    return sympy.Matrix(
        m.rows, m.cols, lambda r, c: sympy.Rational(m.entries.get((r, c), 0))
    )


def from_rows(rows):
    entries = {}
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            entries[(r, c)] = Fraction(v)
    return ExactMatrix(len(rows), len(rows[0]), entries)


def test_matrix_construction_and_arithmetic():
    m = from_rows([[1, 2], [3, 4]])
    assert m.entries[(1, 0)] == 3
    assert (m + m).entries[(0, 1)] == 4
    assert (m - m).entries == {}
    assert m.scale(Fraction(1, 2)).entries[(1, 1)] == 2
    prod = m * ExactMatrix.identity(2)
    assert prod == m
    assert transpose(m).entries[(0, 1)] == 3
    assert ExactMatrix.zero(2, 3).entries == {}
    with pytest.raises(ValueError):
        ExactMatrix(1, 1, {(0, 1): 1})
    with pytest.raises(ValueError):
        from_rows([[1, 2]]) * from_rows([[1, 2]])
    with pytest.raises(AttributeError):
        m.rows = 3


def test_matrix_product_small_example():
    a = from_rows([[1, 2], [0, 1]])
    b = from_rows([[1, 0], [3, 1]])
    assert a * b == from_rows([[7, 2], [3, 1]])
    assert b * a == from_rows([[1, 2], [3, 7]])


def test_vectorize_layout():
    m = from_rows([[0, 5], [7, 0]])
    assert vectorize(m) == {1: 5, 2: 7}


def test_rank_examples():
    assert rank(ExactMatrix.identity(4)) == 4
    assert rank(ExactMatrix.zero(3, 3)) == 0
    assert rank(from_rows([[1, 2], [2, 4]])) == 1
    assert rank(from_rows([[1, 2], [2, 5]])) == 2
    thirds = from_rows([[Fraction(1, 3), 1], [1, 3]])
    assert rank(thirds) == 1


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.lists(st.integers(-4, 4), min_size=16, max_size=16),
    st.integers(1, 5),
)
def test_rank_matches_sympy(rows, cols, flat, denom):
    entries = {}
    it = iter(flat)
    for r in range(rows):
        for c in range(cols):
            entries[(r, c)] = Fraction(next(it), denom)
    m = ExactMatrix(rows, cols, entries)
    assert rank(m) == dense(m).rank()
    assert rank(m) == rank(transpose(m))


def test_row_space_incremental():
    space = RowSpace()
    assert space.add({0: Fraction(2), 1: Fraction(4)})
    assert not space.add({0: Fraction(1), 1: Fraction(2)})
    assert space.add({1: Fraction(1)})
    assert space.dimension == 2
    assert space.contains({0: Fraction(5), 1: Fraction(-1)})
    assert not space.contains({2: Fraction(1)})


def test_span_and_membership():
    a = from_rows([[1, 0], [0, 0]])
    b = from_rows([[0, 1], [0, 0]])
    assert span_dimension([a, b, a + b]) == 2
    assert in_span(a + b.scale(7), [a, b])
    assert not in_span(from_rows([[0, 0], [1, 0]]), [a, b])
    assert span_dimension([]) == 0


def brute_commutant_dimension(generators, d):
    """Independent dense solve: stack the Sylvester systems and take the
    null space dimension with sympy."""
    rows = []
    for g in generators:
        gd = dense(g)
        for i in range(d):
            for j in range(d):
                row = [sympy.Integer(0)] * (d * d)
                for l in range(d):
                    row[i * d + l] += gd[l, j]
                    row[l * d + j] -= gd[i, l]
                rows.append(row)
    if not rows:
        return d * d
    system = sympy.Matrix(rows)
    return d * d - system.rank()


def commutant_basis(generators, d: int) -> list:
    """Oracle: basis of {X : XG = GX for every generator G}, by sparse
    Fraction elimination of the stacked system over the d*d unknowns;
    one ExactMatrix per free variable, with the free entry set to 1."""
    space = RowSpace()
    for g in generators:
        by_col = {}
        by_row = {}
        for (r, c), v in g.entries.items():
            by_col.setdefault(c, []).append((r, v))
            by_row.setdefault(r, []).append((c, v))
        for i in range(d):
            for j in range(d):
                eq = {}
                for l, v in by_col.get(j, ()):
                    key = i * d + l
                    eq[key] = eq.get(key, 0) + v
                for l, v in by_row.get(i, ()):
                    key = l * d + j
                    eq[key] = eq.get(key, 0) - v
                if eq:
                    space.add(eq)
    return _null_space_matrices(space, d)


def _null_space_matrices(space: RowSpace, d: int) -> list:
    """Null-space basis of an echelon system, one matrix per free column."""
    pivots = space.pivot_rows
    free_cols = [c for c in range(d * d) if c not in pivots]
    basis = []
    pivot_cols_desc = sorted(pivots, reverse=True)
    for f in free_cols:
        x = {f: Fraction(1)}
        for p in pivot_cols_desc:
            if p > f:
                continue
            acc = Fraction(0)
            for c, v in pivots[p].items():
                if c == p:
                    continue
                xc = x.get(c)
                if xc:
                    acc += v * xc
            if acc:
                x[p] = -acc
        entries = {divmod(c, d): v for c, v in x.items() if v}
        basis.append(ExactMatrix(d, d, entries))
    return basis


def class_matrices(classes, d):
    """The basis matrix of each coordinate class: 1 on its members."""
    return [ExactMatrix(d, d, {divmod(x, d): 1 for x in c}) for c in classes]


def rook_generator_targets(space):
    return [action_targets(g, space) for g in is_generators(space.n)]


def test_commutant_of_nothing_is_everything():
    basis = class_matrices(targets_commutant([], 3), 3)
    assert len(basis) == 9
    assert span_dimension(basis) == 9


def test_commutant_of_identity_is_everything():
    assert len(targets_commutant([(0, 1, 2)], 3)) == 9


def test_commutant_scalar_case():
    sp = ActionSpace("V", 2, 1)
    gens = rook_generator_targets(sp) + [(0, 1)]
    assert targets_commutant(gens, 2) == [(0, 3)]  # entries (0,0) and (1,1)


def test_commutant_matches_dense_solver():
    sp = ActionSpace("V", 3, 2)
    gens = rook_generator_targets(sp) + [tuple(range(9))]
    classes = targets_commutant(gens, 9)
    assert len(classes) == 3
    assert len(classes) == brute_commutant_dimension(map(targets_matrix, gens), 9)


def test_commutant_members_commute():
    sp = ActionSpace("V", 3, 2)
    gens = [targets_matrix(t) for t in rook_generator_targets(sp)]
    basis = class_matrices(targets_commutant(rook_generator_targets(sp), 9), 9)
    for x in basis:
        for g in gens:
            assert x * g == g * x
    assert span_dimension(basis) == len(basis)


def test_commutant_contains_other_action():
    sp = ActionSpace("V", 3, 2)
    basis = class_matrices(targets_commutant(rook_generator_targets(sp), 9), 9)
    for alpha in enumerate_istar(2):
        assert in_span(exact_action(alpha, sp), basis)


def test_commutant_guard():
    with pytest.raises(SizeGuardError):
        targets_commutant([tuple(range(300))], 300)
    with pytest.raises(SizeGuardError):
        targets_commutant([], 265)  # 70,225 unknowns, just over the limit
    with pytest.raises(SizeGuardError, match=r"d\^2 \(d of 8001 bits\)"):
        targets_commutant([], 2**8000)  # d * d has too many digits to print
    assert len(targets_commutant([], 264)) == 264 * 264
    assert len(targets_commutant([], 265, unguarded=True)) == 265 * 265


def test_commutant_rejects_sources_that_are_not_partial_permutations():
    with pytest.raises(ValueError):
        targets_commutant([(0, 0, 2)], 3)
    with pytest.raises(ValueError):
        targets_commutant([(0, 1)], 3)
    with pytest.raises(ValueError):  # a target past d - 1
        targets_commutant([(5, 0)], 2)
    with pytest.raises(ValueError):  # a tuple longer than d
        targets_commutant([(0, 1, 2)], 2)


def test_commutant_forces_a_cell_whose_backward_partner_is_dead():
    """Backward equation (1, 1) of the partial map g = 0->1, 2->2 reads
    x[1, 2] = x[0, 2], and the diagonal idempotent keeping {0} forces
    x[0, 2] to zero; no forward equation of g reaches x[1, 2] (1 has no
    image), so the backward pass forces it even though both 1 and 2 have
    preimages under g."""
    sources = [(0, -1, -1, -1), (1, -1, 2, -1)]
    classes = targets_commutant(sources, 4)
    assert classes == flat_targets_commutant(sources, 4) == [(0, 5), (7,), (10,), (15,)]
    assert 1 * 4 + 2 not in {c for m in classes for c in m}


def _cell_id(cell):
    return f"{cell[0]}{cell[1]},{cell[2]}"


@pytest.mark.parametrize(
    "cell", [cell for cell in GRID if ActionSpace(*cell).dimension <= 27], ids=_cell_id
)
def test_commutant_classes_match_the_fraction_oracle(cell):
    space, n, k = cell
    duality = DualityCell(n, k, space)
    d = duality.space.dimension
    sources_list = (
        duality.generators("left"),
        duality.generators("right"),
        cell_targets(duality, "right"),
    )
    for sources in sources_list:
        expected = commutant_basis([targets_matrix(t) for t in sources], d)
        assert class_matrices(targets_commutant(sources, d), d) == expected


# The grid, the benchmark's centralizer cells, and larger cells up to
# d = 256 (U(3,4)) and d = 243 (V(3,5)).
GRADED_CELLS = (
    *GRID,
    *(("V", 4, 3), ("U", 3, 3), ("U", 4, 2), ("V", 3, 4)),
    *(("U", 2, 4), ("U", 3, 4), ("V", 3, 5)),
)


@pytest.mark.parametrize("cell", GRADED_CELLS, ids=_cell_id)
def test_graded_commutant_equals_the_flat_solve(cell):
    """The graded solve returns the flat union-find's class list, in the
    same order, for both sides' generators."""
    space, n, k = cell
    duality = DualityCell(n, k, space)
    d = duality.space.dimension
    for side in ("left", "right"):
        sources = duality.generators(side)
        assert targets_commutant(sources, d) == flat_targets_commutant(sources, d), side


@st.composite
def partial_permutations(draw):
    """A size d <= 7 and a few target tuples of length d, each a diagonal
    idempotent (j -> j on a kept set), a permutation, or a permutation
    restricted to part of its domain (a partial map)."""
    d = draw(st.integers(1, 7))
    sources = []
    for kind in draw(st.lists(st.sampled_from(("diagonal", "perm", "partial")), max_size=4)):
        perm = list(range(d)) if kind == "diagonal" else draw(st.permutations(range(d)))
        keep = draw(st.lists(st.booleans(), min_size=d, max_size=d))
        if kind == "perm":
            keep = [True] * d
        sources.append(tuple(t if kept else -1 for t, kept in zip(perm, keep)))
    return sources, d


@settings(max_examples=300, deadline=None)
@given(partial_permutations())
def test_orbit_solve_equals_the_flat_solve_on_random_partial_permutations(case):
    """The orbit walk plus the union-find over orbits gives the flat
    solve's classes, in the same order, on random mixes of diagonal
    idempotents, permutations and partial maps; a partial map has a
    missing forward image (no equation) and a missing backward image
    (the unknown is forced to zero)."""
    sources, d = case
    assert targets_commutant(sources, d) == flat_targets_commutant(sources, d)
