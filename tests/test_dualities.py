"""Double-centralizer checks, faithfulness, the orbit certification of
the spans, and the grid runner."""

import itertools
import math
import re
import tracemalloc

import pytest

import rookdual.diagrams
import rookdual.tensor_actions
from rookdual import (
    GRID,
    ActionSpace,
    DualityCell,
    PartialInjection,
    SizeGuardError,
    block_union_leq,
    centralizer_data,
    enumerate_pistar,
    is_generators,
    istar_generators,
    predicted_faithful,
    run_grid,
    targets_commutant,
)
from rookdual.morphisms import _upper_set_with_mobius
from rookdual.semigroups import _family_index, family

from oracles import (
    all_elements_commute,
    cell_targets,
    graded_targets_commutant,
    index_at,
    restricts,
    rowspace_half_centralizer,
    triple_supports,
    unions_of,
)


def test_commutation_on_the_core_grid():
    """Every left element commutes with every right element, pair by
    pair; at U(3,2) and U(2,3) the report's verdict, read off the left
    commutant, agrees."""
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            assert all_elements_commute(DualityCell(n, k, "V"))
    for n in (1, 2):
        for k in (1, 2):
            assert all_elements_commute(DualityCell(n, k, "U"))
    for n, k in ((3, 2), (2, 3)):
        cell = DualityCell(n, k, "U")
        assert all_elements_commute(cell)
        assert cell.report().commute_ok


def test_commute_ok_fails_on_a_left_generator_outside_the_right_commutant(monkeypatch):
    """The 3-cycle of tensor positions, the action of a permutation in
    I*_3, does not commute with all of I*_3.  Added to the left
    generators of V(2,3), it leaves the right span outside the left
    commutant, so the cell neither commutes nor matches."""
    space = ActionSpace("V", 2, 3)
    cycle = tuple(
        space.ordinal(index_at(space, c)[1:] + index_at(space, c)[:1])
        for c in range(space.dimension)
    )
    generators = DualityCell.generators

    def with_cycle(self, side):
        return generators(self, side) + ([cycle] if side == "left" else [])

    monkeypatch.setattr(DualityCell, "generators", with_cycle)
    report = DualityCell(2, 3, "V").report()
    assert report.commute_ok is False
    assert report.match is False


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
    dim_comm, dim_span, right_in_comm = duality.half_centralizer("left")
    assert (dim_comm, dim_span) == expected
    assert right_in_comm


@pytest.mark.parametrize("cell,expected", sorted(CENTRALIZER_U.items()))
def test_centralizer_on_U(cell, expected):
    n, k = cell
    duality = DualityCell(n, k, "U")
    dim_comm, dim_span, right_in_comm = duality.half_centralizer("left")
    assert (dim_comm, dim_span) == expected
    assert right_in_comm


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
    (6,9).  A right span swapped for the supports of tuples that leave
    it must fail the inclusion, and one that spans too little of it the
    dimension count; neither matches the commutant."""
    supports = [[t * 4 + c for c, t in enumerate(r) if t >= 0] for r in right]

    class Tampered(DualityCell):
        def _certified(self, side):
            if side == "left":
                return super()._certified(side)
            return supports, len(supports)

    cell = Tampered(2, 2, "V")
    assert cell.half_centralizer("left") == (3, len(right), inside)
    assert not cell.centralizer().right_matches_left_commutant
    assert not cell.centralizer().ok


def test_centralizer_inclusion_rejects_a_class_forced_to_zero():
    """A left source sending the tensor 11 to 12 and killing the rest
    forces V(2,2)'s left class (6,9) to zero and joins (0,15) to (5,10).
    A right span whose one support is exactly {6, 9} covers that class
    whole, but a zero-labelled coordinate counts as outside the
    commutant, so the span does not lie in it."""

    class Tampered(DualityCell):
        def generators(self, side):
            return super().generators(side) + ([(1, -1, -1, -1)] if side == "left" else [])

        def _certified(self, side):
            if side == "left":
                return super()._certified(side)
            return [[1 * 4 + 2, 2 * 4 + 1]], 1

    assert Tampered(2, 2, "V").half_centralizer("left") == (1, 1, False)


# The grid, the benchmark's centralizer cells, and two larger cells.
CERTIFIED_CELLS = sorted(
    set(GRID)
    | {("V", 4, 3), ("U", 4, 2), ("U", 3, 3), ("V", 3, 4), ("U", 2, 4)}
)


def _cell_id(cell):
    return f"{cell[0]}{cell[1]},{cell[2]}"


@pytest.mark.parametrize("cell", CERTIFIED_CELLS, ids=_cell_id)
def test_orbit_spans_match_the_rowspace_oracle(cell):
    """Both halves of the double centralizer, span dimension and the
    inclusion of the span in the commutant, equal the Fraction row
    reduction of the plain tuples against the same commutant classes;
    and the row reduction's own reverse inclusion, the commutant in the
    span, holds exactly when the span lies in the commutant with as many
    basis matrices as it has classes."""
    space, n, k = cell
    commutants = {}

    class OneSolve(DualityCell):
        def commutant(self, side):
            if side not in commutants:
                commutants[side] = super().commutant(side)
            return commutants[side]

    duality = OneSolve(n, k, space)
    for side, other in (("left", "right"), ("right", "left")):
        classes = duality.commutant(side)
        dim, span_in, comm_in = rowspace_half_centralizer(classes, cell_targets(duality, other))
        assert duality.half_centralizer(side) == (len(classes), dim, span_in), side
        assert comm_in == (span_in and len(classes) == dim), side


@pytest.mark.parametrize(
    "cell",
    [c for c in CERTIFIED_CELLS if c not in (("V", 4, 4), ("U", 2, 4))],
    ids=_cell_id,
)
def test_right_commutant_of_generators_is_that_of_all_elements(cell):
    """The right commutant solved on the generating set equals, class by
    class and in order, the one solved on every right element.  V(4,4)
    and U(2,4) are left out for time; the closure and multiplicativity
    tests cover them."""
    space, n, k = cell
    duality = DualityCell(n, k, space)
    every = targets_commutant(cell_targets(duality, "right"), duality.space.dimension)
    assert duality.commutant("right") == every


# every certified cell, plus three larger ones run unguarded
LABELLED_CELLS = (*CERTIFIED_CELLS, ("V", 5, 4), ("U", 4, 4), ("V", 3, 5))


@pytest.mark.parametrize("cell", LABELLED_CELLS, ids=_cell_id)
def test_orbit_labels_equal_the_graded_union_find(cell):
    """On both sides, ``targets_commutant`` (orbits of the permutation
    generators, joined by a union-find) lists the classes of the graded
    union-find with one call per equation term, class by class and in
    order; and ``half_centralizer``, which reads the class labels, equals
    the count of those classes, the count of orbit supports and the test
    that every support is a union of the classes.  Read against a side's
    own span, which mostly lies outside its commutant, it agrees too."""

    class OwnSpan(DualityCell):
        def span(self, side):
            return super().span("left" if side == "right" else "right")

    space, n, k = cell
    duality = DualityCell(n, k, space, unguarded=True)
    own = OwnSpan(n, k, space, unguarded=True)
    d = duality.space.dimension
    for side, other in (("left", "right"), ("right", "left")):
        classes = graded_targets_commutant(duality.generators(side), d)
        assert duality.commutant(side) == classes, side
        for checked, supports in ((duality, duality.span(other)), (own, duality.span(side))):
            expected = (len(classes), len(supports), unions_of(supports, classes))
            assert checked.half_centralizer(side) == expected, side


def _stirling2(k, m):
    """Set partitions of k points into m blocks, by the recurrence."""
    if k == 0 or m == 0:
        return int(k == m)
    return m * _stirling2(k - 1, m) + _stirling2(k - 1, m - 1)


def predicted_orbit_counts(space, n, k):
    """(left, right) non-zero orbit counts: rook elements whose domain a
    tensor of k digits can exhaust (a non-empty one on V), and diagrams
    with at most n blocks.  A partial dual element with m blocks picks
    its two supports and their partitions in S(k+1, m+1) ways each."""
    low = 1 if space == "V" else 0
    left = sum(math.comb(n, r) ** 2 * math.factorial(r) for r in range(low, min(n, k) + 1))
    if space == "V":
        terms = (_stirling2(k, m) ** 2 * math.factorial(m) for m in range(min(n, k) + 1))
    else:
        terms = (_stirling2(k + 1, m + 1) ** 2 * math.factorial(m) for m in range(min(n, k) + 1))
    return left, sum(terms)


@pytest.mark.parametrize("cell", CERTIFIED_CELLS, ids=_cell_id)
def test_orbit_counts_match_closed_forms(cell):
    space, n, k = cell
    duality = DualityCell(n, k, space)
    counts = (len(duality.span("left")), len(duality.span("right")))
    assert counts == predicted_orbit_counts(space, n, k)


def test_orbit_count_closed_form_for_U_right_counts_diagrams():
    """The U right closed form counts the partial dual elements with at
    most n blocks."""
    for k in (1, 2, 3):
        elements = enumerate_pistar(k)
        for n in (1, 2, 3, 4):
            expected = sum(1 for e in elements if len(e.blocks) <= n)
            assert predicted_orbit_counts("U", n, k)[1] == expected


@pytest.mark.parametrize("cell", CERTIFIED_CELLS, ids=_cell_id)
def test_cell_supports_match_the_target_tuples(cell):
    """Every element's plain and orbit supports, as the cell expands them,
    are the oracle's, read off flat (input, output, used) rows, on both
    sides of the grid, the benchmark's centralizer cells and two larger
    cells; and the semigroup faithfulness read off the certified orbits
    is the distinctness of the oracle's plain matrices."""
    space, n, k = cell
    duality = DualityCell(n, k, space)
    for side in ("left", "right"):
        matrices = set()
        for element, (support, orbit) in zip(duality.elements(side), duality._expansions(side)):
            expected = triple_supports(element, duality.space)
            assert (set(support), set(orbit)) == expected, element
            matrices.add(frozenset(expected[0]))
        distinct = len(matrices) == len(duality.elements(side))
        assert duality.semigroup_faithful(side) == distinct, side


@pytest.mark.parametrize("cell", CERTIFIED_CELLS, ids=_cell_id)
def test_plain_supports_have_distinct_columns(cell):
    """No two coordinates of an element's plain support share a column
    (an input, the coordinate mod d), as ``tensor_actions._expand``
    proves, so no plain support repeats a coordinate, which check 3 of
    ``DualityCell._certify`` relies on: both sides of every ``GRID``
    cell, of the benchmark's eight centralizer cells and of two larger
    cells."""
    space, n, k = cell
    duality = DualityCell(n, k, space)
    for side in ("left", "right"):
        assert _repeated_columns(duality, side) == [], side


def _repeated_columns(duality, side):
    """The elements of one side whose plain support, as the certification
    reads it from ``_expansions``, has two coordinates in one column."""
    d = duality.space.dimension
    pairs = zip(duality.elements(side), duality._expansions(side))
    return [e for e, (support, _) in pairs if len({c % d for c in support}) != len(support)]


@pytest.mark.parametrize(
    "cell", [("V", 3, 3), ("V", 2, 4), ("U", 2, 3), ("U", 3, 2), ("U", 4, 2)], ids=_cell_id
)
def test_plain_matrices_meet_only_restrictions_and_coarsenings(cell):
    """Every orbit an element's plain support meets is the orbit of one
    of its restrictions on the left and of one of its coarsenings
    (``block_union_leq``) on the right, read against the map of all the
    orbits: the unitriangularity that, with the enumeration order, makes
    ``_certify``'s one pass hold."""
    space, n, k = cell
    duality = DualityCell(n, k, space)
    for side, leq in (("left", lambda a, b: restricts(b, a)), ("right", block_union_leq)):
        elements, expansions = duality.elements(side), list(duality._expansions(side))
        owner = {x: b for b, (_, orbit) in enumerate(expansions) for x in orbit}
        for a, (support, _) in enumerate(expansions):
            met = {owner[x] for x in support}
            assert all(leq(elements[a], elements[b]) for b in met), (side, a)


GUARDED_FAMILIES = [
    *(("is", n) for n in range(1, rookdual.diagrams.ENUM_LIMIT_INJECTIONS + 1)),
    *(("istar", k) for k in range(1, rookdual.diagrams.ENUM_LIMIT_DUAL + 1)),
    *(("pistar", k) for k in range(1, rookdual.diagrams.ENUM_LIMIT_PARTIAL_DUAL + 1)),
]


def _down_set(name, size):
    """``below(a)``: the positions of element a's restrictions on IS_n,
    listed from their definition, and otherwise of the codes of a's
    up-set walk that lie in the family (a's coarsenings)."""
    elements = family(name, size)
    if name == "is":
        position = {e.targets: i for i, e in enumerate(elements)}

        def below(a):
            targets = elements[a].targets
            domain = [x for x, t in enumerate(targets) if t is not None]
            for r in range(len(domain) + 1):
                for kept in map(set, itertools.combinations(domain, r)):
                    yield position[tuple(t if x in kept else None for x, t in enumerate(targets))]

        return below
    index = _family_index(name, size)
    return lambda a: (index[c] for c, _ in _upper_set_with_mobius(elements[a]) if c in index)


@pytest.mark.parametrize("name,size", GUARDED_FAMILIES, ids=str)
def test_enumeration_order_extends_the_natural_order(name, size):
    """Every element of a guarded family is listed after its proper
    restrictions on IS_n and its proper coarsenings on I*_k and P*_k, so
    the orbits its plain matrix meets are all read by the time
    ``_certify`` checks it."""
    elements, below = family(name, size), _down_set(name, size)
    for a in range(len(elements)):
        assert max(below(a)) == a, (name, size, a)


def test_cell_expands_each_element_once(monkeypatch):
    """One report at V(4,4) runs the layered expansion once per element
    of each side and once per generator, and no more, and fills a target
    tuple for the generators only."""
    calls = {"_expand": 0, "_fill": 0}

    def count(name):
        original = getattr(rookdual.tensor_actions, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(rookdual.tensor_actions, name, counted)

    count("_expand")
    count("_fill")
    assert DualityCell(4, 4, "V").report().match
    generators = len(is_generators(4)) + len(istar_generators(4))
    assert calls["_expand"] == 209 + 339 + generators  # |IS_4| + |I*_4| + generators
    assert calls["_fill"] == generators


def test_cell_keeps_no_tuple_per_element():
    """With both sides' elements built first, the memory a V(4,4)
    report leaves allocated (the certified orbit supports and the
    verdicts) stays below 1.2 MB; d-length target tuples of the
    209 + 339 elements would add about 1.1 MB."""
    cell = DualityCell(4, 4, "V")
    cell.elements("left"), cell.elements("right")
    tracemalloc.start()
    try:
        assert cell.report().match
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 1_200_000


def test_span_streams_the_plain_supports():
    """With V(5,4)'s rook monoid built first, certifying the
    left span peaks below 5.5 MB of traced memory: the pass drops each
    plain support once it is checked.  Holding every plain support of the
    side until the end peaked at 6.82 MB, the one pass at 4.40 MB."""
    cell = DualityCell(5, 4, "V")
    cell.elements("left")
    tracemalloc.start()
    try:
        cell.span("left")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_500_000


IDENT, SWAP, EMPTY = (PartialInjection(t) for t in ([1, 2], [2, 1], [None, None]))


def _certification_error(side, *elements):
    """Pattern of the message naming V(2,2), the side and the elements."""
    names = ".*".join(re.escape(str(e)) for e in elements)
    return rf"V\(2,2\) {side}: .*{names}"


PLAIN, ORBIT = 0, 1  # the two supports of each pair in ``_expansions``


def _tampered(part, edit):
    """V(2,2) whose left plain supports (``PLAIN``) or orbit supports
    (``ORBIT``), as the certification reads them from ``_expansions``,
    first go through ``edit(items, position_of_element)``.  A support is
    a list of coordinates row*4 + col."""

    class Tampered(DualityCell):
        def _expansions(self, side):
            columns = [list(column) for column in zip(*super()._expansions(side))]
            if side == "left":
                edit(columns[part], self.elements("left").index)
            return list(zip(*columns))

    return Tampered(2, 2, "V")


def test_certification_rejects_overlapping_orbits():
    def overlap(orbits, at):
        orbits[at(SWAP)] = orbits[at(IDENT)]

    cell = _tampered(ORBIT, overlap)
    with pytest.raises(RuntimeError, match=_certification_error("left", IDENT, SWAP)):
        cell.half_centralizer("right")
    assert cell.half_centralizer("left")[:2] == (3, 3)  # the right side is intact


def test_certification_rejects_a_plain_tuple_missing_a_coordinate():
    """Dropping the tensor 12 (coordinate 1*4 + 1) from the identity's
    plain support leaves the identity's own orbit {12, 21} half covered."""

    def drop(supports, at):
        supports[at(IDENT)] = [0 * 4 + 0, 2 * 4 + 2, 3 * 4 + 3]

    with pytest.raises(RuntimeError, match=_certification_error("left", IDENT, IDENT)):
        _tampered(PLAIN, drop).span("left")


def test_certification_rejects_a_plain_entry_outside_every_orbit():
    """On V the empty map acts by zero, and no orbit holds the entry
    (row 0, col 1): the tensor 12 never goes to 11."""

    def add(supports, at):
        supports[at(EMPTY)] = [0 * 4 + 1]

    with pytest.raises(RuntimeError, match=_certification_error("left", EMPTY)):
        _tampered(PLAIN, add).span("left")


def test_certification_rejects_swapped_orbits():
    """The identity and the swap have the same domain; with their orbits
    exchanged, the identity's plain matrix lies in the slot of the swap,
    which is no restriction of it."""

    def swap(orbits, at):
        a, b = at(IDENT), at(SWAP)
        orbits[a], orbits[b] = orbits[b], orbits[a]

    with pytest.raises(RuntimeError, match=_certification_error("left", IDENT, SWAP)):
        _tampered(ORBIT, swap).span("left")


def test_distinct_columns_check_catches_a_repeated_coordinate():
    """The identity's plain support with the tensor 12 (coordinate 1*4 + 1)
    sent to 22 as well as 21 repeats coordinate 2*4 + 2.  The orbits it
    touches, of the two idempotents and the identity, still have sizes
    1 + 2 + 1 = 4, its length, so certification passes it; only the
    distinct-columns check of ``test_plain_supports_have_distinct_columns``
    sees the fault."""

    def repeat(supports, at):
        assert supports[at(IDENT)] == [0 * 4 + 0, 1 * 4 + 1, 2 * 4 + 2, 3 * 4 + 3]
        supports[at(IDENT)] = [0, 10, 10, 15]

    cell = _tampered(PLAIN, repeat)
    assert _repeated_columns(cell, "left") == [IDENT]
    assert _repeated_columns(cell, "right") == []
    assert cell.span("left") == DualityCell(2, 2, "V").span("left")


def test_certification_rejects_an_element_missing_its_own_orbit():
    """An orbit invented for the empty map, on an entry no other orbit
    holds, is one no plain matrix meets."""

    def invent(orbits, at):
        orbits[at(EMPTY)] = [0 * 4 + 1]

    with pytest.raises(RuntimeError, match=_certification_error("left", EMPTY)):
        _tampered(ORBIT, invent).span("left")


def test_certification_reports_each_overlap_as_one():
    """An orbit that shares a coordinate with an earlier one, or lists
    one twice, is reported as an overlap before any plain support is
    read, whatever the later checks would say."""

    def overlap(orbits, at):
        orbits[at(SWAP)] = orbits[at(IDENT)]

    def twice(orbits, at):
        orbits[at(IDENT)] = orbits[at(IDENT)] * 2

    for edit, names in ((overlap, (IDENT, SWAP)), (twice, (IDENT, IDENT))):
        pattern = _certification_error("left", *names) + " overlap$"
        with pytest.raises(RuntimeError, match=pattern):
            _tampered(ORBIT, edit).span("left")


def test_certification_rejects_an_overlap_the_plain_supports_hide():
    """SWAP's orbit and its plain support both gain a coordinate of the
    identity's orbit (tensor 12 kept in place, coordinate 1*4 + 1), after
    the identity's plain support was checked: every later sum of orbit
    sizes still matches, so only the overlap check of the one pass sees
    it, and the overlap is what is reported."""

    class Tampered(DualityCell):
        def _expansions(self, side):
            for element, (plain, orbit) in zip(self.elements(side), super()._expansions(side)):
                if side == "left" and element == SWAP:
                    plain, orbit = [*plain, 1 * 4 + 1], [*orbit, 1 * 4 + 1]
                yield plain, orbit

    pattern = _certification_error("left", IDENT, SWAP) + " overlap$"
    with pytest.raises(RuntimeError, match=pattern):
        Tampered(2, 2, "V").span("left")


def test_span_never_exceeds_commutant():
    """Commutation alone gives one inclusion, so this inequality must
    hold even where the full equality is not being asserted."""
    for n, k, space in ((1, 2, "V"), (2, 2, "V"), (2, 1, "U"), (1, 2, "U")):
        data = centralizer_data(n, k, space)
        assert data.dim_span_of_right <= data.dim_commutant_of_left
        assert data.dim_span_of_left <= data.dim_commutant_of_right


def _semigroup_faithful(n, k, space, side):
    return DualityCell(n, k, space).semigroup_faithful(side)


def _algebra_faithful(n, k, space, side):
    return DualityCell(n, k, space).algebra_faithful(side)


def test_semigroup_faithfulness_boundaries():
    # one-point ground set: all dual elements act as the identity
    assert not _semigroup_faithful(1, 2, "V", "right")
    assert not _semigroup_faithful(1, 3, "V", "right")
    assert _semigroup_faithful(1, 1, "V", "right")
    assert _semigroup_faithful(2, 2, "V", "right")
    assert _semigroup_faithful(2, 3, "V", "right")
    for n, k in ((1, 1), (1, 2), (2, 1), (3, 2)):
        assert _semigroup_faithful(n, k, "V", "left")
        assert _semigroup_faithful(n, k, "U", "left")
        assert _semigroup_faithful(n, k, "U", "right")
    with pytest.raises(ValueError):
        _semigroup_faithful(2, 2, "V", "nonsense")


def test_algebra_faithfulness_boundaries():
    # contracted rook algebra on V: faithful exactly when k >= n
    assert _algebra_faithful(2, 2, "V", "left")
    assert _algebra_faithful(2, 3, "V", "left")
    assert not _algebra_faithful(2, 1, "V", "left")
    assert not _algebra_faithful(3, 2, "V", "left")
    # dual side on V: faithful exactly when k <= n
    assert _algebra_faithful(2, 2, "V", "right")
    assert _algebra_faithful(3, 2, "V", "right")
    assert not _algebra_faithful(2, 3, "V", "right")
    assert not _algebra_faithful(1, 2, "V", "right")
    # full rook algebra on U: k >= n
    assert _algebra_faithful(1, 1, "U", "left")
    assert _algebra_faithful(2, 2, "U", "left")
    assert not _algebra_faithful(2, 1, "U", "left")
    # partial dual algebra on U: k <= n
    assert _algebra_faithful(2, 2, "U", "right")
    assert _algebra_faithful(2, 1, "U", "right")
    assert not _algebra_faithful(1, 2, "U", "right")
    with pytest.raises(ValueError):
        _algebra_faithful(2, 2, "V", "nonsense")


@pytest.mark.parametrize(
    "method",
    ["elements", "generators", "_expansions", "span", "commutant",
     "half_centralizer", "semigroup_faithful", "algebra_faithful"],
)
def test_cell_methods_refuse_unknown_sides(method):
    """Every method that takes a side refuses anything but "left" and
    "right", rather than answering for one of them."""
    for side in ("nonsense", "L", "Left", ""):
        with pytest.raises(ValueError, match="unknown side"):
            getattr(DualityCell(2, 2, "V"), method)(side)


@pytest.mark.parametrize(
    "limit,space,side,count",
    [
        ("ENUM_LIMIT_INJECTIONS", "V", "left", 7),
        ("ENUM_LIMIT_DUAL", "V", "right", 3),
        ("ENUM_LIMIT_PARTIAL_DUAL", "U", "right", 12),
    ],
)
def test_cell_elements_honour_unguarded(limit, space, side, count, monkeypatch):
    """With the enumeration guards lowered below n = k = 2, a guarded
    cell refuses to list a side and an unguarded one lists it."""
    monkeypatch.setattr(rookdual.diagrams, limit, 1)
    with pytest.raises(SizeGuardError):
        DualityCell(2, 2, space).elements(side)
    assert len(DualityCell(2, 2, space, unguarded=True).elements(side)) == count


def test_predictions_table():
    # (semigroup, algebra) per (space, side); on V the left algebra is contracted
    assert predicted_faithful("V", "left", 1, 2)[0]
    assert not predicted_faithful("V", "right", 1, 2)[0]
    assert predicted_faithful("V", "right", 1, 1)[0]
    assert predicted_faithful("V", "right", 2, 9)[0]
    assert predicted_faithful("U", "right", 1, 5)[0]
    assert predicted_faithful("V", "left", 2, 3)[1]
    assert not predicted_faithful("V", "left", 3, 2)[1]
    assert predicted_faithful("V", "right", 3, 2)[1]
    assert not predicted_faithful("U", "right", 2, 3)[1]
    assert predicted_faithful("U", "left", 3, 3)[1]
    for space, side in (("V", "nonsense"), ("V", "L"), ("W", "left")):
        with pytest.raises(ValueError):
            predicted_faithful(space, side, 2, 2)


def test_full_report_matches_everywhere_small():
    for n, k, space in ((1, 1, "V"), (2, 2, "V"), (1, 2, "U"), (2, 2, "U")):
        report = DualityCell(n, k, space).report()
        assert report.commute_ok
        assert report.centralizer_ok
        assert report.match
        d = report.to_json_dict()
        assert d["n"] == n and d["k"] == k and d["space"] == space
        assert d["match"] is True
        assert len(d["centralizer_dims"]) == 4
        assert d["centralizer_dims"] == list(report.centralizer_dims)


def test_outlying_report_runs_in_full():
    report = DualityCell(4, 2, "V").report()
    assert report.centralizer_dims == (3, 3, 88, 88)
    assert report.centralizer_ok
    assert report.match
    assert not report.algebra_faithful_left  # k < n kills the contracted algebra
    assert report.to_json_dict()["centralizer_dims"] == [3, 3, 88, 88]


@pytest.mark.parametrize("cell", GRID, ids=_cell_id)
def test_grid_centralizer_dims_match_closed_forms(cell):
    """The four dims equal the closed forms of the orbit counts: each
    commutant has the dimension of the other side's span."""
    space, n, k = cell
    report = DualityCell(n, k, space).report()
    left, right = predicted_orbit_counts(space, n, k)
    assert report.centralizer_dims == (right, right, left, left)
    assert report.centralizer_ok


def test_default_grid_shape():
    assert len(GRID) == 18
    assert ("V", 3, 3) in GRID
    assert ("V", 4, 4) in GRID
    assert ("U", 2, 2) in GRID
    assert ("U", 3, 2) in GRID
    assert all(len(cell) == 3 for cell in GRID)
    v_only = run_grid(spaces=("V",), max_n=1)
    assert all(r.space == "V" for r in v_only)


def test_run_grid_bounds():
    reports = run_grid(spaces=("V",), max_n=2, max_k=2)
    assert {(r.n, r.k) for r in reports} == {(1, 1), (1, 2), (2, 1), (2, 2)}
    assert all(r.match for r in reports)
    reports = run_grid(spaces=("U",), max_n=1, max_k=1)
    assert [(r.n, r.k, r.space) for r in reports] == [(1, 1, "U")]
