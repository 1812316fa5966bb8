"""Double-centralizer checks, faithfulness, the orbit certification of
the spans, and the grid runner."""

import itertools
import math
import re
import tracemalloc

import pytest

import oracles
import rookdual.diagrams
import rookdual.tensor_actions
from rookdual import (
    GRID,
    ActionSpace,
    DualityCell,
    PartialInjection,
    SizeGuardError,
    action_targets,
    block_union_leq,
    centralizer_data,
    enumerate_pistar,
    is_generators,
    istar_generators,
    predicted_faithful,
    run_grid,
    targets_commutant,
)
from rookdual.dualities import SIDES
from rookdual.morphisms import _upper_set_with_mobius
from rookdual.semigroups import _family_index, family

from oracles import (
    all_elements_commute,
    cell_expansions,
    cell_targets,
    certify_every_element,
    graded_targets_commutant,
    index_at,
    restricts,
    relabelled,
    rowspace_half_centralizer,
    symmetric_generators,
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


def _one_one(space):
    """The diagonal idempotent of V(2,3) keeping the tensors with exactly
    one digit 1 (122, 212, 221) and killing the rest.  It commutes with
    every permutation of the positions, but not with I*_3."""
    keep = [c for c in range(space.dimension) if index_at(space, c).count(1) == 1]
    return tuple(c if c in keep else -1 for c in range(space.dimension))


def _with_left_source(monkeypatch, source):
    """Every ``DualityCell`` lists ``source`` after its left generators."""
    generators = DualityCell.generators

    def with_source(self, side):
        return generators(self, side) + ([source] if side == "left" else [])

    monkeypatch.setattr(DualityCell, "generators", with_source)


def test_commute_ok_fails_on_a_left_generator_outside_the_right_commutant(monkeypatch):
    """``_one_one`` does not commute with all of I*_3.  Added to the left
    generators of V(2,3), it leaves the right span outside the left
    commutant, so the cell neither commutes nor matches.  It commutes with
    the right side's symmetry, so the span is still tested at the
    representatives only."""
    _with_left_source(monkeypatch, _one_one(ActionSpace("V", 2, 3)))
    report = DualityCell(2, 3, "V").report()
    assert report.commute_ok is False
    assert report.match is False


def _position_cycle(space):
    """The 3-cycle of tensor positions on V(2,3), the action of a
    permutation in I*_3, as a target tuple."""
    return tuple(
        space.ordinal(index_at(space, c)[1:] + index_at(space, c)[:1])
        for c in range(space.dimension)
    )


def _digit_cycle(space):
    """The 3-cycle of the digits of V(3,2), the action of a permutation in
    IS_3, as a target tuple."""
    return tuple(
        space.ordinal(tuple(v % 3 + 1 for v in index_at(space, c))) for c in range(space.dimension)
    )


def _keep_one_and_two(space):
    """The rook idempotent of V(3,2) keeping the digits 1 and 2."""
    return action_targets(PartialInjection([1, 2, None]), space)


@pytest.mark.parametrize(
    "cell, side, source, symmetry",
    [
        (("V", 2, 3), "left", _position_cycle, "position swap"),
        (("V", 3, 2), "right", _digit_cycle, "digit swap"),
        (("V", 3, 2), "right", _keep_one_and_two, "digit cycle"),
    ],
    ids=["position-cycle", "digit-cycle", "rook-idempotent"],
)
def test_certification_rejects_a_generator_off_the_symmetry(cell, side, source, symmetry):
    """The other side's span is tested at its representatives only because
    ``side``'s generators commute with that side's symmetry.  A generator
    that does not (the 3-cycle of the positions on the left of V(2,3),
    which fails the position swap; the digit 3-cycle or the rook idempotent
    keeping the digits 1 and 2 on the right of V(3,2), which fail the
    digit swap or the digit cycle) is refused as an internal bug naming
    the cell, the side and the generator, before any commutant is
    solved.  The added generator is the third (2) on both sides."""
    space, n, k = cell
    extra = source(ActionSpace(space, n, k))

    class Tampered(DualityCell):
        def generators(self, s):
            return super().generators(s) + ([extra] if s == side else [])

    pattern = rf"{space}\({n},{k}\) {side}: generator 2 does not commute with the {symmetry}$"
    with pytest.raises(RuntimeError, match=pattern):
        Tampered(n, k, space).half_centralizer(side)


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
        def span(self, side):
            return super().span(side) if side == "left" else [(s, 1) for s in supports]

    cell = Tampered(2, 2, "V")
    assert cell.half_centralizer("left") == (3, len(right), inside)
    assert not cell.centralizer().right_matches_left_commutant
    assert not cell.centralizer().ok


def test_centralizer_inclusion_rejects_a_class_forced_to_zero(monkeypatch):
    """V(2,3)'s left commutant has 19 classes, among them {11, 52}: the
    entries (112 <- 122) and (221 <- 211).  A right span whose one support
    is exactly that class lies in it.  The left source ``_one_one`` forces
    that class (and eight others) to zero; the span still covers it whole,
    but a zero-labelled coordinate counts as outside the commutant, so the
    span no longer lies in it.  A source that commuted with no position
    permutation could not be added: no position-symmetric source zeroes a
    class of V(2,2), where the position swap lies in every such
    commutant."""

    class Tampered(DualityCell):
        def span(self, side):
            return super().span(side) if side == "left" else [([1 * 8 + 3, 6 * 8 + 4], 1)]

    assert Tampered(2, 3, "V").half_centralizer("left") == (19, 1, True)
    _with_left_source(monkeypatch, _one_one(ActionSpace("V", 2, 3)))
    assert Tampered(2, 3, "V").half_centralizer("left") == (10, 1, False)


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
    order; and ``half_centralizer``, which reads the class labels at the
    other side's representatives only, equals the count of those classes,
    the count of every element's orbit support (``certify_every_element``)
    and the test that every one of them is a union of the classes.  Read
    against every orbit support of a side's own span, each given as an
    orbit of one, which mostly lie outside its commutant, it agrees
    too."""
    space, n, k = cell
    duality = DualityCell(n, k, space, unguarded=True)
    every = {side: certify_every_element(duality, side)[0] for side in SIDES}

    class OwnSpan(DualityCell):
        def span(self, side):
            return [(support, 1) for support in every["left" if side == "right" else "right"]]

    own = OwnSpan(n, k, space, unguarded=True)
    d = duality.space.dimension
    for side, other in (("left", "right"), ("right", "left")):
        classes = graded_targets_commutant(duality.generators(side), d)
        assert duality.commutant(side) == classes, side
        for checked, supports in ((duality, every[other]), (own, every[side])):
            expected = (len(classes), len(supports), unions_of(supports, classes))
            assert checked.half_centralizer(side) == expected, side


@pytest.mark.parametrize("cell", LABELLED_CELLS, ids=_cell_id)
def test_orbit_certification_equals_the_every_element_oracle(cell):
    """On both sides, the certification at the representatives gives what
    ``certify_every_element`` gives on every element: the span dimension
    (the sum of the ``span`` counts, the number of non-zero orbit
    supports), the number of distinct touched sets, hence both
    faithfulness verdicts; and every representative's support is one of
    the oracle's, in an orbit of the size its count says."""
    space, n, k = cell
    duality = DualityCell(n, k, space, unguarded=True)
    for side in SIDES:
        supports, distinct = certify_every_element(duality, side)
        span, touched = duality._certified(side)
        assert sum(count for _, count in span) == len(supports), side
        assert touched == distinct, side
        assert {tuple(sorted(s)) for s, _ in span} <= {tuple(sorted(s)) for s in supports}, side
        contracted = side == "left" and space == "V"
        count = sum(1 for e in duality.elements(side) if not contracted or e.rank() > 0)
        assert duality.algebra_faithful(side) == (len(supports) == count), side
        assert duality.semigroup_faithful(side) == (distinct == len(duality.elements(side))), side


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
    counts = tuple(sum(count for _, count in duality.span(side)) for side in SIDES)
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
    """Every element's plain and orbit supports, as ``_action_rows``
    expands them, are the oracle's, read off flat (input, output, used)
    rows, on both sides of the grid, the benchmark's centralizer cells and
    two larger cells, and the representatives' are those the cell expands;
    and the semigroup faithfulness read off the certified orbits is the
    distinctness of the oracle's plain matrices."""
    space, n, k = cell
    duality = DualityCell(n, k, space)
    for side in SIDES:
        matrices, expansions = set(), cell_expansions(duality, side)
        for element, (support, orbit) in zip(duality.elements(side), expansions):
            expected = triple_supports(element, duality.space)
            assert (set(support), set(orbit)) == expected, element
            matrices.add(frozenset(expected[0]))
        chosen = [expansions[a] for a in duality._orbits(side)[2]]
        assert list(duality._expansions(side)) == chosen, side
        distinct = len(matrices) == len(duality.elements(side))
        assert duality.semigroup_faithful(side) == distinct, side


@pytest.mark.parametrize("cell", CERTIFIED_CELLS, ids=_cell_id)
def test_plain_supports_have_distinct_columns(cell):
    """No two coordinates of an element's plain support share a column
    (an input, the coordinate mod d), as ``tensor_actions._expand``
    proves, so no plain or orbit support repeats a coordinate, which the
    owner counts and the orbit sizes of ``DualityCell._certify`` rely on:
    every element of both sides of every ``GRID`` cell, of the
    benchmark's eight centralizer cells and of two larger cells."""
    space, n, k = cell
    duality = DualityCell(n, k, space)
    for side in SIDES:
        pairs = zip(duality.elements(side), cell_expansions(duality, side))
        assert _repeated_columns(duality, pairs) == [], side


def _repeated_columns(duality, pairs):
    """The elements of the (element, (plain, orbit)) pairs whose plain
    support has two coordinates in one column."""
    d = duality.space.dimension
    return [e for e, (support, _) in pairs if len({c % d for c in support}) != len(support)]


def _chosen(duality, side):
    """The two-sided representatives of one side, in the order the cell
    expands them."""
    elements = duality.elements(side)
    return [elements[a] for a in duality._orbits(side)[2]]


@pytest.mark.parametrize(
    "cell", [("V", 3, 3), ("V", 2, 4), ("U", 2, 3), ("U", 3, 2), ("U", 4, 2)], ids=_cell_id
)
def test_plain_matrices_meet_only_restrictions_and_coarsenings(cell):
    """Every orbit an element's plain support meets is the orbit of one
    of its restrictions on the left and of one of its coarsenings
    (``block_union_leq``) on the right, read against the map of all the
    orbits: the unitriangularity that, with the enumeration order, makes
    ``certify_every_element``'s one pass hold, and that the rank check of
    ``DualityCell._certify`` asks of the representatives."""
    space, n, k = cell
    duality = DualityCell(n, k, space)
    for side, leq in (("left", lambda a, b: restricts(b, a)), ("right", block_union_leq)):
        elements, expansions = duality.elements(side), cell_expansions(duality, side)
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
    ``certify_every_element`` checks it."""
    elements, below = family(name, size), _down_set(name, size)
    for a in range(len(elements)):
        assert max(below(a)) == a, (name, size, a)


def test_cell_expands_each_element_once(monkeypatch):
    """One report at V(4,4) runs the layered expansion once per two-sided
    representative of each side and once per generator, and no more, and
    fills a target tuple for the generators only."""
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
    assert calls["_expand"] == 5 + 9 + generators  # one per rank of IS_4, 9 of I*_4
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
    left span peaks below 5.5 MB of traced memory: only the six
    representatives are expanded, and each plain support is dropped once
    it is checked.  Holding every plain support of the side until the end
    peaked at 6.82 MB, the one pass over every element at 4.40 MB."""
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
LOW = PartialInjection([None, 1])  # IS_2's representatives: EMPTY, LOW, IDENT


def _certification_error(side, *elements):
    """Pattern of the message naming V(2,2), the side and the elements."""
    names = ".*".join(re.escape(str(e)) for e in elements)
    return rf"V\(2,2\) {side}: .*{names}"


PLAIN, ORBIT = 0, 1  # the two supports of each pair in ``_expansions``


def _tampered(part, edit):
    """V(2,2) whose left plain supports (``PLAIN``) or orbit supports
    (``ORBIT``), as the certification reads them from ``_expansions`` (one
    pair per representative: EMPTY, LOW, IDENT), first go through
    ``edit(items, position_of_representative)``.  A support is a list of
    coordinates row*4 + col; IDENT's orbit is {5, 10} (12 and 21 kept),
    SWAP's {6, 9} and that of [2,-] {12} (11 sent to 22)."""

    class Tampered(DualityCell):
        def _expansions(self, side):
            columns = [list(column) for column in zip(*super()._expansions(side))]
            if side == "left":
                edit(columns[part], _chosen(self, "left").index)
            return list(zip(*columns))

    return Tampered(2, 2, "V")


def test_certification_rejects_overlapping_orbits():
    """IDENT's orbit gains a coordinate of SWAP's orbit (tensor 12 sent to
    21), which decodes to SWAP, an element never expanded."""

    def overlap(orbits, at):
        orbits[at(IDENT)] = [*orbits[at(IDENT)], 2 * 4 + 1]

    cell = _tampered(ORBIT, overlap)
    with pytest.raises(RuntimeError, match=_certification_error("left", IDENT, SWAP)):
        cell.half_centralizer("right")
    assert cell.half_centralizer("left")[:2] == (3, 3)  # the right side is intact


def test_certification_rejects_a_plain_tuple_missing_a_coordinate():
    """Dropping the tensor 12 (coordinate 1*4 + 1) from the identity's
    plain support leaves the identity's own orbit {12, 21} half covered:
    its owner count, 1, is not its fibre's size, 2."""

    def drop(supports, at):
        supports[at(IDENT)] = [0 * 4 + 0, 2 * 4 + 2, 3 * 4 + 3]

    with pytest.raises(RuntimeError, match=_certification_error("left", IDENT, IDENT)):
        _tampered(PLAIN, drop).span("left")


def test_certification_rejects_a_plain_entry_outside_every_orbit():
    """On V the empty map acts by zero, and no element's orbit holds the
    entry (row 0, col 1): the tensor 12 never goes to 11, and the decode
    finds no partial injection there.  Given to the empty map as a plain
    entry it leaves every orbit; given to it as an orbit, that orbit holds
    a coordinate of none."""

    def add(supports, at):
        supports[at(EMPTY)] = [0 * 4 + 1]

    pattern = _certification_error("left", EMPTY)
    with pytest.raises(RuntimeError, match=pattern + " leaves every orbit$"):
        _tampered(PLAIN, add).span("left")
    with pytest.raises(RuntimeError, match=pattern + " .* of the orbit of no element$"):
        _tampered(ORBIT, add).span("left")


def test_certification_rejects_swapped_orbits():
    """With the identity's plain support swapped for the swap's, the
    identity's plain matrix lies in the slot of the swap, whose orbit has
    the identity's rank and is no restriction of it."""

    def swap(supports, at):
        supports[at(IDENT)] = [0 * 4 + 0, 1 * 4 + 2, 2 * 4 + 1, 3 * 4 + 3]

    pattern = _certification_error("left", IDENT, SWAP) + ", of no lower rank$"
    with pytest.raises(RuntimeError, match=pattern):
        _tampered(PLAIN, swap).span("left")


def test_distinct_columns_check_catches_a_repeated_coordinate():
    """The identity's plain support with the tensor 12 (coordinate 1*4 + 1)
    sent to 22 as well as 21 repeats coordinate 2*4 + 2.  The orbits it
    touches, of the two idempotents and the identity, are hit 1, 2 and 1
    times, their fibres' sizes, so certification passes it; only the
    distinct-columns check of ``test_plain_supports_have_distinct_columns``
    sees the fault."""

    def repeat(supports, at):
        assert supports[at(IDENT)] == [0 * 4 + 0, 1 * 4 + 1, 2 * 4 + 2, 3 * 4 + 3]
        supports[at(IDENT)] = [0, 10, 10, 15]

    cell = _tampered(PLAIN, repeat)
    for side in SIDES:
        pairs = zip(_chosen(cell, side), cell._expansions(side))
        assert _repeated_columns(cell, pairs) == ([IDENT] if side == "left" else []), side
    assert cell.span("left") == DualityCell(2, 2, "V").span("left")


def test_certification_rejects_an_element_missing_its_own_orbit():
    """The identity's plain support without its own orbit's coordinates
    (12 and 21 kept in place) touches the orbits of the two idempotents
    whole, and misses its own, which is non-empty."""

    def without(supports, at):
        supports[at(IDENT)] = [0 * 4 + 0, 3 * 4 + 3]

    pattern = _certification_error("left", IDENT) + " misses its own orbit$"
    with pytest.raises(RuntimeError, match=pattern):
        _tampered(PLAIN, without).span("left")


def test_certification_reports_each_overlap_as_one():
    """An orbit that shares a coordinate with another element's orbit, or
    lists one of its own twice, is reported by the orbit checks, before
    any plain support is read, whatever the plain checks would say: the
    first as a coordinate of the other's orbit, the second as an orbit
    larger than its fibre."""

    def overlap(orbits, at):
        orbits[at(IDENT)] = [*orbits[at(IDENT)], 1 * 4 + 2]

    def twice(orbits, at):
        orbits[at(IDENT)] = orbits[at(IDENT)] * 2

    for edit, names, tail in (
        (overlap, (IDENT, SWAP), ""),
        (twice, (IDENT,), "'s orbit has 4 coordinates, not 2"),
    ):
        pattern = _certification_error("left", *names) + tail + "$"
        with pytest.raises(RuntimeError, match=pattern):
            _tampered(ORBIT, edit).span("left")


def test_certification_rejects_an_overlap_the_plain_supports_hide():
    """IDENT's orbit and its plain support both gain the coordinate of the
    orbit of [2,-] (tensor 11 sent to 22, coordinate 3*4 + 0), an element
    of lower rank that is never expanded.  The plain checks pass: [2,-]'s
    orbit is hit once, its fibre's size, and ranks lower.  Only the decode
    of IDENT's orbit sees the overlap, and it is what is reported.  With
    the plain support alone tampered, the touched set {IDENT, [1,-], [-,2],
    [2,-]} is not moved onto SWAP's by the value swap, and the edge check
    reports it."""

    def gain(supports, at):
        supports[at(IDENT)] = [*supports[at(IDENT)], 3 * 4 + 0]

    class Tampered(DualityCell):
        def _expansions(self, side):
            for element, (plain, orbit) in zip(_chosen(self, side), super()._expansions(side)):
                if side == "left" and element == IDENT:
                    plain, orbit = [*plain, 3 * 4 + 0], [*orbit, 3 * 4 + 0]
                yield plain, orbit

    other = PartialInjection([2, None])
    pattern = _certification_error("left", IDENT, other) + "$"
    with pytest.raises(RuntimeError, match=pattern):
        Tampered(2, 2, "V").span("left")
    pattern = _certification_error("left", IDENT) + ".* moves off those of " + re.escape(str(SWAP))
    with pytest.raises(RuntimeError, match=pattern + "$"):
        _tampered(PLAIN, gain).span("left")


def test_certification_rejects_a_broken_non_tree_edge(monkeypatch):
    """The touched sets move along the orbit tree; every other edge of the
    index permutations is checked.  IS_2's bottom swap (on the values)
    corrupted to fix IDENT and SWAP, an edge the tree (which reaches SWAP
    from IDENT by the top swap) never reads: IDENT's touched set, moved
    by it, is not IDENT's own, and the message names both ends.  The
    orbit sizes and the edges the walk lists stay those of the true
    permutations."""
    right = rookdual.dualities._family_orbits

    def wrong(name, size):
        top, bottom, *walk = right(name, size)
        if name == "is":
            elements = family(name, size)
            bottom = [list(bottom[0]), *bottom[1:]]
            for e in (IDENT, SWAP):
                bottom[0][elements.index(e)] = elements.index(e)
        return top, bottom, *walk

    monkeypatch.setattr(rookdual.dualities, "_family_orbits", wrong)
    pattern = _certification_error("left", IDENT, IDENT) + "$"
    with pytest.raises(RuntimeError, match=pattern):
        DualityCell(2, 2, "V").span("left")
    assert DualityCell(2, 2, "V").span("right") == [([0, 15], 1), ([5, 10], 2)]


def _coordinate_steps(duality, side):
    """The coordinate map (c = y*d + x) of each of ``_family_orbits``'
    index permutations of one side, top then bottom, built tensor by tensor
    (``relabelled``): on the left the top permutations (pi to pi g^-1)
    relabel the input's digits by g and the bottom ones (pi to g pi) the
    output's; on the right the top ones (in-masks) move the input's
    positions and the bottom ones the output's."""
    space, d = duality.space, duality.space.dimension
    size = duality.n if side == "left" else duality.k
    key = "digits" if side == "left" else "positions"
    moves = [relabelled(space, **{key: g}) for g in symmetric_generators(size)]
    return [
        *(lambda c, t=t: c - c % d + t[c % d] for t in moves),
        *(lambda c, t=t: t[c // d] * d + c % d for t in moves),
    ]


def _unnatural(duality, side):
    """The (generator, element) pairs of one side at which the element's
    plain or orbit support, moved by the generator's coordinate map, is not
    that of the element the index permutation sends it to, every element
    expanded (``cell_expansions``)."""
    top, bottom = duality._orbits(side)[:2]
    expansions = cell_expansions(duality, side)
    return [
        (g, a)
        for g, (step, perm) in enumerate(zip(_coordinate_steps(duality, side), top + bottom))
        for a, supports in enumerate(expansions)
        if [sorted(map(step, s)) for s in supports] != list(map(sorted, expansions[perm[a]]))
    ]


@pytest.mark.parametrize(
    "space,n,k", [(s, n, k) for s in "VU" for n in (1, 2, 3, 4) for k in (1, 2, 3)], ids=str
)
def test_rook_expansions_are_natural(space, n, k):
    """The lemma the left certification carries to the orbits: the rook
    action is the same on every digit, so for g in S_n the plain and orbit
    supports of pi g^-1 are those of pi with the input's non-zero digits
    relabelled by g, and those of g pi with the output's; on every element
    of IS_n, on V and U, n <= 4, k <= 3."""
    assert _unnatural(DualityCell(n, k, space), "left") == []


@pytest.mark.parametrize("n,k", list(itertools.product((1, 2, 3), (1, 2, 3, 4))), ids=str)
def test_dual_expansions_are_natural(n, k):
    """The lemma the right certification on V carries to the orbits: the
    expansion of a dual element reads its points only through position
    weights, so permuting its top (bottom) points permutes the input
    (output) positions of its plain and orbit supports; on every element
    of I*_k, k <= 4, n <= 3.  ``test_expansions_are_natural`` pins the
    same for P*_k on U."""
    assert _unnatural(DualityCell(n, k, "V"), "right") == []


def test_the_naturality_pin_catches_an_expansion_fault_off_the_representatives(monkeypatch):
    """SWAP is no representative of IS_2, so the certification never reads
    its expansion: with tensor 12 killed in its plain support on V(2,2),
    every verdict still holds, and only the naturality pin sees the fault,
    at the edges into and out of SWAP."""
    expand = rookdual.tensor_actions._action_rows

    def wrong(elements, space, *args):
        for e, (plain, orbit) in zip(elements, expand(elements, space, *args)):
            yield ([c for c in plain if c != 2 * 4 + 1] if e == SWAP else plain), orbit

    monkeypatch.setattr(rookdual.dualities, "_action_rows", wrong)
    monkeypatch.setattr(oracles, "_action_rows", wrong)
    duality = DualityCell(2, 2, "V")
    assert duality.report().match
    swap, (top, bottom) = duality.elements("left").index(SWAP), duality._orbits("left")[:2]
    unnatural = _unnatural(duality, "left")
    assert unnatural and all(swap in (a, [*top, *bottom][g][a]) for g, a in unnatural)


DECODED_CELLS = [("V", 2, 2), ("V", 3, 2), ("V", 2, 3), ("V", 3, 3), ("U", 1, 2), ("U", 2, 2),
                 ("U", 3, 2), ("U", 2, 3)]


@pytest.mark.parametrize("cell", DECODED_CELLS, ids=_cell_id)
def test_decode_is_natural(cell):
    """decode(g c) = g decode(c) for every coordinate c of the space and
    every symmetry generator g of either side, an undecodable coordinate
    staying undecodable: the lemma that makes each orbit support the fibre
    of its element once it is at the representative."""
    space, n, k = cell
    duality = DualityCell(n, k, space)
    coordinates = range(duality.space.dimension ** 2)
    for side in SIDES:
        decode, (top, bottom) = duality._decoder(side), duality._orbits(side)[:2]
        for step, perm in zip(_coordinate_steps(duality, side), top + bottom):
            moved = [None if b is None else perm[b] for b in map(decode, coordinates)]
            assert list(map(decode, map(step, coordinates))) == moved, side


@pytest.mark.parametrize("cell", DECODED_CELLS, ids=_cell_id)
def test_fibres_are_the_orbit_supports(cell):
    """Over every coordinate of the space, the coordinates that decode to
    an element are exactly its orbit support, and there are as many as
    ``_fibres`` says for its rank: the counting fact the orbit-size check
    rests on, on every element of both sides."""
    space, n, k = cell
    duality = DualityCell(n, k, space)
    for side in SIDES:
        decode, fibres = duality._decoder(side), duality._fibres(side)
        fibre = {}
        for c in range(duality.space.dimension ** 2):
            fibre.setdefault(decode(c), set()).add(c)
        fibre.pop(None, None)
        for b, (element, (_, orbit)) in enumerate(
            zip(duality.elements(side), cell_expansions(duality, side))
        ):
            rank = element.rank() if side == "left" else len(element.code)
            assert fibre.get(b, set()) == set(orbit), (side, element)
            assert len(orbit) == fibres[rank], (side, element)


@pytest.mark.parametrize("cell", DECODED_CELLS, ids=_cell_id)
def test_symmetry_tuples_are_the_digit_and_position_moves(cell):
    """``_symmetries`` lists the swap and the cycle of the digits (left)
    and of the positions (right) as tensor target tuples, as ``relabelled``
    builds them tensor by tensor."""
    space, n, k = cell
    duality = DualityCell(n, k, space)
    for side, size, key in (("left", n, "digits"), ("right", k, "positions")):
        expected = [tuple(relabelled(duality.space, **{key: g})) for g in symmetric_generators(size)]
        assert duality._symmetries(side) == expected, side


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
