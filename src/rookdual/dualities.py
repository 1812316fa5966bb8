"""Double-centralizer verification between the rook monoid and the dual
diagram semigroups.

On V^k the rook monoid acts on the left and the dual symmetric inverse
monoid acts on the right; on U^k the rook monoid pairs with the partial
dual elements under the plain action.  For each guarded size the
package checks, with exact arithmetic: that the two actions commute,
that each image algebra is the full commutant of the other, and that
the semigroup and algebra representations are faithful exactly when the
size predicates say they should be.

Every verdict at one (n, k, space) cell is made by one ``DualityCell``,
whose methods take a side: ``"left"`` (the rook monoid) or ``"right"``
(the dual or partial dual monoid).  It reads each side's elements from
``semigroups.family``, which builds each monoid once per size for all
cells, and builds its generators (``is_generators`` on the left,
``istar_generators`` or ``pistar_generators`` on the right) apart.  It
expands each element's action once, into its plain and orbit supports
(one batched ``_action_rows`` per side), when a check first asks for its
span, so a check never pays for a size guard it does not need; no
element's target tuple is built or kept.  ``DualityCell.report`` runs
every check and compares the faithfulness verdicts with
``predicted_faithful``; ``run_grid`` reports on ``GRID``, where every
cell runs in full.

Spans are counted on the orbit bases of the two actions (the orbit
support of ``action_supports``: the rook groupoid basis on the left,
the hat action on the right, on V^k as on U^k), not row-reduced.
``DualityCell.span`` certifies that every plain matrix is a
unitriangular 0/1 sum of orbit matrices with disjoint supports, and
returns the non-zero orbit supports: the span's dimension is their
number, and a matrix lies in the span exactly when it is constant on
every support and zero off them.  The checks run in one pass over the
expansions in enumeration order, which extends the natural order: one
dict, grown orbit by orbit, gives each coordinate's orbit, the order is
read off per-element bitmasks built once per family, and a plain support
covers the orbits it touches when their sizes sum to its length; each
plain support is dropped once it is checked, so only the orbits are
kept.  Each plain matrix is then the sum of the orbit matrices it
touches, so semigroup faithfulness is a count of the distinct sets of
orbits the elements touch.

A commutant labels matrix coordinates by class (``targets_commutant``:
orbits of the permutation generators, joined by the others' equations),
solved on one side's generators only: its matrices are those constant
on every class and zero off them.  So the span lies in the commutant
exactly when every orbit support has non-zero labels only and covers
each class it touches.  The classes and the orbit supports are exact
bases, so their numbers are the two dimensions, and the span equals the
commutant exactly when it lies in it and the dimensions agree.  The right
span lying in the left generators' commutant is also the commutation
verdict, as the plain and orbit matrices span the same space.  Across
cells only the families, their orders and the actions' tables are kept.
"""

from collections import Counter
from itertools import chain, repeat
from typing import NamedTuple

from .semigroups import _MONOIDS, _natural_order, _Parts, family
from .tensor_actions import ActionSpace, _action_rows, _commutant_labels, _targets
from .tensor_actions import targets_commutant

SIDES = ("left", "right")

# The verification grid as (space, n, k).
GRID = (
    *(("V", n, k) for n in (1, 2, 3) for k in (1, 2, 3)),
    ("V", 4, 2), ("V", 2, 4), ("V", 4, 4),
    *(("U", n, k) for n in (1, 2) for k in (1, 2)),
    ("U", 3, 2), ("U", 2, 3),
)


def _check_side(side: str) -> str:
    if side not in SIDES:
        raise ValueError(f"unknown side {side!r}; expected 'left' or 'right'")
    return side


def predicted_faithful(space: str, side: str, n: int, k: int) -> tuple:
    """The (semigroup, algebra) faithfulness the paper predicts for one
    side of one space.  The rook algebra (contracted on V) is faithful
    exactly when k >= n, the dual and partial dual algebras exactly when
    k <= n.  Every semigroup acts faithfully, except the dual monoid on
    V with n = 1 < k, where all its elements act as the identity."""
    if space not in ("V", "U"):
        raise ValueError(f"unknown space {space!r}; expected 'V' or 'U'")
    if _check_side(side) == "left":
        return True, k >= n
    return space == "U" or n >= 2 or k == 1, k <= n


class CentralizerData(NamedTuple):
    dim_commutant_of_left: int
    dim_span_of_right: int
    dim_commutant_of_right: int
    dim_span_of_left: int
    right_matches_left_commutant: bool
    left_matches_right_commutant: bool

    @property
    def dims(self):
        return self[:4]  # the four dims, in field order

    @property
    def ok(self) -> bool:
        return self.right_matches_left_commutant and self.left_matches_right_commutant


class DualityReport(NamedTuple):
    """Everything checked at one (n, k, space) cell, with predictions."""

    n: int
    k: int
    space: str
    commute_ok: bool
    centralizer_dims: tuple
    centralizer_ok: bool
    semigroup_faithful_left: bool
    semigroup_faithful_right: bool
    algebra_faithful_left: bool
    algebra_faithful_right: bool
    predicted_semigroup_faithful_left: bool
    predicted_semigroup_faithful_right: bool
    predicted_algebra_faithful_left: bool
    predicted_algebra_faithful_right: bool
    match: bool

    def to_json_dict(self):
        return {**self._asdict(), "centralizer_dims": list(self.centralizer_dims)}


class DualityCell(_Parts):
    """The two actions at one (n, k, space) cell, shared by every check
    there.  Each side's elements are its ``family``, which every cell of
    the same monoid and size shares; the certified orbit supports and the
    verdicts are built on first use and kept for the cell's lifetime, the
    generators' targets only while a check reads them and each plain
    support only while ``_certify`` checks it."""

    def __init__(self, n: int, k: int, space: str, unguarded=False):
        self.n = n
        self.k = k
        self.space = ActionSpace(space, n, k)
        self.unguarded = unguarded
        self._families = {"left": ("is", n), "right": ("istar" if space == "V" else "pistar", k)}
        super().__init__()

    def elements(self, side: str) -> tuple:
        """Every element of one side's ``family`` (IS_n on the left, I*_k
        on V or P*_k on U on the right), in enumeration order.  It and
        ``generators`` refuse a side but "left" or "right" (``ValueError``)."""
        return family(*self._families[_check_side(side)], self.unguarded)

    def generators(self, side: str) -> list:
        """Targets of a monoid generating set of one side: ``is_generators``
        on the left, ``istar_generators`` or ``pistar_generators`` on the
        right.  A matrix commutes with a whole side when it commutes with
        these."""
        name, size = self._families[_check_side(side)]
        gens = _MONOIDS[name][1](size, self.unguarded)
        return _targets(gens, self.space, "plain", self.unguarded)

    def _expansions(self, side: str):
        """The (plain support, orbit support) rows of every element of one
        side, in enumeration order, expanded lazily from one call of
        ``_action_rows``; ``_certify`` is its only reader."""
        return _action_rows(self.elements(side), self.space, "plain", self.unguarded)

    def span(self, side: str) -> list:
        """The span of one side's element matrices, as the supports of
        its non-zero orbit matrices, in enumeration order, certified by
        ``_certify``."""
        return self._certified(side)[0]

    def _certified(self, side: str) -> tuple:
        """The span and the number of distinct touched sets."""
        return self._part(("span", side), lambda: self._certify(side))

    def order(self, side: str):
        """``allowed(a, bs)``: every b in bs lies below a in the natural order
        (``semigroups._natural_order``), so b's orbit may carry part of a's plain matrix."""
        self.elements(side)  # the side and size checks
        return _natural_order(*self._families[side])

    def _certify(self, side: str) -> tuple:
        """The non-zero orbit supports of one side and the number of
        distinct sets of them that the plain matrices touch, after three
        exact checks that make the supports a basis of the span of the
        plain matrices:

        1. the orbit supports are pairwise disjoint: the map from each
           of their coordinates to its element keeps every coordinate;
        2. every coordinate of each plain matrix lies in the orbit of an
           element that ``order`` allows for it;
        3. every orbit a plain matrix touches is covered in full, and an
           element with a non-zero orbit touches its own.  A plain support
           repeats no coordinate, as each of its inputs has one output, so
           full cover is the touched orbits' sizes summing to its length.

        One pass over the expansions in enumeration order makes all three:
        it adds each element's orbit to the coordinate map, checks that the
        map grew by the orbit's size, then checks the element's plain
        support and drops it.  Enumeration order is a linear extension of
        the natural order (no element allows a later one), so every orbit a
        plain support may meet is already in the map.  A later orbit cannot
        take a checked coordinate away without failing the growth check, so
        a pass with no failure gives the verdicts of the whole map.  On the
        first failed check the pass reads the remaining expansions and
        ``_diagnose`` makes the checks again against the whole map.

        A failure is an internal bug: it raises ``RuntimeError`` naming
        the cell, the side and the element or pair of elements."""
        allowed, owner, orbits, sizes, touched_sets = self.order(side), {}, [], [], set()
        expansions = enumerate(self._expansions(side))
        for a, (support, orbit) in expansions:
            orbits.append(orbit)
            sizes.append(len(orbit))
            size = len(owner) + len(orbit)
            owner.update(zip(orbit, repeat(a)))
            touched = frozenset(map(owner.get, support))
            if (len(owner) != size or None in touched or not allowed(a, touched)
                    or sum(map(sizes.__getitem__, touched)) != len(support)
                    or orbit and a not in touched):
                rest = list(expansions)
                orbits += [orbit for _, (_, orbit) in rest]
                plain = [(a, support), *((b, support) for b, (support, _) in rest)]
                touched_sets |= self._diagnose(side, orbits, plain)
                break
            touched_sets.add(touched)
        return [orbit for orbit in orbits if orbit], len(touched_sets)

    def _diagnose(self, side: str, orbits: list, plain: list) -> set:
        """``_certify``'s three checks against the map of all the orbits,
        on the (position, plain support) pairs from its first failure on,
        with the message of the first that fails; the touched sets if none
        does.  An overlap is reported before any plain support is read."""
        elements = self.elements(side)
        where = f"orbit certification at {self.space.kind}({self.n},{self.k}) {side}"
        sizes = list(map(len, orbits))
        at = chain.from_iterable(map(repeat, range(len(orbits)), sizes))
        owner = dict(zip(chain.from_iterable(orbits), at))
        if len(owner) != sum(sizes):  # a coordinate lies in two orbits, or twice in one
            twice = next(x for x, c in Counter(chain.from_iterable(orbits)).items() if c > 1)
            a, b = [b for b, orbit in enumerate(orbits) for x in orbit if x == twice][:2]
            raise RuntimeError(f"{where}: the orbits of {elements[a]} and {elements[b]} overlap")
        allowed, touched_sets = self.order(side), set()
        for a, support in plain:
            touched = frozenset(map(owner.get, support))
            if None in touched:
                raise RuntimeError(f"{where}: {elements[a]} leaves every orbit")
            if touched and not allowed(a, touched):
                b = next(b for b in touched if not allowed(a, (b,)))
                raise RuntimeError(
                    f"{where}: {elements[a]} meets the orbit of {elements[b]}, "
                    "which the natural order does not allow"
                )
            if sum(map(sizes.__getitem__, touched)) != len(support):
                count = Counter(map(owner.get, support))
                b = next(b for b in touched if count[b] != sizes[b])
                raise RuntimeError(
                    f"{where}: {elements[a]} covers part of the orbit of {elements[b]}"
                )
            if orbits[a] and a not in touched:
                raise RuntimeError(f"{where}: {elements[a]} misses its own orbit")
            touched_sets.add(touched)
        return touched_sets

    def commutant(self, side: str) -> list:
        """Commutant basis of one side as coordinate classes, solved on
        its generators (see ``targets_commutant``)."""
        return targets_commutant(self.generators(side), self.space.dimension, self.unguarded)

    def half_centralizer(self, side: str) -> tuple:
        """One direction of the double centralizer: the commutant dimension
        of ``side`` (its non-zero class labels), the span dimension of the
        other side (its orbit supports) and whether that span lies in the
        commutant (``_certify``'s cover test on the labels).  Both are exact
        basis counts, so the span is the commutant when it lies in it and
        they agree.  Kept; the labels are not, and their dict waits for the
        span, so as not to add to its peak memory."""

        def build():
            gens, d = self.generators(side), self.space.dimension
            cells, labels, zero = _commutant_labels(gens, d, self.unguarded)
            supports = self.span("right" if side == "left" else "left")
            label_of, sizes = dict(zip(cells, labels)), Counter(labels)
            sizes.pop(zero, None)

            def covered(support):  # labels non-zero (a dead coordinate has none), sizes sum
                touched = set(map(label_of.get, support))
                return touched <= sizes.keys() and sum(map(sizes.get, touched)) == len(support)

            return len(sizes), len(supports), all(map(covered, supports))

        return self._part(("half", side), build)

    def centralizer(self) -> CentralizerData:
        """Both directions of the double centralizer."""
        comm_left, span_right, right_in = self.half_centralizer("left")
        comm_right, span_left, left_in = self.half_centralizer("right")
        return CentralizerData(
            comm_left, span_right, comm_right, span_left,
            right_in and comm_left == span_right, left_in and comm_right == span_left,
        )

    def semigroup_faithful(self, side: str) -> bool:
        """Distinct elements act by distinct matrices.  ``_certify``
        proves that every plain matrix is the sum of the orbit matrices
        it touches, and that these have disjoint non-empty supports; so
        two elements act alike exactly when they touch the same set of
        orbits, and the side acts faithfully when its elements touch as
        many distinct sets as there are elements."""
        return self._certified(side)[1] == len(self.elements(side))

    def algebra_faithful(self, side: str) -> bool:
        """The element matrices are linearly independent, i.e. every
        element's orbit is non-zero (the span has one basis matrix per
        non-zero orbit).  On V the all-undefined rook element acts by
        zero and is left out (the contracted rook algebra)."""
        count = len(self.elements(side))
        if side == "left" and self.space.kind == "V":
            count = sum(1 for e in self.elements(side) if e.rank() > 0)
        return len(self.span(side)) == count

    def report(self) -> DualityReport:
        """Run every check at this cell and compare the faithfulness
        verdicts with ``predicted_faithful``.  The cell matches when the
        actions commute (the right span lies in the left generators'
        commutant), the double centralizer holds and every verdict
        equals its prediction."""
        data = self.centralizer()
        commute_ok = self.half_centralizer("left")[2]
        kind = self.space.kind
        computed = [(self.semigroup_faithful(s), self.algebra_faithful(s)) for s in SIDES]
        predicted = [predicted_faithful(kind, s, self.n, self.k) for s in SIDES]
        (sgrp_left, alg_left), (sgrp_right, alg_right) = computed
        (pred_sgrp_left, pred_alg_left), (pred_sgrp_right, pred_alg_right) = predicted
        return DualityReport(
            self.n, self.k, kind, commute_ok, data.dims, data.ok,
            sgrp_left, sgrp_right, alg_left, alg_right,
            pred_sgrp_left, pred_sgrp_right, pred_alg_left, pred_alg_right,
            match=commute_ok and data.ok and computed == predicted,
        )


def centralizer_data(n: int, k: int, space: str, unguarded=False) -> CentralizerData:
    """Both directions of the double-centralizer check at one size."""
    return DualityCell(n, k, space, unguarded).centralizer()


def run_grid(
    spaces=("V", "U"), max_n: int | None = None, max_k: int | None = None
) -> list:
    """Reports for every ``GRID`` cell of the given spaces within the
    requested bounds, in ``GRID`` order."""
    return [
        DualityCell(n, k, space).report()
        for space, n, k in GRID
        if space in spaces
        and (max_n is None or n <= max_n)
        and (max_k is None or k <= max_k)
    ]
