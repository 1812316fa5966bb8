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
the hat action on the right, on V^k as on U^k), not row-reduced.  Both
are unitriangular against the plain matrices by Moebius inversion: the
plain matrix of a is the sum of the orbit matrices of a's restrictions
on the left and of a's coarsenings on the right.  ``DualityCell.span``
certifies what the verdicts need of this in one pass over the
expansions in enumeration order (``_certify``): each plain support is a
disjoint union of whole orbit supports, of its own element and of
earlier ones, its own among them when that is non-zero.  So the
non-zero orbit supports are a basis of the span, a matrix lies in the
span exactly when it is constant on every support and zero off them,
and two elements act alike exactly when they touch the same orbits:
semigroup faithfulness is a count of the distinct sets touched.

A commutant labels matrix coordinates by class (``targets_commutant``:
orbits of the permutation generators, joined by the others' equations),
solved on one side's generators only: its matrices are those constant
on every class and zero off them.  So the span lies in the commutant
exactly when every orbit support is a disjoint union of whole non-zero
classes: the certification's test (``_whole_classes``), with classes for
orbits.  The classes and the orbit supports are exact bases, so their
numbers are the two dimensions, and the span equals the commutant
exactly when it lies in it and the dimensions agree.  The right span
lying in the left generators' commutant is also the commutation
verdict, as the plain and orbit matrices span the same space.  Across
cells only the families and the actions' tables are kept.
"""

from collections import Counter
from itertools import chain, repeat
from typing import NamedTuple

from .semigroups import _MONOIDS, _Parts, family
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


def _whole_classes(support, label_of: dict, sizes):
    """The labels ``support`` touches if it is a disjoint union of whole
    classes of ``label_of`` (coordinate to label; ``sizes[label]`` is a class's
    size), else None.  A support repeats no coordinate, so it is one exactly
    when every coordinate has a label and the touched sizes sum to its length."""
    touched = frozenset(map(label_of.get, support))
    whole = None not in touched and sum(map(sizes.__getitem__, touched)) == len(support)
    return touched if whole else None


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

    def _certify(self, side: str) -> tuple:
        """The non-zero orbit supports of one side and the number of
        distinct sets of them that the plain matrices touch, certified in
        one pass over the expansions in enumeration order.  The pass adds
        each element's orbit to a map from coordinates to elements, so the
        map holds the orbits of the element and of those before it, and
        checks that:

        1. the map grew by the orbit's size: no two orbits overlap, and a
           later orbit cannot take a checked coordinate away;
        2. the element's plain support is a disjoint union of whole orbits
           in the map (``_whole_classes``; no two of its rows share an
           input, as ``tensor_actions._expand`` proves);
        3. an element with a non-empty orbit touches its own.

        Then each plain matrix is a 0/1 sum of whole, disjoint orbit
        matrices of its own element and earlier ones, its own among them
        when that is non-zero, and by induction each non-zero orbit matrix
        is its plain matrix minus the earlier orbit matrices it touches:
        the non-zero orbits are a basis of the span, and two elements act
        alike exactly when they touch the same orbits.  On correct data no
        check fails: a plain matrix is the sum of the orbit matrices of the
        element's restrictions (left) or coarsenings (right), and ``sort_key``
        lists a proper restriction (an undefined point reads as 0) or a
        proper coarsening (fewer blocks) first.  Each plain support is
        dropped once it is checked.

        A failure is an internal bug: ``_fail`` raises ``RuntimeError``
        naming the cell, the side and the element or pair of elements."""
        owner, orbits, sizes, touched_sets = {}, [], [], set()
        expansions = enumerate(self._expansions(side))
        for a, (support, orbit) in expansions:
            orbits.append(orbit)
            sizes.append(len(orbit))
            size = len(owner) + len(orbit)
            owner.update(zip(orbit, repeat(a)))
            touched = _whole_classes(support, owner, sizes)
            if len(owner) != size or touched is None or orbit and a not in touched:
                self._fail(side, a, support, orbits, owner, expansions)
            touched_sets.add(touched)
        return [orbit for orbit in orbits if orbit], len(touched_sets)

    def _fail(self, side: str, a: int, support, orbits: list, owner: dict, rest):
        """Raise the ``RuntimeError`` of ``_certify``'s first failed check at
        element a, whose orbit is the last of ``orbits`` and already in
        ``owner``; ``rest`` yields the (position, expansion) pairs after a.
        A plain coordinate outside the map is named by the later orbit that
        holds it, if one does."""
        elements = self.elements(side)
        where = f"orbit certification at {self.space.kind}({self.n},{self.k}) {side}"
        missing = [x for x in support if x not in owner]
        if len(owner) != sum(map(len, orbits)):  # a coordinate lies in two orbits, or twice in one
            twice = next(x for x, c in Counter(chain.from_iterable(orbits)).items() if c > 1)
            b, c = [b for b, orbit in enumerate(orbits) for x in orbit if x == twice][:2]
            problem = f"the orbits of {elements[b]} and {elements[c]} overlap"
        elif missing:
            later = next((b for b, (_, orbit) in rest if missing[0] in orbit), None)
            problem = (f"{elements[a]} leaves every orbit" if later is None
                       else f"{elements[a]} meets the orbit of {elements[later]}, a later element")
        else:
            count = Counter(map(owner.get, support))
            part = [b for b in count if count[b] != len(orbits[b])]
            problem = (f"{elements[a]} covers part of the orbit of {elements[part[0]]}" if part
                       else f"{elements[a]} misses its own orbit")
        raise RuntimeError(f"{where}: {problem}")

    def commutant(self, side: str) -> list:
        """Commutant basis of one side as coordinate classes, solved on
        its generators (see ``targets_commutant``)."""
        return targets_commutant(self.generators(side), self.space.dimension, self.unguarded)

    def half_centralizer(self, side: str) -> tuple:
        """One direction of the double centralizer: the commutant dimension
        of ``side`` (its non-zero class labels), the span dimension of the
        other side (its orbit supports) and whether that span lies in the
        commutant: each support a union of whole non-zero classes
        (``_whole_classes``; a dead or zero coordinate has no label).  Both
        are exact basis counts, so the span is the commutant when it lies
        in it and they agree.  Kept; the labels are not, and their dict
        waits for the span, so as not to add to its peak memory."""

        def build():
            gens, d = self.generators(side), self.space.dimension
            cells, labels, zero = _commutant_labels(gens, d, self.unguarded)
            supports = self.span("right" if side == "left" else "left")
            label_of = {c: label for c, label in zip(cells, labels) if label != zero}
            sizes = Counter(label_of.values())
            inside = all(_whole_classes(s, label_of, sizes) is not None for s in supports)
            return len(sizes), len(supports), inside

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
