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
(the dual or partial dual monoid).  It reads each side's elements and
their two-sided orbits from ``semigroups.family`` and
``semigroups._family_orbits``, built once per size for all cells, and
builds its generators (``is_generators`` on the left,
``istar_generators`` or ``pistar_generators`` on the right) apart.  Only
the first element of each two-sided orbit is expanded: one per rank of
IS_n under S_n x S_n (n + 1), and the S_k x S_k orbit representatives
of I*_k or P*_k (9 of 339 and 43 of 2,100 at k = 4), in one batched
``_action_rows`` per side, when a check first asks for its span.  So a
check never pays for a size guard it does not need, and no element's
target tuple is built or kept.  ``DualityCell.report`` runs every check
and compares the faithfulness verdicts with ``predicted_faithful``;
``run_grid`` reports on ``GRID``, where every cell runs in full.

Spans are counted on the orbit bases of the two actions (the orbit
support of ``action_supports``: the rook groupoid basis on the left,
the hat action on the right, on V^k as on U^k), not row-reduced.  Both
are unitriangular against the plain matrices by Moebius inversion: the
plain matrix of a is the sum of the orbit matrices of a's restrictions
on the left and of a's coarsenings on the right.  ``DualityCell._certify``
certifies what the verdicts need of this at the representatives, against
a per-coordinate decode that reads from a coordinate the one element
whose orbit support can hold it: each representative's orbit support is
the whole fibre of its decode, its plain support a disjoint union of
whole fibres of itself and of lower ranks, its own among them when that
is non-empty.  The actions and the decode commute with the symmetry, so
this holds at every element of the orbit (the argument is in the
``DualityCell`` docstring).  So the non-zero orbit supports are a basis
of the span, as many as the elements with one (the sizes of the
representatives' orbits, summed), a matrix lies in the span exactly when
it is constant on every support and zero off them, and two elements act
alike exactly when they touch the same orbits: semigroup faithfulness is
a count of the distinct sets touched, carried to every element along the
orbit tree and checked on the edges it did not use (``_orbit_tree`` lists
them, and the orbit sizes, in its one walk).

A commutant labels matrix coordinates by class (``targets_commutant``:
orbits of the permutation generators, joined by the others' equations),
solved on one side's generators only: its matrices are those constant
on every class and zero off them.  So the span lies in the commutant
exactly when every orbit support is a disjoint union of whole non-zero
classes (``_whole_classes``).  Once the generators are checked to
commute with the other side's symmetry, the classes are permuted by it,
so that is tested at the representatives only.  The classes and the
orbit supports are exact bases, so their numbers are the two dimensions,
and the span equals the commutant exactly when it lies in it and the
dimensions agree.  The right span lying in the left generators'
commutant is also the commutation verdict, as the plain and orbit
matrices span the same space.  Across cells only the families, their
orbits and the actions' tables are kept.
"""

import itertools
import math
from collections import Counter
from typing import NamedTuple

from .diagrams import PartialInjection, _stirling2
from .semigroups import _MONOIDS, _family_index, _family_orbits, _Parts, family
from .tensor_actions import ActionSpace, _action_rows, _commutant_labels, _targets
from .tensor_actions import targets_commute, targets_commutant

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
    the same monoid and size shares, and only the first element of each
    two-sided orbit (``_family_orbits``: one per rank of IS_n, 2, 4 and 9
    of I*_k and 6, 16 and 43 of P*_k at k = 2, 3, 4) is expanded.  The
    certified supports, the generators' targets and the verdicts are built
    on first use and kept for the cell's lifetime.

    The argument.  A symmetry group acts on each side: (s, t) in S_n x S_n
    sends a rook element a to s a t^-1, and (s, t) in S_k x S_k permutes a
    diagram's top points by s and its bottom points by t.  It acts on the
    coordinates (y, x), output and input tensor, too: on the left s
    relabels the non-zero digits of y and t those of x; on the right s
    moves the positions of x and t those of y.  Three facts hold for every
    element b and coordinate c:

    * expansion naturality: the plain and orbit supports of g b are those
      of b moved by g (the rook action is the same on every digit, and a
      diagram's expansion reads its points only through position
      weights; pinned by ``test_rook_expansions_are_natural``,
      ``test_dual_expansions_are_natural`` and ``test_expansions_are_natural``);
    * decode naturality: ``_decoder`` reads from (y, x) the one element
      whose orbit support can hold it, from which positions carry equal
      non-zero digits and which digits they carry, so decode(g c) =
      g decode(c) (``test_decode_is_natural``);
    * the fibre of b, the coordinates that decode to b, has the closed
      size ``_fibres`` gives for b's rank (block count on the right), by
      counting the tensors whose non-zero digits the decode reads as b.

    ``_certify`` checks at each representative a, in this order, that
    every coordinate of a's orbit support decodes to a, and that the orbit
    support has the fibre's size: it repeats no coordinate
    (``tensor_actions._expand`` gives no two rows one column), so it is
    a's whole fibre.  Then each of a's plain coordinates decodes into the
    family, each owner b is hit exactly as often as b's fibre is large and
    has a lower rank unless b is a, and a is among its owners when its
    orbit support is non-empty.  By the two naturalities, the orbit
    support of every g a is the fibre of g a, its plain support the
    disjoint union of the fibres of the g b, and the checks hold at g a
    too.  So the orbit supports are the fibres of one map, hence pairwise
    disjoint; each plain matrix is the sum of the orbit matrices it
    touches, its own among them and the rest of lower rank; the non-zero
    orbit matrices are a basis of the span, one per element with a
    non-empty orbit support; and two elements act alike exactly when they
    touch the same orbits.  The touched sets, as element positions, move
    along the orbit tree by the index permutations, and are checked on the
    edges the tree did not use, which the same walk lists, so they are the
    touched sets of every element; the walk's orbit sizes count the span's
    basis.  A failure is an internal bug: ``RuntimeError`` names the
    cell, the side and the element or elements."""

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
        these.  Built once per side and kept."""
        name, size = self._families[_check_side(side)]
        return self._part(("generators", side), lambda: _targets(
            _MONOIDS[name][1](size, self.unguarded), self.space, "plain", self.unguarded))

    def _orbits(self, side: str) -> tuple:
        """``_family_orbits`` of one side's family, after its size guard."""
        self.elements(side)
        return _family_orbits(*self._families[side])

    def _expansions(self, side: str):
        """The (plain support, orbit support) rows of each two-sided
        representative of one side, in order, expanded lazily from one call
        of ``_action_rows``; ``_certify`` is its only reader."""
        chosen = list(map(self.elements(side).__getitem__, self._orbits(side)[2]))
        return _action_rows(chosen, self.space, "plain", self.unguarded)

    def _decoder(self, side: str):
        """``decode(c)``: the position in ``elements(side)`` of the one
        element whose orbit support can hold the coordinate c = y*d + x, or
        None.  On the left it is the partial injection x_p -> y_p over the
        positions p where x has a non-zero digit (the positions of each
        non-zero digit of x must be those of one of y, and y is zero
        elsewhere); on the right the diagram whose blocks are the positions
        of x (top) and of y (bottom) carrying each non-zero digit, looked up
        in ``_family_index``."""
        index, d, n = _family_index(*self._families[side]), self.space.dimension, self.n
        digits = self._part("digits", lambda: [  # [t]: {digit: mask}, t's non-zero digits in order
            {v: sum(1 << p for p, u in enumerate(t) if u == v) for v in sorted(set(t) - {0})}
            for t in self.space.indices()
        ])
        # [t]: {mask: digit} over t's non-zero digits
        into = self._part("into", lambda: [{m: v for v, m in t.items()} for t in digits])

        def rook(c):  # a mask of x that y lacks reads 0, which no target is
            to, xs = into[c // d], digits[c % d]
            if len(to) != len(xs):
                return None
            return index.get(tuple(to.get(xs[u], 0) if u in xs else None for u in range(1, n + 1)))

        def diagram(c):
            outs, ins = (digits[t] for t in divmod(c, d))
            if ins.keys() != outs.keys():
                return None
            return index.get(tuple(sorted(zip(ins.values(), outs.values()))))

        return rook if side == "left" else diagram

    def _fibres(self, side: str) -> list:
        """[r]: how many coordinates decode to one element of rank r (block
        count on the right).  On the left, the tensors x whose non-zero
        digits are exactly r given ones (r! S(k, r) on V, r! S(k+1, r+1) on
        U, U's zero digit a block of its own), each with its one y; on the
        right, n!/(n-r)! choices of distinct non-zero digits for the r blocks."""
        n, k, zero = self.n, self.k, self.space.kind == "U"
        if side == "right":
            return [math.perm(n, r) for r in range(k + 1)]
        return [math.factorial(r) * _stirling2(k + zero, r + zero) for r in range(n + 1)]

    def span(self, side: str) -> list:
        """The span of one side's element matrices, as ``(support, count)``
        pairs, one per two-sided representative with a non-empty orbit
        support: that support, and the number of elements in its two-sided
        orbit, whose orbit supports (its images under the symmetry) are the
        rest of the span's basis.  Certified by ``_certify``; its dimension
        is the sum of the counts."""
        return self._certified(side)[0]

    def _certified(self, side: str) -> tuple:
        """The span and the number of distinct touched sets."""
        return self._part(("span", side), lambda: self._certify(side))

    def _certify(self, side: str) -> tuple:
        """The ``span`` of one side and the number of distinct sets of
        orbits that its elements' plain matrices touch, certified at the
        two-sided representatives and carried to their orbits as the class
        docstring argues."""
        elements = self.elements(side)
        top, bottom, chosen, sizes, tree, edges = self._orbits(side)
        decode, fibres = self._decoder(side), self._fibres(side)
        rank = PartialInjection.rank if side == "left" else lambda e: len(e.code)
        touched, span = [None] * len(elements), []
        for a, (support, orbit) in zip(chosen, self._expansions(side)):
            e, own = elements[a], rank(elements[a])
            stray = next((b for b in map(decode, orbit) if b != a), a)
            if stray != a:
                other = "no element" if stray is None else elements[stray]
                self._fail(side, e, " has in its orbit a coordinate of the orbit of ", other)
            if len(orbit) != fibres[own]:
                self._fail(side, e, f"'s orbit has {len(orbit)} coordinates, not {fibres[own]}")
            owners = Counter(map(decode, support))
            if None in owners:
                self._fail(side, e, " leaves every orbit")
            for b, count in owners.items():
                if count != fibres[rank(elements[b])]:
                    self._fail(side, e, " covers part of the orbit of ", elements[b])
                if b != a and rank(elements[b]) >= own:
                    self._fail(side, e, " meets the orbit of ", elements[b], ", of no lower rank")
            if orbit and a not in owners:
                self._fail(side, e, " misses its own orbit")
            touched[a] = frozenset(owners)
            span.append(orbit)
        perms, size = top + bottom, len(elements)
        for x, g, y in tree:  # x = g y touches the orbits y touches, moved by g
            touched[x] = frozenset(map(perms[g].__getitem__, touched[y]))
        for g, a in map(divmod, edges, itertools.repeat(size)):  # each edge g: a -> g a off the tree
            perm = perms[g]
            t, u = touched[a], touched[perm[a]]
            if len(t) != len(u) or not u.issuperset(map(perm.__getitem__, t)):
                self._fail(side, elements[a], f" touches orbits generator {g} moves off those of ",
                           elements[perm[a]])
        return [(orbit, count) for orbit, count in zip(span, sizes) if orbit], len(set(touched))

    def _fail(self, side: str, *parts):
        """Raise the ``RuntimeError`` of a failed certificate on one side: the
        cell, the side, then ``parts`` (elements and text) as written."""
        where = f"orbit certification at {self.space.kind}({self.n},{self.k}) {side}"
        raise RuntimeError(f"{where}: {''.join(map(str, parts))}")

    def _symmetries(self, side: str) -> list:
        """The target tuples of the swap and the cycle that generate one
        side's symmetry on coordinates, the digits 1..n on the left (U's
        digit 0 fixed) and the positions on the right: the actions of the
        permutations that lead the side's generating set, one per index
        permutation of each row in ``_family_orbits``."""
        return self.generators(side)[: len(self._orbits(side)[0])]

    def commutant(self, side: str) -> list:
        """Commutant basis of one side as coordinate classes, solved on
        its generators (see ``targets_commutant``)."""
        return targets_commutant(self.generators(side), self.space.dimension, self.unguarded)

    def half_centralizer(self, side: str) -> tuple:
        """One direction of the double centralizer: the commutant dimension
        of ``side`` (its non-zero class labels), the span dimension of the
        other side (the sum of its ``span`` counts) and whether that span
        lies in the commutant: each support a union of whole non-zero
        classes (``_whole_classes``; a dead or zero coordinate has no
        label).  Both are exact basis counts, so the span is the commutant
        when it lies in it and they agree.

        Only the representatives' supports are tested.  Every generator of
        ``side`` is first checked to commute with the other side's symmetry
        tuples (``_symmetries``; a failure raises ``RuntimeError``), so the
        commutant, and with it its classes, is mapped onto itself by that
        symmetry, which moves each representative's orbit support onto
        those of its orbit: a support is a union of whole classes exactly
        when its images are.  Kept; the labels are not, and their dict
        waits for the span, so as not to add to its peak memory."""

        def build():
            gens, d = self.generators(side), self.space.dimension
            other = "right" if side == "left" else "left"
            moves = enumerate(self._symmetries(other))
            for (j, move), (i, g) in itertools.product(moves, enumerate(gens)):
                if not targets_commute(g, move):
                    self._fail(side, f"generator {i} does not commute with the ",
                               ("digit ", "position ")[other == "right"], ("swap", "cycle")[j])
            cells, labels, zero = _commutant_labels(gens, d, self.unguarded)
            span = self.span(other)
            label_of = {c: label for c, label in zip(cells, labels) if label != zero}
            sizes = Counter(label_of.values())
            inside = all(_whole_classes(s, label_of, sizes) is not None for s, _ in span)
            return len(sizes), sum(count for _, count in span), inside

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
        many distinct sets as there are elements.  The sets are counted on
        every element: the representatives' own, moved along the orbit
        tree."""
        return self._certified(side)[1] == len(self.elements(side))

    def algebra_faithful(self, side: str) -> bool:
        """The element matrices are linearly independent, i.e. every
        element's orbit support is non-empty (the span has one basis matrix
        per element with one: its dimension, the sum of the ``span``
        counts).  On V the all-undefined rook element acts by zero and is
        left out (the contracted rook algebra)."""
        count = len(self.elements(side))
        if side == "left" and self.space.kind == "V":
            count = sum(1 for e in self.elements(side) if e.rank() > 0)
        return sum(size for _, size in self.span(side)) == count

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
