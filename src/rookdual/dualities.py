"""Double-centralizer verification between the rook monoid and the dual
diagram semigroups.

On V^k the rook monoid acts on the left and the dual symmetric inverse
monoid acts on the right; on U^k the rook monoid pairs with the partial
dual elements under the plain action.  For each guarded size the
package checks, with exact arithmetic: that the two actions commute,
that each image algebra is the full commutant of the other, and that
the semigroup and algebra representations are faithful exactly when the
size predicates say they should be.

All checks at one (n, k, space) cell share one ``DualityCell``.  It
enumerates the left generators, the left elements and the right
elements, and builds their actions as target tuples (see
``tensor_actions``), each at most once and only when a check first asks
for it, so a check never pays for a size guard it does not need.  On
the tuples, commutation is ``targets_commute``, semigroup faithfulness
is distinctness, and spans are exact row spaces of the 0/1 vectors.
A commutant is a list of classes of matrix coordinates
(``targets_commutant``): its matrices are those constant on every class
and zero off them, so a 0/1 matrix lies in it exactly when its support
is a union of classes.  Nothing is kept across cells.
"""

from dataclasses import dataclass

from .diagrams import PartialInjection, enumerate_is, enumerate_istar, enumerate_pistar
from .exact_linalg import RowSpace
from .semigroups import is_generators
from .tensor_actions import ActionSpace, action_targets, targets_commutant, targets_commute

SEMIGROUP_KINDS = ("is_on_V", "istar_on_V", "is_on_U", "pistar_on_U")
ALGEBRA_KINDS = ("contracted_is_on_V", "istar_on_V", "is_on_U", "pistar_on_U")

# Each kind above names one side of one space.
KIND_SIDES = {
    "is_on_V": ("V", "left"),
    "contracted_is_on_V": ("V", "left"),
    "istar_on_V": ("V", "right"),
    "is_on_U": ("U", "left"),
    "pistar_on_U": ("U", "right"),
}

V_FULL_CELLS = tuple((n, k) for n in (1, 2, 3) for k in (1, 2, 3))
V_SPAN_CELLS = ((4, 2), (2, 4), (4, 4))
U_FULL_CELLS = tuple((n, k) for n in (1, 2) for k in (1, 2))
U_SPAN_CELLS = ((3, 2), (2, 3))


def _vector(targets) -> dict:
    """The flattened 0/1 matrix of a target tuple, coordinate row*d + col."""
    d = len(targets)
    return {t * d + c: 1 for c, t in enumerate(targets) if t >= 0}


def _row_space(vectors) -> RowSpace:
    space = RowSpace()
    for v in vectors:
        space.add(v)
    return space


class DualityCell:
    """The two actions at one (n, k, space) cell, shared by every check
    there.  Element lists, target tuples and row spaces are built on
    first use and kept for the cell's lifetime."""

    def __init__(self, n: int, k: int, space: str, unguarded=False):
        self.n = n
        self.k = k
        self.space = ActionSpace(space, n, k)
        self.unguarded = unguarded
        self._parts = {}

    def _part(self, key, build):
        if key not in self._parts:
            self._parts[key] = build()
        return self._parts[key]

    def _act(self, elements) -> list:
        return [action_targets(e, self.space, "plain", self.unguarded) for e in elements]

    @property
    def left_generators(self) -> list:
        """Targets of the rook-monoid generators, with the identity."""

        def build():
            gens = is_generators(self.n)
            ident = PartialInjection.identity(self.n)
            if ident not in gens:
                gens = [ident] + gens
            return self._act(gens)

        return self._part("left_generators", build)

    @property
    def left_elements(self) -> list:
        return self._part("left_elements", lambda: enumerate_is(self.n))

    @property
    def right_elements(self) -> list:
        enum = enumerate_istar if self.space.kind == "V" else enumerate_pistar
        return self._part("right_elements", lambda: enum(self.k))

    def targets(self, side: str) -> list:
        """Targets of every element of one side, in enumeration order."""
        elements = self.left_elements if side == "left" else self.right_elements
        return self._part(("targets", side), lambda: self._act(elements))

    def span(self, side: str) -> RowSpace:
        """Row space spanned by one side's element matrices."""
        return self._part(
            ("span", side), lambda: _row_space(_vector(t) for t in self.targets(side))
        )

    def commutant(self, side: str) -> list:
        """Commutant basis of one side as coordinate classes (see
        ``targets_commutant``): the left side through its generators,
        the right side through all of its elements."""
        sources = self.left_generators if side == "left" else self.targets("right")
        return targets_commutant(sources, self.space.dimension, self.unguarded)

    def commutes(self) -> bool:
        """Every left generator commutes with every right element."""
        lefts = self.left_generators
        return all(targets_commute(g, a) for g in lefts for a in self.targets("right"))

    def half_centralizer(self, side: str) -> tuple:
        """One direction of the double centralizer: the commutant
        dimension of ``side``, the span dimension of the other side, and
        whether each lies in the other's span."""
        other = "right" if side == "left" else "left"
        classes = self.commutant(side)
        class_of = {x: c for c, members in enumerate(classes) for x in members}

        def in_commutant(support) -> bool:
            """The support is a union of classes."""
            touched = {class_of.get(x) for x in support}
            if None in touched:
                return False
            return sum(len(classes[c]) for c in touched) == len(support)

        span = self.span(other)
        return (
            len(classes),
            span.dimension,
            all(in_commutant(_vector(t)) for t in self.targets(other)),
            all(span.contains(dict.fromkeys(members, 1)) for members in classes),
        )

    def semigroup_faithful(self, side: str) -> bool:
        """Distinct elements act by distinct target tuples."""
        targets = self.targets(side)
        return len(set(targets)) == len(targets)

    def algebra_faithful(self, side: str) -> bool:
        """The element matrices are linearly independent.  On V the
        all-undefined rook element acts by zero and is left out (the
        contracted rook algebra); the span is the same either way."""
        count = len(self.targets(side))
        if side == "left" and self.space.kind == "V":
            count = sum(1 for e in self.left_elements if e.rank() > 0)
        return self.span(side).dimension == count


def verify_commutation(n: int, k: int, space: str, unguarded=False) -> bool:
    """Exact commutation of the two actions: every generator matrix of
    the rook monoid commutes with every diagram matrix."""
    return DualityCell(n, k, space, unguarded).commutes()


@dataclass(frozen=True)
class CentralizerData:
    dim_commutant_of_left: int
    dim_span_of_right: int
    dim_commutant_of_right: int
    dim_span_of_left: int
    right_matches_left_commutant: bool
    left_matches_right_commutant: bool

    @property
    def dims(self):
        return (
            self.dim_commutant_of_left,
            self.dim_span_of_right,
            self.dim_commutant_of_right,
            self.dim_span_of_left,
        )

    @property
    def ok(self) -> bool:
        return (
            self.dim_commutant_of_left == self.dim_span_of_right
            and self.dim_commutant_of_right == self.dim_span_of_left
            and self.right_matches_left_commutant
            and self.left_matches_right_commutant
        )


def _centralizer(cell: DualityCell) -> CentralizerData:
    comm_left, span_right, right_in, comm_left_in = cell.half_centralizer("left")
    comm_right, span_left, left_in, comm_right_in = cell.half_centralizer("right")
    return CentralizerData(
        dim_commutant_of_left=comm_left,
        dim_span_of_right=span_right,
        dim_commutant_of_right=comm_right,
        dim_span_of_left=span_left,
        right_matches_left_commutant=right_in and comm_left_in,
        left_matches_right_commutant=left_in and comm_right_in,
    )


def centralizer_data(n: int, k: int, space: str, unguarded=False) -> CentralizerData:
    """Both directions of the double-centralizer check at one size."""
    return _centralizer(DualityCell(n, k, space, unguarded))


def verify_semigroup_faithfulness(n: int, k: int, which: str, unguarded=False) -> bool:
    """True iff element -> matrix is injective for the named action."""
    if which not in SEMIGROUP_KINDS:
        raise ValueError(f"unknown action {which!r}")
    space, side = KIND_SIDES[which]
    return DualityCell(n, k, space, unguarded).semigroup_faithful(side)


def verify_algebra_faithfulness(n: int, k: int, which: str, unguarded=False) -> bool:
    """True iff the element matrices are linearly independent (for the
    contracted rook algebra on V, the all-undefined element maps to the
    zero matrix and is excluded from the basis)."""
    if which not in ALGEBRA_KINDS:
        raise ValueError(f"unknown algebra {which!r}")
    space, side = KIND_SIDES[which]
    return DualityCell(n, k, space, unguarded).algebra_faithful(side)


def predicted_semigroup_faithful(n: int, k: int, which: str) -> bool:
    if which in ("is_on_V", "is_on_U", "pistar_on_U"):
        return True
    return n >= 2 or k == 1  # istar_on_V


def predicted_algebra_faithful(n: int, k: int, which: str) -> bool:
    if which in ("contracted_is_on_V", "is_on_U"):
        return k >= n
    return k <= n  # istar_on_V, pistar_on_U


@dataclass(frozen=True)
class DualityReport:
    """Everything checked at one (n, k, space) cell, with predictions."""

    n: int
    k: int
    space: str
    commute_ok: bool
    centralizer_dims: tuple | None
    centralizer_ok: bool | None
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
        return {
            "n": self.n,
            "k": self.k,
            "space": self.space,
            "commute_ok": self.commute_ok,
            "centralizer_dims": (
                list(self.centralizer_dims) if self.centralizer_dims else None
            ),
            "centralizer_ok": self.centralizer_ok,
            "semigroup_faithful_left": self.semigroup_faithful_left,
            "semigroup_faithful_right": self.semigroup_faithful_right,
            "algebra_faithful_left": self.algebra_faithful_left,
            "algebra_faithful_right": self.algebra_faithful_right,
            "predicted_semigroup_faithful_left": self.predicted_semigroup_faithful_left,
            "predicted_semigroup_faithful_right": self.predicted_semigroup_faithful_right,
            "predicted_algebra_faithful_left": self.predicted_algebra_faithful_left,
            "predicted_algebra_faithful_right": self.predicted_algebra_faithful_right,
            "match": self.match,
        }


def run_full_report(
    n: int, k: int, space: str, with_commutant: bool = True, unguarded=False
) -> DualityReport:
    """Run every check at one cell and compare against the predictions.

    ``with_commutant=False`` skips the two commutant solves (used on the
    outlying grid cells where only spans and faithfulness are needed)."""
    if space == "V":
        sgrp_left, sgrp_right = "is_on_V", "istar_on_V"
        alg_left, alg_right = "contracted_is_on_V", "istar_on_V"
    else:
        sgrp_left, sgrp_right = "is_on_U", "pistar_on_U"
        alg_left, alg_right = "is_on_U", "pistar_on_U"

    cell = DualityCell(n, k, space, unguarded)
    commute_ok = cell.commutes()
    if with_commutant:
        data = _centralizer(cell)
        centralizer_dims, centralizer_ok = data.dims, data.ok
    else:
        centralizer_dims, centralizer_ok = None, None

    computed = {
        "sl": cell.semigroup_faithful("left"),
        "sr": cell.semigroup_faithful("right"),
        "al": cell.algebra_faithful("left"),
        "ar": cell.algebra_faithful("right"),
    }
    predicted = {
        "sl": predicted_semigroup_faithful(n, k, sgrp_left),
        "sr": predicted_semigroup_faithful(n, k, sgrp_right),
        "al": predicted_algebra_faithful(n, k, alg_left),
        "ar": predicted_algebra_faithful(n, k, alg_right),
    }
    match = (
        commute_ok
        and (centralizer_ok is None or centralizer_ok)
        and computed == predicted
    )
    return DualityReport(
        n=n,
        k=k,
        space=space,
        commute_ok=commute_ok,
        centralizer_dims=centralizer_dims,
        centralizer_ok=centralizer_ok,
        semigroup_faithful_left=computed["sl"],
        semigroup_faithful_right=computed["sr"],
        algebra_faithful_left=computed["al"],
        algebra_faithful_right=computed["ar"],
        predicted_semigroup_faithful_left=predicted["sl"],
        predicted_semigroup_faithful_right=predicted["sr"],
        predicted_algebra_faithful_left=predicted["al"],
        predicted_algebra_faithful_right=predicted["ar"],
        match=match,
    )


def default_grid(spaces=("V", "U")) -> list:
    """The guarded verification grid: full checks on the core cells,
    span-and-faithfulness only on the outliers."""
    grid = []
    if "V" in spaces:
        grid += [("V", n, k, True) for n, k in V_FULL_CELLS]
        grid += [("V", n, k, False) for n, k in V_SPAN_CELLS]
    if "U" in spaces:
        grid += [("U", n, k, True) for n, k in U_FULL_CELLS]
        grid += [("U", n, k, False) for n, k in U_SPAN_CELLS]
    return grid


def run_grid(
    spaces=("V", "U"), max_n: int | None = None, max_k: int | None = None
) -> list:
    """Reports for every default grid cell within the requested bounds."""
    reports = []
    for space, n, k, with_commutant in default_grid(spaces):
        if max_n is not None and n > max_n:
            continue
        if max_k is not None and k > max_k:
            continue
        reports.append(run_full_report(n, k, space, with_commutant))
    return reports
