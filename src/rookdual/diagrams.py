"""Element types for the rook monoid and its dual diagram semigroups.

Two kinds of elements appear throughout the package.  A partial
injection on {1..n} is a rook-monoid element: an injective map defined
on a subset of the points.  A set partition of the 2k boundary points
1..k, 1'..k' (or of a subset of them) is a diagram: depending on which
blocks are allowed it encodes an element of the composition semigroup
on 2k points, of the dual symmetric inverse monoid, or of its partial
analogue.  All values here are immutable and canonically ordered, so
they hash, compare and print deterministically.

A diagram is stored as its code: a sorted tuple of ``(in_mask,
out_mask)`` pairs, one per block, where bit i - 1 of in_mask stands for
point i and of out_mask for point i'.  Equality, hashing, the
completion, the flip, the family predicates and the natural order
``block_union_leq`` read the code, and so do ``sort_key``, the
enumerators (which walk the blocks in ``sort_key`` order), the
products (``semigroups``), the actions (``tensor_actions``) and the
deformation walks (``morphisms``).  The point-level view, ``blocks``
with its text form, is derived from the code on first use.
"""

import functools
import itertools
import math
from typing import Iterable, NamedTuple

ENUM_LIMIT_INJECTIONS = 6
ENUM_LIMIT_DUAL = 5
ENUM_LIMIT_PARTIAL_DUAL = 4


class SizeGuardError(ValueError):
    """Raised when an enumeration or a linear-algebra build would blow past
    the sizes this package is meant for.  Callers that know what they are
    doing can pass ``unguarded=True`` (CLI: ``--unsafe-no-guards``)."""


class BoundaryPoint(NamedTuple):
    """One of the 2k boundary points; ``primed`` selects the 1'..k' row.

    Tuple order (primed, index) gives the canonical point order: the
    unprimed row first, each row by ascending index.
    """

    primed: bool
    index: int

    def partner(self):
        """The mirror point on the other row."""
        return BoundaryPoint(not self.primed, self.index)

    def __str__(self):
        return f"{self.index}'" if self.primed else str(self.index)


def unprimed(i: int) -> BoundaryPoint:
    return BoundaryPoint(False, i)


def primed(i: int) -> BoundaryPoint:
    return BoundaryPoint(True, i)


class PartialInjection:
    """Injective partial map on {1..n}, stored as a target tuple.

    ``targets[d-1]`` is the image of d, or None when d is undefined.
    Text form lists the targets with ``-`` holes: ``[2,-,3,5,-]``.
    """

    __slots__ = ("n", "targets")

    def __init__(self, targets: Iterable, n: int | None = None):
        targets = tuple(targets)
        if n is None:
            n = len(targets)
        if n < 1 or len(targets) != n:
            raise ValueError(f"need exactly n={n} targets, got {len(targets)}")
        seen = set()
        for t in targets:
            if t is None:
                continue
            if not isinstance(t, int) or not 1 <= t <= n:
                raise ValueError(f"target {t!r} outside 1..{n}")
            if t in seen:
                raise ValueError(f"target {t} hit twice; map not injective")
            seen.add(t)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "targets", targets)

    def __setattr__(self, name, value):
        raise AttributeError("PartialInjection is immutable")

    @classmethod
    def identity(cls, n: int):
        return cls(range(1, n + 1))

    def __call__(self, d: int):
        if not 1 <= d <= self.n:
            raise ValueError(f"point {d} outside 1..{self.n}")
        return self.targets[d - 1]

    def domain(self) -> frozenset:
        return frozenset(d for d, t in enumerate(self.targets, 1) if t is not None)

    def image(self) -> frozenset:
        return frozenset(t for t in self.targets if t is not None)

    def rank(self) -> int:
        return sum(1 for t in self.targets if t is not None)

    def inverse(self):
        inv = [None] * self.n
        for d, t in enumerate(self.targets, 1):
            if t is not None:
                inv[t - 1] = d
        return PartialInjection(inv, self.n)

    def __mul__(self, other):
        """Right-to-left composition: (self * other)(d) = self(other(d))."""
        if not isinstance(other, PartialInjection):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("cannot compose maps on different point sets")
        out = []
        for t in other.targets:
            out.append(None if t is None else self.targets[t - 1])
        return PartialInjection(out, self.n)

    def __eq__(self, other):
        return (
            isinstance(other, PartialInjection)
            and self.n == other.n
            and self.targets == other.targets
        )

    def __hash__(self):
        return hash((PartialInjection, self.n, self.targets))

    def sort_key(self):
        return tuple(0 if t is None else t for t in self.targets)

    def __str__(self):
        return "[" + ",".join("-" if t is None else str(t) for t in self.targets) + "]"

    def __repr__(self):
        return f"PartialInjection({self})"


class SetPartition:
    """Canonical set partition of (a subset of) the 2k boundary points.

    ``code`` holds one ``(in_mask, out_mask)`` pair per block, sorted;
    the constructor sorts it and trusts it otherwise (disjoint non-empty
    blocks on rows of size k).  ``blocks`` is the point-level view:
    each block a tuple of points in canonical point order, the blocks
    ordered by least point, derived from the code and cached.  Use
    :func:`canonicalize` to build one from raw points with validation.
    """

    __slots__ = ("k", "code", "_blocks")

    def __init__(self, k: int, code):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "code", tuple(sorted(code)))
        object.__setattr__(self, "_blocks", None)

    def __setattr__(self, name, value):
        raise AttributeError("SetPartition is immutable")

    @classmethod
    def identity(cls, k: int):
        """The diagram pairing each i with i'."""
        return cls(_positive_k(k), [(1 << i, 1 << i) for i in range(k)])

    @classmethod
    def empty(cls, k: int):
        return cls(_positive_k(k), ())

    @property
    def blocks(self) -> tuple:
        """The blocks as tuples of points, built from the code once."""
        if self._blocks is None:
            blocks = sorted(itertools.starmap(_block_points, self.code))
            object.__setattr__(self, "_blocks", tuple(blocks))
        return self._blocks

    def support(self) -> frozenset:
        return frozenset(p for block in self.blocks for p in block)

    def completed(self):
        """Fill every uncovered point in as a singleton block (the
        embedding of partial diagrams into partitions of all 2k points).
        The blocks' masks are disjoint, so their sum is their union."""
        full = (1 << self.k) - 1
        free_in = full & ~sum(ins for ins, _ in self.code)
        free_out = full & ~sum(outs for _, outs in self.code)
        if not free_in | free_out:
            return self
        singles = [(1 << i - 1, 0) for i in _indices(free_in)]
        singles += [(0, 1 << i - 1) for i in _indices(free_out)]
        return SetPartition(self.k, self.code + tuple(singles))

    def flip(self):
        """Exchange the rows (the inverse map in the dual monoids)."""
        return SetPartition(self.k, [(outs, ins) for ins, outs in self.code])

    def __eq__(self, other):
        return (
            isinstance(other, SetPartition)
            and self.k == other.k
            and self.code == other.code
        )

    def __hash__(self):
        return hash((SetPartition, self.k, self.code))

    def sort_key(self):
        """Block count, then the blocks in the order of ``blocks``, each
        as its ascending points with i read as i and i' as k + i."""
        key = sorted(_indices(ins | outs << self.k) for ins, outs in self.code)
        return (len(self.code), key)

    def __str__(self):
        if not self.code:
            return "{}"
        return "|".join(
            "{" + ",".join(str(p) for p in block) + "}" for block in self.blocks
        )

    def __repr__(self):
        return f"SetPartition({self})"


def _positive_k(k: int) -> int:
    if k < 1:
        raise ValueError("k must be a positive integer")
    return k


@functools.cache
def _indices(mask: int) -> tuple:
    """The points i whose bit i - 1 is set in mask, ascending; kept per
    mask, since every sort key and block of every diagram reads it."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


@functools.cache
def _block_points(ins: int, outs: int) -> tuple:
    """The points of a block in canonical point order; kept per block,
    since the diagrams on rows of size k share their blocks."""
    return tuple(map(unprimed, _indices(ins))) + tuple(map(primed, _indices(outs)))


class HatElement:
    """Element of the zero-adjoined deformation: a diagram or the extra 0.

    The adjoined zero is not a diagram; it prints as ``0`` and absorbs
    every ``star_multiply`` product.
    """

    __slots__ = ("k", "diagram")

    def __init__(self, k: int, diagram: SetPartition | None):
        if diagram is not None:
            if diagram.k != k:
                raise ValueError("diagram size disagrees with k")
            if not is_partial_dual_element(diagram):
                raise ValueError("diagram is not a partial dual element")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "diagram", diagram)

    def __setattr__(self, name, value):
        raise AttributeError("HatElement is immutable")

    @classmethod
    def zero(cls, k: int):
        return cls(k, None)

    @classmethod
    def wrap(cls, diagram: SetPartition):
        return cls(diagram.k, diagram)

    @property
    def is_zero(self) -> bool:
        return self.diagram is None

    def __eq__(self, other):
        return (
            isinstance(other, HatElement)
            and self.k == other.k
            and self.diagram == other.diagram
        )

    def __hash__(self):
        return hash((HatElement, self.k, self.diagram))

    def __str__(self):
        return "0" if self.diagram is None else str(self.diagram)

    def __repr__(self):
        return f"HatElement({self})"


def canonicalize(blocks, k: int) -> SetPartition:
    """Validate raw blocks and produce the canonical SetPartition.

    Accepts any iterable of iterables of BoundaryPoints.  Rejects
    out-of-range points, duplicates (within or across blocks) and empty
    blocks; block presentation order is irrelevant.
    """
    _positive_k(k)
    seen = set()
    code = []
    for raw in blocks:
        ins = outs = 0
        for p in raw:
            if not isinstance(p, BoundaryPoint):
                raise ValueError(f"not a boundary point: {p!r}")
            if not 1 <= p.index <= k:
                raise ValueError(f"point {p} outside rows of size k={k}")
            if p in seen:
                raise ValueError(f"point {p} appears in two blocks")
            seen.add(p)
            if p.primed:
                outs |= 1 << p.index - 1
            else:
                ins |= 1 << p.index - 1
        if not ins | outs:
            raise ValueError("empty block supplied")
        code.append((ins, outs))
    return SetPartition(k, code)


def is_dual_element(p: SetPartition) -> bool:
    """True iff p covers all 2k points and every block meets both rows."""
    full = (1 << p.k) - 1
    return (
        is_partial_dual_element(p)
        and sum(ins for ins, _ in p.code) == full
        and sum(outs for _, outs in p.code) == full
    )


def is_partial_dual_element(p: SetPartition) -> bool:
    """True iff every block meets both rows (coverage not required)."""
    return all(ins and outs for ins, outs in p.code)


Code = tuple[tuple[int, int], ...]


def block_union_leq(alpha: SetPartition, beta: SetPartition) -> bool:
    """True iff every block of beta is a union of blocks of alpha: the
    union of the blocks of alpha that meet a block of beta is that block.

    Beta may drop alpha-blocks entirely, which is how the deformation
    change-of-basis maps walk the semigroup's natural order.
    """
    if alpha.k != beta.k:
        raise ValueError("cannot compare partitions with different k")
    for b_in, b_out in beta.code:
        ins = outs = 0
        for a_in, a_out in alpha.code:
            if a_in & b_in or a_out & b_out:
                ins, outs = ins | a_in, outs | a_out
        if (ins, outs) != (b_in, b_out):
            return False
    return True


def _set_partitions(items: tuple):
    """All set partitions of items, each a list of tuples, in a fixed
    recursive order (first element anchors the first block)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        yield [(first,)] + sub
        for i, block in enumerate(sub):
            yield sub[:i] + [(first,) + block] + sub[i + 1 :]


def _guard(name: str, size: int, unguarded: bool, caller: str = "") -> None:
    """Refuse a size of the family ``name`` below 1 (``ValueError``), and
    above its ``ENUM_LIMIT_*``, read when called, unless ``unguarded``
    (``SizeGuardError`` naming ``caller``, by default the enumerator)."""
    limit = {"is": ENUM_LIMIT_INJECTIONS, "istar": ENUM_LIMIT_DUAL,
             "pistar": ENUM_LIMIT_PARTIAL_DUAL}.get(name)
    if limit is None:
        raise ValueError(f"unknown family {name!r}; expected 'is', 'istar' or 'pistar'")
    variable = "n" if name == "is" else "k"
    if size < 1:
        raise ValueError(f"{variable} must be a positive integer")
    if size > limit and not unguarded:
        caller = caller or f"enumerate_{name}"
        raise SizeGuardError(f"{caller} guard: {variable}={size} exceeds {limit}")


def _injection(n: int, targets: tuple) -> PartialInjection:
    """The walk's partial injection, valid by construction: unchecked."""
    element = object.__new__(PartialInjection)
    object.__setattr__(element, "n", n)
    object.__setattr__(element, "targets", targets)
    return element


def enumerate_is(n: int, unguarded: bool = False) -> list:
    """All partial injections on {1..n}, in ``sort_key`` order: each
    position takes "undefined", then every unused target, ascending."""
    _guard("is", n, unguarded)
    prefixes = [((), 0)]  # the targets so far and the mask of those used
    choices = [(None, 0)] + [(t, 1 << t) for t in range(1, n + 1)]
    for _ in range(n):
        prefixes = [(targets + (t,), used | bit) for targets, used in prefixes
                    for t, bit in choices if not used & bit]
    return [_injection(n, targets) for targets, _ in prefixes]


def _diagrams(k: int, cover: bool) -> list:
    """The diagrams on rows of size k whose every block meets both rows,
    covering all 2k points when ``cover``, in ``sort_key`` order: a
    depth-first walk on a 2k-bit mask (i as bit i - 1, i' as bit k + i - 1)
    that picks blocks by ascending least point (under ``cover``, the least
    free one) and grows each block one larger point at a time, a block
    before its extensions; one bucket per block count."""
    full = (1 << k) - 1
    buckets = [[] for _ in range(k + 1)]

    def finish(code, free):  # free: the points later blocks may take
        starts = free & full
        if not cover or not free:
            buckets[len(code)].append(SetPartition(k, code))
        if cover:
            starts &= -starts
        while starts:
            least = starts & -starts
            starts ^= least
            grow(code, free & ~(2 * least - 1), least, least)

    def grow(code, free, block, top):  # top: the block's highest point
        if cover and not free & full:  # no unprimed point left: the block takes the rest
            if free & (2 * top - 1):  # a free primed point below top cannot join
                return
            block, free = block | free, 0
        if block >> k and (not cover or not free or free >> k):  # later blocks need a primed point
            finish(code + ((block & full, block >> k),), free)
        larger = free & ~(2 * top - 1)
        while larger:
            point = larger & -larger
            larger ^= point
            grow(code, free ^ point, block | point, point)

    finish((), (1 << 2 * k) - 1)
    return [diagram for bucket in buckets for diagram in bucket]


def enumerate_istar(k: int, unguarded: bool = False) -> list:
    """All dual elements (partitions of all 2k points, every block
    meeting both rows), in ``sort_key`` order."""
    _guard("istar", k, unguarded)
    return _diagrams(k, cover=True)


def enumerate_pistar(k: int, unguarded: bool = False) -> list:
    """All partial dual elements (partitions of a subset of the 2k points,
    every block meeting both rows), in ``sort_key`` order."""
    _guard("pistar", k, unguarded)
    return _diagrams(k, cover=False)


def count_is(n: int) -> int:
    """Closed-form size of the rook monoid on n points."""
    return sum(math.comb(n, r) ** 2 * math.factorial(r) for r in range(n + 1))


def count_istar(k: int) -> int:
    """Closed-form size of the dual symmetric inverse monoid."""
    return sum(_stirling2(k, m) ** 2 * math.factorial(m) for m in range(1, k + 1))


def count_pistar(k: int) -> int:
    """Closed-form size of the partial dual symmetric inverse monoid."""
    return sum(
        math.comb(k, a) * math.comb(k, b) * _stirling2(a, m) * _stirling2(b, m) * math.factorial(m)
        for a, b, m in itertools.product(range(k + 1), repeat=3)
    )


def _stirling2(n: int, m: int) -> int:
    if m == 0:
        return 1 if n == 0 else 0
    return sum(
        (-1) ** (m - j) * math.comb(m, j) * j**n for j in range(m + 1)
    ) // math.factorial(m)
