"""Products for the rook monoid and the diagram semigroups.

The diagram product glues the primed row of the left factor to the
unprimed row of the right factor, takes connected components across the
resulting three tiers, and reads off a new partition from the outer
tiers.  Components trapped in the middle tier are deleted and counted
("garbage").  The partial dual product additionally breaks every
component that swallowed a completion singleton.  Two deformed products
on partial dual elements are provided: the restricted product ``star``
on the zero-adjoined semigroup and the exact-middle-match product
``bullet``.

The monoid generating sets live here too: ``is_generators`` for the rook
monoid, ``istar_generators`` and ``pistar_generators`` for the dual and
partial dual monoids.  A matrix commutes with a whole monoid's image
when it commutes with the images of its generators, which is how the
duality checks solve every commutant.  ``family`` lists a monoid's
elements, checked against its closed-form size, ``_family_index``
numbers a diagram monoid's codes and ``_family_orbits`` holds their
S_k x S_k symmetry, each built once per size.

All four diagram products run on the code a diagram is stored as
(``SetPartition.code``): a sorted tuple of ``(in_mask, out_mask)``
pairs with bit i - 1 standing for point i (or i').  The gluing is
``_glue``: a's blocks enter as ``(in, out, 0)`` masks over the three
tiers, b's as ``(0, in, out)``, and blocks whose middle masks overlap
merge into one component.  The ``*_codes`` functions are the products
on codes; the public ``multiply_*`` functions validate their diagrams
and wrap the resulting code, while the morphism checks validate once
and call the code products on generic codes of middle rows, whose
results they relabel.
"""

import functools
from typing import NamedTuple

from .diagrams import (
    Code,
    HatElement,
    PartialInjection,
    SetPartition,
    _guard,
    count_is,
    count_istar,
    count_pistar,
    enumerate_is,
    enumerate_istar,
    enumerate_pistar,
    is_dual_element,
    is_partial_dual_element,
)


class CompositionResult(NamedTuple):
    diagram: SetPartition
    garbage_count: int


def epsilon(n: int, fixed: frozenset | set) -> PartialInjection:
    """Idempotent acting as the identity on ``fixed``, undefined elsewhere."""
    fixed = frozenset(fixed)
    for a in fixed:
        if not 1 <= a <= n:
            raise ValueError(f"point {a} outside 1..{n}")
    return PartialInjection(
        [d if d in fixed else None for d in range(1, n + 1)], n
    )


def is_generators(n: int) -> list:
    """Monoid generating set of the rook monoid: the two standard cycle
    generators of the symmetric group plus the corank-one idempotent.
    Duplicates collapse at small n; n=1 needs the identity listed."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n == 1:
        return [PartialInjection.identity(1), epsilon(1, frozenset())]
    swap = PartialInjection([2, 1] + list(range(3, n + 1)), n)
    cycle = PartialInjection(list(range(2, n + 1)) + [1], n)
    eps = epsilon(n, frozenset(range(1, n)))
    return list(dict.fromkeys((swap, cycle, eps)))


def _mask(*points) -> int:
    return sum(1 << p - 1 for p in points)


def _fixed(start: int, k: int) -> list:
    """Codes of the blocks {i,i'} for i = start..k."""
    return [(_mask(i), _mask(i)) for i in range(start, k + 1)]


def _dual_generators(name: str, k: int, unguarded: bool, extra) -> list:
    """The swap, the k-cycle and the merge ``{1,2,1',2'}|{3,3'}|...``
    (at k = 1 the identity instead: for k >= 2 it is the swap squared),
    then the diagrams of the ``extra`` codes, without duplicates (the
    k-cycle is the swap at k = 2), guarded as ``enumerate_<name>`` is."""
    _guard(name, k, unguarded, f"{name}_generators")
    if k == 1:
        codes = [_fixed(1, 1)]
    else:
        codes = [
            [(_mask(1), _mask(2)), (_mask(2), _mask(1))] + _fixed(3, k),
            [(_mask(i), _mask(i % k + 1)) for i in range(1, k + 1)],
            [(_mask(1, 2), _mask(1, 2))] + _fixed(3, k),
        ]
    return list(dict.fromkeys(SetPartition(k, code) for code in codes + extra))


def istar_generators(k: int, unguarded: bool = False) -> list:
    """Monoid generating set of the dual symmetric inverse monoid I*_k:
    the swap, the k-cycle, the merge ``{1,2,1',2'}|{3,3'}|...`` and
    ``eta = {1,2,1'}|{3,2'}|...|{k,(k-1)',k'}`` (after FitzGerald and
    Leech, "Dual symmetric inverse monoids and representation theory",
    J. Austral. Math. Soc. 1998); the identity alone at k = 1.  Four
    elements for k >= 3.  Refuses k above ``ENUM_LIMIT_DUAL``, as
    ``enumerate_istar`` does."""
    eta = []
    if k >= 3:
        shifted = [(_mask(i + 1), _mask(i)) for i in range(2, k - 1)]
        eta = [[(_mask(1, 2), _mask(1))] + shifted + [(_mask(k), _mask(k - 1, k))]]
    return _dual_generators("istar", k, unguarded, eta)


def pistar_generators(k: int, unguarded: bool = False) -> list:
    """Monoid generating set of the partial dual symmetric inverse monoid
    P*_k: the swap, the k-cycle and the merge of ``istar_generators``
    (the identity at k = 1), the drop ``{2,2'}|...|{k,k'}``, the
    half-merge ``{1,2,1'}|{3,3'}|...`` (2' uncovered) and its flip
    ``{1,1',2'}|{3,3'}|...`` (2 uncovered).  Six elements for k >= 3.
    Refuses k above ``ENUM_LIMIT_PARTIAL_DUAL``, as ``enumerate_pistar``
    does."""
    extra = [_fixed(2, k)]
    if k >= 2:
        extra += [
            [(_mask(1, 2), _mask(1))] + _fixed(3, k),
            [(_mask(1), _mask(1, 2))] + _fixed(3, k),
        ]
    return _dual_generators("pistar", k, unguarded, extra)


_MONOIDS = {
    "is": (enumerate_is, lambda n, unguarded=False: is_generators(n)),
    "istar": (enumerate_istar, istar_generators),
    "pistar": (enumerate_pistar, pistar_generators),
}
_COUNTS = {"is": count_is, "istar": count_istar, "pistar": count_pistar}


@functools.cache
def _family(name: str, size: int) -> tuple:
    """The enumeration behind ``family``, refused unless of its closed-form size."""
    elements, count = tuple(_MONOIDS[name][0](size, True)), _COUNTS[name](size)
    if len(elements) != count:
        raise RuntimeError(f"{name} at size {size} enumerated {len(elements)} elements, not {count}")
    return elements


def family(name: str, size: int, unguarded: bool = False) -> tuple:
    """The elements of IS_n (``"is"``), I*_k (``"istar"``) or P*_k
    (``"pistar"``), as ``_MONOIDS`` enumerates them, built once per (name,
    size), kept for the whole process and shared by every caller.  The size
    guard runs on every call, before the cache; generating sets stay apart."""
    _guard(name, size, unguarded)
    return _family(name, size)


@functools.cache
def _family_index(name: str, size: int) -> dict:
    """``{key: position}`` over ``family(name, size)``, keyed by a partial
    injection's target tuple or a diagram's code, built once per (name,
    size) next to it; callers run the guard first."""
    return {e.targets if name == "is" else e.code: i for i, e in enumerate(_family(name, size))}


def _orbit_tree(perms: list, n: int) -> tuple:
    """The first of 0..n-1 in each orbit under ``perms``, and a breadth-first
    tree of the rest: (x, g, y) with x = perms[g][y], y listed before x."""
    seen, firsts, tree = [False] * n, [], []
    for a in range(n):
        if not seen[a]:
            seen[a] = True
            firsts.append(a)
            queue = [a]
            for y in queue:
                for g, perm in enumerate(perms):
                    if not seen[x := perm[y]]:
                        seen[x] = True
                        queue.append(x)
                        tree.append((x, g, y))
    return firsts, tree


@functools.cache
def _family_orbits(name: str, size: int) -> tuple:
    """The index permutations of ``family(name, size)`` by the swap and the
    size-cycle of the top points (a diagram's in-masks, a partial
    injection's domain: pi to pi g^-1), the same of the bottom points
    (out-masks; the image: pi to g pi), the first element of each
    two-sided orbit, the first of each bottom orbit, and the two-sided
    ``_orbit_tree``; built once per (name, size), callers run the guard
    first.  Each family is closed under exchanging the rows (``flip``: a
    diagram's rows, a partial injection's inverse), so a bottom
    permutation is the top one conjugated by it: bottom[g][x] =
    flip[top[g][flip[x]]].  Two elements share a bottom orbit exactly when
    they have the same key: the in-masks with their blocks' out-mask sizes
    (a bottom permutation can send each block's out-mask to any disjoint
    set of its size), or the domain."""
    index, k = _family_index(name, size), size
    gens = dict.fromkeys([(1, 0, *range(2, k)), (*range(1, k), 0)] if k > 1 else [])
    moves = [[sum(1 << g[i] for i in range(k) if m >> i & 1) for m in range(1 << k)] for g in gens]
    if name == "is":  # pi g^-1 reads pi at g^-1(i); the inverse sends pi(i) to i
        top = [[index[tuple(t[g.index(i)] for i in range(k))] for t in index] for g in gens]
        flip = [index[tuple(t.index(j) + 1 if j in t else None for j in range(1, k + 1))]
                for t in index]
        keys = [tuple(t is None for t in ts) for ts in index]
    else:
        top = [[index[tuple(sorted((m[i], o) for i, o in c))] for c in index] for m in moves]
        flip = [index[tuple(sorted((o, i) for i, o in c))] for c in index]
        keys = [tuple((i, o.bit_count()) for i, o in c) for c in index]
    bottom = [[flip[t[x]] for x in flip] for t in top]
    rows, tree = _orbit_tree(top + bottom, len(index))
    cols = sorted({key: x for x, key in reversed(list(enumerate(keys)))}.values())  # keys' firsts
    return top, bottom, rows, cols, tree


class _Parts:
    """The memo of a cell (``DualityCell``, ``DeformationCell``): each part
    is built on first use by ``_part`` and kept for the cell's lifetime."""

    def __init__(self):
        self._parts = {}

    def _part(self, key, build):
        if key not in self._parts:
            self._parts[key] = build()
        return self._parts[key]


def _glue(a, b) -> list:
    """Components of the three-tier gluing, as (left, middle, right)
    masks: a's blocks enter as (in, out, 0), b's as (0, in, out), and
    blocks join wherever their middle masks overlap.  The components
    found so far always have disjoint middle masks, so each b block
    only has to merge the ones its in_mask meets."""
    components = [(ins, outs, 0) for ins, outs in a]
    for ins, outs in b:
        left, middle, right = 0, ins, outs
        rest = []
        for c in components:
            if c[1] & middle:
                left, middle, right = left | c[0], middle | c[1], right | c[2]
            else:
                rest.append(c)
        rest.append((left, middle, right))
        components = rest
    return components


def pistar_codes(a, b) -> Code:
    """Break-down product of partial dual codes.  A component breaks
    down exactly when it holds a completion singleton, i.e. when its
    middle mask leaves the points both factors cover there; the
    singletons of the outer rows are components of their own.  The
    blocks' masks are disjoint, so their sum is their union."""
    covered = sum(outs for _, outs in a) & sum(ins for ins, _ in b)
    return tuple(
        sorted(
            (left, right)
            for left, middle, right in _glue(a, b)
            if not middle & ~covered
        )
    )


def star_codes(a, b):
    """Star product of partial dual codes, or None for the adjoined zero:
    a's blocks must meet the middle row exactly as b's blocks do."""
    if sorted(outs for _, outs in a) != sorted(ins for ins, _ in b):
        return None
    return pistar_codes(a, b)


def bullet_codes(a, b) -> Code:
    """Exact-middle-match product of partial dual codes."""
    mate = {ins: outs for ins, outs in b}
    return tuple(
        sorted((ins, mate[outs]) for ins, outs in a if outs in mate)
    )


def multiply_composition(alpha: SetPartition, beta: SetPartition):
    """Product in the composition semigroup on all 2k points.

    Partial inputs are completed with singletons first.  Returns the
    resulting partition together with the number of deleted middle-only
    components."""
    if alpha.k != beta.k:
        raise ValueError("factors must share k")
    blocks, garbage = [], 0
    for left, _, right in _glue(alpha.completed().code, beta.completed().code):
        if left or right:
            blocks.append((left, right))
        else:
            garbage += 1
    return CompositionResult(SetPartition(alpha.k, blocks), garbage)


def multiply_istar(alpha: SetPartition, beta: SetPartition) -> SetPartition:
    """Product of dual elements; never produces garbage."""
    if not (is_dual_element(alpha) and is_dual_element(beta)):
        raise ValueError("multiply_istar needs dual elements")
    result = multiply_composition(alpha, beta)
    if result.garbage_count:
        raise RuntimeError(
            f"dual elements composed with {result.garbage_count} garbage components"
        )
    return result.diagram


def multiply_pistar(alpha: SetPartition, beta: SetPartition) -> SetPartition:
    """Break-down product of partial dual elements.

    Both factors are completed with singletons and composed across three
    tiers; any component that contains a completion singleton of either
    factor breaks down entirely (its outer points become uncovered).
    Surviving components contribute their outer-left points unprimed and
    outer-right points primed."""
    if alpha.k != beta.k:
        raise ValueError("factors must share k")
    if not (is_partial_dual_element(alpha) and is_partial_dual_element(beta)):
        raise ValueError("multiply_pistar needs partial dual elements")
    return SetPartition(alpha.k, pistar_codes(alpha.code, beta.code))


def star_multiply(a: HatElement, b: HatElement) -> HatElement:
    """Restricted product on the zero-adjoined partial dual semigroup.

    Non-zero factors multiply as partial dual elements exactly when the
    partition alpha induces on its primed row coincides, block by block
    and in support, with the partition beta induces on its unprimed row;
    every other pair multiplies to the adjoined zero.  (The pairwise
    block-matching condition alone is too weak: it would let a factor
    ignore middle points the other factor covers, and the deformed
    action matrices would stop being multiplicative.)"""
    if a.k != b.k:
        raise ValueError("factors must share k")
    if a.is_zero or b.is_zero:
        return HatElement.zero(a.k)
    code = star_codes(a.diagram.code, b.diagram.code)
    if code is None:
        return HatElement.zero(a.k)
    return HatElement.wrap(SetPartition(a.k, code))


def bullet_multiply(alpha: SetPartition, beta: SetPartition) -> SetPartition:
    """Exact-middle-match product on partial dual elements.

    Each block A of alpha pairs with the block B of beta whose unprimed
    part mirrors A's primed part exactly, contributing the block made of
    A's unprimed and B's primed points; unpaired blocks vanish."""
    if alpha.k != beta.k:
        raise ValueError("factors must share k")
    if not (is_partial_dual_element(alpha) and is_partial_dual_element(beta)):
        raise ValueError("bullet_multiply needs partial dual elements")
    return SetPartition(alpha.k, bullet_codes(alpha.code, beta.code))
