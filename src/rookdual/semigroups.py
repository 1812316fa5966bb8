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
"""

from typing import NamedTuple

from .diagrams import (
    HatElement,
    PartialInjection,
    SetPartition,
    canonicalize,
    is_dual_element,
    is_partial_dual_element,
    primed,
    unprimed,
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
    gens = []
    for g in (swap, cycle, eps):
        if g not in gens:
            gens.append(g)
    return gens


class UnionFind:
    """Disjoint sets over hashable nodes, created on first ``find``."""

    def __init__(self):
        self.parent = {}

    def find(self, x):
        parent = self.parent
        root = parent.setdefault(x, x)
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


def _three_tier_components(alpha: SetPartition, beta: SetPartition):
    """Glue alpha's primed row to beta's unprimed row and return the
    component structure.  Nodes are ('a', i) outer-left, ('m', i) middle,
    ('b', i) outer-right.  Both factors must cover all their points."""
    uf = UnionFind()
    for block in alpha.blocks:
        nodes = [("a", p.index) if not p.primed else ("m", p.index) for p in block]
        for node in nodes[1:]:
            uf.union(nodes[0], node)
    for block in beta.blocks:
        nodes = [("m", p.index) if not p.primed else ("b", p.index) for p in block]
        for node in nodes[1:]:
            uf.union(nodes[0], node)
    components = {}
    for tier in ("a", "m", "b"):
        for i in range(1, alpha.k + 1):
            node = (tier, i)
            components.setdefault(uf.find(node), set()).add(node)
    return components, uf


def _component_block(component):
    block = [unprimed(i) for t, i in component if t == "a"]
    block += [primed(i) for t, i in component if t == "b"]
    return block


def multiply_composition(alpha: SetPartition, beta: SetPartition):
    """Product in the composition semigroup on all 2k points.

    Partial inputs are completed with singletons first.  Returns the
    resulting partition together with the number of deleted middle-only
    components."""
    if alpha.k != beta.k:
        raise ValueError("factors must share k")
    a, b = alpha.completed(), beta.completed()
    components, _ = _three_tier_components(a, b)
    blocks = []
    garbage = 0
    for component in components.values():
        block = _component_block(component)
        if block:
            blocks.append(block)
        else:
            garbage += 1
    return CompositionResult(canonicalize(blocks, a.k), garbage)


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
    a, b = alpha.completed(), beta.completed()
    components, uf = _three_tier_components(a, b)
    broken = set()
    for block in a.blocks:
        if len(block) == 1:
            p = block[0]
            node = ("a", p.index) if not p.primed else ("m", p.index)
            broken.add(uf.find(node))
    for block in b.blocks:
        if len(block) == 1:
            p = block[0]
            node = ("m", p.index) if not p.primed else ("b", p.index)
            broken.add(uf.find(node))
    blocks = []
    for root, component in components.items():
        if root in broken:
            continue
        block = _component_block(component)
        if block:
            blocks.append(block)
    return canonicalize(blocks, a.k)


def _out_trace(alpha: SetPartition) -> frozenset:
    """Partition induced on the primed row, as index sets."""
    return frozenset(
        frozenset(p.index for p in block if p.primed) for block in alpha.blocks
    )


def _in_trace(beta: SetPartition) -> frozenset:
    """Partition induced on the unprimed row, as index sets."""
    return frozenset(
        frozenset(p.index for p in block if not p.primed) for block in beta.blocks
    )


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
    if _out_trace(a.diagram) != _in_trace(b.diagram):
        return HatElement.zero(a.k)
    return HatElement.wrap(multiply_pistar(a.diagram, b.diagram))


def bullet_multiply(alpha: SetPartition, beta: SetPartition) -> SetPartition:
    """Exact-middle-match product on partial dual elements.

    Each block A of alpha pairs with the block B of beta whose unprimed
    part mirrors A's primed part exactly, contributing the block made of
    A's unprimed and B's primed points; unpaired blocks vanish."""
    if alpha.k != beta.k:
        raise ValueError("factors must share k")
    if not (is_partial_dual_element(alpha) and is_partial_dual_element(beta)):
        raise ValueError("bullet_multiply needs partial dual elements")
    by_in = {
        frozenset(p.index for p in block if not p.primed): block
        for block in beta.blocks
    }
    blocks = []
    for block in alpha.blocks:
        out = frozenset(p.index for p in block if p.primed)
        mate = by_in.get(out)
        if mate is None:
            continue
        new = [p for p in block if not p.primed]
        new += [p for p in mate if p.primed]
        blocks.append(new)
    return canonicalize(blocks, alpha.k)


def mulclose(generators, multiply=None) -> set:
    """Closure of a generating set under a binary product."""
    if multiply is None:
        multiply = lambda x, y: x * y
    elements = list(dict.fromkeys(generators))
    seen = set(elements)
    frontier = list(elements)
    while frontier:
        new = []
        for g in frontier:
            for h in elements:
                for prod in (multiply(g, h), multiply(h, g)):
                    if prod not in seen:
                        seen.add(prod)
                        new.append(prod)
        elements.extend(new)
        frontier = new
    return seen
