"""Slow reference implementations that the fast paths are tested against.

The diagram products here glue two diagrams point by point with a
union-find over ('a', i) outer-left, ('m', i) middle and ('b', i)
outer-right nodes, the way the package computed them before it moved to
block bitmasks.  The match sets give one input tensor's image under the
composition action on V^k and the plain, hat and tilde U-actions block
by block, the way the package built action matrices before it moved to
target tuples.  Neither validates its inputs; callers pass elements of
the right family.
"""

import itertools

from rookdual import HatElement, canonicalize, primed, unprimed
from rookdual.semigroups import UnionFind

# the three-tier diagram products


def _three_tier_components(alpha, beta):
    """Glue alpha's primed row to beta's unprimed row and return the
    component structure.  Both factors must cover all their points."""
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


def _out_trace(alpha) -> frozenset:
    """Partition induced on the primed row, as index sets."""
    return frozenset(
        frozenset(p.index for p in block if p.primed) for block in alpha.blocks
    )


def _in_trace(beta) -> frozenset:
    """Partition induced on the unprimed row, as index sets."""
    return frozenset(
        frozenset(p.index for p in block if not p.primed) for block in beta.blocks
    )


def composition(alpha, beta):
    """(diagram, garbage count) of the composition product."""
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
    return canonicalize(blocks, a.k), garbage


def pistar(alpha, beta):
    """Break-down product: components holding a completion singleton of
    either factor vanish."""
    a, b = alpha.completed(), beta.completed()
    components, uf = _three_tier_components(a, b)
    broken = set()
    for block in a.blocks:
        if len(block) == 1:
            p = block[0]
            broken.add(uf.find(("a", p.index) if not p.primed else ("m", p.index)))
    for block in b.blocks:
        if len(block) == 1:
            p = block[0]
            broken.add(uf.find(("m", p.index) if not p.primed else ("b", p.index)))
    blocks = []
    for root, component in components.items():
        if root in broken:
            continue
        block = _component_block(component)
        if block:
            blocks.append(block)
    return canonicalize(blocks, a.k)


def star(a: HatElement, b: HatElement) -> HatElement:
    """Break-down product when the middle traces agree, else zero."""
    if a.is_zero or b.is_zero or _out_trace(a.diagram) != _in_trace(b.diagram):
        return HatElement.zero(a.k)
    return HatElement.wrap(pistar(a.diagram, b.diagram))


def bullet(alpha, beta):
    """Each block of alpha splices onto the block of beta whose unprimed
    part mirrors its primed part exactly; unpaired blocks vanish."""
    by_in = {
        frozenset(p.index for p in block if not p.primed): block
        for block in beta.blocks
    }
    blocks = []
    for block in alpha.blocks:
        mate = by_in.get(frozenset(p.index for p in block if p.primed))
        if mate is not None:
            blocks.append(
                [p for p in block if not p.primed] + [p for p in mate if p.primed]
            )
    return canonicalize(blocks, alpha.k)


# match sets of the V- and U-actions


def match_set_c(alpha, i, n) -> set:
    """Output indices compatible with input i under a partition of all
    2k points: each block carries one digit shared by all its input
    positions and imposed on all its output positions; blocks with no
    input position range over every digit 1..n."""
    alpha = alpha.completed()
    k = alpha.k
    out = [0] * k
    free = []
    for block in alpha.blocks:
        ins = alpha.in_part(block)
        outs = alpha.out_part(block)
        if ins:
            v = i[ins[0] - 1]
            if any(i[a - 1] != v for a in ins[1:]):
                return set()
            for b in outs:
                out[b - 1] = v
        elif outs:
            free.append(outs)
    if not free:
        return {tuple(out)}
    results = set()
    for assignment in itertools.product(range(1, n + 1), repeat=len(free)):
        filled = list(out)
        for outs, v in zip(free, assignment):
            for b in outs:
                filled[b - 1] = v
        results.add(tuple(filled))
    return results


def _block_values(alpha, i):
    """Per-block digit forced by the input positions, or None on clash."""
    values = []
    for block in alpha.blocks:
        ins = alpha.in_part(block)
        v = i[ins[0] - 1]
        if any(i[a - 1] != v for a in ins[1:]):
            return None
        values.append(v)
    return values


def _uncovered_inputs_zero(alpha, i) -> bool:
    covered = {p.index for block in alpha.blocks for p in block if not p.primed}
    return all(i[a - 1] == 0 for a in range(1, alpha.k + 1) if a not in covered)


def _assemble_output(alpha, values):
    out = [0] * alpha.k
    for block, v in zip(alpha.blocks, values):
        for b in alpha.out_part(block):
            out[b - 1] = v
    return tuple(out)


def match_set_partial(alpha, i, n) -> set:
    """Plain U-action match set of a partial dual element: block digits
    may be anything (zero included), uncovered positions must read zero.
    At most one output index survives."""
    values = _block_values(alpha, i)
    if values is None or not _uncovered_inputs_zero(alpha, i):
        return set()
    return {_assemble_output(alpha, values)}


def match_set_hat(a: HatElement, i, n) -> set:
    """Deformed match set: the adjoined zero matches nothing; block
    digits must be non-zero and pairwise distinct."""
    if a.is_zero:
        return set()
    alpha = a.diagram
    values = _block_values(alpha, i)
    if values is None or not _uncovered_inputs_zero(alpha, i):
        return set()
    if 0 in values or len(set(values)) != len(values):
        return set()
    return {_assemble_output(alpha, values)}


def match_set_tilde(alpha, i, n) -> set:
    """Tilde match set: zero digits allowed on blocks, distinctness
    enforced only among the non-zero block digits."""
    values = _block_values(alpha, i)
    if values is None or not _uncovered_inputs_zero(alpha, i):
        return set()
    nonzero = [v for v in values if v]
    if len(set(nonzero)) != len(nonzero):
        return set()
    return {_assemble_output(alpha, values)}
