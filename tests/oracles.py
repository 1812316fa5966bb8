"""Slow reference implementations that the fast paths are tested against.

The diagram products here glue two diagrams point by point with a
union-find (``UnionFind``, over hashable nodes in a dict) over ('a', i)
outer-left, ('m', i) middle and ('b', i) outer-right nodes, the way the
package computed them before it moved to block bitmasks.  The match sets give one input tensor's image under the
composition action on V^k and the plain, hat and tilde U-actions block
by block, the way the package built action matrices before it moved to
target tuples.  ``ExactMatrix`` is the test-side sparse matrix with
Fraction entries, for matrix products and the null-space oracle;
``RowSpace`` and its helpers are the Fraction row reduction the package
computed spans with before it counted them on orbit bases, and
``rowspace_half_centralizer`` is the span half of the double-centralizer
check on top of it.  ``block_union_leq_on_points`` decides the natural
order of diagrams point by point, the reference for the block-mask
``block_union_leq``.  The point-level diagram operations
(``block_masks_on_points``, ``completed_on_points``, ``flip_on_points``,
``upper_set_on_points`` and ``subsets_on_points``) read a diagram's
point blocks and rebuild results through ``canonicalize``, the way the
package did before a diagram was stored as its block-mask code; the
products and match sets here complete their factors through them.  None
of these validates its inputs; callers pass elements of the right
family.  ``block_of``, ``in_part``, ``out_part``, ``block_count`` and
``index_at`` are the point-level and tensor-index readers that only the
tests use.  ``cell_targets`` lists the target tuples of a
``DualityCell`` side for the oracles that read tuples, and
``cell_expansions`` the plain and orbit supports of its every element;
``certify_every_element`` certifies a side's spans on every element in
one pass in enumeration order, the way the cell did before it certified
one element per two-sided orbit.
``hat_consistency_by_dicts`` and ``tilde_factorization_by_dicts`` check
the two U-action identities of the deformation maps on
``{(row, col): coeff}`` matrices, the way the package did before it
compared sorted 0/1 supports, ``support_sums_by_element`` compares the
sorted supports on every element, the way it did before it compared at
the orbit representatives only, and ``homomorphism_by_dicts`` checks a
deformation map's homomorphism identity pair by pair on ``{index:
coeff}`` dicts, each image counted off the map's walk term by term, the
way it did before it encoded combinations as integers, and
``walked_images`` walks a map on every element, the way the package did
before it walked one element per orbit and moved the images to the rest.
``mask_images``, ``generator_moves`` and ``permuted`` move a code's top
or bottom points by a permutation of S_k, ``symmetric_generators`` lists
the swap and the cycle, ``relabelled`` moves the positions or relabels
the digits of every tensor of a space, and ``tensor_moves`` the
positions of a tensor of U(n, k), for the tests of the orbit reductions.
``coarsening_sum_inverse_by_solve`` inverts the coarsening sum by the
generic triangular recursion instead of the closed form.
``graded_targets_commutant`` is the commutant solve with one
union-find call per equation term, the way the package solved it before
it walked the permutation sources' orbits and labelled the classes, and
``unions_of`` is the inclusion test it read the classes with.
``triple_supports`` expands an action into flat (input, output, used)
rows and reads its plain and orbit supports off them, the way the
package did before each row became one matrix coordinate, and
``restricts`` is the rook monoid's natural order on target tuples, the
restrictions whose orbits an element's plain matrix may meet.
``orbit_targets`` writes an element's orbit support as a target tuple,
for the tests that compare orbit bases with their definitions.
``sorted_is``, ``sorted_istar`` and ``sorted_pistar`` list the three
families the way the package did before it walked them in ``sort_key``
order: every element built (a dual one by partitioning the row masks
and pairing up their blocks), then the whole list sorted by
``sort_key``.
"""

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Iterable

from rookdual import (
    HatElement,
    PartialInjection,
    SetPartition,
    action_matrix,
    action_supports,
    action_targets,
    block_subset_sum,
    canonicalize,
    coarsening_sum,
    coarsening_sum_inverse,
    extend_linearly,
    natural_upper_set,
    primed,
    targets_commute,
    unprimed,
)
from rookdual.diagrams import _set_partitions
from rookdual.dualities import _whole_classes
from rookdual.tensor_actions import _action_rows


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


# the point-level diagram operations


def block_of(alpha) -> dict:
    """Map point -> index of its block in ``alpha.blocks``."""
    return {p: i for i, block in enumerate(alpha.blocks) for p in block}


def in_part(block) -> tuple:
    """Unprimed indices of a block, ascending."""
    return tuple(p.index for p in block if not p.primed)


def out_part(block) -> tuple:
    """Primed indices of a block, ascending."""
    return tuple(p.index for p in block if p.primed)


def block_count(alpha) -> int:
    return len(alpha.code)


def block_masks_on_points(alpha) -> tuple:
    """The code of a diagram read off its point blocks: a sorted tuple of
    (in_mask, out_mask) pairs, bit i - 1 of in_mask for point i and of
    out_mask for point i'."""
    code = []
    for block in alpha.blocks:
        ins = outs = 0
        for p in block:
            if p.primed:
                outs |= 1 << (p.index - 1)
            else:
                ins |= 1 << (p.index - 1)
        code.append((ins, outs))
    code.sort()
    return tuple(code)


def completed_on_points(alpha):
    """Every uncovered point filled in as a singleton block."""
    covered = alpha.support()
    extra = [
        (p,)
        for i in range(1, alpha.k + 1)
        for p in (unprimed(i), primed(i))
        if p not in covered
    ]
    return canonicalize(list(alpha.blocks) + extra, alpha.k)


def flip_on_points(alpha):
    """The rows exchanged point by point."""
    return canonicalize(
        [tuple(p.partner() for p in block) for block in alpha.blocks], alpha.k
    )


def upper_set_on_points(alpha):
    """The up-set of alpha in the natural order with its Moebius values,
    merging point tuples: for every sub-collection of alpha's blocks and
    every grouping of it, the diagram of the merged groups, with the
    product of (-1)^(m-1)(m-1)! over groups of m blocks times
    (-1)^D D! for the D dropped blocks."""
    atoms = alpha.blocks
    for r in range(len(atoms) + 1):
        dropped = len(atoms) - r
        drop_value = (-1) ** dropped * math.factorial(dropped)
        for subset in itertools.combinations(range(len(atoms)), r):
            for grouping in _set_partitions(subset):
                blocks = [
                    tuple(p for i in group for p in atoms[i]) for group in grouping
                ]
                value = drop_value
                for group in grouping:
                    m = len(group)
                    value *= (-1) ** (m - 1) * math.factorial(m - 1)
                yield canonicalize(blocks, alpha.k), value


def subsets_on_points(alpha):
    """Each sub-collection of alpha's point blocks as a diagram, with
    (-1) to the number of blocks it leaves out."""
    atoms = alpha.blocks
    for r in range(len(atoms) + 1):
        for subset in itertools.combinations(atoms, r):
            yield canonicalize(subset, alpha.k), (-1) ** (len(atoms) - r)


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
    a, b = completed_on_points(alpha), completed_on_points(beta)
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
    a, b = completed_on_points(alpha), completed_on_points(beta)
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
    alpha = completed_on_points(alpha)
    k = alpha.k
    out = [0] * k
    free = []
    for block in alpha.blocks:
        ins = in_part(block)
        outs = out_part(block)
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
        ins = in_part(block)
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
        for b in out_part(block):
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


# block orders on set partitions


def block_union_leq_on_points(alpha, beta) -> bool:
    """The natural order point by point, as the package decided it
    before it moved to block masks: every block of beta is a union of
    blocks of alpha, and beta may drop alpha-blocks entirely."""
    if alpha.k != beta.k:
        raise ValueError("cannot compare partitions with different k")
    owner = block_of(alpha)
    for block in beta.blocks:
        used = set()
        for p in block:
            i = owner.get(p)
            if i is None:
                return False
            used.add(i)
        covered = sum(len(alpha.blocks[i]) for i in used)
        if covered != len(block):
            return False
    return True


def coarser_leq(alpha, beta) -> bool:
    """Merging order on equal supports: every block of beta is a union of
    blocks of alpha.  Partitions of different point sets never compare."""
    if alpha.k != beta.k:
        raise ValueError("cannot compare partitions with different k")
    if alpha.support() != beta.support():
        return False
    return block_union_leq_on_points(alpha, beta)


def subblocks_leq(beta, alpha) -> bool:
    """True iff the blocks of beta form a sub-collection of alpha's."""
    if beta.k != alpha.k:
        raise ValueError("cannot compare partitions with different k")
    return set(beta.blocks) <= set(alpha.blocks)


def block_count_at_most(p, j: int) -> bool:
    """True iff the singleton completion of p has at most j blocks."""
    uncovered = 2 * p.k - len(p.support())
    return len(p.blocks) + uncovered <= j


# Fraction matrices and row reduction


class ExactMatrix:
    """Immutable sparse matrix with Fraction entries keyed by (row, col)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: dict):
        clean = {}
        for (r, c), v in entries.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) outside {rows}x{cols}")
            v = Fraction(v)
            if v:
                clean[(r, c)] = v
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def identity(cls, d: int):
        return cls(d, d, {(i, i): 1 for i in range(d)})

    @classmethod
    def zero(cls, rows: int, cols: int):
        return cls(rows, cols, {})

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __add__(self, other):
        self._check_shape(other)
        out = dict(self.entries)
        for key, v in other.entries.items():
            out[key] = out.get(key, 0) + v
        return ExactMatrix(self.rows, self.cols, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return ExactMatrix(
            self.rows, self.cols, {key: c * v for key, v in self.entries.items()}
        )

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        by_row = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        out = {}
        for (r, m), a in self.entries.items():
            for c, b in by_row.get(m, ()):
                key = (r, c)
                out[key] = out.get(key, 0) + a * b
        return ExactMatrix(self.rows, other.cols, out)

    def _check_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, {len(self.entries)} entries)"


def exact_action(element, space, variant: str = "plain") -> ExactMatrix:
    """``action_matrix`` as an ExactMatrix, for products and comparisons."""
    d = space.dimension
    return ExactMatrix(d, d, action_matrix(element, space, variant))


def targets_matrix(targets) -> ExactMatrix:
    """The 0/1 matrix of a target tuple: column c holds its only 1 in
    row ``targets[c]``, and no entry at all where that is -1."""
    d = len(targets)
    return ExactMatrix(d, d, {(t, c): 1 for c, t in enumerate(targets) if t >= 0})


def transpose(m: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(m.cols, m.rows, {(c, r): v for (r, c), v in m.entries.items()})


def vectorize(m: ExactMatrix) -> dict:
    """Flatten to a sparse vector, coordinate = row*cols + col."""
    return {r * m.cols + c: v for (r, c), v in m.entries.items()}


def row_dicts(m: ExactMatrix) -> list:
    rows = {}
    for (r, c), v in m.entries.items():
        rows.setdefault(r, {})[c] = v
    return [rows.get(r, {}) for r in range(m.rows)]


class RowSpace:
    """Incrementally built row-echelon basis of sparse rational vectors.

    Pivot rows are normalized to a leading 1 at their pivot coordinate;
    reduction always eliminates the smallest remaining coordinate, so
    reduce() terminates and membership tests are exact."""

    def __init__(self):
        self.pivot_rows: dict[int, dict] = {}

    @property
    def dimension(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, vector: dict) -> dict:
        v = {c: Fraction(x) for c, x in vector.items() if x}
        while v:
            c = min(v)
            pivot = self.pivot_rows.get(c)
            if pivot is None:
                return v
            coef = v.pop(c)
            for cc, pv in pivot.items():
                if cc == c:
                    continue
                nv = v.get(cc, 0) - coef * pv
                if nv:
                    v[cc] = nv
                else:
                    v.pop(cc, None)
        return v

    def add(self, vector: dict) -> bool:
        """Reduce and absorb; True iff the vector enlarged the space."""
        v = self.reduce(vector)
        if not v:
            return False
        c = min(v)
        lead = v[c]
        self.pivot_rows[c] = {cc: vv / lead for cc, vv in v.items()}
        return True

    def contains(self, vector: dict) -> bool:
        return not self.reduce(vector)


def rank(m: ExactMatrix) -> int:
    space = RowSpace()
    for row in row_dicts(m):
        space.add(row)
    return space.dimension


def span_dimension(matrices: Iterable[ExactMatrix]) -> int:
    """Dimension of the span of the given matrices inside End(space)."""
    space = RowSpace()
    for m in matrices:
        space.add(vectorize(m))
    return space.dimension


def in_span(target: ExactMatrix, basis: Iterable[ExactMatrix]) -> bool:
    space = RowSpace()
    for m in basis:
        space.add(vectorize(m))
    return space.contains(vectorize(target))


def target_vector(targets) -> dict:
    """The flattened 0/1 matrix of a target tuple, coordinate row*d + col."""
    d = len(targets)
    return {t * d + c: 1 for c, t in enumerate(targets) if t >= 0}


def rowspace_half_centralizer(classes, plain_targets) -> tuple:
    """(span dimension, span in commutant, commutant in span) of the
    other side's plain tuples against a commutant given as coordinate
    classes: a 0/1 matrix lies in the commutant when its support is a
    union of classes, and a class lies in the span when row reduction
    leaves nothing of its indicator."""
    class_of = {x: c for c, members in enumerate(classes) for x in members}

    def in_commutant(support) -> bool:
        touched = {class_of.get(x) for x in support}
        if None in touched:
            return False
        return sum(len(classes[c]) for c in touched) == len(support)

    span = RowSpace()
    for targets in plain_targets:
        span.add(target_vector(targets))
    return (
        span.dimension,
        all(in_commutant(target_vector(t)) for t in plain_targets),
        all(span.contains(dict.fromkeys(members, 1)) for members in classes),
    )


# the flat commutant solve and all-element commutation


def flat_targets_commutant(sources, d: int) -> list:
    """The commutant classes of ``targets_commutant``, solved the way the
    package did before it graded the unknowns by signature: one flat
    union-find over all d*d coordinates row*d + col, where equation
    (i, j) of XG = GX joins x[i, g[j]] with x[ginv[i], j] and a missing
    term forces the other unknown's class to zero.  The non-zero classes
    come back as ascending tuples sorted by their largest coordinate."""
    uf = UnionFind()
    zero = []
    for g in sources:
        ginv = [-1] * d
        for c, t in enumerate(g):
            if t >= 0:
                ginv[t] = c
        live = [(j, t) for j, t in enumerate(g) if t >= 0]
        killed = [j for j, t in enumerate(g) if t < 0]
        for i, l in enumerate(ginv):
            if l < 0:
                zero.extend(i * d + t for _, t in live)
                continue
            zero.extend(l * d + j for j in killed)
            for j, t in live:
                uf.union(i * d + t, l * d + j)
    members = {}
    for x in range(d * d):
        members.setdefault(uf.find(x), []).append(x)
    for x in zero:
        members.pop(uf.find(x), None)
    return sorted((tuple(m) for m in members.values()), key=lambda m: m[-1])


def graded_targets_commutant(sources, d: int) -> list:
    """The commutant classes of ``targets_commutant``, solved the way the
    package did before it walked the permutation sources' orbits: the
    kept sets of the diagonal sources, closed under the permutation
    sources, grade the tensors into blocks, and one union-find runs over
    the live coordinates (a, b) of equal grade plus a zero node, with one
    call per equation term.  A permutation needs only its forward joins;
    another source joins forward where a is in its domain and backward
    where b is in its image.  Same order as ``flat_targets_commutant``."""
    inverses = []
    for g in sources:
        ginv = [-1] * d
        for c, t in enumerate(g):
            if t >= 0:
                ginv[t] = c
        inverses.append((g, ginv))
    diagonal = [g for g, _ in inverses if all(t in (j, -1) for j, t in enumerate(g))]
    kept = list({frozenset(j for j, t in enumerate(g) if t == j) for g in diagonal})
    perms = [g for g, _ in inverses if -1 not in g]
    for members in kept:
        kept.extend({frozenset(p[j] for j in members) for p in perms} - set(kept))
    covered = set().union(*kept)
    blocks = {}
    for j in covered:
        blocks.setdefault(frozenset(b for b, m in enumerate(kept) if j in m), []).append(j)
    blocks[frozenset()] = [j for j in range(d) if j not in covered]
    block, row, pos, cells = [0] * d + [-1], [0] * d, [0] * d, []
    for b, members in enumerate(blocks.values()):
        for p, j in enumerate(members):
            block[j], row[j], pos[j] = b, len(cells) + p * len(members), p
        cells.extend((i, j) for i in members for j in members)
    zero = len(cells)
    parent = list(range(zero + 1))

    def number(a, b):
        return row[a] + pos[b] if block[a] == block[b] else zero

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for g, ginv in (source for source in inverses if source[0] not in diagonal):
        backward = -1 in g
        for x, (a, b) in enumerate(cells):
            if g[a] >= 0:
                parent[find(number(g[a], g[b]))] = find(x)
            if backward and ginv[b] >= 0:
                parent[find(number(ginv[a], ginv[b]))] = find(x)
    classes = {}
    for x, (a, b) in enumerate(cells):
        classes.setdefault(find(x), []).append(a * d + b)
    classes.pop(find(zero), None)
    return sorted((tuple(sorted(m)) for m in classes.values()), key=lambda m: m[-1])


def unions_of(parts, pieces) -> bool:
    """Every part is a union of the disjoint pieces: the inclusion test
    ``DualityCell.half_centralizer`` made on sorted class tuples before
    it read class labels."""
    piece_of = {x: i for i, piece in enumerate(pieces) for x in piece}
    for part in parts:
        touched = {piece_of.get(x) for x in part}
        if None in touched or sum(len(pieces[i]) for i in touched) != len(part):
            return False
    return True


def index_at(space, ordinal: int) -> tuple:
    """The tensor index at an ordinal of an ``ActionSpace``, the inverse
    of ``space.ordinal``."""
    base = space.n + 1 - space.low
    digits = []
    for _ in range(space.k):
        ordinal, d = divmod(ordinal, base)
        digits.append(d + space.low)
    return tuple(reversed(digits))


def cell_targets(cell, side: str) -> list:
    """The plain ``action_targets`` tuple of every element of one side of
    a ``DualityCell``, in enumeration order; the cell keeps none."""
    return [action_targets(e, cell.space, "plain", cell.unguarded) for e in cell.elements(side)]


def all_elements_commute(cell) -> bool:
    """Every left element of a ``DualityCell`` commutes with every right
    element, pair by pair through ``targets_commute``."""
    rights = cell_targets(cell, "right")
    return all(targets_commute(g, a) for g in cell_targets(cell, "left") for a in rights)



def cell_expansions(cell, side: str) -> list:
    """The (plain support, orbit support) rows of every element of one
    side of a ``DualityCell``, in enumeration order, from one
    ``_action_rows`` call, the way the cell expanded them before it
    expanded one element per two-sided orbit."""
    return list(_action_rows(cell.elements(side), cell.space, "plain", cell.unguarded))


def certify_every_element(cell, side: str, expansions=None) -> tuple:
    """The non-zero orbit supports of one side of a ``DualityCell``, in
    enumeration order, and the number of distinct sets of them that the
    plain matrices touch, certified in one pass over every element's
    expansion (``cell_expansions``, unless ``expansions`` are given) in
    enumeration order, the way the cell certified its spans before it
    certified one element per two-sided orbit.  The pass adds each
    element's orbit to a map from coordinates to elements, so the map
    holds the orbits of the element and of those before it, and checks
    that:

    1. the map grew by the orbit's size: no two orbits overlap, and a
       later orbit cannot take a checked coordinate away;
    2. the element's plain support is a disjoint union of whole orbits in
       the map (``_whole_classes``);
    3. an element with a non-empty orbit touches its own.

    Then each plain matrix is a 0/1 sum of whole, disjoint orbit matrices
    of its own element and earlier ones, its own among them when that is
    non-zero: the non-zero orbits are a basis of the span, and two
    elements act alike exactly when they touch the same orbits.  A failed
    check raises ``RuntimeError`` naming the cell, the side and the
    element or pair of elements (``_fail_every_element``)."""
    rows = cell_expansions(cell, side) if expansions is None else expansions
    owner, orbits, sizes, touched_sets = {}, [], [], set()
    expanded = enumerate(rows)
    for a, (support, orbit) in expanded:
        orbits.append(orbit)
        sizes.append(len(orbit))
        size = len(owner) + len(orbit)
        owner.update(zip(orbit, itertools.repeat(a)))
        touched = _whole_classes(support, owner, sizes)
        if len(owner) != size or touched is None or orbit and a not in touched:
            _fail_every_element(cell, side, a, support, orbits, owner, expanded)
        touched_sets.add(touched)
    return [orbit for orbit in orbits if orbit], len(touched_sets)


def _fail_every_element(cell, side: str, a: int, support, orbits: list, owner: dict, rest):
    """Raise the ``RuntimeError`` of ``certify_every_element``'s first
    failed check at element a, whose orbit is the last of ``orbits`` and
    already in ``owner``; ``rest`` yields the (position, expansion) pairs
    after a.  A plain coordinate outside the map is named by the later
    orbit that holds it, if one does."""
    elements = cell.elements(side)
    where = f"orbit certification at {cell.space.kind}({cell.n},{cell.k}) {side}"
    missing = [x for x in support if x not in owner]
    if len(owner) != sum(map(len, orbits)):  # a coordinate lies in two orbits, or twice in one
        twice = next(x for x, c in Counter(itertools.chain.from_iterable(orbits)).items() if c > 1)
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


# the layered expansion on (input, output, used) rows


def triple_layers(element, space, variant: str = "plain") -> tuple:
    """The layers of an element's action, whether their non-zero digits
    must be distinct, and its rank (None under a free output block).  A
    layer is a position of a partial injection or a block of a diagram,
    and each of its choices is one digit v as (in_step, out_step,
    used_bit): what v adds to the input and output ordinals, and bit
    v - 1 for a non-zero v, none for 0."""
    low, n, base = space.low, space.n, space.n + 1 - space.low
    units = [base**p for p in reversed(range(space.k))]  # position 1 first
    if isinstance(element, PartialInjection):
        images = enumerate((None if low else 0, *element.targets))
        live = [(x - low, t - low, 1 << x >> 1) for x, t in images if t is not None]
        return [[(i * w, o * w, bit) for i, o, bit in live] for w in units], False, element.rank()
    if variant == "hat":
        hat = element if isinstance(element, HatElement) else HatElement.wrap(element)
        if hat.diagram is None:
            return [[]], True, 0
        diagram = hat.diagram
    else:
        diagram = element.completed() if space.kind == "V" else element
    weights = [
        (sum(w for p, w in enumerate(units) if ins >> p & 1),
         sum(w for p, w in enumerate(units) if outs >> p & 1))
        for ins, outs in diagram.code
    ]
    digits = range(1 if variant == "hat" else low, n + 1)
    layers = [
        [((v - low) * w_in, (v - low) * w_out, 1 << v >> 1) for v in digits]
        for w_in, w_out in weights
    ]
    free = any(not w_in for w_in, _ in weights)
    return layers, variant != "plain", None if free else len(layers)


def triple_rows(layers, distinct: bool) -> list:
    """Every way to take one choice per layer, as rows (input, output,
    used) of the sums of the chosen steps and the union of the chosen
    bits, skipping under ``distinct`` a bit already used."""
    rows = [(0, 0, 0)]
    for layer in layers:
        rows = [
            (src + i, dst + o, used | bit)
            for src, dst, used in rows
            for i, o, bit in layer
            if not (distinct and used & bit)
        ]
    return rows


def triple_supports(element, space, variant: str = "plain") -> tuple:
    """The plain and the orbit support of ``action_supports``, as sets of
    coordinates row*d + col: every row, and the rows whose used bits
    number the rank."""
    layers, distinct, rank = triple_layers(element, space, variant)
    d = space.dimension
    rows = triple_rows(layers, distinct)
    return (
        {dst * d + src for src, dst, _ in rows},
        {dst * d + src for src, dst, used in rows if used.bit_count() == rank},
    )


def orbit_targets(element, space, unguarded: bool = False) -> tuple:
    """Target tuple of the orbit-basis element of a partial injection or
    a diagram, filled from the orbit support of ``action_supports``: the
    part of its plain action that the orbits of its proper restrictions,
    or of its proper block coarsenings, leave over.

    A partial injection pi keeps a tensor only when its set of non-zero
    digits is exactly dom pi.  A diagram acts by its hat action: a
    partial dual element on U^k, a dual element on V^k."""
    variant = "plain" if isinstance(element, PartialInjection) else "hat"
    if not isinstance(element, (PartialInjection, HatElement)):
        element = HatElement.wrap(element)
    d = space.dimension
    targets = [-1] * d
    for coordinate in action_supports(element, space, variant, unguarded)[1]:
        dst, src = divmod(coordinate, d)
        targets[src] = dst
    return tuple(targets)


def restricts(sigma, pi) -> bool:
    """sigma is pi restricted to a subset of its domain."""
    return all(s is None or s == p for s, p in zip(sigma.targets, pi.targets))


# the deformation identities on coefficient dicts


def _on_indices(terms: dict, index: dict) -> dict:
    return {index[beta.code]: c for beta, c in terms.items()}


def combination(terms: dict, targets: list) -> dict:
    """Sum of coeff times the matrix of each term's target tuple, terms
    given on element indices, as {(row, col): coeff} without zero
    entries."""
    total: dict = {}
    for b, coeff in terms.items():
        for c, t in enumerate(targets[b]):
            if t >= 0:
                total[(t, c)] = total.get((t, c), 0) + coeff
    return {entry: v for entry, v in total.items() if v}


def hat_consistency_by_dicts(elements, plain, hat) -> bool:
    """The three old checks tying the plain and hat target tuples of the
    listed elements: (a) a tensor the plain action kills is killed by
    the hat action of everything above the element; (b) a tensor it
    keeps is kept by the hat action of exactly one diagram above; (c)
    the hat matrix of the element equals the plain matrix of its
    inverse coarsening sum."""
    index = {alpha.code: i for i, alpha in enumerate(elements)}
    for a, alpha in enumerate(elements):
        uppers = [hat[b] for b in _on_indices(coarsening_sum(alpha), index)]
        for c, t in enumerate(plain[a]):
            live = sum(1 for targets in uppers if targets[c] >= 0)
            if live != (t >= 0):
                return False
        inverse = _on_indices(coarsening_sum_inverse(alpha), index)
        if combination(inverse, plain) != combination({a: 1}, hat):
            return False
    return True


def tilde_factorization_by_dicts(elements, hat, tilde) -> bool:
    """The tilde matrix of every listed element equals the hat matrix of
    its block subset sum, extended linearly."""
    index = {alpha.code: i for i, alpha in enumerate(elements)}
    return all(
        combination(_on_indices(block_subset_sum(alpha), index), hat)
        == combination({a: 1}, tilde)
        for a, alpha in enumerate(elements)
    )


def support_sums_by_element(images, supports, hats) -> bool:
    """One support-sum identity on every element: its action support (the
    coordinates of its 1s) sorted equals the sorted concatenation of the
    hat supports of its image's terms (tuples of term indices), the way
    ``DeformationCell`` checked it before it compared at the two-sided
    S_k x S_k orbit representatives only."""
    return all(
        sorted(support) == sorted(x for b in image for x in hats[b])
        for support, image in zip(supports, images)
    )


def homomorphism_by_dicts(elements, walk, multiply, star, pairs) -> bool:
    """phi(ab) = phi(a) * phi(b) on every listed pair of element indices,
    for the map phi whose ``walk`` lists each term code of an image once
    per unit of its coefficient, so a repeated term counts as often as it
    is listed: the right side summed over every pair of image terms as an
    ``{index: coeff}`` dict, the domain product ``multiply`` and the star
    product ``star`` (None for the zero) applied to codes directly."""
    index = {alpha.code: i for i, alpha in enumerate(elements)}
    codes = list(index)
    image = functools.cache(lambda a: Counter(index[code] for code, _ in walk(elements[a])))
    for a, b in pairs:
        rhs: dict = {}
        for p, cp in image(a).items():
            for q, cq in image(b).items():
                pq = star(codes[p], codes[q])
                if pq is not None:
                    rhs[index[pq]] = rhs.get(index[pq], 0) + cp * cq
        if image(index[multiply(codes[a], codes[b])]) != {r: c for r, c in rhs.items() if c}:
            return False
    return True


def walked_images(elements, walk) -> list:
    """Each listed element's image under the map whose ``walk`` lists its
    terms' codes with their closed-form inverse values, walked on every
    element: a Counter of (term index, value) pairs, the way the package
    built the images before it walked one element per orbit."""
    index = {alpha.code: i for i, alpha in enumerate(elements)}
    return [Counter((index[code], value) for code, value in walk(alpha)) for alpha in elements]


# the S_k symmetry of diagram codes, point by point


def mask_images(g, k) -> list:
    """Each mask's image under the permutation g of the points 0..k-1, by mask."""
    return [sum(1 << g[i] for i in range(k) if m >> i & 1) for m in range(1 << k)]


def generator_moves(k) -> list:
    """The mask images of the swap and the k-cycle (none at k = 1)."""
    gens = [(1, 0, *range(2, k)), (*range(1, k), 0)] if k > 1 else []
    return [mask_images(g, k) for g in gens]


def tensor_moves(moved, n, k) -> list:
    """The permutation of the ordinals of U(n, k) that a permutation g of
    the positions, given by its mask images ``moved``, makes: the tensor
    whose digit at position g(i) is the digit at i of the tensor listed."""
    base, to = n + 1, [moved[1 << i].bit_length() - 1 for i in range(k)]
    weights = [base ** (k - 1 - p) for p in range(k)]
    return [
        sum(digit * weights[to[p]] for p, digit in enumerate(digits))
        for digits in itertools.product(range(base), repeat=k)
    ]


def symmetric_generators(size) -> list:
    """The swap and the size-cycle of 0..size-1, without duplicates (the
    cycle is the swap at size 2; none at size 1)."""
    return list(dict.fromkeys([(1, 0, *range(2, size)), (*range(1, size), 0)] if size > 1 else []))


def relabelled(space, positions=None, digits=None) -> list:
    """The permutation of the ordinals of ``space`` that moves the digit at
    position p to position positions[p] and relabels each non-zero digit v
    as digits[v - 1] + 1 (0-based permutations, None for the identity),
    tensor by tensor through ``index_at`` and ``space.ordinal``."""
    moved = []
    for c in range(space.dimension):
        tensor = [0] * space.k
        for p, v in enumerate(index_at(space, c)):
            tensor[positions[p] if positions else p] = digits[v - 1] + 1 if v and digits else v
        moved.append(space.ordinal(tuple(tensor)))
    return moved


def permuted(code, moved, side) -> tuple:
    """The code with its in-masks (side 0, the top points) or out-masks
    (side 1, the bottom points) sent through ``moved``, re-sorted."""
    return tuple(sorted((moved[i], o) if side == 0 else (i, moved[o]) for i, o in code))


# the coarsening sum inverted by a triangular solve


def coarsening_sum_inverse_by_solve(alpha) -> dict:
    """Inverse coarsening sum of alpha by the generic triangular recursion
    inv(g) = g - sum of inv(b) over the b strictly above g, over the
    up-set of alpha, instead of the closed form; the two must agree on
    every element.  Everything strictly above a diagram has fewer blocks,
    so in ``sort_key`` order each inverse a diagram needs is solved before
    the diagram is reached."""
    diagrams = natural_upper_set(alpha)
    index = {beta.code: i for i, beta in enumerate(diagrams)}
    solved: list = [None] * len(diagrams)
    for g in sorted(range(len(diagrams)), key=lambda i: diagrams[i].sort_key()):
        above = {b: -1 for b in _on_indices(coarsening_sum(diagrams[g]), index) if b != g}
        total = extend_linearly(solved.__getitem__, above)
        total[g] = total.get(g, 0) + 1
        solved[g] = {d: c for d, c in total.items() if c}
    return {diagrams[d]: c for d, c in solved[index[alpha.code]].items()}


def sorted_is(n: int) -> list:
    """Every partial injection on {1..n}, by domain, image and
    permutation, then sorted."""
    points = range(1, n + 1)
    out = []
    for r in range(n + 1):
        for dom in itertools.combinations(points, r):
            for img in itertools.combinations(points, r):
                for perm in itertools.permutations(img):
                    targets = [None] * n
                    for d, t in zip(dom, perm):
                        targets[d - 1] = t
                    out.append(PartialInjection(targets, n))
    return sorted(out, key=PartialInjection.sort_key)


def _mask_partitions(mask: int) -> list:
    """All set partitions of the bits of mask, each a list of block masks."""
    bits = [1 << i for i in range(mask.bit_length()) if mask >> i & 1]
    return [list(map(sum, blocks)) for blocks in _set_partitions(tuple(bits))]


def _matched_partitions(in_mask: int, out_mask: int, k: int) -> list:
    """The diagrams on exactly these row masks whose every block meets
    both rows: a partition of each mask and a bijection between their
    blocks."""
    by_count = {}
    for q in _mask_partitions(out_mask):
        by_count.setdefault(len(q), []).append(q)
    return [
        SetPartition(k, zip(p, perm))
        for p in _mask_partitions(in_mask)
        for q in by_count.get(len(p), ())
        for perm in itertools.permutations(q)
    ]


def sorted_istar(k: int) -> list:
    """Every dual element on rows of size k, sorted."""
    full = (1 << k) - 1
    return sorted(_matched_partitions(full, full, k), key=SetPartition.sort_key)


def sorted_pistar(k: int) -> list:
    """Every partial dual element on rows of size k, sorted."""
    rows = range(1 << k)
    out = [p for ins in rows for outs in rows for p in _matched_partitions(ins, outs, k)]
    return sorted(out, key=SetPartition.sort_key)
