"""Actions on tensor powers of the defining spaces.

V has basis e_1..e_n; U adjoins e_0.  A tensor index is a plain tuple
of k digits, ordered mixed-radix with the first digit most significant,
and its position in that order (its ordinal) is the matrix coordinate.

Every action here comes from one batched expansion, ``_action_rows``: a
generator over a sequence of elements that checks each one against the
space and the variant (a diagram through ``_acted``) and yields its rows
and orbit rows, every variant picking them from one plain layered
expansion, ``_expand``.  A layer is a position of a partial injection
or a block of a diagram (of its ``SetPartition.code``; on V^k, of its
completion's), and each of its choices is one digit.  A row is one
matrix coordinate dst*d + src, linear in the digits, so a choice adds
one step o*d + i, from tables kept per space (``_tables``).  The rows
tilde keeps (no non-zero digit twice) and the orbit rows (below), which
are hat's rows, depend only on the layers' shape, so ``_kept`` lists
their positions once per shape.  The guard, the tables and each shape's
positions are looked up once per sequence; the one-element functions
below pass a sequence of one, and ``DualityCell`` and
``DeformationCell`` pass the representatives of a family's orbits and
the elements those read.  Three functions read the rows
(``divmod`` by d splits a coordinate):

* ``action_targets`` stores them as a target tuple T of length d = dim:
  input ordinal c goes to T[c], and T[c] == -1 means the tensor is
  killed (no row reaches it).  Every rook, dual, partial dual, hat
  and tilde element sends each basis tensor to one basis tensor or to
  zero, so its matrix has column c with its only 1 in row T[c].
  Products of these matrices are compositions of tuples, and
  commutation is ``targets_commute``.
* ``action_supports`` returns the rows (the support of that matrix) and
  the orbit support.
* ``action_matrix`` writes the rows as ``{(row, col): 1}``.  Only a
  composition element with a free output block (a block with output
  positions but no input position) needs it: a free block adds nothing
  to the input ordinal, so each input meets one output per digit
  of the free block and goes to their sum, which ``action_targets``
  refuses.

The commutant of a set of target tuples needs no linear algebra either:
``targets_commutant`` splits the d*d unknown entries into classes that
every commuting matrix holds constant, drops the classes forced to zero,
and returns the rest, whose indicator matrices are the commutant basis.
It solves only the entries that the sources' diagonal idempotents
leave live, and its size guard counts those; the permutation sources'
orbits, joined by the others in a union-find, label them by class
(``_commutant_labels``).  The duality checks feed it generators only.

Spans need no linear algebra because each action has an orbit basis
(the orbit supports of ``action_supports``), whose matrices have
pairwise disjoint 0/1 supports and of which every plain matrix is a
unitriangular 0/1 sum.  On the rook side it is the groupoid basis
``floor(pi) = sum over sigma <= pi of mu(sigma, pi) sigma``, with sigma
running over the restrictions of pi (L. Solomon, "Representations of
the rook monoid", J. Algebra 256, 2002; B. Steinberg, "Moebius functions
and semigroup representation theory", J. Combin. Theory Ser. A 113,
2006): floor(pi) keeps a tensor only when its set of non-zero digits is
exactly dom pi.  On the diagram side it is the hat action, which puts
distinct non-zero digits on the blocks (on V^k, those of a dual
element): the plain matrix of a diagram is the sum of the hat matrices
of the diagrams made by merging and dropping its blocks (on V^k, where
no digit is zero, by merging only).
``DualityCell.span`` checks this at one element per two-sided orbit of
each side (``DualityCell._certify``): both actions are natural, the
rook action under relabelling the digits 1..n and the diagram actions
under permuting the positions, since an expansion reads a digit only as
a choice and a point only through its position's weight, so what holds
at a representative holds along its orbit.

Diagram actions are right actions, so the matrix of a product composes
in reverse order; partial injections act on the left with the usual
order.
"""

import functools
import itertools
from array import array
from operator import itemgetter

from .diagrams import (
    HatElement,
    PartialInjection,
    SizeGuardError,
    _indices,
    is_dual_element,
    is_partial_dual_element,
)

TensorIndex = tuple[int, ...]
Targets = tuple[int, ...]

DIMENSION_LIMIT = 4096
COMMUTANT_UNKNOWN_LIMIT = 70_000


def _decimal(count: int, fallback: str) -> str:
    """count in decimal, or fallback past the digits Python converts to text."""
    try:
        return str(count)
    except ValueError:
        return fallback


class ActionSpace:
    """Tensor power of V (digits 1..n) or U (digits 0..n)."""

    __slots__ = ("kind", "n", "k", "low", "dimension")

    def __init__(self, kind: str, n: int, k: int):
        if kind not in ("V", "U"):
            raise ValueError("kind must be 'V' or 'U'")
        if n < 1 or k < 1:
            raise ValueError("n and k must be positive")
        base = n if kind == "V" else n + 1
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "low", 1 if kind == "V" else 0)
        object.__setattr__(self, "dimension", base**k)

    def __setattr__(self, name, value):
        raise AttributeError("ActionSpace is immutable")

    def guard(self, unguarded: bool = False):
        """Refuse a dimension above ``DIMENSION_LIMIT`` unless
        ``unguarded``.  A dimension with more decimal digits than Python
        prints is named as base^k."""
        if self.dimension > DIMENSION_LIMIT and not unguarded:
            shown = _decimal(self.dimension, f"{self.n + 1 - self.low}^{self.k}")
            raise SizeGuardError(
                f"action space dimension {shown} exceeds {DIMENSION_LIMIT}"
            )
        return self

    def indices(self):
        """All tensor indices in ordinal (most-significant-first) order."""
        return itertools.product(range(self.low, self.n + 1), repeat=self.k)

    def ordinal(self, index: TensorIndex) -> int:
        if len(index) != self.k:
            raise ValueError(f"index of {len(index)} digits, not k = {self.k}")
        base = self.n + 1 - self.low
        o = 0
        for digit in index:
            if not self.low <= digit <= self.n:
                raise ValueError(f"digit {digit} outside {self.low}..{self.n}")
            o = o * base + (digit - self.low)
        return o


def targets_commute(g: Targets, a: Targets) -> bool:
    """True iff the two matrices commute, i.e. g[a[c]] == a[g[c]] for
    every input c.  Appending -1 to both tuples makes index -1 read -1,
    so a killed tensor stays killed through the second map.  Tuples of
    different lengths raise ``ValueError``."""
    if len(g) != len(a):
        raise ValueError("target tuples of different lengths")
    g_ext, a_ext = g + (-1,), a + (-1,)
    return all(g_ext[x] == a_ext[y] for x, y in zip(a, g))


def _commutant_labels(sources, d: int, unguarded: bool = False) -> tuple:
    """``targets_commutant``'s solve: live coordinates (lazily), their labels, the zero label."""
    sources = list(sources)
    for g in sources:  # in range, and no two tensors sent to one
        if len(g) != d or not -1 <= min(g) <= max(g) < d or len({*g, -1}) != d + 1 - g.count(-1):
            raise ValueError("sources must be partial permutations of length d")
    diagonal = [g for g in sources if all(t in (j, -1) for j, t in enumerate(g))]
    kept = list({frozenset(j for j, t in enumerate(g) if t == j) for g in diagonal})
    perms = [g for g in sources if -1 not in g]
    for members in kept:  # grows until closed under the permutation sources
        kept.extend({frozenset(p[j] for j in members) for p in perms} - set(kept))
    covered = set().union(*kept)
    blocks = {}  # tensors by the kept sets that hold them
    for j in covered:
        blocks.setdefault(frozenset(b for b, m in enumerate(kept) if j in m), []).append(j)
    live = (d - len(covered)) ** 2 + sum(len(m) ** 2 for m in blocks.values())
    if live > COMMUTANT_UNKNOWN_LIMIT and not unguarded:
        shown = _decimal(live, f"up to d^2 (d of {d.bit_length()} bits)")
        raise SizeGuardError(
            f"commutant guard: {shown} live unknowns exceed {COMMUTANT_UNKNOWN_LIMIT}"
        )
    groups = [*blocks.values(), [j for j in range(d) if j not in covered]]
    # live (a, b) is number row[a] + pos[b]; missing tensor -1 is in block -1
    block, row, pos, start = [0] * d + [-1], [0] * d, [0] * d, 0
    for b, m in enumerate(groups):
        for p, j in enumerate(m):
            block[j], row[j], pos[j] = b, start + p * len(m), p
        start += len(m) ** 2
    zero, none = live, live + 1

    def partners(g):  # forward: x[a, b] = x[g a, g b] where g a exists
        gb, gr, out = [block[t] for t in g], [row[t] for t in g], []
        for m in groups:  # none: no equation; zero: a missing or dead partner
            cols = [(gb[b], pos[g[b]]) for b in m]
            for a, ra, ba in zip(m, map(gr.__getitem__, m), map(gb.__getitem__, m)):
                out += ([none] * len(m) if g[a] < 0
                        else [ra + q if bb == ba else zero for bb, q in cols])
        return out

    def forced(h):  # backward, h = g^-1: x[a, b] = x[h a, h b] where h b exists
        # g's forward list already joins the live partners, so keep the cells this
        # forces to zero: h a missing, or (h a, h b) dead
        hb, out = [block[t] for t in h], set()
        for m in groups:
            cols = [(pos[b], hb[b]) for b in m if h[b] >= 0]
            for a in m:
                ra, ba = row[a], hb[a]
                out.update([ra + q for q, bb in cols if bb != ba])
        return out

    # a permutation moves each block's cells onto one block; its cycles hold its backward joins
    moves = [[r + q for m in groups for qs in [[pos[g[b]] for b in m]]
              for r in [row[g[a]] for a in m] for q in qs] for g in perms if g not in diagonal]
    rep = [-1] * zero + [zero, none]
    for x in range(zero):  # one walk per orbit
        if rep[x] < 0:
            rep[x], orbit = x, [x]
            for y in orbit:
                for move in moves:
                    if rep[move[y]] < 0:
                        rep[move[y]] = x
                        orbit.append(move[y])
    parent = rep[: zero + 1]  # the union-find joins orbits

    def find(x):  # halves the path as it climbs
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for g in sources:
        if -1 in g and g not in diagonal:  # by the other sources' equations
            for r, s in set(zip(rep, map(rep.__getitem__, partners(g)))):
                if s not in (r, none):
                    parent[find(r)] = find(s)
            inverse = {t: c for c, t in enumerate(g)}
            for r in set(map(rep.__getitem__, forced([inverse.get(t, -1) for t in range(d)]))):
                parent[find(r)] = find(zero)
    for r in set(rep[: zero + 1]):
        parent[r] = find(r)
    cells = (r + j for m in groups for r in [i * d for i in m] for j in m)
    return cells, list(map(parent.__getitem__, rep[:zero])), parent[zero]


def targets_commutant(sources, d: int, unguarded: bool = False) -> list:
    """Basis of {X : XG = GX for every source G}, as classes of
    coordinates row*d + col; the basis matrix of a class has a 1 on each
    of its coordinates and 0 elsewhere.

    Entry (i, j) of XG = GX reads x[i, g[j]] = x[ginv[i], j], and a term
    whose index is missing (-1) reads 0.  So each equation either joins
    two unknowns into one class or forces one unknown, and with it its
    class, to zero.  The non-zero classes come back as ascending tuples
    sorted by their largest coordinate.  Because the sources are monoid
    images in this package, commuting with a generating set is the same
    as commuting with the whole image algebra.

    A diagonal idempotent source keeping the set K, and its conjugate by
    each permutation source P (keeping P(K); X commutes with P^-1 too),
    force x[i, j] = 0 unless each kept set holds both i and j or neither,
    which is all a diagonal source says.  The live coordinates left
    (``SizeGuardError`` above ``COMMUTANT_UNKNOWN_LIMIT``) fall into the
    permutation sources' orbits, joined by the others in a union-find."""
    cells, labels, zero = _commutant_labels(sources, d, unguarded)
    classes = {}
    for c, label in zip(cells, labels):
        classes.setdefault(label, []).append(c)
    classes.pop(zero, None)
    return sorted((tuple(sorted(m)) for m in classes.values()), key=lambda m: m[-1])


@functools.cache
def _tables(kind: str, n: int, k: int) -> tuple:
    """The weights base**(k - p) of the positions p, and a memo, shared by all callers,
    of block (ins, outs) -> steps c*(w(outs)*d + w(ins)), c < base, w summing weights."""
    return [(n + (kind == "U")) ** p for p in reversed(range(k))], {}


def _acted(element, space: ActionSpace, variant: str):
    """Check a diagram against the space and the variant; return the code
    its action expands, or None for the adjoined zero.  On V^k a diagram
    acts plainly through its completion, every block carrying any digit
    1..n, and a dual element acts by hat, distinct digits 1..n on the
    blocks.  On U^k a partial dual element acts plainly (any digit 0..n
    on each block), by hat (distinct non-zero digits) or by tilde
    (distinct non-zero digits, any number of zeros).  Under hat, on either
    space, a diagram is wrapped as a ``HatElement``, and the adjoined zero
    kills everything; a ``HatElement`` has no other action."""
    if element.k != space.k:
        raise ValueError("diagram size disagrees with the space")
    if variant == "hat":
        hat = element if isinstance(element, HatElement) else HatElement.wrap(element)
        diagram = hat.diagram
        if diagram is not None and space.kind == "V" and not is_dual_element(diagram):
            raise ValueError("the hat action on V^k needs a dual element")
        return None if diagram is None else diagram.code
    if isinstance(element, HatElement):
        raise ValueError("a HatElement has only the hat action")
    if space.kind == "V":
        if variant != "plain":
            raise ValueError("V^k carries only the plain and hat actions")
        return element.completed().code
    if variant not in ("plain", "tilde"):
        raise ValueError(f"unknown variant {variant!r}")
    if not is_partial_dual_element(element):
        raise ValueError(f"the {variant} action needs a partial dual element")
    return element.code


@functools.cache
def _kept(layers: int, choices: int, zero: bool, variant: str, rank) -> tuple:
    """Positions in a plain expansion of the rows the variant keeps (None
    under plain: all) and of the orbit rows, which have ``rank`` distinct
    non-zero digits and are hat's rows.  A position spells one choice per
    layer, the first most significant; choice 0 is U's digit 0 when
    ``zero``.  Tilde keeps the rows that repeat no non-zero digit."""
    digits = [(0, 0) if zero and not c else (1 << c, 1) for c in range(choices)]
    rows = [(0, 0)]  # per position: its non-zero digits as a mask, and their count
    for _ in range(layers):
        rows = [(seen | bit, count + one) for seen, count in rows for bit, one in digits]
    orbit = tuple(p for p, (seen, _) in enumerate(rows) if seen.bit_count() == rank)
    if variant == "tilde":
        return tuple(p for p, (seen, count) in enumerate(rows) if seen.bit_count() == count), orbit
    return (orbit if variant == "hat" else None), orbit


def _expand(layers) -> list:
    """The one action builder: every way to take one choice per layer, as
    the sum of the chosen steps.  No two rows share a column (row mod d):
    a column is a numeral in the space's base whose digit at each input
    position is the choice of the one layer owning it (layers own disjoint
    positions), so distinct choices differ in it, except at a block with
    no input position, which ``_action_rows`` refuses unless ``sums``."""
    rows = [0]
    for layer in layers:
        rows = [row + step for row in rows for step in layer]
    return rows


def _action_rows(elements, space: ActionSpace, variant: str, unguarded: bool, sums=False):
    """The one action path: for each element of the sequence in turn, the
    coordinates of the 1s of its matrix and its orbit coordinates, chosen
    by the shape's ``_kept`` positions from one plain ``_expand`` of its
    layers.  The guard, the space's tables and each shape's positions are
    looked up once per call.  A free output block is refused unless
    ``sums`` (``action_matrix``).

    A partial injection has only the plain action: its layers are the
    positions, each carrying a live digit x to its image and U's digit 0
    to itself (any other digit kills the tensor), so its rank is its
    domain's size.  A diagram's layers are the blocks of the code
    ``_acted`` checks and returns, each choice a digit (choice 0 is U's
    digit 0), and its rank is its block count, or None under a free
    output block."""
    low, n, k, d = space.low, space.n, space.k, space.dimension
    weights, known = _tables(space.kind, n, space.guard(unguarded).k)
    zero = not low
    shapes = {}
    for element in elements:
        if isinstance(element, PartialInjection):
            if variant != "plain":
                raise ValueError("partial injections have only the plain action")
            if element.n != n:
                raise ValueError("injection size disagrees with the space")
            images = enumerate((None if low else 0, *element.targets))  # U's digit 0 stays
            units = [(t - low) * d + x - low for x, t in images if t is not None]
            layers = [[w * u for u in units] for w in weights]
            shape = k, len(units), zero, "plain", len(units) - zero
        else:
            code = _acted(element, space, variant)
            if code is None:
                layers, shape = [[]], (1, 0, False, variant, 0)
            else:
                for block in code:
                    if block not in known:
                        ins, outs = (sum(weights[i - 1] for i in _indices(m)) for m in block)
                        known[block] = [c * (outs * d + ins) for c in range(n + 1 - low)]
                layers = list(map(known.__getitem__, code))
                # None: a free output block, one with no input position
                rank = len(code) if all(map(itemgetter(0), code)) else None
                shape = len(code), n + 1 - low, zero, variant, rank
        if shape[4] is None and not sums:
            raise ValueError("a free output block sends a tensor to a sum; use action_matrix")
        if shape not in shapes:
            shapes[shape] = _kept(*shape)
        kept, orbit = shapes[shape]
        rows = _expand(layers)
        pick = rows.__getitem__
        yield (rows if kept is None else list(map(pick, kept))), list(map(pick, orbit))


def _fill(d: int, coordinates) -> Targets:
    """Target tuple of length d; every input no coordinate reaches is killed."""
    targets = [-1] * d
    for c in coordinates:
        dst, src = divmod(c, d)
        targets[src] = dst
    return tuple(targets)


def _targets(elements, space: ActionSpace, variant: str, unguarded: bool) -> list:
    """The target tuple of each element, from ``_action_rows``."""
    d = space.dimension
    return [_fill(d, rows) for rows, _ in _action_rows(elements, space, variant, unguarded)]


def action_targets(
    element, space: ActionSpace, variant: str = "plain", unguarded: bool = False
) -> Targets:
    """Target tuple of a partial injection (plain action), or of a
    diagram: a composition element on V^k under plain, a dual element or
    its hat element on V^k under hat, a partial dual or hat element on
    U^k under the given variant.  A free output block is refused."""
    return _targets((element,), space, variant, unguarded)[0]


def action_supports(
    element, space: ActionSpace, variant: str = "plain", unguarded: bool = False
) -> tuple:
    """From one expansion: the support of the matrix of
    ``action_targets`` (an ``array`` of coordinates row*d + col, one per
    input the action keeps) and its orbit support, the list of those
    whose inputs carry as many distinct non-zero digits as the rank."""
    support, orbit = next(_action_rows((element,), space, variant, unguarded))
    return array("q", support), orbit  # 8 bytes a coordinate, not 32


def action_matrix(
    element, space: ActionSpace, variant: str = "plain", unguarded: bool = False
) -> dict:
    """The action matrix of an element as ``{(row, col): 1}``, columns
    the inputs.  Every entry is 1: an input goes to one output or, under
    a free output block, to the sum over that block's digits."""
    support = next(_action_rows((element,), space, variant, unguarded, sums=True))[0]
    return dict.fromkeys(map(divmod, support, itertools.repeat(space.dimension)), 1)
