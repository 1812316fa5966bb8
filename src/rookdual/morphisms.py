"""Change-of-basis maps between the plain and deformed diagram algebras.

Two triangular linear maps on the span of partial dual elements carry
the plain product and the tilde product onto the star product of the
zero-adjoined deformation:

* the coarsening sum sends a diagram to the sum of everything above it
  in the natural order (all diagrams obtained by merging blocks and
  dropping blocks);
* the block subset sum sends a diagram to the sum over sub-collections
  of its blocks.

Both are unitriangular, hence invertible over the integers.  The
inverse of the coarsening sum has a closed form: the Moebius function
of the merge-and-drop order, a product of partition-lattice factors
(-1)^(m-1) (m-1)! over merged groups times (-1)^D D! for D dropped
blocks, read off the one walk of the up-set that also lists it.

Both maps walk the blocks of a diagram's code (``SetPartition.code``)
and yield codes: the up-set ORs the masks of each merged group, the
subset sum keeps sub-tuples of the code, and the Moebius and sign values
come from the same walks.  Every combination of diagrams is a plain
``{SetPartition: int}`` dict with no zero values; ``{}`` is the zero.
The public functions wrap the walks' codes as diagrams, and
``DeformationCell`` looks them up in its code index.
All coefficients here, the Moebius ones included, are integers.

Every check of the maps is made by one ``DeformationCell`` per k, which
reads P*_k, its code index and its S_k x S_k symmetry from
``semigroups`` and builds each map's images and inverse verdict from one
walk per two-sided orbit, moved to the rest of the orbit, and each U^k
action support from one expansion, at most once for all of its reports.
The walks never read a point's label, so the moved images are the walked
ones, and every verdict covers the maps as ``coarsening_sum`` and
``block_subset_sum`` define them.  Its homomorphism check encodes each
combination as one exact integer and compares pairs row by row with sums
of a table of star products (or sampled pairs one by one).  Every
product it reads, domain and star alike, is relabelled from a generic
product of the two middle rows made once per pair of rows, which the
naturality test pins to the direct products: the products of a left
element with every right element of one in-key are relabelled at once,
and each product the check compares is then one lookup in the code
index.

The exhaustive check compares one row per two-sided orbit s a t^-1 of
left factors (s in S_k permuting their top points, t their bottom
points) against one column per orbit b r of right factors (r permuting
their bottom points), and its verdict covers every pair.  Every product
ORs the left factor's in-masks and the right factor's out-masks and reads
the middle row only up to relabelling, so (s a)(b r) = s (ab) r and
(a t^-1)(t b) = ab; and before any verdict reads them, each map's images
are certified equivariant on every element, phi(s a) = s phi(a) and
phi(a r) = phi(a) r as multisets of terms, for s and r the swap and the
k-cycle, hence for all of S_k.  So (s a t^-1, t b r) is the image under
s and r of the checked pair (a, b), on the domain and the star side
alike, and a wrong image anywhere fails the certificate or a checked
pair.  The star table has rows only for the terms the checked rows read,
and an image is encoded only when a checked product first reads it.

On U^k each map is also an identity of 0/1 matrices: an element's plain
(tilde) action is the sum of the hat actions of its coarsening sum (block
subset sum), checked as an equality of sorted supports at the two-sided
representatives only; the expansions read points only through position
weights, so the supports move with the images along each orbit.  The
hat actions are the orbit rows of the plain expansion, so only the
representatives and their images' terms are expanded (27 and 16 of 128
at k = 3, under plain and tilde).
"""

import functools
import itertools
import math
import random
from typing import NamedTuple

from .diagrams import (
    SetPartition,
    _set_partitions,
    block_union_leq,
    is_partial_dual_element,
)
from .semigroups import (
    _family_index,
    _family_orbits,
    _Parts,
    bullet_codes,
    family,
    pistar_codes,
    star_codes,
)
from .tensor_actions import ActionSpace, _action_rows


def _upper_set_with_mobius(alpha: SetPartition):
    """Walk the up-set of alpha in the natural order, yielding the code of
    each beta with the Moebius value mu(alpha, beta): for every
    sub-collection of alpha's blocks and every grouping of it into merged
    blocks, the sorted code whose blocks OR the masks of each group, with
    the product of (-1)^(m-1)(m-1)! over groups of m blocks times
    (-1)^D D! for the D dropped blocks."""
    atoms = alpha.code
    for r in range(len(atoms) + 1):
        dropped = len(atoms) - r
        drop_value = (-1) ** dropped * math.factorial(dropped)
        for subset in itertools.combinations(atoms, r):
            for grouping in _set_partitions(subset):
                code = []
                value = drop_value
                for group in grouping:
                    ins = outs = 0
                    for a_in, a_out in group:
                        ins, outs = ins | a_in, outs | a_out
                    code.append((ins, outs))
                    m = len(group)
                    value *= (-1) ** (m - 1) * math.factorial(m - 1)
                yield tuple(sorted(code)), value


def natural_upper_set(alpha: SetPartition) -> list:
    """Every diagram whose blocks are unions of alpha's blocks, i.e. the
    up-set of alpha in the natural order: merge any groups of blocks,
    drop any others.  Includes alpha itself and the empty diagram."""
    return [SetPartition(alpha.k, code) for code, _ in _upper_set_with_mobius(alpha)]


def mobius_merge_drop(alpha: SetPartition, beta: SetPartition) -> int:
    """Moebius function of the natural order between alpha and a diagram
    above it: product over beta's blocks of (-1)^(m-1)(m-1)! where m
    counts the alpha-blocks merged into that block, times (-1)^D D! for
    the D alpha-blocks beta drops."""
    if not block_union_leq(alpha, beta):
        raise ValueError("beta is not above alpha in the natural order")
    used = 0
    value = 1
    for b_in, b_out in beta.code:
        m = sum(1 for a_in, a_out in alpha.code if a_in & b_in or a_out & b_out)
        used += m
        value *= (-1) ** (m - 1) * math.factorial(m - 1)
    dropped = len(alpha.code) - used
    return value * (-1) ** dropped * math.factorial(dropped)


def coarsening_sum(alpha: SetPartition) -> dict:
    """The unitriangular map carrying the plain product to star."""
    return {beta: 1 for beta in natural_upper_set(alpha)}


def coarsening_sum_inverse(alpha: SetPartition) -> dict:
    """Closed-form inverse via the merge-and-drop Moebius function,
    which is never zero, read off the walk of alpha's up-set."""
    return {SetPartition(alpha.k, code): value for code, value in _upper_set_with_mobius(alpha)}


def _subsets_with_sign(alpha: SetPartition):
    """Walk the sub-collections of alpha's blocks, yielding the code of
    each (a sub-tuple of alpha's sorted code, so sorted) with (-1) to the
    number of blocks it leaves out (the Moebius function of the Boolean
    lattice)."""
    atoms = alpha.code
    for r in range(len(atoms) + 1):
        sign = (-1) ** (len(atoms) - r)
        for subset in itertools.combinations(atoms, r):
            yield subset, sign


def block_subset_sum(alpha: SetPartition) -> dict:
    """The unitriangular map carrying the tilde product to star: sum
    over all sub-collections of alpha's blocks."""
    return {SetPartition(alpha.k, code): 1 for code, _ in _subsets_with_sign(alpha)}


def block_subset_sum_inverse(alpha: SetPartition) -> dict:
    """Inverse of the block subset sum: alternating signs by dropped
    block count."""
    return {SetPartition(alpha.k, code): sign for code, sign in _subsets_with_sign(alpha)}


def extend_linearly(func, x: dict) -> dict:
    """Apply an element-to-combination map to every term of x."""
    total: dict = {}
    for element, coeff in x.items():
        for term, c in func(element).items():
            total[term] = total.get(term, 0) + coeff * c
    return {term: c for term, c in total.items() if c}


class MorphismReport(NamedTuple):
    k: int
    map_name: str
    pairs_checked: int
    homomorphism_ok: bool
    inverse_ok: bool

    def to_json_dict(self):
        return self._asdict()


def _map_functions(map_name: str) -> tuple:
    """The walk of the map (its image's term codes, each with its coefficient
    in the closed-form inverse) and the code-level product it carries to
    star, looked up on every call."""
    if map_name == "coarsening_sum":
        return _upper_set_with_mobius, pistar_codes
    if map_name == "block_subset_sum":
        return _subsets_with_sign, bullet_codes
    raise ValueError(f"unknown map {map_name!r}")


def _encode(image: tuple, width: int) -> int:
    """The sum of 1 << (index * width) over the terms of ``image``."""
    return sum(1 << r * width for r in image)


class DeformationCell(_Parts):
    """The partial dual elements at one k, shared by every deformation check
    there; the twin of ``dualities.DualityCell``.  P*_k, its
    ``{code: index}`` and its symmetry are read from ``semigroups.family``,
    ``_family_index`` and ``_family_orbits``, which every cell shares.
    Each map's ``_map`` part, and at each n the sorted plain and tilde U^k
    action supports and the hat supports of the elements the support sums
    read, are built on first use and kept for the cell's lifetime.
    ``unguarded`` lifts the size guards, as on ``DualityCell``."""

    def __init__(self, k: int, unguarded: bool = False):
        self.k = k
        self.unguarded = unguarded
        self.elements = family("pistar", k, unguarded)
        if not all(map(is_partial_dual_element, self.elements)):
            raise RuntimeError("enumerate_pistar returned a non-partial-dual element")
        self.index = _family_index("pistar", k)
        super().__init__()

    def _map(self, map_name: str) -> tuple:
        """Each element's forward image (its terms' element indices), its
        terms' closed-form inverse values, the equivariance certificate and
        the inverse verdict.  Only the first element of each two-sided
        S_k x S_k orbit (``_family_orbits``) is walked.  Each other x = g y
        of the orbit tree takes y's terms moved by the index permutation g,
        with their values: the walks only OR masks and never read a point's
        label, so that is x's walk (pinned by
        ``test_transported_images_equal_the_walked_ones``).  The
        certificate, g phi(a) = phi(g a) as multisets for the swap and the
        k-cycle g of either side, is checked on every edge the tree did not
        make, and every verdict is False without it.  The round trip
        (D C = I, C square) runs at the walked elements: D(g r) = g D(r) by
        construction and C is equivariant, so (D C)(g r) = g r."""
        walk = _map_functions(map_name)[0]

        def build():
            top, bottom, rows, _, tree = _family_orbits("pistar", self.k)
            perms = top + bottom
            images, values = [None] * len(self.elements), [None] * len(self.elements)
            for a in rows:
                codes, values[a] = zip(*walk(self.elements[a]))
                images[a] = tuple(map(self.index.__getitem__, codes))
            for x, g, y in tree:  # x = g y takes y's terms moved by g, with their values
                images[x], values[x] = tuple(map(perms[g].__getitem__, images[y])), values[y]
            made = {(g, y): x for x, g, y in tree}
            ordered = [sorted(image) for image in images]
            equivariant = all(  # g phi(a) = phi(g a) on every edge the tree did not make
                sorted(map(perm.__getitem__, image)) == ordered[perm[a]]
                for g, perm in enumerate(perms)
                for a, image in enumerate(images)
                if made.get((g, a)) != perm[a]
            )

            def trip(a):  # D C applied to element a, without zero values
                total: dict = {}
                for b, value in zip(images[a], values[a]):
                    for q in images[b]:
                        total[q] = total.get(q, 0) + value
                return {q: c for q, c in total.items() if c}

            return images, values, equivariant, equivariant and all(trip(a) == {a: 1} for a in rows)

        return self._part(map_name, build)

    def _supports(self, n: int, variant: str, wanted) -> dict:
        """The ``(n, variant)`` part, ``{index: (support, orbit rows)}`` on
        U(n, k) under plain or tilde: an element's sorted coordinates
        row*d + col of its 1s, and its orbit rows, under plain its hat
        support.  The wanted elements not in it yet are expanded in one
        batch, so each is expanded at most once per (n, variant)."""
        known = self._part((n, variant), dict)
        missing = sorted(set(wanted).difference(known))
        space = ActionSpace("U", n, self.k)
        expanded = _action_rows([self.elements[a] for a in missing], space, variant, self.unguarded)
        for a, (rows, orbit) in zip(missing, expanded):
            known[a] = sorted(rows), orbit
        return known

    def _support_sum(self, name: str, n: int, variant: str, map_name: str, pairs: int):
        """The report ``name``: whether every element's action under the
        variant is the sum of the hat actions of its image's terms, and the
        map's inverse verdict.  Every term is a 0/1 matrix, so the sum is
        exact iff the element's sorted support equals the sorted
        concatenation of the terms' hat supports: an overlap or a repeated
        term repeats a coordinate and a gap drops one.

        It is compared at the two-sided representatives y only
        (``_family_orbits``), which expand under the variant, with the hat
        supports of their images' terms, which expand under plain.
        That covers every element g y, g in S_k x S_k: the images are
        certified equivariant, phi(g y) = g phi(y) (``_map``; False without
        the certificate); ``_acted`` and ``_expand`` read a block's points
        only through per-position weights, so permuting the top (bottom)
        points permutes the input (output) positions of every plain, tilde
        and hat row, supp(g x) = g supp(x) (pinned by
        ``test_expansions_are_natural``); and g, a bijection on
        coordinates, keeps two sorted lists equal."""
        images, _, equivariant, inverse_ok = self._map(map_name)
        rows = _family_orbits("pistar", self.k)[2]
        hat = self._supports(n, "plain", {b for a in rows for b in images[a]}.union(rows))
        whole = self._supports(n, variant, rows)
        ok = equivariant and all(
            whole[a][0] == sorted(x for b in images[a] for x in hat[b][1]) for a in rows
        )
        return MorphismReport(self.k, name, pairs, ok, inverse_ok)

    def _middle(self) -> tuple:
        """The cell's ``"middle"`` part: the sorted middle rows (keys), each
        element's out-key and in-key id, and the ORs of its in-masks (out-mask
        order) and out-masks (code order) over each subset, by bitmask."""

        @functools.cache
        def ors(masks):
            table = [0]
            for mask in masks:
                table += [t | mask for t in table]
            return table

        keys: dict = {}
        out_id, in_id, in_ors, out_ors = [], [], [], []
        for code in self.index:
            by_out = sorted(code, key=lambda block: block[1])
            out_id.append(keys.setdefault(tuple(o for _, o in by_out), len(keys)))
            in_id.append(keys.setdefault(tuple(i for i, _ in code), len(keys)))
            in_ors.append(ors(tuple(i for i, _ in by_out)))
            out_ors.append(ors(tuple(o for _, o in code)))
        return list(keys), out_id, in_id, in_ors, out_ors

    def _relabeller(self, multiply):
        """``relabel(a, L)``: the product of element a with any element b of
        in-key L, as sorted pairs ``(in-mask, y)``, one per block, with y the
        bitmask of b's blocks (code order) whose out-masks the block ORs;
        None for the adjoined zero.  It relabels a recipe made once per
        (product, out-key K of a, L): the product of the generic codes
        ``((1<<i, K[i]), ...)`` and ``((L[j], 1<<j), ...)``, whose bits stand
        for a's blocks in out-mask order and b's in code order; the code
        products read only middle masks and OR the outer ones.  Each product
        block ORs a non-empty set of a's disjoint blocks, so the in-masks are
        distinct and the pairs are in the product code's own order."""
        keys, out_id, _, in_ors = self._part("middle", self._middle)[:4]
        recipes = self._part(("recipes", multiply), dict)

        def relabel(a, L):
            key = out_id[a], L
            if key not in recipes:
                recipes[key] = multiply(
                    tuple((1 << i, o) for i, o in enumerate(keys[key[0]])),
                    tuple((i, 1 << j) for j, i in enumerate(keys[L])),
                )
            recipe, ins = recipes[key], in_ors[a]
            if recipe is None:
                return None
            return tuple(sorted([(ins[x], y) for x, y in recipe]))

        return relabel

    def homomorphism(
        self, map_name: str, sample_pairs: int | None = None, seed: int = 2024
    ) -> MorphismReport:
        """Check one change-of-basis map end to end.

        ``map_name`` is ``coarsening_sum`` (plain product to star) or
        ``block_subset_sum`` (tilde product to star).  All element pairs
        are checked when ``sample_pairs`` is None; otherwise that many
        pairs are drawn with a fixed seed, and a count below 1 is refused
        with ``ValueError``.  ``inverse_ok`` is the map's inverse verdict.

        An image is a tuple of term indices, each term with coefficient 1,
        so a repeated index stands for a larger coefficient.  With m the
        largest image length and W = (m*m).bit_length(), a combination is
        encoded as the integer sum of 1 << (index * W) over its terms.
        Each coefficient of phi(a) * phi(b) counts pairs of image terms,
        and each coefficient of an image counts its terms, so every one is
        at most m*m < 2**W: the base-2**W digits of every integer compared
        are its coefficients, and equal integers are equal combinations,
        for any multiset of terms.  A star product p * q of image terms is
        non-zero only when q's in-key is p's out-key, and adds the unit
        1 << (index * W).  The star recipe of that middle row is relabelled
        for p once per cell and gives p * q for every such q.

        Both modes read the images only when ``_map`` has certified them
        equivariant under the swap and the k-cycle of the top points and of
        the bottom points: phi(s a) = s phi(a) and phi(a r) = phi(a) r as
        multisets of term indices, on every element.  Exhaustive mode checks
        one row a per two-sided orbit s a t^-1 (s and t permuting the top
        and the bottom points) against one column b per orbit b r of the
        bottom points, the first of each in index order
        (``_family_orbits``).  Every pair is (s a t^-1, t b r) for a row a
        and a column b, and by the products' outer naturality (s x)(y r) = s
        (xy) r and middle naturality (x t^-1)(t y) = xy, for the domain and
        the star product alike, and the certificate, both sides of phi(xy) =
        phi(x) * phi(y) there are s times those at (a, b) times r; so the
        verdict covers all n*n pairs.  The columns are ordered by in-key:
        the encodings of phi(ab) over the checked b, each made when a row
        first reads ab, must equal the column sums of the table rows of
        phi(a)'s terms; row p holds, for each checked b, the units of p
        times phi(b)'s terms, and is built when a checked row's image first
        reads p.  ``_relabeller`` relabels a once per in-key L of the
        columns and p once, for its out-key, and each product compared, ab
        for a column b of in-key L or p * q for a distinct term q of the
        columns' images, is one lookup in ``index``.  Sampled mode relabels
        each drawn pair alone and compares the encoding of phi(ab) with the
        sum of the units of its terms' star products.  Every product, domain
        and star, is read off a generic middle-row recipe, so the verdict
        rests on ``test_products_are_natural``, and exhaustive mode also on
        ``test_products_commute_with_outer_permutations`` and
        ``test_products_commute_with_middle_permutations``."""
        if sample_pairs is not None and sample_pairs < 1:
            raise ValueError(f"sample_pairs must be at least 1, got {sample_pairs}")
        images, _, equivariant, inverse_ok = self._map(map_name)
        index, n = self.index, len(self.elements)
        keys, out_id, in_id, _, out_ors = self._part("middle", self._middle)
        relabel = self._relabeller(_map_functions(map_name)[1])
        star_relabel = self._relabeller(star_codes)  # the module's star_codes when called
        stars = self._part(("stars", star_codes), dict)  # p -> its relabelled star recipe
        width = (max(map(len, images)) ** 2).bit_length()

        def find(relabelled, b):  # the index of the relabelled product with b
            outs = out_ors[b]
            return index[tuple([(i, outs[y]) for i, y in relabelled])]

        def star(p):  # p's star products with any q of in-key p's out-key, relabelled
            if p not in stars:
                stars[p] = star_relabel(p, out_id[p])
            return stars[p]

        def terms_by_in(b):  # [L]: phi(b)'s terms of in-key L
            groups = [()] * len(keys)
            for q in images[b]:
                groups[in_id[q]] += (q,)
            return groups

        if sample_pairs is None:
            rows, cols = _family_orbits("pistar", self.k)[2:4]
            encodings: dict = {}  # x -> the encoding of phi(x), made when a product first reads it
            shared: dict = {}  # equal sums share one int, to save memory

            def encoding(x):
                if x not in encodings:
                    e = _encode(images[x], width)
                    encodings[x] = shared.setdefault(e, e)
                return encodings[x]

            cols = sorted(cols, key=in_id.__getitem__)  # by in-key; a copy of the cached part
            columns = [terms_by_in(b) for b in cols]
            users = [  # users[L]: each column with terms of in-key L, and those terms
                [(c, g[L]) for c, g in enumerate(columns) if g[L]] for L in range(len(keys))
            ]
            table = {}  # table[p][c]: the sum of the units of p times columns[c][out_id[p]]

            def table_row(p):  # built when a checked row's image first reads p
                if p not in table:
                    relabelled, L = star(p), out_id[p]
                    terms = {q for _, g in users[L] for q in g}
                    units = {q: 1 << find(relabelled, q) * width for q in terms}
                    row = table[p] = [0] * len(columns)
                    for c, g in users[L]:
                        total = sum(map(units.__getitem__, g))
                        row[c] = shared.setdefault(total, total)
                return table[p]

            def products(a):  # the encodings of phi(ab) in column order
                row = []
                for L, group in itertools.groupby(cols, in_id.__getitem__):
                    relabelled = relabel(a, L)
                    row += [encoding(find(relabelled, b)) for b in group]
                return row

            hom_ok = equivariant and all(
                products(a) == list(map(sum, zip(*map(table_row, images[a])))) for a in rows
            )
        else:
            rng = random.Random(seed)
            pairs = [(rng.choice(range(n)), rng.choice(range(n))) for _ in range(sample_pairs)]

            def star_sum(a, b):  # the sum of the units of phi(a)'s terms times phi(b)'s
                groups = terms_by_in(b)
                return sum(1 << find(star(p), q) * width for p in images[a] for q in groups[out_id[p]])

            hom_ok = equivariant and all(
                _encode(images[find(relabel(a, in_id[b]), b)], width) == star_sum(a, b)
                for a, b in pairs
            )

        return MorphismReport(
            k=self.k,
            map_name=map_name,
            pairs_checked=n * n if sample_pairs is None else sample_pairs,
            homomorphism_ok=hom_ok,
            inverse_ok=inverse_ok,
        )

    def hat_consistency(self, n: int) -> MorphismReport:
        """The plain U-action of every partial dual element alpha is the
        sum of the hat actions of the diagrams above it (its coarsening
        sum), as an exact sum of 0/1 matrices (``_support_sum``, which
        compares at the representatives and covers their orbits).
        ``inverse_ok`` is the coarsening sum's inverse verdict: D C = I
        for the closed-form inverse D, and C is square unitriangular, so
        C D = I too; with the sum above, the hat action of alpha is then
        the plain action of its inverse coarsening sum.  The hat action of
        a diagram with r blocks is zero on U(n, k) when r > n, since hat
        puts distinct non-zero digits on the blocks, so the identity reads
        only the terms with at most n blocks; at n >= k it reads every
        term, and distinct diagrams have disjoint hat supports there, so
        it pins every term and its coefficient."""
        pairs = len(self.elements) * (n + 1) ** self.k
        return self._support_sum("hat_consistency", n, "plain", "coarsening_sum", pairs)

    def tilde_factorization(self, n: int) -> MorphismReport:
        """The tilde U-action of every partial dual element is the sum of
        the hat actions of its block sub-collections (its block subset
        sum), as an exact sum of 0/1 matrices (``_support_sum``, as in
        ``hat_consistency``).  ``inverse_ok`` is the block subset sum's
        inverse verdict.  As in ``hat_consistency``, only the terms with at
        most n blocks are read."""
        pairs = len(self.elements)
        return self._support_sum("tilde_factorization", n, "tilde", "block_subset_sum", pairs)
