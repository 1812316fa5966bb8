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
blocks, read off the one walk of the up-set that also lists it.  A
generic triangular solve is kept alongside as an independent route to
the same coefficients.

Both maps walk the blocks of a diagram's code (``SetPartition.code``):
the up-set ORs the masks of each merged group, the subset sum keeps
sub-tuples of the code, and the Moebius and sign values come from the
same walks.  Every combination of diagrams is a plain
``{SetPartition: int}`` dict with no zero values; ``{}`` is the zero.
All coefficients here, the Moebius ones included, are integers.
"""

import itertools
import math
import random
from dataclasses import asdict, dataclass

from .diagrams import (
    SetPartition,
    _set_partitions,
    block_union_leq,
    enumerate_pistar,
    is_partial_dual_element,
)
from .semigroups import bullet_codes, pistar_codes, star_codes
from .tensor_actions import ActionSpace, action_targets


def _upper_set_with_mobius(alpha: SetPartition):
    """Walk the up-set of alpha in the natural order, yielding each beta
    with the Moebius value mu(alpha, beta): for every sub-collection of
    alpha's blocks and every grouping of it into merged blocks, the
    diagram whose blocks OR the masks of each group, with the product of
    (-1)^(m-1)(m-1)! over groups of m blocks times (-1)^D D! for the D
    dropped blocks."""
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
                yield SetPartition(alpha.k, code), value


def natural_upper_set(alpha: SetPartition) -> list:
    """Every diagram whose blocks are unions of alpha's blocks, i.e. the
    up-set of alpha in the natural order: merge any groups of blocks,
    drop any others.  Includes alpha itself and the empty diagram."""
    return [beta for beta, _ in _upper_set_with_mobius(alpha)]


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
    return dict(_upper_set_with_mobius(alpha))


def _inverses_by_solve(diagrams, uppers) -> list:
    """Inverse coarsening sum of every diagram in an up-closed list, on
    indices into the list, by the triangular recursion inv(g) = g - sum
    of inv(b) over the b strictly above g.  ``uppers[g]`` holds the
    indices of the up-set of diagram g (the keys of its coarsening sum
    on indices).  Everything strictly above a diagram has fewer blocks,
    so in ``sort_key`` order each inverse a diagram needs is solved
    before the diagram is reached."""
    solved: list = [None] * len(diagrams)
    for g in sorted(range(len(diagrams)), key=lambda i: diagrams[i].sort_key()):
        total = {g: 1}
        for b in uppers[g]:
            if b != g:
                for d, c in solved[b].items():
                    total[d] = total.get(d, 0) - c
        solved[g] = {d: c for d, c in total.items() if c}
    return solved


def coarsening_sum_inverse_by_solve(alpha: SetPartition) -> dict:
    """Inverse computed by the generic triangular recursion instead of
    the closed form; the two must agree on every element."""
    diagrams = natural_upper_set(alpha)
    index, images = _indexed(diagrams, coarsening_sum)
    solved = _inverses_by_solve(diagrams, images)
    return {diagrams[d]: c for d, c in solved[index[alpha.code]].items()}


def _subsets_with_sign(alpha: SetPartition):
    """Walk the sub-collections of alpha's blocks, yielding each as a
    diagram with (-1) to the number of blocks it leaves out (the Moebius
    function of the Boolean lattice)."""
    atoms = alpha.code
    for r in range(len(atoms) + 1):
        sign = (-1) ** (len(atoms) - r)
        for subset in itertools.combinations(atoms, r):
            yield SetPartition(alpha.k, subset), sign


def block_subset_sum(alpha: SetPartition) -> dict:
    """The unitriangular map carrying the tilde product to star: sum
    over all sub-collections of alpha's blocks."""
    return {beta: 1 for beta, _ in _subsets_with_sign(alpha)}


def block_subset_sum_inverse(alpha: SetPartition) -> dict:
    """Inverse of the block subset sum: alternating signs by dropped
    block count."""
    return dict(_subsets_with_sign(alpha))


def extend_linearly(func, x: dict) -> dict:
    """Apply an element-to-combination map to every term of x."""
    total: dict = {}
    for element, coeff in x.items():
        for term, c in func(element).items():
            total[term] = total.get(term, 0) + coeff * c
    return {term: c for term, c in total.items() if c}


def _indexed(elements, forward) -> tuple:
    """The index of each element by its code, and each element's
    forward image on indices, ``{index: coeff}``."""
    index = {alpha.code: i for i, alpha in enumerate(elements)}
    return index, [_on_indices(forward(alpha), index) for alpha in elements]


def _on_indices(terms: dict, index: dict) -> dict:
    return {index[beta.code]: c for beta, c in terms.items()}


def _undoes(inverse: dict, a: int, images: list) -> bool:
    """The forward map sends the inverse of element a, given on indices,
    back to element a: the stored forward images of the inverse's terms
    sum to ``{a: 1}``."""
    total: dict = {}
    for b, c in inverse.items():
        for r, cr in images[b].items():
            total[r] = total.get(r, 0) + c * cr
    return {r: c for r, c in total.items() if c} == {a: 1}


@dataclass(frozen=True)
class MorphismReport:
    k: int
    map_name: str
    pairs_checked: int
    homomorphism_ok: bool
    inverse_ok: bool

    def to_json_dict(self):
        return asdict(self)


def morphism_report(
    map_name: str, k: int, sample_pairs: int | None = None, seed: int = 2024
) -> MorphismReport:
    """Check one change-of-basis map end to end.

    ``map_name`` is ``coarsening_sum`` (plain product to star) or
    ``block_subset_sum`` (tilde product to star).  All element pairs are
    checked when ``sample_pairs`` is None; otherwise that many pairs are
    drawn with a fixed seed.  ``inverse_ok`` also requires the two
    inverse routes of the coarsening sum to agree; the solved route runs
    once, as one sweep over all elements that reads each up-set from the
    stored coarsening sums.  The round trip of each inverse through the
    map sums the stored images of its terms.

    The homomorphism check runs on element indices: each element's
    code is looked up once, each image is a ``{index: coeff}``
    dict, and products go through the code-level products.  A star
    product of two image terms is non-zero only when the first term's
    out-masks equal the second term's in-masks, so the image terms of
    each element are grouped by in-masks and only matching pairs are
    multiplied."""
    elements = enumerate_pistar(k)
    if map_name == "coarsening_sum":
        forward, inverse = coarsening_sum, coarsening_sum_inverse
        multiply = pistar_codes
    elif map_name == "block_subset_sum":
        forward, inverse = block_subset_sum, block_subset_sum_inverse
        multiply = bullet_codes
    else:
        raise ValueError(f"unknown map {map_name!r}")

    if not all(is_partial_dual_element(alpha) for alpha in elements):
        raise RuntimeError("enumerate_pistar returned a non-partial-dual element")
    index, images = _indexed(elements, forward)
    codes = list(index)
    ins = [tuple(sorted(i for i, _ in code)) for code in codes]
    outs = [tuple(sorted(o for _, o in code)) for code in codes]
    by_in = []
    for image in images:
        groups: dict = {}
        for q, cq in image.items():
            groups.setdefault(ins[q], []).append((q, cq))
        by_in.append(groups)
    star_memo: dict = {}  # one memo per report

    def star_index(p: int, q: int) -> int:
        hit = star_memo.get((p, q))
        if hit is None:
            hit = star_memo[(p, q)] = index[star_codes(codes[p], codes[q])]
        return hit

    n = len(elements)
    if sample_pairs is None:
        pairs = [(a, b) for a in range(n) for b in range(n)]
    else:
        rng = random.Random(seed)
        pairs = [
            (rng.choice(range(n)), rng.choice(range(n))) for _ in range(sample_pairs)
        ]

    hom_ok = True
    for a, b in pairs:
        lhs = images[index[multiply(codes[a], codes[b])]]
        rhs: dict = {}
        groups = by_in[b]
        for p, cp in images[a].items():
            for q, cq in groups.get(outs[p], ()):
                r = star_index(p, q)
                rhs[r] = rhs.get(r, 0) + cp * cq
        if lhs != {r: c for r, c in rhs.items() if c}:
            hom_ok = False
            break

    # only the coarsening sum has a second, solved inverse route
    solved = _inverses_by_solve(elements, images) if map_name == "coarsening_sum" else None
    inverse_ok = True
    for a, alpha in enumerate(elements):
        inv = _on_indices(inverse(alpha), index)
        if solved is not None and inv != solved[a]:
            inverse_ok = False
            break
        if not _undoes(inv, a, images):
            inverse_ok = False
            break

    return MorphismReport(
        k=k,
        map_name=map_name,
        pairs_checked=len(pairs),
        homomorphism_ok=hom_ok,
        inverse_ok=inverse_ok,
    )


def _combination(terms: dict, targets: list) -> dict:
    """Sum of coeff times the matrix of each term's target tuple, terms
    given on element indices, as {(row, col): coeff} without zero
    entries."""
    total: dict = {}
    for b, coeff in terms.items():
        for c, t in enumerate(targets[b]):
            if t >= 0:
                total[(t, c)] = total.get((t, c), 0) + coeff
    return {entry: v for entry, v in total.items() if v}


def verify_hat_consistency(n: int, k: int) -> MorphismReport:
    """Tie the plain and deformed U-actions together, three ways.

    For every partial dual element alpha and every input index: (a) if
    the plain action kills the vector, so does the deformed action of
    everything above alpha; (b) if the plain action keeps it, exactly
    one diagram above alpha keeps it under the deformed action.  And
    (c) the deformed matrix of alpha equals the plain matrix of the
    inverse coarsening sum of alpha, extended linearly.  All three read
    the action target tuples, built once per element (-1 = killed).
    The inverse is computed once per element and serves both (c) and
    the round trip, which sums the stored coarsening sums of its terms,
    as in ``morphism_report``."""
    space = ActionSpace("U", n, k)
    elements = enumerate_pistar(k)
    index, images = _indexed(elements, coarsening_sum)
    plain = [action_targets(alpha, space, "plain") for alpha in elements]
    hat = [action_targets(alpha, space, "hat") for alpha in elements]
    zero_ok = True
    unique_ok = True
    matrix_ok = True
    inverse_ok = True
    for a, alpha in enumerate(elements):
        # the coarsening sum of alpha is its up-set, with coefficients 1
        uppers = [hat[b] for b in images[a]]
        for c, t in enumerate(plain[a]):
            live = sum(1 for targets in uppers if targets[c] >= 0)
            if t < 0:
                zero_ok = zero_ok and not live
            else:
                unique_ok = unique_ok and live == 1
        inv = _on_indices(coarsening_sum_inverse(alpha), index)
        if _combination(inv, plain) != _combination({a: 1}, hat):
            matrix_ok = False
        inverse_ok = inverse_ok and _undoes(inv, a, images)
    return MorphismReport(
        k=k,
        map_name="hat_consistency",
        pairs_checked=len(elements) * space.dimension,
        homomorphism_ok=zero_ok and unique_ok and matrix_ok,
        inverse_ok=inverse_ok,
    )


def verify_tilde_factorization(n: int, k: int) -> MorphismReport:
    """The tilde action of a diagram equals the deformed action of its
    block subset sum, as an exact matrix identity on U^k.  The inverse
    round trip sums the stored block subset sums, as in
    ``morphism_report``."""
    space = ActionSpace("U", n, k)
    elements = enumerate_pistar(k)
    index, images = _indexed(elements, block_subset_sum)
    hat = [action_targets(alpha, space, "hat") for alpha in elements]
    tilde = [action_targets(alpha, space, "tilde") for alpha in elements]
    ok = all(
        _combination(images[a], hat) == _combination({a: 1}, tilde)
        for a in range(len(elements))
    )
    inverse_ok = all(
        _undoes(_on_indices(block_subset_sum_inverse(alpha), index), a, images)
        for a, alpha in enumerate(elements)
    )
    return MorphismReport(
        k=k,
        map_name="tilde_factorization",
        pairs_checked=len(elements),
        homomorphism_ok=ok,
        inverse_ok=inverse_ok,
    )
