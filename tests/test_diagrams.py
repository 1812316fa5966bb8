"""Element types, enumeration, and the block orders.

The enumeration tests check the fast enumerators against brute-force
oracles that generate every partition of the boundary points directly
and filter by the defining block conditions, written here from scratch
so the two computations share no code.
"""

import itertools
import math
import random
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rookdual import (
    BoundaryPoint,
    HatElement,
    PartialInjection,
    SetPartition,
    SizeGuardError,
    block_union_leq,
    canonicalize,
    count_is,
    count_istar,
    count_pistar,
    enumerate_is,
    enumerate_istar,
    enumerate_pistar,
    is_dual_element,
    is_partial_dual_element,
    natural_upper_set,
    parse_element,
    primed,
    unprimed,
)

import oracles
from oracles import (
    block_count,
    block_count_at_most,
    block_of,
    coarser_leq,
    in_part,
    out_part,
    subblocks_leq,
)
from rookdual.morphisms import _subsets_with_sign, _upper_set_with_mobius


def brute_partitions(points):
    """Every set partition of `points`, as a frozenset of frozensets."""
    points = list(points)
    if not points:
        yield frozenset()
        return
    first, rest = points[0], points[1:]
    for sub in brute_partitions(rest):
        yield sub | {frozenset([first])}
        for block in sub:
            yield (sub - {block}) | {block | {first}}


def raw_points(k):
    return [(False, i) for i in range(1, k + 1)] + [(True, i) for i in range(1, k + 1)]


def all_diagrams(k):
    """Every set partition of every subset of the 2k points: the
    partitions of all 2k points and every partial diagram."""
    points = raw_points(k)
    return [
        canonicalize(
            [[(primed if pr else unprimed)(i) for pr, i in block] for block in part], k
        )
        for r in range(len(points) + 1)
        for subset in itertools.combinations(points, r)
        for part in brute_partitions(subset)
    ]


def meets_both_rows(block):
    return any(not pr for pr, _ in block) and any(pr for pr, _ in block)


def as_raw(partition):
    """Package partition -> frozenset of frozensets of (primed, index)."""
    return frozenset(
        frozenset((p.primed, p.index) for p in block) for block in partition.blocks
    )


# boundary points and the element types


def test_boundary_point_order_and_partner():
    assert unprimed(2) < primed(1)
    assert sorted([primed(1), unprimed(3), unprimed(1)]) == [
        unprimed(1),
        unprimed(3),
        primed(1),
    ]
    assert unprimed(4).partner() == primed(4)
    assert str(primed(3)) == "3'"
    assert str(unprimed(3)) == "3"


def test_partial_injection_validation():
    with pytest.raises(ValueError):
        PartialInjection([1, 1, None])
    with pytest.raises(ValueError):
        PartialInjection([4], 1)
    with pytest.raises(ValueError):
        PartialInjection([0, None])
    with pytest.raises(ValueError):
        PartialInjection([1, 2], 3)
    with pytest.raises(ValueError):
        PartialInjection([])
    with pytest.raises(AttributeError):
        PartialInjection([1]).n = 2


def test_partial_injection_accessors():
    a = PartialInjection([2, None, 3, 5, None])
    assert a(1) == 2 and a(2) is None and a(4) == 5
    assert a.domain() == frozenset({1, 3, 4})
    assert a.image() == frozenset({2, 3, 5})
    assert a.rank() == 3
    assert str(a) == "[2,-,3,5,-]"
    assert a.inverse().targets == (None, 1, 3, None, 4)
    assert a.inverse().inverse() == a
    with pytest.raises(ValueError):
        a(0)


def test_composition_is_right_to_left():
    a = PartialInjection([2, None, 3, 5, None])
    b = PartialInjection([5, 4, 1, None, None])
    c = a * b
    for d in range(1, 6):
        t = b(d)
        assert c(d) == (None if t is None else a(t))
    assert str(c) == "[-,5,2,-,-]"


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_inverse_semigroup_axioms(data):
    """a a^-1 a = a and a^-1 a a^-1 = a^-1, plus the anti-automorphism
    law for inverses of products."""
    elements = enumerate_is(3)
    a = data.draw(st.sampled_from(elements))
    b = data.draw(st.sampled_from(elements))
    ai = a.inverse()
    assert a * ai * a == a
    assert ai * a * ai == ai
    assert (a * b).inverse() == b.inverse() * a.inverse()


def test_enumerate_is_against_brute_force():
    for n in (1, 2, 3):
        points = range(1, n + 1)
        brute = set()
        for r in range(n + 1):
            for dom in itertools.combinations(points, r):
                for img in itertools.permutations(points, r):
                    targets = [None] * n
                    for d, t in zip(dom, img):
                        targets[d - 1] = t
                    brute.add(tuple(targets))
        got = enumerate_is(n)
        assert len(got) == len(brute)
        assert {e.targets for e in got} == brute


def test_is_counts():
    assert [len(enumerate_is(n)) for n in (1, 2, 3, 4)] == [2, 7, 34, 209]
    for n in range(1, 7):
        assert count_is(n) == sum(
            math.comb(n, r) ** 2 * math.factorial(r) for r in range(n + 1)
        )
    assert count_is(3) == 34


def test_enumerate_is_sorted_and_unique():
    """Each family's walk is the sorted oracle, element by element, and
    ``sort_key`` rises along it.  P*_5 (48,032 elements) is too large for
    the oracle here, so its walk is checked to rise strictly, to hold
    partial dual elements with sorted codes only, and to be as long as
    ``count_pistar(5)``: then it is the family, sorted."""
    out = enumerate_is(3)
    assert len(set(out)) == len(out)
    assert out[0] == PartialInjection([None, None, None])
    cases = [(enumerate_is, oracles.sorted_is, n, attrgetter("targets")) for n in range(1, 7)]
    cases += [(enumerate_istar, oracles.sorted_istar, k, attrgetter("code")) for k in range(1, 6)]
    cases += [(enumerate_pistar, oracles.sorted_pistar, k, attrgetter("code")) for k in range(1, 5)]
    for walk, oracle, size, code in cases:
        got, want = walk(size, unguarded=True), oracle(size)
        assert list(map(code, got)) == list(map(code, want)), (walk.__name__, size)
        assert list(map(str, got)) == list(map(str, want)), (walk.__name__, size)
        keys = list(map(type(got[0]).sort_key, got))
        assert all(a < b for a, b in zip(keys, keys[1:])), (walk.__name__, size)
    got = enumerate_pistar(5, unguarded=True)
    keys = list(map(SetPartition.sort_key, got))
    assert all(a < b for a, b in zip(keys, keys[1:])) and len(got) == count_pistar(5)
    assert all(is_partial_dual_element(e) and list(e.code) == sorted(e.code) for e in got)


def test_canonicalize_examples():
    p = canonicalize([[primed(2), unprimed(1)], [unprimed(2), primed(1)]], 2)
    assert str(p) == "{1,2'}|{2,1'}"
    q = canonicalize([(unprimed(2), primed(1)), (primed(2), unprimed(1))], 2)
    assert p == q
    with pytest.raises(ValueError):
        canonicalize([[unprimed(3)]], 2)
    with pytest.raises(ValueError):
        canonicalize([[unprimed(1)], [unprimed(1)]], 2)
    with pytest.raises(ValueError):
        canonicalize([[]], 2)
    with pytest.raises(ValueError):
        canonicalize([], 0)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_canonicalize_ignores_presentation(data):
    alpha = data.draw(st.sampled_from(enumerate_pistar(3)))
    seed = data.draw(st.integers(0, 2**31))
    rng = random.Random(seed)
    blocks = [list(b) for b in alpha.blocks]
    for b in blocks:
        rng.shuffle(b)
    rng.shuffle(blocks)
    assert canonicalize(blocks, 3) == alpha


def test_dual_elements_against_brute_force():
    for k in (1, 2, 3):
        brute = {
            part
            for part in brute_partitions(raw_points(k))
            if part and all(meets_both_rows(b) for b in part)
        }
        got = enumerate_istar(k)
        assert {as_raw(p) for p in got} == brute
        assert len(got) == len(brute)
    assert [len(enumerate_istar(k)) for k in (1, 2, 3)] == [1, 3, 25]


def test_istar_counts_closed_form():
    assert [count_istar(k) for k in (1, 2, 3, 4)] == [1, 3, 25, 339]
    assert len(enumerate_istar(4)) == 339


def test_pistar_counts_closed_form():
    assert [count_pistar(k) for k in range(1, 6)] == [2, 12, 128, 2100, 48032]


def test_partial_dual_elements_against_brute_force():
    for k in (1, 2, 3):
        pts = raw_points(k)
        brute = set()
        for size in range(2 * k + 1):
            for subset in itertools.combinations(pts, size):
                for part in brute_partitions(list(subset)):
                    if all(meets_both_rows(b) for b in part):
                        brute.add(part)
        got = enumerate_pistar(k)
        assert {as_raw(p) for p in got} == brute
    assert [len(enumerate_pistar(k)) for k in (1, 2, 3, 4)] == [2, 12, 128, 2100]


def test_dual_predicates():
    ident = SetPartition.identity(2)
    assert is_dual_element(ident) and is_partial_dual_element(ident)
    partial = canonicalize([[unprimed(1), primed(1)]], 2)
    assert not is_dual_element(partial) and is_partial_dual_element(partial)
    lopsided = canonicalize([[unprimed(1), unprimed(2)], [primed(1), primed(2)]], 2)
    assert not is_dual_element(lopsided) and not is_partial_dual_element(lopsided)
    assert not is_dual_element(SetPartition.empty(2))
    assert is_partial_dual_element(SetPartition.empty(2))


def test_identity_empty_completed_flip():
    assert str(SetPartition.identity(2)) == "{1,1'}|{2,2'}"
    assert SetPartition.empty(3).support() == frozenset()
    partial = canonicalize([[unprimed(1), primed(2)]], 2)
    comp = partial.completed()
    assert len(comp.support()) == 4
    assert block_count(comp) == 3
    assert comp.completed() is comp
    assert str(partial.flip()) == "{2,1'}"
    assert partial.flip().flip() == partial
    ident = SetPartition.identity(3)
    assert ident.flip() == ident


def _oracle_cases():
    """Every element of I*_4 and P*_3 and every diagram at k <= 3, each
    with its family for ``parse_element``."""
    cases = [(alpha, "istar") for alpha in enumerate_istar(4)]
    cases += [(alpha, "pistar") for alpha in enumerate_pistar(3)]
    cases += [(alpha, "composition") for k in (1, 2, 3) for alpha in all_diagrams(k)]
    return cases


def _as_diagrams(k, walk):
    """A walk's (code, value) pairs as ``{diagram: value}``, after checking
    that every code comes sorted, as ``SetPartition`` stores it."""
    walk = list(walk)
    assert all(list(code) == sorted(code) for code, _ in walk)
    return {SetPartition(k, code): value for code, value in walk}


def test_codes_agree_with_the_point_level_oracles():
    """The code-level completion, flip, predicates, natural order and
    deformation walks of every element against the point-level
    references, and the validating entries round-trip every element."""
    for alpha, family in _oracle_cases():
        k = alpha.k
        assert alpha.code == oracles.block_masks_on_points(alpha), alpha
        assert alpha.completed() == oracles.completed_on_points(alpha), alpha
        assert alpha.flip() == oracles.flip_on_points(alpha), alpha
        again = canonicalize(alpha.blocks, k)
        assert again == alpha and hash(again) == hash(alpha), alpha
        assert parse_element(str(alpha), family, k) == alpha
        meets_both = all(in_part(b) and out_part(b) for b in alpha.blocks)
        assert is_partial_dual_element(alpha) == meets_both, alpha
        assert is_dual_element(alpha) == (meets_both and len(alpha.support()) == 2 * k)
        for beta in (alpha, alpha.completed(), alpha.flip(), SetPartition.empty(k)):
            expected = oracles.block_union_leq_on_points(alpha, beta)
            assert block_union_leq(alpha, beta) == expected, (alpha, beta)
        if family != "composition":
            # the walks are those of the deformation maps on partial duals
            upper = dict(oracles.upper_set_on_points(alpha))
            assert _as_diagrams(k, _upper_set_with_mobius(alpha)) == upper, alpha
            assert all(block_union_leq(alpha, beta) for beta in natural_upper_set(alpha))
            subsets = dict(oracles.subsets_on_points(alpha))
            assert _as_diagrams(k, _subsets_with_sign(alpha)) == subsets, alpha


def test_block_accessors():
    p = canonicalize([[unprimed(1), unprimed(2), primed(1)], [unprimed(3), primed(3)]], 3)
    assert in_part(p.blocks[0]) == (1, 2)
    assert out_part(p.blocks[0]) == (1,)
    assert block_of(p)[unprimed(3)] == 1
    assert block_count(p) == 2


def test_coarser_leq_is_a_partial_order():
    elements = enumerate_pistar(2)
    for a in elements:
        assert coarser_leq(a, a)
    for a in elements:
        for b in elements:
            if coarser_leq(a, b) and coarser_leq(b, a):
                assert a == b
            for c in elements:
                if coarser_leq(a, b) and coarser_leq(b, c):
                    assert coarser_leq(a, c)


def test_coarser_leq_examples():
    ident = SetPartition.identity(2)
    top = canonicalize([[unprimed(1), unprimed(2), primed(1), primed(2)]], 2)
    assert coarser_leq(ident, top)
    assert not coarser_leq(top, ident)
    one = canonicalize([[unprimed(1), primed(1)]], 2)
    assert not coarser_leq(ident, one)
    assert block_union_leq(ident, one)
    with pytest.raises(ValueError):
        coarser_leq(ident, SetPartition.identity(3))


def test_block_union_leq_allows_drops_and_requires_unions():
    ident = SetPartition.identity(2)
    for beta in enumerate_pistar(2):
        expected = all(
            set(block) in ({unprimed(i), primed(i)} for i in (1, 2))
            or set(block) == {unprimed(1), primed(1), unprimed(2), primed(2)}
            for block in beta.blocks
        )
        assert block_union_leq(ident, beta) == expected
    swap = canonicalize([[unprimed(1), primed(2)], [unprimed(2), primed(1)]], 2)
    assert not block_union_leq(ident, swap)
    assert not block_union_leq(swap, ident)


def test_subblocks_and_block_count():
    p = canonicalize([[unprimed(1), primed(1)], [unprimed(2), primed(2)]], 2)
    q = canonicalize([[unprimed(1), primed(1)]], 2)
    assert subblocks_leq(q, p)
    assert not subblocks_leq(p, q)
    assert block_count_at_most(p, 2) and not block_count_at_most(p, 1)
    assert block_count_at_most(q, 3) and not block_count_at_most(q, 2)
    assert block_count_at_most(SetPartition.empty(2), 4)
    assert not block_count_at_most(SetPartition.empty(2), 3)


def test_enumeration_guards():
    with pytest.raises(SizeGuardError):
        enumerate_is(7)
    with pytest.raises(SizeGuardError):
        enumerate_istar(6)
    with pytest.raises(SizeGuardError):
        enumerate_pistar(5)
    with pytest.raises(ValueError):
        enumerate_is(0)
    with pytest.raises(ValueError):
        enumerate_istar(0)


def test_hat_element():
    z = HatElement.zero(2)
    assert z.is_zero and str(z) == "0"
    w = HatElement.wrap(SetPartition.identity(2))
    assert not w.is_zero and w.k == 2
    assert z != w and z == HatElement.zero(2) and z != HatElement.zero(3)
    with pytest.raises(ValueError):
        HatElement(3, SetPartition.identity(2))
    lopsided = canonicalize([[unprimed(1), unprimed(2)]], 2)
    with pytest.raises(ValueError):
        HatElement.wrap(lopsided)
