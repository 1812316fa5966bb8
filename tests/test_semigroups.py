"""Products: partial injections, the three-tier composition, the dual
monoids, and the two deformed products.

Associativity is the backbone here: exhaustive at the sizes where the
full triple product table fits in seconds, seeded random triples one
size up.
"""

import hashlib
import itertools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import rookdual.diagrams
import rookdual.semigroups
from rookdual import (
    CompositionResult,
    HatElement,
    PartialInjection,
    SetPartition,
    SizeGuardError,
    block_union_leq,
    bullet_multiply,
    canonicalize,
    enumerate_is,
    enumerate_istar,
    enumerate_pistar,
    epsilon,
    family,
    is_dual_element,
    is_generators,
    is_partial_dual_element,
    istar_generators,
    multiply_composition,
    multiply_istar,
    multiply_pistar,
    parse_element,
    pistar_generators,
    primed,
    star_multiply,
    unprimed,
)
from test_diagrams import all_diagrams


def test_worked_product():
    a = PartialInjection([2, None, 3, 5, None])
    b = PartialInjection([5, 4, 1, None, None])
    assert str(a * b) == "[-,5,2,-,-]"
    assert str(b * a) == "[4,-,1,-,-]"


def test_epsilon():
    e = epsilon(3, {1, 2})
    assert e.targets == (1, 2, None)
    assert epsilon(3, set(range(1, 4))) == PartialInjection.identity(3)
    assert epsilon(3, set()).rank() == 0
    for fixed in ({1}, {2, 3}, set(), {1, 2, 3}):
        idem = epsilon(3, fixed)
        assert idem * idem == idem


def test_generators():
    gens = is_generators(3)
    assert PartialInjection([2, 1, 3]) in gens
    assert PartialInjection([2, 3, 1]) in gens
    assert epsilon(3, {1, 2}) in gens
    assert is_generators(1) == [PartialInjection([1]), PartialInjection([None])]
    assert len(is_generators(2)) == 2  # the swap doubles as the 2-cycle


def right_closure(generators, multiply=operator.mul) -> set:
    """Everything a non-empty word in the generators multiplies to,
    found breadth first by multiplying on the right by one generator."""
    closure, frontier = set(generators), list(generators)
    while frontier:
        found = {multiply(x, g) for x in frontier for g in generators} - closure
        closure |= found
        frontier = list(found)
    return closure


def test_generated_closure_is_whole_monoid():
    gens = is_generators(3) + [PartialInjection.identity(3)]
    assert right_closure(gens) == set(enumerate_is(3))
    assert len(right_closure(gens)) == 34
    gens1 = is_generators(1)
    assert right_closure(gens1) == set(enumerate_is(1))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_istar_generators_generate_the_dual_monoid(k):
    """One-sided closure certifies the generating set at every k the
    enumeration guard allows."""
    assert right_closure(istar_generators(k), multiply_istar) == set(enumerate_istar(k))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_pistar_generators_generate_the_partial_dual_monoid(k):
    closure = right_closure(pistar_generators(k), multiply_pistar)
    assert closure == set(enumerate_pistar(k))


def test_dual_generating_sets():
    # the identity is listed only at k = 1: from k = 2 on it is swap * swap
    assert [len(istar_generators(k)) for k in (1, 2, 3, 4, 5)] == [1, 2, 4, 4, 4]
    assert [len(pistar_generators(k)) for k in (1, 2, 3, 4)] == [2, 5, 6, 6]
    assert istar_generators(1) == [SetPartition.identity(1)]
    assert [str(g) for g in istar_generators(2)] == ["{1,2'}|{2,1'}", "{1,2,1',2'}"]
    assert [str(g) for g in istar_generators(4)] == [
        "{1,2'}|{2,1'}|{3,3'}|{4,4'}",
        "{1,2'}|{2,3'}|{3,4'}|{4,1'}",
        "{1,2,1',2'}|{3,3'}|{4,4'}",
        "{1,2,1'}|{3,2'}|{4,3',4'}",
    ]
    assert [str(g) for g in pistar_generators(3)][3:] == [
        "{2,2'}|{3,3'}",
        "{1,2,1'}|{3,3'}",
        "{1,1',2'}|{3,3'}",
    ]
    assert pistar_generators(1) == [SetPartition.identity(1), SetPartition.empty(1)]
    # the 3-block eta is what the partial dual set can do without: the
    # dual set plus the drop, without the half-merges, misses 48 of 128
    partial = istar_generators(3) + [pistar_generators(3)[3]]
    assert len(right_closure(partial, multiply_pistar)) == 80


def test_dual_generating_sets_keep_the_enumeration_guards():
    with pytest.raises(SizeGuardError):
        istar_generators(6)
    with pytest.raises(SizeGuardError):
        pistar_generators(5)
    assert len(istar_generators(6, unguarded=True)) == 4
    assert len(pistar_generators(5, unguarded=True)) == 6
    for gens in (istar_generators, pistar_generators):
        with pytest.raises(ValueError):
            gens(0)


@pytest.mark.parametrize(
    "limit,enumerate_,generators",
    [
        ("ENUM_LIMIT_DUAL", enumerate_istar, istar_generators),
        ("ENUM_LIMIT_PARTIAL_DUAL", enumerate_pistar, pistar_generators),
    ],
)
def test_generating_sets_read_the_limit_when_called(
    limit, enumerate_, generators, monkeypatch
):
    """A lowered enumeration limit refuses the generating set as it
    refuses the enumeration, and ``unguarded`` lifts both."""
    monkeypatch.setattr(rookdual.diagrams, limit, 1)
    for build in (enumerate_, generators):
        with pytest.raises(SizeGuardError, match=f"{build.__name__} guard: k=2 exceeds 1"):
            build(2)
        assert build(2, unguarded=True)


@pytest.mark.parametrize(
    "name,limit,enumerate_,generators",
    [
        ("is", "ENUM_LIMIT_INJECTIONS", enumerate_is, is_generators),
        ("istar", "ENUM_LIMIT_DUAL", enumerate_istar, istar_generators),
        ("pistar", "ENUM_LIMIT_PARTIAL_DUAL", enumerate_pistar, pistar_generators),
    ],
)
def test_family_guards_every_call(name, limit, enumerate_, generators, monkeypatch):
    """``family`` is the enumeration, built once; a guarded call still
    trips after an unguarded one has cached the family under a lowered
    limit, with the enumerator's message.  The table ``family`` reads
    pairs each monoid with its own generating set."""
    elements = family(name, 2)
    assert elements == tuple(enumerate_(2))
    assert rookdual.semigroups._MONOIDS[name][1](2) == generators(2)
    monkeypatch.setattr(rookdual.diagrams, limit, 1)
    rookdual.semigroups._family.cache_clear()
    built = family(name, 2, unguarded=True)
    assert built == elements
    assert family(name, 2, unguarded=True) is built
    variable = "n" if name == "is" else "k"
    with pytest.raises(SizeGuardError, match=f"^enumerate_{name} guard: {variable}=2 exceeds 1$"):
        family(name, 2)


def test_family_refuses_unknown_names_and_sizes():
    with pytest.raises(ValueError, match="unknown family"):
        family("composition", 2)
    for name in ("is", "istar", "pistar"):
        with pytest.raises(ValueError, match="positive"):
            family(name, 0)


@pytest.mark.parametrize("name,count", [("is", 34), ("istar", 25), ("pistar", 128)])
def test_family_checks_its_closed_form_size(name, count, monkeypatch):
    """An enumeration that loses an element is refused when ``family``
    builds it, naming the family and the size; nothing is cached."""
    enumerate_, generators = rookdual.semigroups._MONOIDS[name]

    def short(size, unguarded=False):
        return enumerate_(size, unguarded)[1:]

    monkeypatch.setitem(rookdual.semigroups._MONOIDS, name, (short, generators))
    rookdual.semigroups._family.cache_clear()
    message = f"^{name} at size 3 enumerated {count - 1} elements, not {count}$"
    with pytest.raises(RuntimeError, match=message):
        family(name, 3)
    monkeypatch.undo()
    assert len(family(name, 3)) == count


ORBIT_CASES = [("istar", 1, 1, 1), ("istar", 2, 2, 2), ("istar", 3, 4, 8), ("istar", 4, 9, 41)]
ORBIT_CASES += [("pistar", 1, 2, 2), ("pistar", 2, 6, 8), ("pistar", 3, 16, 41), ("pistar", 4, 43, 252)]


@pytest.mark.parametrize("name,k,rows_count,cols_count", ORBIT_CASES)
def test_representatives_are_one_per_orbit(name, k, rows_count, cols_count):
    """``_family_orbits`` holds the index permutations of I*_k or P*_k by
    the swap and the k-cycle of the top points and of the bottom points,
    in that order, each as re-sorting every code with its points moved
    makes it (the bottom ones are built as the top ones conjugated by the
    row exchange); as rows, the first element in index order of each
    two-sided S_k x S_k orbit (both sides permuted): 1, 2, 4 and 9 for
    I*_k and 2, 6, 16 and 43 for P*_k at k = 1..4; and as columns, the
    same of each S_k orbit of the bottom points: 1, 2, 8 and 41, and 2, 8,
    41 and 252.  The orbits,
    closed under all of S_k (on both sides for the rows) here, partition
    the family, and each holds exactly one representative.  The tree lists
    every element but the rows once, as x = (top + bottom)[g][y] after its
    parent y."""
    family(name, k)
    index = rookdual.semigroups._family_index(name, k)
    codes = list(index)
    top, bottom, rows, cols, tree = rookdual.semigroups._family_orbits(name, k)
    moves = oracles.generator_moves(k)
    group = [oracles.mask_images(g, k) for g in itertools.permutations(range(k))]
    for side, perms in ((0, top), (1, bottom)):  # the swap and the k-cycle coincide at k = 2
        assert list(map(tuple, perms)) == list(dict.fromkeys(
            tuple(index[oracles.permuted(c, moved, side)] for c in codes) for moved in moves
        ))
    row_orbits = {
        frozenset(
            index[oracles.permuted(oracles.permuted(c, s, 0), t, 1)] for s in group for t in group
        )
        for c in codes
    }
    col_orbits = {
        frozenset(index[oracles.permuted(c, moved, 1)] for moved in group) for c in codes
    }
    for reps, orbits, size in ((rows, row_orbits, rows_count), (cols, col_orbits, cols_count)):
        assert len(reps) == len(orbits) == size
        assert sum(map(len, orbits)) == len(codes)
        assert all(len(orbit & set(reps)) == 1 for orbit in orbits)
        assert reps == sorted(min(orbit) for orbit in orbits)
    listed = set(rows)
    for x, g, y in tree:
        assert y in listed and x not in listed and (top + bottom)[g][y] == x
        listed.add(x)
    assert listed == set(range(len(codes)))


@pytest.mark.parametrize("name,k", [(name, k) for name in ("istar", "pistar") for k in (1, 2, 3, 4)])
def test_bottom_firsts_equal_the_bottom_orbit_tree(name, k):
    """``_family_orbits`` reads the first element of each bottom orbit off
    a key per element (the in-masks with their blocks' out-mask sizes)
    instead of walking the bottom permutations; the firsts are those of the
    walk, ``_orbit_tree(bottom, n)[0]``."""
    family(name, k)
    bottom, _, cols = rookdual.semigroups._family_orbits(name, k)[1:4]
    n = len(rookdual.semigroups._family_index(name, k))
    assert cols == rookdual.semigroups._orbit_tree(bottom, n)[0]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rook_representatives_are_one_per_rank(n):
    """For IS_n, ``_family_orbits`` holds the index permutations of pi to
    pi g^-1 (the top: g moves the domain) and of pi to g pi (the bottom: g
    moves the image), for g the swap and the n-cycle, each as composing
    the target tuples makes it; the rows are the first element of each
    rank, one per two-sided S_n x S_n orbit (n + 1 of them), the columns
    the first of each domain (2^n), as the bottom walk finds them; and the
    tree lists every other element once, after its parent."""
    elements = family("is", n)
    index = rookdual.semigroups._family_index("is", n)
    top, bottom, rows, cols, tree = rookdual.semigroups._family_orbits("is", n)
    gens = [PartialInjection([g[i] + 1 for i in range(n)]) for g in oracles.symmetric_generators(n)]
    assert top == [[index[(e * g.inverse()).targets] for e in elements] for g in gens]
    assert bottom == [[index[(g * e).targets] for e in elements] for g in gens]
    assert rows == [min(a for a, e in enumerate(elements) if e.rank() == r) for r in range(n + 1)]
    assert cols == rookdual.semigroups._orbit_tree(bottom, len(elements))[0]
    assert len(cols) == 2**n
    listed = set(rows)
    for x, g, y in tree:
        assert y in listed and x not in listed and (top + bottom)[g][y] == x
        listed.add(x)
    assert listed == set(range(len(elements)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_is_product_against_pointwise_oracle(data):
    elements = enumerate_is(3)
    a = data.draw(st.sampled_from(elements))
    b = data.draw(st.sampled_from(elements))
    c = a * b
    for d in range(1, 4):
        t = b(d)
        assert c(d) == (None if t is None else a(t))


def test_is_associativity_exhaustive():
    elements = enumerate_is(2)
    for a in elements:
        for b in elements:
            ab = a * b
            for c in elements:
                assert ab * c == a * (b * c)


# three-tier composition


def test_composition_identity_and_garbage():
    ident = SetPartition.identity(2)
    r = multiply_composition(ident, ident)
    assert r.diagram == ident and r.garbage_count == 0

    free = canonicalize([[unprimed(1)], [primed(1)]], 1)
    r = multiply_composition(free, free)
    assert r.diagram == free
    assert r.garbage_count == 1  # the two middle singletons merge and vanish

    with pytest.raises(ValueError):
        multiply_composition(ident, SetPartition.identity(3))


def _all_partitions_k2():
    from test_diagrams import brute_partitions, raw_points

    return [
        canonicalize(
            [[(primed if pr else unprimed)(i) for pr, i in block] for block in part], 2
        )
        for part in brute_partitions(raw_points(2))
        if part
    ]


def test_composition_all_pairs_cover_everything():
    everything = _all_partitions_k2()
    assert len(everything) == 15
    for a in everything:
        for b in everything:
            r = multiply_composition(a, b)
            assert r.garbage_count >= 0
            assert len(r.diagram.support()) == 4


def test_composition_associativity_exhaustive_k2():
    everything = _all_partitions_k2()
    for a in everything:
        for b in everything:
            ab = multiply_composition(a, b).diagram
            for c in everything:
                bc = multiply_composition(b, c).diagram
                assert (
                    multiply_composition(ab, c).diagram
                    == multiply_composition(a, bc).diagram
                )


# the dual monoid


def test_istar_product_examples():
    top = parse_element("{1,2,1',2'}", "istar", 2)
    swap = parse_element("{1,2'}|{2,1'}", "istar", 2)
    ident = SetPartition.identity(2)
    assert multiply_istar(top, swap) == top
    assert multiply_istar(swap, swap) == ident
    for alpha in enumerate_istar(3):
        assert multiply_istar(SetPartition.identity(3), alpha) == alpha
        assert multiply_istar(alpha, SetPartition.identity(3)) == alpha


def test_istar_closed_and_garbage_free():
    for k in (1, 2, 3):
        elements = enumerate_istar(k)
        for a in elements:
            for b in elements:
                r = multiply_composition(a, b)
                assert r.garbage_count == 0
                assert is_dual_element(r.diagram)
                assert multiply_istar(a, b) == r.diagram


def test_istar_rejects_partial_input():
    partial = canonicalize([[unprimed(1), primed(1)]], 2)
    with pytest.raises(ValueError):
        multiply_istar(partial, SetPartition.identity(2))


def test_istar_garbage_is_an_internal_error(monkeypatch):
    """Garbage in a product of dual elements is a bug, not bad input: the
    check survives ``python -O`` and is no ValueError, which the command
    line would report as a usage error."""
    ident = SetPartition.identity(2)
    monkeypatch.setattr(
        rookdual.semigroups,
        "multiply_composition",
        lambda a, b: CompositionResult(ident, 1),
    )
    with pytest.raises(RuntimeError) as info:
        multiply_istar(ident, ident)
    assert not isinstance(info.value, ValueError)


def test_istar_associativity():
    elements = enumerate_istar(2)
    for a in elements:
        for b in elements:
            ab = multiply_istar(a, b)
            for c in elements:
                assert multiply_istar(ab, c) == multiply_istar(a, multiply_istar(b, c))
    rng = random.Random(11)
    big = enumerate_istar(3)
    for _ in range(300):
        a, b, c = (rng.choice(big) for _ in range(3))
        assert multiply_istar(multiply_istar(a, b), c) == multiply_istar(
            a, multiply_istar(b, c)
        )


# the partial dual monoid and its break-down product


def test_pistar_breakdown_examples():
    one = parse_element("{1,1'}", "pistar", 2)
    top = parse_element("{1,2,1',2'}", "pistar", 2)
    assert multiply_pistar(one, top) == SetPartition.empty(2)
    assert multiply_pistar(top, one) == SetPartition.empty(2)

    a = parse_element("{1,2,1'}", "pistar", 2)
    b = parse_element("{1,1',2'}", "pistar", 2)
    assert str(multiply_pistar(a, b)) == "{1,2,1',2'}"

    ident = SetPartition.identity(2)
    for alpha in enumerate_pistar(2):
        assert multiply_pistar(ident, alpha) == alpha
        assert multiply_pistar(alpha, ident) == alpha


def test_pistar_empty_is_a_zero():
    z = SetPartition.empty(2)
    for alpha in enumerate_pistar(2):
        assert multiply_pistar(alpha, z) == z
        assert multiply_pistar(z, alpha) == z


def test_pistar_closed_and_associative():
    elements = enumerate_pistar(2)
    for a in elements:
        for b in elements:
            ab = multiply_pistar(a, b)
            assert is_partial_dual_element(ab)
            for c in elements:
                assert multiply_pistar(ab, c) == multiply_pistar(
                    a, multiply_pistar(b, c)
                )
    rng = random.Random(17)
    big = enumerate_pistar(3)
    for _ in range(300):
        a, b, c = (rng.choice(big) for _ in range(3))
        assert multiply_pistar(multiply_pistar(a, b), c) == multiply_pistar(
            a, multiply_pistar(b, c)
        )


def test_pistar_restricts_to_istar():
    for a in enumerate_istar(2):
        for b in enumerate_istar(2):
            assert multiply_pistar(a, b) == multiply_istar(a, b)


# the zero-adjoined deformation


def test_star_zero_absorbs():
    z = HatElement.zero(2)
    for alpha in enumerate_pistar(2):
        w = HatElement.wrap(alpha)
        assert star_multiply(z, w).is_zero
        assert star_multiply(w, z).is_zero
    assert star_multiply(z, z).is_zero


def test_star_identity_is_not_a_unit():
    """The interface partitions must match exactly, so even the identity
    annihilates anything whose input side is glued differently."""
    ident = HatElement.wrap(SetPartition.identity(2))
    top = HatElement.wrap(parse_element("{1,2,1',2'}", "pistar", 2))
    assert star_multiply(ident, top).is_zero
    assert star_multiply(top, ident).is_zero
    assert star_multiply(ident, ident) == ident

    one = HatElement.wrap(parse_element("{1,1'}", "pistar", 1))
    z1 = HatElement.wrap(SetPartition.empty(1))
    assert star_multiply(one, z1).is_zero
    assert star_multiply(z1, z1) == z1


def test_star_nonzero_agrees_with_pistar():
    for k in (1, 2):
        for a in enumerate_pistar(k):
            for b in enumerate_pistar(k):
                s = star_multiply(HatElement.wrap(a), HatElement.wrap(b))
                if not s.is_zero:
                    assert s.diagram == multiply_pistar(a, b)


def test_star_associativity():
    hats = [HatElement.zero(2)] + [HatElement.wrap(a) for a in enumerate_pistar(2)]
    for a in hats:
        for b in hats:
            ab = star_multiply(a, b)
            for c in hats:
                assert star_multiply(ab, c) == star_multiply(a, star_multiply(b, c))
    rng = random.Random(23)
    big = [HatElement.zero(3)] + [HatElement.wrap(a) for a in enumerate_pistar(3)]
    for _ in range(500):
        a, b, c = (rng.choice(big) for _ in range(3))
        assert star_multiply(star_multiply(a, b), c) == star_multiply(
            a, star_multiply(b, c)
        )


# the exact-mirror product


def test_bullet_examples():
    ident = SetPartition.identity(2)
    top = parse_element("{1,2,1',2'}", "tilde", 2)
    assert bullet_multiply(ident, top) == SetPartition.empty(2)
    assert bullet_multiply(top, top) == top
    assert bullet_multiply(ident, ident) == ident

    a = parse_element("{1,2,1'}|{3,2',3'}", "tilde", 3)
    b = parse_element("{1,1',2'}|{2,3,3'}", "tilde", 3)
    assert str(bullet_multiply(a, b)) == "{1,2,1',2'}|{3,3'}"


def test_bullet_empty_is_a_zero():
    z = SetPartition.empty(2)
    for alpha in enumerate_pistar(2):
        assert bullet_multiply(alpha, z) == z
        assert bullet_multiply(z, alpha) == z


def test_bullet_associativity():
    elements = enumerate_pistar(2)
    for a in elements:
        for b in elements:
            ab = bullet_multiply(a, b)
            assert is_partial_dual_element(ab)
            for c in elements:
                assert bullet_multiply(ab, c) == bullet_multiply(
                    a, bullet_multiply(b, c)
                )
    rng = random.Random(29)
    big = enumerate_pistar(3)
    for _ in range(300):
        a, b, c = (rng.choice(big) for _ in range(3))
        assert bullet_multiply(bullet_multiply(a, b), c) == bullet_multiply(
            a, bullet_multiply(b, c)
        )


def test_bullet_when_traces_mirror_exactly():
    """Whenever every interface block mirrors exactly, the bullet and
    break-down products agree (both just splice the matching blocks)."""
    for a in enumerate_pistar(2):
        for b in enumerate_pistar(2):
            a_out = {tuple(p.index for p in blk if p.primed) for blk in a.blocks}
            a_out = {t for t in a_out if t}
            b_in = {tuple(p.index for p in blk if not p.primed) for blk in b.blocks}
            b_in = {t for t in b_in if t}
            if a_out == b_in:
                assert bullet_multiply(a, b) == multiply_pistar(a, b)


# the bitmask products against the three-tier oracle


def test_block_masks_round_trip():
    """A diagram's code is sorted, equals the masks read off its point
    blocks, and rebuilds the diagram."""
    for k in (1, 2, 3):
        for alpha in all_diagrams(k):
            code = alpha.code
            assert list(code) == sorted(code)
            assert code == oracles.block_masks_on_points(alpha)
            assert SetPartition(k, code) == alpha


def test_block_union_leq_codes_matches_block_union_leq():
    """Every pair of partial dual elements at k <= 3, and every pair of
    diagrams at k <= 2, where blocks may miss a row: the order on codes
    equals the point-by-point reference."""
    pairs = [p for k in (1, 2, 3) for p in itertools.product(enumerate_pistar(k), repeat=2)]
    pairs += [p for k in (1, 2) for p in itertools.product(all_diagrams(k), repeat=2)]
    for a, b in pairs:
        assert block_union_leq(a, b) == oracles.block_union_leq_on_points(a, b), (a, b)


# sha256 of the printed products, one per line, pinned before diagrams
# were stored as block-mask codes; the same under any PYTHONHASHSEED.
PARTIAL_DUAL_PRODUCTS_K3_SHA256 = (
    "d10cee2540d41ca6839d851bfb004cc1cd00f3d8727f0b17304abadd1d41a681"
)
COMPOSITION_PRODUCTS_K2_SHA256 = (
    "aa2e0aed744e68078dacd27f556acbb7b5dce7b9a6827fe11de2f0aa210527f0"
)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_partial_dual_products_are_golden():
    """Every pair at k = 3 under the break-down product, then under star
    (the adjoined zero first), then under bullet."""
    elements = enumerate_pistar(3)
    hats = [HatElement.zero(3)] + [HatElement.wrap(a) for a in elements]
    lines = [str(multiply_pistar(a, b)) for a in elements for b in elements]
    lines += [str(star_multiply(a, b)) for a in hats for b in hats]
    lines += [str(bullet_multiply(a, b)) for a in elements for b in elements]
    assert len(lines) == 49409
    assert _digest(lines) == PARTIAL_DUAL_PRODUCTS_K3_SHA256


def test_composition_products_are_golden():
    """Every pair of the 52 diagrams at k = 2, in ``sort_key`` order,
    with the garbage count."""
    diagrams = sorted(all_diagrams(2), key=SetPartition.sort_key)
    lines = []
    for a in diagrams:
        for b in diagrams:
            r = multiply_composition(a, b)
            lines.append(f"{r.diagram} garbage={r.garbage_count}")
    assert len(lines) == 2704
    assert _digest(lines) == COMPOSITION_PRODUCTS_K2_SHA256


@pytest.mark.parametrize("k", [1, 2, 3])
def test_composition_matches_the_three_tier_oracle(k):
    """Every pair of diagrams, covering or not, at k <= 2; 5,000 seeded
    pairs of the 877 diagrams at k = 3."""
    diagrams = all_diagrams(k)
    if k <= 2:
        pairs = itertools.product(diagrams, repeat=2)
    else:
        rng = random.Random(31)
        pairs = [(rng.choice(diagrams), rng.choice(diagrams)) for _ in range(5000)]
    for a, b in pairs:
        r = multiply_composition(a, b)
        assert (r.diagram, r.garbage_count) == oracles.composition(a, b), (a, b)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_partial_dual_products_match_the_three_tier_oracle(k):
    """Break-down, star (with the adjoined zero) and bullet products on
    every pair of partial dual elements."""
    elements = enumerate_pistar(k)
    for a, b in itertools.product(elements, repeat=2):
        assert multiply_pistar(a, b) == oracles.pistar(a, b), (a, b)
        assert bullet_multiply(a, b) == oracles.bullet(a, b), (a, b)
    hats = [HatElement.zero(k)] + [HatElement.wrap(a) for a in elements]
    for a, b in itertools.product(hats, repeat=2):
        assert star_multiply(a, b) == oracles.star(a, b), (a, b)
