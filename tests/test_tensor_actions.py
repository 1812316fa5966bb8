"""Match sets, target tuples and exact action matrices.

The match-set oracles here scan every candidate output index and check
the block conditions directly on the raw blocks, so they are slow but
independent of the constraint-propagation implementation.  The target
tuples and ``action_matrix`` are checked in turn against matrices built
one input index at a time through the match sets of ``oracles``, on
every space of dimension at most 27.
"""

import itertools
import random

import pytest

from rookdual import (
    ActionSpace,
    DualityCell,
    HatElement,
    PartialInjection,
    SetPartition,
    SizeGuardError,
    action_matrix,
    action_supports,
    action_targets,
    canonicalize,
    enumerate_is,
    enumerate_istar,
    enumerate_pistar,
    epsilon,
    istar_generators,
    multiply_istar,
    multiply_pistar,
    parse_element,
    pistar_generators,
    primed,
    targets_commute,
    unprimed,
)
from rookdual.diagrams import (
    ENUM_LIMIT_DUAL,
    ENUM_LIMIT_INJECTIONS,
    ENUM_LIMIT_PARTIAL_DUAL,
)
from rookdual.semigroups import bullet_multiply, star_multiply

from test_diagrams import all_diagrams
from oracles import (
    ExactMatrix,
    cell_targets,
    exact_action,
    in_part,
    index_at,
    match_set_c,
    match_set_hat,
    match_set_partial,
    match_set_tilde,
    orbit_targets,
    targets_matrix,
    triple_supports,
)


def brute_match_c(alpha, i, n):
    comp = alpha.completed()
    out = set()
    for l in itertools.product(range(1, n + 1), repeat=alpha.k):
        good = True
        for block in comp.blocks:
            values = [i[p.index - 1] for p in block if not p.primed]
            values += [l[p.index - 1] for p in block if p.primed]
            if len(set(values)) > 1:
                good = False
                break
        if good:
            out.add(l)
    return out


def brute_match_partial(alpha, i, n):
    covered = alpha.support()
    out = set()
    for l in itertools.product(range(n + 1), repeat=alpha.k):
        good = True
        for block in alpha.blocks:
            values = [i[p.index - 1] for p in block if not p.primed]
            values += [l[p.index - 1] for p in block if p.primed]
            if len(set(values)) > 1:
                good = False
                break
        for idx in range(1, alpha.k + 1):
            if unprimed(idx) not in covered and i[idx - 1] != 0:
                good = False
            if primed(idx) not in covered and l[idx - 1] != 0:
                good = False
        if good:
            out.add(l)
    return out


def brute_match_hat(a, i, n):
    if a.is_zero:
        return set()
    alpha = a.diagram
    out = set()
    for l in brute_match_partial(alpha, i, n):
        values = []
        for block in alpha.blocks:
            p = block[0]
            v = i[p.index - 1] if not p.primed else l[p.index - 1]
            values.append(v)
        if all(v != 0 for v in values) and len(set(values)) == len(values):
            out.add(l)
    return out


def brute_match_tilde(alpha, i, n):
    out = set()
    for l in brute_match_partial(alpha, i, n):
        values = []
        for block in alpha.blocks:
            p = block[0]
            v = i[p.index - 1] if not p.primed else l[p.index - 1]
            values.append(v)
        nonzero = [v for v in values if v != 0]
        if len(set(nonzero)) == len(nonzero):
            out.add(l)
    return out


def test_match_set_c_examples():
    ident = SetPartition.identity(2)
    assert match_set_c(ident, (2, 1), 3) == {(2, 1)}
    top = parse_element("{1,2,1',2'}", "composition", 2)
    assert match_set_c(top, (1, 2), 2) == set()
    assert match_set_c(top, (1, 1), 2) == {(1, 1)}
    free = canonicalize([[unprimed(1)], [primed(1)]], 1)
    assert match_set_c(free, (1,), 2) == {(1,), (2,)}


def test_match_set_c_against_brute_force():
    from test_diagrams import brute_partitions, raw_points

    everything = [
        canonicalize(
            [[(primed if pr else unprimed)(idx) for pr, idx in block] for block in part],
            2,
        )
        for part in brute_partitions(raw_points(2))
        if part
    ]
    for n in (1, 2, 3):
        for alpha in everything:
            for i in itertools.product(range(1, n + 1), repeat=2):
                assert match_set_c(alpha, i, n) == brute_match_c(alpha, i, n)


def test_match_set_c_at_most_one_for_dual_elements():
    for n in (2, 3):
        for k in (1, 2, 3):
            for alpha in enumerate_istar(k):
                for i in itertools.product(range(1, n + 1), repeat=k):
                    assert len(match_set_c(alpha, i, n)) <= 1


def test_match_set_partial_examples():
    one = parse_element("{1,1'}", "pistar", 2)
    assert match_set_partial(one, (3, 0), 3) == {(3, 0)}
    assert match_set_partial(one, (3, 1), 3) == set()
    empty = SetPartition.empty(2)
    assert match_set_partial(empty, (0, 0), 2) == {(0, 0)}
    assert match_set_partial(empty, (1, 0), 2) == set()
    # a zero-valued block is allowed under the plain action
    assert match_set_partial(one, (0, 0), 3) == {(0, 0)}


def test_match_set_partial_against_brute_force():
    for n in (1, 2):
        for alpha in enumerate_pistar(2):
            for i in itertools.product(range(n + 1), repeat=2):
                got = match_set_partial(alpha, i, n)
                assert got == brute_match_partial(alpha, i, n)
                assert len(got) <= 1


def test_match_set_hat_examples():
    ident = HatElement.wrap(SetPartition.identity(2))
    assert match_set_hat(ident, (1, 1), 2) == set()
    assert match_set_hat(ident, (1, 2), 2) == {(1, 2)}
    assert match_set_hat(ident, (0, 1), 2) == set()
    assert match_set_hat(HatElement.zero(2), (1, 2), 2) == set()
    empty = HatElement.wrap(SetPartition.empty(2))
    assert match_set_hat(empty, (0, 0), 2) == {(0, 0)}


def test_match_set_tilde_examples():
    ident = SetPartition.identity(2)
    assert match_set_tilde(ident, (0, 0), 2) == {(0, 0)}
    assert match_set_tilde(ident, (1, 1), 2) == set()
    assert match_set_tilde(ident, (1, 0), 2) == {(1, 0)}
    assert match_set_tilde(SetPartition.empty(2), (0, 0), 2) == {(0, 0)}


def test_match_set_hat_and_tilde_against_brute_force():
    for n in (1, 2, 3):
        for alpha in enumerate_pistar(2):
            wrapped = HatElement.wrap(alpha)
            for i in itertools.product(range(n + 1), repeat=2):
                assert match_set_hat(wrapped, i, n) == brute_match_hat(wrapped, i, n)
                assert match_set_tilde(alpha, i, n) == brute_match_tilde(alpha, i, n)


# action spaces and matrices


@pytest.mark.parametrize("kind,n,k", [("V", 3, 2), ("U", 2, 3), ("V", 1, 3)])
def test_index_at_inverts_the_ordinal(kind, n, k):
    """The test-side ``index_at`` lists the tensor indices in ordinal
    order, so the tests that read it match ``ActionSpace.ordinal``."""
    sp = ActionSpace(kind, n, k)
    assert [index_at(sp, c) for c in range(sp.dimension)] == list(sp.indices())


def test_action_space_layout():
    sp = ActionSpace("V", 3, 2)
    assert sp.dimension == 9
    assert list(sp.indices())[:4] == [(1, 1), (1, 2), (1, 3), (2, 1)]
    assert sp.ordinal((2, 3)) == 5
    assert index_at(sp, 5) == (2, 3)
    spu = ActionSpace("U", 2, 2)
    assert spu.dimension == 9
    assert list(spu.indices())[0] == (0, 0)
    assert spu.ordinal((1, 2)) == 5


@pytest.mark.parametrize("index", [(), (1,), (1, 1), (1, 1, 1, 2), (2, 2, 2, 2, 2)])
def test_ordinal_refuses_an_index_of_the_wrong_length(index):
    """An index of fewer or more than k digits is no tensor of the space:
    on V(2,3) a short or long index must not read as some ordinal."""
    with pytest.raises(ValueError, match="not k = 3"):
        ActionSpace("V", 2, 3).ordinal(index)
    assert ActionSpace("V", 2, 3).ordinal((1, 1, 2)) == 1


def test_action_space_guard():
    with pytest.raises(SizeGuardError):
        ActionSpace("V", 9, 4).guard()
    ActionSpace("V", 9, 4).guard(unguarded=True)
    ActionSpace("V", 8, 4).guard()
    with pytest.raises(ValueError):
        ActionSpace("W", 2, 2)


def test_one_point_space_acts_at_large_k():
    """V(1, k) has dimension 1 at every k, so the guard admits it; its
    actions must cost no more than k does (a table over all k-bit masks
    would take 2^40 entries here)."""
    k = 40
    space = ActionSpace("V", 1, k).guard()
    identity, merged = SetPartition.identity(k), SetPartition(k, [(2**k - 1, 2**k - 1)])
    assert action_targets(PartialInjection.identity(1), space) == (0,)
    for diagram, orbit in ((identity, []), (merged, [0])):
        assert action_targets(diagram, space) == (0,)
        assert list(map(list, action_supports(diagram, space))) == [[0], orbit]
    assert action_targets(merged, space, "hat") == (0,)


def test_action_matrix_V_examples():
    sp = ActionSpace("V", 2, 2)
    ident = SetPartition.identity(2)
    assert action_matrix(ident, sp) == {(i, i): 1 for i in range(4)}
    top = parse_element("{1,2,1',2'}", "composition", 2)
    assert sorted(action_matrix(top, sp)) == [(0, 0), (3, 3)]


def test_matrix_columns_and_entries():
    sp = ActionSpace("V", 2, 2)
    for alpha in enumerate_istar(2):
        m = action_matrix(alpha, sp)
        assert all(v == 1 for v in m.values())
        for c in range(sp.dimension):
            assert sum(1 for (_, cc) in m if cc == c) <= 1
    spu = ActionSpace("U", 2, 2)
    for alpha in enumerate_pistar(2):
        for variant in ("plain", "tilde"):
            m = action_matrix(alpha, spu, variant)
            assert all(v == 1 for v in m.values())
            for c in range(spu.dimension):
                assert sum(1 for (_, cc) in m if cc == c) <= 1


def test_rook_action_examples():
    sp = ActionSpace("V", 2, 2)
    e2 = epsilon(2, {1})
    m = action_matrix(e2, sp)
    assert m == {(0, 0): 1}  # fixes v_(1,1) only
    zero = epsilon(2, set())
    assert action_matrix(zero, sp) == {}
    spu = ActionSpace("U", 2, 2)
    mu = action_matrix(zero, spu)
    assert mu == {(0, 0): 1}  # fixes v_(0,0) only
    ident = PartialInjection.identity(2)
    assert action_matrix(ident, spu) == {(i, i): 1 for i in range(9)}


def test_rook_action_is_a_homomorphism():
    rng = random.Random(5)
    for n, k, kind in ((2, 2, "V"), (3, 2, "V"), (2, 2, "U"), (3, 1, "U")):
        sp = ActionSpace(kind, n, k)
        elements = enumerate_is(n)
        for _ in range(60):
            a, b = rng.choice(elements), rng.choice(elements)
            assert exact_action(a * b, sp) == exact_action(a, sp) * exact_action(b, sp)


def test_diagram_action_reverses_products():
    """The diagram families act on the other side: the matrix of a
    product is the reversed product of the matrices."""
    for n, k in ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3)):
        sp = ActionSpace("V", n, k)
        mats = {a: exact_action(a, sp) for a in enumerate_istar(k)}
        for a in enumerate_istar(k):
            for b in enumerate_istar(k):
                assert exact_action(multiply_istar(a, b), sp) == mats[b] * mats[a]


def test_diagram_action_direction_witness():
    """At k = 3 the two orders genuinely differ, so the reversal above
    is not vacuous."""
    sp = ActionSpace("V", 2, 3)
    a = parse_element("{1,2,1'}|{3,2',3'}", "istar", 3)
    b = parse_element("{1,1',2'}|{2,3,3'}", "istar", 3)
    ma, mb = exact_action(a, sp), exact_action(b, sp)
    mab = exact_action(multiply_istar(a, b), sp)
    assert mab == mb * ma
    assert mab != ma * mb


def test_plain_U_action_reverses_products():
    for n in (1, 2):
        sp = ActionSpace("U", n, 2)
        mats = {a: exact_action(a, sp, "plain") for a in enumerate_pistar(2)}
        for a in enumerate_pistar(2):
            for b in enumerate_pistar(2):
                got = exact_action(multiply_pistar(a, b), sp, "plain")
                assert got == mats[b] * mats[a]


@pytest.mark.parametrize("kind", ["V", "U"])
def test_right_actions_are_multiplicative_on_the_generators(kind):
    """At n = 2, k = 4 the target tuple of a * g is the tuple of a
    followed by that of g, for every right element a and every right
    generator g.  With the closure of the generators under the product,
    this makes the generators' commutant that of every right element."""
    space = ActionSpace(kind, 2, 4)
    if kind == "V":
        multiply, elements, gens = multiply_istar, enumerate_istar(4), istar_generators(4)
    else:
        multiply, elements, gens = multiply_pistar, enumerate_pistar(4), pistar_generators(4)
    generator_targets = [(g, action_targets(g, space) + (-1,)) for g in gens]
    for a in elements:
        ta = action_targets(a, space)
        for g, tg in generator_targets:
            composed = tuple(tg[t] for t in ta)  # tg[-1] == -1 keeps kills
            assert action_targets(multiply(a, g), space) == composed, (a, g)


def test_hat_action_reverses_star_products():
    for n in (1, 2):
        sp = ActionSpace("U", n, 2)
        hats = [HatElement.zero(2)] + [HatElement.wrap(a) for a in enumerate_pistar(2)]
        mats = {a: exact_action(a, sp, "hat") for a in hats}
        assert mats[HatElement.zero(2)].entries == {}
        for a in hats:
            for b in hats:
                got = exact_action(star_multiply(a, b), sp, "hat")
                assert got == mats[b] * mats[a]


def test_tilde_action_reverses_bullet_products():
    for n in (1, 2):
        sp = ActionSpace("U", n, 2)
        mats = {a: exact_action(a, sp, "tilde") for a in enumerate_pistar(2)}
        for a in enumerate_pistar(2):
            for b in enumerate_pistar(2):
                got = exact_action(bullet_multiply(a, b), sp, "tilde")
                assert got == mats[b] * mats[a]


def test_targets_commute_rejects_tuples_of_different_lengths():
    with pytest.raises(ValueError):
        targets_commute((1, 0, 2), (0, 1))
    with pytest.raises(ValueError):
        targets_commute((0, 1), (1, 0, 2))


def test_rook_and_diagram_actions_commute():
    for n, k in ((2, 2), (3, 2), (2, 3)):
        sp = ActionSpace("V", n, k)
        rooks = [exact_action(g, sp) for g in enumerate_is(n)]
        for alpha in enumerate_istar(k):
            m = exact_action(alpha, sp)
            assert all(r * m == m * r for r in rooks)


def test_V_embeds_in_U():
    """On indices avoiding 0, the plain U-action of a full-support dual
    element looks exactly like its V-action."""
    n, k = 2, 2
    spv, spu = ActionSpace("V", n, k), ActionSpace("U", n, k)
    for alpha in enumerate_istar(k):
        mv = action_matrix(alpha, spv)
        mu = action_matrix(alpha, spu, "plain")
        for i in spv.indices():
            for j in spv.indices():
                v_entry = mv.get((spv.ordinal(j), spv.ordinal(i)), 0)
                u_entry = mu.get((spu.ordinal(j), spu.ordinal(i)), 0)
                assert v_entry == u_entry


def test_identity_acts_as_identity_everywhere():
    ident2 = SetPartition.identity(2)
    spu = ActionSpace("U", 2, 2)
    assert action_matrix(ident2, spu, "plain") == {(i, i): 1 for i in range(9)}
    hat_ident = action_matrix(HatElement.wrap(ident2), spu, "hat")
    # the deformed identity keeps only all-distinct non-zero digit indices
    fixed = {spu.ordinal(i) for i in ((1, 2), (2, 1))}
    assert hat_ident == {(i, i): 1 for i in fixed}


def test_hat_action_on_v_takes_a_plain_dual_element():
    """On V^k, as on U^k, the hat action wraps a plain diagram; the
    element must still be dual."""
    spv = ActionSpace("V", 2, 2)
    ident2 = SetPartition.identity(2)
    assert action_targets(ident2, spv, "hat") == (-1, 1, 2, -1)
    assert action_targets(HatElement.wrap(ident2), spv, "hat") == (-1, 1, 2, -1)
    with pytest.raises(ValueError, match="dual element"):
        action_targets(parse_element("{1,1'}", "pistar", 2), spv, "hat")
    with pytest.raises(ValueError, match="plain and hat"):
        action_targets(ident2, spv, "tilde")


def test_variant_validation():
    spu = ActionSpace("U", 2, 2)
    spv = ActionSpace("V", 2, 2)
    with pytest.raises(ValueError):
        action_matrix(SetPartition.identity(2), spv, "tilde")
    with pytest.raises(ValueError):
        action_matrix(SetPartition.identity(2), spu, "nope")
    with pytest.raises(ValueError):
        action_matrix(parse_element("{1,1'}|{2}|{2'}", "composition", 2), spu)
    with pytest.raises(ValueError):
        action_matrix(PartialInjection.identity(2), spu, "hat")
    with pytest.raises(ValueError):
        action_matrix(SetPartition.identity(3), spv)
    hat = HatElement.wrap(SetPartition.identity(2))  # acts only by hat
    for space, variant in ((ActionSpace("U", 1, 2), "plain"), (spu, "tilde"), (spv, "plain")):
        with pytest.raises(ValueError, match="only the hat action"):
            action_targets(hat, space, variant)


def test_free_output_blocks_still_act_by_sums():
    sp = ActionSpace("V", 2, 1)
    free = canonicalize([[unprimed(1)], [primed(1)]], 1)
    assert action_matrix(free, sp) == {(r, c): 1 for r in (0, 1) for c in (0, 1)}
    with pytest.raises(ValueError):
        action_targets(free, sp)


# target tuples and action matrices against the match-set route


def _matrix_from_match(space, match):
    """One match set per input index, as the action matrices were built
    before target tuples."""
    entries = {}
    for col, i in enumerate(space.indices()):
        for l in match(i):
            entries[(space.ordinal(l), col)] = 1
    return ExactMatrix(space.dimension, space.dimension, entries)


def test_action_matrix_V_matches_match_set_c_with_free_blocks():
    """Free output blocks included: each free block's column holds one
    entry per digit, as the composition match set says."""
    for k in (1, 2):
        diagrams = all_diagrams(k)
        for n in (1, 2, 3):
            sp = ActionSpace("V", n, k)
            for alpha in diagrams:
                expected = _matrix_from_match(sp, lambda i: match_set_c(alpha, i, n))
                assert exact_action(alpha, sp) == expected, (alpha, n)

def _rook_match(pi):
    def match(i):
        out = []
        for digit in i:
            if digit == 0:
                out.append(0)
                continue
            t = pi.targets[digit - 1]
            if t is None:
                return set()
            out.append(t)
        return {tuple(out)}

    return match


def _oracle_spaces():
    """Every space of dimension at most 27 on which both families
    enumerate within the guards."""
    spaces = []
    for kind, k_limit in (("V", ENUM_LIMIT_DUAL), ("U", ENUM_LIMIT_PARTIAL_DUAL)):
        for n in range(1, ENUM_LIMIT_INJECTIONS + 1):
            for k in range(1, k_limit + 1):
                sp = ActionSpace(kind, n, k)
                if sp.dimension <= 27:
                    spaces.append(sp)
    return spaces


ORACLE_SPACES = _oracle_spaces()


def _space_id(sp):
    return f"{sp.kind}{sp.n},{sp.k}"


def _diagram_cases(space):
    """(element, variant, match) for every diagram acting on the space:
    the dual elements on V; on U every partial dual element under each
    variant, and the adjoined zero."""
    n, k = space.n, space.k
    if space.kind == "V":
        return [
            (a, "plain", lambda i, a=a: match_set_c(a, i, n)) for a in enumerate_istar(k)
        ]
    cases = [(HatElement.zero(k), "hat", lambda i: set())]
    for a in enumerate_pistar(k):
        hat = HatElement.wrap(a)
        cases += [
            (a, "plain", lambda i, a=a: match_set_partial(a, i, n)),
            (hat, "hat", lambda i, h=hat: match_set_hat(h, i, n)),
            (a, "tilde", lambda i, a=a: match_set_tilde(a, i, n)),
        ]
    return cases


@pytest.mark.parametrize("space", ORACLE_SPACES, ids=_space_id)
def test_target_tuples_match_the_match_set_matrices(space):
    for pi in enumerate_is(space.n):
        expected = _matrix_from_match(space, _rook_match(pi))
        assert targets_matrix(action_targets(pi, space)) == expected, pi
        assert exact_action(pi, space) == expected, pi
    for element, variant, match in _diagram_cases(space):
        expected = _matrix_from_match(space, match)
        got = targets_matrix(action_targets(element, space, variant))
        assert got == expected, (element, variant)
        assert exact_action(element, space, variant) == expected, (element, variant)


@pytest.mark.parametrize("space", ORACLE_SPACES, ids=_space_id)
def test_tuple_checks_agree_with_matrix_products(space):
    """Tuple commutation against products of matrices, on the cell's
    generator/element pairs and, where the sides are small, on pairs
    from one side (which need not commute); the cell's semigroup
    faithfulness against distinctness of the matrices."""
    cell = DualityCell(space.n, space.k, space.kind)
    lefts, rights = cell_targets(cell, "left"), cell_targets(cell, "right")
    matrix = {t: targets_matrix(t) for t in set(lefts) | set(rights)}
    pairs = [(g, a) for g in cell.generators("left") for a in rights]
    for side in (lefts, rights):
        if len(side) <= 34:
            pairs += [(a, b) for a in side for b in side]
    for g, a in pairs:
        mg, ma = matrix[g], matrix[a]
        assert targets_commute(g, a) == (mg * ma == ma * mg), (g, a)
    for side, targets in (("left", lefts), ("right", rights)):
        mats = [matrix[t] for t in targets]
        assert cell.semigroup_faithful(side) == (len(set(mats)) == len(mats))



@pytest.mark.parametrize("space", ORACLE_SPACES, ids=_space_id)
def test_orbit_targets_match_their_definitions(space):
    """The rook orbit keeps exactly the inputs whose non-zero digits make
    up the domain; the diagram orbit is the hat action on U and, on V,
    the match set restricted to inputs with distinct block digits."""
    n = space.n
    for pi in enumerate_is(n):
        plain = _rook_match(pi)

        def match(i, pi=pi, plain=plain):
            return plain(i) if set(i) - {0} == pi.domain() else set()

        expected = _matrix_from_match(space, match)
        assert targets_matrix(orbit_targets(pi, space)) == expected, pi
    if space.kind == "U":
        for alpha in enumerate_pistar(space.k):
            assert orbit_targets(alpha, space) == action_targets(alpha, space, "hat")
        return
    for alpha in enumerate_istar(space.k):

        def match(i, alpha=alpha):
            digits = {i[in_part(block)[0] - 1] for block in alpha.blocks}
            return match_set_c(alpha, i, n) if len(digits) == len(alpha.blocks) else set()

        expected = _matrix_from_match(space, match)
        assert targets_matrix(orbit_targets(alpha, space)) == expected, alpha


@pytest.mark.parametrize("k", [2, 3])
def test_supports_match_the_triple_rows_under_every_variant(k):
    """On U(2, k) the plain and orbit supports of every rook element, of
    every partial dual element under plain, hat and tilde, and of the
    adjoined zero under hat are the oracle's, read off flat (input,
    output, used) rows."""
    space = ActionSpace("U", 2, k)
    cases = [(pi, "plain") for pi in enumerate_is(2)] + [(HatElement.zero(k), "hat")]
    for alpha in enumerate_pistar(k):
        cases += [(alpha, "plain"), (HatElement.wrap(alpha), "hat"), (alpha, "tilde")]
    for element, variant in cases:
        support, orbit = action_supports(element, space, variant)
        expected = triple_supports(element, space, variant)
        assert (set(support), set(orbit)) == expected, (element, variant)
        assert len(support) == len(expected[0]), (element, variant)


def test_orbit_targets_validation():
    spv = ActionSpace("V", 2, 2)
    free = canonicalize([[unprimed(1), unprimed(2), primed(1)], [primed(2)]], 2)
    with pytest.raises(ValueError):
        orbit_targets(free, spv)
    with pytest.raises(ValueError):
        orbit_targets(SetPartition.identity(3), spv)
    with pytest.raises(ValueError):
        orbit_targets(PartialInjection.identity(3), spv)
    with pytest.raises(SizeGuardError):
        orbit_targets(PartialInjection.identity(2), ActionSpace("V", 2, 13))
