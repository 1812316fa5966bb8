"""The two change-of-basis maps into the zero-adjoined algebra, their
inverses, and the exact matrix identities tying the three U-actions
together."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

import rookdual.morphisms
import rookdual.semigroups
import rookdual.tensor_actions
from rookdual import (
    ActionSpace,
    DeformationCell,
    SetPartition,
    block_subset_sum,
    block_subset_sum_inverse,
    block_union_leq,
    canonicalize,
    coarsening_sum,
    coarsening_sum_inverse,
    enumerate_pistar,
    extend_linearly,
    mobius_merge_drop,
    natural_upper_set,
    parse_element,
    primed,
    unprimed,
)

from oracles import (
    coarsening_sum_inverse_by_solve,
    generator_moves,
    hat_consistency_by_dicts,
    homomorphism_by_dicts,
    mask_images,
    permuted,
    support_sums_by_element,
    tensor_moves,
    tilde_factorization_by_dicts,
    walked_images,
)


def by_text(x: dict) -> dict:
    return {str(e): c for e, c in x.items()}


def test_natural_upper_set_equals_order_filter():
    """The constructive merge enumeration must agree with filtering the
    full element list through the order predicate."""
    for k in (1, 2, 3):
        elements = enumerate_pistar(k)
        for alpha in elements:
            constructed = set(natural_upper_set(alpha))
            filtered = {b for b in elements if block_union_leq(alpha, b)}
            assert constructed == filtered


def test_coarsening_sum_of_identity():
    phi = coarsening_sum(SetPartition.identity(2))
    assert by_text(phi) == {
        "{1,1'}|{2,2'}": 1,
        "{1,1'}": 1,
        "{2,2'}": 1,
        "{1,2,1',2'}": 1,
        "{}": 1,
    }


def test_coarsening_sum_of_empty_is_itself():
    phi = coarsening_sum(SetPartition.empty(2))
    assert by_text(phi) == {"{}": 1}


def test_coarsening_sum_inverse_of_identity():
    inv = coarsening_sum_inverse(SetPartition.identity(2))
    assert by_text(inv) == {
        "{1,1'}|{2,2'}": 1,
        "{1,1'}": -1,
        "{2,2'}": -1,
        "{1,2,1',2'}": -1,
        "{}": 2,
    }


def test_mobius_values():
    ident = SetPartition.identity(2)
    top = parse_element("{1,2,1',2'}", "pistar", 2)
    one = parse_element("{1,1'}", "pistar", 2)
    empty = SetPartition.empty(2)
    assert mobius_merge_drop(ident, ident) == 1
    assert mobius_merge_drop(ident, top) == -1
    assert mobius_merge_drop(ident, one) == -1
    assert mobius_merge_drop(ident, empty) == 2
    assert mobius_merge_drop(one, empty) == -1
    with pytest.raises(ValueError):
        mobius_merge_drop(top, ident)


def test_mobius_inverts_zeta_directly():
    """Summing the Mobius function over every closed interval gives the
    delta function; this pins the inverse independent of the maps."""
    for k in (1, 2):
        elements = enumerate_pistar(k)
        for alpha in elements:
            for gamma in natural_upper_set(alpha):
                total = sum(
                    mobius_merge_drop(beta, gamma)
                    for beta in natural_upper_set(alpha)
                    if block_union_leq(beta, gamma)
                )
                assert total == (1 if alpha == gamma else 0)


def test_closed_form_inverse_reads_the_mobius_function():
    """The closed-form inverse takes its coefficients from its own walk
    of the up-set; they equal ``mobius_merge_drop`` on every pair
    alpha <= beta, and the walk reaches exactly those beta."""
    for k in (1, 2, 3):
        elements = enumerate_pistar(k)
        for alpha in elements:
            inverse = coarsening_sum_inverse(alpha)
            above = [beta for beta in elements if block_union_leq(alpha, beta)]
            assert set(inverse) == set(above)
            for beta in above:
                assert inverse[beta] == mobius_merge_drop(alpha, beta), (alpha, beta)


def test_two_inverse_routes_agree():
    for k in (1, 2, 3):
        for alpha in enumerate_pistar(k):
            assert coarsening_sum_inverse(alpha) == coarsening_sum_inverse_by_solve(
                alpha
            )


def test_coarsening_round_trips():
    """Forward-then-back is the identity on the deformed algebra;
    back-then-forward is the identity on the plain one."""
    for k in (1, 2, 3):
        for alpha in enumerate_pistar(k):
            assert extend_linearly(
                coarsening_sum, coarsening_sum_inverse(alpha)
            ) == {alpha: 1}
            assert extend_linearly(
                coarsening_sum_inverse, coarsening_sum(alpha)
            ) == {alpha: 1}


def test_block_subset_sum_of_identity():
    psi = block_subset_sum(SetPartition.identity(2))
    assert by_text(psi) == {
        "{1,1'}|{2,2'}": 1,
        "{1,1'}": 1,
        "{2,2'}": 1,
        "{}": 1,
    }


def test_block_subset_sum_inverse_signs():
    inv = block_subset_sum_inverse(SetPartition.identity(2))
    assert by_text(inv) == {
        "{1,1'}|{2,2'}": 1,
        "{1,1'}": -1,
        "{2,2'}": -1,
        "{}": 1,
    }


def test_block_subset_round_trips():
    for k in (1, 2, 3):
        for alpha in enumerate_pistar(k):
            assert extend_linearly(
                block_subset_sum, block_subset_sum_inverse(alpha)
            ) == {alpha: 1}
            assert extend_linearly(
                block_subset_sum_inverse, block_subset_sum(alpha)
            ) == {alpha: 1}


def test_extend_linearly_is_linear():
    a, b = enumerate_pistar(2)[:2]
    x = {a: Fraction(2), b: Fraction(-1)}
    lhs = extend_linearly(coarsening_sum, x)
    rhs = {beta: 2 for beta in coarsening_sum(a)}
    for beta in coarsening_sum(b):
        rhs[beta] = rhs.get(beta, 0) - 1
    assert lhs == {beta: c for beta, c in rhs.items() if c}
    assert extend_linearly(coarsening_sum, {}) == {}


def test_homomorphism_reports_exhaustive():
    for k in (1, 2):
        for name in ("coarsening_sum", "block_subset_sum"):
            report = DeformationCell(k).homomorphism(name)
            assert report.homomorphism_ok and report.inverse_ok
            assert report.pairs_checked == len(enumerate_pistar(k)) ** 2
    assert DeformationCell(2).homomorphism("coarsening_sum").pairs_checked == 144


def test_morphism_report_rejects_unknown_map():
    with pytest.raises(ValueError):
        DeformationCell(2).homomorphism("zeta")


def _natural_cases():
    """Every pair of P*_k for k <= 3; at k = 4, where every pair would take
    minutes, 1,000 pairs seeded with 2024 and 10,000 more seeded pairs."""
    for k in (1, 2, 3):
        n = len(enumerate_pistar(k))
        yield k, itertools.product(range(n), repeat=2)
    n = len(enumerate_pistar(4))
    cli, more = random.Random(2024), random.Random(13)
    yield 4, [(cli.choice(range(n)), cli.choice(range(n))) for _ in range(1000)]
    yield 4, [(more.randrange(n), more.randrange(n)) for _ in range(10_000)]


@pytest.mark.parametrize("product", ["pistar_codes", "bullet_codes", "star_codes"])
def test_products_are_natural(product):
    """The lemma the homomorphism check rests on: each code product
    depends on its factors' outer rows only through the OR of the blocks
    it joins, so relabelling the generic product of the two middle rows
    gives the direct product, blocks in code order, on every pair checked,
    and the adjoined zero where the direct star product is None."""
    multiply = getattr(rookdual.semigroups, product)
    for k, pairs in _natural_cases():
        cell = DeformationCell(k)
        codes = list(cell.index)
        _, _, in_id, _, out_ors = cell._part("middle", cell._middle)
        relabel = cell._relabeller(multiply)
        for a, b in pairs:
            direct, relabelled = multiply(codes[a], codes[b]), relabel(a, in_id[b])
            if direct is None:
                assert relabelled is None, (k, codes[a], codes[b])
                continue
            ab = tuple((i, out_ors[b][y]) for i, y in relabelled)
            assert ab == direct, (k, codes[a], codes[b])


@pytest.mark.parametrize("product", ["pistar_codes", "bullet_codes", "star_codes"])
def test_products_commute_with_outer_permutations(product):
    """The lemma the orbit reduction of the exhaustive check rests on, on
    every pair at k <= 3: permuting the left factor's top points by the
    swap or the k-cycle permutes the product's top points alike, permuting
    the right factor's bottom points permutes the product's bottom points
    alike, and the adjoined zero stays the zero.  The two generate S_k, so
    (s a)(b r) = s (ab) r for all s and r in S_k."""
    multiply = getattr(rookdual.semigroups, product)
    for k in (1, 2, 3):
        codes = [e.code for e in enumerate_pistar(k)]
        moves = generator_moves(k)
        for a, b in itertools.product(codes, repeat=2):
            ab = multiply(a, b)
            for moved in moves:
                for side, left, right in ((0, permuted(a, moved, 0), b), (1, a, permuted(b, moved, 1))):
                    expected = None if ab is None else permuted(ab, moved, side)
                    assert multiply(left, right) == expected, (k, a, b, side)


@pytest.mark.parametrize("product", ["pistar_codes", "bullet_codes", "star_codes"])
def test_products_commute_with_middle_permutations(product):
    """The lemma the two-sided reduction of the exhaustive rows rests on, on
    every pair at k <= 3: permuting the left factor's bottom points (its
    out-masks) and the right factor's top points (its in-masks) by the same
    swap or k-cycle relabels the middle row only, so the product does not
    change, and the adjoined zero stays the zero.  The two generate S_k, so
    (a t^-1)(t b) = ab for all t in S_k."""
    multiply = getattr(rookdual.semigroups, product)
    for k in (1, 2, 3):
        codes = [e.code for e in enumerate_pistar(k)]
        moves = generator_moves(k)
        for a, b in itertools.product(codes, repeat=2):
            ab = multiply(a, b)
            for moved in moves:
                assert multiply(permuted(a, moved, 1), permuted(b, moved, 0)) == ab, (k, a, b)


def _count_relabels(monkeypatch):
    """Record every relabelling ``homomorphism`` reads, as (product, a, L,
    relabelled), and every argument pair of ``star_codes``, which is
    wrapped where ``rookdual.morphisms`` looks it up."""
    relabels, star_calls = [], []
    right_relabeller, right_star = DeformationCell._relabeller, rookdual.morphisms.star_codes

    def star(a, b):
        star_calls.append((a, b))
        return right_star(a, b)

    def counted(cell, multiply):
        relabel = right_relabeller(cell, multiply)
        name = "star" if multiply is star else "domain"

        def wrapper(a, L):
            relabels.append((name, a, L, relabel(a, L)))
            return relabels[-1][3]

        return wrapper

    monkeypatch.setattr(rookdual.morphisms, "star_codes", star)
    monkeypatch.setattr(DeformationCell, "_relabeller", counted)
    return relabels, star_calls


def _is_generic(a, b):
    """Whether a and b are generic codes of two middle rows: a's in-masks
    and b's out-masks are the bits 1, 2, 4, ... in code order."""
    ins, outs = [i for i, _ in a], [o for _, o in b]
    return ins == [1 << i for i in range(len(a))] and outs == [1 << j for j in range(len(b))]


TERMS_READ = {"block_subset_sum": 23, "coarsening_sum": 27}
LOOKUPS = {"block_subset_sum": 738, "coarsening_sum": 755}


class _CountedIndex(dict):
    """A code index that counts its lookups."""

    lookups = 0

    def __getitem__(self, code):
        self.lookups += 1
        return super().__getitem__(code)


def _terms_read(cell, map_name):
    """The distinct terms of the images of the exhaustive check's rows."""
    images = cell._map(map_name)[0]
    return {p for a in rookdual.semigroups._family_orbits("pistar", cell.k)[2] for p in images[a]}


@pytest.mark.parametrize("map_name", ["block_subset_sum", "coarsening_sum"])
def test_exhaustive_check_relabels_once_per_element_and_in_key(map_name, monkeypatch):
    """At k = 3 the row check relabels each row representative once per
    in-key (16 of the 128 elements, one per two-sided S_3 x S_3 orbit; 15
    in-keys) for the domain product, and for its star row each distinct
    term of those rows' images once (23 for the block subset sum, 27 for
    the coarsening sum), instead of once per pair or once per element; it
    calls ``star_codes`` only on the generic codes of the 15 middle rows;
    and it looks up in the code index only the products it compares: the
    16 x 41 products of the rows with the columns, and each star row's
    products with the distinct terms of the columns' images (99 for the
    coarsening sum, 82 for the block subset sum)."""
    relabels, star_calls = _count_relabels(monkeypatch)
    cell = DeformationCell(3)
    cell._map(map_name)  # the images and the orbits look codes up too: build them first
    cell.index = _CountedIndex(cell.index)
    assert cell.homomorphism(map_name).homomorphism_ok
    domain = [r for r in relabels if r[0] == "domain"]
    star = [r for r in relabels if r[0] == "star"]
    assert 0 < len(domain) <= 16 * 15
    assert len(star) == len(_terms_read(cell, map_name)) == TERMS_READ[map_name]
    assert 0 < len(star_calls) <= 15
    assert all(_is_generic(a, b) for a, b in star_calls)
    assert cell.index.lookups == LOOKUPS[map_name]


def _columns(k):
    """The columns of the homomorphism check at k, in index order: the first
    element of each orbit of P*_k under S_k permuting the bottom points, as
    ``_orbit_tree`` walks them."""
    semigroups = rookdual.semigroups
    bottom = semigroups._family_orbits("pistar", k)[1]
    return semigroups._orbit_tree(bottom, len(semigroups._family_index("pistar", k)))[0]


ENCODINGS = {
    (3, "block_subset_sum"): 35,
    (3, "coarsening_sum"): 47,
    (4, "block_subset_sum"): 162,
    (4, "coarsening_sum"): 306,
}


@pytest.mark.parametrize("k,map_name", sorted(ENCODINGS))
def test_exhaustive_check_encodes_only_the_products_it_compares(k, map_name, monkeypatch):
    """The exhaustive check encodes phi(ab) once for each distinct product
    ab of a row with a column, when a row first reads it, and no other
    image: at k = 3, 35 (block subset sum) and 47 (coarsening sum) of the
    128 images; at k = 4, 162 and 306 of 2,100."""
    encoded = []
    right = rookdual.morphisms._encode

    def counted(image, width):
        encoded.append(image)
        return right(image, width)

    monkeypatch.setattr(rookdual.morphisms, "_encode", counted)
    cell = DeformationCell(k)
    rows, cols = rookdual.semigroups._family_orbits("pistar", k)[2], _columns(k)
    multiply, codes = getattr(rookdual.semigroups, MAPS[map_name]), list(cell.index)
    products = {cell.index[multiply(codes[a], codes[b])] for a in rows for b in cols}
    assert cell.homomorphism(map_name).homomorphism_ok
    assert len(encoded) == len(products) == ENCODINGS[k, map_name]


@pytest.mark.parametrize("map_name", ["block_subset_sum", "coarsening_sum"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_star_rows_equal_the_direct_star_products(k, map_name, monkeypatch):
    """The exhaustive table builds the star row of exactly the distinct
    terms p of the checked rows' images, and each star relabelling it
    records, read with the out-masks of every element q of p's out-key as
    in-key, equals ``star_codes`` applied directly to the codes of p and q."""
    relabels, _ = _count_relabels(monkeypatch)
    cell = DeformationCell(k)
    assert cell.homomorphism(map_name).homomorphism_ok
    codes = list(cell.index)
    _, out_id, in_id, _, out_ors = cell._part("middle", cell._middle)
    star = [r for r in relabels if r[0] == "star"]
    assert sorted(p for _, p, _, _ in star) == sorted(_terms_read(cell, map_name))
    for _, p, L, relabelled in star:
        assert L == out_id[p]
        for q in (q for q in range(len(codes)) if in_id[q] == L):
            pq = tuple((i, out_ors[q][y]) for i, y in relabelled)
            assert pq == rookdual.semigroups.star_codes(codes[p], codes[q]), (k, codes[p], codes[q])


def test_cells_share_one_code_index():
    """Every ``DeformationCell`` of one k reads one ``{code: index}``,
    built once next to the family and numbering it in enumeration order."""
    rookdual.semigroups._family_index.cache_clear()
    a, b = DeformationCell(3), DeformationCell(3)
    assert a.index is b.index
    assert list(a.index.items()) == [(e.code, i) for i, e in enumerate(a.elements)]
    assert rookdual.semigroups._family_index.cache_info().misses == 1


@pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)])
def test_hat_consistency(n, k):
    report = DeformationCell(k).hat_consistency(n)
    assert report.homomorphism_ok
    assert report.inverse_ok
    assert report.pairs_checked == len(enumerate_pistar(k)) * (n + 1) ** k


@pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)])
def test_tilde_factorization(n, k):
    report = DeformationCell(k).tilde_factorization(n)
    assert report.homomorphism_ok
    assert report.inverse_ok


def test_report_serialization():
    report = DeformationCell(1).homomorphism("block_subset_sum")
    d = report.to_json_dict()
    assert d["map_name"] == "block_subset_sum"
    assert d["k"] == 1
    assert d["homomorphism_ok"] is True


# the fast verdicts must be able to fail


@pytest.mark.parametrize(
    "map_name,product",
    [("coarsening_sum", "pistar_codes"), ("block_subset_sum", "bullet_codes")],
)
def test_morphism_report_catches_a_wrong_product(map_name, product, monkeypatch):
    """A product that drops the last block of every non-empty result
    no longer carries over to star."""
    right = getattr(rookdual.semigroups, product)
    monkeypatch.setattr(rookdual.morphisms, product, lambda a, b: right(a, b)[:-1])
    report = DeformationCell(2).homomorphism(map_name)
    assert report.homomorphism_ok is False
    assert report.inverse_ok is True


@pytest.mark.parametrize(
    "map_name,product",
    [("coarsening_sum", "pistar_codes"), ("block_subset_sum", "bullet_codes")],
)
def test_morphism_report_catches_a_product_wrong_on_one_shape(
    map_name, product, monkeypatch
):
    """A product that drops the last block only when the left factor's
    out-masks are those of the identity is wrong on one middle shape;
    the recipe for that shape carries the fault to every such pair, in
    the row check at k = 2, 3 and 4, whose columns at k = 4 span all 52
    in-keys."""
    right = getattr(rookdual.semigroups, product)
    for k in (2, 3, 4):
        identity = [1 << i for i in range(k)]

        def wrong(a, b, identity=identity):
            ab = right(a, b)
            return ab[:-1] if sorted(o for _, o in a) == identity else ab

        monkeypatch.setattr(rookdual.morphisms, product, wrong)
        report = DeformationCell(k).homomorphism(map_name)
        assert report.homomorphism_ok is False, k
        assert report.inverse_ok is True


@pytest.mark.parametrize("map_name", ["coarsening_sum", "block_subset_sum"])
def test_homomorphism_catches_a_star_product_wrong_on_one_shape(map_name, monkeypatch):
    """A star product that drops the last block only when the left
    factor's out-masks are those of the identity is wrong on one middle
    shape; its recipe carries the fault to every star product of that
    shape, in the star rows at k = 2, 3 and 4, whose columns at k = 4 span
    all 52 in-keys."""
    right = rookdual.semigroups.star_codes
    for k in (2, 3, 4):
        identity = [1 << i for i in range(k)]

        def wrong(a, b, identity=identity):
            ab = right(a, b)
            return ab[:-1] if ab and sorted(o for _, o in a) == identity else ab

        monkeypatch.setattr(rookdual.morphisms, "star_codes", wrong)
        report = DeformationCell(k).homomorphism(map_name)
        assert report.homomorphism_ok is False, k
        assert report.inverse_ok is True


MAPS = {"coarsening_sum": "pistar_codes", "block_subset_sum": "bullet_codes"}


def _wrong_star(monkeypatch, k, map_name=None):
    """Make the star product of {1,1'} with itself, and of no other pair
    of codes, drop its last block."""
    one = parse_element("{1,1'}", "pistar", k).code
    right = rookdual.morphisms.star_codes

    def wrong(a, b):
        return right(a, b)[:-1] if a == b == one else right(a, b)

    monkeypatch.setattr(rookdual.morphisms, "star_codes", wrong)


def _last_block_product(monkeypatch, k, map_name):
    product = MAPS[map_name]
    right = getattr(rookdual.morphisms, product)
    monkeypatch.setattr(rookdual.morphisms, product, lambda a, b: right(a, b)[:-1])


def _repeat_empty_on_an_orbit(monkeypatch, k, map_name):
    """``_repeat_empty_in`` every element of the two-sided S_k x S_k orbit
    of the last row representative of the exhaustive check.  The fault is
    the same on the whole orbit, so the images moved from the
    representative's walk are the walked ones, and every route judges the
    same faulty map."""
    _, _, rows, _, tree, _ = rookdual.semigroups._family_orbits("pistar", k)
    orbit = {rows[-1]}
    for x, _, y in tree:  # each parent is listed before its children
        if y in orbit:
            orbit.add(x)
    elements = DeformationCell(k).elements
    _repeat_empty_in(monkeypatch, map_name, {elements[x] for x in orbit}.__contains__)


FAULTS = {
    "none": lambda *args: None,
    "star": _wrong_star,
    "product": _last_block_product,
    "twice": _repeat_empty_on_an_orbit,
}


@pytest.mark.parametrize("map_name", sorted(MAPS))
def test_homomorphism_catches_a_star_product_wrong_on_one_pair(map_name, monkeypatch):
    """The codes of {1,1'} are also the generic codes of the middle row
    {1}, so a star product wrong only on that pair of codes spoils the
    recipe of that row, and through it every star product whose middle
    row is {1}: at k = 3 the terms with out-key {1} times those with
    in-key {1}.  The row check fails."""
    _wrong_star(monkeypatch, 3)
    report = DeformationCell(3).homomorphism(map_name)
    assert report.homomorphism_ok is False
    assert report.inverse_ok is True


WALKS = {"coarsening_sum": "_upper_set_with_mobius", "block_subset_sum": "_subsets_with_sign"}


def _is_identity(alpha):
    return alpha == SetPartition.identity(alpha.k)


def _repeat_empty_in(monkeypatch, map_name, hit=_is_identity):
    """Make the map's walk list the empty diagram twice in the image of
    every element ``hit`` accepts, the identity by default, so its forward
    image counts it with coefficient 2."""
    right = getattr(rookdual.morphisms, WALKS[map_name])

    def wrong(alpha):
        for code, value in right(alpha):
            yield code, value
            if hit(alpha) and not code:
                yield code, value

    monkeypatch.setattr(rookdual.morphisms, WALKS[map_name], wrong)


@pytest.mark.parametrize("map_name", sorted(MAPS))
def test_homomorphism_catches_a_coefficient_two(map_name, monkeypatch):
    """A walk that lists the empty diagram twice in the identity's image
    gives an image that is no 0/1 combination; the integer encoding is
    exact on it too, so the verdict is False, not a silent pass."""
    _repeat_empty_in(monkeypatch, map_name)
    report = DeformationCell(2).homomorphism(map_name)
    assert report.homomorphism_ok is False


def _corrupt_orbits(monkeypatch, side, edit):
    """Hand ``rookdual.morphisms`` the symmetry of P*_k with the swap's index
    permutation on ``side`` (0 the top points, 1 the bottom points)
    replaced by ``edit`` of a copy of it; the representatives, the orbit
    sizes, the tree and the other edges stay those of the true permutations."""
    right = rookdual.semigroups._family_orbits

    def wrong(name, size):
        parts = list(right(name, size))
        parts[side] = [edit(list(parts[side][0])), *parts[side][1:]]
        return tuple(parts)

    monkeypatch.setattr(rookdual.morphisms, "_family_orbits", wrong)


def _certificate_halves(cell, map_name):
    """Whether the cell's images are equivariant under the top and under the
    bottom permutations that ``rookdual.morphisms`` reads, on every edge the
    tree did not use, as the walk lists them: the two halves of the
    certificate."""
    images = cell._map(map_name)[0]
    top, bottom, *_, edges = rookdual.morphisms._family_orbits("pistar", cell.k)
    perms, n = top + bottom, len(images)
    return tuple(
        all(
            sorted(map(perms[g].__getitem__, images[a])) == sorted(images[perms[g][a]])
            for g, a in (divmod(e, n) for e in edges)
            if (g < len(top)) == (side == 0)
        )
        for side in (0, 1)
    )


@pytest.mark.parametrize("map_name", sorted(MAPS))
def test_homomorphism_catches_a_coefficient_two_off_the_representatives(map_name, monkeypatch):
    """At k = 3 a top-swap permutation corrupted to send the last row
    representative to the empty diagram, which the swap fixes, moves the
    images along its tree edges wrongly: some elements, none of them a row
    or column representative, list the empty diagram twice.  The
    certificate rejects the corrupted permutation, so the exhaustive verdict
    and the inverse verdict are False."""
    rows = rookdual.semigroups._family_orbits("pistar", 3)[2]
    index = rookdual.semigroups._family_index("pistar", 3)
    cols, empty = _columns(3), index[()]

    def edit(perm):
        perm[rows[-1]] = perm[empty]
        return perm

    _corrupt_orbits(monkeypatch, 0, edit)
    cell = DeformationCell(3)
    images, _, equivariant, inverse_ok = cell._map(map_name)
    twice = {x for x, image in enumerate(images) if image.count(empty) > 1}
    assert twice and not twice & set(rows + cols)
    assert equivariant is False and inverse_ok is False
    assert cell.homomorphism(map_name).homomorphism_ok is False


SUPPORT_SUMS = {"coarsening_sum": "hat_consistency", "block_subset_sum": "tilde_factorization"}


def _verdicts(cell, map_name):
    """Every verdict that reads the map's images: the homomorphism check and
    the map's support sum at n = 2."""
    return (
        cell.homomorphism(map_name).homomorphism_ok,
        getattr(cell, SUPPORT_SUMS[map_name])(2).homomorphism_ok,
    )


def _check_a_swap_fixing(monkeypatch, map_name, text, side):
    """Corrupt the swap's permutation on ``side`` to fix the element of
    ``text`` and its partner, neither a row nor a column representative,
    instead of exchanging them.  Assert that only that side's half of the
    certificate rejects the moved images, that every verdict reading them
    is False, and that each would pass with the certificate taken away."""
    k = 3
    top, bottom, rows = rookdual.semigroups._family_orbits("pistar", k)[:3]
    index = rookdual.semigroups._family_index("pistar", k)
    u = index[parse_element(text, "pistar", k).code]
    cols = _columns(k)
    v = (top, bottom)[side][0][u]
    assert u != v and not {u, v} & set(rows + cols)

    def edit(perm):
        perm[u], perm[v] = u, v
        return perm

    _corrupt_orbits(monkeypatch, side, edit)
    cell = DeformationCell(k)
    assert _certificate_halves(cell, map_name) == ((False, True) if side == 0 else (True, False))
    assert _verdicts(cell, map_name) == (False, False)
    images, values, _, inverse_ok = cell._map(map_name)
    cell._parts[map_name] = images, values, True, inverse_ok
    assert _verdicts(cell, map_name) == (True, True)


@pytest.mark.parametrize("map_name", sorted(MAPS))
def test_homomorphism_catches_a_fault_only_the_bottom_certificate_sees(map_name, monkeypatch):
    """At k = 3 the bottom swap exchanges {1,3,3'}|{2,1'} and
    {1,3,3'}|{2,2'}.  A bottom-swap permutation corrupted to fix both moves
    the images along its tree edges wrongly.  The moved images stay
    equivariant under the top permutations and break under the bottom ones.
    The row check and the support sum at n = 2 both pass them, so only the bottom half of the certificate rejects the
    corrupted permutation, and every verdict is False."""
    _check_a_swap_fixing(monkeypatch, map_name, "{1,3,3'}|{2,1'}", 1)


@pytest.mark.parametrize("map_name", sorted(MAPS))
def test_homomorphism_catches_a_fault_only_the_top_certificate_sees(map_name, monkeypatch):
    """The mirror fault: a top-swap permutation corrupted to fix {1,1',3'}
    and {2,1',3'}, which the top swap exchanges, keeps the moved images
    equivariant under the bottom permutations and breaks them under the top
    ones; the other checks pass them, so only the top half of the
    certificate rejects it, and every verdict is False."""
    _check_a_swap_fixing(monkeypatch, map_name, "{1,1',3'}", 0)


def _dict_homomorphism(cell, map_name, pairs):
    """The oracle's verdict, through the functions ``rookdual.morphisms``
    looks up, so a fault patched there reaches both routes."""
    return homomorphism_by_dicts(
        cell.elements,
        getattr(rookdual.morphisms, WALKS[map_name]),
        getattr(rookdual.morphisms, MAPS[map_name]),
        rookdual.morphisms.star_codes,
        pairs,
    )


ROW_CASES = [(k, m, f) for k in (1, 2) for m in sorted(MAPS) for f in ("none", "product", "star")]
ROW_CASES += [(3, m, f) for m in sorted(MAPS) for f in ("none", "twice")]


@pytest.mark.parametrize("k,map_name,fault", ROW_CASES)
def test_row_check_agrees_with_the_dict_oracle(k, map_name, fault, monkeypatch):
    """Every pair at k <= 2 right or faulted, and at k = 3 right or with
    the empty diagram listed twice in the images of one whole two-sided
    orbit, which the row check reads at its representative: the encoded
    row check over the orbit representatives, on images moved from their
    walks, and the per-pair coefficient dicts over all pairs, on every
    element's walk, which count every term as often as the walk lists it,
    give the same verdict."""
    FAULTS[fault](monkeypatch, k, map_name)
    cell = DeformationCell(k)
    pairs = itertools.product(range(len(cell.elements)), repeat=2)
    verdict = cell.homomorphism(map_name).homomorphism_ok
    assert verdict == _dict_homomorphism(cell, map_name, pairs) == (fault == "none")


@pytest.mark.parametrize("map_name", sorted(MAPS))
def test_sampled_check_agrees_with_the_dict_oracle_at_k4(map_name):
    """The row check's verdict over every pair at k = 4 and the dict
    oracle's on 1,000 pairs seeded with 2024, as many as it checks in a
    few seconds."""
    cell = DeformationCell(4)
    n = len(cell.elements)
    rng = random.Random(2024)
    pairs = [(rng.choice(range(n)), rng.choice(range(n))) for _ in range(1000)]
    verdict = cell.homomorphism(map_name).homomorphism_ok
    assert verdict == _dict_homomorphism(cell, map_name, pairs) is True


@pytest.mark.parametrize("map_name", sorted(MAPS))
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_transported_images_equal_the_walked_ones(k, map_name):
    """The naturality lemma the transport rests on: the walks OR masks and
    never read a point's label, so the images moved along the orbit tree
    from the representatives' walks are the walks of every element of
    P*_k, as multisets of (term, closed-form inverse value) pairs."""
    cell = DeformationCell(k)
    images, values, equivariant, inverse_ok = cell._map(map_name)
    assert equivariant and inverse_ok
    walked = walked_images(cell.elements, getattr(rookdual.morphisms, WALKS[map_name]))
    assert [Counter(zip(image, value)) for image, value in zip(images, values)] == walked


@pytest.mark.parametrize("map_name", sorted(MAPS))
def test_the_naturality_pin_catches_a_walk_fault_off_the_representatives(map_name, monkeypatch):
    """At k = 3 a walk that lists the empty diagram twice in the image of
    the last element that is neither a row nor a column representative is
    not natural.  The transport never walks that element, so every verdict
    passes; the walk of every element differs from the moved images there
    and nowhere else.  The verdicts cover the maps as the walks define them
    only because the pin holds."""
    cell = DeformationCell(3)
    rows, cols = rookdual.semigroups._family_orbits("pistar", 3)[2], _columns(3)
    chosen = max(set(range(len(cell.elements))) - set(rows) - set(cols))
    _repeat_empty_in(monkeypatch, map_name, cell.elements[chosen].__eq__)
    images, values, equivariant, inverse_ok = cell._map(map_name)
    walked = walked_images(cell.elements, getattr(rookdual.morphisms, WALKS[map_name]))
    moved = [Counter(zip(image, value)) for image, value in zip(images, values)]
    assert [x for x in range(len(moved)) if moved[x] != walked[x]] == [chosen]
    assert equivariant and inverse_ok and cell.homomorphism(map_name).homomorphism_ok


@pytest.mark.parametrize("k", [3, 4])
def test_hat_consistency_sees_a_term_only_where_n_covers_its_blocks(k):
    """The hat matrix of a diagram with more than n blocks is zero on U(n, k),
    so ``hat_consistency(n)`` reads only the terms with at most n blocks,
    and every term at n >= k.  The identity's own term, with k blocks,
    dropped from its coarsening-sum image after the map is built, is
    missed at every n < k and caught at n = k."""
    cell = DeformationCell(k)
    images = cell._map("coarsening_sum")[0]
    identity = cell.index[SetPartition.identity(k).code]
    images[identity] = tuple(t for t in images[identity] if t != identity)
    verdicts = [cell.hat_consistency(n).homomorphism_ok for n in range(1, k + 1)]
    assert verdicts == [True] * (k - 1) + [False]


def _kill(targets):
    """Kill the last tensor the tuple keeps."""
    c = max(c for c, t in enumerate(targets) if t >= 0)
    return targets[:c] + (-1,) + targets[c + 1 :]


def _swap(targets):
    """Exchange the outputs of the first two tensors the tuple keeps."""
    c, e = [c for c, t in enumerate(targets) if t >= 0][:2]
    wrong = list(targets)
    wrong[c], wrong[e] = targets[e], targets[c]
    return tuple(wrong)


def _keep(targets):
    """Keep the first tensor the tuple kills, in place; on the hat action
    of the identity at U(2, 2) that is (0, 0), which the empty diagram's
    hat action already keeps."""
    c = targets.index(-1)
    return targets[:c] + (c,) + targets[c + 1 :]


EDITS = {"kill": _kill, "swap": _swap, "keep": _keep}


def _corrupt_targets(monkeypatch, variant, edit=_kill, victim=SetPartition.identity(2)):
    """Make the action of ``victim`` (the identity at k = 2) under one
    variant go wrong by ``edit`` of its target tuple, in the coordinate
    rows dst*d + src of ``_action_rows``.  Under tilde the edit reaches the
    rows of the tilde pass.  Under hat it reaches the orbit rows of every
    pass, which are the hat rows: ``DeformationCell`` reads them off its
    plain pass, and ``action_targets(..., "hat")`` as the rows of the hat
    pass."""
    right = rookdual.tensor_actions._action_rows

    def wrong(elements, space, v, unguarded, sums=False):
        d = space.dimension
        for element, pair in zip(elements, right(elements, space, v, unguarded, sums)):
            if element == victim:  # (rows, orbit), each edited where the variant reads it
                hit = v == variant, variant == "hat"
                pair = [_edited(rows, d, edit) if h else rows for rows, h in zip(pair, hit)]
            yield pair

    monkeypatch.setattr(rookdual.tensor_actions, "_action_rows", wrong)
    monkeypatch.setattr(rookdual.morphisms, "_action_rows", wrong)


def _edited(rows, d, edit):
    """The coordinate rows of ``edit`` of the target tuple that ``rows`` fill."""
    targets = edit(rookdual.tensor_actions._fill(d, rows))
    return [t * d + c for c, t in enumerate(targets) if t >= 0]


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_hat_consistency_catches_a_corrupt_tuple(edit, monkeypatch):
    _corrupt_targets(monkeypatch, "hat", EDITS[edit])
    assert DeformationCell(2).hat_consistency(2).homomorphism_ok is False


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_tilde_factorization_catches_a_corrupt_tuple(edit, monkeypatch):
    _corrupt_targets(monkeypatch, "tilde", EDITS[edit])
    assert DeformationCell(2).tilde_factorization(2).homomorphism_ok is False


def test_tilde_factorization_catches_a_coefficient_two(monkeypatch):
    """A block subset sum walk that lists the empty diagram twice in the
    identity's image no longer gives the tilde action."""
    _repeat_empty_in(monkeypatch, "block_subset_sum")
    assert DeformationCell(2).tilde_factorization(2).homomorphism_ok is False


def _dict_verdicts(cell, n):
    """Both identities checked on coefficient dicts by the oracle, from
    target tuples read through ``rookdual.tensor_actions.action_targets``."""
    space = ActionSpace("U", n, cell.k)
    plain, hat, tilde = (
        [rookdual.tensor_actions.action_targets(a, space, v) for a in cell.elements]
        for v in ("plain", "hat", "tilde")
    )
    return (
        hat_consistency_by_dicts(cell.elements, plain, hat),
        tilde_factorization_by_dicts(cell.elements, hat, tilde),
    )


def _support_verdicts(cell, n):
    return (
        cell.hat_consistency(n).homomorphism_ok,
        cell.tilde_factorization(n).homomorphism_ok,
    )


def _element_verdicts(cell, own):
    """Both identities checked on every element by the oracle, from the
    supports ``own`` of ``_natural_supports`` and the walked images."""

    def walked(map_name):  # each element's term indices, each listed once per unit
        walk = getattr(rookdual.morphisms, WALKS[map_name])
        return [[t for t, _ in c.elements()] for c in walked_images(cell.elements, walk)]

    return (
        support_sums_by_element(walked("coarsening_sum"), own["plain"], own["hat"]),
        support_sums_by_element(walked("block_subset_sum"), own["tilde"], own["hat"]),
    )


def _natural_supports(cell, n):
    """Each element's plain, tilde and hat supports on U(n, k) as
    ``rookdual.morphisms._action_rows`` expands them (``own``, the hat ones
    the plain pass's orbit rows); the same moved from the two-sided
    representatives' own along the orbit tree of ``_family_orbits``, a
    top (bottom) generator permuting the input (output) positions of every
    coordinate (``moved``); and whether the moved supports are equivariant
    on every edge, g supp(x) = supp(g x) for every generator g and element
    x.  Each support is sorted."""
    space, k = ActionSpace("U", n, cell.k), cell.k
    d = space.dimension
    plain, tilde = (
        list(rookdual.morphisms._action_rows(cell.elements, space, v, False))
        for v in ("plain", "tilde")
    )
    own = {
        "plain": [sorted(rows) for rows, _ in plain],
        "hat": [sorted(orbit) for _, orbit in plain],
        "tilde": [sorted(rows) for rows, _ in tilde],
    }
    top, bottom, rows, _, tree, _ = rookdual.semigroups._family_orbits("pistar", k)
    moves = [tensor_moves(m, n, k) for m in dict.fromkeys(map(tuple, generator_moves(k)))]
    steps = [  # each generator on the coordinates dst*d + src, top then bottom
        *(lambda c, t=t: c - c % d + t[c % d] for t in moves),
        *(lambda c, t=t: t[c // d] * d + c % d for t in moves),
    ]
    moved = {variant: [None] * len(cell.elements) for variant in own}
    equivariant = True
    for variant, supports in own.items():
        for a in rows:
            moved[variant][a] = supports[a]
        for x, g, y in tree:
            moved[variant][x] = sorted(map(steps[g], moved[variant][y]))
        equivariant &= all(
            sorted(map(step, moved[variant][a])) == moved[variant][perm[a]]
            for step, perm in zip(steps, top + bottom)
            for a in range(len(cell.elements))
        )
    return own, moved, equivariant


@pytest.mark.parametrize("n,k", list(itertools.product((1, 2, 3), (1, 2, 3, 4))))
def test_expansions_are_natural(n, k):
    """The lemma the support sums rest on: ``_acted`` and ``_expand`` read a
    block's points only through per-position weights, so permuting the top
    (bottom) points permutes the input (output) positions of every plain,
    tilde and hat row, supp(g x) = g supp(x).  Every element's own
    supports equal those moved from its representative along the orbit
    tree, and the moved ones are equivariant on every edge."""
    own, moved, equivariant = _natural_supports(DeformationCell(k), n)
    assert equivariant and own == moved


@pytest.mark.parametrize("n,k", [*itertools.product((1, 2, 3), (1, 2, 3)), (2, 4)])
def test_support_sums_agree_with_the_dict_oracle(n, k):
    """The support sums, compared at the representatives, read as the
    identities do on every element, by coefficient dicts and by sorted
    supports."""
    cell = DeformationCell(k)
    own = _natural_supports(cell, n)[0]
    assert _support_verdicts(cell, n) == _dict_verdicts(cell, n) == (True, True)
    assert _element_verdicts(cell, own) == (True, True)


def test_the_support_pin_catches_a_tilde_fault_off_the_representatives(monkeypatch):
    """At k = 3 the tilde rows of the last element that is not a two-sided
    representative, with one tensor killed, are not natural.  The support
    sums never expand that element under tilde, so every verdict passes;
    the every-element oracle fails, and the element's own supports differ
    from the moved ones there and nowhere else.  The verdicts cover every
    element only because the pin holds."""
    rows = rookdual.semigroups._family_orbits("pistar", 3)[2]
    cell = DeformationCell(3)
    chosen = max(set(range(len(cell.elements))) - set(rows))
    _corrupt_targets(monkeypatch, "tilde", _kill, cell.elements[chosen])
    for map_name in sorted(MAPS):
        report = cell.homomorphism(map_name)
        assert report.homomorphism_ok and report.inverse_ok
    assert _support_verdicts(cell, 2) == (True, True)
    own, moved, equivariant = _natural_supports(cell, 2)
    assert equivariant
    assert _element_verdicts(cell, own) == (True, False)
    unnatural = [(v, x) for v in own for x, s in enumerate(own[v]) if s != moved[v][x]]
    assert unnatural == [("tilde", chosen)]


@pytest.mark.parametrize("variant,verdict", [("hat", 0), ("tilde", 1)])
def test_support_sums_and_the_dict_oracle_both_catch_a_swap(variant, verdict, monkeypatch):
    """Swapping two outputs of the identity's hat tuple spoils
    ``hat_consistency``, of its tilde tuple ``tilde_factorization``."""
    _corrupt_targets(monkeypatch, variant, _swap)
    cell = DeformationCell(2)
    assert _support_verdicts(cell, 2)[verdict] is False
    assert _dict_verdicts(cell, 2)[verdict] is False


def test_inverse_ok_catches_a_wrong_mobius_value(monkeypatch):
    """A Moebius value off by one on the empty diagram spoils the
    closed-form inverse: its round trip is no longer the basis element.
    The closed form reads its values off the walk of the up-set, so the
    walk is corrupted."""
    right = rookdual.morphisms._upper_set_with_mobius

    def wrong(alpha):
        for code, value in right(alpha):
            yield code, value + (0 if code else 1)

    monkeypatch.setattr(rookdual.morphisms, "_upper_set_with_mobius", wrong)
    assert DeformationCell(2).homomorphism("coarsening_sum").inverse_ok is False
    assert DeformationCell(2).hat_consistency(2).inverse_ok is False


def test_inverse_ok_catches_a_flipped_sign(monkeypatch):
    """A block subset sum walk with the sign of its empty-diagram term
    flipped gives an inverse that no longer inverts the block subset
    sum."""
    right = rookdual.morphisms._subsets_with_sign

    def wrong(alpha):
        for code, sign in right(alpha):
            yield code, -sign if not code else sign

    monkeypatch.setattr(rookdual.morphisms, "_subsets_with_sign", wrong)
    assert DeformationCell(2).homomorphism("block_subset_sum").inverse_ok is False
    assert DeformationCell(2).tilde_factorization(2).inverse_ok is False


def test_inverse_ok_catches_an_extra_term(monkeypatch):
    """An up-set walk with one term too many, the identity listed after
    the empty diagram in the empty diagram's walk, no longer carries the
    empty diagram back to itself, although the extra term's image is
    stored after the empty diagram's."""
    right = rookdual.morphisms._upper_set_with_mobius

    def wrong(alpha):
        yield from right(alpha)
        if not alpha.blocks:
            yield SetPartition.identity(alpha.k).code, 1

    monkeypatch.setattr(rookdual.morphisms, "_upper_set_with_mobius", wrong)
    assert DeformationCell(2).homomorphism("coarsening_sum").inverse_ok is False


def test_inverse_ok_catches_a_wrong_forward_image(monkeypatch):
    """The round trip sums the stored images of the inverse's terms, so
    an up-set walk that forgets the empty diagram in the identity's image
    spoils it."""
    right = rookdual.morphisms._upper_set_with_mobius

    def wrong(alpha):
        for code, value in right(alpha):
            if code or alpha != SetPartition.identity(alpha.k):
                yield code, value

    monkeypatch.setattr(rookdual.morphisms, "_upper_set_with_mobius", wrong)
    assert DeformationCell(2).homomorphism("coarsening_sum").inverse_ok is False
