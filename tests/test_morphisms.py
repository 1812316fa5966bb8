"""The two change-of-basis maps into the zero-adjoined algebra, their
inverses, and the exact matrix identities tying the three U-actions
together."""

import itertools
import random
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
    hat_consistency_by_dicts,
    homomorphism_by_dicts,
    tilde_factorization_by_dicts,
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


def test_homomorphism_reports_sampled_k3():
    for name in ("coarsening_sum", "block_subset_sum"):
        report = DeformationCell(3).homomorphism(name, sample_pairs=2000, seed=7)
        assert report.homomorphism_ok and report.inverse_ok
        assert report.pairs_checked == 2000


def test_morphism_report_rejects_unknown_map():
    with pytest.raises(ValueError):
        DeformationCell(2).homomorphism("zeta")


@pytest.mark.parametrize("sample_pairs", [0, -3])
@pytest.mark.parametrize("map_name", ["coarsening_sum", "block_subset_sum"])
def test_homomorphism_refuses_a_sample_below_one(map_name, sample_pairs):
    """A sample of no pairs checks nothing, so it is refused rather than
    reported as a pass; one pair is the smallest sample."""
    cell = DeformationCell(2)
    with pytest.raises(ValueError, match="sample_pairs must be at least 1"):
        cell.homomorphism(map_name, sample_pairs=sample_pairs)
    assert cell.homomorphism(map_name, sample_pairs=1).pairs_checked == 1


def _natural_cases():
    """Every pair of P*_k for k <= 3; at k = 4 the 1,000 pairs the CLI
    samples (seed 2024) and 10,000 more seeded pairs."""
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


def _mask_images(g, k):
    """Each mask's image under the permutation g of the points 0..k-1, by mask."""
    return [sum(1 << g[i] for i in range(k) if m >> i & 1) for m in range(1 << k)]


def _generator_moves(k):
    """The mask images of the swap and the k-cycle (none at k = 1)."""
    gens = [(1, 0, *range(2, k)), (*range(1, k), 0)] if k > 1 else []
    return [_mask_images(g, k) for g in gens]


def _permuted(code, moved, side):
    """The code with its in-masks (side 0, the top points) or out-masks
    (side 1, the bottom points) sent through ``moved``, re-sorted."""
    return tuple(sorted((moved[i], o) if side == 0 else (i, moved[o]) for i, o in code))


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
        moves = _generator_moves(k)
        for a, b in itertools.product(codes, repeat=2):
            ab = multiply(a, b)
            for moved in moves:
                for side, left, right in ((0, _permuted(a, moved, 0), b), (1, a, _permuted(b, moved, 1))):
                    expected = None if ab is None else _permuted(ab, moved, side)
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
        moves = _generator_moves(k)
        for a, b in itertools.product(codes, repeat=2):
            ab = multiply(a, b)
            for moved in moves:
                assert multiply(_permuted(a, moved, 1), _permuted(b, moved, 0)) == ab, (k, a, b)


ROW_ORBITS = {1: 2, 2: 6, 3: 16, 4: 43}


@pytest.mark.parametrize("k,count", [(1, 2), (2, 8), (3, 41), (4, 252)])
def test_representatives_are_one_per_orbit(k, count):
    """The ``"orbits"`` part holds the index permutations of P*_k by the
    swap and the k-cycle of the top points and of the bottom points; as
    rows, the first element in index order of each two-sided S_k x S_k
    orbit (both sides permuted): 2, 6, 16 and 43 at k = 1..4; and as
    columns, the same of each S_k orbit of the bottom points: 2, 8, 41 and
    252.  The orbits, closed under all of S_k (on both sides for the rows)
    here, partition P*_k, and each holds exactly one representative."""
    cell = DeformationCell(k)
    codes = list(cell.index)
    top, bottom, rows, cols = cell._part("orbits", cell._orbits)
    moves = _generator_moves(k)
    group = [_mask_images(g, k) for g in itertools.permutations(range(k))]
    for side, perms in ((0, top), (1, bottom)):
        assert {tuple(p) for p in perms} == {
            tuple(cell.index[_permuted(c, moved, side)] for c in codes) for moved in moves
        }
    row_orbits = {
        frozenset(cell.index[_permuted(_permuted(c, s, 0), t, 1)] for s in group for t in group)
        for c in codes
    }
    col_orbits = {frozenset(cell.index[_permuted(c, moved, 1)] for moved in group) for c in codes}
    for reps, orbits, size in ((rows, row_orbits, ROW_ORBITS[k]), (cols, col_orbits, count)):
        assert len(reps) == len(orbits) == size
        assert sum(map(len, orbits)) == len(codes)
        assert all(len(orbit & set(reps)) == 1 for orbit in orbits)
        assert reps == sorted(min(orbit) for orbit in orbits)


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
    return {p for a in cell._part("orbits", cell._orbits)[2] for p in images[a]}


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
    cell._part("orbits", cell._orbits)
    cell.index = _CountedIndex(cell.index)
    assert cell.homomorphism(map_name).homomorphism_ok
    domain = [r for r in relabels if r[0] == "domain"]
    star = [r for r in relabels if r[0] == "star"]
    assert 0 < len(domain) <= 16 * 15
    assert len(star) == len(_terms_read(cell, map_name)) == TERMS_READ[map_name]
    assert 0 < len(star_calls) <= 15
    assert all(_is_generic(a, b) for a, b in star_calls)
    assert cell.index.lookups == LOOKUPS[map_name]


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


def test_sampling_is_seed_deterministic():
    a = DeformationCell(3).homomorphism("coarsening_sum", sample_pairs=100, seed=3)
    b = DeformationCell(3).homomorphism("coarsening_sum", sample_pairs=100, seed=3)
    assert a == b


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
    the exhaustive check at k = 2 and at k = 4, whose columns span all 52
    in-keys, and in the pairs relabelled one by one among 2,000 seeded
    ones at k = 3."""
    right = getattr(rookdual.semigroups, product)
    for k, sample_pairs in ((2, None), (3, 2000), (4, None)):
        identity = [1 << i for i in range(k)]

        def wrong(a, b, identity=identity):
            ab = right(a, b)
            return ab[:-1] if sorted(o for _, o in a) == identity else ab

        monkeypatch.setattr(rookdual.morphisms, product, wrong)
        report = DeformationCell(k).homomorphism(map_name, sample_pairs, seed=7)
        assert report.homomorphism_ok is False, k
        assert report.inverse_ok is True


@pytest.mark.parametrize("map_name", ["coarsening_sum", "block_subset_sum"])
def test_homomorphism_catches_a_star_product_wrong_on_one_shape(map_name, monkeypatch):
    """A star product that drops the last block only when the left
    factor's out-masks are those of the identity is wrong on one middle
    shape; its recipe carries the fault to every star product of that
    shape, in the exhaustive star rows at k = 2 and at k = 4, whose
    columns span all 52 in-keys, and in the products relabelled one by
    one among 2,000 seeded pairs at k = 3."""
    right = rookdual.semigroups.star_codes
    for k, sample_pairs in ((2, None), (3, 2000), (4, None)):
        identity = [1 << i for i in range(k)]

        def wrong(a, b, identity=identity):
            ab = right(a, b)
            return ab[:-1] if ab and sorted(o for _, o in a) == identity else ab

        monkeypatch.setattr(rookdual.morphisms, "star_codes", wrong)
        report = DeformationCell(k).homomorphism(map_name, sample_pairs, seed=7)
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


def _repeat_empty_off_the_representatives(monkeypatch, k, map_name):
    """``_repeat_empty_in`` the last element of P*_k that is neither a row
    nor a column representative of the exhaustive check."""
    cell = DeformationCell(k)
    _, _, rows, cols = cell._part("orbits", cell._orbits)
    chosen = cell.elements[max(set(range(len(cell.elements))) - set(rows) - set(cols))]
    _repeat_empty_in(monkeypatch, map_name, lambda k: chosen)


FAULTS = {
    "none": lambda *args: None,
    "star": _wrong_star,
    "product": _last_block_product,
    "twice": _repeat_empty_off_the_representatives,
}


@pytest.mark.parametrize("sample_pairs", [None, 2000])
@pytest.mark.parametrize("map_name", sorted(MAPS))
def test_homomorphism_catches_a_star_product_wrong_on_one_pair(
    map_name, sample_pairs, monkeypatch
):
    """The codes of {1,1'} are also the generic codes of the middle row
    {1}, so a star product wrong only on that pair of codes spoils the
    recipe of that row, and through it every star product whose middle
    row is {1}: at k = 3 the terms with out-key {1} times those with
    in-key {1}.  The row check and the sampled check both fail."""
    _wrong_star(monkeypatch, 3)
    report = DeformationCell(3).homomorphism(map_name, sample_pairs, seed=7)
    assert report.homomorphism_ok is False
    assert report.inverse_ok is True


WALKS = {"coarsening_sum": "_upper_set_with_mobius", "block_subset_sum": "_subsets_with_sign"}


def _repeat_empty_in(monkeypatch, map_name, chosen=SetPartition.identity):
    """Make the map's walk list the empty diagram twice in the image of
    ``chosen(k)``, the identity by default, so its forward image counts it
    with coefficient 2."""
    right = getattr(rookdual.morphisms, WALKS[map_name])

    def wrong(alpha):
        for code, value in right(alpha):
            yield code, value
            if alpha == chosen(alpha.k) and not code:
                yield code, value

    monkeypatch.setattr(rookdual.morphisms, WALKS[map_name], wrong)


@pytest.mark.parametrize("sample_pairs", [None, 200])
@pytest.mark.parametrize("map_name", sorted(MAPS))
def test_homomorphism_catches_a_coefficient_two(map_name, sample_pairs, monkeypatch):
    """A walk that lists the empty diagram twice in the identity's image
    gives an image that is no 0/1 combination; the integer encoding is
    exact on it too, so the verdict is False, not a silent pass."""
    _repeat_empty_in(monkeypatch, map_name)
    report = DeformationCell(2).homomorphism(map_name, sample_pairs=sample_pairs)
    assert report.homomorphism_ok is False


@pytest.mark.parametrize("map_name", sorted(MAPS))
def test_homomorphism_catches_a_coefficient_two_off_the_representatives(map_name, monkeypatch):
    """At k = 3 a walk that lists the empty diagram twice in the image of
    an element that is neither a row nor a column representative spoils
    the equivariance certificate, so the exhaustive verdict is False."""
    _repeat_empty_off_the_representatives(monkeypatch, 3, map_name)
    assert DeformationCell(3).homomorphism(map_name).homomorphism_ok is False


def _drop_own_term_on_orbit(monkeypatch, map_name, text, side):
    """Make the map's walk leave each element of the S_3 orbit of ``text``
    (its top points permuted on side 0, its bottom points on side 1) out
    of its own image.  The fault is equivariant on ``side``, since each
    permutation there carries an element of the orbit and its own term
    together, so only the certificate of the other side can see it."""
    code = parse_element(text, "pistar", 3).code
    group = [_mask_images(g, 3) for g in itertools.permutations(range(3))]
    orbit = {_permuted(code, moved, side) for moved in group}
    right = getattr(rookdual.morphisms, WALKS[map_name])

    def wrong(alpha):
        return ((c, v) for c, v in right(alpha) if not (alpha.code in orbit and c == alpha.code))

    monkeypatch.setattr(rookdual.morphisms, WALKS[map_name], wrong)
    return orbit


@pytest.mark.parametrize("map_name", sorted(MAPS))
def test_homomorphism_catches_a_fault_only_the_bottom_certificate_sees(map_name, monkeypatch):
    """At k = 3 the elements {i,1',3'} form one S_3 orbit of top points,
    none of them a row or column representative or a product of a checked
    pair.  Leaving each out of its own image keeps the images equivariant
    on the top side and breaks them on the bottom side, so only the
    bottom half of the certificate rejects it, and the verdict is False."""
    orbit = _drop_own_term_on_orbit(monkeypatch, map_name, "{1,1',3'}", 0)
    cell = DeformationCell(3)
    _, _, rows, cols = cell._part("orbits", cell._orbits)
    assert not {cell.index[c] for c in orbit} & set(rows + cols)
    assert cell.homomorphism(map_name).homomorphism_ok is False


@pytest.mark.parametrize("map_name", sorted(MAPS))
def test_homomorphism_catches_a_fault_only_the_top_certificate_sees(map_name, monkeypatch):
    """The mirror fault: leaving each of the S_3 orbit {1,3,j'} of bottom
    points out of its own image keeps the images equivariant on the bottom
    side and breaks them on the top side.  A bottom-equivariant fault
    reaches the column representative of its orbit, here {1,3,1'}, but the
    checked pairs read it alike on both sides: under the coarsening sum
    only the identity's row meets that column, through its term
    {1,3,1',3'}, and the identity times {1,3,1'} is {1,3,1'}, so both
    sides lose the same term; under the block subset sum no checked row
    meets it.  Only the top half of the certificate rejects the fault, and
    the verdict is False."""
    orbit = _drop_own_term_on_orbit(monkeypatch, map_name, "{1,3,1'}", 1)
    cell = DeformationCell(3)
    _, _, rows, cols = cell._part("orbits", cell._orbits)
    first = cell.index[parse_element("{1,3,1'}", "pistar", 3).code]
    assert {cell.index[c] for c in orbit} & set(rows + cols) == {first}
    assert cell.homomorphism(map_name).homomorphism_ok is False


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
    the empty diagram listed twice off the representatives: the encoded
    row check over the orbit representatives and the per-pair coefficient
    dicts over all pairs, which count every term as often as the walk
    lists it, give the same verdict."""
    FAULTS[fault](monkeypatch, k, map_name)
    cell = DeformationCell(k)
    pairs = itertools.product(range(len(cell.elements)), repeat=2)
    verdict = cell.homomorphism(map_name).homomorphism_ok
    assert verdict == _dict_homomorphism(cell, map_name, pairs) == (fault == "none")


@pytest.mark.parametrize("map_name", sorted(MAPS))
def test_sampled_check_agrees_with_the_dict_oracle_at_k4(map_name):
    """The 1,000 pairs the CLI samples at k = 4 (seed 2024)."""
    cell = DeformationCell(4)
    n = len(cell.elements)
    rng = random.Random(2024)
    pairs = [(rng.choice(range(n)), rng.choice(range(n))) for _ in range(1000)]
    verdict = cell.homomorphism(map_name, sample_pairs=1000).homomorphism_ok
    assert verdict == _dict_homomorphism(cell, map_name, pairs) is True


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


def _corrupt_targets(monkeypatch, variant, edit=_kill):
    """Make the action of the identity under one variant go wrong by
    ``edit`` of its target tuple, in the coordinate rows dst*d + src of
    ``_action_rows``.  Under tilde the edit reaches the rows of the tilde
    pass.  Under hat it reaches the orbit rows of every pass, which are
    the hat rows: ``DeformationCell`` reads them off its plain pass, and
    ``action_targets(..., "hat")`` as the rows of the hat pass."""
    right = rookdual.tensor_actions._action_rows
    ident = SetPartition.identity(2)

    def wrong(elements, space, v, unguarded, sums=False):
        d = space.dimension
        for element, pair in zip(elements, right(elements, space, v, unguarded, sums)):
            if element == ident:  # (rows, orbit), each edited where the variant reads it
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


@pytest.mark.parametrize("n,k", [*itertools.product((1, 2, 3), (1, 2, 3)), (2, 4)])
def test_support_sums_agree_with_the_dict_oracle(n, k):
    cell = DeformationCell(k)
    assert _support_verdicts(cell, n) == _dict_verdicts(cell, n) == (True, True)


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
