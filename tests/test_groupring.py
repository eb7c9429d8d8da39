"""Group-ring arithmetic, Fox derivatives, and the mod-p filtration.

The two filtration routes (direct membership in powers of the augmentation
ideal vs the commutator-and-power recursion) are compared level by level,
and the certificate that proves the recursion's chain is shown to refuse
tampered chains.
"""

from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from qrlab import groupring
from qrlab.errors import InputError, PropertyViolation
from qrlab.presentation import parse_presentation
from qrlab.enumeration import is_normal, prime_power, todd_coxeter, word_image
from qrlab.groupring import (
    delta_dimension_sequence,
    delta_filtration,
    dimension_subgroup_chain,
    fox_rows,
    jennings_series,
    right_translate,
)
from qrlab.intlinalg import ModpSpan

from conftest import ORDER32_DIR, P_GROUPS, ladder_inputs
from reference import (
    conjugation_jennings_series,
    dense_rref,
    dimension_subgroup,
    full_depth_dimension_chain,
    gr_multiply,
    jennings_delta_dims as _jennings_delta_dims,
    left_translate,
)

FROZEN_DELTA_DIMS = {
    "gens: a; relators: a^4; prime: 2": [3, 2, 1, 0],
    "gens: a; relators: a^2; prime: 2": [1, 0],
    "gens: a; relators: a^9; prime: 3": [8, 7, 6, 5, 4, 3, 2, 1, 0],
    "gens: a, b; relators: a^2, b^2, a*b*a^-1*b^-1; prime: 2": [3, 1, 0],
    "gens: a, b; relators: a*b*a*b^-1, b*a*b*a^-1; prime: 2": [7, 5, 3, 1, 0],
}


@pytest.mark.parametrize("text", sorted(FROZEN_DELTA_DIMS))
def test_delta_dimension_sequences(group, text):
    pres, tbl = group(text)
    assert delta_dimension_sequence(tbl, pres.primes[0]) == FROZEN_DELTA_DIMS[text]


@pytest.mark.parametrize("text,p", P_GROUPS)
def test_filtration_two_routes_agree(group, text, p):
    _, tbl = group(text)
    series = jennings_series(tbl, p)
    for n, sub in enumerate(series, start=1):
        direct = dimension_subgroup(tbl, p, n)
        assert set(direct.members) == set(sub.members), f"level {n}"


@pytest.mark.parametrize("text,p", P_GROUPS)
def test_filtration_shape(group, text, p):
    _, tbl = group(text)
    chain = dimension_subgroup_chain(tbl, p)
    assert set(chain[0].members) == set(range(tbl.order))
    assert chain[-1].members == (0,)
    prod = 1
    for hi, lo in zip(chain, chain[1:]):
        assert set(lo.members) <= set(hi.members)
        assert is_normal(tbl, hi)
        prod *= len(hi.members) // len(lo.members)
    assert prod == tbl.order


@pytest.mark.parametrize("text,p", P_GROUPS)
def test_delta_dims_track_the_power_bases(group, text, p):
    _, tbl = group(text)
    dims = delta_dimension_sequence(tbl, p)
    assert dims[0] == tbl.order - 1
    assert dims[-1] == 0
    assert all(x > y for x, y in zip(dims, dims[1:]))
    assert [len(span.rows) for span in delta_filtration(tbl, p)] == dims


# --- the lazy chain against the full-depth reference --------------------

LADDER = ladder_inputs()


@pytest.mark.parametrize("name,text", LADDER, ids=[n for n, _ in LADDER])
def test_chain_matches_the_full_depth_reference(group, name, text):
    """Members and generators of every D_n as the whole filtration and a
    test of every member of D_(n-1) give them; a repeated term is the very
    object before it; and Jennings' Hilbert series, read off the chain,
    predicts the dimension of every power, also those the chain never
    builds."""
    pres, tbl = group(text)
    for p in pres.primes:
        chain = dimension_subgroup_chain(tbl, p)
        assert [(s.members, s.generators) for s in chain] == full_depth_dimension_chain(tbl, p)
        for hi, lo in zip(chain, chain[1:]):
            assert (hi is lo) == (hi.members == lo.members)
        assert _jennings_delta_dims(chain, p) == delta_dimension_sequence(tbl, p)


@pytest.mark.parametrize("name,text", LADDER, ids=[n for n, _ in LADDER])
def test_jennings_series_matches_the_all_conjugations_recursion(group, name, text):
    """The commutator term grown from the generators of D_(n-1) and the
    generator images gives the members that every [d, g], d in D_(n-1) and
    g in G, give."""
    pres, tbl = group(text)
    for p in pres.primes:
        assert [s.members for s in jennings_series(tbl, p)] == \
            conjugation_jennings_series(tbl, p)


def _certified_dims(monkeypatch, tbl, p):
    """The Delta dimensions that the chain's certificate proved, once per
    certificate run."""
    certify, proved = groupring._certify_jennings_chain, []

    def keep(*args):
        proved.append(certify(*args))
        return proved[-1]

    monkeypatch.setattr(groupring, "_certify_jennings_chain", keep)
    dimension_subgroup_chain(tbl, p)
    monkeypatch.undo()
    return proved


@pytest.mark.parametrize("name,text", LADDER, ids=[n for n, _ in LADDER])
def test_certified_dims_are_the_delta_tower(group, monkeypatch, name, text):
    """The dimensions the Jennings-adapted basis proves for Delta^1,
    Delta^2, ... are those of the tower built one power at a time."""
    pres, tbl = group(text)
    for p in pres.primes:
        assert _certified_dims(monkeypatch, tbl, p) == [delta_dimension_sequence(tbl, p)]


@pytest.mark.parametrize("text", ["gens: a; relators: a^64; prime: 2",
                                  "gens: a; relators: a^81; prime: 3"], ids=["c64", "c81"])
def test_chain_certifies_from_one_span(group, monkeypatch, text):
    """One full-width span holds the |G| - 1 products, one insert each, and
    (c) makes one reduction per generator image and nontrivial product; no
    power of Delta is built."""
    pres, tbl = group(text)
    p, n = pres.primes[0], tbl.order
    spans, reductions = [], []

    class CountingSpan(ModpSpan):
        def __init__(self, width, p):
            super().__init__(width, p)
            self.adds = 0
            spans.append(self)

        def add(self, vec):
            self.adds += 1
            return super().add(vec)

        def coordinates(self, vec):
            reductions.append(self)
            return super().coordinates(vec)

    def no_tower(*args):
        raise AssertionError("a power of Delta was built")

    monkeypatch.setattr(groupring, "ModpSpan", CountingSpan)
    monkeypatch.setattr(groupring, "_delta_powers", no_tower)
    dimension_subgroup_chain(tbl, p)
    (full,) = [s for s in spans if s.width == n]
    assert full.dim == full.adds == n - 1
    ngens = len({x for x in tbl.gen_images if x})
    assert len(reductions) == ngens * (n - 1) and all(s is full for s in reductions)


def _tamper_series(monkeypatch, change):
    """Make the chain read change(J) in place of the Jennings series J."""
    series = groupring.jennings_series
    monkeypatch.setattr(groupring, "jennings_series", lambda tbl, p: change(series(tbl, p)))


C8 = "gens: a; relators: a^8; prime: 2"  # D = C8, C4, C2, C2, 1
Q32 = (ORDER32_DIR / "q32.pres").read_text()
C3XC3 = "gens: a, b; relators: a^3, b^3, a*b*a^-1*b^-1; prime: 3"  # D = G, 1


@pytest.mark.parametrize("text,change,check", [
    # a term replaced by the one above it
    pytest.param(C8, lambda j: j[:1] + j[:1] + j[2:], "a", id="c8-d2-above"),  # C8, C8, C2, ...
    pytest.param(C8, lambda j: j[:2] + j[1:2] + j[3:], "c", id="c8-d3-above"),  # (a - 1)^2 at 3
    # a term replaced by the one below it
    pytest.param(C8, lambda j: j[:1] + j[2:3] + j[2:], "a", id="c8-d2-below"),  # C8, C2, ...
    pytest.param(Q32, lambda j: j[:3] + j[4:5] + j[4:], "c", id="q32-d4-below"),
    # the chain shifted by one
    pytest.param(C8, lambda j: j[1:], "a", id="c8-shifted-up"),  # starts below G
    pytest.param("gens: a; relators: a^9; prime: 3", lambda j: j[:1] + j, "c",
                 id="c9-shifted-down"),
    pytest.param(C3XC3, lambda j: j[:1] + j, "d", id="c3xc3-shifted-down"),  # G, G, 1
    # a chain that does not end at 1
    pytest.param(C8, lambda j: j[:-1], "a", id="c8-no-trivial-term"),
    pytest.param(C8, lambda j: j + j[-1:], "a", id="c8-trivial-term-twice"),
])
def test_chain_refuses_a_tampered_jennings_series(group, monkeypatch, text, change, check):
    """Each tampered chain is refused, by the check named: (a) the chain and
    its picks, (c) a product that (x - 1) does not push up one weight, (d)
    a weight layer that the layer below does not span.  C3 x C3 shifted
    passes (a), (b) and (c), since every weight doubles, and only (d) sees
    it."""
    pres, tbl = group(text)
    _tamper_series(monkeypatch, change)
    with pytest.raises(PropertyViolation, match=rf"Jennings certificate \({check}\)"):
        dimension_subgroup_chain(tbl, pres.primes[0])


@pytest.mark.parametrize("text", [C8, C3XC3, Q32], ids=["c8", "c3xc3", "q32"])
def test_chain_refuses_a_dropped_product(group, monkeypatch, text):
    """The first product never reaches the full-width span: (b)."""
    pres, tbl = group(text)

    class DroppingSpan(ModpSpan):
        def add(self, vec):
            if self.width == tbl.order and not hasattr(self, "dropped"):
                self.dropped = vec
                return True
            return super().add(vec)

    monkeypatch.setattr(groupring, "ModpSpan", DroppingSpan)
    with pytest.raises(PropertyViolation, match=r"Jennings certificate \(b\)"):
        dimension_subgroup_chain(tbl, pres.primes[0])


def test_chain_refuses_a_generator_left_out_of_the_certificate(group, monkeypatch):
    """With a left out of the generator images that (c) and (d) run over,
    on C4 x C2, (c) still holds, but weight 2 is spanned by a^2 - 1 and
    (a - 1)(b - 1), and (b - 1)*W_1 reaches only the second ((b - 1)^2 = 0):
    (d) refuses."""
    pres, tbl = group("gens: a, b; relators: a^4, b^2, a*b*a^-1*b^-1; prime: 2")
    images = groupring._generator_images
    monkeypatch.setattr(groupring, "_generator_images", lambda t: images(t)[1:])
    with pytest.raises(PropertyViolation, match=r"Jennings certificate \(d\)"):
        dimension_subgroup_chain(tbl, 2)


# --- the Delta-power tower against its all-elements spanning set --------

NON_P_GROUPS = [
    "gens: a, b; relators: a^3, b^2, b*a*b*a; prime: 2",
    "gens: a, b; relators: a^12, b^2, b*a*b*a; prime: 2",
]


def _all_elements_filtration(tbl, p):
    """Delta^(n+1) spanned by (g - 1)*w for every g in G and every basis row
    w of Delta^n, with the same stopping rule as delta_filtration.  Each
    level is (rref rows, pivots) from the dense reference elimination."""
    n = tbl.order
    first = []
    for g in range(1, n):
        vec = [0] * n
        vec[g], vec[0] = 1, -1
        first.append(vec)
    levels = [dense_rref(first, p)]
    while True:
        prev = levels[-1][0]
        nxt = dense_rref([[a - b for a, b in zip(left_translate(tbl, g, w), w)]
                          for g in range(1, n) for w in prev], p)
        levels.append(nxt)
        if len(nxt[0]) in (len(prev), 0):
            return levels


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("text", [t for t, _ in P_GROUPS] + NON_P_GROUPS)
def test_generator_tower_matches_all_elements_span(group, text, p):
    _, tbl = group(text)
    fast = delta_filtration(tbl, p)
    slow = _all_elements_filtration(tbl, p)
    assert [s.dim for s in fast] == [len(rows) for rows, _ in slow]
    # Delta is nilpotent exactly for p-groups; otherwise the chain stabilises
    pp = prime_power(tbl.order)
    assert (fast[-1].dim == 0) == (pp is not None and pp[0] == p)
    for n, (a, (rows, pivots)) in enumerate(zip(fast, slow), start=1):
        assert a.rows == rows, f"level {n}"
        assert a.pivots == pivots, f"level {n}"


@pytest.mark.parametrize("text,p,expected", [
    ("gens: a; relators: a^27; prime: 3", 3, 377),
    ("gens: a, b; relators: a^4*b^-2, a*b*a*b^-1; prime: 2", 2, 143),
])
def test_tower_work_count(group, monkeypatch, text, p, expected):
    """One elimination per g - 1 for Delta, then one per generator image and
    basis row of each power that is not the last."""
    _, tbl = group(text)
    calls = []
    add = ModpSpan.add

    def counting_add(self, vec):
        calls.append(None)
        return add(self, vec)

    monkeypatch.setattr(ModpSpan, "add", counting_add)
    spans = delta_filtration(tbl, p)
    monkeypatch.undo()
    ngens = len({x for x in tbl.gen_images if x})
    formula = (tbl.order - 1) + ngens * sum(s.dim for s in spans[:-1])
    assert len(calls) == formula == expected


# --- Fox derivatives ------------------------------------------------------

FOX_CASES = [
    "gens: a; relators: a^4; prime: 2",
    "gens: a, b; relators: a^2*b^-2, b*a*b^-1*a; prime: 2",
    "gens: a, b; relators: a^4, b^2, b*a*b*a; prime: 2",
    "gens: a, b; relators: a^4*b^-2, a*b*a*b^-1; prime: 2",
    "gens: a, b; relators: a^8, b^2, b*a*b^-1*a^-5; prime: 2",
]


@pytest.mark.parametrize("text", FOX_CASES)
def test_fox_fundamental_identity(group, text):
    """sum_i d(r)/d(x_i) * (x_i - 1) = r - 1 = 0, recomputed here with the
    plain convolution product rather than the translation shortcut."""
    pres, tbl = group(text)
    n = tbl.order
    for row in fox_rows(pres, tbl):
        total = [0] * n
        for g in range(pres.ngens):
            block = row[g * n:(g + 1) * n]
            xi = [0] * n
            xi[tbl.gen_images[g]] = 1
            xi[0] -= 1
            prod = gr_multiply(tbl, block, xi)
            total = [a + b for a, b in zip(total, prod)]
        assert not any(total)


@pytest.mark.parametrize("text", FOX_CASES)
def test_fox_rows_augment_to_exponent_sums(group, text):
    pres, tbl = group(text)
    n = tbl.order
    expo = pres.relator_exponent_matrix()
    for i, row in enumerate(fox_rows(pres, tbl)):
        for g in range(pres.ngens):
            assert sum(row[g * n:(g + 1) * n]) == expo[i][g]


def test_fox_row_of_a_power_is_the_norm(group):
    # d(a^4)/da = 1 + a + a^2 + a^3, the norm element of C4
    pres, tbl = group("gens: a; relators: a^4; prime: 2")
    assert fox_rows(pres, tbl) == [[1, 1, 1, 1]]


def test_fox_row_of_a_commutator(group):
    # d(aba^-1b^-1)/da = 1 - aba^-1 and d/db = a - aba^-1b^-1, evaluated
    # through the quotient map; worked out by the product rule by hand
    pres, tbl = group("gens: a, b; relators: a^2, b^2, a*b*a^-1*b^-1; prime: 2")
    n = tbl.order
    row = fox_rows(pres, tbl)[2]
    a = word_image(tbl, ((0, 1),))
    aba = word_image(tbl, ((0, 1), (1, 1), (0, -1)))
    block_a = [0] * n
    block_a[0], block_a[aba] = 1, block_a[aba] - 1
    block_b = [0] * n
    block_b[a], block_b[0] = 1, block_b[0] - 1
    assert row == block_a + block_b


# --- ring arithmetic ------------------------------------------------------

def _q8_table():
    return todd_coxeter(parse_presentation(
        "gens: a, b; relators: a*b*a*b^-1, b*a*b*a^-1; prime: 2"))


vectors = st.lists(st.integers(-4, 4), min_size=8, max_size=8)


@given(vectors, vectors, vectors)
@settings(deadline=None, max_examples=50)
def test_gr_multiply_associative(u, v, w):
    tbl = _q8_table()
    left = gr_multiply(tbl, gr_multiply(tbl, u, v), w)
    right = gr_multiply(tbl, u, gr_multiply(tbl, v, w))
    assert left == right


@given(vectors, vectors)
@settings(deadline=None, max_examples=50)
def test_augmentation_is_multiplicative(u, v):
    tbl = _q8_table()
    assert sum(gr_multiply(tbl, u, v)) == sum(u) * sum(v)


@given(vectors, st.integers(0, 7))
@settings(deadline=None, max_examples=50)
def test_translation_is_basis_multiplication(u, g):
    tbl = _q8_table()
    e = [0] * 8
    e[g] = 1
    assert left_translate(tbl, g, u) == gr_multiply(tbl, e, u)
    assert right_translate(tbl, u, g) == gr_multiply(tbl, u, e)


def test_identity_element():
    tbl = _q8_table()
    e = [1] + [0] * 7
    v = list(range(8))
    assert gr_multiply(tbl, e, v) == v
    assert gr_multiply(tbl, v, e) == v


def test_binomial_expansion_in_a_cyclic_ring(group):
    # (a - 1)^4 in Z[C4] is sum_j C(4,j) (-1)^(4-j) a^j, with a^4 wrapping
    # around to the identity; its augmentation vanishes
    _, tbl = group("gens: a; relators: a^4; prime: 2")
    am1 = [-1, 0, 0, 0]
    am1[word_image(tbl, ((0, 1),))] = 1
    acc = list(am1)
    for _ in range(3):
        acc = gr_multiply(tbl, acc, am1)
    expected = [0, 0, 0, 0]
    for j in range(5):
        expected[word_image(tbl, ((0, 1),) * j)] += comb(4, j) * (-1) ** (4 - j)
    assert acc == expected
    assert sum(acc) == 0


def test_trivial_group_has_zero_augmentation_ideal(group):
    _, tbl = group("gens: a; relators: a; prime: 2")
    assert tbl.order == 1
    assert delta_dimension_sequence(tbl, 2) == [0]
    assert [dimension_subgroup(tbl, 2, n).members for n in (1, 2, 3)] == [(0,)] * 3


@pytest.mark.parametrize("text,p", [("gens: a, b; relators: a^3, b^2, a*b*a*b; prime: 2", 2),
                                    ("gens: a; relators: a^4; prime: 2", 3)])
def test_p_group_guards_name_the_order(group, text, p):
    """Each filtration refuses a group that is not a p-group, order 6 or a
    2-group at p = 3, with its own message; the trivial group is a p-group
    for every p."""
    _, tbl = group(text)
    n = tbl.order
    for fn, message in [
        (lambda: dimension_subgroup(tbl, p, 2),
         f"dimension subgroups over F_{p} need a {p}-group; order is {n}"),
        (lambda: dimension_subgroup_chain(tbl, p),
         f"dimension subgroups over F_{p} need a {p}-group; order is {n}"),
        (lambda: jennings_series(tbl, p),
         f"Jennings series over F_{p} needs a {p}-group; order is {n}"),
    ]:
        with pytest.raises(InputError) as err:
            fn()
        assert str(err.value) == message
    _, trivial = group("gens: a; relators: a; prime: 2")
    assert len(jennings_series(trivial, p)) == len(dimension_subgroup_chain(trivial, p)) == 1
