"""Relation lattice, multiplier computations, and the torsion criterion.

Multiplier torsion is computed twice on every group here: once from the
relation lattice and once from the normalized bar resolution.  The two
implementations share nothing above the packed-row kernels of intlinalg.
"""

import dataclasses
import itertools
import sys

import pytest

from qrlab import intlinalg, relmod
from qrlab.enumeration import (all_subgroups, prime_power, subgroup_conjugacy_classes,
                               todd_coxeter)
from qrlab.errors import InputError, PropertyViolation, TorsionObstruction
from qrlab.groupring import dimension_subgroup_chain, fox_rows, right_translate
from qrlab.intlinalg import (
    AbelianInvariants,
    ModpSpan,
    fp_rows,
    mat_mul,
    p_torsion,
    smith_normal_form,
)
from qrlab.presentation import Presentation, is_prime, parse_presentation
from qrlab.relmod import (
    RelationLattice,
    bar_h2,
    coinvariants,
    gab_invariants,
    hopf_h2,
    qr_check,
    qr_check_full,
    relation_lattice,
)

from conftest import (C9XC9, CORPUS_DIR, NQR32, NQR64, ORDER32, ORDER32_DIR, ladder_inputs,
                      level_one_inputs, spy_peel, walk_inputs)
from reference import (
    bar_d2_gab,
    cycle_basis,
    entered_elimination_over,
    full_elimination_over,
    integer_g_coin,
    integer_walk,
    lattice_coordinates,
    lattice_equals,
    lattice_from_rows,
    left_kernel,
    left_translate,
    packed_level_rows,
)

# (text, prime, G_ab torsion, multiplier torsion)
KNOWN = [
    ("gens: a; relators: a; prime: 2", 2, (), ()),
    ("gens: a; relators: a^2; prime: 2", 2, (2,), ()),
    ("gens: a; relators: a^4; prime: 2", 2, (4,), ()),
    ("gens: a; relators: a^8; prime: 2", 2, (8,), ()),
    ("gens: a; relators: a^3; prime: 3", 3, (3,), ()),
    ("gens: a; relators: a^9; prime: 3", 3, (9,), ()),
    ("gens: a; relators: a^27; prime: 3", 3, (27,), ()),
    ("gens: a, b; relators: a^2, b^2, a*b*a^-1*b^-1; prime: 2", 2, (2, 2), (2,)),
    ("gens: a, b; relators: a^3, b^3, a*b*a^-1*b^-1; prime: 3", 3, (3, 3), (3,)),
    ("gens: a, b; relators: a^4, b^2, b*a*b*a; prime: 2", 2, (2, 2), (2,)),
    ("gens: a, b; relators: a*b*a*b^-1, b*a*b*a^-1; prime: 2", 2, (2, 2), ()),
    ("gens: a, b; relators: a^4*b^-2, a*b*a*b^-1; prime: 2", 2, (2, 2), ()),
    ("gens: a, b; relators: a^8, b^2, b*a*b^-1*a^-5; prime: 2", 2, (2, 4), ()),
]

# groups off the main corpus, p-groups or not, all of order <= 16
EXTRA_MULTIPLIERS = [
    ("gens: a; relators: a^6; prime: 2, 3", ()),
    ("gens: a, b; relators: a^3, b^2, a*b*a*b; prime: 2", ()),  # S3
    ("gens: a, b; relators: a^3, b^3, a*b*a*b; prime: 2", (2,)),  # A4
    ("gens: a, b, c; relators: a^2, b^2, c^2, a*b*a^-1*b^-1, "
     "a*c*a^-1*c^-1, b*c*b^-1*c^-1; prime: 2", (2, 2, 2)),  # C2^3
    ("gens: a, b; relators: a^4, b^4, a*b*a^-1*b^-1; prime: 2", (4,)),  # C4 x C4
    ("gens: a, b; relators: a^2, b^4, a*b*a^-1*b^-1; prime: 2", (2,)),  # C2 x C4
    ("gens: a, b; relators: a^8, b^2, b*a*b*a; prime: 2", (2,)),  # dihedral, order 16
]


@pytest.mark.parametrize("text,p,gab,h2", KNOWN)
def test_gab_invariants(group, text, p, gab, h2):
    pres, _ = group(text)
    inv = gab_invariants(pres)
    assert inv.free_rank == 0
    assert inv.torsion == gab


@pytest.mark.parametrize("text,p,gab,h2", KNOWN)
def test_multiplier_both_routes(group, lattice, text, p, gab, h2):
    _, tbl = group(text)
    hop = hopf_h2(lattice(text))
    bar = bar_h2(tbl)
    assert hop.free_rank == 0 and bar.free_rank == 0
    assert hop.torsion == h2
    assert bar.torsion == h2


@pytest.mark.parametrize("text,h2", EXTRA_MULTIPLIERS)
def test_multiplier_off_corpus(group, lattice, text, h2):
    _, tbl = group(text)
    assert hopf_h2(lattice(text)).torsion == h2
    assert bar_h2(tbl).torsion == h2


# --- bar route against the all-triples elimination ------------------------

def _all_triples_cokernel(tbl):
    """(free_rank, torsion) of coker d3 from all (n-1)^3 rows.

    Test-only oracle: every T(g,h,k) on all (n-1)^2 columns, unit-pivot
    elimination with no column order imposed, then the dense Smith form
    of the residue.
    """
    n, mult = tbl.order, tbl.mult
    m = n - 1
    live, col_index = {}, {c: set() for c in range(m * m)}
    for g in range(1, n):
        for h in range(1, n):
            for k in range(1, n):
                row = {}
                for a, b, s in ((h, k, 1), (mult[g][h], k, -1),
                                (g, mult[h][k], 1), (g, h, -1)):
                    if a and b:
                        c = (a - 1) * m + (b - 1)
                        row[c] = row.get(c, 0) + s
                row = {c: v for c, v in row.items() if v}
                if row:
                    rid = len(live)
                    live[rid] = row
                    for c in row:
                        col_index[c].add(rid)
    eliminated, removed = 0, set()
    progress = True
    while progress:
        progress = False
        for c in range(m * m):
            if c in removed:
                continue
            units = [(len(live[r]), r) for r in col_index[c] if live[r][c] in (1, -1)]
            if not units:
                continue
            _, prid = min(units)
            prow = live.pop(prid)
            for cc in prow:
                col_index[cc].discard(prid)
            for rid in list(col_index[c]):
                row, f = live[rid], live[rid][c] * prow[c]
                for cc, vv in prow.items():
                    nv = row.get(cc, 0) - f * vv
                    if nv:
                        row[cc] = nv
                        col_index[cc].add(rid)
                    else:
                        row.pop(cc, None)
                        col_index[cc].discard(rid)
                if not row:
                    del live[rid]
            removed.add(c)
            eliminated += 1
            progress = True
    rest = sorted(set(range(m * m)) - removed)
    dense = {tuple(row.get(c, 0) for c in rest) for row in live.values()}
    divisors = []
    if dense:
        diag, _, _, _ = smith_normal_form(sorted(dense))
        divisors = [d for d in diag if d]
    return m * m - eliminated - len(divisors), tuple(d for d in divisors if d > 1)


@pytest.mark.parametrize("text", [t for t, _, _, _ in KNOWN if "a^27" not in t]
                         + [t for t, _ in EXTRA_MULTIPLIERS])
def test_bar_route_matches_all_triples_elimination(group, text):
    pres, tbl = group(text)
    assert tbl.order <= 16
    if tbl.order == 1:
        return
    # coker d3 = H2 + Z^(n-1): the torsion, and the free rank of im d2
    assert _all_triples_cokernel(tbl) == (tbl.order - 1, bar_h2(tbl).torsion)
    # a third route to G_ab, from the bar complex's d2 alone
    assert bar_d2_gab(tbl) == gab_invariants(pres)


def test_bar_route_refuses_non_generating_images(group):
    # one generator of the Klein group reaches 2 of its 4 elements; the
    # rows T(g,h,x) would no longer span im d3
    _, tbl = group("gens: a, b; relators: a^2, b^2, a*b*a^-1*b^-1; prime: 2")
    partial = dataclasses.replace(tbl, gen_images=tbl.gen_images[:1])
    with pytest.raises(PropertyViolation, match="reach 2 of 4 elements"):
        bar_h2(partial)


def test_bar_route_refuses_an_f_ell_rank_below_m(group, monkeypatch):
    """Rows mod ell cut to m - 1 cannot reach the rank m of ker d2: the
    rank identity refuses them (raised, not asserted)."""
    _, tbl = group("gens: a, b; relators: a^4*b^-2, a*b*a*b^-1; prime: 2")  # q16
    m = tbl.order - 1  # (n - 1)(|X| - 1), |X| = 2
    orig = relmod._bar_rows

    def cut(tbl, gens, tree, modulus):
        rows = orig(tbl, gens, tree, modulus)
        return itertools.islice(rows, m - 1) if modulus == 3 else rows

    monkeypatch.setattr(relmod, "_bar_rows", cut)
    with pytest.raises(PropertyViolation, match="rank identity fails"):
        bar_h2(tbl)


def test_bar_route_refuses_d2_rows_of_f_ell_rank_below_n_minus_1(group, monkeypatch):
    """The rows d2[g|x] cut to n - 2 cannot span im d2 = Z^(n-1): the
    G_ab check refuses them before any row of d3 is read."""
    _, tbl = group("gens: a, b; relators: a^4*b^-2, a*b*a*b^-1; prime: 2")  # q16
    orig = relmod.modp_rank

    def cut(rows, width, q, stop=None):  # the d2 call alone stops at its width
        return orig(itertools.islice(rows, width - 1) if stop == width else rows, width, q, stop)

    monkeypatch.setattr(relmod, "modp_rank", cut)
    with pytest.raises(PropertyViolation, match="infinite G_ab"):
        bar_h2(tbl)


def test_bar_route_refuses_a_local_free_count_off_n_minus_1(group, monkeypatch):
    """C4 x C4 has H2 = Z/4: a local Smith form leaving one summand Z/2^N
    too many disagrees with im d2's rank n - 1 and with the F_2 rank."""
    _, tbl = group("gens: a, b; relators: a^4, b^4, a*b*a^-1*b^-1; prime: 2")
    assert bar_h2(tbl).torsion == (4,)
    orig = relmod.local_smith_exponents
    monkeypatch.setattr(relmod, "local_smith_exponents",
                        lambda *args: (lambda z, exps: (z + 1, exps[1:]))(*orig(*args)))
    with pytest.raises(PropertyViolation, match="local Smith form"):
        bar_h2(tbl)


def test_bar_route_stops_each_rank_at_m_on_q64(group, monkeypatch):
    """With H2(q64) = 0 the F_3 and F_2 ranks reach m early: each reads
    under a tenth of the distinct rows at its modulus."""
    _, tbl = group(Q64)
    orig, calls, read = relmod._bar_rows, {}, {}

    def counted(*args):
        calls[args[-1]] = args
        for v in orig(*args):
            read[args[-1]] = read.get(args[-1], 0) + 1
            yield v

    monkeypatch.setattr(relmod, "_bar_rows", counted)
    assert bar_h2(tbl) == AbelianInvariants(0, ())
    assert set(read) == {2, 3}
    for modulus, args in calls.items():
        assert 10 * read[modulus] < sum(1 for _ in orig(*args)), modulus


Q64 = "gens: a, b; relators: a^16*b^-2, a*b*a*b^-1; prime: 2"
NQR64_TEXT = NQR64.read_text().strip()


@pytest.mark.parametrize("text,h2", [
    ("gens: a, b; relators: a^16, b^2, b*a*b*a; prime: 2", (2,)),  # d32
    ("gens: a, b; relators: a^8*b^-2, a*b*a*b^-1; prime: 2", ()),  # q32
    ("gens: a, b; relators: a^16, b^2, b*a*b^-1*a^-9; prime: 2", ()),  # m32
    ("gens: a; relators: a^64; prime: 2", ()),
    ("gens: a; relators: a^81; prime: 3", ()),
    (Q64, ()),
    (NQR64_TEXT, ()),
])
def test_bar_route_past_order_27_agrees_with_hopf(group, lattice, text, h2):
    _, tbl = group(text)
    assert tbl.order > 27
    bar = bar_h2(tbl)
    assert bar == hopf_h2(lattice(text))
    assert bar.torsion == h2


@pytest.mark.parametrize("text,p,gab,h2", KNOWN)
def test_rank_law(group, lattice, text, p, gab, h2):
    pres, tbl = group(text)
    rlat = lattice(text)
    assert rlat.rank == tbl.order * (pres.ngens - 1) + 1


def test_cyclic_lattice_is_the_fixed_norm_line(group, lattice):
    # for <a | a^4> the lattice is spanned by 1 + a + a^2 + a^3, and the
    # translation action of G fixes it
    _, tbl = group("gens: a; relators: a^4; prime: 2")
    rlat = lattice("gens: a; relators: a^4; prime: 2")
    assert cycle_basis(rlat) == ((1, 1, 1, 1),)
    for g in range(tbl.order):
        assert right_translate(tbl, list(cycle_basis(rlat)[0]), g) == [1, 1, 1, 1]


def test_free_presentation_has_zero_lattice():
    # no generators, no relators: the one honest finite free case
    free = Presentation(generator_names=(), relators=(), primes=(2,))
    tbl = todd_coxeter(free)
    assert tbl.order == 1
    assert relation_lattice(free, tbl).cycles == ()


def test_lattice_rejects_a_mismatched_table(group):
    # dropping the relators while keeping the C4 table breaks R = ker(pi);
    # the Crowell-Lyndon self-check must catch it rather than return junk
    pres, tbl = group("gens: a; relators: a^4; prime: 2")
    free = Presentation(generator_names=pres.generator_names, relators=(),
                        primes=pres.primes)
    with pytest.raises(PropertyViolation):
        relation_lattice(free, tbl)


C4 = "gens: a; relators: a^4; prime: 2"
Q8 = "gens: a, b; relators: a*b*a*b^-1, b*a*b*a^-1; prime: 2"
Q8_DOUBLED = ("gens: a, b; relators: a*b*a*b^-1*a*b*a*b^-1, "
              "b*a*b*a^-1*b*a*b*a^-1; prime: 2")


@pytest.mark.parametrize("table_text,text,m", [
    (C4, "gens: a; relators: a^8; prime: 2", 2),
    (C4, "gens: a; relators: a^12; prime: 2", 3),
    (Q8, Q8_DOUBLED, 2),
], ids=["a^8 on C4", "a^12 on C4", "q8 doubled"])
def test_lattice_rejects_a_stable_span_of_the_right_rank_that_is_not_saturated(
        group, lattice, table_text, text, m):
    # d(r^m)/dx = (1 + r + ... + r^(m-1)) dr/dx = m dr/dx in ZG, so each span
    # is m times the true lattice: right rank, G-stable, finite index > 1.
    # The rank law and the stability check pass; only exactness can refuse it.
    _, tbl = group(table_text)
    pres = parse_presentation(text)
    true = lattice(table_text)
    ambient = pres.ngens * tbl.order
    span = lattice_from_rows(ambient, (translate(tbl, g, r)
                                       for r in fox_rows(pres, tbl)
                                       for g in range(tbl.order)))
    assert lattice_equals(span, lattice_from_rows(ambient, ([m * x for x in r]
                                                           for r in cycle_basis(true))))
    assert all(lattice_coordinates(span, translate(tbl, g, r)) is not None
               for g in range(tbl.order) for r in span.basis)
    with pytest.raises(PropertyViolation, match="kernel of the Crowell-Lyndon map"):
        relation_lattice(pres, tbl)


def translate(tbl, g, vec):
    """g * vec in (ZG)^|X|, block by block."""
    n = tbl.order
    return [c for i in range(0, len(vec), n) for c in left_translate(tbl, g, vec[i:i + n])]


def test_peel_takes_only_unit_pivots_and_cascades():
    peel = relmod._peel
    # a +-2 is never a pivot, even on a row with one column
    assert peel(iter([{0: 2}, {1: -1}]), 2) == ([{0: 2}, {1: -1}], [0])
    # resolving column 1 leaves the first row one unresolved column, at -1
    assert peel(iter([{0: -1, 1: 3}, {1: 1}]), 2) == ([{0: -1, 1: 3}, {1: 1}], [])
    # a row whose last unresolved column holds 2 waits; another row resolves it
    assert peel(iter([{0: 2, 1: 1}, {1: 1}]), 2)[1] == [0]
    assert peel(iter([{0: 2, 1: 1}, {1: 1}, {0: 1}]), 2)[1] == []
    # reading stops at the last column: the third row is never read
    rows = iter([{1: 1}, {0: 1, 1: 1}, {0: 1}])
    assert peel(rows, 2) == ([{1: 1}, {0: 1, 1: 1}], []) and next(rows) == {0: 1}


@pytest.mark.parametrize("name", ["c64", "c81"])
def test_peel_reads_one_translate_on_the_cyclic_top_rung(monkeypatch, name):
    # the one chord of a cyclic group is resolved by the first translate,
    # 1 + a + ... + a^(n-1) at g = 1, whose chord entry is 1; on a fresh
    # table, since a table builds its lattice once
    pres = parse_presentation((ORDER32_DIR / f"{name}.pres").read_text())
    tbl = todd_coxeter(pres)
    calls = spy_peel(monkeypatch)
    assert relation_lattice(pres, tbl).rank == 1
    assert calls == [(1, [])]


def test_residual_lattice_has_the_unpeeled_chords_as_its_width(monkeypatch):
    # nqr64 peels 9 of its 65 chords; the other 56 go through one Lattice
    pres = parse_presentation(NQR64.read_text())
    tbl = todd_coxeter(pres)
    calls, widths = spy_peel(monkeypatch), []

    class Recorded(intlinalg.Lattice):
        def __init__(self, ambient):
            widths.append(ambient)
            super().__init__(ambient)

    monkeypatch.setattr(relmod, "Lattice", Recorded)
    rlat = relation_lattice(pres, tbl)
    assert rlat.rank == 65 and [len(residual) for _, residual in calls] == [56]
    assert calls[0][0] == 2 * tbl.order and widths == [56]


def hermite(rlat):
    return lattice_from_rows(rlat.pres.ngens * rlat.tbl.order, cycle_basis(rlat))


ORACLE_INPUTS = ([CORPUS_DIR / n for n in sorted(p.name for p in CORPUS_DIR.glob("*.pres"))]
                 + [ORDER32_DIR / n for n in ORDER32] + [NQR32, NQR64])


@pytest.mark.parametrize("path", ORACLE_INPUTS, ids=lambda p: p.stem)
def test_certified_lattice_matches_the_kernel_and_the_all_elements_sweep(lattice, path):
    # the routes relation_lattice replaced, kept as oracles: the left kernel
    # of (ZG)^|X| -> IG, and stability tested on every element of G
    rlat = lattice(path.read_text())
    tbl, n = rlat.tbl, rlat.tbl.order
    aug_map = []
    for x in tbl.gen_images:
        for h in range(n):
            col = [0] * n
            col[tbl.mult[h][x]] += 1
            col[h] -= 1
            aug_map.append(col)
    kern = lattice_from_rows(rlat.pres.ngens * n, left_kernel(aug_map, width=n))
    lat = hermite(rlat)
    assert lattice_equals(kern, lat)
    for g in range(n):
        for row in cycle_basis(rlat):
            assert lattice_coordinates(lat, translate(tbl, g, row)) is not None


@pytest.mark.parametrize("path", ORACLE_INPUTS, ids=lambda p: p.stem)
def test_element_matrices_are_the_coordinates_solved_in_the_hermite_lattice(lattice, path):
    # the route the chord entries replaced, kept as an oracle: g * basis
    # solved in the Hermite lattice of the basis, for every element g, must
    # be the matrix act(g) in the Hermite frame, and act(g) is memoized
    rlat = lattice(path.read_text())
    tbl = rlat.tbl
    lat = hermite(rlat)
    frame = [lattice_coordinates(lat, row) for row in cycle_basis(rlat)]
    for g in range(tbl.order):
        dense = [[0] * rlat.rank for _ in range(rlat.rank)]
        for row, nonzeros in zip(dense, rlat.act(g)):
            for k, c in nonzeros:
                row[k] = c
        solved = [lattice_coordinates(lat, translate(tbl, g, row)) for row in cycle_basis(rlat)]
        assert solved == mat_mul(dense, frame), g
        assert rlat.act(g) is rlat.act(g)


@pytest.mark.parametrize("text,p,gab,h2", KNOWN)
def test_full_coinvariants_torsion_is_the_multiplier(group, lattice, text, p, gab, h2):
    """R/[R,F] = coinvariants under all of G; its torsion must be exactly the
    multiplier torsion (the free part maps onto the relator exponent lattice)."""
    _, tbl = group(text)
    rlat = lattice(text)
    full = next(s for s in all_subgroups(tbl) if len(s.members) == tbl.order)
    coin = coinvariants(rlat, full)
    assert coin.invariants.torsion == h2


def test_coinvariants_of_trivial_subgroup_is_free(group, lattice):
    text = "gens: a, b; relators: a*b*a*b^-1, b*a*b*a^-1; prime: 2"
    _, tbl = group(text)
    rlat = lattice(text)
    triv = next(s for s in all_subgroups(tbl) if len(s.members) == 1)
    coin = coinvariants(rlat, triv)
    assert coin.invariants.torsion == ()
    assert coin.invariants.free_rank == rlat.rank


@pytest.mark.parametrize("text", [
    "gens: a, b; relators: a*b*a*b^-1, b*a*b*a^-1; prime: 2",
    "gens: a, b; relators: a^4, b^2, b*a*b*a; prime: 2",
    "gens: a, b; relators: a^3, b^3, a*b*a^-1*b^-1; prime: 3",
])
def test_coinvariant_rank_law_over_all_subgroups(group, lattice, text):
    """rank of the H-coinvariants of the relation module is |G/H|(|X|-1)+1,
    the lattice rank law pushed down the subgroup lattice."""
    pres, tbl = group(text)
    rlat = lattice(text)
    for cls in subgroup_conjugacy_classes(tbl, all_subgroups(tbl)):
        sub = cls[0]
        coin = coinvariants(rlat, sub)
        index = tbl.order // len(sub.members)
        assert coin.invariants.free_rank == index * (pres.ngens - 1) + 1


def lattice_route(rlat, sub):
    """The level invariants from the full lattice, the route the tower walk
    replaced, kept as an oracle: every basis row translated by each
    generator d of sub, minus itself, in lattice coordinates, then the
    Smith form of those rows."""
    lat = hermite(rlat)
    rows = [lattice_coordinates(lat, [a - b for a, b in zip(translate(rlat.tbl, d, row), row)])
            for d in sub.generators if d for row in cycle_basis(rlat)]
    diag = [d for d in smith_normal_form(rows)[0] if d] if rows else []
    return AbelianInvariants(rlat.rank - len(diag), tuple(d for d in diag if d > 1))


@pytest.mark.parametrize("text,p", [(t, p) for _, t, p in walk_inputs()],
                         ids=[i for i, _, _ in walk_inputs()])
def test_every_walk_level_matches_the_lattice_route(lattice, text, p):
    rlat = lattice(text)
    qr = qr_check(rlat, p)
    for lv in qr.levels:
        assert lv.invariants == lv.coin.invariants == lattice_route(rlat, lv.subgroup), lv.level
    assert rlat.g_coin.invariants == qr.levels[0].invariants


LADDER = ladder_inputs()


@pytest.mark.parametrize("name,text", LADDER, ids=[n for n, _ in LADDER])
def test_every_level_matches_the_integer_reference_walk(lattice, name, text):
    """The p-local levels against the integer walk they replaced, at every
    prime: each level's invariants, and R/[R,F]'s."""
    rlat = lattice(text)
    for p in rlat.pres.primes:
        qr = qr_check(rlat, p)
        chain = [lv.subgroup for lv in qr.levels]
        assert [lv.invariants for lv in qr.levels] == integer_walk(rlat, chain), p
        assert qr.levels[0].coin is rlat.g_coin
    assert rlat.g_coin.invariants == integer_g_coin(rlat, rlat.g_coin.sub)


def test_qr_check_and_hopf_h2_take_no_smith_form(monkeypatch):
    """No integer Smith form on the verdict path: counted under every qrlab
    name bound to it, on a fresh q32 lattice at p = 2."""
    text = (ORDER32_DIR / "q32.pres").read_text()
    pres = parse_presentation(text)
    rlat = relation_lattice(pres, todd_coxeter(pres))
    calls = []
    orig = intlinalg.smith_normal_form

    def counting(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "qrlab" or name.startswith("qrlab.")):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, counting)
    assert qr_check(rlat, 2).quasirational
    assert hopf_h2(rlat) == AbelianInvariants(0, ())
    assert calls == []
    assert gab_invariants(pres).torsion == (2, 2) and len(calls) == 1  # the count works


def _d2(text, p):
    """A fresh lattice and its D_2 at p."""
    pres = parse_presentation(text)
    tbl = todd_coxeter(pres)
    return relation_lattice(pres, tbl), dimension_subgroup_chain(tbl, p)[1]


def test_gaschutz_certificate_refuses_a_level_missing_a_generators_rows(monkeypatch):
    """Dropping the rows of A[d] - I of one generator d of D_n leaves the
    level of a smaller subgroup, whose F_ell rank leaves more than f_n:
    raised, not asserted (this also runs under python -O)."""
    rlat, d2 = _d2(C9XC9, 3)
    assert len(d2.generators) > 1
    coinvariants(rlat, d2)
    orig = RelationLattice.relation_rows

    def dropped(self, sub, modulus):
        return orig(self, dataclasses.replace(sub, generators=sub.generators[1:]), modulus)

    monkeypatch.setattr(RelationLattice, "relation_rows", dropped)
    with pytest.raises(PropertyViolation, match="F_2 dimension .* not Gaschutz's free rank"):
        coinvariants(rlat, d2)


def test_gaschutz_certificate_refuses_an_fp_rank_above_r_minus_f(monkeypatch):
    """One extra relation row mod p only: the F_ell rank still leaves f_n,
    and the F_p rank leaves less than f_n."""
    rlat, d2 = _d2((ORDER32_DIR / "q32.pres").read_text(), 2)
    orig = RelationLattice.relation_rows

    def extra(self, sub, modulus):
        rows = orig(self, sub, modulus)
        if modulus == 2:
            span = ModpSpan(self.rank, 2)
            for v in rows:
                span.add(v)
            rows.append(span.layout.unit(next(j for j in range(self.rank)
                                              if j not in span.pivots)))
        return rows

    monkeypatch.setattr(RelationLattice, "relation_rows", extra)
    with pytest.raises(PropertyViolation, match="F_2 dimension .* below Gaschutz's"):
        coinvariants(rlat, d2)


def test_gaschutz_certificate_refuses_a_local_free_count_off_f(monkeypatch):
    """A torsion level whose local Smith form leaves one summand Z/p^N too
    many disagrees with f_n and with its F_p rank."""
    rlat, d2 = _d2(NQR32.read_text(), 2)
    assert coinvariants(rlat, d2).invariants == AbelianInvariants(5, (2,))
    orig = relmod.local_smith_exponents
    monkeypatch.setattr(relmod, "local_smith_exponents",
                        lambda *args: (lambda z, exps: (z + 1, exps[1:]))(*orig(*args)))
    with pytest.raises(PropertyViolation, match="local Smith form"):
        coinvariants(rlat, d2)


@pytest.mark.parametrize("path", [ORDER32_DIR / "q32.pres", NQR32], ids=lambda p: p.stem)
def test_level_over_f_p_refuses_an_elimination_short_of_r_minus_f_minus_t(path):
    """over(p, k) reads the F_p span that coinvariants() kept, whose
    dimension is r - f - t_p (nqr32's D_2 has t_2 = 1, q32's none).  The
    same level with a kept span one entered row short leaves one pivot
    short at k = 1 and, where the level is free, at k = 2: raised, not
    asserted (this also runs under python -O)."""
    rlat, d2 = _d2(path.read_text(), 2)
    coin = coinvariants(rlat, d2)
    free, t = coin.invariants.free_rank, len(p_torsion(coin.invariants, 2))
    assert t == (path == NQR32)
    assert len(coin.over(2, 1)[0]) == free + t
    rank = rlat.rank - free - t
    assert coin.span.dim == len(coin.entered) == rank
    rows = rlat.relation_rows(d2, 2)
    short = ModpSpan(rlat.rank, 2)
    for i in coin.entered[:-1]:
        assert short.add(rows[i])
    cut = dataclasses.replace(coin, span=short, entered=coin.entered[:-1])
    for k in (1, 2)[:1 if t else 2]:
        with pytest.raises(PropertyViolation,
                           match=f"reach {rank - 1} unit pivots, not the level's"):
            cut.over(2, k)


def test_level_over_refuses_a_prime_whose_span_the_level_did_not_keep(lattice):
    """A level of a p-group keeps its F_p span only: over(q, k) at another
    prime q has no span to read and is an InputError, while the trivial
    level needs none at any prime."""
    rlat = lattice(C9XC9)
    levels = qr_check(rlat, 3).levels
    assert levels[0].coin.span.p == 3
    with pytest.raises(InputError, match="keeps no F_2 span"):
        levels[0].coin.over(2, 1)
    trivial = levels[-1].coin
    assert trivial.sub.order == 1 and trivial.span is None
    assert len(trivial.over(2, 1)[0]) == len(trivial.over(3, 4)[0]) == rlat.rank


def test_level_over_refuses_a_ring_above_f_p_on_a_torsion_level(lattice):
    """Klein's level 1, R/[R,F] = Z^2 + Z/2, has no free form over Z/4: over(2, 2)
    raises TorsionObstruction, while over F_2 the torsion is one more coordinate."""
    level = qr_check(lattice("gens: a, b; relators: a^2, b^2, a*b*a^-1*b^-1; prime: 2"),
                     2).levels[0]
    assert level.p_torsion == (2,)
    assert len(level.coin.over(2, 1)[0]) == level.invariants.free_rank + 1
    with pytest.raises(TorsionObstruction, match="p-torsion Z/2; no free Z/2"):
        level.coin.over(2, 2)


OVER_INPUTS = walk_inputs() + [(NQR64.stem, NQR64.read_text(), 2)] + [
    (name, (ORDER32_DIR / f"{name}.pres").read_text(), p) for name, p in (("c64", 2), ("c81", 3))]


@pytest.mark.parametrize("text,p", [(text, p) for _, text, p in OVER_INPUTS],
                         ids=[ident for ident, _, _ in OVER_INPUTS])
def test_level_over_matches_the_full_elimination_at_every_ring(lattice, text, p):
    """Oracle for over(p, k), which reads the F_p span coinvariants() kept
    and, at k > 1, eliminates only the rows that entered it: on every
    distinct level of the corpus, q32, m32, nqr32, nqr64, C9 x C9, c64 and
    c81 it returns the very (coords, down, letters) of one unit-pivot
    elimination of every relation row mod p^k (reference.full_elimination_over),
    at k = 1, 2, 1 + v_p(|G|) and 20; k = 1 only on a level with p-torsion."""
    rlat = lattice(text)
    top = 1 + (prime_power(rlat.tbl.order) or (p, 0))[1]
    for lv in {id(lv.coin): lv for lv in qr_check(rlat, p).levels}.values():
        for k in sorted({1, 2, top, 20}) if not lv.p_torsion else [1]:
            assert lv.coin.over(p, k) == full_elimination_over(lv.coin, p, k), (lv.level, k)


LEVEL_ONE_INPUTS = level_one_inputs()


@pytest.mark.parametrize("text,p", [(text, p) for _, text, p in LEVEL_ONE_INPUTS],
                         ids=[ident for ident, _, _ in LEVEL_ONE_INPUTS])
def test_level_one_over_is_the_entered_row_elimination_byte_for_byte(lattice, text, p):
    """Level 1 over Z/p^k, k > 1, reads its quotient map off the exponent
    sums with no elimination; on every quasirational corpus entry, q32,
    m32, c64 and c81 its (coords, down, letters) are those of the
    unit-pivot elimination of the rows that entered the F_p span
    (reference.entered_elimination_over), at k = 2, 1 + v_p(|G|) and 20."""
    rlat = lattice(text)
    top = 1 + prime_power(rlat.tbl.order)[1]
    level = qr_check(rlat, p).levels[0]
    assert level.coin.sub.order == rlat.tbl.order and not level.p_torsion
    for k in sorted({2, top, 20}):
        assert level.coin.over(p, k) == entered_elimination_over(level.coin, p, k), k


@pytest.mark.parametrize("column", ["pivot", "coordinate"])
def test_level_one_refuses_exponent_sums_that_are_not_its_quotient_map(lattice, monkeypatch,
                                                                       column):
    """The exponent-sum map of level 1 is certified, not trusted: with one
    row of it moved by a unit vector, at a pivot column (then it no longer
    kills an entered relation row) or at a coordinate (then it is not e_j
    there), over(2, 6) on q32 raises, also under python -O."""
    coin = qr_check(lattice((ORDER32_DIR / "q32.pres").read_text()), 2).levels[0].coin
    exact = relmod.Coinvariants._exponent_sum_map

    def moved(self, coords, p, ring):
        down = exact(self, coords, p, ring)
        c = self.span.pivots[0] if column == "pivot" else coords[-1]
        down[c] = fp_rows(len(coords), ring).add(down[c], 1)
        return down

    coin.over(2, 6)
    monkeypatch.setattr(relmod.Coinvariants, "_exponent_sum_map", moved)
    with pytest.raises(PropertyViolation, match="not the quotient map of level 1"):
        coin.over(2, 6)


def test_level_one_refuses_a_span_kept_with_fewer_entered_rows(lattice):
    """The level-1 certificate reads the rows that built the kept span,
    rank of them; q32's level 1 with its last entered row dropped, the
    span kept whole, raises at over(2, 6), as the elimination did."""
    coin = qr_check(lattice((ORDER32_DIR / "q32.pres").read_text()), 2).levels[0].coin
    cut = dataclasses.replace(coin, entered=coin.entered[:-1])
    with pytest.raises(PropertyViolation, match="not the quotient map of level 1"):
        cut.over(2, 6)


@pytest.mark.parametrize("text,p", [(text, p) for _, text, p in OVER_INPUTS],
                         ids=[ident for ident, _, _ in OVER_INPUTS])
def test_level_relation_rows_match_act_at_every_ring(lattice, text, p):
    """relation_rows(sub, m), packed from act's sparse rows, is the rows of
    A[d] - I nonzero over Z packed entry by entry (reference.packed_level_rows)
    on every distinct level of the corpus, q32, m32, nqr32, nqr64, C9 x C9,
    c64 and c81, at m = ell, p, 2^7 (2-byte slots), 3^5 and p^20, and
    index i names the same integer row at every m."""
    rlat = lattice(text)
    ell = next(q for q in itertools.count(2) if is_prime(q) and rlat.tbl.order % q)
    for lv in {id(lv.coin): lv for lv in qr_check(rlat, p).levels}.values():
        ints = [row for row, _ in packed_level_rows(rlat, lv.subgroup, ell)]
        for m in sorted({ell, p, 2**7, 3**5, p**20}):
            got = rlat.relation_rows(lv.subgroup, m)
            assert got == [v for _, v in packed_level_rows(rlat, lv.subgroup, m)], (lv.level, m)
            lay = fp_rows(rlat.rank, m)
            assert [lay.unpack(v) for v in got] == [[x % m for x in row] for row in ints]


# --- torsion criterion ----------------------------------------------------

@pytest.mark.parametrize("text,p,verdict", [
    ("gens: a; relators: a^4; prime: 2", 2, True),
    ("gens: a; relators: a^27; prime: 3", 3, True),
    ("gens: a, b; relators: a*b*a*b^-1, b*a*b*a^-1; prime: 2", 2, True),
    ("gens: a, b; relators: a^4*b^-2, a*b*a*b^-1; prime: 2", 2, True),
    ("gens: a, b; relators: a^8, b^2, b*a*b^-1*a^-5; prime: 2", 2, True),
    ("gens: a, b; relators: a^2, b^2, a*b*a^-1*b^-1; prime: 2", 2, False),
    ("gens: a, b; relators: a^4, b^2, b*a*b*a; prime: 2", 2, False),
    ("gens: a, b; relators: a^3, b^3, a*b*a^-1*b^-1; prime: 3", 3, False),
])
def test_qr_verdicts(group, text, p, verdict):
    pres, tbl = group(text)
    rep = qr_check_full(pres, tbl, p)
    assert rep.quasirational is verdict
    if verdict:
        assert rep.witness_level is None
        assert all(lv.p_torsion == () for lv in rep.levels)
    else:
        w = rep.witness_level
        assert w is not None
        lv = next(l for l in rep.levels if l.level == w)
        assert lv.p_torsion != ()
        assert all(t % p == 0 for t in lv.p_torsion)


@pytest.mark.parametrize("text,p,gab,h2", KNOWN)
def test_levelwise_torsion_iff_multiplier_torsion(group, text, p, gab, h2):
    """On these groups some level carries p-torsion exactly when the
    multiplier does.  That is not a theorem: level n's torsion is H2(D_n),
    and H2(G) = 0 does not force H2(D_n) = 0 (see the test below)."""
    pres, tbl = group(text)
    rep = qr_check_full(pres, tbl, p)
    some_level = any(lv.p_torsion != () for lv in rep.levels)
    multiplier = p_torsion(rep.g_coinvariants, p) != ()
    assert some_level == multiplier
    assert rep.quasirational == (not some_level)


# Balanced presentations, so H2(G) = 0 (Epstein, 1961), whose D_2 has a
# multiplier Z/2: (order, |D_2|) per presentation.
TRIVIAL_MULTIPLIER_NOT_QR = [
    ("gens: a, b; relators: b*a^-1*a^-1*b*a^-1*b^-1*a^-1*b, a*b^-1*a^-1*b^-1; prime: 2",
     32, 8),
    ("gens: a, b; relators: a^-1*b^-1*a^-1*a^-1*a^-1*b, "
     "b*a*b*b*a*b*a^-1*a^-1*a^-1*a^-1*a^-1*a^-1; prime: 2", 64, 16),
]


@pytest.mark.parametrize("text,order,d2_order", TRIVIAL_MULTIPLIER_NOT_QR)
def test_trivial_multiplier_does_not_make_a_group_quasirational(group, text, order, d2_order):
    """Level n's torsion is H2(D_n) (Shapiro), so a group whose own
    multiplier vanishes is still not quasirational when a dimension
    subgroup's multiplier has p-torsion; qr_check says so and does not fail."""
    pres, tbl = group(text)
    rep = qr_check_full(pres, tbl, 2)
    assert tbl.order == order
    assert p_torsion(rep.g_coinvariants, 2) == ()
    assert not rep.quasirational and rep.witness_level == 2
    assert (rep.levels[1].subgroup_order, rep.levels[1].p_torsion) == (d2_order, (2,))


def test_order_243_with_trivial_multiplier_is_not_quasirational_at_3(lattice):
    """The same at p = 3 and order 243, from a balanced presentation: H2(G)
    = 0 by Hopf, and level 2 carries the 3-torsion (3, 3, 3)."""
    rlat = lattice((NQR32.parent / "nqr243.pres").read_text())
    assert rlat.tbl.order == 243
    assert hopf_h2(rlat) == AbelianInvariants(0, ())
    rep = qr_check(rlat, 3)
    assert not rep.quasirational and rep.witness_level == 2
    assert rep.levels[1].p_torsion == (3, 3, 3)


def test_report_shape(group):
    text = "gens: a, b; relators: a^4*b^-2, a*b*a*b^-1; prime: 2"
    pres, tbl = group(text)
    rep = qr_check_full(pres, tbl, 2)
    assert rep.prime == 2
    assert rep.cutoff >= 1 and rep.cutoff_reason
    assert [lv.level for lv in rep.levels] == list(range(1, len(rep.levels) + 1))
    for lv in rep.levels:
        assert lv.quotient_order * lv.subgroup_order == tbl.order
