"""Coset enumeration and the subgroup machinery.

The subgroup lister is checked against a brute-force oracle that tests every
divisor-sized subset for closure; feasible up to order 16.  Group and
quotient tables are checked against the word replay reference, which finds
every product by replaying the second factor's word from the first.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from qrlab.errors import BudgetExceeded
from qrlab.groupring import jennings_series
from qrlab.presentation import Presentation, free_reduce, parse_presentation
from qrlab.enumeration import (
    FiniteGroupTable,
    _canonical_table,
    _normalizes,
    _verify_table,
    all_subgroups,
    conjugate_subgroup_members,
    greedy_generators,
    is_normal,
    left_cosets,
    prime_power,
    quotient_table,
    subgroup_closure,
    subgroup_conjugacy_classes,
    todd_coxeter,
    word_image,
)

from conftest import CORPUS_DIR, NQR32, ORDER32_DIR, ladder_inputs
from reference import (
    all_elements_conjugacy_classes,
    all_elements_normalizer,
    cyclic_extension_subgroups,
    generators_for,
    orbits_on_cosets,
    word_replay_table,
)

ORDERS = [
    ("gens: a; relators: a; prime: 2", 1),
    ("gens: a; relators: a^2; prime: 2", 2),
    ("gens: a; relators: a^8; prime: 2", 8),
    ("gens: a; relators: a^27; prime: 3", 27),
    ("gens: a, b; relators: a^2, b^2, a*b*a^-1*b^-1; prime: 2", 4),
    ("gens: a, b; relators: a^4, b^2, b*a*b*a; prime: 2", 8),
    ("gens: a, b; relators: a*b*a*b^-1, b*a*b*a^-1; prime: 2", 8),
    ("gens: a, b; relators: a^4*b^-2, a*b*a*b^-1; prime: 2", 16),
    ("gens: a, b; relators: a^8, b^2, b*a*b^-1*a^-5; prime: 2", 16),
    ("gens: a, b; relators: a^3, b^2, a*b*a*b; prime: 2", 6),
    ("gens: a, b; relators: a^3, b^3, a*b*a*b; prime: 2", 12),
]


@pytest.mark.parametrize("text,order", ORDERS)
def test_enumerated_orders(group, text, order):
    _, tbl = group(text)
    assert tbl.order == order


def test_table_is_a_group(group):
    _, tbl = group("gens: a, b; relators: a^4*b^-2, a*b*a*b^-1; prime: 2")
    n = tbl.order
    for g in range(n):
        assert tbl.mult[0][g] == g and tbl.mult[g][0] == g
        assert tbl.mult[g][tbl.inv[g]] == 0 and tbl.mult[tbl.inv[g]][g] == 0
    for g in range(n):
        for h in range(n):
            for k in range(n):
                assert tbl.mult[tbl.mult[g][h]][k] == tbl.mult[g][tbl.mult[h][k]]


letters = st.tuples(st.integers(0, 1), st.sampled_from([1, -1]))
words = st.lists(letters, max_size=10).map(tuple)


@given(words, words)
@settings(deadline=None, max_examples=80)
def test_word_image_is_a_homomorphism(u, v):
    pres = parse_presentation("gens: a, b; relators: a^4*b^-2, a*b*a*b^-1; prime: 2")
    tbl = todd_coxeter(pres)
    assert word_image(tbl, free_reduce(u + v)) == tbl.mult[word_image(tbl, u)][word_image(tbl, v)]


def test_relators_die_in_the_quotient(group):
    for text, _ in ORDERS:
        pres, tbl = group(text)
        for r in pres.relators:
            assert word_image(tbl, r) == 0


def brute_force_subgroups(tbl):
    """Every subset containing the identity that is closed under the table
    product; Lagrange prunes the subset sizes."""
    n = tbl.order
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    found = set()
    rest = [g for g in range(n) if g != 0]
    for d in divisors:
        for extra in itertools.combinations(rest, d - 1):
            members = (0,) + extra
            mset = set(members)
            if all(tbl.mult[g][h] in mset for g in members for h in members):
                found.add(frozenset(members))
    return found


@pytest.mark.parametrize("text", [
    "gens: a; relators: a^8; prime: 2",
    "gens: a, b; relators: a^2, b^2, a*b*a^-1*b^-1; prime: 2",
    "gens: a, b; relators: a^4, b^2, b*a*b*a; prime: 2",
    "gens: a, b; relators: a*b*a*b^-1, b*a*b*a^-1; prime: 2",
    "gens: a, b; relators: a^3, b^3, a*b*a^-1*b^-1; prime: 3",
    "gens: a, b; relators: a^4*b^-2, a*b*a*b^-1; prime: 2",
])
def test_all_subgroups_vs_brute_force(group, text):
    _, tbl = group(text)
    got = {frozenset(s.members) for s in all_subgroups(tbl)}
    assert got == brute_force_subgroups(tbl)


def test_subgroup_counts(group):
    _, q8 = group("gens: a, b; relators: a*b*a*b^-1, b*a*b*a^-1; prime: 2")
    assert len(all_subgroups(q8)) == 6
    _, d4 = group("gens: a, b; relators: a^4, b^2, b*a*b*a; prime: 2")
    assert len(all_subgroups(d4)) == 10
    _, k4 = group("gens: a, b; relators: a^2, b^2, a*b*a^-1*b^-1; prime: 2")
    assert len(all_subgroups(k4)) == 5
    _, c4 = group("gens: a; relators: a^4; prime: 2")
    assert sorted(len(s.members) for s in all_subgroups(c4)) == [1, 2, 4]


@given(st.lists(st.integers(0, 15), max_size=3))
@settings(deadline=None, max_examples=60)
def test_closure_satisfies_lagrange(gens):
    pres = parse_presentation("gens: a, b; relators: a^8, b^2, b*a*b^-1*a^-5; prime: 2")
    tbl = todd_coxeter(pres)
    sub = subgroup_closure(tbl, [g % tbl.order for g in gens])
    assert tbl.order % len(sub.members) == 0
    mset = set(sub.members)
    assert 0 in mset
    assert all(tbl.mult[g][h] in mset for g in sub.members for h in sub.members)


def test_conjugacy_classes_partition(group):
    _, tbl = group("gens: a, b; relators: a^4, b^2, b*a*b*a; prime: 2")
    subs = all_subgroups(tbl)
    classes = subgroup_conjugacy_classes(tbl, subs)
    assert sum(len(c) for c in classes) == len(subs)
    for cls in classes:
        rep = cls[0]
        assert (len(cls) == 1) == is_normal(tbl, rep)
        conjugates = {conjugate_subgroup_members(tbl, rep.members, g)
                      for g in range(tbl.order)}
        assert conjugates == {frozenset(s.members) for s in cls}


LADDER = ladder_inputs()


@pytest.mark.parametrize("name,text", LADDER, ids=[n for n, _ in LADDER])
def test_orbit_classes_and_generator_normalizers_match_all_elements(group, name, text):
    """Classes as orbits under the generator images, and normalizers tested
    on a subgroup's generators, against conjugation by every element."""
    _, tbl = group(text)
    subs = all_subgroups(tbl)
    classes = subgroup_conjugacy_classes(tbl, subs)
    assert [[s.members for s in c] for c in classes] == all_elements_conjugacy_classes(tbl, subs)
    for sub in subs:
        assert ([g for g in range(tbl.order) if _normalizes(tbl, g, sub, frozenset(sub.members))]
                == all_elements_normalizer(tbl, sub.members))


@pytest.mark.parametrize("name,text", LADDER, ids=[n for n, _ in LADDER])
def test_greedy_generators_match_one_closure_per_pick(group, name, text):
    """On every subgroup of every quotient along the Jennings chains (the
    generating sets that LevelModule.hom_basis stacks), the closure grown
    pick by pick picks the generators that a full closure per pick does."""
    pres, tbl = group(text)
    for p in pres.primes:
        for sub in {s.members: s for s in jennings_series(tbl, p)}.values():
            qt = quotient_table(tbl, sub)[0]
            for h in all_subgroups(qt):
                assert greedy_generators(qt.mult, h.members, {0}) == generators_for(qt, h.members)


@pytest.mark.parametrize("name,text", LADDER, ids=[n for n, _ in LADDER])
def test_subgroup_walk_matches_the_unskipped_cyclic_extensions(group, name, text):
    """all_subgroups skips the normalizer elements inside an extension of
    the same h already built; on every quotient along the Jennings chains
    it gives the members and generators of the walk that tries them all."""
    pres, tbl = group(text)
    for p in pres.primes:
        for sub in {s.members: s for s in jennings_series(tbl, p)}.values():
            qt = quotient_table(tbl, sub)[0]
            assert [(h.members, h.generators) for h in all_subgroups(qt)] == \
                cyclic_extension_subgroups(qt, p)


def test_left_cosets_partition(group):
    _, tbl = group("gens: a, b; relators: a^4*b^-2, a*b*a*b^-1; prime: 2")
    for sub in all_subgroups(tbl):
        coset_of, reps = left_cosets(tbl, sub)
        assert len(reps) == tbl.order // len(sub.members)
        assert len(coset_of) == tbl.order
        members = set(sub.members)
        for g in range(tbl.order):
            r = reps[coset_of[g]]
            # g and its representative lie in the same left coset
            assert tbl.mult[tbl.inv[r]][g] in members


def test_orbit_counts(group):
    _, tbl = group("gens: a, b; relators: a^4, b^2, b*a*b*a; prime: 2")
    subs = all_subgroups(tbl)
    full = max(subs, key=lambda s: len(s.members))
    triv = min(subs, key=lambda s: len(s.members))
    for sub in subs:
        index = tbl.order // len(sub.members)
        assert orbits_on_cosets(tbl, sub, full) == 1
        assert orbits_on_cosets(tbl, sub, triv) == index


def test_orbit_count_for_a_proper_acting_subgroup(group):
    # C4 with H = Q = {1, a^2}: two cosets, each fixed, so two orbits
    _, tbl = group("gens: a; relators: a^4; prime: 2")
    half = next(s for s in all_subgroups(tbl) if len(s.members) == 2)
    assert orbits_on_cosets(tbl, half, half) == 2


def test_quotient_by_center_of_q8_is_klein(group):
    _, tbl = group("gens: a, b; relators: a*b*a*b^-1, b*a*b*a^-1; prime: 2")
    center = next(s for s in all_subgroups(tbl) if len(s.members) == 2)
    q, _ = quotient_table(tbl, center)
    assert q.order == 4
    assert all(q.mult[g][g] == 0 for g in range(4))


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(27) == (3, 3)
    assert prime_power(1) is None
    assert prime_power(12) is None


def test_enumeration_budget():
    pres = parse_presentation("gens: a, b; relators: a^4*b^-2, a*b*a*b^-1; prime: 2")
    with pytest.raises(BudgetExceeded):
        todd_coxeter(pres, max_cosets=3)


def test_all_subgroups_refuses_an_order_past_its_bound():
    """c729 = <a | a^729> is past DEFAULT_SUBGROUP_BOUND = 512: refused
    before any subgroup is listed."""
    tbl = todd_coxeter(parse_presentation("gens: a; relators: a^729; prime: 3"))
    with pytest.raises(BudgetExceeded,
                       match=r"^subgroup enumeration bound 512 exceeded \(order 729\)$"):
        all_subgroups(tbl)


# An order-5 loop with every element self-inverse: identity and inverse laws
# hold, but it is not associative.  1 and 2 generate it (3 = 1*2, 4 = 2*1).
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]
LOOP5_WORDS = ((), ((0, 1),), ((1, 1),), ((0, 1), (1, 1)), ((1, 1), (0, 1)))


def test_light_test_rejects_a_nonassociative_loop():
    loop = FiniteGroupTable(5, LOOP5, (0, 1, 2, 3, 4), (1, 2), LOOP5_WORDS)
    assert [word_image(loop, w) for w in LOOP5_WORDS] == [0, 1, 2, 3, 4]
    assert loop.mult[loop.mult[1][1]][2] != loop.mult[1][loop.mult[1][2]]
    with pytest.raises(AssertionError, match="associativity fails"):
        _verify_table(LOOP5, loop.inv, loop.gen_images, LOOP5_WORDS, ())


# An order-6 loop whose generator 2 is not self-inverse (its inverse is 4),
# so Light's test on the generator images alone meets a letter x^-1 that it
# never tests directly.  1 and 2 generate it (3 = 1*2, 5 = 1*2^-1).
LOOP6 = ((0, 1, 2, 3, 4, 5), (1, 0, 3, 2, 5, 4), (2, 3, 4, 5, 0, 1), (3, 2, 5, 4, 1, 0),
         (4, 5, 0, 1, 3, 2), (5, 4, 1, 0, 2, 3))
LOOP6_INV = (0, 1, 4, 5, 2, 3)
LOOP6_WORDS = ((), ((0, 1),), ((1, 1),), ((0, 1), (1, 1)), ((1, -1),), ((0, 1), (1, -1)))


def test_light_test_rejects_a_loop_with_a_generator_that_is_not_self_inverse():
    loop = FiniteGroupTable(6, LOOP6, LOOP6_INV, (1, 2), LOOP6_WORDS)
    assert [word_image(loop, w) for w in LOOP6_WORDS] == list(range(6))
    assert all(LOOP6[x][LOOP6_INV[x]] == LOOP6[LOOP6_INV[x]][x] == 0 for x in range(6))
    assert LOOP6_INV[2] == 4
    with pytest.raises(AssertionError, match="associativity fails"):
        _verify_table(LOOP6, LOOP6_INV, (1, 2), LOOP6_WORDS, ())


# every corpus file, the benchmark's inputs (q32, m32, c64, c81), nqr32, q128
REPLAY_INPUTS = (
    [(f.name, f.read_text()) for f in sorted(CORPUS_DIR.glob("*.pres"))]
    + [(f.name, f.read_text()) for f in sorted(ORDER32_DIR.glob("*.pres")) + [NQR32]]
    + [("q128", "gens: a, b; relators: a^32*b^-2, a*b*a*b^-1; prime: 2")]
)


def _shuffled(action, seed):
    """The same action with the elements renumbered at random, 0 kept."""
    rest = list(range(1, len(action)))
    random.Random(seed).shuffle(rest)
    new = [0] + rest
    out = [None] * len(action)
    for x, row in enumerate(action):
        out[new[x]] = [new[y] for y in row]
    return out


def _fields(tbl):
    return tbl.mult, tbl.inv, tbl.gen_images, tbl.element_words


def _letter_action(tbl):
    letters = [y for x in tbl.gen_images for y in (x, tbl.inv[x])]
    return letters, [[tbl.mult[x][y] for y in letters] for x in range(tbl.order)]


@pytest.mark.parametrize("name,text", REPLAY_INPUTS, ids=[n for n, _ in REPLAY_INPUTS])
def test_tables_match_the_word_replay_reference(group, name, text):
    pres, tbl = group(text)
    action = _shuffled(_letter_action(tbl)[1], name)
    ref = word_replay_table(action)
    assert _fields(tbl) == ref[:4]
    got, order_of = _canonical_table(action, pres.ngens, pres.relators)
    assert (_fields(got), order_of) == (ref[:4], ref[4])


@pytest.mark.parametrize("name,text", REPLAY_INPUTS, ids=[n for n, _ in REPLAY_INPUTS])
def test_jennings_quotient_tables_match_the_word_replay_reference(group, name, text):
    pres, tbl = group(text)
    letters, _ = _letter_action(tbl)
    for p in pres.primes:
        for sub in {s.members: s for s in jennings_series(tbl, p)}.values():
            qt, coset_map = quotient_table(tbl, sub)
            least = [min(tbl.mult[x][h] for h in sub.members) for x in range(tbl.order)]
            reps = sorted(set(least))
            coset = [reps.index(r) for r in least]
            ref = word_replay_table([[coset[tbl.mult[r][y]] for y in letters] for r in reps])
            assert _fields(qt) == ref[:4]
            assert coset_map == [ref[4][c] for c in coset]
            assert (qt is tbl) == (sub.order == 1)  # G/1 is the canonical table itself


def test_zero_generators_give_the_trivial_table():
    tbl = todd_coxeter(Presentation((), (), (2,)))
    assert _fields(tbl) == (((0,),), (0,), (), ((),))


def test_canonical_table_rejects_an_action_that_is_not_a_group():
    # both letters fix every element: 1 and 2 are never reached
    with pytest.raises(AssertionError, match="do not generate the whole table"):
        _canonical_table([[0, 0], [1, 1], [2, 2]], 1, ())
    # every letter sends everything to 1: row 1 never reaches the identity
    with pytest.raises(AssertionError, match="row without inverse"):
        _canonical_table([[1, 1], [1, 1]], 1, ())
