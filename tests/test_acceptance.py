"""Acceptance battery: ten end-to-end criteria, one test each.

Each test re-runs its pipeline from the presentation text (no cross-test
caching inside the timed block) and asserts the stated wall-clock budget, so
a green run here is a reproducibility statement, not just a correctness one.
Run with -v to get the one-line pass/fail verdict per criterion.
"""

import random
import time

import pytest

from qrlab.intlinalg import AbelianInvariants, identity_rows, is_invertible_modp, p_torsion
from qrlab.presentation import parse_presentation
from qrlab.enumeration import all_subgroups, subgroup_conjugacy_classes, todd_coxeter
from qrlab.groupring import delta_dimension_sequence, dimension_subgroup, jennings_series
from qrlab.relmod import (
    Coinvariants,
    bar_h2,
    coinvariants,
    gab_invariants,
    hopf_h2,
    qr_check_full,
    relation_lattice,
)
from qrlab.permrec import (
    Block,
    LevelModule,
    equivalence_harness,
    gen_perm_lift,
    monomial_matrix,
    perm_recognize_modp,
)

QUATERNION = "gens: a, b; relators: a*b*a*b^-1, b*a*b*a^-1; prime: 2"
TWO_RELATOR_16 = "gens: a, b; relators: a^4*b^-2, a*b*a*b^-1; prime: 2"


class timed:
    def __init__(self, budget_s):
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.budget, (
                f"{self.elapsed:.2f}s exceeds the {self.budget}s budget")


def full_pipeline(text, prime=None):
    pres = parse_presentation(text)
    tbl = todd_coxeter(pres)
    rlat = relation_lattice(pres, tbl)
    p = prime if prime is not None else pres.primes[0]
    return pres, tbl, rlat, qr_check_full(pres, tbl, p)


def test_01_balanced_quaternion_trivial_multiplier_and_qr():
    with timed(5):
        pres, tbl, rlat, rep = full_pipeline(QUATERNION)
        hop, bar = hopf_h2(rlat), bar_h2(tbl)
    assert tbl.order == 8
    assert (hop.free_rank, hop.torsion) == (0, ())
    assert (bar.free_rank, bar.torsion) == (0, ())
    assert rep.quasirational is True


def test_02_two_relator_presentation_is_a_qr_2_group_of_order_16(corpus):
    with timed(5):
        pres, tbl, rlat, rep = full_pipeline(TWO_RELATOR_16)
        hop, bar = hopf_h2(rlat), bar_h2(tbl)
    assert tbl.order == 16  # not 8: the presentation names a bigger group
    assert hop.torsion == () == bar.torsion
    assert rep.quasirational is True
    entry = next(e for e in corpus if e["text"].strip() == TWO_RELATOR_16)
    assert "order 16" in entry["note"] and "quaternion" in entry["note"]


@pytest.mark.parametrize("text,p,budget", [
    ("gens: a, b; relators: a^2, b^2, a*b*a^-1*b^-1; prime: 2", 2, 10),
    ("gens: a, b; relators: a^4, b^2, b*a*b*a; prime: 2", 2, 10),
    ("gens: a, b; relators: a^3, b^3, a*b*a^-1*b^-1; prime: 3", 3, 10),
])
def test_03_negative_controls_carry_a_torsion_witness(text, p, budget):
    with timed(budget):
        pres, tbl, rlat, rep = full_pipeline(text, p)
        hop, bar = hopf_h2(rlat), bar_h2(tbl)
    assert hop.torsion == (p,) == bar.torsion
    assert rep.quasirational is False
    assert rep.witness_level is not None
    witness = next(lv for lv in rep.levels if lv.level == rep.witness_level)
    assert witness.p_torsion != ()


def test_04_cyclic_prime_power_presentations_are_qr(corpus):
    checked = 0
    for entry in corpus:
        pres = parse_presentation(entry["text"])
        if pres.ngens != 1 or len(pres.relators) != 1:
            continue
        word = pres.relators[0]
        if len(word) < 2:
            continue  # the trivial-group entry
        for p in entry["primes"]:
            rep = qr_check_full(pres, todd_coxeter(pres), p)
            assert rep.quasirational is True, entry["id"]
            assert all(lv.p_torsion == () for lv in rep.levels), entry["id"]
            checked += 1
    assert checked == 6  # p^k for p in {2,3}, k in {1,2,3}


def test_05_levelwise_torsion_iff_multiplier_torsion(corpus):
    discrepancies = []
    for entry in corpus:
        pres = parse_presentation(entry["text"])
        tbl = todd_coxeter(pres)
        for p in entry["primes"]:
            rep = qr_check_full(pres, tbl, p)
            some_level = any(lv.p_torsion != () for lv in rep.levels)
            multiplier = p_torsion(rep.g_coinvariants, p) != ()
            if some_level != multiplier:
                discrepancies.append((entry["id"], p))
    assert discrepancies == []


def test_06_coinvariant_torsion_equals_bar_multiplier(corpus):
    for entry in corpus:
        pres = parse_presentation(entry["text"])
        tbl = todd_coxeter(pres)
        if tbl.order > 32:
            continue
        rlat = relation_lattice(pres, tbl)
        full = next(s for s in all_subgroups(tbl) if len(s.members) == tbl.order)
        coin = coinvariants(rlat, full)
        bar = bar_h2(tbl)
        assert coin.invariants.torsion == bar.torsion, entry["id"]
        assert hopf_h2(rlat).torsion == bar.torsion, entry["id"]


def test_07_filtration_oracles_agree_everywhere(corpus):
    for entry in corpus:
        pres = parse_presentation(entry["text"])
        tbl = todd_coxeter(pres)
        for p in entry["primes"]:
            series = jennings_series(tbl, p)
            for n, sub in enumerate(series, start=1):
                direct = dimension_subgroup(tbl, p, n)
                assert set(direct.members) == set(sub.members), (entry["id"], n)
    c4 = todd_coxeter(parse_presentation("gens: a; relators: a^4; prime: 2"))
    assert delta_dimension_sequence(c4, 2) == [3, 2, 1, 0]


def test_08_equivalence_harness_is_clean_on_the_qr_corpus(corpus):
    for entry in corpus:
        pres = parse_presentation(entry["text"])
        tbl = todd_coxeter(pres)
        for p in entry["primes"]:
            if not entry["expected"]["qr"][str(p)]:
                continue
            rep = equivalence_harness(pres, tbl, p)
            assert rep.violations == 0, entry["id"]
            assert rep.unknown_levels == 0, entry["id"]
            assert rep.unknown_rate == 0.0, entry["id"]
    # the sign-twist module: certified generalized, provably not ordinary
    tbl = todd_coxeter(parse_presentation("gens: a; relators: a^2; prime: 2"))
    k = 20
    ring = 1 << k
    coin = Coinvariants(AbelianInvariants(1, ()), 1, (), ((1,),), ((1,),))
    twisted = LevelModule(1, 2, k, tbl, (0, 1), (0,),
                          (((1,),), ((ring - 1,),)), coin)
    plain = LevelModule(1, 2, 1, tbl, (0, 1), (0,), (((1,),), ((1,),)), coin)
    rec = perm_recognize_modp(plain)
    assert rec.status == "certified"
    lift = gen_perm_lift(twisted, rec)
    assert lift.status == "certified"
    assert any(not b.is_plain() for b in lift.certificate.blocks)


def test_09_rank_and_cokernel_laws_exact(corpus):
    from qrlab.intlinalg import lattice_quotient

    for entry in corpus:
        pres = parse_presentation(entry["text"])
        tbl = todd_coxeter(pres)
        rlat = relation_lattice(pres, tbl)
        assert len(rlat.basis) == tbl.order * (pres.ngens - 1) + 1, entry["id"]
        # cokernel law: augmenting the lattice basis generator-blockwise maps
        # onto the image of R/[R,F] in Z^{|X|}, whose cokernel is G_ab
        n = tbl.order
        augmented = [
            [sum(row[g * n:(g + 1) * n]) for g in range(pres.ngens)]
            for row in rlat.basis
        ]
        coker = lattice_quotient(pres.ngens, augmented)
        gab = gab_invariants(pres)
        assert (coker.free_rank, coker.torsion) == (gab.free_rank, gab.torsion), entry["id"]
        assert list(entry["expected"]["gab"]) == list(gab.torsion), entry["id"]


def _synthetic(qtbl, blocks, p):
    acts = tuple(
        tuple(tuple(r) for r in monomial_matrix(qtbl, blocks, q, p))
        for q in range(qtbl.order)
    )
    dim = len(acts[0])
    ident = tuple(tuple(r) for r in identity_rows(dim))
    coin = Coinvariants(AbelianInvariants(dim, ()), dim, (), ident, ident)
    return LevelModule(1, p, 1, qtbl, tuple(range(qtbl.order)),
                       tuple(range(dim)), acts, coin)


def _conjugate(mod, mat):
    from qrlab.intlinalg import modp_solve_left

    dim, p = mod.dim, mod.p
    inv = [modp_solve_left(mat, [int(i == j) for j in range(dim)], p)
           for i in range(dim)]
    acts = []
    for q in range(mod.qtbl.order):
        a = mod.action[q]
        tmp = [[sum(inv[i][x] * a[x][j] for x in range(dim)) % p
                for j in range(dim)] for i in range(dim)]
        acts.append(tuple(tuple(sum(tmp[i][x] * mat[x][j] for x in range(dim)) % p
                                for j in range(dim)) for i in range(dim)))
    return LevelModule(mod.level, mod.p, mod.k, mod.qtbl, mod.coset_map,
                       mod.surviving, tuple(acts), mod.coin)


def test_10_randomized_recognizer_battery():
    rng = random.Random(0xA11CE)
    pool = []
    for text in (
        "gens: a; relators: a^4; prime: 2",
        "gens: a; relators: a^8; prime: 2",
        "gens: a, b; relators: a^2, b^2, a*b*a^-1*b^-1; prime: 2",
        "gens: a, b; relators: a^4, b^2, b*a*b*a; prime: 2",
        QUATERNION,
        "gens: a; relators: a^9; prime: 3",
        "gens: a, b; relators: a^3, b^3, a*b*a^-1*b^-1; prime: 3",
    ):
        pres = parse_presentation(text)
        tbl = todd_coxeter(pres)
        reps = [c[0] for c in subgroup_conjugacy_classes(tbl, all_subgroups(tbl))]
        pool.append((tbl, reps, pres.primes[0]))

    for trial in range(100):
        tbl, reps, p = pool[rng.randrange(len(pool))]
        blocks = []
        total = 0
        want = []
        for _ in range(rng.randrange(1, 4)):
            j = rng.randrange(len(reps))
            dim = tbl.order // len(reps[j].members)
            if total + dim > 20:
                continue
            total += dim
            blocks.append(Block(j, reps[j], (1,) * len(reps[j].members)))
            want.append(len(reps[j].members))
        if not blocks:
            j = len(reps) - 1
            blocks = [Block(j, reps[j], (1,) * len(reps[j].members))]
            want = [len(reps[j].members)]
        mod = _synthetic(tbl, tuple(blocks), p)
        while True:
            mat = [[rng.randrange(p) for _ in range(mod.dim)] for _ in range(mod.dim)]
            if is_invertible_modp(mat, p):
                break
        rec = perm_recognize_modp(_conjugate(mod, mat))
        assert rec.status == "certified", (trial, rec.refutation)
        got = sorted(len(reps[j].members)
                     for j, m in enumerate(rec.multiplicities) for _ in range(m))
        assert got == sorted(want), trial

    # and the classical counterexample: a unipotent Jordan block of size 3
    tbl, reps, _ = pool[0]
    j3 = ((1, 1, 0), (0, 1, 1), (0, 0, 1))
    mats = [identity_rows(3)]
    for _ in range(3):
        prev = mats[-1]
        mats.append([[sum(prev[i][x] * j3[x][j] for x in range(3)) % 2
                      for j in range(3)] for i in range(3)])
    gen = tbl.gen_images[0]
    by_elt = [None] * 4
    for i in range(4):
        by_elt[tbl.power(gen, i)] = tuple(tuple(r) for r in mats[i])
    ident = tuple(tuple(r) for r in identity_rows(3))
    coin = Coinvariants(AbelianInvariants(3, ()), 3, (), ident, ident)
    jordan = LevelModule(1, 2, 1, tbl, (0, 1, 2, 3), (0, 1, 2), tuple(by_elt), coin)
    rec = perm_recognize_modp(jordan)
    assert rec.status == "refuted"
    assert rec.marks.candidates == ()
