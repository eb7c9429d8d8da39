"""Acceptance battery: ten end-to-end criteria, one test each.

Each test re-runs its pipeline from the presentation text (no cross-test
caching inside the timed block) and asserts the stated wall-clock budget, so
a green run here is a reproducibility statement, not just a correctness one.
Run with -v to get the one-line pass/fail verdict per criterion.
"""

import random
import time

import pytest

from qrlab.intlinalg import (
    AbelianInvariants,
    fp_rows,
    modp_rank,
    p_torsion,
)
from qrlab.presentation import parse_presentation
from qrlab.enumeration import Subgroup, all_subgroups, subgroup_conjugacy_classes, todd_coxeter
from qrlab.groupring import delta_dimension_sequence, jennings_series
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
    monomial_rows,
    perm_recognize_modp,
)

from reference import cycle_basis, dense_inverse, dimension_subgroup

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
    """On the bundled corpus some level has p-torsion exactly when H2(G)
    does.  This holds for these groups, not in general: level n's torsion
    is H2(D_n), which can be nonzero while H2(G) = 0."""
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
    # the sign-twist module: certified generalized, provably not ordinary
    tbl = todd_coxeter(parse_presentation("gens: a; relators: a^2; prime: 2"))
    k = 20
    ring = 1 << k
    coin = Coinvariants(AbelianInvariants(1, ()), Subgroup((0,), ()))
    # one-dimensional: the packed row of the 1x1 matrix (x) is x
    twisted = LevelModule(1, 2, k, tbl, (0,), {1: (ring - 1,)}, coin)
    plain = LevelModule(1, 2, 1, tbl, (0,), {1: (1,)}, coin)
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
        assert rlat.rank == tbl.order * (pres.ngens - 1) + 1, entry["id"]
        # cokernel law: augmenting the lattice basis generator-blockwise maps
        # onto the image of R/[R,F] in Z^{|X|}, whose cokernel is G_ab
        n = tbl.order
        augmented = [
            [sum(row[g * n:(g + 1) * n]) for g in range(pres.ngens)]
            for row in cycle_basis(rlat)
        ]
        coker = lattice_quotient(pres.ngens, augmented)
        gab = gab_invariants(pres)
        assert (coker.free_rank, coker.torsion) == (gab.free_rank, gab.torsion), entry["id"]
        assert list(entry["expected"]["gab"]) == list(gab.torsion), entry["id"]


def _module(qtbl, p, dim, rows_of):
    """A module over a free level of the trivial subgroup, given by
    rows_of(x, lay), the matrix of x as rows packed in lay = fp_rows(dim, p),
    on every generator image x of Q and its inverse."""
    coin = Coinvariants(AbelianInvariants(dim, ()), Subgroup((0,), ()))
    lay = fp_rows(dim, p)
    letters = {x: rows_of(x, lay) for g in qtbl.gen_images for x in (g, qtbl.inv[g])}
    return LevelModule(1, p, 1, qtbl, tuple(range(dim)), letters, coin)


def _synthetic(qtbl, blocks, p):
    dim = sum(qtbl.order // b.sub.order for b in blocks)
    return _module(qtbl, p, dim, lambda x, lay: monomial_rows(qtbl, blocks, x, lay))


def _conjugate(mod, mat):
    """The same module in the basis mat: A'[x] = mat^-1 A[x] mat on every letter."""
    from qrlab.intlinalg import mat_mul

    dim, p = mod.dim, mod.p
    inv = dense_inverse(mat, p)
    return _module(mod.qtbl, p, dim, lambda x, lay: tuple(map(lay.pack, mat_mul(
        mat_mul(inv, list(map(mod.layout.unpack, mod.letters[x]))), mat))))


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
            if modp_rank(mat, mod.dim, p) == mod.dim:
                break
        rec = perm_recognize_modp(_conjugate(mod, mat))
        assert rec.status == "certified", (trial, rec.refutation)
        got = sorted(len(reps[j].members)
                     for j, m in enumerate(rec.multiplicities) for _ in range(m))
        assert got == sorted(want), trial

    # and the classical counterexample: a unipotent Jordan block of size 3,
    # of order 4 mod 2, so that its inverse is its cube
    tbl, reps, _ = pool[0]
    j3 = ((1, 1, 0), (0, 1, 1), (0, 0, 1))
    cube = ((1, 1, 1), (0, 1, 1), (0, 0, 1))
    gen = tbl.gen_images[0]
    jordan = _module(tbl, 2, 3, lambda x, lay: tuple(map(lay.pack, j3 if x == gen else cube)))
    rec = perm_recognize_modp(jordan)
    assert rec.status == "refuted"
    assert rec.marks.candidates == ()
