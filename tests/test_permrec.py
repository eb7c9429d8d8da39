"""Mod-p permutation recognition and the integral lift machinery.

Synthetic monomial modules with known composition are scrambled by a change
of basis and fed back to the recognizer; the recovered multiset must match.
Refutations are pinned down to the precise marks argument that produced them.
"""

import itertools
import math
import random
from dataclasses import replace

import pytest
from hypothesis import Phase, given, settings, strategies as st

from qrlab.errors import InputError, PropertyViolation
from qrlab.intlinalg import (
    AbelianInvariants,
    FpRows,
    fp_rows,
    identity_rows,
    integer_inverse,
    mat_mul,
    modp_rank,
)
from qrlab.presentation import parse_presentation
from qrlab.enumeration import (
    Subgroup,
    all_subgroups,
    greedy_generators,
    prime_power,
    quotient_table,
    subgroup_conjugacy_classes,
    todd_coxeter,
)
from qrlab.groupring import dimension_subgroup_chain
from qrlab.relmod import Coinvariants, coinvariants, qr_check, relation_lattice
from qrlab import permrec
from qrlab.permrec import (
    Block,
    LevelModule,
    SubgroupLattice,
    _certify_letters,
    _identity,
    _level_outcome,
    equivalence_harness,
    gen_perm_lift,
    marks_multiplicities,
    module_from_coinvariants,
    monomial_rows,
    perm_recognize_modp,
    sign_characters,
    tower_harness,
    transition_map,
)

from conftest import CORPUS_DIR, NQR64, ORDER32, ORDER32_DIR, ladder_inputs, walk_inputs
from reference import (
    closure,
    coset_marks,
    dense_inverse,
    dense_rref,
    digit_by_digit_lifts,
    eager_marks,
    orbits_on_cosets,
    per_level_lattice,
    searched_sign_characters,
    stacked_brauer_dim,
    stacked_hom_basis,
)


def frozen(mat):
    return tuple(tuple(r) for r in mat)


def packed(mat, ring):
    """A square matrix as the packed rows a LevelModule holds."""
    return tuple(map(fp_rows(len(mat), ring).pack, mat))


def dense(mod, rows):
    """The packed rows of a matrix of mod, unpacked."""
    return frozen(map(mod.layout.unpack, rows))


def letter_matrices(qtbl, matrix_of, ring):
    """matrix_of(x), packed, for every generator image x of Q and its inverse."""
    return {x: packed(matrix_of(x), ring) for g in qtbl.gen_images for x in (g, qtbl.inv[g])}


def hand_module(qtbl, p, k, dim, letters):
    """A module over a free level of the trivial subgroup, whose lattice is
    its own coordinates, letters packed over Z/p^k."""
    coin = Coinvariants(AbelianInvariants(dim, ()), Subgroup((0,), ()))
    return LevelModule(1, p, k, qtbl, tuple(range(dim)), letters, coin,
                       _identity(fp_rows(dim, p ** k)))


def synthetic_module(qtbl, blocks, p, k):
    """The monomial module itself, in its defining coordinates."""
    dim = sum(qtbl.order // b.sub.order for b in blocks)
    lay = fp_rows(dim, p ** k)
    letters = {x: monomial_rows(qtbl, blocks, x, lay)
               for g in qtbl.gen_images for x in (g, qtbl.inv[g])}
    return hand_module(qtbl, p, k, dim, letters)


def random_invertible(dim, p, rng):
    while True:
        mat = [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)]
        if modp_rank(mat, dim, p) == dim:
            return mat


def change_basis(mod, mat, inv, ring):
    """Same module in other coordinates: A'[x] = P^-1 A[x] P on every letter."""
    return replace(mod, letters={
        x: packed(mat_mul(mat_mul(inv, dense(mod, a)), mat), ring)
        for x, a in mod.letters.items()
    })


def conjugate_module(mod, mat):
    """Same module in scrambled coordinates, over F_p."""
    return change_basis(mod, mat, dense_inverse(mat, mod.p), mod.p)


def level_module(text, level, k=1):
    pres = parse_presentation(text)
    tbl = todd_coxeter(pres)
    p = pres.primes[0]
    chain = dimension_subgroup_chain(tbl, p)
    sub = chain[level - 1]
    coin = coinvariants(relation_lattice(pres, tbl), sub)
    return module_from_coinvariants(coin, p, k, level=level)


Q8 = "gens: a, b; relators: a*b*a*b^-1, b*a*b*a^-1; prime: 2"
D4 = "gens: a, b; relators: a^4, b^2, b*a*b*a; prime: 2"
C4 = "gens: a; relators: a^4; prime: 2"
KLEIN = "gens: a, b; relators: a^2, b^2, a*b*a^-1*b^-1; prime: 2"
Q16 = "gens: a, b; relators: a^4*b^-2, a*b*a*b^-1; prime: 2"
M16 = "gens: a, b; relators: a^8, b^2, b*a*b^-1*a^-5; prime: 2"
Q32 = "gens: a, b; relators: a^8*b^-2, a*b*a*b^-1; prime: 2"
C3XC3 = "gens: a, b; relators: a^3, b^3, a*b*a^-1*b^-1; prime: 3"
C9 = "gens: a; relators: a^9; prime: 3"
Q64 = "gens: a, b; relators: a^16*b^-2, a*b*a*b^-1; prime: 2"
C64 = "gens: a; relators: a^64; prime: 2"
S3 = "gens: a, b; relators: a^3, b^2, a*b*a*b; prime: 2"
A4 = "gens: a, b; relators: a^2, b^3, a*b*a*b*a*b; prime: 2"


def table_of(text):
    return todd_coxeter(parse_presentation(text))


def class_reps(tbl):
    return [c[0] for c in subgroup_conjugacy_classes(tbl, all_subgroups(tbl))]


# --- matrix conventions ---------------------------------------------------

def test_monomial_rows_anticomposition():
    tbl = table_of(Q8)
    reps = class_reps(tbl)
    block = Block(1, reps[1], (1,) * len(reps[1].members))
    lay = fp_rows(tbl.order // reps[1].order, 2)
    mats = [frozen(map(lay.unpack, monomial_rows(tbl, [block], q, lay))) for q in range(tbl.order)]
    assert mats[0] == frozen(identity_rows(len(mats[0])))
    for q1 in range(tbl.order):
        for q2 in range(tbl.order):
            q12 = tbl.mult[q1][q2]
            dim = len(mats[0])
            prod = [[sum(mats[q2][i][x] * mats[q1][x][j] for x in range(dim)) % 2
                     for j in range(dim)] for i in range(dim)]
            assert prod == [list(r) for r in mats[q12]]


def test_monomial_rows_signs_square_away():
    tbl = table_of(C4)
    full = Subgroup(tuple(range(4)), (tbl.gen_images[0],))
    chars = sign_characters(full, all_subgroups(tbl))
    twisted = next(x for x in chars if any(v != 1 for v in x))
    ring = 8
    block = Block(0, full, twisted)
    lay = fp_rows(1, ring)
    mats = [frozen(map(lay.unpack, monomial_rows(tbl, [block], q, lay))) for q in range(4)]
    gen = tbl.gen_images[0]
    cur = mats[0]
    for _ in range(4):
        cur = [[sum(mats[gen][i][x] * cur[x][j] for x in range(1)) % ring
                for j in range(1)] for i in range(1)]
    assert cur == [list(r) for r in mats[0]]


def test_sign_characters_are_characters():
    for text in (C4, KLEIN, Q8):
        tbl = table_of(text)
        subs = all_subgroups(tbl)
        for sub in subs:
            chars = sign_characters(sub, subs)
            members = list(sub.members)
            pos = {g: i for i, g in enumerate(members)}
            assert chars[0] == (1,) * len(members)
            for xi in chars:
                assert set(xi) <= {1, -1}
                for g in members:
                    for h in members:
                        assert xi[pos[tbl.mult[g][h]]] == xi[pos[g]] * xi[pos[h]]
            assert len(set(chars)) == len(chars)


def test_sign_character_counts():
    tbl = table_of(KLEIN)
    full = next(s for s in all_subgroups(tbl) if len(s.members) == 4)
    assert len(sign_characters(full, all_subgroups(tbl))) == 4
    tbl = table_of(C4)
    full = next(s for s in all_subgroups(tbl) if len(s.members) == 4)
    assert len(sign_characters(full, all_subgroups(tbl))) == 2


# --- recognizer on synthetic input ----------------------------------------

def test_identity_coordinates_certify():
    tbl = table_of(Q8)
    reps = class_reps(tbl)
    blocks = (Block(0, reps[0], (1,)),
              Block(2, reps[2], (1,) * 4),
              Block(5, reps[5], (1,) * 8))
    mod = synthetic_module(tbl, blocks, 2, 1)
    rec = perm_recognize_modp(mod)
    assert rec.status == "certified"
    got = tuple((len(reps[j].members), m)
                for j, m in enumerate(rec.multiplicities) if m)
    assert got == ((1, 1), (4, 1), (8, 1))
    assert rec.certificate is not None


def test_scrambled_coordinates_certify_with_same_multiset():
    rng = random.Random(11)
    tbl = table_of(D4)
    reps = class_reps(tbl)
    blocks = (Block(0, reps[0], (1,)), Block(3, reps[3], (1,) * len(reps[3].members)))
    mod = synthetic_module(tbl, blocks, 2, 1)
    want = sorted(len(b.sub.members) for b in blocks)
    for _ in range(4):
        scrambled = conjugate_module(mod, random_invertible(mod.dim, 2, rng))
        rec = perm_recognize_modp(scrambled)
        assert rec.status == "certified"
        got = sorted(len(reps[j].members)
                     for j, m in enumerate(rec.multiplicities) for _ in range(m))
        assert got == want


def test_randomized_battery():
    rng = random.Random(20260819)
    pool = [(C4, 2), (KLEIN, 2), (D4, 2), (Q8, 2),
            ("gens: a; relators: a^9; prime: 3", 3), (C3XC3, 3)]
    for trial in range(20):
        text, p = pool[rng.randrange(len(pool))]
        tbl = table_of(text)
        reps = class_reps(tbl)
        blocks = []
        total = 0
        for _ in range(rng.randrange(1, 4)):
            j = rng.randrange(len(reps))
            dim = tbl.order // len(reps[j].members)
            if total + dim > 18:
                continue
            total += dim
            blocks.append(Block(j, reps[j], (1,) * len(reps[j].members)))
        if not blocks:
            blocks = [Block(0, reps[0], (1,))]
        mod = synthetic_module(tbl, tuple(blocks), p, 1)
        scrambled = conjugate_module(mod, random_invertible(mod.dim, p, rng))
        rec = perm_recognize_modp(scrambled)
        assert rec.status == "certified", (text, trial, rec.refutation)
        want = sorted(len(b.sub.members) for b in blocks)
        got = sorted(len(reps[j].members)
                     for j, m in enumerate(rec.multiplicities) for _ in range(m))
        assert got == want, (text, trial)


def test_norm_rank_counts_free_blocks():
    """rank of the full norm acting on the module equals the number of free
    summands: the H = 1 case of the socle criterion, whose traces Tr_1^Q
    are the full norm and span the free blocks' orbit sums."""
    rng = random.Random(7)
    tbl = table_of(D4)
    reps = class_reps(tbl)
    for free_count in (0, 1, 2):
        blocks = [Block(0, reps[0], (1,))] * free_count
        blocks.append(Block(4, reps[4], (1,) * len(reps[4].members)))
        mod = synthetic_module(tbl, tuple(blocks), 2, 1)
        scrambled = conjugate_module(mod, random_invertible(mod.dim, 2, rng))
        norm = [[0] * mod.dim for _ in range(mod.dim)]
        for q in range(tbl.order):
            a = dense(scrambled, scrambled.act(q))
            for i in range(mod.dim):
                for j in range(mod.dim):
                    norm[i][j] = (norm[i][j] + a[i][j]) % 2
        assert modp_rank(norm, mod.dim, 2) == free_count


def test_marks_dimensions_from_subgroup_generators():
    """marks_multiplicities reads dim M^K from the generators of each class
    K; every member of K must give the same."""
    def differences(mod, K):
        return [[(x - (i == j)) % mod.p for j, x in enumerate(row)]
                for g in K.members for i, row in enumerate(dense(mod, mod.act(g)))]

    rng = random.Random(11)
    tbl = table_of(D4)
    reps = class_reps(tbl)
    synthetic = synthetic_module(tbl, (Block(0, reps[0], (1,)), Block(3, reps[3], (1, 1))), 2, 1)
    mods = [conjugate_module(synthetic, random_invertible(synthetic.dim, 2, rng))]
    mods += [level_module(Q16, level) for level in (1, 2, 3)]
    for mod in mods:
        for K in marks_multiplicities(mod).classes:
            rows = differences(mod, K)
            side_by_side = [[x for b in range(0, len(rows), mod.dim) for x in rows[b + i]]
                            for i in range(mod.dim)]
            assert len(mod.hom_basis(K, (1,) * K.order)) == mod.dim - modp_rank(
                side_by_side, len(rows), mod.p)


# --- refutations ----------------------------------------------------------

def test_jordan_block_is_refuted_by_marks():
    tbl = table_of(C4)
    j3 = ((1, 1, 0), (0, 1, 1), (0, 0, 1))
    j3_cubed = ((1, 1, 1), (0, 1, 1), (0, 0, 1))  # mod 2, the inverse of j3
    gen = tbl.gen_images[0]
    mod = hand_module(tbl, 2, 1, 3, {gen: packed(j3, 2), tbl.inv[gen]: packed(j3_cubed, 2)})
    rec = perm_recognize_modp(mod)
    assert rec.status == "refuted"
    assert rec.trials == 0
    assert rec.marks.candidates == ()


# level, frozen witness fragment: the first back-substitution step that fails
REFUTED_LEVELS = [
    (Q16, 5, "non-integral multiplicity 1/2"),
    (M16, 5, "non-integral multiplicity 1/2"),
    (Q8, 2, "negative multiplicity -1"),
    (Q8, 3, "non-integral multiplicity 1/2"),
    (KLEIN, 2, "non-integral multiplicity 1/2"),
    (C3XC3, 2, "non-integral multiplicity 1/3"),
]


@pytest.mark.parametrize("text,level,fragment", REFUTED_LEVELS)
def test_relation_levels_refuted_with_pinned_witness(text, level, fragment):
    mod = level_module(text, level)
    rec = perm_recognize_modp(mod)
    assert rec.status == "refuted" and rec.trials == 0
    assert fragment in rec.marks.witness


def test_q16_level5_marks_detail():
    """The witness step is class 5: the classes below it are never read,
    and the eager reference reads them all."""
    mod = level_module(Q16, 5)
    mk = marks_multiplicities(mod)
    assert mod.dim == 17
    assert mk.brauer_dims == (None,) * 5 + (1, 0, 0, 0)
    assert mk.candidates == ()
    assert eager_marks(mod) == ((17, 1, 1, 1, 1, 1, 0, 0, 0), (), mk.witness)
    assert tuple(len(mod.hom_basis(K, (1,) * K.order))
                 for K in mk.classes) == (17, 9, 5, 5, 5, 3, 3, 3, 2)


def test_refuted_marks_read_the_brauer_quotients_down_to_the_witness_only(monkeypatch):
    """q16's level 5 is refuted at class 5 of 9: _brauer_dim runs for the
    classes from the top down to 5, once each, and for no class below."""
    mod = level_module(Q16, 5)
    read = []
    brauer_dim = permrec._brauer_dim
    monkeypatch.setattr(permrec, "_brauer_dim",
                        lambda mod, K, maximal: read.append(K) or brauer_dim(mod, K, maximal))
    mk = marks_multiplicities(mod)
    assert "class 5 " in mk.witness
    assert [mk.classes.index(K) for K in read] == [8, 7, 6, 5]


LADDER = ladder_inputs()


@pytest.mark.parametrize("name,text", LADDER, ids=[n for n, _ in LADDER])
def test_lazy_marks_match_the_eager_reference(lattice, name, text):
    """On every distinct level of every ladder input at each of its primes,
    torsion levels included: the same candidates and witness as every
    Brauer quotient first (eager_marks), and every quotient read is the
    eager one."""
    pres = parse_presentation(text)
    for p in pres.primes:
        qr = qr_check(lattice(text), p)
        for lv in {id(lv.coin): lv for lv in qr.levels}.values():
            mod = module_from_coinvariants(lv.coin, p, 1, lv.level)
            mk = marks_multiplicities(mod)
            dims, candidates, witness = eager_marks(mod)
            assert (mk.candidates, mk.witness) == (candidates, witness)
            assert len(mk.brauer_dims) == len(dims)
            assert all(got in (None, want) for got, want in zip(mk.brauer_dims, dims))


# the corpus at each of its primes, q32, m32, c64, c81, nqr32 and nqr64
LATTICE_INPUTS = [(n, text, p) for n, text, p in walk_inputs() if n != "c9xc9"]
LATTICE_INPUTS += [(n, (ORDER32_DIR / f"{n}.pres").read_text(), p)
                   for n, p in (("c64", 2), ("c81", 3))]
LATTICE_INPUTS += [("nqr64", NQR64.read_text(), 2)]


def distinct_levels(qr):
    return list({id(lv.coin): lv for lv in qr.levels}.values())


@pytest.mark.parametrize("name,text,p", LATTICE_INPUTS, ids=[n for n, _, _ in LATTICE_INPUTS])
def test_every_level_reads_its_subgroups_off_one_lattice(lattice, name, text, p):
    """The classes, maximal lists and table of marks of every distinct
    level's quotient, read off G's lattice through the quotient map, are
    those of a build on the quotient itself."""
    qr = qr_check(lattice(text), p)
    top = SubgroupLattice.of(qr.rlat.tbl, p)
    for lv in distinct_levels(qr):
        classes, maximal, marks = top.level(lv.coin.quotient_map)
        want_classes, want_maximal, want_marks = per_level_lattice(lv.coin.quotient, p)
        assert [K.members for K in classes] == [K.members for K in want_classes]
        assert ([[L.members for L in ls] for ls in maximal]
                == [[L.members for L in ls] for ls in want_maximal])
        assert marks == want_marks, (name, lv.level)
        for K in classes:
            assert tuple(sorted(closure(lv.coin.quotient, K.generators))) == K.members


def test_one_subgroup_enumeration_per_harness_run(lattice, monkeypatch):
    """tower_harness enumerates subgroups once, on G."""
    calls = []
    enumerate_subgroups = permrec.all_subgroups
    monkeypatch.setattr(permrec, "all_subgroups",
                        lambda tbl: calls.append(tbl.order) or enumerate_subgroups(tbl))
    for text in (Q32, C64):
        qr = qr_check(lattice(text), 2)
        calls.clear()
        rep = tower_harness(qr)
        assert calls == [qr.rlat.tbl.order] == [rep.levels[-1].quotient_order]
        assert len({o.quotient_order for o in rep.levels}) > 1


@pytest.mark.parametrize("name,text,p", LATTICE_INPUTS, ids=[n for n, _, _ in LATTICE_INPUTS])
def test_fixed_spaces_read_inside_known_ones_are_the_stacked_kernels(lattice, name, text, p):
    """On every distinct level, with the Brauer quotient of every class
    read: every fixed space the marks build, each maximal subgroup of a
    class and each nontrivial Frattini subgroup among them, is the reduced
    echelon basis of the one full-width kernel (stacked_hom_basis); and
    every Brauer dimension, which only counts M^K, is the one read off
    those kernels (stacked_brauer_dim)."""
    qr = qr_check(lattice(text), p)
    top = SubgroupLattice.of(qr.rlat.tbl, p)
    for lv in distinct_levels(qr):
        mod = module_from_coinvariants(lv.coin, p, 1, lv.level)
        classes, maximal, _ = top.level(lv.coin.quotient_map)
        for K, ms in zip(classes, maximal):
            assert permrec._brauer_dim(mod, K, ms) == stacked_brauer_dim(mod, K, ms), \
                (name, lv.level, K.members)
        frattinis = {tuple(sorted(set(K.members).intersection(*(L.members for L in ms))))
                     for K, ms in zip(classes, maximal) if ms}
        assert {L.members for ms in maximal for L in ms} | {f for f in frattinis if len(f) > 1} \
            <= {members for members, _ in mod.homs}
        for (members, xi), rows in mod.homs.items():
            want = stacked_hom_basis(mod, Subgroup(members, ()), xi)
            assert list(rows) == want, (name, lv.level, members)


def test_d4_level2_unique_candidate_certifies():
    mod = level_module(D4, 2)
    mk = marks_multiplicities(mod)
    assert mk.candidates == ((0, 0, 1, 1, 1),)
    rec = perm_recognize_modp(mod)
    assert rec.status == "certified"
    got = tuple((len(mk.classes[j].members), m)
                for j, m in enumerate(rec.multiplicities) if m)
    assert got == ((2, 1), (2, 1), (4, 1))


# --- the socle criterion -----------------------------------------------------

def jordan_sum_module(tbl, p, sizes):
    """The generator of a cyclic group acting by the Jordan blocks J_d,
    eigenvalue 1, of the given sizes, over F_p."""
    dim = sum(sizes)
    mat = identity_rows(dim)
    start = 0
    for d in sizes:
        for i in range(start, start + d - 1):
            mat[i][i + 1] = 1
        start += d
    gen = tbl.gen_images[0]
    letters = {gen: packed(mat, p), tbl.inv[gen]: packed(dense_inverse(mat, p), p)}
    return hand_module(tbl, p, 1, dim, letters)


def partitions(total, largest):
    """The multisets of part sizes in [1, largest] summing to total,
    each in non-increasing order."""
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest), 0, -1):
        for rest in partitions(total - part, part):
            yield (part,) + rest


def test_socle_criterion_decides_every_jordan_block_sum():
    """Every multiset of Jordan blocks of total dimension at most 10 over
    F_2[C4], F_2[C8] and F_3[C9], scrambled.  The indecomposables of a
    cyclic p-group C are the J_d, d <= |C|, and J_{p^i} is the permutation
    module on the cosets of the subgroup of index p^i; by Krull-Schmidt a
    sum is a permutation module iff every block size is a power of p.  So
    the recognizer certifies exactly those, with one block of the subgroup
    of order |C|/d per J_d, and refutes every other: 27 of them pass the
    marks and are refuted by the socle criterion."""
    rng = random.Random("socle jordan sums")
    modules = socle_refuted = 0
    for text, p in [(C4, 2), ("gens: a; relators: a^8; prime: 2", 2), (C9, 3)]:
        tbl = table_of(text)
        powers = {p ** i: i for i in range(tbl.order.bit_length()) if p ** i <= tbl.order}
        for total in range(1, 11):
            for sizes in partitions(total, tbl.order):
                mod = jordan_sum_module(tbl, p, sizes)
                rec = perm_recognize_modp(conjugate_module(mod, random_invertible(total, p, rng)))
                modules += 1
                if all(d in powers for d in sizes):
                    assert rec.status == "certified", (text, sizes, rec.refutation)
                    # class j has order p^j, and J_d is induced from order |C|/d
                    want = [0] * len(powers)
                    for d in sizes:
                        want[len(powers) - 1 - powers[d]] += 1
                    assert rec.multiplicities == tuple(want), (text, sizes)
                else:
                    assert rec.status == "refuted", (text, sizes)
                    socle_refuted += bool(rec.marks.candidates)
    assert modules == 365
    assert socle_refuted == 27


def test_socle_refutes_j3_plus_j3_at_the_trivial_class():
    """J_3 + J_3 over F_2[C4] passes the marks with one free block and one
    block on C2, but (g - 1)^3 = 0 kills the full norm 1 + g + g^2 + g^3
    = (g - 1)^3 mod 2, so the free block's trace has rank 0."""
    rec = perm_recognize_modp(jordan_sum_module(table_of(C4), 2, (3, 3)))
    assert rec.marks.candidates == ((1, 1, 0),)
    assert rec.status == "refuted" and rec.trials == 0 and rec.certificate is None
    assert "subgroup class 0 (order 1) add rank 0" in rec.refutation
    assert "short of its multiplicity 1" in rec.refutation


def test_socle_refutes_a_lift_that_is_trivial_mod_2():
    """C2 acting on (Z/4)^2 by g = [[1, 2], [0, 1]] is the trivial module
    twice mod 2, certified, but no sum of two sign characters: those act
    by I, -I or a matrix of determinant -1, and g has determinant 1 and is
    neither.  The trivial hom space reduces to rank 1 and the sign one to
    rank 0, one short of the two blocks on C2."""
    tbl = table_of("gens: a; relators: a^2; prime: 2")
    plain = hand_module(tbl, 2, 1, 2, letter_matrices(tbl, lambda x: identity_rows(2), 2))
    rec = perm_recognize_modp(plain)
    assert rec.status == "certified" and rec.multiplicities == (0, 2)
    shear = hand_module(tbl, 2, 2, 2, letter_matrices(tbl, lambda x: [[1, 2], [0, 1]], 4))
    lift = gen_perm_lift(shear, rec)
    assert lift.status == "refuted" and lift.certificate is None
    assert lift.assignments_tried == 1
    assert "subgroup class 1 (order 2) add rank 1" in lift.refutation


def test_socle_certificate_that_fails_verification_is_raised(monkeypatch):
    """The assembled matrix is checked by _verify_certificate, which shares
    no code with the socle criterion; a failure raises, under -O too."""
    mod = level_module(D4, 2)
    monkeypatch.setattr(permrec, "_verify_certificate", lambda mod, blocks, phi: False)
    with pytest.raises(PropertyViolation, match="independent verification"):
        perm_recognize_modp(mod)


# --- Brauer quotients against direct counts ----------------------------------

def fixed_coset_count(tbl, blocks, K):
    """|X^K| for X the disjoint union of the blocks' coset spaces Q/H, each
    coset a set of elements, fixed when every member of K maps it to itself."""
    count = 0
    for b in blocks:
        cosets = {frozenset(tbl.mult[g][h] for h in b.sub.members) for g in range(tbl.order)}
        count += sum(all(frozenset(tbl.mult[k][x] for x in c) == c for k in K.members)
                     for c in cosets)
    return count


@pytest.mark.parametrize("text,p", [(D4, 2), (Q8, 2), (C4, 2), (KLEIN, 2),
                                    (C3XC3, 3), (C9, 3), (Q16, 2), (M16, 2)])
def test_brauer_dims_count_fixed_cosets(text, p):
    rng = random.Random(f"brauer {text} {p}")
    tbl = table_of(text)
    reps = class_reps(tbl)
    for _ in range(4):
        blocks = []
        for _ in range(rng.randrange(1, 4)):
            j = rng.randrange(len(reps))
            if sum(tbl.order // b.sub.order for b in blocks) + tbl.order // reps[j].order <= 20:
                blocks.append(Block(j, reps[j], (1,) * reps[j].order))
        mod = synthetic_module(tbl, tuple(blocks), p, 1)
        mk = marks_multiplicities(conjugate_module(mod, random_invertible(mod.dim, p, rng)))
        assert mk.classes == tuple(reps)
        assert mk.brauer_dims == tuple(fixed_coset_count(tbl, blocks, K) for K in reps)
        assert mk.candidates == (tuple(sum(b.class_index == j for b in blocks)
                                       for j in range(len(reps))),)
        assert mk.witness is None


def test_marks_table_is_the_coset_walk(corpus, group, monkeypatch):
    """The table of marks counted over the subgroup classes equals the
    reference walk over the cosets, on the quotient by every level of the
    Jennings chain of the corpus, q32, m32, q64, c64 and c81."""
    inputs = [(e["text"], p) for e in corpus for p in e["primes"]]
    inputs += [((ORDER32_DIR / name).read_text(), 2) for name in ORDER32 + ("c64.pres",)]
    inputs += [(Q64, 2), ((ORDER32_DIR / "c81.pres").read_text(), 3)]
    tables = []
    solve = permrec._solve_marks
    monkeypatch.setattr(permrec, "_solve_marks",
                        lambda marks, *rest: tables.append(marks) or solve(marks, *rest))
    checked = 0
    for text, p in inputs:
        _, tbl = group(text)
        for sub in {s.members: s for s in dimension_subgroup_chain(tbl, p)}.values():
            qtbl = quotient_table(tbl, sub)[0]
            trivial = letter_matrices(qtbl, lambda x: identity_rows(1), p)
            rep = marks_multiplicities(hand_module(qtbl, p, 1, 1, trivial))
            assert tables[-1] == coset_marks(qtbl, rep.classes), (text, qtbl.order)
            checked += 1
    assert checked >= 60


def test_solve_marks_raises_on_a_table_that_is_not_triangular():
    """The class-count table is only solvable in the class order; a table
    that is not triangular there is raised, not asserted."""
    classes = (Subgroup((0,), ()), Subgroup((0, 1), (1,)))
    for marks in ([(2, 0), (1, 1)], [(2, 1), (0, 0)]):
        with pytest.raises(AssertionError, match="not triangular"):
            permrec._solve_marks(marks, [2, 1].__getitem__, classes)


@pytest.mark.parametrize("text", [C4, KLEIN, Q8, D4, S3, A4, C3XC3])
def test_sign_characters_from_index_2_subgroups_match_the_search(text):
    """One character per index-2 subgroup, trivial first, equals the
    reference search over sign assignments on every subgroup."""
    tbl = table_of(text)
    subs = all_subgroups(tbl)
    for sub in subs:
        assert sign_characters(sub, subs) == searched_sign_characters(tbl, sub), sub


def test_marks_refuses_a_group_that_is_not_a_p_group():
    tbl = table_of(S3)
    assert tbl.order == 6
    trivial = hand_module(tbl, 2, 1, 1, letter_matrices(tbl, lambda x: identity_rows(1), 2))
    with pytest.raises(InputError, match="2-group"):
        marks_multiplicities(trivial)


def test_certified_multiplicities_satisfy_the_orbit_counts(corpus, lattice):
    """dim M^K = sum_H m_H * #orbits(K, Q/H) for every permutation module:
    the orbit-count system the Brauer vector replaced, checked with the
    reference orbit count on every certified level of the corpus and of
    the order-32 inputs."""
    inputs = [(e["text"], p) for e in corpus for p in e["primes"]
              if e["expected"]["qr"][str(p)]]
    inputs += [((ORDER32_DIR / name).read_text(), 2) for name in ORDER32]
    checked = 0
    for text, p in inputs:
        qr = qr_check(lattice(text), p)
        for lv in {id(lv.coin): lv for lv in qr.levels}.values():
            mod = module_from_coinvariants(lv.coin, p, 1, lv.level)
            rec = perm_recognize_modp(mod)
            if rec.status != "certified":
                continue
            classes = rec.marks.classes
            for K in classes:
                assert len(mod.hom_basis(K, (1,) * K.order)) == sum(
                    m * orbits_on_cosets(mod.qtbl, H, K)
                    for H, m in zip(classes, rec.multiplicities))
            checked += 1
    assert checked >= 20


# --- integral lifts --------------------------------------------------------

def test_sign_twist_is_generalized_but_not_ordinary():
    tbl = table_of("gens: a; relators: a^2; prime: 2")
    k = 6
    ring = 1 << k
    # one-dimensional: the packed row of the 1x1 matrix (x) is x
    twisted = hand_module(tbl, 2, k, 1, {1: (ring - 1,)})
    plain = hand_module(tbl, 2, 1, 1, {1: (1,)})
    rec = perm_recognize_modp(plain)
    assert rec.status == "certified"
    lift = gen_perm_lift(twisted, rec)
    assert lift.status == "certified"
    assert any(not b.is_plain() for b in lift.certificate.blocks)
    # ordinary is impossible: a rank-one permutation action is trivial,
    # but a acts by -1 != 1 mod 2^k
    assert twisted.act(1) != twisted.act(0)


def test_plain_integral_lift():
    tbl = table_of(C4)
    reps = class_reps(tbl)
    blocks = (Block(0, reps[0], (1,)), Block(1, reps[1], (1,) * 2))
    k = 5
    mod = synthetic_module(tbl, blocks, 2, k)
    u = [[1, 3, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 5, 1, 0, 2, 0],
         [0, 0, 0, 1, 0, 0], [0, 0, 0, 7, 1, 0], [1, 0, 0, 0, 0, 1]]
    ring = 1 << k
    scrambled = change_basis(mod, u, integer_inverse(u), ring)
    onebar = replace(scrambled, k=1, letters={
        x: packed(dense(scrambled, a), 2) for x, a in scrambled.letters.items()
    })
    rec = perm_recognize_modp(onebar)
    assert rec.status == "certified"
    lift = gen_perm_lift(scrambled, rec)
    assert lift.status == "certified"
    assert all(b.is_plain() for b in lift.certificate.blocks)


def test_regular_module_lifts_at_an_odd_prime():
    # C9 acting on its own regular lattice mod 3^4: no twist is available
    # at p = 3, so the lift must keep the plain permutation basis
    tbl = table_of(C9)
    reps = class_reps(tbl)
    triv = next(j for j, c in enumerate(reps) if len(c.members) == 1)
    blocks = (Block(triv, reps[triv], (1,)),)
    rec = perm_recognize_modp(synthetic_module(tbl, blocks, 3, 1))
    assert rec.status == "certified"
    got = tuple((len(reps[j].members), m)
                for j, m in enumerate(rec.multiplicities) if m)
    assert got == ((1, 1),)
    lift = gen_perm_lift(synthetic_module(tbl, blocks, 3, 4), rec)
    assert lift.status == "certified"
    assert all(b.is_plain() and len(b.sub.members) == 1
               for b in lift.certificate.blocks)


def test_recognizer_rejects_higher_precision_input():
    tbl = table_of(C4)
    reps = class_reps(tbl)
    mod = synthetic_module(tbl, (Block(0, reps[0], (1,)),), 2, 2)
    with pytest.raises(InputError):
        perm_recognize_modp(mod)


def packed_lift(a, p, k):
    """_liftable_kernel on the integer rows a, packed over Z/p^k, its lifts
    unpacked."""
    ring, width = p ** k, len(a[0])
    rows = [fp_rows(width, ring).pack(r) for r in a]
    return list(map(fp_rows(len(a), ring).unpack, permrec._liftable_kernel(rows, p, k, width)))


def reduced_lifts(a, p, k):
    """digit_by_digit_lifts(a, p, k), every entry brought into [0, p^k)."""
    return [[x % p ** k for x in w] for w in digit_by_digit_lifts(a, p, k)]


# A failure is reported unshrunk: shrinking a failed kernel lift here took
# over a minute per parametrization.
@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (3, 3)])
@given(st.data())
@settings(deadline=None, max_examples=15,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
def test_liftable_kernel_against_brute_force(p, k, data):
    """Every solution over Z/p^k, enumerated, reduces into the span of the
    returned lifts.  Entries are units times a p-power, so kernels that lift
    only in part are common."""
    q = p ** k
    entry = st.builds(lambda e, u: p ** e * u % q, st.integers(0, k), st.integers(1, q - 1))
    d, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    a = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=d, max_size=d))

    def solves(w):
        return all(sum(x * row[j] for x, row in zip(w, a)) % q == 0 for j in range(n))

    lifts = packed_lift(a, p, k)
    assert all(solves(w) for w in lifts)
    reduced = [[x % p for x in w] for w in lifts]
    assert len(dense_rref(reduced, p)[0]) == len(lifts)
    every = {tuple(x % p for x in w) for w in itertools.product(range(q), repeat=d) if solves(w)}
    assert dense_rref(reduced, p) == dense_rref(sorted(every), p)


@pytest.mark.parametrize("p", [2, 3])
@given(st.data())
@settings(deadline=None, max_examples=60,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
def test_liftable_kernel_stops_with_the_lifts_every_later_digit_gives(p, data):
    """_liftable_kernel returns the lifts that the digit-by-digit reference,
    which never stops and computes over Z, returns, reduced mod p^k: the
    stop at lifts that solve mod p^k changes no residue.  Zero columns and
    zero rows make lifts that are exact early, beside lifts that are not."""
    k = data.draw(st.integers(1, 20))
    q = p ** k
    entry = st.builds(lambda e, u: p ** e * u % q, st.integers(0, k), st.integers(1, q - 1))
    d, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
    zero_cols = data.draw(st.sets(st.integers(0, n - 1)))
    zero_rows = data.draw(st.sets(st.integers(0, d - 1), max_size=d - 1))
    a = [[0 if i in zero_rows or j in zero_cols else data.draw(entry) for j in range(n)]
         for i in range(d)]
    assert packed_lift(a, p, k) == reduced_lifts(a, p, k)


def count_kernels(monkeypatch):
    """A list that gets one entry per permrec.modp_left_kernel call from now on."""
    calls = []
    kernel = permrec.modp_left_kernel

    def counting(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(permrec, "modp_left_kernel", counting)
    return calls


@pytest.mark.parametrize("a,kernels", [
    ([[0, 0], [0, 0]], 1),  # a = 0: the first kernel's lifts are exact
    ([[0], [2]], 2),  # e_1 is exact at once, beside e_2, which is not
    # (1, 1) solves mod 2^20, though never over Z: the stop reads residues,
    # so one kernel, where the stop at exact integer lifts took all 20
    ([[1], [2 ** 20 - 1]], 1),
])
def test_liftable_kernel_at_2_to_the_20(a, kernels, monkeypatch):
    """Over Z/2^20 lifts that all solve w * a = 0 mod 2^20 stop the
    digits: for a = 0 after one kernel, where the digit-by-digit lift took
    20.  A lift that solves beside one that does not does not stop them."""
    calls = count_kernels(monkeypatch)
    assert packed_lift(a, 2, 20) == reduced_lifts(a, 2, 20)
    assert len(calls) == kernels


def test_liftable_kernel_raises_on_a_lift_that_does_not_solve(monkeypatch):
    """The lift invariant is an explicit raise, so it holds under python -O.
    The stub kernel is the packed row e_0, which does not solve
    w * (1) = 0 mod 2."""
    monkeypatch.setattr(permrec, "modp_left_kernel", lambda rows, p, width=None: [1])
    with pytest.raises(AssertionError, match="lift invariant broke"):
        permrec._liftable_kernel([fp_rows(1, 4).pack([1])], 2, 2, 1)


def test_liftable_kernel_of_the_c64_top_level_hom_space_is_one_kernel(lattice, monkeypatch):
    """c64's top level over Z/2^20 is Z with Q = C64 acting trivially, so
    the stack of A[h] - I is 0 and the first kernel's lifts are exact: the
    hom space from the plain block on Q takes one modp_left_kernel call,
    where one per digit took 20."""
    qr = qr_check(lattice(C64), 2)
    top = qr.levels[-1]
    mod = module_from_coinvariants(top.coin, 2, 20, top.level)
    whole = all_subgroups(mod.qtbl)[-1]
    assert (mod.qtbl.order, whole.order, mod.dim) == (64, 64, 1)
    calls = count_kernels(monkeypatch)
    assert dense(mod, mod.hom_basis(whole, (1,) * 64)) == ((1,),)
    assert len(calls) == 1


def dense_hom_stack(mod, sub, xi):
    """The side-by-side A[g] - xi(g) I over the greedy generators of H, dense
    over Z/p^k: the one system LevelModule.hom_basis solves at k > 1."""
    sign = dict(zip(sub.members, xi))
    mats = [(g, dense(mod, mod.act(g))) for g in greedy_generators(mod.qtbl.mult, sub.members, {0})]
    return [[(x - sign[g] * (i == j)) % mod.ring for g, a in mats for j, x in enumerate(a[i])]
            for i in range(mod.dim)]


def test_hom_basis_over_z_mod_p_to_the_k_is_the_dense_digit_by_digit_lift(lattice, corpus):
    """On every distinct certified level of the quasirational corpus
    entries, q32, m32, c64 and c81, the packed hom space of every class and
    sign character, at the harness's k = 1 + v_p(|G|) and at k = 20, is
    the dense digit-by-digit reference lift of the same stack reduced mod
    p^k: the packed lift that stops at lifts solving mod p^k loses no
    residue."""
    inputs = [(e["text"], p) for e in corpus for p in e["primes"] if e["expected"]["qr"][str(p)]]
    inputs += [((ORDER32_DIR / f"{n}.pres").read_text(), p)
               for n, p in (("q32", 2), ("m32", 2), ("c64", 2), ("c81", 3))]
    checked = 0
    for text, p in inputs:
        qr = qr_check(lattice(text), p)
        pp = prime_power(qr.rlat.tbl.order)
        top = 1 + (pp[1] if pp else 0)
        for lv in {id(lv.coin): lv for lv in qr.levels}.values():
            rec = perm_recognize_modp(module_from_coinvariants(lv.coin, p, 1, lv.level))
            if rec.status != "certified":
                continue
            for k in sorted({top, 20}):
                mod = module_from_coinvariants(lv.coin, p, k, lv.level)
                for K, maximal in zip(rec.marks.classes, rec.marks.maximal):
                    for xi in sign_characters(K, maximal):
                        assert dense(mod, mod.hom_basis(K, xi)) == frozen(
                            reduced_lifts(dense_hom_stack(mod, K, xi), p, k))
                        checked += 1
    assert checked >= 200


def inverse_mod(mat, p, k):
    """The inverse over Z/p^k of a matrix invertible mod p, by Newton steps
    X -> X (2I - A X), each doubling the p-adic precision."""
    q, n = p ** k, len(mat)
    x = dense_inverse(mat, p)
    for _ in range(k.bit_length()):
        ax = mat_mul(mat, x)
        x = [[v % q for v in row]
             for row in mat_mul(x, [[2 * (i == j) - ax[i][j] for j in range(n)] for i in range(n)])]
    assert [[v % q for v in row] for row in mat_mul(mat, x)] == identity_rows(n)
    return x


def scramble(mod, rng):
    """The module in coordinates changed by a random matrix over Z/p^k that
    is invertible mod p."""
    while True:
        u = [[rng.randrange(mod.ring) for _ in range(mod.dim)] for _ in range(mod.dim)]
        if modp_rank(u, mod.dim, mod.p) == mod.dim:
            return change_basis(mod, u, inverse_mod(u, mod.p, mod.k), mod.ring)


def reduction(mod):
    """The module over F_p."""
    return replace(mod, k=1, letters={x: packed(dense(mod, a), mod.p)
                                      for x, a in mod.letters.items()})


def random_twisted_blocks(tbl, rng, max_dim):
    """One to three blocks on random subgroup classes, each with a random
    sign character, of total dimension at most max_dim."""
    subs = all_subgroups(tbl)
    reps = class_reps(tbl)
    blocks = []
    for _ in range(rng.randrange(1, 4)):
        j = rng.randrange(len(reps))
        if sum(tbl.order // b.sub.order for b in blocks) + tbl.order // reps[j].order <= max_dim:
            blocks.append(Block(j, reps[j], rng.choice(sign_characters(reps[j], subs))))
    return tuple(blocks) or (Block(len(reps) - 1, reps[-1], (1,) * tbl.order),)


@pytest.mark.parametrize("text", [C4, KLEIN, D4, Q8])
def test_scrambled_twisted_blocks_lift_over_z8(text):
    """A sum of blocks with random sign characters, scrambled over Z/8, is a
    generalized permutation module: recognized mod 2, then certified over
    Z/8 by gen_perm_lift, which has to find the characters."""
    rng = random.Random(f"twisted {text}")
    tbl = table_of(text)
    twisted = 0
    for _ in range(6):
        blocks = random_twisted_blocks(tbl, rng, 12)
        twisted += not all(b.is_plain() for b in blocks)
        mod = scramble(synthetic_module(tbl, blocks, 2, 3), rng)
        rec = perm_recognize_modp(reduction(mod))
        assert rec.status == "certified", blocks
        lift = gen_perm_lift(mod, rec)
        assert lift.status == "certified", (blocks, lift)
    assert twisted >= 2


@pytest.mark.parametrize("text,p,k", [(C4, 2, 1), (C4, 2, 2), (C4, 2, 3), (KLEIN, 2, 2),
                                      (KLEIN, 2, 3), (D4, 2, 3), (Q8, 2, 3),
                                      ("gens: a; relators: a^3; prime: 3", 3, 1)])
def test_hom_basis_against_brute_force(text, p, k):
    """For every subgroup H and sign character xi, on scrambled twisted
    modules of dimension at most 3: each row of hom_basis satisfies
    w * A[h] = xi(h) * w on all of H, and the rows' reductions mod p are
    independent and span the reductions of every solution, enumerated."""
    rng = random.Random(f"hom basis {text} {k}")
    tbl = table_of(text)
    ring = p ** k
    subs = all_subgroups(tbl)
    for _ in range(3):
        mod = scramble(synthetic_module(tbl, random_twisted_blocks(tbl, rng, 3), p, k), rng)
        act = {h: dense(mod, mod.act(h)) for h in range(tbl.order)}
        vectors = list(itertools.product(range(ring), repeat=mod.dim))

        def solves(w, sub, xi):
            return all(sum(w[i] * act[h][i][j] for i in range(mod.dim)) % ring == s * w[j] % ring
                       for h, s in zip(sub.members, xi) for j in range(mod.dim))

        for sub in subs:
            for xi in sign_characters(sub, subs) if p == 2 else [(1,) * sub.order]:
                rows = dense(mod, mod.hom_basis(sub, xi))
                assert all(solves(w, sub, xi) for w in rows)
                reduced = [[x % p for x in w] for w in rows]
                assert len(dense_rref(reduced, p)[0]) == len(rows)
                every = [w for w in vectors if solves(w, sub, xi)]
                assert dense_rref(reduced, p) == dense_rref(every, p)


@pytest.mark.parametrize("k,fixed", [(1, [[1]]), (2, []), (5, [])])
def test_the_sign_module_of_c2_needs_the_ring_of_the_harness(k, fixed):
    """Over Z_2 the sign module of C2 has no fixed vector, but 2^(k-1) is
    fixed mod 2^k.  Its reduction is the fixed vector of the trivial
    module mod 2 at k = 1 and vanishes from k = 1 + v_2(|C2|) = 2 on:
    the harness's ring is the least at which the reductions are those of
    the Z_2 hom spaces."""
    tbl = table_of("gens: a; relators: a^2; prime: 2")
    coin = Coinvariants(AbelianInvariants(1, ()), Subgroup((0,), ()))
    sign = LevelModule(1, 2, k, tbl, (0,), {1: (2 ** k - 1,)}, coin)
    whole = all_subgroups(tbl)[-1]
    assert whole.order == 2
    assert dense(sign, sign.hom_basis(whole, (1, 1))) == frozen(fixed)


@pytest.mark.parametrize("name,text", LADDER, ids=[n for n, _ in LADDER])
def test_hom_spaces_reduce_alike_at_the_harness_ring_and_above(lattice, name, text):
    """On every distinct level of every quasirational ladder input, for
    every marks class H and sign character xi: the F_p span of the
    reductions of hom_basis(H, xi) is the same at k = 1 + v_p(|G|), the
    harness's ring, and at k + 3 (tower_harness's docstring)."""
    pres = parse_presentation(text)
    for p in pres.primes:
        qr = qr_check(lattice(text), p)
        if not qr.quasirational:
            continue
        k = 1 + round(math.log(qr.rlat.tbl.order, p))
        assert p ** (k - 1) == qr.rlat.tbl.order
        for lv in {id(lv.coin): lv for lv in qr.levels}.values():
            low, high = (module_from_coinvariants(lv.coin, p, j, lv.level)
                         for j in (k, k + 3))
            subs = all_subgroups(low.qtbl)
            for cls in subgroup_conjugacy_classes(low.qtbl, subs):
                for xi in sign_characters(cls[0], subs):
                    spans = [dense_rref([[x % p for x in w]
                                         for w in dense(mod, mod.hom_basis(cls[0], xi))], p)
                             for mod in (low, high)]
                    assert spans[0] == spans[1], (lv.level, cls[0].members, xi)


# --- end-to-end harness ----------------------------------------------------

def test_harness_on_quaternion(group):
    pres, tbl = group(Q8)
    rep = equivalence_harness(pres, tbl, 2, precision=8)
    assert rep.violations == 0
    assert rep.unknown_levels == 0
    assert rep.transitions_checked == len(rep.levels) - 1
    assert [lv.level for lv in rep.levels] == [1, 2, 3]
    first = rep.levels[0]
    assert first.modp_status == "certified" and first.integral_status == "certified"
    assert first.multiplicities == ((1, 2),)
    assert {lv.modp_status for lv in rep.levels[1:]} == {"refuted"}
    assert {lv.integral_status for lv in rep.levels[1:]} == {"not_attempted"}


def test_harness_rejects_non_qr_input(group):
    # the equivalence is a statement about quasirational towers, so a
    # torsion level is a hypothesis failure, not a data point
    pres, tbl = group(KLEIN)
    with pytest.raises(InputError, match="not quasirational"):
        equivalence_harness(pres, tbl, 2, precision=6)


def test_level_outcome_lifts_the_torsion_free_levels_of_d16(lattice):
    # D16 is not QR (level 1 has 2-torsion), but levels 2-4 are torsion-free
    # permutation modules mod 2.  Their hom spaces over Z/8 contain
    # solutions whose lift needs a correction from an earlier digit's lifts;
    # a lift that lost them refuted all three levels integrally.
    qr = qr_check(lattice("gens: a, b; relators: a^8, b^2, b*a*b*a; prime: 2"), 2)
    assert qr.witness_level == 1 and len(qr.levels) == 5
    assert all(lv.p_torsion == () for lv in qr.levels[1:])
    top = SubgroupLattice.of(qr.rlat.tbl, 2)
    outcomes = [_level_outcome(lv, 2, 3, top)[0] for lv in qr.levels[1:]]
    assert [(o.modp_status, o.integral_status) for o in outcomes] == \
        [("certified", "certified")] * 3 + [("refuted", "not_attempted")]


@pytest.mark.parametrize("name,p", [("c27", 3), ("q16", 2)])
def test_harness_reuse_matches_a_rebuild_of_every_level(lattice, name, p):
    """tower_harness builds once per distinct D_n; rebuilding every level
    from fresh coinvariants must give the same outcomes and counts."""
    qr = qr_check(lattice((CORPUS_DIR / f"{name}.pres").read_text()), p)
    rep = tower_harness(qr)
    top = SubgroupLattice.of(qr.rlat.tbl, p)
    rebuilt = [
        _level_outcome(replace(lv, coin=coinvariants(qr.rlat, lv.subgroup)), p, rep.precision,
                       top)[0]
        for lv in qr.levels
    ]
    assert list(rep.levels) == rebuilt
    statuses = [{o.modp_status, o.integral_status} for o in rebuilt]
    assert rep.unknown_levels == 0
    assert rep.violations == statuses.count({"refuted", "certified"})
    assert rep.transitions_checked == len(rebuilt) - 1
    by_subgroup: dict = {}
    for lv, out in zip(qr.levels, rep.levels):
        by_subgroup.setdefault(lv.subgroup.members, set()).add(replace(out, level=0))
    assert len(by_subgroup) < len(qr.levels), "no repeated D_n: the reuse is untested"
    assert all(len(outs) == 1 for outs in by_subgroup.values())
    # qr_check shares one level per distinct D_n; level 1 agrees with Hopf's
    assert qr.levels[0].coin.invariants == qr.rlat.g_coin.invariants
    for lo, hi in zip(qr.levels, qr.levels[1:]):
        assert (lo.coin is hi.coin) == (lo.subgroup.members == hi.subgroup.members)


# --- level-module construction ----------------------------------------------

def dense_act(rlat, g):
    """The lattice matrix act(g), its sparse rows written out."""
    out = [[0] * rlat.rank for _ in range(rlat.rank)]
    for row, nonzeros in zip(out, rlat.act(g)):
        for k, c in nonzeros:
            row[k] = c
    return out


def mod_ring(rows, ring):
    return [[x % ring for x in row] for row in rows]


def test_every_level_down_map_is_the_quotient_and_every_level_module_acts_by_its_letters(
        lattice):
    """Oracle for the p-local levels, by dense integer products.  Over F_p
    and, on levels with no p-torsion, over Z/p^3: down, the quotient map
    from the lattice, kills A[d] - I for every generator d of D_n, is the
    identity on the coordinates, and intertwines A[x] with the level's
    letter of x; its width is the level's free rank plus its p-torsion
    count over F_p, the free rank above.  A surjection killing the
    relations onto a module of the quotient's size is the quotient map.
    On the quasirational corpus, each level module's A[q] is the letters'
    word product along the word of every g in the coset q: constant on
    cosets, and an action of Q."""
    levels_checked = modules = 0
    for _, text, p in walk_inputs():
        rlat = lattice(text)
        tbl = rlat.tbl
        qr = qr_check(rlat, p)
        levels = {id(lv.coin): lv for lv in qr.levels}.values()
        for lv in levels:
            for k in (1, 3)[:1 if lv.p_torsion else 2]:
                ring = p ** k
                coords, down, letters = lv.coin.over(p, k)
                lay = fp_rows(len(coords), ring)
                dn = [lay.unpack(row) for row in down]
                assert len(coords) == lv.invariants.free_rank + (len(lv.p_torsion) if k == 1 else 0)
                assert [dn[j] for j in coords] == identity_rows(len(coords))
                for d in lv.subgroup.generators:
                    rel = [[a - (i == j) for j, a in enumerate(row)]
                           for i, row in enumerate(dense_act(rlat, d))]
                    assert not any(map(any, mod_ring(mat_mul(rel, dn), ring))), (text, d)
                for x in set(tbl.gen_images):
                    level_x = [lay.unpack(row) for row in letters[x]]
                    assert (mod_ring(mat_mul(dense_act(rlat, x), dn), ring)
                            == mod_ring(mat_mul(dn, level_x), ring)), (text, p, lv.level, x)
                levels_checked += 1
            if not qr.quasirational or tbl.order > 27:
                continue
            qtbl, cmap = quotient_table(tbl, lv.subgroup)
            for k in (1, 3):
                mod = module_from_coinvariants(lv.coin, p, k, lv.level)
                assert mod.qtbl == qtbl
                for g, word in enumerate(tbl.element_words):
                    a = identity_rows(mod.dim)
                    for step in word:
                        x = tbl.letter(*step)
                        a = mod_ring(mat_mul(dense(mod, mod.letters[cmap[x]]), a), mod.ring)
                    assert dense(mod, mod.act(cmap[g])) == frozen(a), (text, p, lv.level, k, g)
                modules += 1
    assert levels_checked >= 100 and modules >= 60


def test_certificate_accepts_the_regular_action_of_c4():
    pres = parse_presentation(C4)
    tbl = todd_coxeter(pres)
    x = tbl.gen_images[0]
    cycle4 = [[int(j == (i + 1) % 4) for j in range(4)] for i in range(4)]
    letters = _certify_letters(tbl, {x: packed(cycle4, 2)}, pres.relators, (), 4, 2)
    assert letters[x] == packed(cycle4, 2)
    # the inverse letter is the cube, the inverse permutation
    assert letters[tbl.inv[x]] == packed(list(zip(*cycle4)), 2)


@pytest.mark.parametrize("n,p", [(2, 2), (3, 3), (8, 2), (9, 3), (64, 2), (81, 3)])
def test_certificate_check_a_squares_the_regular_action_of_a_cyclic_group(n, p, monkeypatch):
    """On the regular module of C_n, check (a) passes in at most
    2 * bit_length(n) products, and the inverse letter read off the
    squares is the inverse permutation."""
    pres = parse_presentation(f"gens: a; relators: a^{n}; prime: {p}")
    tbl = todd_coxeter(pres)
    x = tbl.gen_images[0]
    cycle = [[int(j == tbl.mult[i][x]) for j in range(n)] for i in range(n)]
    products = count_products(monkeypatch)
    letters = _certify_letters(tbl, {x: packed(cycle, p)}, (), (), n, p)
    assert len(products) <= 2 * n.bit_length()
    assert letters[tbl.inv[x]] == packed(list(zip(*cycle)), p)


def test_certificate_check_a_rejects_a_letter_of_the_wrong_order():
    # a 3-cycle has order 3, so it cannot be the image of an element of order 4
    pres = parse_presentation(C4)
    tbl = todd_coxeter(pres)
    cycle3 = [[int(j == (i + 1) % 3) for j in range(3)] for i in range(3)]
    with pytest.raises(PropertyViolation, match="power of its order"):
        _certify_letters(tbl, {tbl.gen_images[0]: packed(cycle3, 2)}, pres.relators, (), 3, 2)


def test_certificate_check_b_rejects_a_relator_that_acts():
    # two transpositions of S3 are involutions, so they pass (a), but they
    # do not commute: the Klein group's commutator relator acts
    pres = parse_presentation(KLEIN)
    tbl = todd_coxeter(pres)
    swaps = ([[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    gen_mats = {tbl.gen_images[g]: packed(m, 2) for g, m in enumerate(swaps)}
    with pytest.raises(PropertyViolation, match="relator acts nontrivially"):
        _certify_letters(tbl, gen_mats, pres.relators, (), 3, 2)
    _certify_letters(tbl, gen_mats, (), (), 3, 2)


HEISENBERG = ("gens: a, b; relators: a^3, b^3, a*a*b*a^-1*b^-1*a^-1*b*a*b^-1*a^-1, "
              "b*a*b*a^-1*b^-1*a*b^-1*a^-1; prime: 3")


def test_certificate_check_c_rejects_letters_that_do_not_factor_through_q():
    """The unipotent matrices of the Heisenberg group mod 3 satisfy its
    relators and have order 3, but offered for Q = G/D_2 = C3 x C3 they
    leave the commutator that generates D_2 acting nontrivially."""
    pres = parse_presentation(HEISENBERG)
    tbl = todd_coxeter(pres)
    d2 = dimension_subgroup_chain(tbl, 3)[1]
    qtbl = quotient_table(tbl, d2)[0]
    assert (tbl.order, d2.order, qtbl.order) == (27, 3, 9)
    unipotent = ([[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    gen_mats = {qtbl.gen_images[g]: packed(m, 3) for g, m in enumerate(unipotent)}
    _certify_letters(qtbl, gen_mats, pres.relators, (), 3, 3)
    kernel_words = [tbl.element_words[d] for d in d2.generators]
    with pytest.raises(PropertyViolation, match="dimension subgroup acts nontrivially"):
        _certify_letters(qtbl, gen_mats, pres.relators, kernel_words, 3, 3)


def test_q32_top_module_builds_fewer_elements_than_its_quotient(lattice, monkeypatch):
    """Level modules build A[q] only for the elements their readers ask for:
    q32's level-9 module over F_2 (Q = G, order 32) is refuted by its
    Brauer quotients, which read a few subgroup generators and powers."""
    build = permrec.module_from_coinvariants
    modules = []

    def recording(*args):
        modules.append(build(*args))
        return modules[-1]

    monkeypatch.setattr(permrec, "module_from_coinvariants", recording)
    rep = tower_harness(qr_check(lattice(Q32), 2))
    assert rep.levels[-1].level == 9 and rep.levels[-1].modp_status == "refuted"
    (top,) = [m for m in modules if m.level == 9 and m.k == 1]
    assert top.qtbl.order == 32
    assert len(top.built) < 32


def count_products(monkeypatch):
    """A list that gets one entry per packed matrix product from now on."""
    products = []
    multiply = FpRows.mul

    def counting(lay, a, b):
        products.append(1)
        return multiply(lay, a, b)

    monkeypatch.setattr(FpRows, "mul", counting)
    return products


def element_order(qtbl, x):
    n, y = 1, x
    while y:
        n, y = n + 1, qtbl.mult[y][x]
    return n


def squaring_cost(qtbl, word):
    """Products _word_matrix takes for a word: one per binary digit 1 of
    e mod |x| over its runs x^e, less the first factor, taken as it is."""
    ones = sum(bin(sum(s for _, s in run) % element_order(qtbl, qtbl.gen_images[g])).count("1")
               for g, run in itertools.groupby(word, key=lambda letter: letter[0]))
    return max(ones - 1, 0)


@pytest.mark.parametrize("text,relator_costs,total", [
    (Q32, ({0, 1}, {0, 3, 4}), 213),
    (C64, ({0},), 284),
    (Q64, ({0, 1}, {0, 3, 4}), 319),
])
def test_words_cost_one_product_per_binary_digit(lattice, monkeypatch, text, relator_costs,
                                                 total):
    """_certify_letters keeps the squares A[x]^(2^i), 2^i < |x|, that check
    (a) takes, at most 2 * bit_length(|x|) products per generator and
    level.  Every run x^e of a relator or kernel word reuses them: one
    product per binary digit 1 of e mod |x| (squaring_cost), none when |x|
    divides e.  So c64's a^64 costs nothing on every level, and
    a*b*a*b^-1 costs four, three or no products as |b| is 4, 2 or 1.  The
    total pins every product of the harness: letters (q32 24, c64 74, q64
    34), words (14, 0 and 17), and act, Brauer traces, hom bases, kernel
    checks, lifts, certificates and transitions (175, 210 and 268).  Of
    those, a fixed space read inside a nontrivial one takes B * A[g] per
    generator g beyond it and y * B (34, 10 and 56; M^K is only counted,
    off B_L * Tr at p = 2), each modp_left_kernel checks its kernel by one
    product (38, 35 and 57), act builds 33, 69 and 56, and each
    _liftable_kernel takes w * a once per digit it reads (1, 7 and 1): at
    the default ring every lift here solves at its first digit, so none
    forms a new lift."""
    pres = parse_presentation(text)
    qr = qr_check(lattice(text), 2)
    products = count_products(monkeypatch)
    costs, letters = [], []
    word_matrix = permrec._word_matrix
    certify = permrec._certify_letters

    def recording(qtbl, squares, word, lay):
        before = len(products)
        out = word_matrix(qtbl, squares, word, lay)
        costs.append((word, len(products) - before))
        assert costs[-1][1] == squaring_cost(qtbl, word)
        return out

    def certifying(qtbl, gen_mats, relators, kernel_words, dim, ring):
        before, in_words = len(products), sum(c for _, c in costs)
        out = certify(qtbl, gen_mats, relators, kernel_words, dim, ring)
        taken = len(products) - before - (sum(c for _, c in costs) - in_words)
        assert taken <= sum(2 * element_order(qtbl, x).bit_length() for x in gen_mats)
        letters.append(taken)
        return out

    monkeypatch.setattr(permrec, "_word_matrix", recording)
    monkeypatch.setattr(permrec, "_certify_letters", certifying)
    tower_harness(qr)
    assert costs and letters
    for rel, expected in zip(pres.relators, relator_costs):
        assert {c for w, c in costs if w == rel} == expected
    assert len(products) == total


def _coset_sum_modules(lo_v):
    """Regular F_2[C4] module over a free rank-4 level of the trivial
    subgroup, and a trivial one-dimensional module over the level of all
    of C4, whose quotient map from the rank-4 lattice is column 3 of lo_v."""
    tbl = table_of(C4)
    reps = class_reps(tbl)
    triv = next(j for j, c in enumerate(reps) if len(c.members) == 1)
    hi = synthetic_module(tbl, (Block(triv, reps[triv], (1,)),), 2, 1)
    coin = Coinvariants(AbelianInvariants(1, ()), reps[-1])
    lo = LevelModule(1, 2, 1, tbl, (0,), letter_matrices(tbl, lambda x: ((1,),), 2), coin,
                     tuple(row[3] for row in lo_v))
    return hi, lo


def test_transition_map_rejects_a_non_equivariant_map():
    # coordinate 3 through the all-ones column is the augmentation: equivariant
    sums = [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
    hi, lo = _coset_sum_modules(sums)
    assert lo.coin.sub.order == 4
    assert transition_map(hi, lo) == (1, 1, 1, 1)  # packed rows, the 4x1 all-ones column
    # no transition from a level whose subgroup is not inside the target's
    with pytest.raises(InputError, match="not inside"):
        transition_map(lo, hi)
    with pytest.raises(InputError, match="not inside"):
        transition_map(replace(hi, coin=lo.coin), replace(lo, coin=hi.coin))
    # plain projection onto basis vector 3 does not commute with the generator
    hi, lo = _coset_sum_modules(identity_rows(4))
    with pytest.raises(PropertyViolation, match="not equivariant"):
        transition_map(hi, lo)


def test_transition_from_a_module_to_itself_is_the_identity_with_no_product(monkeypatch):
    hi, _ = _coset_sum_modules(identity_rows(4))

    def no_product(*args):
        raise AssertionError("a product was taken")

    monkeypatch.setattr(FpRows, "mul", no_product)
    assert transition_map(hi, hi) == (1, 1 << 8, 1 << 16, 1 << 24)  # packed identity rows
    with pytest.raises(AssertionError, match="product"):
        transition_map(hi, replace(hi))


# --- every level decided -----------------------------------------------------

def test_q32_top_level_is_refuted_by_brauer_quotients():
    rec = perm_recognize_modp(level_module(Q32, 9))
    assert rec.status == "refuted" and rec.trials == 0
    assert rec.marks.candidates == ()
    assert "non-integral multiplicity 1/2" in rec.refutation


def test_q64_tower_has_no_unknown_level(lattice):
    rep = tower_harness(qr_check(lattice(Q64), 2))
    assert rep.unknown_levels == 0 and rep.violations == 0


def test_decided_results_carry_no_reason():
    rec = perm_recognize_modp(level_module(Q8, 2))
    assert rec.status == "refuted"
    rec = perm_recognize_modp(level_module(Q8, 1))
    assert rec.status == "certified"
