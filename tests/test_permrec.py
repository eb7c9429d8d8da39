"""Mod-p permutation recognition and the integral lift machinery.

Synthetic monomial modules with known composition are scrambled by a change
of basis and fed back to the recognizer; the recovered multiset must match.
Refutations are pinned down to the precise marks argument that produced them.
"""

import random

import pytest

from qrlab.errors import InputError, PropertyViolation
from qrlab.intlinalg import (
    AbelianInvariants,
    identity_rows,
    integer_inverse,
    is_invertible_modp,
    mat_mul,
    modp_rank,
    modp_solve_left,
)
from qrlab.presentation import parse_presentation
from qrlab.enumeration import (
    Subgroup,
    all_subgroups,
    quotient_table,
    subgroup_conjugacy_classes,
    todd_coxeter,
)
from qrlab.groupring import dimension_subgroup_chain
from qrlab.relmod import Coinvariants, coinvariants, relation_lattice
from qrlab.permrec import (
    Block,
    LevelModule,
    _action_from_generators,
    block_matrix,
    equivalence_harness,
    gen_perm_lift,
    marks_multiplicities,
    module_from_coinvariants,
    monomial_matrix,
    perm_recognize_modp,
    sign_characters,
    transition_map,
)


def synthetic_module(qtbl, blocks, p, k):
    """The monomial module itself, in its defining coordinates."""
    ring = p ** k
    acts = tuple(
        tuple(tuple(r) for r in monomial_matrix(qtbl, blocks, q, ring))
        for q in range(qtbl.order)
    )
    dim = len(acts[0]) if qtbl.order else 0
    ident = tuple(tuple(r) for r in identity_rows(dim))
    coin = Coinvariants(AbelianInvariants(dim, ()), dim, (), ident, ident)
    return LevelModule(1, p, k, qtbl, tuple(range(qtbl.order)),
                       tuple(range(dim)), acts, coin)


def modp_inverse(mat, p):
    n = len(mat)
    rows = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        rows.append(modp_solve_left(mat, e, p))
    return rows


def random_invertible(dim, p, rng):
    while True:
        mat = [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)]
        if is_invertible_modp(mat, p):
            return mat


def conjugate_module(mod, mat):
    """Same module in scrambled coordinates: A'[q] = P^-1 A[q] P."""
    inv = modp_inverse(mat, mod.p)
    acts = []
    for q in range(mod.qtbl.order):
        a = mod.action[q]
        dim = mod.dim
        tmp = [[sum(inv[i][x] * a[x][j] for x in range(dim)) % mod.p
                for j in range(dim)] for i in range(dim)]
        acts.append(tuple(tuple(sum(tmp[i][x] * mat[x][j] for x in range(dim)) % mod.p
                                for j in range(dim)) for i in range(dim)))
    return LevelModule(mod.level, mod.p, mod.k, mod.qtbl, mod.coset_map,
                       mod.surviving, tuple(acts), mod.coin)


def level_module(text, level, k=1):
    pres = parse_presentation(text)
    tbl = todd_coxeter(pres)
    p = pres.primes[0]
    chain = dimension_subgroup_chain(tbl, p)
    sub = chain[level - 1]
    rlat = relation_lattice(pres, tbl)
    coin = coinvariants(rlat, sub)
    return module_from_coinvariants(rlat, coin, sub, p, k, level=level)


Q8 = "gens: a, b; relators: a*b*a*b^-1, b*a*b*a^-1; prime: 2"
D4 = "gens: a, b; relators: a^4, b^2, b*a*b*a; prime: 2"
C4 = "gens: a; relators: a^4; prime: 2"
KLEIN = "gens: a, b; relators: a^2, b^2, a*b*a^-1*b^-1; prime: 2"
Q16 = "gens: a, b; relators: a^4*b^-2, a*b*a*b^-1; prime: 2"
M16 = "gens: a, b; relators: a^8, b^2, b*a*b^-1*a^-5; prime: 2"
Q32 = "gens: a, b; relators: a^8*b^-2, a*b*a*b^-1; prime: 2"
C3XC3 = "gens: a, b; relators: a^3, b^3, a*b*a^-1*b^-1; prime: 3"


def table_of(text):
    return todd_coxeter(parse_presentation(text))


def class_reps(tbl):
    return [c[0] for c in subgroup_conjugacy_classes(tbl, all_subgroups(tbl))]


# --- matrix conventions ---------------------------------------------------

def test_block_matrix_anticomposition():
    tbl = table_of(Q8)
    reps = class_reps(tbl)
    block = Block(1, reps[1], (1,) * len(reps[1].members))
    mats = [block_matrix(tbl, block, q, 2) for q in range(tbl.order)]
    assert mats[0] == identity_rows(len(mats[0]))
    for q1 in range(tbl.order):
        for q2 in range(tbl.order):
            q12 = tbl.mult[q1][q2]
            dim = len(mats[0])
            prod = [[sum(mats[q2][i][x] * mats[q1][x][j] for x in range(dim)) % 2
                     for j in range(dim)] for i in range(dim)]
            assert prod == [list(r) for r in mats[q12]]


def test_monomial_matrix_signs_square_away():
    tbl = table_of(C4)
    full = Subgroup(tuple(range(4)), (tbl.gen_images[0],))
    chars = sign_characters(tbl, full)
    twisted = next(x for x in chars if any(v != 1 for v in x))
    ring = 8
    block = Block(0, full, twisted)
    mats = [monomial_matrix(tbl, [block], q, ring) for q in range(4)]
    gen = tbl.gen_images[0]
    cur = mats[0]
    for _ in range(4):
        cur = [[sum(mats[gen][i][x] * cur[x][j] for x in range(1)) % ring
                for j in range(1)] for i in range(1)]
    assert cur == [list(r) for r in mats[0]]


def test_sign_characters_are_characters():
    for text in (C4, KLEIN, Q8):
        tbl = table_of(text)
        for sub in all_subgroups(tbl):
            chars = sign_characters(tbl, sub)
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
    assert len(sign_characters(tbl, full)) == 4
    tbl = table_of(C4)
    full = next(s for s in all_subgroups(tbl) if len(s.members) == 4)
    assert len(sign_characters(tbl, full)) == 2


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
    """rank of the subgroup norm acting on the module equals the number of
    free summands; the filter inside the recognizer leans on this."""
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
            a = scrambled.action[q]
            for i in range(mod.dim):
                for j in range(mod.dim):
                    norm[i][j] = (norm[i][j] + a[i][j]) % 2
        assert modp_rank(norm, 2) == free_count


def test_marks_dimensions_from_subgroup_generators():
    """marks_multiplicities reads dim M^K and dim M/sum(k-1)M from the
    generators of each class K; every member of K must give the same."""
    def differences(mod, K):
        return [[(x - (i == j)) % mod.p for j, x in enumerate(row)]
                for g in K.members for i, row in enumerate(mod.action[g])]

    rng = random.Random(11)
    tbl = table_of(D4)
    reps = class_reps(tbl)
    synthetic = synthetic_module(tbl, (Block(0, reps[0], (1,)), Block(3, reps[3], (1, 1))), 2, 1)
    mods = [conjugate_module(synthetic, random_invertible(synthetic.dim, 2, rng))]
    mods += [level_module(Q16, level) for level in (1, 2, 3)]
    for mod in mods:
        rep = marks_multiplicities(mod)
        for K, fix, codim in zip(rep.classes, rep.fixdims, rep.codims):
            rows = differences(mod, K)
            side_by_side = [[x for b in range(0, len(rows), mod.dim) for x in rows[b + i]]
                            for i in range(mod.dim)]
            assert fix == mod.dim - modp_rank(side_by_side, mod.p)
            assert codim == mod.dim - modp_rank(rows, mod.p)


# --- refutations ----------------------------------------------------------

def test_jordan_block_is_refuted_by_marks():
    tbl = table_of(C4)
    j3 = ((1, 1, 0), (0, 1, 1), (0, 0, 1))
    acts = [identity_rows(3)]
    for _ in range(3):
        prev = acts[-1]
        acts.append([[sum(prev[i][x] * j3[x][j] for x in range(3)) % 2
                      for j in range(3)] for i in range(3)])
    gen = tbl.gen_images[0]
    by_elt = [None] * 4
    for i in range(4):
        by_elt[tbl.power(gen, i)] = tuple(tuple(r) for r in acts[i])
    ident = tuple(tuple(r) for r in identity_rows(3))
    coin = Coinvariants(AbelianInvariants(3, ()), 3, (), ident, ident)
    mod = LevelModule(1, 2, 1, tbl, (0, 1, 2, 3), (0, 1, 2), tuple(by_elt), coin)
    rec = perm_recognize_modp(mod)
    assert rec.status == "refuted"
    assert rec.trials == 0
    assert rec.marks.candidates == ()


# level, frozen witness fragment keyed by the marks argument that fires
REFUTED_LEVELS = [
    (Q16, 5, "subgroup norm ranks"),
    (M16, 5, "invariant and coinvariant dimensions"),
    (Q8, 2, "invariant and coinvariant dimensions"),
    (Q8, 3, "subgroup norm ranks"),
    (KLEIN, 2, "invariant and coinvariant dimensions"),
    (C3XC3, 2, "invariant and coinvariant dimensions"),
]


@pytest.mark.parametrize("text,level,fragment", REFUTED_LEVELS)
def test_relation_levels_refuted_with_pinned_witness(text, level, fragment):
    mod = level_module(text, level)
    rec = perm_recognize_modp(mod)
    assert rec.status == "refuted"
    assert fragment in rec.marks.witness


def test_q16_level5_marks_detail():
    mod = level_module(Q16, 5)
    mk = marks_multiplicities(mod)
    assert mod.dim == 17
    assert mk.fixdims == mk.codims == (17, 9, 5, 5, 5, 3, 3, 3, 2)
    assert mk.norm_ranks == (17, 8, 4, 4, 4, 2, 1, 1, 0)
    assert mk.candidates == () and not mk.capped


def test_d4_level2_unique_candidate_certifies():
    mod = level_module(D4, 2)
    mk = marks_multiplicities(mod)
    assert mk.candidates == ((0, 0, 1, 1, 1),)
    rec = perm_recognize_modp(mod)
    assert rec.status == "certified"
    got = tuple((len(mk.classes[j].members), m)
                for j, m in enumerate(rec.multiplicities) if m)
    assert got == ((2, 1), (2, 1), (4, 1))


# --- integral lifts --------------------------------------------------------

def test_sign_twist_is_generalized_but_not_ordinary():
    tbl = table_of("gens: a; relators: a^2; prime: 2")
    k = 6
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
    # ordinary is impossible: a rank-one permutation action is trivial,
    # but a acts by -1 != 1 mod 2^k
    assert twisted.action[1] != twisted.action[0]


def test_plain_integral_lift():
    tbl = table_of(C4)
    reps = class_reps(tbl)
    blocks = (Block(0, reps[0], (1,)), Block(1, reps[1], (1,) * 2))
    k = 5
    mod = synthetic_module(tbl, blocks, 2, k)
    u = [[1, 3, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 5, 1, 0, 2, 0],
         [0, 0, 0, 1, 0, 0], [0, 0, 0, 7, 1, 0], [1, 0, 0, 0, 0, 1]]
    ring = 1 << k
    uinv = [[x % ring for x in row] for row in integer_inverse(u)]
    acts = []
    for q in range(tbl.order):
        a = mod.action[q]
        dim = mod.dim
        tmp = [[sum(uinv[i][x] * a[x][j] for x in range(dim)) % ring
                for j in range(dim)] for i in range(dim)]
        acts.append(tuple(tuple(sum(tmp[i][x] * u[x][j] for x in range(dim)) % ring
                                for j in range(dim)) for i in range(dim)))
    scrambled = LevelModule(1, 2, k, tbl, mod.coset_map, mod.surviving,
                            tuple(acts), mod.coin)
    onebar = LevelModule(1, 2, 1, tbl, mod.coset_map, mod.surviving,
                         tuple(tuple(tuple(x % 2 for x in row) for row in a)
                               for a in acts), mod.coin)
    rec = perm_recognize_modp(onebar)
    assert rec.status == "certified"
    lift = gen_perm_lift(scrambled, rec)
    assert lift.status == "certified"
    assert all(b.is_plain() for b in lift.certificate.blocks)


def test_regular_module_lifts_at_an_odd_prime():
    # C4 acting on its own regular lattice mod 3^4: coprime order, so the
    # permutation basis lifts as-is and no twist is available at p = 3
    tbl = table_of(C4)
    reps = class_reps(tbl)
    triv = next(j for j, c in enumerate(reps) if len(c.members) == 1)
    blocks = (Block(triv, reps[triv], (1,) * 4),)
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


# --- end-to-end harness ----------------------------------------------------

def test_harness_on_quaternion(group):
    pres, tbl = group(Q8)
    rep = equivalence_harness(pres, tbl, 2, precision=8)
    assert rep.violations == 0
    assert rep.unknown_levels == 0
    assert rep.unknown_rate == 0.0
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


def test_harness_on_klein_reports_torsion_when_unguarded(group):
    pres, tbl = group(KLEIN)
    rep = equivalence_harness(pres, tbl, 2, precision=6, require_qr=False)
    assert rep.violations == 0
    torsion_levels = [lv for lv in rep.levels if lv.p_torsion]
    assert torsion_levels
    assert all(lv.integral_status == "torsion" for lv in torsion_levels)


# --- level-module construction ----------------------------------------------

def all_elements_module(rlat, coin, sub, p, k):
    """The module built from every element of G, kept as an oracle.

    Per-g matrices go through Lattice.coordinates and a V^-1 taken from a
    separate inversion of V; the action must be constant on cosets and obey
    the composition law on all pairs of Q.
    """
    ring = p ** k
    surv = [i for i, d in enumerate(coin.divisors) if d % p == 0]
    assert k == 1 or not surv
    surv += list(range(len(coin.divisors), coin.rank))
    qtbl, cmap = quotient_table(rlat.tbl, sub)
    lat = rlat.lattice()
    V = [list(r) for r in coin.V]
    Vinv = integer_inverse(V)
    assert Vinv == [list(r) for r in coin.Vinv]
    action = [None] * qtbl.order
    for g in range(rlat.tbl.order):
        mg = [lat.coordinates(rlat.translate(g, row)) for row in rlat.basis]
        a = mat_mul(Vinv, mat_mul(mg, V))
        mat = tuple(tuple(a[i][j] % ring for j in surv) for i in surv)
        assert action[cmap[g]] in (None, mat), "the kernel acts"
        action[cmap[g]] = mat
    dim = len(surv)
    for q1 in range(qtbl.order):
        for q2 in range(qtbl.order):
            prod = mat_mul([list(r) for r in action[q2]], [list(r) for r in action[q1]])
            assert [[x % ring for x in r] for r in prod] == \
                [list(r) for r in action[qtbl.mult[q1][q2]]], "composition law fails"
    assert action[0] == tuple(tuple(r) for r in identity_rows(dim))
    return qtbl, tuple(cmap), tuple(surv), tuple(action)


def test_generator_module_matches_all_elements_oracle(corpus):
    checked = 0
    for entry in corpus:
        pres = parse_presentation(entry["text"])
        tbl = todd_coxeter(pres)
        rlat = relation_lattice(pres, tbl)
        for p in entry["primes"]:
            if not entry["expected"]["qr"][str(p)]:
                continue
            for n, sub in enumerate(dimension_subgroup_chain(tbl, p), start=1):
                coin = coinvariants(rlat, sub)
                for k in (1, 3):
                    mod = module_from_coinvariants(rlat, coin, sub, p, k, level=n)
                    qtbl, cmap, surv, action = all_elements_module(rlat, coin, sub, p, k)
                    assert mod.qtbl == qtbl, (entry["id"], p, n, k)
                    assert mod.coset_map == cmap, (entry["id"], p, n, k)
                    assert mod.surviving == surv, (entry["id"], p, n, k)
                    assert mod.action == action, (entry["id"], p, n, k)
                    checked += 1
    assert checked >= 20


def test_cayley_edge_check_rejects_a_non_action():
    tbl = table_of(C4)
    x = tbl.gen_images[0]
    # a 4-cycle permutation matrix is the regular action of C4 ...
    cycle4 = [[int(j == (i + 1) % 4) for j in range(4)] for i in range(4)]
    action = _action_from_generators(tbl, {x: cycle4}, 4, 2)
    assert action[0] == identity_rows(4)
    assert action[x] == cycle4
    # ... but a 3-cycle has order 3, so x^4 = 1 is an edge it cannot close
    cycle3 = [[int(j == (i + 1) % 3) for j in range(3)] for i in range(3)]
    with pytest.raises(PropertyViolation, match="Cayley edge"):
        _action_from_generators(tbl, {x: cycle3}, 3, 2)


def _coset_sum_modules(lo_v):
    """Regular F_2[C4] module over a rank-4 lattice with identity Smith
    coordinates, and a trivial one-dimensional module read off the free
    Smith coordinate 3 of lo_v (divisors 1, 1, 1 before it)."""
    tbl = table_of(C4)
    reps = class_reps(tbl)
    triv = next(j for j, c in enumerate(reps) if len(c.members) == 1)
    hi = synthetic_module(tbl, (Block(triv, reps[triv], (1,)),), 2, 1)
    lo_vinv = integer_inverse(lo_v)
    coin = Coinvariants(AbelianInvariants(1, ()), 4, (1, 1, 1),
                        tuple(map(tuple, lo_v)), tuple(map(tuple, lo_vinv)))
    lo = LevelModule(1, 2, 1, tbl, tuple(range(4)), (3,), (((1,),),) * 4, coin)
    return hi, lo


def test_transition_map_rejects_a_non_equivariant_map():
    # coordinate 3 through the all-ones column is the augmentation: equivariant
    sums = [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
    hi, lo = _coset_sum_modules(sums)
    assert transition_map(hi, lo) == ((1,), (1,), (1,), (1,))
    # plain projection onto basis vector 3 does not commute with the generator
    hi, lo = _coset_sum_modules(identity_rows(4))
    with pytest.raises(PropertyViolation, match="not equivariant"):
        transition_map(hi, lo)


# --- reasons for unknown -----------------------------------------------------

def test_capped_marks_box_names_its_reason():
    mod = level_module(Q32, 9)
    rec = perm_recognize_modp(mod)
    assert rec.status == "unknown"
    assert rec.refutation is None
    assert rec.marks.capped and rec.marks.candidates == ()
    assert "capped marks box" in rec.reason


def test_decided_results_carry_no_reason():
    rec = perm_recognize_modp(level_module(Q8, 2))
    assert rec.status == "refuted" and rec.reason is None
    rec = perm_recognize_modp(level_module(Q8, 1))
    assert rec.status == "certified" and rec.reason is None


def test_assignment_cap_names_its_reason():
    tbl = table_of("gens: a; relators: a^2; prime: 2")
    coin = Coinvariants(AbelianInvariants(1, ()), 1, (), ((1,),), ((1,),))
    twisted = LevelModule(1, 2, 6, tbl, (0, 1), (0,), (((1,),), ((63,),)), coin)
    plain = LevelModule(1, 2, 1, tbl, (0, 1), (0,), (((1,),), ((1,),)), coin)
    lift = gen_perm_lift(twisted, perm_recognize_modp(plain), assignment_cap=0)
    assert lift.status == "unknown"
    assert "assignment cap" in lift.reason
