"""Permutation-module recognition mod p and generalized-permutation lifts.

Level modules.  At each level of the dimension-subgroup chain the
coinvariants of the relation lattice are tensored with Z/p^k and carried as
explicit matrices for the quotient group Q = G/D_level.  Only the generator
images are acted out on the lattice, in the Smith coordinates of the
coinvariants; V and V^-1 both come out of the Smith reduction, so no matrix
is inverted.  The rest of Q is filled in along its Cayley graph, and every
Cayley edge is checked, which proves the matrices are an action of Q that
agrees with the G-action on the lattice.

Recognition over F_p goes marks-first: the orbit-count system over the
subgroup classes of Q is solved exactly and integrally (it can be
singular, so the solver enumerates the solution lattice); no admissible
solution refutes the module outright.  Candidates are then attacked
constructively through coset transport: a hom from an induced block is
determined by one base row, so the hom space per block is small enough to
enumerate completely in the cases that matter, making a failed search a
proof rather than a shrug.  Over Z/p^k the same transport runs with
sign-twisted blocks (p = 2; twists are invisible mod 2), and the solution
module is obtained by lifting the mod-p kernel one p-adic digit at a time.
Nothing is reported certified or refuted without either an independently
verified witness matrix or an exhausted finite search; an unknown result
names what stopped it (a capped marks system, a budget-limited search, or
the assignment cap) in its `reason`.

Conventions.  Module elements are row vectors; q acts by y -> y * A[q];
matrices compose antihomomorphically, A[q1 q2] = A[q2] * A[q1] (q1 q2
meaning qtbl.mult[q1][q2]).  Permutation blocks are left cosets of H in Q
with g * (cH) = (gc)H, and sign characters twist block entries by
xi(rep(c')^-1 g rep(c)).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations_with_replacement, product

from .errors import InputError, PropertyViolation, TorsionObstruction
from .enumeration import (
    FiniteGroupTable,
    Subgroup,
    all_subgroups,
    left_cosets,
    orbits_on_cosets,
    quotient_table,
    subgroup_conjugacy_classes,
)
from .groupring import _generators_for
from .intlinalg import (
    ModpSpan,
    identity_rows,
    is_invertible_modp,
    mat_mul,
    modp_left_kernel,
    modp_rank,
    modp_rref,
    modp_solve_left,
    smith_normal_form,
)
from .presentation import Presentation
from .relmod import Coinvariants, LevelResult, QRReport, RelationLattice, qr_check_full

DEFAULT_PRECISION = 20
DEFAULT_CERT_BUDGET = 100_000
DEFAULT_CANDIDATE_CAP = 64
DEFAULT_ASSIGNMENT_CAP = 64
EXHAUSTIVE_CAP = 4096
MARKS_BOX_CAP = 100_000


def _mm(a, b, q):
    return [[x % q for x in row] for row in mat_mul(a, b)]


# ---------------------------------------------------------------------------
# level modules

@dataclass(frozen=True)
class LevelModule:
    """Coinvariants at one chain level as a Z/p^k module for Q = G/D_level.

    `surviving` lists the Smith coordinates that stay alive after tensoring
    with the ring; `action[q]` is the matrix of q on those coordinates, and
    `coset_map[g]` is the element of Q that g in G maps to.  Construction
    (module_from_coinvariants) verifies that generators of G with the same
    image in Q act alike, that the generator matrices are invertible mod p,
    that every Cayley edge of Q satisfies A[q x] = A[x] * A[q], and that
    relators act as the identity.
    """

    level: int
    p: int
    k: int
    qtbl: FiniteGroupTable
    coset_map: tuple[int, ...]
    surviving: tuple[int, ...]
    action: tuple[tuple[tuple[int, ...], ...], ...]
    coin: Coinvariants

    @property
    def dim(self) -> int:
        return len(self.surviving)

    @property
    def ring(self) -> int:
        return self.p ** self.k

    def word_matrix(self, word) -> list[list[int]]:
        """Matrix of a relator word, letters mapped through gen_images."""
        out = identity_rows(self.dim)
        for g, s in word:
            q = self.qtbl.gen_images[g]
            if s < 0:
                q = self.qtbl.inv[q]
            out = _mm(self.action[q], out, self.ring)
        return out


def _action_from_generators(qtbl: FiniteGroupTable, gen_mats, dim: int, ring: int):
    """Matrices A[q] for all of Q from the matrices of the generator images.

    BFS over the Cayley graph of Q sets A[1] = I and A[q x] = A[x] * A[q]
    along tree edges; every other edge, with x running over the keys of
    gen_mats, must satisfy the same equation or PropertyViolation is raised.
    With every edge checked, A[image of w] is the product of the letter
    matrices of w for every positive word w in the generators, so q -> A[q]
    is well defined and A[q1 q2] = A[q2] * A[q1] on all of Q.
    """
    gens = sorted(gen_mats)
    action: list[list[list[int]] | None] = [None] * qtbl.order
    action[0] = identity_rows(dim)
    order = [0]
    for q in order:
        for x in gens:
            moved = _mm(gen_mats[x], action[q], ring)
            target = qtbl.mult[q][x]
            if action[target] is None:
                action[target] = moved
                order.append(target)
            elif action[target] != moved:
                raise PropertyViolation(
                    f"Cayley edge q={q}, x={x} breaks A[qx] = A[x]A[q]: "
                    f"the generator matrices do not define an action of the quotient"
                )
    if len(order) != qtbl.order:
        raise PropertyViolation("generator images do not reach every element of the quotient")
    return action


def _level_frame(rlat: RelationLattice, sub: Subgroup):
    """(qtbl, coset map, lattice coordinates of x * basis per generator image x).

    This is everything a level module needs that does not depend on the
    ring, so the mod-p module and its Z/p^k lift share one frame.  The
    coordinates do not depend on the level either: they are the lattice's
    own gen_coords, solved once when the lattice was certified.
    """
    qtbl, cmap = quotient_table(rlat.tbl, sub)
    return qtbl, cmap, rlat.gen_coords


def _module_on_frame(rlat, coin, frame, p: int, k: int, level: int) -> LevelModule:
    if k < 1:
        raise InputError(f"precision must be >= 1, got {k}")
    ring = p ** k
    surv: list[int] = []
    for i, d in enumerate(coin.divisors):
        if d % p == 0:
            if k > 1:
                raise TorsionObstruction(
                    f"coinvariants have p-torsion Z/{d}; no free Z/{p}^{k} form"
                )
            surv.append(i)
    surv.extend(range(len(coin.divisors), coin.rank))
    qtbl, cmap, coords = frame
    v_surv = [[row[j] for j in surv] for row in coin.V]
    vinv_surv = [list(coin.Vinv[i]) for i in surv]
    gen_mats: dict[int, list[list[int]]] = {}
    for x, mx in coords.items():
        a = _mm(vinv_surv, _mm(mx, v_surv, ring), ring)
        q = cmap[x]
        if gen_mats.setdefault(q, a) != a:
            raise PropertyViolation(
                f"action not constant on the coset of q={q}: the kernel acts"
            )
        if not is_invertible_modp(a, p):
            raise PropertyViolation(f"action of generator image q={q} is singular mod {p}")
    dim = len(surv)
    action = _action_from_generators(qtbl, gen_mats, dim, ring)
    mod = LevelModule(
        level=level, p=p, k=k, qtbl=qtbl, coset_map=tuple(cmap),
        surviving=tuple(surv),
        action=tuple(tuple(tuple(r) for r in a) for a in action),
        coin=coin,
    )
    ident = identity_rows(dim)
    for rel in rlat.pres.relators:
        if mod.word_matrix(rel) != ident:
            raise PropertyViolation("a relator acts nontrivially on the coinvariants")
    return mod


def module_from_coinvariants(rlat: RelationLattice, coin: Coinvariants, sub: Subgroup,
                             p: int, k: int, level: int = 0) -> LevelModule:
    """Tensor the coinvariant quotient with Z/p^k and restrict the action.

    Over Z/p^k with k > 1 a p-torsion divisor leaves a nonfree summand,
    which no generalized permutation module has; that is reported as
    TorsionObstruction.  Over F_p (k = 1) the p-torsion coordinates
    survive alongside the free ones.

    Only the distinct generator images x of G are acted out on the lattice:
    Vinv * M_x * V restricted to the surviving coordinates, reduced mod p^k
    at once.  The rest of Q is filled in from them by _action_from_generators,
    whose Cayley-edge check makes q -> A[q] an action of Q.  It agrees with
    the G-action on the generators, hence on all of G (a finite group is
    generated by its generators as a monoid), so D_level acts trivially and
    A is the action of every preimage.  Generator matrices are checked
    invertible mod p; every A[q] is a product of them.
    """
    return _module_on_frame(rlat, coin, _level_frame(rlat, sub), p, k, level)


def transition_map(hi: LevelModule, lo: LevelModule) -> tuple[tuple[int, ...], ...]:
    """The natural surjection from the level-(n+1) module onto the level-n one.

    In Smith coordinates it is Vinv_hi * V_lo restricted to the surviving
    coordinates of each side.  Verified: equivariant for the image of every
    generator of G, and surjective mod p.  Equivariance on the generators
    covers all of G: both sides are actions, so the set of g on which it
    holds is closed under products, and a finite group is generated by its
    generators as a monoid.  Both failures are hard errors; the map exists
    whenever the chain is really descending.
    """
    if (hi.p, hi.k) != (lo.p, lo.k):
        raise InputError("transition between modules over different rings")
    ring = hi.ring
    vinv_hi = [list(hi.coin.Vinv[i]) for i in hi.surviving]
    v_lo = [[row[j] for j in lo.surviving] for row in lo.coin.V]
    T = _mm(vinv_hi, v_lo, ring)
    for x_hi, x_lo in sorted(set(zip(hi.qtbl.gen_images, lo.qtbl.gen_images))):
        left = _mm(hi.action[x_hi], T, ring)
        right = _mm(T, lo.action[x_lo], ring)
        if left != right:
            raise PropertyViolation("transition between chain levels is not equivariant")
    if modp_rank(T, hi.p) != lo.dim:
        raise PropertyViolation("transition between chain levels is not surjective")
    return tuple(tuple(r) for r in T)


# ---------------------------------------------------------------------------
# marks

@dataclass(frozen=True)
class MarksReport:
    """Linear necessary conditions on the multiplicities, and their solutions.

    classes[i] is the representative of subgroup class i.  Three exact
    invariants of the module are matched against what a permutation module
    with multiplicities m would give:

      fixdims[i]    = dim M^K           = sum_j m_j * table[i][j]
      codims[i]     = dim M_K           = same right side (both count orbits)
      norm_ranks[i] = rank sum_{h in K} = sum_j m_j * norm_table[i][j]

    The last is sharp in a way orbit counts are not: for K = Q it equals
    the multiplicity of the free block exactly.  candidates holds every
    nonnegative integral vector surviving all three systems (capped), in
    lexicographic order; empty with a witness means refuted.
    """

    classes: tuple[Subgroup, ...]
    fixdims: tuple[int, ...]
    codims: tuple[int, ...]
    norm_ranks: tuple[int, ...]
    table: tuple[tuple[int, ...], ...]
    norm_table: tuple[tuple[int, ...], ...]
    candidates: tuple[tuple[int, ...], ...]
    witness: str | None
    capped: bool

    def capped_reason(self) -> str | None:
        """Why the candidate list is incomplete, None when it is complete."""
        if not self.capped:
            return None
        if not self.candidates:
            return (
                f"capped marks box: the orbit-count solution box has more than "
                f"{MARKS_BOX_CAP} points and was not enumerated"
            )
        return "capped marks candidates: candidates past the cap were not searched"


def _generator_differences(mod: LevelModule, generators) -> list[list[list[int]]]:
    """A[g] - I for each non-identity generator g of a subgroup."""
    out = []
    for g in sorted({g for g in generators if g}):
        diff = [list(row) for row in mod.action[g]]
        for i, row in enumerate(diff):
            row[i] -= 1
        out.append(diff)
    return out


def _fixed_dim(mod: LevelModule, generators) -> int:
    """dim of M^K: the vectors fixed by the generators of K are fixed by K.

    v(A[g] - I) = 0 for every generator g is one system, v times the
    side-by-side stack of the A[g] - I, so dim M^K = dim - its rank.
    """
    diffs = _generator_differences(mod, generators)
    stacked = [[x for d in diffs for x in d[i]] for i in range(mod.dim)]
    return mod.dim - modp_rank(stacked, mod.p)


def _coinv_dim(mod: LevelModule, generators) -> int:
    """dim of M / sum (k-1)M, the K-coinvariants.

    Generators suffice: gh - 1 = (g - 1)h + (h - 1) and sum (k-1)M is
    stable under K, so the generators' (x-1)M already span it.
    """
    diffs = _generator_differences(mod, generators)
    return mod.dim - modp_rank([row for d in diffs for row in d], mod.p)


def _norm_rank(mod: LevelModule, members) -> int:
    """rank mod p of the subgroup norm sum_{k in K} A[k] acting on M."""
    if mod.dim == 0:
        return 0
    nu = [[0] * mod.dim for _ in range(mod.dim)]
    for g in members:
        a = mod.action[g]
        for i in range(mod.dim):
            row = nu[i]
            arow = a[i]
            for j in range(mod.dim):
                row[j] = (row[j] + arow[j]) % mod.p
    return modp_rank(nu, mod.p)


def _block_norm_rank(qtbl: FiniteGroupTable, acting_members, block_sub: Subgroup, p: int) -> int:
    """rank mod p of the norm of the acting subgroup on F_p[Q/H]."""
    coset_of, reps = left_cosets(qtbl, block_sub)
    n = len(reps)
    mat = [[0] * n for _ in range(n)]
    for c, r in enumerate(reps):
        for h in acting_members:
            mat[c][coset_of[qtbl.mult[h][r]]] += 1
    return modp_rank(mat, p)


def _fraction_rank(rows: list[list[Fraction]]) -> int:
    a = [r[:] for r in rows]
    rank = 0
    ncols = len(a[0]) if a else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = 1 / a[rank][c]
        a[rank] = [x * inv for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def _fraction_inverse(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(rows)
    a = [r[:] + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for c in range(n):
        piv = next(i for i in range(c, n) if a[i][c])
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [r[n:] for r in a]


def _integral_solutions(table, fix, dim, cap):
    """All m >= 0 with table * m = fix, by Smith reduction of the system.

    Returns (solutions, witness_if_none, capped).  The orbit-count matrix
    need not be invertible, so the solution set is an affine sublattice
    m = base + sum_k c_k dirs[k]; its free coefficients are enumerated
    exactly inside the box that keeps 0 <= m_j <= dim (the trivial-class
    equation bounds every multiplicity by the module dimension).  A box of
    more than MARKS_BOX_CAP points is not entered.

    The box is walked depth first, c_0 outermost, which is the
    lexicographic order of the coefficient vectors.  Before a prefix
    c_0 .. c_k is extended, each m_j is bounded by what the remaining
    directions can still add over their integer ranges, and the prefix is
    dropped only when some m_j cannot land in [0, dim].  A dropped prefix
    holds no solution, so the solutions come out in the same order as a
    walk of every point, and a capped walk stops on the same cap + 1.
    """
    t = len(fix)
    D, U, V, _ = smith_normal_form([list(r) for r in table])
    # table * m = fix  <=>  D z = U fix  with  m = V z   (D = U table V)
    ufix = [sum(U.entries[i][l] * fix[l] for l in range(t)) for i in range(t)]
    diag = list(D.diagonal())
    z0 = [0] * t
    free: list[int] = []
    for i in range(t):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if ufix[i] != 0:
                return [], "orbit-count system is inconsistent", False
            free.append(i)
        else:
            if ufix[i] % d:
                return [], (
                    f"orbit-count system forces a non-integral multiplicity "
                    f"({ufix[i]}/{d})"
                ), False
            z0[i] = ufix[i] // d
    vrows = V.to_rows()

    def to_m(z):
        return [sum(vrows[j][i] * z[i] for i in range(t)) for j in range(t)]

    base = to_m(z0)
    if not free:
        m = base
        if all(0 <= x <= dim for x in m):
            return [tuple(m)], None, False
        return [], f"unique multiplicity vector {tuple(m)} is not admissible", False
    # kernel directions: columns of V at the free positions; independent,
    # so s of the t rows are invertible and bound the coefficients exactly
    dirs = [[vrows[j][i] for j in range(t)] for i in free]
    s = len(dirs)
    picked: list[int] = []
    acc: list[list[Fraction]] = []
    for j in range(t):
        trial = acc + [[Fraction(dirs[i][j]) for i in range(s)]]
        if _fraction_rank(trial) > len(acc):
            picked.append(j)
            acc = trial
        if len(picked) == s:
            break
    if len(picked) != s:
        raise AssertionError("kernel directions are dependent")
    sub = [[Fraction(dirs[i][j]) for i in range(s)] for j in picked]
    sub_inv = _fraction_inverse(sub)
    lo: list[Fraction | None] = [None] * s
    hi: list[Fraction | None] = [None] * s
    for corner in product(*[(0, dim)] * s):
        delta = [Fraction(corner[a] - base[picked[a]]) for a in range(s)]
        c = [sum(sub_inv[i][a] * delta[a] for a in range(s)) for i in range(s)]
        for i in range(s):
            lo[i] = c[i] if lo[i] is None or c[i] < lo[i] else lo[i]
            hi[i] = c[i] if hi[i] is None or c[i] > hi[i] else hi[i]
    ranges = [range(math.ceil(lo[i]), math.floor(hi[i]) + 1) for i in range(s)]
    total = 1
    for r in ranges:
        total *= max(len(r), 1)
    if total > MARKS_BOX_CAP:
        return [], None, True
    sols: list[tuple[int, ...]] = []
    capped = False
    if all(ranges):
        # lo_add[k][j], hi_add[k][j]: the least and the greatest amount that
        # directions k, k+1, ... can still add to m_j.  c * d is affine in c,
        # so each term is extreme at an end of c's integer range.
        lo_add = [[0] * t for _ in range(s + 1)]
        hi_add = [[0] * t for _ in range(s + 1)]
        for k in range(s - 1, -1, -1):
            first, last = ranges[k][0], ranges[k][-1]
            for j, dj in enumerate(dirs[k]):
                a, b = first * dj, last * dj
                lo_add[k][j] = lo_add[k + 1][j] + min(a, b)
                hi_add[k][j] = hi_add[k + 1][j] + max(a, b)

        def walk(k, m):
            """Extend the prefix m = base + sum_{i<k} c_i dirs[i] by c_k;
            True once more than cap solutions are found."""
            lo, hi, dvec = lo_add[k + 1], hi_add[k + 1], dirs[k]
            for c in ranges[k]:
                mc = [x + c * y for x, y in zip(m, dvec)]
                if any(x + h < 0 or x + l > dim for x, l, h in zip(mc, lo, hi)):
                    continue
                if k + 1 == s:
                    sols.append(tuple(mc))
                    if len(sols) > cap:
                        return True
                elif walk(k + 1, mc):
                    return True
            return False

        capped = walk(0, base)
    sols = sorted(set(sols))
    if capped:
        sols = sols[:cap]
    if not sols and not capped:
        return [], "no nonnegative integral multiplicity vector exists", False
    return sols, None, capped


def marks_multiplicities(mod: LevelModule, cap: int = DEFAULT_CANDIDATE_CAP) -> MarksReport:
    """Solve the linear necessary conditions for candidate multiplicities.

    dim M^K = sum_H m_H * #orbits(K, Q/H) is forced for any permutation
    module, as is the matching coinvariant dimension and the norm-rank
    system (norms act blockwise, so their ranks add over summands).  An
    empty candidate list is a proof of non-existence; candidates that
    survive are only necessary and still need the constructive certificate.
    """
    subs = all_subgroups(mod.qtbl)
    classes = [cls[0] for cls in subgroup_conjugacy_classes(mod.qtbl, subs)]
    t = len(classes)
    fix = [_fixed_dim(mod, K.generators) for K in classes]
    codims = [_coinv_dim(mod, K.generators) for K in classes]
    nranks = [_norm_rank(mod, K.members) for K in classes]
    table = [
        [orbits_on_cosets(mod.qtbl, H, K) for H in classes]
        for K in classes
    ]
    ntable = [
        [_block_norm_rank(mod.qtbl, K.members, H, mod.p) for H in classes]
        for K in classes
    ]
    if codims != fix:
        return MarksReport(
            classes=tuple(classes), fixdims=tuple(fix), codims=tuple(codims),
            norm_ranks=tuple(nranks), table=tuple(tuple(r) for r in table),
            norm_table=tuple(tuple(r) for r in ntable), candidates=(),
            witness="invariant and coinvariant dimensions disagree",
            capped=False,
        )
    sols, witness, capped = _integral_solutions(table, fix, mod.dim, cap)
    kept = [
        m for m in sols
        if all(sum(m[j] * ntable[i][j] for j in range(t)) == nranks[i]
               for i in range(t))
    ]
    if sols and not kept and not capped and witness is None:
        witness = "subgroup norm ranks rule out every multiplicity vector"
    return MarksReport(
        classes=tuple(classes),
        fixdims=tuple(fix),
        codims=tuple(codims),
        norm_ranks=tuple(nranks),
        table=tuple(tuple(r) for r in table),
        norm_table=tuple(tuple(r) for r in ntable),
        candidates=tuple(kept),
        witness=witness,
        capped=capped,
    )


# ---------------------------------------------------------------------------
# monomial blocks and the transport solver

@dataclass(frozen=True)
class Block:
    """One induced block Ind_H^Q of a (generalized) permutation module:
    left cosets of H, optionally twisted by a sign character on H."""

    class_index: int
    sub: Subgroup
    xi: tuple[int, ...]  # aligned with sub.members; all 1 = plain block

    def is_plain(self) -> bool:
        return all(v == 1 for v in self.xi)


class _CosetGeometry:
    """Left cosets of H in Q with the generator action factored as
    g * rep(c) = rep(c') * h, h in H."""

    def __init__(self, qtbl: FiniteGroupTable, sub: Subgroup):
        self.qtbl = qtbl
        self.sub = sub
        coset_of, reps = left_cosets(qtbl, sub)
        self.coset_of = coset_of
        self.reps = reps
        self.size = len(reps)
        self.member_pos = {m: i for i, m in enumerate(sub.members)}

    def step(self, g: int, c: int) -> tuple[int, int]:
        img = self.qtbl.mult[g][self.reps[c]]
        c2 = self.coset_of[img]
        h = self.qtbl.mult[self.qtbl.inv[self.reps[c2]]][img]
        if h not in self.member_pos:
            raise AssertionError("coset factorization left the subgroup")
        return c2, h


def block_matrix(qtbl: FiniteGroupTable, block: Block, q: int, ring: int):
    """Matrix of q on the block over Z/ring (signed permutation matrix)."""
    geo = _CosetGeometry(qtbl, block.sub)
    out = [[0] * geo.size for _ in range(geo.size)]
    for c in range(geo.size):
        c2, h = geo.step(q, c)
        out[c][c2] = block.xi[geo.member_pos[h]] % ring
    return out


def monomial_matrix(qtbl, blocks, q, ring):
    """Block-diagonal action of q on a sum of induced blocks."""
    mats = [block_matrix(qtbl, b, q, ring) for b in blocks]
    d = sum(len(m) for m in mats)
    out = [[0] * d for _ in range(d)]
    off = 0
    for m in mats:
        for i, row in enumerate(m):
            out[off + i][off:off + len(m)] = row
        off += len(m)
    return out


def _block_transport(mod: LevelModule, geo: _CosetGeometry, xi, ring: int):
    """Hom equations for one induced block, by transporting the base row.

    A hom W from the block satisfies, for every generator g and coset c,
    xi(h) W[g?c] = W[c] * A[g]  over Z/ring.  BFS from the base coset
    expresses every row as w * B[c] in the unknown base row w; non-tree
    edges stack the closure constraints w * cols = 0.  Returns (B, cols)
    with cols given as dim rows, one column block per closure edge.
    """
    d = mod.dim
    qgens = sorted(set(mod.qtbl.gen_images)) if mod.qtbl.order > 1 else []
    base = geo.coset_of[0]
    B: list[list[list[int]] | None] = [None] * geo.size
    B[base] = identity_rows(d)
    order = [base]
    cols: list[list[int]] = [[] for _ in range(d)]
    aring = {g: [[x % ring for x in row] for row in mod.action[g]] for g in qgens}
    qi = 0
    while qi < len(order):
        c = order[qi]
        qi += 1
        for g in qgens:
            c2, h = geo.step(g, c)
            sign = xi[geo.member_pos[h]]
            # xi values are +-1, so 1/sign = sign
            moved = [[(sign * x) % ring for x in row] for row in _mm(B[c], aring[g], ring)]
            if B[c2] is None:
                B[c2] = moved
                order.append(c2)
            else:
                for i in range(d):
                    for j in range(d):
                        cols[i].append((moved[i][j] - B[c2][i][j]) % ring)
    if any(b is None for b in B):
        raise AssertionError("generators do not reach every coset")
    return B, cols


def _liftable_kernel(a: list[list[int]], p: int, k: int) -> list[list[int]]:
    """Rows w with w * a = 0 over Z/p^k, lifting the mod-p kernel digit by
    digit.  The returned integer lifts have linearly independent mod-p
    reductions spanning the reduction of the full solution module, so every
    solution's reduction is an F_p combination of theirs; exhausting those
    combinations is a complete search.
    """
    d = len(a)
    if d == 0:
        return []
    n = len(a[0])
    lifts = [list(v) for v in modp_left_kernel(a, p, width=n)]
    if not lifts or k == 1:
        return lifts
    abar = [[x % p for x in row] for row in a]
    im_rref, im_piv = modp_rref(abar, p)
    q = p
    for _ in range(1, k):
        defs = []
        for w in lifts:
            wa = [sum(w[i] * a[i][j] for i in range(d)) for j in range(n)]
            if any(x % q for x in wa):
                raise AssertionError("lift invariant broke")
            defs.append([(x // q) % p for x in wa])
        proj = []
        for v in defs:
            v = v[:]
            for row, c in zip(im_rref, im_piv):
                if v[c]:
                    f = v[c]
                    v = [(x - f * y) % p for x, y in zip(v, row)]
            proj.append(v)
        combos = modp_left_kernel(proj, p, width=n)
        if not combos:
            return []
        new_lifts = []
        for comb in combos:
            w = [sum(comb[i] * lifts[i][t] for i in range(len(lifts)))
                 for t in range(d)]
            wa = [sum(w[i] * a[i][j] for i in range(d)) for j in range(n)]
            rhs = [(-(x // q)) % p for x in wa]
            v = modp_solve_left(abar, rhs, p)
            if v is None:
                raise AssertionError("projected defect was not in the image")
            w = [wi + q * vi for wi, vi in zip(w, v)]
            new_lifts.append(w)
        lifts = new_lifts
        q *= p
    return lifts


# ---------------------------------------------------------------------------
# certificates and the search over hom spaces

@dataclass(frozen=True)
class Certificate:
    """A verified explicit isomorphism from a (generalized) permutation
    module onto the level module: phi rows over Z/p^k, source described
    by the blocks."""

    p: int
    k: int
    blocks: tuple[Block, ...]
    phi: tuple[tuple[int, ...], ...]


def _verify_certificate(mod: LevelModule, blocks, phi) -> bool:
    ring = mod.ring
    if len(phi) != mod.dim or not is_invertible_modp(phi, mod.p):
        return False
    for q in set(mod.qtbl.gen_images):
        ap = monomial_matrix(mod.qtbl, blocks, q, ring)
        if _mm(ap, phi, ring) != _mm(phi, mod.action[q], ring):
            return False
    return True


def _search_hom_spaces(mod, blocks, geos, spaces, budget, trials, rng):
    """Find base rows making the assembled matrix invertible mod p.

    spaces[b] = (solution basis, transport B) per block.  Free blocks
    (trivial subgroup) are pinned first: any base row m with nonzero norm
    image generates a split free summand (the group ring is self-injective
    with simple socle), so rows with independent images under the full
    norm can be fixed without losing generality, and Krull-Schmidt reduces
    the candidate to the remaining blocks.  When the joint choice space of
    those is small it is enumerated completely and exhaustion is
    definitive; otherwise a structured pass and random coefficient draws
    run under the budget.  Returns (phi_or_None, trials, definitive).
    """
    ring = mod.ring
    p = mod.p
    d = mod.dim
    free_idx = [i for i, b in enumerate(blocks) if b.sub.order == 1]
    rest_idx = [i for i, b in enumerate(blocks) if b.sub.order > 1]
    if any(len(spaces[i][0]) == 0 for i in rest_idx):
        return None, trials, True
    pinned: dict[int, list[int]] = {}
    if free_idx:
        nu = [[0] * d for _ in range(d)]
        for q in range(mod.qtbl.order):
            a = mod.action[q]
            for i in range(d):
                row = nu[i]
                arow = a[i]
                for j in range(d):
                    row[j] = (row[j] + arow[j]) % p
        span = ModpSpan(d, p)
        chosen = []
        for y in range(d):
            if span.add(nu[y]):
                chosen.append(y)
                if len(chosen) == len(free_idx):
                    break
        if len(chosen) < len(free_idx):
            # the full norm has smaller rank than the free multiplicity asks
            return None, trials, True
        for i, y in zip(free_idx, chosen):
            w = [0] * d
            w[y] = 1
            pinned[i] = w

    def assemble(rows_by_block):
        phi = []
        for bi, ((_, B), geo) in enumerate(zip(spaces, geos)):
            w = rows_by_block[bi]
            for c in range(geo.size):
                phi.append([
                    sum(w[i] * B[c][i][j] for i in range(d)) % ring
                    for j in range(d)
                ])
        return phi

    total = 1
    for i in rest_idx:
        total *= p ** len(spaces[i][0]) - 1
        if total > EXHAUSTIVE_CAP:
            break
    if total <= EXHAUSTIVE_CAP and trials + total <= budget:
        nonzero_coeffs = [
            [c for c in product(range(p), repeat=len(spaces[i][0])) if any(c)]
            for i in rest_idx
        ]
        for combo in product(*nonzero_coeffs):
            trials += 1
            rows = dict(pinned)
            for i, coeffs in zip(rest_idx, combo):
                kernel = spaces[i][0]
                rows[i] = [
                    sum(c * vec[j] for c, vec in zip(coeffs, kernel)) % ring
                    for j in range(d)
                ]
            phi = assemble(rows)
            if is_invertible_modp(phi, p):
                return phi, trials, False
        return None, trials, True
    # structured pass, then random draws
    attempts = min(64, max(1, budget - trials))
    for attempt in range(attempts):
        if trials >= budget:
            break
        trials += 1
        rows = dict(pinned)
        for i in free_idx:
            if i not in rows:
                rows[i] = [rng.randrange(ring) for _ in range(d)]
        for i in rest_idx:
            kernel = spaces[i][0]
            if attempt == 0:
                rows[i] = list(kernel[0])
            else:
                coeffs = [rng.randrange(ring) for _ in kernel]
                if not any(c % p for c in coeffs):
                    coeffs[0] = 1
                rows[i] = [
                    sum(c * vec[j] for c, vec in zip(coeffs, kernel)) % ring
                    for j in range(d)
                ]
        phi = assemble(rows)
        if is_invertible_modp(phi, p):
            return phi, trials, False
    return None, trials, False


# ---------------------------------------------------------------------------
# recognition over F_p

_SAMPLED_SEARCH = (
    "budget-limited search: a hom space was sampled, not exhausted (more than "
    f"{EXHAUSTIVE_CAP} choices or the trial budget was reached)"
)


@dataclass(frozen=True)
class RecognitionResult:
    """`reason` says why the status is unknown, and is None otherwise."""

    status: str  # certified | refuted | unknown
    marks: MarksReport
    multiplicities: tuple[int, ...] | None
    certificate: Certificate | None
    trials: int
    refutation: str | None = None
    reason: str | None = None


def perm_recognize_modp(
    mod: LevelModule,
    budget: int = DEFAULT_CERT_BUDGET,
    candidate_cap: int = DEFAULT_CANDIDATE_CAP,
) -> RecognitionResult:
    """Decide whether the mod-p module is a permutation module for Q.

    Marks first: no admissible multiplicity vector refutes outright.  Every
    candidate is then searched constructively; when each search space was
    enumerated completely, failure everywhere is again a refutation.  Only
    a capped marks system or a budget-limited partial search reports
    unknown, and `reason` names which.
    """
    if mod.k != 1:
        raise InputError("recognition runs on the mod-p module (k = 1)")
    marks = marks_multiplicities(mod, candidate_cap)
    if not marks.candidates:
        if marks.capped:
            return RecognitionResult("unknown", marks, None, None, 0,
                                     reason=marks.capped_reason())
        return RecognitionResult("refuted", marks, None, None, 0, marks.witness)
    if mod.dim == 0:
        cert = Certificate(mod.p, 1, (), ())
        return RecognitionResult("certified", marks, marks.candidates[0], cert, 0)
    trials = 0
    rng = random.Random(
        0x5EED ^ (mod.p * 0x9E3779B1) ^ (mod.dim << 16) ^ (mod.qtbl.order << 4)
    )
    all_definitive = not marks.capped
    for cand in marks.candidates:
        if sum(m * (mod.qtbl.order // marks.classes[j].order)
               for j, m in enumerate(cand)) != mod.dim:
            raise AssertionError("marks solution violates the dimension equation")
        blocks = []
        for j, m in enumerate(cand):
            H = marks.classes[j]
            blocks.extend(Block(j, H, (1,) * H.order) for _ in range(m))
        blocks = tuple(blocks)
        geos = [_CosetGeometry(mod.qtbl, b.sub) for b in blocks]
        spaces = []
        for b, geo in zip(blocks, geos):
            B, cols = _block_transport(mod, geo, b.xi, mod.p)
            kernel = modp_left_kernel(cols, mod.p,
                                      width=len(cols[0]) if cols else 0)
            spaces.append((kernel, B))
        phi, trials, definitive = _search_hom_spaces(
            mod, blocks, geos, spaces, budget, trials, rng
        )
        if phi is not None:
            if not _verify_certificate(mod, blocks, phi):
                raise PropertyViolation(
                    "assembled certificate failed independent verification"
                )
            cert = Certificate(mod.p, 1, blocks, tuple(tuple(r) for r in phi))
            return RecognitionResult("certified", marks, cand, cert, trials)
        all_definitive = all_definitive and definitive
    if all_definitive:
        return RecognitionResult(
            "refuted", marks, None, None, trials,
            "every candidate's hom space was searched completely",
        )
    reason = marks.capped_reason() if all_definitive else _SAMPLED_SEARCH
    return RecognitionResult("unknown", marks, None, None, trials, reason=reason)


# ---------------------------------------------------------------------------
# sign characters and the integral certificate

def sign_characters(qtbl: FiniteGroupTable, sub: Subgroup) -> list[tuple[int, ...]]:
    """All homomorphisms H -> {1,-1}, trivial first, then by value tuple.

    Determined by values on a greedy generating set; each assignment is
    propagated through the multiplication table and kept only if globally
    multiplicative.
    """
    members = list(sub.members)
    gens = _generators_for(qtbl, members)
    chars = []
    for signs in product((1, -1), repeat=len(gens)):
        val = {0: 1}
        frontier = [0]
        ok = True
        while frontier and ok:
            x = frontier.pop()
            for g, s in zip(gens, signs):
                y = qtbl.mult[x][g]
                v = val[x] * s
                if y in val:
                    if val[y] != v:
                        ok = False
                        break
                else:
                    val[y] = v
                    frontier.append(y)
        if not ok or len(val) != len(members):
            continue
        if all(val[qtbl.mult[a][b]] == val[a] * val[b]
               for a in members for b in members):
            chars.append(tuple(val[m] for m in members))
    return sorted(set(chars), key=lambda c: (c != (1,) * len(members), c))


@dataclass(frozen=True)
class LiftResult:
    """`reason` says why the status is unknown, and is None otherwise."""

    status: str  # certified | refuted | unknown | not_attempted
    certificate: Certificate | None
    assignments_tried: int
    refutation: str | None = None
    reason: str | None = None


def gen_perm_lift(
    mod: LevelModule,
    modp: RecognitionResult,
    assignment_cap: int = DEFAULT_ASSIGNMENT_CAP,
    budget: int = DEFAULT_CERT_BUDGET,
) -> LiftResult:
    """Certify the module over Z/p^k as a generalized permutation module.

    The block multiset is forced by the mod-p certificate (reduction of a
    sign-twisted block is the plain block, and mod-p decompositions of
    p-group permutation modules are unique), so only the sign characters
    vary: all of them for p = 2, the trivial one otherwise.  For each
    assignment the hom equation is solved directly over Z/p^k by coset
    transport plus digit-by-digit kernel lifting; invertibility is then a
    finite search over mod-p reductions.  If every assignment's search was
    exhaustive and failed, the module provably has no generalized
    permutation form and the result is refuted.
    """
    if modp.status != "certified" or modp.certificate is None:
        return LiftResult("not_attempted", None, 0)
    if mod.k == 1:
        return LiftResult("certified", modp.certificate, 1)
    p, k, ring = mod.p, mod.k, mod.ring
    base_blocks = modp.certificate.blocks
    if mod.dim == 0:
        return LiftResult("certified", Certificate(p, k, (), ()), 1)
    per_class: dict[int, list[int]] = {}
    for i, b in enumerate(base_blocks):
        per_class.setdefault(b.class_index, []).append(i)
    if p == 2:
        char_lists = {
            ci: sign_characters(mod.qtbl, base_blocks[idxs[0]].sub)
            for ci, idxs in per_class.items()
        }
    else:
        char_lists = {
            ci: [(1,) * base_blocks[idxs[0]].sub.order]
            for ci, idxs in per_class.items()
        }
    class_order = sorted(per_class)
    choice_iters = [
        combinations_with_replacement(range(len(char_lists[ci])), len(per_class[ci]))
        for ci in class_order
    ]
    rng = random.Random(
        0xF1A7 ^ (p * 0x9E3779B1) ^ (mod.dim << 16) ^ (k << 2)
    )
    tried = 0
    all_definitive = True
    trials = 0
    for combo in product(*choice_iters):
        if tried >= assignment_cap:
            return LiftResult(
                "unknown", None, tried,
                reason=f"assignment cap: {assignment_cap} sign assignments "
                       f"tried, the rest were not searched",
            )
        tried += 1
        blocks = list(base_blocks)
        for ci, picks in zip(class_order, combo):
            for bi, chi in zip(per_class[ci], picks):
                blocks[bi] = Block(ci, blocks[bi].sub, char_lists[ci][chi])
        blocks = tuple(blocks)
        geos = [_CosetGeometry(mod.qtbl, b.sub) for b in blocks]
        spaces = []
        for b, geo in zip(blocks, geos):
            B, cols = _block_transport(mod, geo, b.xi, ring)
            kernel = _liftable_kernel(cols, p, k)
            spaces.append((kernel, B))
        phi, trials, definitive = _search_hom_spaces(
            mod, blocks, geos, spaces, budget, trials, rng
        )
        if phi is not None:
            if not _verify_certificate(mod, blocks, phi):
                raise PropertyViolation(
                    "integral certificate failed independent verification"
                )
            cert = Certificate(p, k, blocks, tuple(tuple(r) for r in phi))
            return LiftResult("certified", cert, tried)
        all_definitive = all_definitive and definitive
    if all_definitive:
        return LiftResult(
            "refuted", None, tried,
            "every sign assignment's hom space was searched completely",
        )
    return LiftResult("unknown", None, tried, reason=_SAMPLED_SEARCH)


# ---------------------------------------------------------------------------
# the per-level equivalence harness

@dataclass(frozen=True)
class LevelOutcome:
    level: int
    quotient_order: int
    dim: int
    p_torsion: tuple[int, ...]
    modp_status: str
    multiplicities: tuple[tuple[int, int], ...] | None  # (|H|, m) per class
    integral_status: str
    characters_plain: bool | None
    trials: int


@dataclass(frozen=True)
class HarnessReport:
    prime: int
    precision: int
    levels: tuple[LevelOutcome, ...]
    violations: int
    unknown_levels: int
    transitions_checked: int

    @property
    def unknown_rate(self) -> float:
        return self.unknown_levels / len(self.levels) if self.levels else 0.0


def _level_outcome(rlat: RelationLattice, lv: LevelResult, p: int, precision: int,
                   budget: int) -> tuple[LevelOutcome, LevelModule]:
    """Recognize one level's mod-p module and, if certified, lift it."""
    n, tors = lv.level, lv.p_torsion
    frame = _level_frame(rlat, lv.subgroup)
    mod1 = _module_on_frame(rlat, lv.coin, frame, p, 1, n)
    rec = perm_recognize_modp(mod1, budget)
    mults = None
    if rec.multiplicities is not None:
        mults = tuple(
            (rec.marks.classes[j].order, m)
            for j, m in enumerate(rec.multiplicities) if m
        )
    characters_plain = None
    if tors:
        integral = "torsion"
    elif rec.status == "refuted":
        integral = "not_attempted"
    elif rec.status == "unknown":
        integral = "unknown"
    else:
        modk = _module_on_frame(rlat, lv.coin, frame, p, precision, n)
        lift = gen_perm_lift(modk, rec, budget=budget)
        integral = lift.status
        if lift.status == "certified" and lift.certificate is not None:
            characters_plain = all(b.is_plain() for b in lift.certificate.blocks)
    outcome = LevelOutcome(
        level=n,
        quotient_order=mod1.qtbl.order,
        dim=mod1.dim,
        p_torsion=tors,
        modp_status=rec.status,
        multiplicities=mults,
        integral_status=integral,
        characters_plain=characters_plain,
        trials=rec.trials,
    )
    return outcome, mod1


def tower_harness(qr: QRReport, precision: int = DEFAULT_PRECISION,
                  max_level: int | None = None, budget: int = DEFAULT_CERT_BUDGET,
                  require_qr: bool = True) -> HarnessReport:
    """Per level: recognize the mod-p module, then certify integrally.

    The two sides must agree wherever both reach a verdict: integral
    generalized-permutation structure exists iff the mod-p module is a
    permutation module.  A certified side against a refuted side is a
    violation.  The equivalence is a theorem about quasirational input,
    so p-torsion in a level is a hypothesis failure: with require_qr the
    harness refuses to start (InputError naming the witness level),
    otherwise the level is recorded as a torsion obstruction and the
    comparison is vacuous there.  Transition maps between consecutive
    levels are built and verified as equivariant surjections, tying the
    tower together.

    The chain, lattice and level coinvariants come from the QR report.
    The mod-p module is the reduction of the Z/p^precision one, so both
    are built on one level frame, the latter only where the former was
    certified a permutation module.

    Everything a level builds (frame, mod-p module, recognition, lift)
    depends on D_n alone, so it is built once per distinct D_n.  qr_check
    hands a level whose D_n repeats the one before the same Coinvariants
    object; such a level repeats the previous outcome with only `level`
    changed and counts towards violations and unknown_levels like any
    other.  The reuse is exact: the random seeds of perm_recognize_modp
    and gen_perm_lift do not involve the level number.  Transitions are
    still checked between every pair of consecutive levels.
    """
    p, rlat = qr.prime, qr.rlat
    levels = qr.levels[:max_level]
    w = qr.witness_level
    if require_qr and w is not None and w <= len(levels):
        raise InputError(
            f"not quasirational at p={p}: level {w} coinvariants have "
            f"{p}-torsion {qr.levels[w - 1].p_torsion}, the equivalence hypothesis fails"
        )
    outcomes = []
    mods = []
    violations = 0
    unknown_levels = 0
    for i, lv in enumerate(levels):
        if i and lv.coin is levels[i - 1].coin:
            outcome, mod1 = replace(outcomes[-1], level=lv.level), mods[-1]
        else:
            outcome, mod1 = _level_outcome(rlat, lv, p, precision, budget)
        statuses = {outcome.modp_status, outcome.integral_status}
        if statuses == {"refuted", "certified"}:
            violations += 1
        if "unknown" in statuses:
            unknown_levels += 1
        outcomes.append(outcome)
        mods.append(mod1)
    transitions = 0
    for lo_mod, hi_mod in zip(mods, mods[1:]):
        transition_map(hi_mod, lo_mod)
        transitions += 1
    return HarnessReport(
        prime=p,
        precision=precision,
        levels=tuple(outcomes),
        violations=violations,
        unknown_levels=unknown_levels,
        transitions_checked=transitions,
    )


def equivalence_harness(pres: Presentation, tbl: FiniteGroupTable, p: int,
                        precision: int = DEFAULT_PRECISION, max_level: int | None = None,
                        budget: int = DEFAULT_CERT_BUDGET,
                        require_qr: bool = True) -> HarnessReport:
    """tower_harness on the QR report of a freshly built relation lattice."""
    return tower_harness(qr_check_full(pres, tbl, p), precision, max_level, budget, require_qr)
