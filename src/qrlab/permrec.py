"""Permutation-module recognition mod p and generalized-permutation lifts.

Level modules.  Each level of the tower (relmod.Coinvariants) is tensored
with Z/p^k and carried as a module for the quotient group Q = G/D_level.
The module is its letter matrices, from one unit-pivot elimination of the
level's relation rows over Z/p^k (Coinvariants.over): the F_p pivot
columns of the lattice are eliminated and the others are its coordinates.
The matrix of any other element of Q is built on demand along a word
for it.  A certificate of three checks (_certify_letters) proves that the
letters define an action of Q; it agrees with the G-action on the lattice
because the letters are that action on the generators.

Recognition over F_p starts from the Brauer quotients: for a p-group Q the
Brauer quotient of a permutation module F_p[X] at K has dimension |X^K|,
and Burnside's table of marks is triangular and invertible, so the
dimensions of the Brauer quotients of the level module fix the one
multiplicity vector a permutation module could have.  A step of that
back-substitution that is not integral or not nonnegative refutes the
module outright.  Otherwise the one candidate is attacked constructively
through Frobenius reciprocity: a hom from the induced block Ind_H^Q xi is
fixed by the image w of the coset H, any w with w * A[h] = xi(h) * w on H,
and sends the coset rH to w * A[r].  So the hom space per block is one
left kernel (LevelModule.hom_basis; with xi = 1 it is M^H, which the marks
test reads too), small enough to enumerate completely in the cases that
matter, making a failed search a proof rather than a shrug.  Over Z/p^k
the same kernel is taken with sign-twisted blocks (p = 2; twists are
invisible mod 2), lifted one p-adic digit at a time.  Nothing is reported
certified or refuted without either an independently verified witness
matrix or an exhausted finite search; an unknown result names what stopped
it (a budget-limited search or the assignment cap) in its `reason`.

Conventions.  Module elements are row vectors; q acts by y -> y * A[q];
matrices compose antihomomorphically, A[q1 q2] = A[q2] * A[q1] (q1 q2
meaning qtbl.mult[q1][q2]).  Every matrix of a level module is kept as
its rows, each packed into one int over Z/p^k in the layout
LevelModule.layout (intlinalg.FpRows, the same code at every k), and
multiplied with FpRows.mul; no integer product is taken here.
Permutation blocks are left cosets of H in Q with g * (cH) = (gc)H, and
sign characters twist block entries by xi(rep(c')^-1 g rep(c)).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from itertools import combinations_with_replacement, groupby, product

from .errors import InputError, PropertyViolation
from .enumeration import (
    FiniteGroupTable,
    Subgroup,
    all_subgroups,
    left_cosets,
    quotient_table,
    subgroup_conjugacy_classes,
)
from .groupring import _generators_for, require_p_group
from .intlinalg import (
    FpRows,
    ModpSpan,
    fp_rows,
    is_invertible_modp,
    modp_left_kernel,
    modp_rank,
)
from .presentation import Presentation, Word
from .relmod import (
    Coinvariants,
    LevelResult,
    Packed,
    QRReport,
    RelationLattice,
    qr_check_full,
)

DEFAULT_PRECISION = 20
DEFAULT_CERT_BUDGET = 100_000
DEFAULT_ASSIGNMENT_CAP = 64
EXHAUSTIVE_CAP = 4096


def _identity(lay: FpRows) -> Packed:
    return tuple(map(lay.unit, range(lay.width)))


# ---------------------------------------------------------------------------
# level modules

def _word_matrix(qtbl: FiniteGroupTable, powers, word: Word, lay: FpRows) -> Packed:
    """Matrix of a word, A[w l] = A[l] * A[w], one product per run x^e.

    powers[x][i] = A[x]^i for i < |x|, x a generator image.  A run of one
    generator, image x, with exponent sum e acts as A[x]^(e mod |x|), so a
    run of x^-1 letters reads a power |x| - e as well.
    """
    out = _identity(lay)
    for g, run in groupby(word, key=lambda letter: letter[0]):
        power = powers[qtbl.gen_images[g]]
        out = lay.mul(power[sum(s for _, s in run) % len(power)], out)
    return out


@dataclass(frozen=True)
class LevelModule:
    """The level `coin` of the tower as a Z/p^k module for Q = G/D_level.

    `surviving` lists the lattice columns that are its coordinates, those
    off the F_p pivots of the level's relation rows, and `down` is the
    quotient map from the lattice, one row per lattice column
    (Coinvariants.over).  Every matrix of the module is its rows packed in
    `layout`, fp_rows(dim, p^k), at every k.  `letters[x]` is the matrix of
    x, for every generator image x of Q and its inverse; they carry the
    whole module.  act(q) builds A[q] for any q
    along the canonical word qtbl.element_words[q], one packed product per
    letter, and keeps every element it passes in `built`, so each element
    of Q costs at most one product.  hom_basis keeps its kernels in
    `homs`.  module_from_coinvariants certifies that the letters define an
    action of Q (_certify_letters); a module made by hand is taken as given.
    """

    level: int
    p: int
    k: int
    qtbl: FiniteGroupTable
    surviving: tuple[int, ...]
    letters: dict[int, Packed]
    coin: Coinvariants
    down: Packed = field(default=(), repr=False, compare=False)
    built: dict[int, Packed] = field(default_factory=dict, init=False, repr=False,
                                     compare=False)
    homs: dict[tuple, list[list[int]]] = field(default_factory=dict, init=False,
                                               repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.surviving)

    @property
    def ring(self) -> int:
        return self.p ** self.k

    @property
    def layout(self) -> FpRows:
        return fp_rows(self.dim, self.ring)

    def act(self, q: int) -> Packed:
        """A[q] as packed rows, built on first use and memoized."""
        built = self.built
        if q not in built:
            lay = self.layout
            x = 0
            a = built.setdefault(0, _identity(lay))
            for g, s in self.qtbl.element_words[q]:
                step = self.qtbl.letter(g, s)
                x = self.qtbl.mult[x][step]
                if x not in built:
                    built[x] = lay.mul(self.letters[step], a)
                a = built[x]
        return built[q]

    def hom_basis(self, sub: Subgroup, xi: tuple[int, ...]) -> list[list[int]]:
        """Hom(Ind_H^Q xi, M) by Frobenius reciprocity, memoized per (H, xi).

        A hom is fixed by the image w of the coset H, any w with
        w * A[h] = xi(h) * w for h in H, and sends rH to w * A[r].  On a
        short-word generating set of H (_generators_for) that is one system:
        w times the side-by-side stack of the A[h] - xi(h) I, packed, is 0.
        Its solutions come as _liftable_kernel gives them (at k = 1, as
        modp_left_kernel's reduced echelon basis of the packed stack).  xi
        is aligned with sub.members; all 1 gives M^H.
        """
        key = (sub.members, xi)
        if key not in self.homs:
            lay, dim = self.layout, self.dim
            sign = dict(zip(sub.members, xi))
            gens = _generators_for(self.qtbl, sub.members)
            stacked = [sum(lay.sub(self.act(h)[i], lay.unit(i) * (sign[h] % self.ring))
                           << (b * dim * lay.bits) for b, h in enumerate(gens))
                       for i in range(dim)]
            width = len(gens) * dim
            if self.k == 1:
                self.homs[key] = modp_left_kernel(stacked, self.p, width=width)
            else:
                wide = fp_rows(width, self.ring)
                self.homs[key] = _liftable_kernel(list(map(wide.unpack, stacked)),
                                                  self.p, self.k)
        return self.homs[key]


def _certify_letters(qtbl: FiniteGroupTable, gen_mats, relators, kernel_words,
                     dim: int, ring: int) -> dict[int, Packed]:
    """The letter matrices of an action of Q, each failure a PropertyViolation.

    gen_mats[x] is the matrix of the generator image x of Q, as rows packed
    in fp_rows(dim, ring).  The letters are A[x] and A[x^-1] = A[x]^(|x|-1),
    |x| the order of x in Q, and:

      (a) A[x]^|x| = I for every x.  So A[x] is invertible with inverse
          A[x^-1], and the letters define a homomorphism from the free
          group F on the presentation's generators into GL(dim, Z/ring).
      (b) Every relator of G acts as I: the homomorphism factors through
          G = F/<<relators>>.
      (c) Every word in kernel_words acts as I.  These are the G-words of
          the generators of D_level, so the homomorphism kills D_level and
          factors through Q = G/D_level.

    Together they make q -> A[q] a well-defined action of Q, computed by
    any word for q; nothing else is needed, because D_level is generated
    by its generators as a subgroup and the homomorphism is one of groups.
    (a) walks the powers A[x]^i, i < |x|, and (b) and (c) reuse them: each
    run x^e of a word costs one product (_word_matrix).
    """
    lay = fp_rows(dim, ring)
    ident = _identity(lay)
    letters = dict(gen_mats)
    powers = {}
    for x, a in sorted(gen_mats.items()):
        walk, y = [ident], x
        while y:  # y = x^(i+1) while walk[-1] = A[x]^i
            walk.append(lay.mul(a, walk[-1]))
            y = qtbl.mult[y][x]
        if lay.mul(a, walk[-1]) != ident:
            raise PropertyViolation(
                f"generator image q={x}: its matrix to the power of its order "
                f"in the quotient is not the identity"
            )
        if letters.setdefault(qtbl.inv[x], walk[-1]) != walk[-1]:
            raise PropertyViolation(f"the matrices of q={x} and of its inverse are not inverse")
        powers[x] = walk
    for rel in relators:
        if _word_matrix(qtbl, powers, rel, lay) != ident:
            raise PropertyViolation("a relator acts nontrivially on the coinvariants")
    for w in kernel_words:
        if _word_matrix(qtbl, powers, w, lay) != ident:
            raise PropertyViolation(
                "a generator of the dimension subgroup acts nontrivially: "
                "the letter matrices do not factor through the quotient"
            )
    return letters


def _level_module(rlat: RelationLattice, coin: Coinvariants, sub: Subgroup,
                  qtbl: FiniteGroupTable, p: int, k: int, level: int) -> LevelModule:
    if k < 1:
        raise InputError(f"precision must be >= 1, got {k}")
    coords, down, level_letters = coin.over(p, k)
    in_q = dict(zip(rlat.tbl.gen_images, qtbl.gen_images))
    gen_mats: dict[int, Packed] = {}
    for x in sorted(in_q):
        a = level_letters[x]
        if gen_mats.setdefault(in_q[x], a) != a:
            raise PropertyViolation(
                f"action not constant on the coset of q={in_q[x]}: the kernel acts"
            )
    kernel_words = [rlat.tbl.element_words[d] for d in sub.generators]
    letters = _certify_letters(qtbl, gen_mats, rlat.pres.relators, kernel_words,
                               len(coords), p ** k)
    return LevelModule(level=level, p=p, k=k, qtbl=qtbl, surviving=coords,
                       letters=letters, coin=coin, down=down)


def module_from_coinvariants(rlat: RelationLattice, coin: Coinvariants, sub: Subgroup,
                             p: int, k: int, level: int = 0) -> LevelModule:
    """Tensor the level `coin` of the subgroup sub with Z/p^k.

    Over Z/p^k with k > 1 a p-torsion summand stays nonfree, which no
    generalized permutation module has; that is reported as
    TorsionObstruction.  Over F_p (k = 1) the p-torsion survives alongside
    the free part, one coordinate per cyclic factor.

    The level's letters of the generator images of G come from one
    unit-pivot elimination over Z/p^k (Coinvariants.over); images alike in
    Q must act alike.  _certify_letters proves that they define an action
    of Q, which is the G-action on the generators, hence on all of G.
    """
    return _level_module(rlat, coin, sub, quotient_table(rlat.tbl, sub)[0], p, k, level)


def transition_map(hi: LevelModule, lo: LevelModule) -> Packed:
    """The natural surjection from the level-(n+1) module onto the level-n one.

    Both are quotients of the lattice, and hi's coordinates are lattice
    columns, so the map is lo.down on hi's coordinates: lattice column j
    goes to lo.down[j].  Rows packed in lo.layout.  It exists when hi's
    subgroup lies in lo's; any other pair is an InputError.  A module and
    itself give the identity with no check.  Otherwise verified:
    equivariant for the image of every generator of G, and surjective mod
    p.  Equivariance on the generators covers all of G: both sides are
    actions, so the set of g on which it holds is closed under products,
    and a finite group is generated by its generators as a monoid.  Both
    failures are hard errors; the map exists whenever the chain is really
    descending.
    """
    lay = lo.layout
    if hi is lo:
        return _identity(lay)
    if (hi.p, hi.k) != (lo.p, lo.k):
        raise InputError("transition between modules over different rings")
    if not set(hi.coin.sub.members) <= set(lo.coin.sub.members):
        raise InputError("transition from a level whose subgroup is not inside the target's")
    T = tuple(lo.down[j] for j in hi.surviving)
    for x_hi, x_lo in sorted(set(zip(hi.qtbl.gen_images, lo.qtbl.gen_images))):
        if lay.mul(hi.letters[x_hi], T) != lay.mul(T, lo.letters[x_lo]):
            raise PropertyViolation("transition between chain levels is not equivariant")
    if modp_rank(list(map(lay.unpack, T)), hi.p) != lo.dim:
        raise PropertyViolation("transition between chain levels is not surjective")
    return T


# ---------------------------------------------------------------------------
# marks

@dataclass(frozen=True)
class MarksReport:
    """The Brauer-quotient test and the one multiplicity vector it allows.

    classes[i] is the representative K_i of subgroup class i, classes sorted
    by order, and maximal[i] lists its subgroups of index p.  For the module M:

      fixdims[i]     = dim M^K_i
      brauer_dims[i] = dim M(K_i) = dim M^K_i - dim sum_{L < K_i} Tr_L^K_i(M^L)

    For a p-group Q the Brauer quotient of F_p[X] at K has dimension |X^K|
    (Broue, On Scott modules and p-permutation modules, 1985), so a
    permutation module with multiplicities m satisfies marks * m =
    brauer_dims, where marks[i][j] = |(Q/H_j)^K_i| is Burnside's table of
    marks.  K fixes gH iff K <= gHg^-1; the g giving one conjugate of H_j
    form a coset of N(H_j), of order |Q|/|C_j| for C_j the class of H_j,
    and |H_j| of them give each coset gH, so marks[i][j] is the class count
    |Q| / (|H_j| |C_j|) * #{H in C_j : K_i <= H}.  It is 0 for j < i, and
    marks[i][i] = |N(K_i) : K_i|: the table is triangular with a nonzero
    diagonal and m is unique (_solve_marks raises otherwise).
    candidates is (m,) when back-substitution gives a nonnegative integral
    vector, and () with a witness otherwise, which refutes M.
    """

    classes: tuple[Subgroup, ...]
    maximal: tuple[tuple[Subgroup, ...], ...]
    fixdims: tuple[int, ...]
    brauer_dims: tuple[int, ...]
    candidates: tuple[tuple[int, ...], ...]
    witness: str | None


def _fixed(mod: LevelModule, sub: Subgroup) -> list[list[int]]:
    """A basis of M^H, the hom space from the plain block Ind_H^Q 1."""
    return mod.hom_basis(sub, (1,) * sub.order)


def _brauer_dim(mod: LevelModule, K: Subgroup, maximal) -> int:
    """dim M(K) = dim M^K - dim sum_L Tr_L^K(M^L), L over the maximal
    subgroups of K.  Every proper subgroup lies in a maximal one and the
    transfers compose, so the maximal ones give the whole sum.  Each L is
    normal of index p, so Tr_L^K = sum_{i<p} A[g^i] for any g in K - L.
    """
    lay = mod.layout
    span = ModpSpan(mod.dim, mod.p)
    for L in maximal:
        in_l = set(L.members)
        g = next(x for x in K.members if x not in in_l)
        powers = [0]
        for _ in range(mod.p - 1):
            powers.append(mod.qtbl.mult[powers[-1]][g])
        tr = mod.act(powers[0])
        for t in powers[1:]:
            tr = [lay.add(a, b) for a, b in zip(tr, mod.act(t))]
        for img in lay.mul([lay.pack(v) for v in _fixed(mod, L)], tr):
            span.add(img)
    return len(_fixed(mod, K)) - span.dim


def _solve_marks(marks, brauer, classes) -> tuple[tuple[int, ...] | None, str | None]:
    """The m with marks * m = brauer by back-substitution from the top
    class, or (None, the first step that is not integral or not >= 0)."""
    t = len(brauer)
    m = [0] * t
    for i in range(t - 1, -1, -1):
        row = marks[i]
        if not row[i] or any(row[:i]):
            raise AssertionError("table of marks is not triangular in the class order")
        rest = brauer[i] - sum(row[j] * m[j] for j in range(i + 1, t))
        q, r = divmod(rest, row[i])
        order = classes[i].order
        if r:
            return None, (
                f"Brauer quotients force a non-integral multiplicity {rest}/{row[i]} "
                f"for the subgroup class {i} (order {order})"
            )
        if q < 0:
            return None, (
                f"Brauer quotients force a negative multiplicity {q} "
                f"for the subgroup class {i} (order {order})"
            )
        m[i] = q
    return tuple(m), None


def marks_multiplicities(mod: LevelModule) -> MarksReport:
    """The only multiplicity vector a permutation module could have.

    dim M(K) is computed for every subgroup class K and the triangular
    marks system is solved exactly (see MarksReport).  An empty candidate
    list is a proof that M is no permutation module; the one candidate is
    only necessary and still needs the constructive certificate.  The
    Brauer-quotient count holds for p-groups only, so another |Q| raises
    InputError, as does a module over Z/p^k with k > 1: the quotients are
    read over F_p, on the module's packed rows.
    """
    if mod.k != 1:
        raise InputError("the Brauer quotient test runs on the mod-p module (k = 1)")
    require_p_group(mod.qtbl.order, mod.p,
                    f"the Brauer quotient test needs a {mod.p}-group, |Q| = {mod.qtbl.order}")
    subs = all_subgroups(mod.qtbl)
    conj = subgroup_conjugacy_classes(mod.qtbl, subs)
    classes = [cls[0] for cls in conj]
    conj_sets = [[set(H.members) for H in cls] for cls in conj]
    maximal = [tuple(L for L in subs if L.order * mod.p == K.order
                     and sets[0].issuperset(L.generators))
               for K, sets in zip(classes, conj_sets)]
    brauer = [_brauer_dim(mod, K, below) for K, below in zip(classes, maximal)]
    marks = [tuple(mod.qtbl.order // (cls[0].order * len(cls))
                   * sum(h.issuperset(K.generators) for h in sets)
                   for cls, sets in zip(conj, conj_sets)) for K in classes]
    m, witness = _solve_marks(marks, brauer, classes)
    return MarksReport(
        classes=tuple(classes),
        maximal=tuple(maximal),
        fixdims=tuple(len(_fixed(mod, K)) for K in classes),
        brauer_dims=tuple(brauer),
        candidates=() if m is None else (m,),
        witness=witness,
    )


# ---------------------------------------------------------------------------
# monomial blocks and the digit-by-digit kernel

@dataclass(frozen=True)
class Block:
    """One induced block Ind_H^Q of a (generalized) permutation module:
    left cosets of H, optionally twisted by a sign character on H."""

    class_index: int
    sub: Subgroup
    xi: tuple[int, ...]  # aligned with sub.members; all 1 = plain block

    def is_plain(self) -> bool:
        return all(v == 1 for v in self.xi)


def block_matrix(qtbl: FiniteGroupTable, block: Block, q: int, ring: int):
    """Matrix of q on the block over Z/ring (signed permutation matrix):
    q * rep(c) = rep(c') * h with h in H puts xi(h) at (c, c')."""
    coset_of, reps = left_cosets(qtbl, block.sub)
    sign = dict(zip(block.sub.members, block.xi))
    out = [[0] * len(reps) for _ in reps]
    for c, r in enumerate(reps):
        img = qtbl.mult[q][r]
        c2 = coset_of[img]
        h = qtbl.mult[qtbl.inv[reps[c2]]][img]
        if h not in sign:
            raise AssertionError("coset factorization left the subgroup")
        out[c][c2] = sign[h] % ring
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


def _liftable_kernel(a: list[list[int]], p: int, k: int) -> list[list[int]]:
    """Rows w with w * a = 0 over Z/p^k whose mod-p reductions are
    independent and span the reductions of every solution, so exhausting
    their F_p combinations is a complete search.

    One kernel per p-adic digit.  The lifts w_i solve w_i * a = 0 mod q,
    with defects e_i = (w_i * a) / q.  Every solution mod q is
    sum c_i w_i + p t with t a solution mod q/p, and the defects of those
    t span M: the rows of abar and the defects of every earlier digit's
    lifts.  A basis of M is kept with a realizer t_m for each row m (e_j
    for row j of abar), times p per digit.  So sum c_i w_i + p sum b_m t_m
    solves mod q*p exactly when c * E + b * M = 0 mod p: the left kernel
    of E stacked on M, c coordinates first.  In its reduced echelon form
    the rows with c != 0 come first, with independent c-parts, and give
    the next lifts.
    """
    d = len(a)
    if d == 0:
        return []
    n = len(a[0])
    lifts = modp_left_kernel(a, p, width=n)
    m_span = ModpSpan(n, p)
    fixes = [(row, [int(i == j) for i in range(d)]) for j, row in enumerate(a) if m_span.add(row)]
    q = p
    for _ in range(1, k):
        if not lifts:
            break
        defects = []
        for w in lifts:
            wa = [sum(w[i] * a[i][j] for i in range(d)) for j in range(n)]
            if any(x % q for x in wa):
                raise AssertionError("lift invariant broke")
            defects.append([x // q for x in wa])
        r = len(lifts)
        new_lifts = []
        for row in modp_left_kernel(defects + [m for m, _ in fixes], p, width=n):
            if not any(row[:r]):
                break
            new_lifts.append([sum(row[i] * lifts[i][t] for i in range(r))
                              + p * sum(b * f[t] for b, (_, f) in zip(row[r:], fixes))
                              for t in range(d)])
        fixes = [(m, [p * x for x in f]) for m, f in fixes]
        fixes += [(e, w) for e, w in zip(defects, lifts) if m_span.add(e)]
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
    """phi is invertible mod p and intertwines the blocks with the module,
    A'[q] * phi = phi * A[q] on every generator image q, on packed rows."""
    if len(phi) != mod.dim or not is_invertible_modp(phi, mod.p):
        return False
    lay = mod.layout
    packed = list(map(lay.pack, phi))
    for q in set(mod.qtbl.gen_images):
        ap = map(lay.pack, monomial_matrix(mod.qtbl, blocks, q, mod.ring))
        if lay.mul(ap, packed) != lay.mul(packed, mod.letters[q]):
            return False
    return True


def _search_hom_spaces(mod, blocks, spaces, budget, trials, rng):
    """Find hom images w making the assembled matrix invertible mod p.

    spaces[b] = mod.hom_basis of block b.  By Frobenius reciprocity a hom
    from block b is one w in that space, and it sends the coset of rep r
    to w * A[r]; those rows, coset by coset, make the block's rows of the
    assembled matrix.  Free blocks (trivial subgroup) are pinned first:
    any w with nonzero norm image generates a split free summand (the
    group ring is self-injective with simple socle), so rows with
    independent images under the full norm can be fixed without losing
    generality, and Krull-Schmidt reduces the candidate to the remaining
    blocks.  When the joint choice space of those is small it is
    enumerated completely and exhaustion is definitive; otherwise a
    structured pass and random coefficient draws run under the budget.
    Returns (phi_or_None, trials, definitive).
    """
    ring = mod.ring
    p = mod.p
    d = mod.dim
    lay = mod.layout
    free_idx = [i for i, b in enumerate(blocks) if b.sub.order == 1]
    rest_idx = [i for i, b in enumerate(blocks) if b.sub.order > 1]
    if any(len(spaces[i]) == 0 for i in rest_idx):
        return None, trials, True
    rows: dict[int, int] = {}  # block -> its w, packed
    if free_idx:
        nu = [0] * d
        for q in range(mod.qtbl.order):
            nu = list(map(lay.add, nu, mod.act(q)))
        span = ModpSpan(d, p)
        chosen = []
        for y in range(d):
            if span.add(lay.unpack(nu[y])):
                chosen.append(y)
                if len(chosen) == len(free_idx):
                    break
        if len(chosen) < len(free_idx):
            # the full norm has smaller rank than the free multiplicity asks
            return None, trials, True
        rows.update(zip(free_idx, map(lay.unit, chosen)))
    reps = [left_cosets(mod.qtbl, b.sub)[1] for b in blocks]

    def assemble(combo):
        """phi with w = sum c * basis row on each non-free block, c in combo."""
        for i, coeffs in zip(rest_idx, combo):
            rows[i] = lay.pack([sum(c * vec[j] for c, vec in zip(coeffs, spaces[i]))
                                for j in range(d)])
        return [lay.unpack(lay.mul([rows[bi]], mod.act(r))[0])
                for bi, block_reps in enumerate(reps) for r in block_reps]

    total = 1
    for i in rest_idx:
        total *= p ** len(spaces[i]) - 1
        if total > EXHAUSTIVE_CAP:
            break
    if total <= EXHAUSTIVE_CAP and trials + total <= budget:
        nonzero_coeffs = [
            [c for c in product(range(p), repeat=len(spaces[i])) if any(c)]
            for i in rest_idx
        ]
        for combo in product(*nonzero_coeffs):
            trials += 1
            phi = assemble(combo)
            if is_invertible_modp(phi, p):
                return phi, trials, False
        return None, trials, True
    # structured pass, then random draws
    attempts = min(64, max(1, budget - trials))
    for attempt in range(attempts):
        if trials >= budget:
            break
        trials += 1
        combo = []
        for i in rest_idx:
            if attempt == 0:
                coeffs = [1] + [0] * (len(spaces[i]) - 1)
            else:
                coeffs = [rng.randrange(ring) for _ in spaces[i]]
                if not any(c % p for c in coeffs):
                    coeffs[0] = 1
            combo.append(coeffs)
        phi = assemble(combo)
        if is_invertible_modp(phi, p):
            return phi, trials, False
    return None, trials, False


def _certify_blocks(mod: LevelModule, blocks, budget, trials, rng):
    """Search the hom spaces from the blocks for an isomorphism onto mod.

    By Frobenius reciprocity the hom space of a block Ind_H^Q xi is
    mod.hom_basis(H, xi), the w with w * A[h] = xi(h) * w on H: the mod-p
    kernel at k = 1, shared with the marks test, and the digit-by-digit
    lift over Z/p^k.  A found matrix is verified independently.  Returns
    (Certificate or None, trials, definitive) as _search_hom_spaces.
    """
    spaces = [mod.hom_basis(b.sub, b.xi) for b in blocks]
    phi, trials, definitive = _search_hom_spaces(mod, blocks, spaces, budget, trials, rng)
    if phi is None:
        return None, trials, definitive
    if not _verify_certificate(mod, blocks, phi):
        raise PropertyViolation("assembled certificate failed independent verification")
    return Certificate(mod.p, mod.k, blocks, tuple(map(tuple, phi))), trials, definitive


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


def perm_recognize_modp(mod: LevelModule, budget: int = DEFAULT_CERT_BUDGET) -> RecognitionResult:
    """Decide whether the mod-p module is a permutation module for Q.

    The Brauer quotients either refute outright or leave one multiplicity
    vector (marks_multiplicities).  Its blocks are then searched for
    constructively; a failed search that enumerated the hom spaces
    completely is again a refutation.  Only a budget-limited partial search
    reports unknown, and `reason` says so.
    """
    if mod.k != 1:
        raise InputError("recognition runs on the mod-p module (k = 1)")
    marks = marks_multiplicities(mod)
    if not marks.candidates:
        return RecognitionResult("refuted", marks, None, None, 0, marks.witness)
    (cand,) = marks.candidates
    if mod.dim == 0:
        return RecognitionResult("certified", marks, cand, Certificate(mod.p, 1, (), ()), 0)
    rng = random.Random(
        0x5EED ^ (mod.p * 0x9E3779B1) ^ (mod.dim << 16) ^ (mod.qtbl.order << 4)
    )
    blocks = tuple(
        Block(j, marks.classes[j], (1,) * marks.classes[j].order)
        for j, m in enumerate(cand) for _ in range(m)
    )
    cert, trials, definitive = _certify_blocks(mod, blocks, budget, 0, rng)
    if cert is not None:
        return RecognitionResult("certified", marks, cand, cert, trials)
    if definitive:
        return RecognitionResult(
            "refuted", marks, None, None, trials,
            "the candidate's hom space was searched completely",
        )
    return RecognitionResult("unknown", marks, None, None, trials, reason=_SAMPLED_SEARCH)


# ---------------------------------------------------------------------------
# sign characters and the integral certificate

def sign_characters(sub: Subgroup, subgroups) -> list[tuple[int, ...]]:
    """All homomorphisms H -> {1,-1}, trivial first, then by value tuple.

    A nontrivial one is fixed by its kernel L, of index 2, and every
    index-2 L is normal with H/L = {1,-1}: so they are the xi_L, 1 on L and
    -1 off it, for L over the index-2 subgroups of H in `subgroups`.  Those
    of a p-group are among its maximal subgroups (MarksReport.maximal), and
    for odd p there are none.
    """
    inside = set(sub.members)
    kernels = [set(L.members) for L in subgroups
               if 2 * L.order == sub.order and inside.issuperset(L.members)]
    return [(1,) * sub.order] + sorted(tuple(1 if x in kernel else -1 for x in sub.members)
                                       for kernel in kernels)


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
    assignment the hom space of each block Ind_H^Q xi is solved directly
    over Z/p^k by Frobenius reciprocity: the w with w * A[h] = xi(h) * w
    on H, one kernel lifted digit by digit (LevelModule.hom_basis, kept
    across assignments); invertibility is then a finite search over mod-p
    reductions.  If every assignment's search was exhaustive and failed,
    the module provably has no generalized permutation form and the
    result is refuted.
    """
    if modp.status != "certified" or modp.certificate is None:
        return LiftResult("not_attempted", None, 0)
    if mod.k == 1:
        return LiftResult("certified", modp.certificate, 1)
    p, k = mod.p, mod.k
    base_blocks = modp.certificate.blocks
    if mod.dim == 0:
        return LiftResult("certified", Certificate(p, k, (), ()), 1)
    per_class: dict[int, list[int]] = {}
    for i, b in enumerate(base_blocks):
        per_class.setdefault(b.class_index, []).append(i)
    char_lists = {b.class_index: sign_characters(b.sub, modp.marks.maximal[b.class_index])
                  for b in base_blocks}
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
        cert, trials, definitive = _certify_blocks(mod, tuple(blocks), budget, trials, rng)
        if cert is not None:
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


def _level_outcome(rlat: RelationLattice, lv: LevelResult, p: int, precision: int,
                   budget: int) -> tuple[LevelOutcome, LevelModule]:
    """Recognize one level's mod-p module and, if certified, lift it."""
    n, tors, sub = lv.level, lv.p_torsion, lv.subgroup
    qtbl = quotient_table(rlat.tbl, sub)[0]
    mod1 = _level_module(rlat, lv.coin, sub, qtbl, p, 1, n)
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
        modk = _level_module(rlat, lv.coin, sub, qtbl, p, precision, n)
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

    The chain, lattice and level coinvariants come from the QR report;
    max_level, when given, keeps its first levels and must be >= 1.
    The mod-p module is the reduction of the Z/p^precision one, so both
    are built on one quotient table, the latter only where the former was
    certified a permutation module.

    Everything a level builds (quotient, mod-p module, recognition, lift)
    depends on D_n alone, and qr_check hands a level whose D_n repeats the
    one before the same Coinvariants object.  Such a level repeats the
    previous outcome with only `level` changed, exactly (the random seeds
    do not involve the level number), and counts towards violations and
    unknown_levels like any other.  It shares the previous module too, so
    its transition is the identity with no product (transition_map);
    every pair of consecutive levels still counts in transitions_checked.
    """
    if max_level is not None and max_level < 1:
        raise InputError(f"max_level must be >= 1, got {max_level}")
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
