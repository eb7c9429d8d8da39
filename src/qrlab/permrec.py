"""Permutation-module recognition mod p and generalized-permutation lifts.

Level modules.  Each level of the tower (relmod.Coinvariants) is
tensored with Z/p^k and carried as a module for the quotient group
Q = G/D_level by one builder at every k, module_from_coinvariants.  The
module is its letter matrices, read off the pivot rows of the level's
relation rows over Z/p^k (Coinvariants.over: the F_p span the level
kept, and over Z/p^k, k > 1, one unit-pivot elimination of the rows that
entered it): the F_p pivot columns of the lattice are eliminated and
the others are its coordinates.  The matrix of any other element of Q
is built on demand along a word for it.  A certificate of three checks (_certify_letters)
proves that the letters define an action of Q; it agrees with the
G-action on the lattice because the letters are that action on the
generators.  Its powers of a letter are read off repeated squares, so a
generator of order |x| costs O(log |x|) products.

Recognition over F_p starts from the Brauer quotients: for a p-group Q the
Brauer quotient of a permutation module F_p[X] at K has dimension |X^K|,
and Burnside's table of marks is triangular and invertible, so the
dimensions of the Brauer quotients of the level module fix the one
multiplicity vector a permutation module could have.  A step of that
back-substitution that is not integral or not nonnegative refutes the
module outright, and no class below that step is read: the
back-substitution runs from the top class down and builds each Brauer
quotient only when it reaches its class.  Otherwise the one candidate is
decided constructively through Frobenius reciprocity: a hom from the
induced block Ind_H^Q xi is fixed by the image w of the coset H, any w
with w * A[h] = xi(h) * w on H, and sends the coset rH to w * A[r].  So
the hom space per block is one left kernel (LevelModule.hom_basis; with
xi = 1 it is M^H, which the marks test reads too).  The socle criterion
(_socle_certificate) picks the w: such a hom is an isomorphism iff the
images w * Tr_H of the blocks' orbit sums are independent mod p, and
picking them greedily class by class, in increasing order, succeeds
exactly when the module is the candidate.  Over Z/p^k the same kernels
are taken with sign-twisted blocks (p = 2; twists are invisible mod 2),
lifted one p-adic digit at a time until the lifts solve over Z, after
which every digit would return them unchanged (_liftable_kernel), and the
same greedy pass picks the characters, trivial first.  The harness takes
k = 1 + v_p(|G|), where the mod-p reductions of those kernels are exactly
those of the Z_p hom spaces, so its verdicts hold over Z_p
(tower_harness).  Every module is decided, with no search and no budget:
certified by an independently verified matrix, or refuted by a marks step
or by a class whose traces fall short.

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

from dataclasses import dataclass, field, replace
from itertools import groupby

from .errors import InputError, PropertyViolation
from .enumeration import (
    FiniteGroupTable,
    Subgroup,
    all_subgroups,
    greedy_generators,
    left_cosets,
    prime_power,
    subgroup_conjugacy_classes,
)
from .groupring import require_p_group
from .intlinalg import (
    FpRows,
    ModpSpan,
    fp_rows,
    modp_left_kernel,
    modp_rank,
)
from .presentation import Presentation, Word
from .relmod import (
    Coinvariants,
    LevelResult,
    Packed,
    QRReport,
    qr_check_full,
)


def _identity(lay: FpRows) -> Packed:
    return tuple(map(lay.unit, range(lay.width)))


# ---------------------------------------------------------------------------
# level modules

def _times_power(lay: FpRows, squares, e: int, out: Packed | None = None) -> Packed | None:
    """A^e * out, where squares[i] = A^(2^i) for every 2^i <= e: one
    product per binary digit 1 of e, powers of A commuting.  out=None
    stands for I and spares the first product; then e = 0 gives None."""
    for i in range(e.bit_length()):
        if e >> i & 1:
            out = squares[i] if out is None else lay.mul(squares[i], out)
    return out


def _word_matrix(qtbl: FiniteGroupTable, squares, word: Word, lay: FpRows) -> Packed:
    """Matrix of a word, A[w l] = A[l] * A[w], read off the squares.

    squares[x] = (|x|, [A[x]^(2^i) for 2^i < |x|]), x a generator image,
    as _certify_letters keeps them.  A run of one generator, image x, with
    exponent sum e acts as A[x]^(e mod |x|) (a run of x^-1 letters reads
    |x| - e as well), so it takes one product per binary digit 1 of
    e mod |x| (_times_power) and none when |x| divides e; the word's
    first factor is taken without a product.
    """
    out = None
    for g, run in groupby(word, key=lambda letter: letter[0]):
        order, sq = squares[qtbl.gen_images[g]]
        out = _times_power(lay, sq, sum(s for _, s in run) % order, out)
    return _identity(lay) if out is None else out


@dataclass(frozen=True)
class LevelModule:
    """The level `coin` of the tower as a Z/p^k module for Q = G/D_level.

    module_from_coinvariants is its one builder, at every k: `qtbl` is
    coin.quotient, `surviving` lists the lattice columns that are its
    coordinates, those off the F_p pivots of the level's relation rows, and
    `down` is the quotient map from the lattice, one row per lattice column
    (Coinvariants.over).  Every matrix of the module is its rows packed in
    `layout`, fp_rows(dim, p^k).  `letters[x]` is the matrix of x, for
    every generator image x of Q and its inverse; they carry the whole
    module, and the builder certifies that they define an action of Q
    (_certify_letters); a module made by hand is taken as given.  act(q)
    builds A[q] for any q along the canonical word qtbl.element_words[q],
    one packed product per letter, and keeps every element it passes in
    `built`, so each element of Q costs at most one product.  hom_basis
    keeps its kernels in `homs`.
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
        w * A[h] = xi(h) * w for h in H, and sends rH to w * A[r].  On H's
        greedy generators in member order (enumeration.greedy_generators),
        that is one system: w times the side-by-side stack of the
        A[h] - xi(h) I, packed, is 0.
        Its solutions come as _liftable_kernel gives them (at k = 1, as
        modp_left_kernel's reduced echelon basis of the packed stack).  xi
        is aligned with sub.members; all 1 gives M^H.
        """
        key = (sub.members, xi)
        if key not in self.homs:
            lay, dim = self.layout, self.dim
            sign = dict(zip(sub.members, xi))
            gens = greedy_generators(self.qtbl.mult, sub.members, {0})
            wide = fp_rows(len(gens) * dim, self.ring)
            size = dim * lay.nbytes
            # row i of the stack: row i of every A[h] side by side, joined as
            # bytes, less xi(h) at slot i of each block
            diag = sum((sign[h] % self.ring) << (b * dim * lay.bits) for b, h in enumerate(gens))
            mats = [self.act(h) for h in gens]
            stacked = [wide.sub(int.from_bytes(b"".join(a[i].to_bytes(size, "little")
                                                        for a in mats), "little"),
                                diag << (i * lay.bits))
                       for i in range(dim)]
            if self.k == 1:
                self.homs[key] = modp_left_kernel(stacked, self.p, width=wide.width)
            else:
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
    Each A[x] is squared to A[x]^(2^i) for every 2^i < |x|, and those
    squares give A[x]^(|x|-1) and, one product on, A[x]^|x| for (a): at
    most 2 * bit_length(|x|) products per generator.  (b) and (c) read
    every run x^e of a word off the same squares, one product per binary
    digit 1 of e mod |x| (_word_matrix).
    """
    lay = fp_rows(dim, ring)
    ident = _identity(lay)
    letters = dict(gen_mats)
    squares = {}
    for x, a in sorted(gen_mats.items()):
        order, y = 1, x
        while y:
            y = qtbl.mult[y][x]
            order += 1
        sq = [a]
        while 1 << len(sq) < order:
            sq.append(lay.mul(sq[-1], sq[-1]))
        inverse = _times_power(lay, sq, order - 1) or ident
        if lay.mul(a, inverse) != ident:
            raise PropertyViolation(
                f"generator image q={x}: its matrix to the power of its order "
                f"in the quotient is not the identity"
            )
        if letters.setdefault(qtbl.inv[x], inverse) != inverse:
            raise PropertyViolation(f"the matrices of q={x} and of its inverse are not inverse")
        squares[x] = (order, sq)
    for rel in relators:
        if _word_matrix(qtbl, squares, rel, lay) != ident:
            raise PropertyViolation("a relator acts nontrivially on the coinvariants")
    for w in kernel_words:
        if _word_matrix(qtbl, squares, w, lay) != ident:
            raise PropertyViolation(
                "a generator of the dimension subgroup acts nontrivially: "
                "the letter matrices do not factor through the quotient"
            )
    return letters


def module_from_coinvariants(coin: Coinvariants, p: int, k: int, level: int = 0) -> LevelModule:
    """Tensor the level `coin` with Z/p^k, as a module for its quotient
    Q = G/D (Coinvariants.quotient).

    Over Z/p^k with k > 1 a p-torsion summand stays nonfree, which no
    generalized permutation module has; that is reported as
    TorsionObstruction.  Over F_p (k = 1) the p-torsion survives alongside
    the free part, one coordinate per cyclic factor.

    The level's letters of the generator images of G are read off its
    pivot rows over Z/p^k (Coinvariants.over); images alike in Q must act
    alike.  _certify_letters proves that they define an action of Q,
    which is the G-action on the generators, hence on all of G.
    """
    if k < 1:
        raise InputError(f"precision must be >= 1, got {k}")
    rlat = coin.rlat
    coords, down, level_letters = coin.over(p, k)
    qtbl = coin.quotient
    in_q = dict(zip(rlat.tbl.gen_images, qtbl.gen_images))
    gen_mats: dict[int, Packed] = {}
    for x in sorted(in_q):
        a = level_letters[x]
        if gen_mats.setdefault(in_q[x], a) != a:
            raise PropertyViolation(
                f"action not constant on the coset of q={in_q[x]}: the kernel acts"
            )
    kernel_words = [rlat.tbl.element_words[d] for d in coin.sub.generators]
    letters = _certify_letters(qtbl, gen_mats, rlat.pres.relators, kernel_words,
                               len(coords), p ** k)
    return LevelModule(level=level, p=p, k=k, qtbl=qtbl, surviving=coords,
                       letters=letters, coin=coin, down=down)


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
    if modp_rank(map(lay.unpack, T), lo.dim, hi.p) != lo.dim:
        raise PropertyViolation("transition between chain levels is not surjective")
    return T


# ---------------------------------------------------------------------------
# marks

@dataclass(frozen=True)
class MarksReport:
    """The Brauer-quotient test and the one multiplicity vector it allows.

    classes[i] is the representative K_i of subgroup class i, classes sorted
    by order, and maximal[i] lists its subgroups of index p.  For the module M:

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
    vector, and () with a witness otherwise, which refutes M.  The
    back-substitution runs from the top class down and reads brauer_dims[i]
    only when it reaches class i: a refuted M has brauer_dims[i] = None for
    every class i below the witness step, a certified one has them all.
    """

    classes: tuple[Subgroup, ...]
    maximal: tuple[tuple[Subgroup, ...], ...]
    brauer_dims: tuple[int | None, ...]
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
    class, or (None, the first step that is not integral or not >= 0).
    brauer(i) is called once, when the step reaches class i."""
    t = len(classes)
    m = [0] * t
    for i in range(t - 1, -1, -1):
        row = marks[i]
        if not row[i] or any(row[:i]):
            raise AssertionError("table of marks is not triangular in the class order")
        rest = brauer(i) - sum(row[j] * m[j] for j in range(i + 1, t))
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

    The triangular marks system is solved exactly from the top class down
    (see MarksReport), and dim M(K) is computed for a class K only when the
    back-substitution reaches it.  So a refutation stops at its witness
    step and reads no class below it: the small subgroups, whose fixed
    spaces are the widest and dearest.  A certified candidate reads every
    class.  An empty candidate list is a proof that M is no permutation
    module; the one candidate is only necessary and still needs the
    constructive certificate.  The Brauer-quotient count holds for p-groups
    only, so another |Q| raises InputError, as does a module over Z/p^k
    with k > 1: the quotients are read over F_p, on the module's packed
    rows.
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
    marks = [tuple(mod.qtbl.order // (cls[0].order * len(cls))
                   * sum(h.issuperset(K.generators) for h in sets)
                   for cls, sets in zip(conj, conj_sets)) for K in classes]
    brauer: list[int | None] = [None] * len(classes)

    def brauer_dim(i: int) -> int:
        brauer[i] = _brauer_dim(mod, classes[i], maximal[i])
        return brauer[i]

    m, witness = _solve_marks(marks, brauer_dim, classes)
    return MarksReport(
        classes=tuple(classes),
        maximal=tuple(maximal),
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
    independent and span the reductions of every solution, all that the
    socle criterion reads of a hom space.

    One kernel per p-adic digit, until the lifts are exact.  The lifts
    w_i solve w_i * a = 0 mod q, with defects e_i = (w_i * a) / q.  Every
    solution mod q is sum c_i w_i + p t with t a solution mod q/p, and the
    defects of those t span M: the rows of abar and the defects of every
    earlier digit's lifts.  A basis of M is kept with a realizer t_m for
    each row m (e_j for row j of abar), times p per digit.  So
    sum c_i w_i + p sum b_m t_m solves mod q*p exactly when
    c * E + b * M = 0 mod p: the left kernel of E stacked on M, c
    coordinates first.  In its reduced echelon form the rows with c != 0
    come first, with independent c-parts, and give the next lifts.

    The fixed point.  Once every defect is 0 (no lift at all included),
    the lifts solve w * a = 0 over Z and the loop returns them: every
    later digit would give the same integers.  E is 0 and the rows of M
    are independent, so the kernel is c free and b = 0, in reduced
    echelon form the identity on c; each next lift is the lift it
    continues, and a zero defect enters no basis of M.
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
        defects = []
        for w in lifts:
            wa = [sum(w[i] * a[i][j] for i in range(d)) for j in range(n)]
            if any(x % q for x in wa):
                raise AssertionError("lift invariant broke")
            defects.append([x // q for x in wa])
        if not any(map(any, defects)):
            break
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
# certificates by the socle criterion

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
    if len(phi) != mod.dim or modp_rank(phi, mod.dim, mod.p) != mod.dim:
        return False
    lay = mod.layout
    packed = list(map(lay.pack, phi))
    for q in set(mod.qtbl.gen_images):
        ap = map(lay.pack, monomial_matrix(mod.qtbl, blocks, q, mod.ring))
        if lay.mul(ap, packed) != lay.mul(packed, mod.letters[q]):
            return False
    return True


def _socle_certificate(mod: LevelModule, marks: MarksReport, mults: tuple[int, ...]):
    """(Certificate, None): an isomorphism onto mod from the blocks mults
    asks for; or (None, the refutation), naming the class that falls short.

    Class j gets mults[j] blocks Ind_H^Q xi, H = marks.classes[j], xi from
    sign_characters(H), trivial first, one per value mod p^k (the trivial
    one alone at k = 1 and at odd p).  Block b's hom is a row w_b of
    mod.hom_basis(H, xi) and sends the coset rH to w_b * A[r]; those rows
    are phi, verified independently.  The w_b are picked by the socle
    criterion, which decides the candidate exactly:

    (1) Injectivity is decided on the socle.  Q is a p-group, so over F_p
        every nonzero submodule of P = sum_b Ind_{H_b}^Q, ker phi among
        them, has a nonzero Q-fixed vector.  P^Q is spanned by the orbit sums
        sigma_b, one per block, and phi(sigma_b) = w_b * Tr_b, Tr_b the
        sum of A[r] over the coset reps r of H_b (the full norm for
        H_b = 1).  The marks give sum_j m_j |Q:H_j| = dim M, so phi is an
        isomorphism iff the traces w_b * Tr_b are independent mod p.
    (2) Over Z/p^k, phi is an isomorphism iff phi mod p is one.  Mod 2 a
        twisted block is the plain block, so (1) applies to the reduced
        traces.
    (3) Greedy in increasing class order is complete.  If M mod p is F_p[X]
        with the marks multiplicities, Tr_K^Q(M^K) is spanned by the
        sigma_b with H_b <=_Q K: the trace of the K-orbit sum of x in X is
        [Q_x : K n Q_x] * sigma, sigma the Q-orbit sum of x, nonzero mod p
        iff Q_x <= K.  The classes are sorted by order, so H_b <=_Q H puts
        H_b's class before H's or at it.  By induction the picks of the
        earlier classes span their sigma_b, and the traces of class H add
        exactly its own m_H sigma_b: any maximal choice of rows with
        independent traces takes m_H there.  Over
        Z/p^k, if M = sum_b Ind_{H_b} xi_b (a block on a conjugate of H is
        one on H), its w_b give class H m_H traces independent over the
        earlier picks, each among the reduced traces V_xi of one
        character's homs, which the reduced hom-basis rows span
        (_liftable_kernel).  Taking each xi in turn extends a basis of the
        V_xi before it, so the pass reaches m_H; trivial first, it takes
        the most plain blocks it can and reads a twisted hom space only
        when the trivial character falls short.
    A shortfall refutes M, and is a rank count any rank computation can
    recheck.  Tr_H is packed adds, each hom basis meets it in one product,
    and only the picked rows are assembled into phi.
    """
    lay, ring = mod.layout, mod.ring
    span = ModpSpan(mod.dim, mod.p)
    blocks, picks = [], []
    for j, (sub, m) in enumerate(zip(marks.classes, mults)):
        if not m:
            continue
        reps = left_cosets(mod.qtbl, sub)[1]
        trace = mod.act(reps[0])
        for r in reps[1:]:
            trace = tuple(map(lay.add, trace, mod.act(r)))
        chars: dict[tuple[int, ...], tuple[int, ...]] = {}
        for xi in sign_characters(sub, marks.maximal[j]):
            chars.setdefault(tuple(v % ring for v in xi), xi)
        got = 0
        for xi in chars.values():
            basis = [lay.pack(w) for w in mod.hom_basis(sub, xi)]
            for w, image in zip(basis, lay.mul(basis, trace)):
                if got < m and span.add(image if mod.k == 1 else lay.unpack(image)):
                    blocks.append(Block(j, sub, xi))
                    picks.append((w, reps))
                    got += 1
            if got == m:
                break
        if got < m:
            return None, (
                f"the traces of the hom spaces of subgroup class {j} (order {sub.order}) "
                f"add rank {got} to the classes before it, short of its multiplicity {m}"
            )
    phi = [lay.unpack(lay.mul([w], mod.act(r))[0]) for w, reps in picks for r in reps]
    if not _verify_certificate(mod, blocks, phi):
        raise PropertyViolation("assembled certificate failed independent verification")
    return Certificate(mod.p, mod.k, tuple(blocks), tuple(map(tuple, phi))), None


# ---------------------------------------------------------------------------
# recognition over F_p

@dataclass(frozen=True)
class RecognitionResult:
    """`trials` is 1 when a certificate was assembled and 0 otherwise."""

    status: str  # certified | refuted
    marks: MarksReport
    multiplicities: tuple[int, ...] | None
    certificate: Certificate | None
    trials: int
    refutation: str | None = None


def perm_recognize_modp(mod: LevelModule) -> RecognitionResult:
    """Decide whether the mod-p module is a permutation module for Q.

    The Brauer quotients either refute outright or leave one multiplicity
    vector (marks_multiplicities).  The socle criterion then either
    assembles a verified isomorphism from its blocks or names the class
    whose traces fall short, which refutes too (_socle_certificate).  No
    search and no budget: every module is decided.
    """
    if mod.k != 1:
        raise InputError("recognition runs on the mod-p module (k = 1)")
    marks = marks_multiplicities(mod)
    if not marks.candidates:
        return RecognitionResult("refuted", marks, None, None, 0, marks.witness)
    (cand,) = marks.candidates
    cert, refutation = _socle_certificate(mod, marks, cand)
    if cert is None:
        return RecognitionResult("refuted", marks, None, None, 0, refutation)
    return RecognitionResult("certified", marks, cand, cert, 1)


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
    """`assignments_tried` is 1 when the lift ran and 0 otherwise."""

    status: str  # certified | refuted | not_attempted
    certificate: Certificate | None
    assignments_tried: int
    refutation: str | None = None


def gen_perm_lift(mod: LevelModule, modp: RecognitionResult) -> LiftResult:
    """Certify the module over Z/p^k as a generalized permutation module.

    The blocks' subgroups are forced by the mod-p certificate (reduction
    of a sign-twisted block is the plain block, and mod-p decompositions of
    p-group permutation modules are unique), so only the sign characters
    vary: all of them for p = 2, the trivial one otherwise.  The hom space
    of each block Ind_H^Q xi is solved directly over Z/p^k by Frobenius
    reciprocity, one kernel lifted digit by digit until it is exact
    (LevelModule.hom_basis), and the socle criterion picks the characters
    and the rows class by class, trivial character first
    (_socle_certificate).  A class that
    falls short proves that the module has no generalized permutation form
    and the result is refuted.  Not attempted unless modp is certified.
    """
    if modp.status != "certified":
        return LiftResult("not_attempted", None, 0)
    cert, refutation = _socle_certificate(mod, modp.marks, modp.multiplicities)
    if cert is None:
        return LiftResult("refuted", None, 1, refutation)
    return LiftResult("certified", cert, 1)


# ---------------------------------------------------------------------------
# the per-level equivalence harness

@dataclass(frozen=True)
class LevelOutcome:
    level: int
    quotient_order: int
    dim: int
    modp_status: str
    multiplicities: tuple[tuple[int, int], ...] | None  # (|H|, m) per class
    integral_status: str
    characters_plain: bool | None


@dataclass(frozen=True)
class HarnessReport:
    """unknown_levels is always 0, since every level is decided; the
    field stays because the JSON report and its readers carry it."""

    prime: int
    precision: int
    levels: tuple[LevelOutcome, ...]
    violations: int
    unknown_levels: int
    transitions_checked: int


def _level_outcome(lv: LevelResult, p: int, precision: int) -> tuple[LevelOutcome, LevelModule]:
    """Recognize one level's mod-p module and, if certified, lift it."""
    n = lv.level
    mod1 = module_from_coinvariants(lv.coin, p, 1, n)
    rec = perm_recognize_modp(mod1)
    mults = None
    if rec.multiplicities is not None:
        mults = tuple(
            (rec.marks.classes[j].order, m)
            for j, m in enumerate(rec.multiplicities) if m
        )
    characters_plain = None
    if rec.status == "refuted":
        integral = "not_attempted"
    else:
        modk = module_from_coinvariants(lv.coin, p, precision, n)
        lift = gen_perm_lift(modk, rec)
        integral = lift.status
        if lift.certificate is not None:
            characters_plain = all(b.is_plain() for b in lift.certificate.blocks)
    outcome = LevelOutcome(
        level=n,
        quotient_order=mod1.qtbl.order,
        dim=mod1.dim,
        modp_status=rec.status,
        multiplicities=mults,
        integral_status=integral,
        characters_plain=characters_plain,
    )
    return outcome, mod1


def tower_harness(qr: QRReport, precision: int | None = None,
                  max_level: int | None = None) -> HarnessReport:
    """Per level: recognize the mod-p module, then certify integrally.

    The two sides must agree wherever both reach a verdict: integral
    generalized-permutation structure exists iff the mod-p module is a
    permutation module.  A certified side against a refuted side is a
    violation.  The equivalence is a theorem about quasirational input,
    so the harness refuses a report with a witness level, a level with
    p-torsion (InputError naming it); the per-level torsion map is the
    report's own (QRReport.levels[i].p_torsion).  Transition maps between
    consecutive levels are built and verified as equivariant surjections,
    tying the tower together.

    The chain, lattice and level coinvariants come from the QR report;
    max_level, when given, keeps its first levels and must be >= 1.
    The mod-p module is the reduction of the Z/p^k one, so both are built
    on the level's one quotient table (Coinvariants.quotient), the latter
    only where the former was certified a permutation module.

    The ring.  precision=None takes k = 1 + v_p(|G|) for the whole
    harness (k = 1 for trivial G); an explicit k is used as given.  At
    that k the lift is a statement over Z_p.  Let M be a torsion-free
    level over Z_p, H <= Q and xi a sign character of H, so a hom from
    Ind_H^Q xi is a fixed point of N = M (x) xi.  The sequence
    0 -> N -> N -> N/p^k -> 0, the first map p^k, gives a connecting map
    delta_k from (N/p^k)^H into H^1(H, N), and the Z_p fixed points
    map onto exactly its kernel.  The reduction rho: N/p^k -> N/p
    maps that sequence to the one for k = 1, with p^(k-1) on the left, so
    delta_1(rho y) = p^(k-1) * delta_k(y).  |H| kills H^1(H, N), so
    p^(v_p|H|) does.  Hence for k >= 1 + v_p(|H|), every y in (N/p^k)^H
    reduces into ker delta_1, the reductions of the Z_p fixed points:
    the mod-p reductions that _liftable_kernel returns are exactly those
    of the Z_p hom spaces.  Q and every H divide |G|, so one k serves
    every level.  The socle criterion reads only those reductions.  So a
    verified certificate has Z_p homs with the same reductions, whose sum
    is invertible mod p and hence over Z_p (Nakayama); and a class whose
    traces fall short falls short over Z_p.  "certified" and "refuted"
    are statements about the Z_p-lattice.

    Everything a level builds (quotient, mod-p module, recognition, lift)
    depends on D_n alone, and qr_check hands a level whose D_n repeats the
    one before the same Coinvariants object.  Such a level repeats the
    previous outcome with only `level` changed and counts towards
    violations like any other.  It shares the previous module too, so
    its transition is the identity with no product (transition_map);
    every pair of consecutive levels still counts in transitions_checked.
    """
    if max_level is not None and max_level < 1:
        raise InputError(f"max_level must be >= 1, got {max_level}")
    p, rlat = qr.prime, qr.rlat
    if precision is None:  # 1 + v_p(|G|); G is a p-group (qr_check)
        pp = prime_power(rlat.tbl.order)
        precision = 1 + (pp[1] if pp else 0)
    if (w := qr.witness_level) is not None:
        raise InputError(
            f"not quasirational at p={p}: level {w} coinvariants have "
            f"{p}-torsion {qr.levels[w - 1].p_torsion}, the equivalence hypothesis fails"
        )
    levels = qr.levels[:max_level]
    outcomes = []
    mods = []
    violations = 0
    for i, lv in enumerate(levels):
        if i and lv.coin is levels[i - 1].coin:
            outcome, mod1 = replace(outcomes[-1], level=lv.level), mods[-1]
        else:
            outcome, mod1 = _level_outcome(lv, p, precision)
        statuses = {outcome.modp_status, outcome.integral_status}
        if statuses == {"refuted", "certified"}:
            violations += 1
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
        unknown_levels=0,
        transitions_checked=transitions,
    )


def equivalence_harness(pres: Presentation, tbl: FiniteGroupTable, p: int,
                        precision: int | None = None) -> HarnessReport:
    """tower_harness on the QR report of a freshly built relation lattice."""
    return tower_harness(qr_check_full(pres, tbl, p), precision)
