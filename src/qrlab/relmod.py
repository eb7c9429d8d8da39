"""The relation module and what it decides.

relation_lattice() builds R/[R,R] as the cycle lattice of the right
Cayley graph of (G, X).  By Crowell-Lyndon, 0 -> R_ab -> (ZG)^|X| -> IG
-> 0 is exact and (ZG)^|X| -> IG is the graph's boundary map, so R_ab
depends only on the table and the generator images.  The basis and the
matrices of the elements are read off the BFS spanning tree from 1: one
fundamental cycle per chord (non-tree edge), and a cycle's coordinates are
its chord entries.  The relators' Fox rows only certify that the table is
the group they present.

Level n of the tower is the lattice modulo the (d-1)-action of D_n.  By
Gaschutz it is Z^f + H2(D_n, Z), f = (|X|-1)|G:D_n| + 1, and |D_n|
annihilates the torsion, so coinvariants() reads a level one prime at a
time with no integer Smith form: one F_p rank of the rows of A[d] - I,
d over D_n's generators, counts the cyclic factors of its p-torsion, a
local Smith form over Z/p^N gives their orders where there are any, and
an F_ell rank for a prime ell not dividing |G| checks f.  qr_check()
decides quasirationality at p from one such level per distinct D_n; its
report keeps the lattice and each level's subgroup and coinvariants for
the harness, which takes each level over Z/p^k from one unit-pivot
elimination (Coinvariants.over).  hopf_h2() and bar_h2() compute the
Schur multiplier by two routes that share no code above the integer
kernels and must agree.

bar_h2() needs no row beyond T(g,h,x) = d3[g|h|x] for x a generator
image, and no column beyond the generator block [g|x]: the rest is
substituted away along a BFS tree of right multiplication by the
generators, with unit pivots and no fill-in.  The proof is in its
docstring.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .errors import BudgetExceeded, PropertyViolation, TorsionObstruction
from .enumeration import FiniteGroupTable, Subgroup, subgroup_closure
from .groupring import dimension_subgroup_chain, fox_rows, jennings_series
from .intlinalg import (
    AbelianInvariants,
    Lattice,
    ModpSpan,
    combine_primary,
    elementary_divisors,
    fp_rows,
    lattice_quotient,
    local_smith_exponents,
    p_torsion,
    unit_pivot_rows,
)
from .presentation import Presentation, is_prime

DEFAULT_BAR_BOUND = 32


Sparse = tuple[tuple[tuple[int, int], ...], ...]  # a matrix as its rows' (column, entry) nonzeros
Packed = tuple[int, ...]  # a matrix as its rows, packed in one FpRows layout


@dataclass(frozen=True)
class RelationLattice:
    """R/[R,R] as the cycle lattice of the right Cayley graph, in Z^(|X|*|G|).

    Column i*|G| + h is the edge h -> h x_i, so block i of a vector is the
    ZG coefficient vector of the i-th partial derivative.  cycles[c] is the
    fundamental cycle of chord c of the BFS tree from 1, as its nonzeros
    (block start i*|G|, h, +-1), one per edge, and chord_at[column] is the
    chord on that edge, -1 on a tree edge.  act(g) is the matrix of g on the
    lattice: its row c is the chord entries of g * cycles[c], which are the
    coordinates of that cycle.  Every level of the tower is read off them.
    All of it is shared by every reader, so it is read-only.
    """

    pres: Presentation
    tbl: FiniteGroupTable
    cycles: tuple[tuple[tuple[int, int, int], ...], ...]
    chord_at: tuple[int, ...] = field(repr=False, compare=False)
    _acts: dict[int, Sparse] = field(default_factory=dict, init=False, repr=False,
                                     compare=False)

    @property
    def rank(self) -> int:
        return len(self.cycles)

    def act(self, g: int) -> Sparse:
        """A[g] as sparse rows, built on first use and memoized per g.

        Left translation, (g z)[j, g h] = z[j, h], is a bijection on the
        edges and keeps signs, and a cycle uses an edge at most once, so
        every entry of A[g] is +-1 or 0.
        """
        if g not in self._acts:
            row, chord_at = self.tbl.mult[g], self.chord_at
            self._acts[g] = tuple(
                tuple((k, c) for start, h, c in cycle if (k := chord_at[start + row[h]]) >= 0)
                for cycle in self.cycles)
        return self._acts[g]

    def relation_rows(self, sub: Subgroup, modulus: int) -> list[int]:
        """The nonzero rows of A[d] - I, d over sub's generators, packed in
        fp_rows(rank, modulus).  They span the (d - 1)-action of sub:
        (de - 1)v = (d - 1)(ev) + (e - 1)v."""
        lay = fp_rows(self.rank, modulus)
        rows = []
        for d in sub.generators:
            if d:
                for c, nonzeros in enumerate(self.act(d)):
                    a = sum((e % modulus) << (k * lay.bits) for k, e in nonzeros)
                    if (v := lay.sub(a, lay.unit(c))):
                        rows.append(v)
        return rows

    @functools.cached_property
    def g_coin(self) -> Coinvariants:
        """R/[R,F], the level of D_1 = G: its torsion is Hopf's H2(G), and
        it is level 1 of every prime's tower."""
        return coinvariants(self, subgroup_closure(self.tbl, self.tbl.gen_images))


def relation_lattice(pres: Presentation, tbl: FiniteGroupTable) -> RelationLattice:
    """The cycle lattice of the right Cayley graph, certified to be R/[R,R].

    The BFS tree from 1 along the edges h -> h x_i has |G| - 1 edges, so
    r = |X||G| - |G| + 1 edges are chords: the rank law.  Chord (i, h)
    with h x_i = q gives the cycle e_(i,h) + path(h) - path(q).  A cycle
    on tree edges alone is 0, so every cycle z is sum_c z_c * cycle_c: its
    coordinates are its chord entries.  Left translation,
    (x z)[j, x h] = z[j, h], commutes with the boundary, which gives the
    matrix of every element (RelationLattice.act) with no solve.

    Certificate that the span of the translates g * fox(r) is this cycle
    lattice, a PropertyViolation where (a) or (c) fails:
    (a) the generator images reach all of G, so the tree spans the graph;
    (b) every Fox row has zero boundary (fox_rows raises otherwise), and so
        has each translate: the span lies in the cycle lattice;
    (c) the chord entries of the translates span Z^r, i.e. their echelon
        form reaches r rows with every pivot 1.  Chord entries are
        coordinates on the cycle lattice, so the span is all of it.
    """
    n, mult, images = tbl.order, tbl.mult, tbl.gen_images
    width = len(images) * n
    up = {0: None}  # q -> (block start, source) of the tree edge into q
    depth = [0] * n
    chord_at = [-1] * width  # column -> chord, -1 on tree edges
    cycles = []  # a cycle as its nonzeros (block start, h, +-1)
    frontier = [0]
    for h in frontier:
        for i, x in enumerate(images):
            q = mult[h][x]
            if q not in up:
                up[q] = (i * n, h)
                depth[q] = depth[h] + 1
                frontier.append(q)
                continue
            chord_at[i * n + h] = len(cycles)
            cycle, a, b = [(i * n, h, 1)], h, q
            while a != b:  # path(h) - path(q) up to their last common vertex
                if depth[a] >= depth[b]:
                    cycle.append((*up[a], 1))
                    a = up[a][1]
                else:
                    cycle.append((*up[b], -1))
                    b = up[b][1]
            cycles.append(cycle)
    if len(up) != n:
        raise PropertyViolation(f"generator images reach {len(up)} of {n} elements")
    rank = len(cycles)

    def chord_entries(nonzeros, g) -> list[int]:
        """The chord entries of g * z, for z given by its nonzeros."""
        out, row = [0] * rank, mult[g]
        for start, h, c in nonzeros:
            k = chord_at[start + row[h]]
            if k >= 0:
                out[k] = c
        return out

    fox = [[(j - j % n, j % n, c) for j, c in enumerate(row) if c] for row in fox_rows(pres, tbl)]
    translates = (chord_entries(nonzeros, g) for nonzeros in fox for g in range(n))
    span = Lattice(rank)
    while span.rank < rank or any(span.basis[k][k] != 1 for k in range(rank)):
        vec = next(translates, None)
        if vec is None:
            raise PropertyViolation("relation lattice != kernel of the Crowell-Lyndon map")
        span.add(vec)
    return RelationLattice(pres, tbl, tuple(map(tuple, cycles)), tuple(chord_at))


@dataclass(frozen=True)
class Coinvariants:
    """One level of the tower: the lattice modulo the (d-1)-action of D = sub.

    It is Z^f + H2(D, Z) with f = (|X|-1)|G:D| + 1 (Gaschutz; the torsion
    by Shapiro's lemma, see qr_check), so `invariants` is read one prime at
    a time (coinvariants()), with no integer Smith form and no integer
    letters.  spans keeps the F_q span of the relation rows per prime q
    (span(q)); coinvariants() fills the q dividing |D|.  over(p, k) is the
    level over Z/p^k as the harness reads it: coordinates, quotient map
    from the lattice and letters.  rlat is None only on a level made by
    hand.
    """

    invariants: AbelianInvariants
    sub: Subgroup
    rlat: RelationLattice | None = field(default=None, repr=False, compare=False)
    spans: dict[int, ModpSpan] = field(default_factory=dict, repr=False, compare=False)

    def span(self, q: int) -> ModpSpan:
        """The F_q span of the level's relation rows, built once per q."""
        if q not in self.spans:
            self.spans[q] = _span(self.rlat, self.sub, q)
        return self.spans[q]

    def over(self, p: int, k: int) -> tuple[tuple[int, ...], Packed, dict[int, Packed]]:
        """(coords, down, letters): the level tensored with Z/p^k.

        Over F_p it is read off the reduced echelon rows of the F_p span.
        Over Z/p^k, k > 1, a level with p-torsion has no free form
        (TorsionObstruction); one without is a free summand of rank
        r - f, and one unit-pivot elimination of the relation rows mod p^k
        (unit_pivot_rows), stopped at that many pivots, has the F_p pivot
        columns and reduces mod p to those rows.  Pivot row c is e_c + b_c,
        so e_c = -b_c on the level: the F_p pivot columns are eliminated,
        and the other lattice columns, coords, are the coordinates.  down
        is the quotient map from the lattice, one row per lattice column
        packed in fp_rows(len(coords), p^k): e_j at coords[j], -b_c at a
        pivot c.  letters[x], for x a generator image, is A[x] on coords,
        then down.
        """
        rlat, ring, r = self.rlat, p ** k, self.rlat.rank
        if k == 1:
            span = self.span(p)
            reduced = dict(zip(span.pivots, span.rows))
        else:
            torsion = p_torsion(self.invariants, p)
            if torsion:
                raise TorsionObstruction(
                    f"coinvariants have p-torsion Z/{torsion[0]}; no free Z/{p}^{k} form"
                )
            lay, rank = fp_rows(r, ring), r - self.invariants.free_rank
            pivots, _ = unit_pivot_rows(rlat.relation_rows(self.sub, ring), lay, p, rank)
            if len(pivots) != rank:
                raise PropertyViolation(
                    f"the relation rows over Z/{p}^{k} reach {len(pivots)} unit pivots, "
                    f"not the {rank} of a free level")
            reduced = {c: lay.unpack(row) for c, row in pivots.items()}
        coords = tuple(j for j in range(r) if j not in reduced)
        out = fp_rows(len(coords), ring)
        down = [0] * r
        for i, j in enumerate(coords):
            down[j] = out.unit(i)
        for c, vals in reduced.items():
            down[c] = out.pack([-vals[j] for j in coords])
        letters = {}
        for x in sorted(set(rlat.tbl.gen_images)):
            rows = []
            for nonzeros in map(rlat.act(x).__getitem__, coords):
                acc = 0
                for col, e in nonzeros:
                    acc = out.add(acc, down[col]) if e > 0 else out.sub(acc, down[col])
                rows.append(acc)
            letters[x] = tuple(rows)
        return coords, tuple(down), letters


def _span(rlat: RelationLattice, sub: Subgroup, q: int) -> ModpSpan:
    span = ModpSpan(rlat.rank, q)
    for v in rlat.relation_rows(sub, q):
        span.add(v)
    return span


def _primes_dividing(n: int) -> list[int]:
    return [q for q in range(2, n + 1) if n % q == 0 and is_prime(q)]


def coinvariants(rlat: RelationLattice, sub: Subgroup) -> Coinvariants:
    """The level of D = sub: the lattice modulo the rows of A[d] - I, d over
    sub's generators (RelationLattice.relation_rows), read p-locally with
    no integer Smith form.

    The level is Z^f + T with f = (|X|-1)|G:D| + 1 and T = H2(D, Z), which
    |D| annihilates.  By right exactness the level tensored with F_q is
    F_q^r modulo the rows mod q, so for each prime q dividing |D| one F_q
    rank gives t_q = r - rank - f, the number of cyclic factors of T's
    q-part.  Where t_q > 0, the local Smith form over Z/q^N with q^N > |D|
    (local_smith_exponents) gives their orders.  Certificate, each failure
    a PropertyViolation, never an assert:
    (a) for ell, the least prime not dividing |G|, the F_ell rank leaves
        exactly f: Gaschutz's free rank, with no ell-torsion;
    (b) no F_q rank leaves fewer than f;
    (c) the local Smith form leaves exactly f summands Z/q^N and t_q
        cyclic ones.
    """
    tbl, r = rlat.tbl, rlat.rank
    free = (rlat.pres.ngens - 1) * (tbl.order // sub.order) + 1
    ell = next(q for q in itertools.count(2) if is_prime(q) and tbl.order % q)
    if (dim := r - _span(rlat, sub, ell).dim) != free:
        raise PropertyViolation(
            f"the level of a subgroup of order {sub.order} has F_{ell} dimension "
            f"{dim}, not Gaschutz's free rank {free}")
    spans, parts = {}, []
    for q in _primes_dividing(sub.order):
        span = spans[q] = _span(rlat, sub, q)
        t = r - span.dim - free
        if t < 0:
            raise PropertyViolation(
                f"the level of a subgroup of order {sub.order} has F_{q} dimension "
                f"{r - span.dim}, below Gaschutz's free rank {free}")
        if t:
            n = 1
            while q ** n <= sub.order:
                n += 1
            z, exps = local_smith_exponents(rlat.relation_rows(sub, q ** n), r, q, n)
            if (z, len(exps)) != (free, t):
                raise PropertyViolation(
                    f"the local Smith form over Z/{q}^{n} of a level leaves {z} free and "
                    f"{len(exps)} cyclic summands, not {free} and {t}")
            parts.append([q ** e for e in exps])
    return Coinvariants(combine_primary(free, parts), sub, rlat, spans)


# ---------------------------------------------------------------------------
# quasirationality

@dataclass(frozen=True)
class LevelResult:
    """One level of the tower; subgroup and coin are kept for the harness."""

    level: int
    subgroup_order: int
    quotient_order: int
    invariants: AbelianInvariants
    p_torsion: tuple[int, ...]
    subgroup: Subgroup = field(compare=False, repr=False)
    coin: Coinvariants = field(compare=False, repr=False)


@dataclass(frozen=True)
class QRReport:
    prime: int
    quasirational: bool
    witness_level: int | None
    levels: tuple[LevelResult, ...]
    cutoff: int
    cutoff_reason: str
    g_coinvariants: AbelianInvariants
    rlat: RelationLattice = field(compare=False, repr=False)


def qr_check(rlat: RelationLattice, p: int) -> QRReport:
    """Decide quasirationality at p by checking every filtration level.

    The chain D_1 >= D_2 >= ... is computed from the Delta powers and
    cross-checked against the Jennings recursion (disagreement is a hard
    failure).  D_n = 1 from the cutoff on, where the coinvariants are the
    full lattice, torsion-free; so finitely many levels decide all n.
    The torsion of level n is H2(D_n, Z): ZG is a free Z[D_n]-module, so
    Shapiro's lemma and dimension shifting identify the torsion of
    (R_ab)_{D_n} with H2(D_n, Z).  So G is quasirational at p exactly when
    no H2(D_n) has p-torsion, a property of G alone.  Level 1 is R/[R,F],
    whose torsion is H2(G) (Hopf), but H2(G) = 0 does not force H2(D_n) = 0.

    Each distinct D_n is one coinvariants() call on the lattice, and a
    level whose D_n repeats the one before shares its object.  Level 1 is
    rlat.g_coin, the R/[R,F] that hopf_h2 reads.
    """
    tbl = rlat.tbl
    chain = dimension_subgroup_chain(tbl, p)
    if [s.members for s in chain] != [s.members for s in jennings_series(tbl, p)]:
        raise PropertyViolation(
            f"dimension subgroups disagree with the Jennings recursion at p={p}"
        )
    coins = [rlat.g_coin]
    for prev, sub in zip(chain, chain[1:]):
        coins.append(coins[-1] if sub.members == prev.members else coinvariants(rlat, sub))
    levels = tuple(LevelResult(lvl, sub.order, tbl.order // sub.order, coin.invariants,
                               p_torsion(coin.invariants, p), sub, coin)
                   for lvl, (sub, coin) in enumerate(zip(chain, coins), start=1))
    witness = next((lv.level for lv in levels if lv.p_torsion), None)
    cutoff = len(chain)
    reason = (
        f"D_{cutoff} is trivial, so for n >= {cutoff} the level-n module is the "
        f"full relation lattice, a free Z-module; no further level can carry torsion"
    )
    return QRReport(
        prime=p,
        quasirational=witness is None,
        witness_level=witness,
        levels=levels,
        cutoff=cutoff,
        cutoff_reason=reason,
        g_coinvariants=levels[0].invariants,
        rlat=rlat,
    )


def qr_check_full(pres: Presentation, tbl: FiniteGroupTable, p: int) -> QRReport:
    """qr_check on a freshly built relation lattice."""
    return qr_check(relation_lattice(pres, tbl), p)


# ---------------------------------------------------------------------------
# Schur multiplier, two routes

def gab_invariants(pres: Presentation) -> AbelianInvariants:
    """G_ab from the Smith form of the relator exponent matrix."""
    return lattice_quotient(pres.ngens, pres.relator_exponent_matrix())


def hopf_h2(rlat: RelationLattice) -> AbelianInvariants:
    """H2(G,Z) as the torsion of R/[R,F] = rlat.g_coin (Hopf's formula for finite G).

    Also certifies coker(R/[R,F] -> Z^|X|) = G_ab: the block augmentations
    of the lattice's cycles must span the very lattice of relator exponent
    vectors.  A cycle is a Schreier generator of R and its augmentation is
    its exponent sum, so both span the image of R in Z^|X|.  The two
    Hermite normal forms, unique per lattice, must be equal: no Smith form
    and no solve.
    """
    n = rlat.tbl.order
    aug = Lattice(rlat.pres.ngens)
    for cycle in rlat.cycles:
        row = [0] * rlat.pres.ngens
        for start, _, c in cycle:
            row[start // n] += c
        aug.add(row)
    rel = Lattice(rlat.pres.ngens)
    for row in rlat.pres.relator_exponent_matrix():
        rel.add(row)
    aug.canonicalize()
    rel.canonicalize()
    if aug.basis != rel.basis:
        raise PropertyViolation(
            "cokernel law fails: the cycles' augmentations do not span the "
            "relator exponent lattice"
        )
    return AbelianInvariants(0, rlat.g_coin.invariants.torsion)


def _bar_d3_cokernel(tbl: FiniteGroupTable, gens: list[int]) -> tuple[int, tuple[int, ...]]:
    """(free_rank, torsion) of coker d3, as in bar_h2 facts 1-2."""
    n = tbl.order
    mult = tbl.mult
    ngen = len(gens)
    ncols = (n - 1) * ngen  # generator-block column [g|gens[i]] is (g-1)*ngen + i

    tree: dict[int, tuple[int, int]] = {0: (0, -1)}  # q -> (parent, generator slot)
    frontier = [0]
    for p in frontier:
        for i, x in enumerate(gens):
            q = mult[p][x]
            if q not in tree:
                tree[q] = (p, i)
                frontier.append(q)
    if len(tree) != n:
        raise AssertionError(
            f"generator images reach {len(tree)} of {n} elements; "
            "the bar rows would not span im d3"
        )

    # cols[g][q]: [g|q] on the generator-block columns modulo the tree
    # pivots, filled in BFS order so the parent's entry is always ready
    zero = [0] * ncols
    cols = [[zero] * n for _ in range(n)]
    for q in frontier[1:]:
        p, i = tree[q]
        for g in range(1, n):
            if p == 0:
                v = zero[:]
                v[(g - 1) * ngen + i] = 1
            else:  # [g|px] = [g|p] + [gp|x] - [p|x]
                v = cols[g][p][:]
                v[(p - 1) * ngen + i] -= 1
                gp = mult[g][p]
                if gp:
                    v[(gp - 1) * ngen + i] += 1
            cols[g][q] = v

    image = Lattice(ncols)
    seen = set()
    for g in range(1, n):
        cg, g_row = cols[g], mult[g]
        for h in range(1, n):
            ch, h_row, gh = cg[h], mult[h], g_row[h]
            for i, x in enumerate(gens):
                # T(g,h,x) = [h|x] - [gh|x] + [g|hx] - [g|h]
                row = [a - b for a, b in zip(cg[h_row[x]], ch)]
                row[(h - 1) * ngen + i] += 1
                if gh:
                    row[(gh - 1) * ngen + i] -= 1
                key = tuple(row)
                if key not in seen and any(row):
                    seen.add(key)
                    image.add(row)
    divisors = elementary_divisors(image.basis)
    free_rank = ncols - len(divisors)
    return free_rank, tuple(d for d in divisors if d > 1)


def _bar_gab(tbl: FiniteGroupTable, gens: list[int]) -> AbelianInvariants:
    """C1 / im d2 = H1(G) = G_ab, from the generator-block rows
    d2[g|x] = [x] - [gx] + [g]."""
    n = tbl.order
    d2 = Lattice(n - 1)
    for g in range(1, n):
        for x in gens:
            vec = [0] * (n - 1)
            vec[g - 1] += 1
            vec[x - 1] += 1
            gx = tbl.mult[g][x]
            if gx:
                vec[gx - 1] -= 1
            d2.add(vec)
    return lattice_quotient(n - 1, d2.basis)


def bar_h2(tbl: FiniteGroupTable, bound: int = DEFAULT_BAR_BOUND) -> AbelianInvariants:
    """H2(G,Z) = ker d2 / im d3 of the normalized integral bar complex.

    Independent of the presentation and of everything Fox-derivative
    shaped.  [g|h] with g or h = 1 is zero, d2[g|h] = [h] - [gh] + [g] and
    T(g,h,k) = d3[g|h|k] = [h|k] - [gh|k] + [g|hk] - [g|h], which vanishes
    when g, h or k is 1.  X is the distinct non-identity generator images;
    in the BFS tree of right multiplication by X from 1 every q != 1 is
    px for its parent p and some x in X.  If the tree misses an element,
    AssertionError: the argument below needs X to generate G.

    1. Rows: im d3 is spanned by the T(g,h,x), x in X.  d3 d4 [g|h|k|x] = 0
       gives T(g,h,kx) = T(h,k,x) - T(gh,k,x) + T(g,hk,x) + T(g,h,k), so
       by induction on the depth of k (T(g,h,1) = 0) every T(g,h,k) is an
       integer combination of those rows.
    2. Columns: for a tree edge p -> q = px with p != 1, q has depth >= 2,
       so q is not in X and q != p, and T(g,p,x) has coefficient exactly
       +1 on [g|q]; its other entries sit on the generator-block columns
       [p|x], [gp|x] and on [g|p], of smaller depth.  Ordered by depth
       these rows are unit-triangular, so substituting
       [g|q] = [g|p] + [gp|x] - [p|x] removes them with their pivot
       columns and leaves coker d3 unchanged, with no fill-in outside the
       (n-1)*|X| generator-block columns.  The other rows, written there,
       go through Lattice and smith_normal_form.
    3. Rank identity: d1 = 0 with trivial coefficients, so C1 / im d2 =
       H1(G) = G_ab.  Modulo im d3, which lies in ker d2, every [g|h] is a
       combination of generator-block columns, so the rows d2[g|x], x in
       X, span im d2, and their cokernel (_bar_gab) is asserted finite.
       So im d2 is free of rank n - 1, coker d3 = H2 + Z^(n-1), and H2 is
       the torsion of coker d3 exactly when free_rank(coker d3) == n - 1,
       which is asserted.
    """
    n = tbl.order
    if n > bound:
        raise BudgetExceeded(f"bar resolution bound {bound} exceeded (order {n})")
    if n == 1:
        return AbelianInvariants(0, ())
    gens = sorted({x for x in tbl.gen_images if x})
    free_rank, torsion = _bar_d3_cokernel(tbl, gens)
    if _bar_gab(tbl, gens).free_rank != 0:
        raise AssertionError("bar route gives an infinite G_ab")
    if free_rank != n - 1:
        raise AssertionError(
            "bar complex rank identity fails; H2 would not be finite"
        )
    return AbelianInvariants(0, torsion)
