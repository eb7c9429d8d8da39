"""The relation module and what it decides.

relation_lattice() builds R/[R,R] as the cycle lattice of the right
Cayley graph of (G, X).  By Crowell-Lyndon, 0 -> R_ab -> (ZG)^|X| -> IG
-> 0 is exact and (ZG)^|X| -> IG is the graph's boundary map, so R_ab
depends only on the table and the generator images.  The basis and the
matrices of the elements are read off the BFS spanning tree from 1: one
fundamental cycle per chord (non-tree edge), and a cycle's coordinates are
its chord entries.  The relators' Fox rows only certify that the table is
the group they present: their translates, read as sparse chord maps, are
peeled at +-1 entries until every chord is resolved, and only chords left
unresolved when the translates run out go into an integer echelon form.

Level n of the tower is the lattice modulo the (d-1)-action of D_n.  By
Gaschutz it is Z^f + H2(D_n, Z), f = (|X|-1)|G:D_n| + 1, and |D_n|
annihilates the torsion, so coinvariants() reads a level one prime at a
time with no integer Smith form: one F_p rank of the rows of A[d] - I,
d over D_n's generators, counts the cyclic factors of its p-torsion, a
local Smith form over Z/p^N gives their orders where there are any, and
an F_ell rank for a prime ell not dividing |G| checks f.  qr_check()
decides quasirationality at p from one such level per distinct D_n; its
report keeps the lattice and each level's subgroup and coinvariants for
the harness.  A level keeps the F_p span its rank pass built, so one F_p
elimination serves every ring (Coinvariants.over): over F_p the harness
reads the span's reduced echelon rows, and over Z/p^k, k > 1, it
eliminates only the rows that entered the span.  The quotient G/D_n is
built once per level (Coinvariants.quotient).  The lattice keeps one form
of its action, act's sparse rows, and a level's rows are packed from them
at the ring they are read at (RelationLattice.relation_rows).
hopf_h2() and bar_h2() compute the Schur multiplier by two routes that
share no code above the integer kernels and must agree.

bar_h2() needs no row beyond T(g,h,x) = d3[g|h|x] for x a generator
image, and no column beyond the generator block [g|x]: the rest is
substituted away along a BFS tree of right multiplication by the
generators, with unit pivots and no fill-in.  It too reads one prime at a
time with no integer Smith form: the rows lie in ker d2, saturated of
rank m = (|G|-1)(|X|-1), and |G| kills H2, so an F_q rank that reaches m
proves no q-torsion and stops reading rows there, and a local Smith form
over Z/p^N orders the torsion where one falls short.  The proof is in its
docstring.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field

from .errors import InputError, PropertyViolation, TorsionObstruction
from .enumeration import FiniteGroupTable, Subgroup, quotient_table, subgroup_closure
from .groupring import dimension_subgroup_chain, fox_rows
from .intlinalg import (
    AbelianInvariants,
    Lattice,
    ModpSpan,
    combine_primary,
    fp_rows,
    lattice_quotient,
    local_smith_exponents,
    modp_rank,
    p_torsion,
    unit_pivot_rows,
)
from .presentation import Presentation, is_prime


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
    coordinates of that cycle.  act is the lattice's one form of its
    action: every level of the tower is read off it, its relation rows
    packed at the ring they are read at (relation_rows).  All of it is
    shared by every reader, so it is read-only.
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

    def _level_rows(self, sub: Subgroup) -> list[tuple[tuple[int, int], ...]]:
        """The rows of A[d] - I nonzero over Z, d over sub's generators, as
        (column, entry) pairs: row c of A[d], when it is not e_c, and (c, -1)."""
        return [nonzeros + ((c, -1),) for d in filter(None, sub.generators)
                for c, nonzeros in enumerate(self.act(d)) if nonzeros != ((c, 1),)]

    def relation_rows(self, sub: Subgroup, modulus: int) -> list[int]:
        """The rows of A[d] - I nonzero over Z, d over sub's generators,
        each packed in fp_rows(rank, modulus) from act's sparse row
        (_level_rows, FpRows.pack_sparse).  A row may be 0 mod modulus, so
        the list is aligned across moduli: one index names the same row at
        every ring.  They span the (d - 1)-action of sub:
        (de - 1)v = (d - 1)(ev) + (e - 1)v."""
        return list(map(fp_rows(self.rank, modulus).pack_sparse, self._level_rows(sub)))

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
    (c) the chord entries of the translates span Z^r.  Chord entries are
        coordinates on the cycle lattice, so the span is all of it.
        Proof by peeling (_peel): the translates are read one at a time as
        sparse chord maps, and one whose only unresolved chord has entry
        +-1 resolves that chord.  In peel order the peeling rows are
        triangular with +-1 on the diagonal, so they span Z^resolved, and
        the translates span Z^r exactly when their projections onto the
        unresolved chords span Z^unresolved.  Reading stops once every
        chord is resolved.  If the translates run out first, the
        projections go into an echelon form of width len(unresolved),
        which must reach full rank with every pivot 1.
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

    fox = [[(j - j % n, j % n, c) for j, c in enumerate(row) if c] for row in fox_rows(pres, tbl)]
    translates = ({k: c for start, h, c in nonzeros if (k := chord_at[start + mult[g][h]]) >= 0}
                  for nonzeros in fox for g in range(n))
    read, residual = _peel(translates, rank)
    if residual:
        at, size = {k: i for i, k in enumerate(residual)}, len(residual)
        span = Lattice(size)
        rows = iter(read)
        while span.rank < size or any(span.basis[i][i] != 1 for i in range(size)):
            vec = next(rows, None)
            if vec is None:
                raise PropertyViolation("relation lattice != kernel of the Crowell-Lyndon map")
            proj = [0] * size
            for k, c in vec.items():
                if k in at:
                    proj[at[k]] = c
            span.add(proj)
    return RelationLattice(pres, tbl, tuple(map(tuple, cycles)), tuple(chord_at))


def _peel(rows: Iterator[dict[int, int]], width: int) -> tuple[list[dict[int, int]], list[int]]:
    """(read, unresolved): unit peeling of sparse integer rows over Z^width.

    A row resolves a column when every other column it holds is resolved
    and its entry there is +-1; no other entry is ever a pivot.  Each
    resolution lowers the count of unresolved columns of the rows that hold
    that column, and a row whose count drops to one is tried in turn.  Rows
    are read one at a time, only until every column is resolved; read is
    the rows read, and unresolved the columns left, in increasing order.
    relation_lattice's certificate (c) has the proof that the rows read
    span Z^width exactly when their projections onto unresolved do.
    """
    resolved = [False] * width
    left = width
    holders: list[list[int]] = [[] for _ in range(width)]  # column -> rows holding it unresolved
    count: list[int] = []  # row -> its unresolved columns
    read: list[dict[int, int]] = []
    while left:
        row = next(rows, None)
        if row is None:
            break
        i = len(read)
        read.append(row)
        open_cols = [k for k in row if not resolved[k]]
        count.append(len(open_cols))
        for k in open_cols:
            holders[k].append(i)
        ready = [i] if len(open_cols) == 1 else []
        while ready:
            j = ready.pop()
            if count[j] != 1:
                continue
            k = next(k for k in read[j] if not resolved[k])
            if abs(read[j][k]) != 1:
                continue
            resolved[k] = True
            left -= 1
            for t in holders[k]:
                count[t] -= 1
                if count[t] == 1:
                    ready.append(t)
            holders[k] = []
    return read, [k for k in range(width) if not resolved[k]]


@dataclass(frozen=True)
class Coinvariants:
    """One level of the tower: the lattice modulo the (d-1)-action of D = sub.

    It is Z^f + H2(D, Z) with f = (|X|-1)|G:D| + 1 (Gaschutz; the torsion
    by Shapiro's lemma, see qr_check), so `invariants` is read one prime at
    a time (coinvariants()), with no integer Smith form and no integer
    letters.  When |D| is a power of one prime p, coinvariants() keeps the
    F_p span of the relation rows that its rank pass builds, and `entered`,
    the indices of the rows (RelationLattice.relation_rows) that raised its
    dimension; D = 1 needs none.  over(p, k) is the level over Z/p^k as
    the harness reads it, from that one F_p elimination at every k:
    coordinates, quotient map from the lattice and letters.  quotient is
    Q = G/D, the group the level is a module for, built once per level.
    rlat is None only on a level made by hand.
    """

    invariants: AbelianInvariants
    sub: Subgroup
    rlat: RelationLattice | None = field(default=None, repr=False, compare=False)
    span: ModpSpan | None = field(default=None, repr=False, compare=False)
    entered: tuple[int, ...] = field(default=(), repr=False, compare=False)

    @functools.cached_property
    def quotient(self) -> FiniteGroupTable:
        return quotient_table(self.rlat.tbl, self.sub)[0]

    def over(self, p: int, k: int) -> tuple[tuple[int, ...], Packed, dict[int, Packed]]:
        """(coords, down, letters): the level tensored with Z/p^k, read off
        rank = r - f - t_p unit pivots, t_p the number of cyclic factors of
        the level's p-torsion.

        That rank is the dimension of the kept F_p span: the level over F_p
        is F_p^r modulo the relation rows, and it is (Z/p)^(f + t_p).  At
        k = 1 the pivots are that span's reduced echelon rows
        (ModpSpan.rows), with no row built.  Over Z/p^k, k > 1, a level
        with p-torsion has no free form (TorsionObstruction); one without
        is a free summand of rank r - f.  There unit_pivot_rows eliminates
        only the rows that entered the span, each packed mod p^k from act's
        sparse row as relation_rows packs it, in their order, and stops at
        rank; its pivots are those of all the rows.
        Proof: in unit_pivot_rows the pivot rows so far reduce mod p to a
        reduced echelon basis of the span of the rows read so far, mod p
        (a row that adds no pivot has no unit left, so it is 0 mod p once
        reduced).  A row whose reduction mod p lies in the span of the rows
        before it is, once reduced at every pivot, in that span and 0 at
        every pivot slot mod p, so 0 mod p: it has no unit entry, adds no
        pivot and changes no pivot row.  The others are exactly the rows
        the F_p span took in, and each adds a pivot.  So dropping the rows
        that did not enter leaves every pivot row, and every output, as it
        was.  Fewer pivots than rank is a PropertyViolation.

        Pivot row c is e_c + b_c, so e_c = -b_c on the level: the pivot
        columns are eliminated, and the other lattice columns, coords, are
        the coordinates.  down is the quotient map from the lattice, one
        row per lattice column packed in fp_rows(len(coords), p^k): e_j at
        coords[j], -b_c at a pivot c.  letters[x], for x a generator image,
        is A[x] on coords, then down.
        """
        rlat, ring, r = self.rlat, p ** k, self.rlat.rank
        torsion = p_torsion(self.invariants, p)
        if torsion and k > 1:
            raise TorsionObstruction(
                f"coinvariants have p-torsion Z/{torsion[0]}; no free Z/{p}^{k} form"
            )
        span = self.span
        if self.sub.order > 1 and (span is None or span.p != p):
            raise InputError(
                f"the level of a subgroup of order {self.sub.order} keeps no F_{p} span")
        lay, rank = fp_rows(r, ring), r - self.invariants.free_rank - len(torsion)
        if span is None:
            reduced = {}
        elif k == 1:
            reduced = dict(zip(span.pivots, span.rows))
        else:
            level_rows = rlat._level_rows(self.sub)
            rows = (lay.pack_sparse(level_rows[i]) for i in self.entered)
            pivots, _ = unit_pivot_rows(rows, lay, p, rank)
            reduced = {c: lay.unpack(row) for c, row in pivots.items()}
        if len(reduced) != rank:
            raise PropertyViolation(
                f"the relation rows over Z/{p}^{k} reach {len(reduced)} unit pivots, "
                f"not the level's {rank} = r - f - t_p")
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
    Each F_q rank is one ModpSpan of the rows mod q.  When q is the one
    prime dividing |D|, the level keeps that span and the indices of the
    rows that raised its dimension, for Coinvariants.over.
    """
    tbl, r = rlat.tbl, rlat.rank
    free = (rlat.pres.ngens - 1) * (tbl.order // sub.order) + 1
    ell = next(q for q in itertools.count(2) if is_prime(q) and tbl.order % q)
    if (dim := r - modp_rank(rlat.relation_rows(sub, ell), r, ell)) != free:
        raise PropertyViolation(
            f"the level of a subgroup of order {sub.order} has F_{ell} dimension "
            f"{dim}, not Gaschutz's free rank {free}")
    parts, primes = [], _primes_dividing(sub.order)
    span, entered = None, ()
    for q in primes:
        q_span, picks = ModpSpan(r, q), []
        for i, v in enumerate(rlat.relation_rows(sub, q)):
            if v and q_span.add(v):
                picks.append(i)
        t = (dim := r - q_span.dim) - free
        if t < 0:
            raise PropertyViolation(
                f"the level of a subgroup of order {sub.order} has F_{q} dimension "
                f"{dim}, below Gaschutz's free rank {free}")
        if t:
            n = next(e for e in itertools.count(1) if q ** e > sub.order)
            z, exps = local_smith_exponents(rlat.relation_rows(sub, q ** n), r, q, n)
            if (z, len(exps)) != (free, t):
                raise PropertyViolation(
                    f"the local Smith form over Z/{q}^{n} of a level leaves {z} free and "
                    f"{len(exps)} cyclic summands, not {free} and {t}")
            parts.append([q ** e for e in exps])
        if len(primes) == 1:
            span, entered = q_span, tuple(picks)
    return Coinvariants(combine_primary(free, parts), sub, rlat, span, entered)


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

    The chain D_1 >= D_2 >= ... is the Jennings recursion's, certified
    against the powers of Delta by one adapted basis
    (groupring.dimension_subgroup_chain; a chain it cannot prove is a hard
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


def _bar_rows(tbl: FiniteGroupTable, gens: list[int], tree: dict[int, tuple[int, int]],
              modulus: int) -> Iterator[int]:
    """The distinct nonzero rows T(g,h,x) of bar_h2 facts 1-2 on the
    generator-block columns, [g|gens[i]] at (g-1)*|X| + i, packed in
    fp_rows((n-1)*|X|, modulus).  For each g in turn, cg[q] is [g|q] modulo
    the tree pivots, filled in the tree's BFS order from g's table row."""
    n, mult, k = tbl.order, tbl.mult, len(gens)
    lay = fp_rows((n - 1) * k, modulus)
    col = [[0] * k] + [[lay.unit((g - 1) * k + i) for i in range(k)] for g in range(1, n)]
    seen = set()
    for g in range(1, n):
        g_row, cg = mult[g], [0] * n
        for q, (p, i) in itertools.islice(tree.items(), 1, None):
            # [g|px] = [g|p] + [gp|x] - [p|x], and [g|x] itself when p = 1
            cg[q] = lay.sub(lay.add(cg[p], col[g_row[p]][i]), col[p][i]) if p else col[g][i]
        for h in range(1, n):
            h_row = mult[h]
            for i, x in enumerate(gens):
                # T(g,h,x) = [h|x] - [gh|x] + [g|hx] - [g|h]
                v = lay.sub(lay.add(cg[h_row[x]], col[h][i]), lay.add(cg[h], col[g_row[h]][i]))
                if v and v not in seen:
                    seen.add(v)
                    yield v


def bar_h2(tbl: FiniteGroupTable) -> AbelianInvariants:
    """H2(G,Z) = ker d2 / im d3 of the normalized integral bar complex, read
    one prime at a time with no integer Smith form.

    Independent of the presentation and of everything Fox-derivative
    shaped.  [g|h] with g or h = 1 is zero, d2[g|h] = [h] - [gh] + [g] and
    T(g,h,k) = d3[g|h|k] = [h|k] - [gh|k] + [g|hk] - [g|h], which vanishes
    when g, h or k is 1.  X is the distinct non-identity generator images;
    in the BFS tree of right multiplication by X from 1 every q != 1 is
    px for its parent p and some x in X.  If the tree misses an element,
    PropertyViolation: the argument below needs X to generate G.

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
       (n-1)*|X| generator-block columns, n = |G|.  The other rows,
       written there, are _bar_rows.
    3. Rank: d1 = 0 with trivial coefficients, so C1 / im d2 = H1(G) =
       G_ab, of order dividing n.  Modulo im d3 (in ker d2) every [g|h] is
       a combination of generator-block columns, so the rows d2[g|x] span
       im d2; for ell, the least prime not dividing n, their F_ell rank
       must be n - 1.  Then im d2 = Z^(n-1), and on the generator-block
       columns K = ker d2 is saturated of rank m = (n-1)(|X|-1).  The
       substitution keeps d2, so the rows lie in K, H2 = K / span(rows)
       and coker d3 = H2 + Z^(n-1).
    4. Primes: over every F_q the rows' rank is at most dim K/qK = m, and
       H2's q-part has m - rank cyclic factors.  |G| kills H2 (Brown,
       Cohomology of Groups, 1982, III.10), so the F_ell rank must reach m
       (the rank identity: H2 is finite), and for each p dividing n the
       rows mod p are read only until their rank reaches m.  Short of it
       by t_p, the local Smith form over Z/p^N, p^N > n, must leave n - 1
       free summands and t_p cyclic ones, H2's p-part.  Each failed check
       is a PropertyViolation, never an assert.
    """
    n = tbl.order
    if n == 1:
        return AbelianInvariants(0, ())
    mult, gens = tbl.mult, sorted({x for x in tbl.gen_images if x})
    tree: dict[int, tuple[int, int]] = {0: (0, -1)}  # q -> (parent, generator slot)
    frontier = [0]
    for p in frontier:
        for i, x in enumerate(gens):
            if (q := mult[p][x]) not in tree:
                tree[q] = (p, i)
                frontier.append(q)
    if len(tree) != n:
        raise PropertyViolation(f"generator images reach {len(tree)} of {n} elements; "
                                "the bar rows would not span im d3")
    ell = next(q for q in itertools.count(2) if is_prime(q) and n % q)
    lay = fp_rows(n - 1, ell)  # [h] at slot h - 1; [1] is not a column
    d2 = (lay.pack_sparse([(h - 1, e) for h, e in ((g, 1), (x, 1), (mult[g][x], -1)) if h])
          for g in range(1, n) for x in gens)
    if modp_rank(d2, n - 1, ell, n - 1) != n - 1:
        raise PropertyViolation("bar route gives an infinite G_ab")
    width, m = (n - 1) * len(gens), (n - 1) * (len(gens) - 1)
    if modp_rank(_bar_rows(tbl, gens, tree, ell), width, ell, m) != m:
        raise PropertyViolation("bar complex rank identity fails; H2 would not be finite")
    parts = []
    for p in _primes_dividing(n):
        t = m - modp_rank(_bar_rows(tbl, gens, tree, p), width, p, m)
        if t:
            N = next(e for e in itertools.count(1) if p ** e > n)
            z, exps = local_smith_exponents(_bar_rows(tbl, gens, tree, p ** N), width, p, N)
            if (z, len(exps)) != (n - 1, t):
                raise PropertyViolation(
                    f"the local Smith form over Z/{p}^{N} of the bar complex leaves {z} free "
                    f"and {len(exps)} cyclic summands, not {n - 1} and {t}")
            parts.append([p ** e for e in exps])
    return combine_primary(0, parts)


# The pipeline's bar gate is analysis.BAR_BOUND; bench/freeze.py still reads
# it under this name.  Imported last, because analysis imports this module.
from .analysis import BAR_BOUND as DEFAULT_BAR_BOUND  # noqa: E402,F401
