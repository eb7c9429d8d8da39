"""The relation module and what it decides.

relation_lattice() embeds R/[R,R] into (ZG)^|X| by Fox derivative rows and
certifies the embedding three ways, each from the generator images alone:
the rank law, stability under the distinct generator images, and
exactness against the kernel of (ZG)^|X| -> IG, which is the cycle space
of the right Cayley graph and has the fundamental cycles of a spanning
tree as a basis.  The lattice keeps what certification solved: one
cached Lattice and the coordinates of x * basis per generator image x,
both read-only, which coinvariants() and every level module read.
coinvariants() quotients by the (d-1)-action of a subgroup.  qr_check()
walks the dimension-subgroup chain and decides quasirationality at p; its
report keeps the lattice and each level's subgroup and coinvariants for
the equivalence harness.
hopf_h2() and bar_h2() compute the Schur multiplier by two routes that
share no code above the integer kernels and must agree.

bar_h2() needs no row beyond T(g,h,x) = d3[g|h|x] for x a generator
image, and no column beyond the generator block [g|x]: the rest is
substituted away along a BFS tree of right multiplication by the
generators, with unit pivots and no fill-in.  The proof is in its
docstring.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .errors import PropertyViolation
from .errors import BudgetExceeded
from .enumeration import FiniteGroupTable, Subgroup, subgroup_closure
from .groupring import (
    dimension_subgroup_chain,
    fox_rows,
    jennings_series,
    left_translate,
)
from .intlinalg import (
    AbelianInvariants,
    Lattice,
    elementary_divisors,
    lattice_from_rows,
    lattice_quotient,
    p_torsion,
    smith_normal_form,
    identity_rows,
)
from .presentation import Presentation

DEFAULT_BAR_BOUND = 32


@dataclass(frozen=True)
class RelationLattice:
    """R/[R,R] as a G-stable integer lattice in Z^(|X|*|G|).

    Basis rows are the Hermite normal form of the span of all group
    translates of the Fox rows; block i of a vector is the ZG coefficient
    vector of the i-th partial derivative.  lattice() is the Lattice
    relation_lattice() built and certified, handed over with the basis
    (rebuilt from the basis only for an instance made by hand); it and
    gen_coords are shared by every reader, so they are read-only: nothing
    may add to the Lattice or write into the rows.
    """

    pres: Presentation
    tbl: FiniteGroupTable
    basis: tuple[tuple[int, ...], ...]

    @property
    def ambient(self) -> int:
        return self.pres.ngens * self.tbl.order

    @property
    def rank(self) -> int:
        return len(self.basis)

    @functools.cached_property
    def _lattice(self) -> Lattice:
        return lattice_from_rows(self.ambient, self.basis)

    def lattice(self) -> Lattice:
        """The basis as a Lattice; read-only."""
        return self._lattice

    @functools.cached_property
    def gen_coords(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        """x -> lattice coordinates of x * basis, per distinct generator image x.

        Row i of gen_coords[x] expresses x * basis[i] in the basis, so it is
        the matrix of x on the lattice; every level module is read off these.
        PropertyViolation if a translate leaves the lattice.
        """
        lat = self.lattice()
        coords = {}
        for x in sorted(set(self.tbl.gen_images)):
            rows = [lat.coordinates(self.translate(x, row)) for row in self.basis]
            if None in rows:
                raise PropertyViolation("relation lattice is not G-stable")
            coords[x] = tuple(map(tuple, rows))
        return coords

    @functools.cached_property
    def g_coin(self) -> Coinvariants:
        """R/[R,F], the coinvariants over D_1 = G as the chain builds it.

        Built once per lattice: Hopf's H2 and level 1 of every prime read it.
        """
        return coinvariants(self, subgroup_closure(self.tbl, self.tbl.gen_images))

    def translate(self, g: int, vec) -> list[int]:
        """Diagonal left action of the group element g, block by block."""
        n = self.tbl.order
        out: list[int] = []
        for i in range(self.pres.ngens):
            out.extend(left_translate(self.tbl, g, vec[i * n:(i + 1) * n]))
        return out


def relation_lattice(pres: Presentation, tbl: FiniteGroupTable) -> RelationLattice:
    """Build and certify the relation lattice L.

    Certification, each failure a PropertyViolation:
    1. Rank law: rank L = |G|(|X|-1)+1 (skipped for a relator-free
       presentation on generators, whose group is not finite).
    2. G-stability: x * L lies in L for every distinct generator image x
       (RelationLattice.gen_coords).  A finite group is generated by the
       generator images as a monoid, so L is stable under all of G.
    3. Exactness, L = ker((ZG)^|X| -> IG), e_{i,h} -> h x_i - h.  That map
       is the boundary map of the right Cayley graph h -> h x_i, so its
       kernel is the graph's cycle space H_1 (Crowell-Lyndon), and the
       fundamental cycles of a spanning tree are a Z-basis of it.  Every
       basis row has zero boundary (L <= ker), and every fundamental cycle
       of the BFS tree from 1 lies in L (ker <= L).
    """
    n = tbl.order
    ngens = pres.ngens
    ambient = ngens * n
    lat = Lattice(ambient)
    base_rows = fox_rows(pres, tbl)
    scratch = RelationLattice(pres, tbl, ())
    for row in base_rows:
        for g in range(n):
            lat.add(scratch.translate(g, row))
    lat.canonicalize()

    expected = n * (ngens - 1) + 1
    if pres.relators or ngens == 0:
        if lat.rank != expected:
            raise PropertyViolation(
                f"relation lattice rank {lat.rank} != |G|(|X|-1)+1 = {expected}"
            )
    rl = RelationLattice(pres, tbl, tuple(tuple(r) for r in lat.basis))
    rl.__dict__["_lattice"] = lat  # the cached_property's slot: hand over, no rebuild
    rl.gen_coords  # noqa: B018 - certifies stability, kept for the level modules
    mult, images = tbl.mult, tbl.gen_images
    for row in rl.basis:
        boundary = [0] * n
        for i, x in enumerate(images):
            for h, c in enumerate(row[i * n:(i + 1) * n]):
                if c:
                    boundary[mult[h][x]] += c
                    boundary[h] -= c
        if any(boundary):
            raise PropertyViolation("a relation lattice row has nonzero Crowell-Lyndon boundary")
    # path[q]: the tree edges from 1 to q, each edge (i, h) -> h x_i at column i*n + h
    path: dict[int, list[int]] = {0: [0] * ambient}
    frontier = [0]
    for h in frontier:
        for i, x in enumerate(images):
            q = mult[h][x]
            edge = path[h][:]
            edge[i * n + h] += 1
            if q not in path:
                path[q] = edge
                frontier.append(q)
            elif [a - b for a, b in zip(edge, path[q])] not in lat:
                raise PropertyViolation("relation lattice != kernel of the Crowell-Lyndon map")
    if len(path) != n:
        raise PropertyViolation(f"generator images reach {len(path)} of {n} elements")
    return rl


@dataclass(frozen=True)
class Coinvariants:
    """Z^rank / L in Smith coordinates, L spanned by the (d-1)-relations.

    y = x * V diagonalizes: the quotient is  sum_i Z/divisors[i]  on the
    first len(divisors) coordinates (entries 1 contribute nothing) plus
    Z^(rank - len(divisors)) on the rest.  Vinv = V^-1 comes from the same
    Smith reduction and maps Smith coordinates back, x = y * Vinv.
    """

    invariants: AbelianInvariants
    rank: int
    divisors: tuple[int, ...]
    V: tuple[tuple[int, ...], ...]
    Vinv: tuple[tuple[int, ...], ...]


def coinvariants(rlat: RelationLattice, sub: Subgroup) -> Coinvariants:
    """Quotient of the relation lattice by the span of (d-1)*v, d in sub.

    Subgroup generators suffice: (de-1)v = (d-1)(ev) + (e-1)v and the
    lattice is G-stable, so the generator relations already span.
    """
    lat = rlat.lattice()
    r = rlat.rank
    rel_rows: list[list[int]] = []
    for d in sub.generators:
        if d == 0:
            continue
        for row in rlat.basis:
            moved = rlat.translate(d, row)
            vec = [a - b for a, b in zip(moved, row)]
            coords = lat.coordinates(vec)
            if coords is None:
                raise PropertyViolation("(d-1)-relation left the lattice")
            rel_rows.append(coords)
    if not rel_rows:
        ident = tuple(map(tuple, identity_rows(r)))
        return Coinvariants(AbelianInvariants(r, ()), r, (), ident, ident)
    diag, _, V, Vinv = smith_normal_form(rel_rows)
    divisors = tuple(d for d in diag if d)
    torsion = tuple(d for d in divisors if d > 1)
    inv = AbelianInvariants(r - len(divisors), torsion)
    return Coinvariants(inv, r, divisors, V, Vinv)


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

    A level's coinvariants depend on D_n alone, so they are built once per
    distinct D_n: level 1 takes rlat.g_coin, and a level whose D_n equals
    the one before (the chain is nested) shares that level's Coinvariants.
    """
    tbl = rlat.tbl
    chain = dimension_subgroup_chain(tbl, p)
    jchain = jennings_series(tbl, p)
    la = [set(s.members) for s in chain]
    lb = [set(s.members) for s in jchain]
    depth = max(len(la), len(lb))
    la += [{0}] * (depth - len(la))
    lb += [{0}] * (depth - len(lb))
    if la != lb:
        raise PropertyViolation(
            f"dimension subgroups disagree with the Jennings recursion at p={p}"
        )
    levels = []
    witness = None
    coin = rlat.g_coin
    for lvl, sub in enumerate(chain, start=1):
        if lvl > 1 and sub.members != chain[lvl - 2].members:
            coin = coinvariants(rlat, sub)
        tor = p_torsion(coin.invariants, p)
        levels.append(
            LevelResult(lvl, sub.order, tbl.order // sub.order, coin.invariants, tor,
                        sub, coin)
        )
        if tor and witness is None:
            witness = lvl
    cutoff = len(chain)
    reason = (
        f"D_{cutoff} is trivial, so for n >= {cutoff} the level-n module is the "
        f"full relation lattice, a free Z-module; no further level can carry torsion"
    )
    return QRReport(
        prime=p,
        quasirational=witness is None,
        witness_level=witness,
        levels=tuple(levels),
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

    Also certifies coker(R/[R,F] -> Z^|X|) = G_ab: the cokernel computed
    from block augmentations of the lattice basis must match the Smith
    invariants of the relator exponent matrix.
    """
    coin = rlat.g_coin
    n = rlat.tbl.order
    aug_rows = []
    for row in rlat.basis:
        aug_rows.append([sum(row[i * n:(i + 1) * n]) for i in range(rlat.pres.ngens)])
    coker = lattice_quotient(rlat.pres.ngens, aug_rows)
    gab = gab_invariants(rlat.pres)
    if coker != gab:
        raise PropertyViolation(
            f"cokernel law fails: lattice route {coker} != abelianization {gab}"
        )
    return AbelianInvariants(0, coin.invariants.torsion)


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
