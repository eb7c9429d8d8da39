"""The relation module and what it decides.

relation_lattice() embeds R/[R,R] into (ZG)^|X| by Fox derivative rows and
certifies the embedding three ways (rank law, G-stability, exactness
against the kernel of (ZG)^|X| -> IG).  coinvariants() quotients by the
(d-1)-action of a subgroup.  qr_check_full() walks the dimension-subgroup
chain and decides quasirationality at p.  hopf_h2() and bar_h2() compute
the Schur multiplier by two routes that share no code above the integer
kernels and must agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PropertyViolation
from .errors import BudgetExceeded
from .enumeration import FiniteGroupTable, Subgroup
from .groupring import (
    dimension_subgroup_chain,
    fox_rows,
    jennings_series,
    left_translate,
)
from .intlinalg import (
    AbelianInvariants,
    Lattice,
    lattice_from_rows,
    lattice_quotient,
    left_kernel,
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
    vector of the i-th partial derivative.
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

    def lattice(self) -> Lattice:
        return lattice_from_rows(self.ambient, self.basis)

    def translate(self, g: int, vec) -> list[int]:
        """Diagonal left action of the group element g, block by block."""
        n = self.tbl.order
        out: list[int] = []
        for i in range(self.pres.ngens):
            out.extend(left_translate(self.tbl, g, vec[i * n:(i + 1) * n]))
        return out


def relation_lattice(pres: Presentation, tbl: FiniteGroupTable) -> RelationLattice:
    """Build and certify the relation lattice.

    Certification: rank |G|(|X|-1)+1, stability under every group element,
    and equality with ker((ZG)^|X| -> IG), the Crowell-Lyndon exactness.
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
    for g in range(n):
        for row in rl.basis:
            if rl.translate(g, row) not in lat:
                raise PropertyViolation("relation lattice is not G-stable")
    # exactness: the lattice is exactly the kernel of (a_i) -> sum a_i (x_i - 1)
    aug_map = []
    for i in range(ngens):
        img = tbl.gen_images[i]
        for h in range(n):
            col = [0] * n
            col[tbl.mult[h][img]] += 1
            col[h] -= 1
            aug_map.append(col)
    kern = lattice_from_rows(ambient, left_kernel(aug_map, width=n))
    if not kern.equals(lat):
        raise PropertyViolation("relation lattice != kernel of the Crowell-Lyndon map")
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
    relation_rows: tuple[tuple[int, ...], ...]


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
        return Coinvariants(AbelianInvariants(r, ()), r, (), ident, ident, ())
    D, _, V, Vinv = smith_normal_form(rel_rows)
    divisors = tuple(d for d in D.diagonal() if d)
    torsion = tuple(d for d in divisors if d > 1)
    inv = AbelianInvariants(r - len(divisors), torsion)
    return Coinvariants(inv, r, divisors, V.entries, Vinv.entries,
                        tuple(tuple(row) for row in rel_rows))


# ---------------------------------------------------------------------------
# quasirationality

@dataclass(frozen=True)
class LevelResult:
    level: int
    subgroup_order: int
    quotient_order: int
    invariants: AbelianInvariants
    p_torsion: tuple[int, ...]


@dataclass(frozen=True)
class QRReport:
    prime: int
    quasirational: bool
    witness_level: int | None
    levels: tuple[LevelResult, ...]
    cutoff: int
    cutoff_reason: str
    g_coinvariants: AbelianInvariants


def qr_check_full(pres: Presentation, tbl: FiniteGroupTable, p: int) -> QRReport:
    """Decide quasirationality at p by checking every filtration level.

    The chain D_1 >= D_2 >= ... is computed from the Delta powers and
    cross-checked against the Jennings recursion (disagreement is a hard
    failure).  D_n = 1 from the cutoff on, where the coinvariants are the
    full lattice, torsion-free; so finitely many levels decide all n.
    The level-1 quotient is R/[R,F]; its p-torsion must match the verdict
    (torsion-free R/[R,F] iff quasirational), else PropertyViolation.
    """
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
    rlat = relation_lattice(pres, tbl)
    levels = []
    witness = None
    for lvl, sub in enumerate(chain, start=1):
        coin = coinvariants(rlat, sub)
        tor = p_torsion(coin.invariants, p)
        levels.append(
            LevelResult(lvl, sub.order, tbl.order // sub.order, coin.invariants, tor)
        )
        if tor and witness is None:
            witness = lvl
    quasirational = witness is None
    level1_clean = not levels[0].p_torsion
    if level1_clean != quasirational:
        raise PropertyViolation(
            f"level-1 coinvariants contradict the per-level verdict at p={p}: "
            f"R/[R,F] torsion-free={level1_clean} but quasirational={quasirational}"
        )
    cutoff = len(chain)
    reason = (
        f"D_{cutoff} is trivial, so for n >= {cutoff} the level-n module is the "
        f"full relation lattice, a free Z-module; no further level can carry torsion"
    )
    return QRReport(
        prime=p,
        quasirational=quasirational,
        witness_level=witness,
        levels=tuple(levels),
        cutoff=cutoff,
        cutoff_reason=reason,
        g_coinvariants=levels[0].invariants,
    )


# ---------------------------------------------------------------------------
# Schur multiplier, two routes

def gab_invariants(pres: Presentation) -> AbelianInvariants:
    """G_ab from the Smith form of the relator exponent matrix."""
    return lattice_quotient(pres.ngens, pres.relator_exponent_matrix())


def hopf_h2(rlat: RelationLattice) -> AbelianInvariants:
    """H2(G,Z) as the torsion of R/[R,F] (Hopf's formula for finite G).

    Also certifies coker(R/[R,F] -> Z^|X|) = G_ab: the cokernel computed
    from block augmentations of the lattice basis must match the Smith
    invariants of the relator exponent matrix.
    """
    full = Subgroup(tuple(range(rlat.tbl.order)), rlat.tbl.gen_images)
    coin = coinvariants(rlat, full)
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


def _cokernel_invariants_sparse(rows: list[dict[int, int]], ncols: int):
    """(free_rank, torsion, image_rank) of Z^ncols / row span.

    Unit-pivot elimination first: a row with a +-1 entry lets us quotient
    away one coordinate with no change to the cokernel.  The small residue
    goes through the dense Smith form.
    """
    live: dict[int, dict[int, int]] = {}
    col_index: dict[int, set[int]] = {c: set() for c in range(ncols)}
    seen = set()
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        if not row:
            continue
        key = tuple(sorted(row.items()))
        if key in seen:
            continue
        seen.add(key)
        rid = len(live)
        live[rid] = dict(row)
        for c in row:
            col_index[c].add(rid)
    eliminated = 0
    removed_cols: set[int] = set()
    progress = True
    while progress:
        progress = False
        for c in range(ncols):
            if c in removed_cols:
                continue
            occupants = col_index[c]
            pivot = None
            for rid in occupants:
                v = live[rid][c]
                if v in (1, -1):
                    key = (len(live[rid]), rid)
                    if pivot is None or key < pivot[0]:
                        pivot = (key, rid, v)
            if pivot is None:
                continue
            _, prid, pval = pivot
            prow = live[prid]
            for rid in list(occupants):
                if rid == prid:
                    continue
                row = live[rid]
                f = row[c] * pval  # row[c]/pval: row -= f*prow zeroes row[c]
                for cc, vv in prow.items():
                    nv = row.get(cc, 0) - f * vv
                    if nv:
                        row[cc] = nv
                        col_index[cc].add(rid)
                    elif cc in row:
                        del row[cc]
                        col_index[cc].discard(rid)
                if not row:
                    del live[rid]
            for cc in prow:
                col_index[cc].discard(prid)
            del live[prid]
            removed_cols.add(c)
            eliminated += 1
            progress = True
    remaining_cols = sorted(c for c in range(ncols) if c not in removed_cols)
    col_pos = {c: i for i, c in enumerate(remaining_cols)}
    dense = []
    dense_seen = set()
    for row in live.values():
        v = [0] * len(remaining_cols)
        for c, val in row.items():
            v[col_pos[c]] = val
        key = tuple(v)
        if key not in dense_seen and any(v):
            dense_seen.add(key)
            dense.append(v)
    if dense:
        D, _, _, _ = smith_normal_form(dense)
        divisors = [d for d in D.diagonal() if d]
    else:
        divisors = []
    image_rank = eliminated + len(divisors)
    free_rank = ncols - image_rank
    torsion = tuple(d for d in divisors if d > 1)
    return free_rank, torsion, image_rank


def bar_h2(tbl: FiniteGroupTable, bound: int = DEFAULT_BAR_BOUND) -> AbelianInvariants:
    """H2(G,Z) = ker d2 / im d3 of the normalized integral bar complex.

    Since H2 of a finite group is finite, ker d2 / im d3 equals the torsion
    of coker d3; finiteness is certified by the rank identity
    free_rank(coker d3) == rank(d2), asserted below.  Independent of the
    presentation and of everything Fox-derivative shaped.
    """
    n = tbl.order
    if n > bound:
        raise BudgetExceeded(f"bar resolution bound {bound} exceeded (order {n})")
    if n == 1:
        return AbelianInvariants(0, ())
    m = n - 1  # non-identity elements index 1..n-1; [g] with g=0 is pruned

    def c2(g, h):
        return (g - 1) * m + (h - 1)

    rows = []
    mult = tbl.mult
    for g in range(1, n):
        for h in range(1, n):
            gh_row = mult[g]
            for k in range(1, n):
                d: dict[int, int] = {}
                for a, b, s in (
                    (h, k, 1),
                    (gh_row[h], k, -1),
                    (g, mult[h][k], 1),
                    (g, h, -1),
                ):
                    if a and b:
                        idx = c2(a, b)
                        d[idx] = d.get(idx, 0) + s
                rows.append(d)
    free_rank, torsion, _ = _cokernel_invariants_sparse(rows, m * m)
    d2 = Lattice(m)
    for g in range(1, n):
        for h in range(1, n):
            vec = [0] * m
            vec[g - 1] += 1
            vec[h - 1] += 1
            gh = mult[g][h]
            if gh:
                vec[gh - 1] -= 1
            d2.add(vec)
    if free_rank != d2.rank:
        raise AssertionError(
            "bar complex rank identity fails; H2 would not be finite"
        )
    return AbelianInvariants(0, torsion)
