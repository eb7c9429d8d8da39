"""Group ring arithmetic, the augmentation filtration, and its subgroups.

Elements of ZG or (Z/m)G are coefficient vectors indexed by the table's
canonical element order.  Two independent routes to the same filtration
live here: dimension_subgroup() reads D_n = {g : g - 1 in Delta^n} off the
augmentation-ideal powers, jennings_series() runs the recursion
D_n = [D_{n-1}, G] * (D_ceil(n/p))^p on the bare multiplication table.
Agreement of the two is asserted by callers, not assumed.

The powers of Delta are spanned from the generator images alone.  Since
gh - 1 = (g - 1)h + (h - 1), Delta is generated as a right ideal by the
x - 1 with x a generator image, so
Delta^(n+1) = Delta*Delta^n = sum_x (x - 1)*F_pG*Delta^n = sum_x (x - 1)*Delta^n.
Each power is a ModpSpan, and the tower never leaves its packed rows
(intlinalg.FpRows): x*w is a byte permutation of w, x*w - w one slotwise
subtraction, and g - 1 is tested for membership without unpacking.  The
reduced echelon form of a power is built only if someone reads it.
"""

from __future__ import annotations

from .errors import InputError
from .enumeration import FiniteGroupTable, Subgroup, subgroup_closure, prime_power
from .intlinalg import ModpSpan
from .presentation import Presentation


def right_translate(tbl: FiniteGroupTable, vec, g: int) -> list[int]:
    """v * g: coefficient of h moves to h*g."""
    out = [0] * tbl.order
    for h, c in enumerate(vec):
        if c:
            out[tbl.mult[h][g]] = c
    return out


# ---------------------------------------------------------------------------
# augmentation filtration

def delta_filtration(tbl: FiniteGroupTable, p: int, max_n: int | None = None) -> list[ModpSpan]:
    """Echelonized bases of Delta^1, Delta^2, ... over F_p.

    Delta^1 is spanned by the g - 1.  Delta is generated as a right ideal by
    the x - 1 for x a generator image, because gh - 1 = (g - 1)h + (h - 1);
    so Delta^(n+1) = sum_x (x - 1)*F_pG*Delta^n = sum_x (x - 1)*Delta^n is
    spanned by the (x - 1)*w for w any basis of Delta^n.  The tower works on
    packed rows throughout: w runs over Delta^n's packed semi-echelon rows,
    and x*w is one byte gather by the permutation h -> xh.

    Stops at the first zero span (Delta^1 itself for the trivial group),
    after Delta^n = Delta^(n+1) (from there on the chain is constant:
    Delta^(n+2) = Delta*Delta^(n+1) = Delta*Delta^n = Delta^(n+1)), or after
    max_n steps.  For p-groups the chain reaches 0.
    """
    n = tbl.order
    gens = list(dict.fromkeys(x for x in tbl.gen_images if x))
    spans: list[ModpSpan] = []
    delta1 = ModpSpan(n, p)
    lay = delta1.layout
    for g in range(1, n):
        delta1.add(lay.sub(lay.unit(g), lay.unit(0)))
    spans.append(delta1)
    # slot k of x*w holds w's slot x^-1 k
    shifts = [lay.permutation(tbl.mult[tbl.inv[x]]) for x in gens]
    while spans[-1].dim and (max_n is None or len(spans) < max_n):
        prev = spans[-1]
        nxt = ModpSpan(n, p)
        for shift in shifts:
            for w in prev.packed:
                nxt.add(lay.sub(shift(w), w))
                if nxt.dim == prev.dim:
                    break
            if nxt.dim == prev.dim:
                break
        spans.append(nxt)
        if nxt.dim == prev.dim:
            break
    return spans


def delta_dimension_sequence(tbl: FiniteGroupTable, p: int) -> list[int]:
    """dims of Delta^1, Delta^2, ... down to 0 or to the stable value."""
    return [s.dim for s in delta_filtration(tbl, p)]


def require_p_group(order: int, p: int, message: str) -> None:
    """Raise InputError(message) unless order is a power of p (1 included)."""
    pp = prime_power(order)
    if order > 1 and (pp is None or pp[0] != p):
        raise InputError(message)


def _generators_for(tbl: FiniteGroupTable, members: list[int]) -> tuple[int, ...]:
    gens: list[int] = []
    have = {0}
    for x in members:
        if x not in have:
            gens.append(x)
            have = set(subgroup_closure(tbl, tuple(gens)).members)
    return tuple(gens)


def _dimension_members(tbl: FiniteGroupTable, span: ModpSpan, candidates) -> list[int]:
    """The g among the candidates with g - 1 in the span."""
    lay = span.layout
    return [g for g in candidates if span.contains(lay.sub(lay.unit(g), lay.unit(0)))]


def dimension_subgroup(tbl: FiniteGroupTable, p: int, n: int) -> Subgroup:
    """D_n = {g : g - 1 in Delta^n(F_p G)}.  Requires |G| = p^a."""
    require_p_group(tbl.order, p,
                    f"dimension subgroups over F_{p} need a {p}-group; order is {tbl.order}")
    if n < 1:
        raise InputError("Delta power index must be >= 1")
    if n == 1:
        return subgroup_closure(tbl, tbl.gen_images)
    spans = delta_filtration(tbl, p, max_n=n)
    # a shorter list means the chain went constant (or hit 0) before n
    members = _dimension_members(tbl, spans[-1], range(tbl.order))
    return Subgroup(tuple(members), _generators_for(tbl, members))


def dimension_subgroup_chain(tbl: FiniteGroupTable, p: int) -> list[Subgroup]:
    """D_1 (= G), D_2, ... down to and including the first trivial term.

    Delta^n lies in Delta^(n-1), so D_n lies in D_(n-1) and only the members
    of the previous term are tested.
    """
    require_p_group(tbl.order, p,
                    f"dimension subgroups over F_{p} need a {p}-group; order is {tbl.order}")
    chain = [subgroup_closure(tbl, tbl.gen_images)]
    if tbl.order == 1:
        return chain
    spans = delta_filtration(tbl, p)
    if spans[-1].dim != 0:
        raise AssertionError("augmentation filtration of a p-group did not reach 0")
    n = 2
    while True:
        span = spans[min(n, len(spans)) - 1]
        members = _dimension_members(tbl, span, chain[-1].members)
        chain.append(Subgroup(tuple(members), _generators_for(tbl, members)))
        if len(members) == 1:
            return chain
        n += 1


def jennings_series(tbl: FiniteGroupTable, p: int) -> list[Subgroup]:
    """Independent oracle for the same chain, from the Jennings recursion."""
    require_p_group(tbl.order, p,
                    f"Jennings series over F_{p} needs a {p}-group; order is {tbl.order}")
    full = subgroup_closure(tbl, tbl.gen_images)
    chain = [full]
    if tbl.order == 1:
        return chain
    guard = 0
    while chain[-1].order > 1:
        n = len(chain) + 1
        prev = chain[-1]
        frac = chain[(n + p - 1) // p - 1]  # D_ceil(n/p)
        gens = set()
        for d in prev.members:
            for g in range(tbl.order):
                gens.add(tbl.mult[tbl.mult[tbl.mult[d][g]][tbl.inv[d]]][tbl.inv[g]])
        for d in frac.members:
            gens.add(tbl.power(d, p))
        gens.discard(0)
        chain.append(subgroup_closure(tbl, tuple(sorted(gens))))
        guard += 1
        if guard > 2 * tbl.order + 4:
            raise AssertionError("Jennings recursion did not terminate")
    return chain


# ---------------------------------------------------------------------------
# Fox derivative rows

def fox_rows(pres: Presentation, tbl: FiniteGroupTable) -> list[list[int]]:
    """One integer row per relator: the images pi(dr/dx_i) laid out as
    |X| consecutive blocks of length |G|.

    Product rule dr(uv) = dr(u) + u*dr(v), with d(x)/dx = 1 and
    d(x^-1)/dx = -x^-1.  The fundamental identity
    sum_i pi(dr/dx_i) (pi(x_i) - 1) = pi(r) - 1 = 0 is asserted per row.
    """
    ngens = pres.ngens
    n = tbl.order
    rows = []
    for r in pres.relators:
        row = [0] * (ngens * n)
        prefix = 0
        for g, s in r:
            img = tbl.gen_images[g]
            if s > 0:
                row[g * n + prefix] += 1
                prefix = tbl.mult[prefix][img]
            else:
                prefix = tbl.mult[prefix][tbl.inv[img]]
                row[g * n + prefix] -= 1
        if prefix != 0:
            raise AssertionError("relator image is not the identity")
        total = [0] * n
        for g in range(ngens):
            block = row[g * n:(g + 1) * n]
            shifted = right_translate(tbl, block, tbl.gen_images[g])
            for k in range(n):
                total[k] += shifted[k] - block[k]
        if any(total):
            raise AssertionError("Fox fundamental identity fails")
        rows.append(row)
    return rows
