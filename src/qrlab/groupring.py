"""Group ring arithmetic, the augmentation filtration, and its subgroups.

Elements of ZG or (Z/m)G are coefficient vectors indexed by the table's
canonical element order.  Two independent routes to the same filtration
live here: dimension_subgroup_chain() reads D_n = {g : g - 1 in Delta^n}
off the augmentation-ideal powers, jennings_series() runs the recursion
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

The chain takes the powers one at a time and stops at the first trivial
D_n, long before Delta^N = 0 on a cyclic group.  Each D_n is read off
D_(n-1): its generators are tested first, and where they all pass the term
repeats as the same object; otherwise D_(n-1) is walked one coset of the
part found so far at a time.  Jennings' theorem then predicts every power's
dimension from the chain (the Hilbert series of the graded group algebra),
and each power the chain built must have it.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice

from .errors import InputError, PropertyViolation
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

def _delta_powers(tbl: FiniteGroupTable, p: int) -> Iterator[ModpSpan]:
    """Delta^1, Delta^2, ... over F_p, each power built only when asked for.

    Delta^1 is spanned by the g - 1.  Delta is generated as a right ideal by
    the x - 1 for x a generator image, because gh - 1 = (g - 1)h + (h - 1);
    so Delta^(n+1) = sum_x (x - 1)*F_pG*Delta^n = sum_x (x - 1)*Delta^n is
    spanned by the (x - 1)*w for w any basis of Delta^n.  The tower works on
    packed rows throughout: w runs over Delta^n's packed semi-echelon rows,
    and x*w is one byte gather by the permutation h -> xh.

    Ends after the first zero span (Delta^1 itself for the trivial group),
    or after Delta^(n+1) = Delta^n (from there on the chain is constant:
    Delta^(n+2) = Delta*Delta^(n+1) = Delta*Delta^n = Delta^(n+1)).  For
    p-groups the chain reaches 0.
    """
    n = tbl.order
    gens = list(dict.fromkeys(x for x in tbl.gen_images if x))
    prev = ModpSpan(n, p)
    lay = prev.layout
    for g in range(1, n):
        prev.add(lay.sub(lay.unit(g), lay.unit(0)))
    yield prev
    # slot k of x*w holds w's slot x^-1 k
    shifts = [lay.permutation(tbl.mult[tbl.inv[x]]) for x in gens]
    while prev.dim:
        nxt = ModpSpan(n, p)
        for shift in shifts:
            for w in prev.packed:
                nxt.add(lay.sub(shift(w), w))
                if nxt.dim == prev.dim:
                    break
            if nxt.dim == prev.dim:
                break
        yield nxt
        if nxt.dim == prev.dim:
            return
        prev = nxt


def delta_filtration(tbl: FiniteGroupTable, p: int, max_n: int | None = None) -> list[ModpSpan]:
    """Echelonized bases of Delta^1, Delta^2, ... over F_p (see _delta_powers
    for the step and the stopping rule), at most max_n of them."""
    return list(islice(_delta_powers(tbl, p), max_n))


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


def _next_dimension_subgroup(tbl: FiniteGroupTable, span: ModpSpan, prev: Subgroup) -> Subgroup:
    """{g in prev : g - 1 in span}, for span = Delta^n and prev = D_(n-1).

    These g form a subgroup: gh - 1 = (g - 1)h + (h - 1).  When every
    generator of prev passes, the answer is prev itself.  Otherwise prev is
    walked in member order against the subgroup H found so far: a passing g
    joins H (its closure is grown at once), and a failing g rules out g*H,
    since gh in D_n would put g = gh*h^-1 in D_n.  The g that join H are the
    members of the answer not in the closure of those before them, so they
    are its greedy generators in member order, as _generators_for picks them.
    """
    lay = span.layout
    one = lay.unit(0)

    def passes(g: int) -> bool:
        return span.contains(lay.sub(lay.unit(g), one))

    if all(passes(g) for g in prev.generators):
        return prev
    mult = tbl.mult
    inside, gens, failed, out = {0}, [], [], set()
    for g in prev.members:
        if g in inside or g in out:
            continue
        if not passes(g):
            failed.append(g)
            out.update(mult[g][h] for h in inside)
            continue
        gens.append(g)
        frontier = list(inside)  # H grows to <H, g>: close under the gens so far
        new = []
        for x in frontier:
            for y in gens:
                z = mult[x][y]
                if z not in inside:
                    inside.add(z)
                    new.append(z)
                    frontier.append(z)
        out.update(mult[f][h] for f in failed for h in new)
    return Subgroup(tuple(sorted(inside)), tuple(gens))


def _jennings_delta_dims(chain: list[Subgroup], p: int) -> list[int]:
    """dim Delta^1, dim Delta^2, ... (down to 0) as Jennings' theorem
    predicts them from the dimension subgroups: the graded algebra of F_pG
    has Hilbert series prod_k ((1 - t^(pk)) / (1 - t^k))^(e_k), with
    e_k = log_p |D_k : D_(k+1)|, and dim Delta^n is the sum of its
    coefficients of degree >= n."""
    series = [1]
    for k, (hi, lo) in enumerate(zip(chain, chain[1:]), start=1):
        index = hi.order // lo.order
        while index > 1:
            index //= p
            # times 1 + t^k + ... + t^((p-1)k)
            grown = [0] * (len(series) + (p - 1) * k)
            for j in range(p):
                for d, c in enumerate(series):
                    grown[d + j * k] += c
            series = grown
    tails, acc = [], 0
    for c in reversed(series[1:]):
        acc += c
        tails.append(acc)
    return tails[::-1] + [0]


def dimension_subgroup_chain(tbl: FiniteGroupTable, p: int) -> list[Subgroup]:
    """D_1 (= G), D_2, ... down to and including the first trivial term.

    The Delta powers are built one at a time, and the tower stops at the
    first n with D_n = 1 (on C_(p^k) that is n = p^(k-1) + 1, not |G|).
    Delta^n lies in Delta^(n-1), so D_n lies in D_(n-1): each term is read
    off the one before by _next_dimension_subgroup, which tests the
    generators of D_(n-1) first and returns that very object when they
    all pass.

    Two checks raise PropertyViolation: a power that does not shrink
    before D_n = 1 (Delta is nilpotent on a p-group), and a power whose
    dimension is not the one Jennings' Hilbert series predicts from the
    chain just read (_jennings_delta_dims).
    """
    require_p_group(tbl.order, p,
                    f"dimension subgroups over F_{p} need a {p}-group; order is {tbl.order}")
    chain = [subgroup_closure(tbl, tbl.gen_images)]
    if tbl.order == 1:
        return chain
    powers = _delta_powers(tbl, p)
    dims = [next(powers).dim]
    for span in powers:
        if span.dim >= dims[-1]:
            raise PropertyViolation(
                f"Delta^{len(dims) + 1} does not shrink at p={p} before D_n = 1")
        dims.append(span.dim)
        chain.append(_next_dimension_subgroup(tbl, span, chain[-1]))
        if chain[-1].order == 1:
            break
    predicted = _jennings_delta_dims(chain, p)
    # dims[0] = |G| - 1 against |G : D_last| - 1: a chain that stopped
    # short of 1 fails here too
    if dims != predicted[:len(dims)]:
        raise PropertyViolation(
            f"Delta power dimensions {dims} at p={p} are not the Jennings "
            f"Hilbert series' {predicted[:len(dims)]}")
    return chain


def _normal_closure(tbl: FiniteGroupTable, gens) -> list[int]:
    """Generators of the normal closure of gens.  A subgroup is normal when it
    holds x h x^-1 for each of its generators h and each generator image x
    (conjugation by x^-1 is a power of that by x), so each conjugate of a
    generator that falls outside joins the generators, and the subgroup is
    closed again."""
    images = sorted(set(tbl.gen_images))
    members, have, pending = {0}, [], list(gens)
    while pending:
        g = pending.pop()
        if g in members:
            continue
        have.append(g)
        frontier = list(members)
        for x in frontier:
            for h in have:
                y = tbl.mult[x][h]
                if y not in members:
                    members.add(y)
                    frontier.append(y)
        pending.extend(tbl.conj(x, g) for x in images)
    return have


def jennings_series(tbl: FiniteGroupTable, p: int) -> list[Subgroup]:
    """Independent oracle for the same chain, from the Jennings recursion
    D_n = [D_(n-1), G] * (D_ceil(n/p))^p.

    [N, G], for N = <A> normal and G = <X>, is the normal closure of the
    [a, x], a in A, x in X: so the commutator term is grown from the
    generators of D_(n-1) and the generator images alone.  The p-th powers
    run over every member of D_ceil(n/p).  A term is built once per
    distinct pair (D_(n-1), D_ceil(n/p)); a repeated pair reuses it.
    """
    require_p_group(tbl.order, p,
                    f"Jennings series over F_{p} needs a {p}-group; order is {tbl.order}")
    full = subgroup_closure(tbl, tbl.gen_images)
    chain = [full]
    if tbl.order == 1:
        return chain
    images = sorted(set(tbl.gen_images))
    built: dict[tuple[tuple[int, ...], tuple[int, ...]], Subgroup] = {}
    guard = 0
    while chain[-1].order > 1:
        n = len(chain) + 1
        prev = chain[-1]
        frac = chain[(n + p - 1) // p - 1]  # D_ceil(n/p)
        key = (prev.members, frac.members)
        if key not in built:
            gens = set(_normal_closure(tbl, [tbl.mult[tbl.conj(d, x)][tbl.inv[x]]
                                             for d in prev.generators for x in images]))
            gens.update(tbl.power(d, p) for d in frac.members)
            gens.discard(0)
            built[key] = subgroup_closure(tbl, gens)
        chain.append(built[key])
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
