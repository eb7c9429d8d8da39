"""Group ring arithmetic, the augmentation filtration, and its subgroups.

Elements of ZG or (Z/m)G are coefficient vectors indexed by the table's
canonical element order.  The dimension subgroups
D_n = {g : g - 1 in Delta^n} are proposed by the Jennings recursion
D_n = [D_(n-1), G] * (D_ceil(n/p))^p (jennings_series), run on the bare
multiplication table, and dimension_subgroup_chain() returns that very
series once it is proved right with one F_p basis of Delta adapted to
every power at once (Jennings' basis theorem): products of (g - 1) over
elements g picked along the chain, each with a weight, such that the
products of weight >= n span Delta^n for every n.  The certificate never
builds a power of Delta; see _certify_jennings_chain.  Every subgroup here
is a closure under right multiplication (enumeration.grow), G is
subgroup_closure(tbl, tbl.gen_images), and every other term carries its
greedy generators in member order (enumeration.greedy_generators).

The powers of Delta themselves stay as the oracle (delta_filtration,
`oracle delta-dims`).  Since gh - 1 = (g - 1)h + (h - 1),
Delta is generated as a right ideal by the x - 1 with x a generator
image, so
Delta^(n+1) = Delta*Delta^n = sum_x (x - 1)*F_pG*Delta^n = sum_x (x - 1)*Delta^n.
Each power is a ModpSpan, and the tower never leaves its packed rows
(intlinalg.FpRows): x*w is a byte permutation of w, x*w - w one slotwise
subtraction, and g - 1 is tested for membership without unpacking.  The
reduced echelon form of a power is built only if someone reads it.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate, islice

from .errors import InputError, PropertyViolation
from .enumeration import (
    FiniteGroupTable,
    Subgroup,
    greedy_generators,
    grow,
    prime_power,
    subgroup_closure,
)
from .intlinalg import ModpSpan, fp_rows
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
    gens = _generator_images(tbl)
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


def _generator_images(tbl: FiniteGroupTable) -> list[int]:
    """The distinct nontrivial generator images, in generator order."""
    return list(dict.fromkeys(x for x in tbl.gen_images if x))


def _jennings_picks(tbl: FiniteGroupTable, p: int,
                    terms: list[tuple[int, ...]]) -> list[tuple[int, int]]:
    """Check (a) on the member tuples J_1, J_2, ... of a candidate chain,
    and return its picks as (level k, g_(k,j)).

    J_1 must be G and the last term the first trivial one.  The picks of
    level k are chosen greedily in J_k's member order, each outside
    J_(k+1)<picks before it>; they must extend J_(k+1) to exactly J_k, with
    |J_k : J_(k+1)| = p^(number of picks).  Each failure is a
    PropertyViolation.
    """
    if len(terms[0]) != tbl.order:
        raise PropertyViolation(f"Jennings certificate (a) at p={p}: the chain does not start at G")
    if terms[-1] != (0,) or any(len(t) == 1 for t in terms[:-1]):
        raise PropertyViolation(f"Jennings certificate (a) at p={p}: the chain does not end "
                                f"at its first trivial term")
    picks = []
    for k, (hi, lo) in enumerate(zip(terms, terms[1:]), start=1):
        if hi == lo:
            continue
        inside = set(lo)
        mine = greedy_generators(tbl.mult, hi, inside)
        if inside != set(hi) or len(hi) != len(lo) * p ** len(mine):
            raise PropertyViolation(
                f"Jennings certificate (a) at p={p}: term {k} is not term {k + 1} "
                f"extended by its {len(mine)} picks with index p^{len(mine)}")
        picks += [(k, g) for g in mine]
    return picks


def _certify_jennings_chain(tbl: FiniteGroupTable, p: int,
                            terms: list[tuple[int, ...]]) -> list[int]:
    """Prove that the member tuples J_1, J_2, ... are the dimension
    subgroups D_1, D_2, ...; returns the certified dim Delta^1,
    dim Delta^2, ..., down to 0.

    The picks g_(k,j) of _jennings_picks, in level order g_1, ..., g_a,
    give |G| = p^a products P_alpha = (g_1 - 1)^alpha_1 ... (g_a - 1)^alpha_a,
    0 <= alpha_i < p, of weight w(alpha) = sum k_i*alpha_i; each is the one
    before it times (g_i - 1), one right translation and one subtraction of
    a packed row.  They go into one ModpSpan in order of decreasing weight,
    and each pivot records its product's weight, so
    W_n = span{P_alpha : w(alpha) >= n} is spanned by the rows of weight
    >= n.  Checks, each a PropertyViolation:

    (a) the chain and its picks (_jennings_picks);
    (b) the |G| - 1 nontrivial products are independent;
    (c) for each generator image x, (x - 1)*P_alpha reduces only on rows of
        weight >= w(alpha) + 1;
    (d) for each degree m >= 1, the coefficients on the weight-(m+1) rows
        collected in (c) over w(alpha) = m have rank dim W_(m+1)/W_(m+2).

    Proof.  (b) gives W_1 = Delta.  By (c) each W_m is a left ideal with
    Delta*W_m = sum_x (x - 1)*W_m inside W_(m+1); by (d)
    W_(m+1) <= Delta*W_m + W_(m+2) <= Delta*W_m + W_(m+3) <= ..., so
    W_(m+1) = Delta*W_m and W_n = Delta^n for every n.  Each g_(k,j) - 1
    is a weight-k product, so g_(k,j) lies in D_k, and from the bottom up
    J_k = J_(k+1)<picks> lies in D_k.  Down from D_1 = G = J_1: given
    D_k = J_k, g -> g - 1 is a homomorphism from J_k to
    Delta^k/Delta^(k+1) with kernel D_(k+1) meeting J_k.  The g_(k,j) - 1
    span its image and by (b) are independent modulo W_(k+1), so the
    image has order p^(number of picks) = |J_k : J_(k+1)|, and the kernel,
    which holds J_(k+1), is J_(k+1) = D_(k+1).  So the chain is certified
    whatever the recursion that proposed it.

    The normal words e_alpha = g_1^alpha_1 ... g_a^alpha_a are the |G|
    elements; the span's slot of e_alpha is |G| - 1 - (the mixed-radix
    index of alpha).  Then P_alpha leads at the slot of e_alpha with
    coefficient 1 and (b)'s inserts take no elimination step, and on a
    cyclic group each (x - 1)*P_alpha is one product.
    """
    picks = _jennings_picks(tbl, p, terms)
    n, mult, inv = tbl.order, tbl.mult, tbl.inv
    elts, weights = [0], [0]
    for k, g in picks:
        for j in range((p - 1) * len(elts)):
            elts.append(mult[elts[j]][g])
            weights.append(weights[j] + k)
    if len(set(elts)) != n:
        raise PropertyViolation(
            f"Jennings certificate (b) at p={p}: the picks do not give |G| distinct normal words")
    at = elts[::-1]  # the element at each slot
    slot = [0] * n
    for s, e in enumerate(at):
        slot[e] = s
    lay = fp_rows(n, p)
    rows = [lay.unit(slot[0])]
    for _, g in picks:
        # slot s of v*g holds v's slot at at[s]*g^-1
        right = lay.permutation([slot[mult[e][inv[g]]] for e in at])
        for j in range((p - 1) * len(rows)):
            rows.append(lay.sub(right(rows[j]), rows[j]))
    order = sorted(range(1, n), key=weights.__getitem__, reverse=True)
    span = ModpSpan(n, p)
    for i in order:
        span.add(rows[i])
    if span.dim != n - 1:
        raise PropertyViolation(
            f"Jennings certificate (b) at p={p}: the products are not independent")
    weight_at = {}
    for i, row in zip(order, span.packed):
        weight_at[((row & -row).bit_length() - 1) // lay.bits] = weights[i]
    top = max(weights)
    count = [0] * (top + 2)
    column = {}
    for c in span.pivots:
        column[c] = count[weight_at[c]]
        count[weight_at[c]] += 1
    images: dict[int, ModpSpan] = {}  # m -> images of (x - 1)*W_m in W_(m+1)/W_(m+2)
    for x in _generator_images(tbl):
        # slot s of x*v holds v's slot at x^-1*at[s]
        left = lay.permutation([slot[mult[inv[x]][e]] for e in at])
        for i in range(1, n):
            w = weights[i]
            coords = span.coordinates(lay.sub(left(rows[i]), rows[i]))
            part = 0
            for c, f in coords.items():
                if weight_at[c] <= w:
                    raise PropertyViolation(
                        f"Jennings certificate (c) at p={p}: (x - 1)*P has a term of "
                        f"weight {weight_at[c]} for P of weight {w}")
                if weight_at[c] == w + 1:
                    part |= f << (column[c] * lay.bits)
            if part:
                if w not in images:
                    images[w] = ModpSpan(count[w + 1], p)
                images[w].add(part)
    for m in range(1, top):
        got = images[m].dim if m in images else 0
        if got != count[m + 1]:
            raise PropertyViolation(
                f"Jennings certificate (d) at p={p}: the (x - 1)*P of weight {m} "
                f"span {got} of the {count[m + 1]} dimensions of weight {m + 1}")
    return list(accumulate(reversed(count[1:])))[::-1]


def dimension_subgroup_chain(tbl: FiniteGroupTable, p: int) -> list[Subgroup]:
    """D_1 (= G), D_2, ... down to and including the first trivial term.

    The chain is jennings_series itself, returned once
    _certify_jennings_chain has proved it from one Jennings-adapted basis
    of Delta, with no power of Delta built; a chain it cannot prove raises
    PropertyViolation.
    """
    require_p_group(tbl.order, p,
                    f"dimension subgroups over F_{p} need a {p}-group; order is {tbl.order}")
    chain = jennings_series(tbl, p)
    _certify_jennings_chain(tbl, p, [s.members for s in chain])
    return chain


def _normal_closure(tbl: FiniteGroupTable, images, gens) -> set[int]:
    """The members of the normal closure of gens in G = <images>.  A
    subgroup is normal when it holds x h x^-1 for each of its generators h
    and each x in images (conjugation by x^-1 is a power of that by x), so
    each conjugate of a generator that falls outside joins the generators,
    and the subgroup is grown again."""
    members, have, pending = {0}, [], list(gens)
    while pending:
        g = pending.pop()
        if g in members:
            continue
        have.append(g)
        grow(tbl.mult, members, have)
        pending.extend(tbl.conj(x, g) for x in images)
    return members


def jennings_series(tbl: FiniteGroupTable, p: int) -> list[Subgroup]:
    """The chain that dimension_subgroup_chain certifies, proposed by the
    Jennings recursion D_n = [D_(n-1), G] * (D_ceil(n/p))^p.

    [N, G], for N = <A> normal and G = <X>, is the normal closure of the
    [a, x], a in A, x in X: so the commutator term is grown from the
    generators of D_(n-1) and the generator images alone.  It is normal, so
    growing it under right multiplication by the p-th powers of the members
    of D_ceil(n/p) gives the term.  A term is built once per distinct pair
    (D_(n-1), D_ceil(n/p)); a repeated pair reuses it.  A term equal to the
    one before is that very object; any other is its sorted members with
    their greedy generators.
    """
    require_p_group(tbl.order, p,
                    f"Jennings series over F_{p} needs a {p}-group; order is {tbl.order}")
    chain = [subgroup_closure(tbl, tbl.gen_images)]
    images = chain[0].generators
    mult, inv = tbl.mult, tbl.inv
    built: dict[tuple[tuple[int, ...], tuple[int, ...]], Subgroup] = {}
    guard = 0
    while chain[-1].order > 1:
        n = len(chain) + 1
        prev = chain[-1]
        frac = chain[(n + p - 1) // p - 1]  # D_ceil(n/p)
        key = (prev.members, frac.members)
        if key not in built:
            inside = _normal_closure(tbl, images, [mult[tbl.conj(d, x)][inv[x]]
                                                   for d in prev.generators for x in images])
            grow(mult, inside, {tbl.power(d, p) for d in frac.members})
            members = tuple(sorted(inside))
            built[key] = prev if members == prev.members else Subgroup(
                members, greedy_generators(mult, members, {0}))
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
