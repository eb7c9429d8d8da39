"""Coset enumeration and finite group tables.

One constructor builds every table from the right action of the letters x0,
x0^-1, x1, x1^-1, ... on the elements: the regular action for todd_coxeter()
(HLT enumeration of the cosets of the trivial subgroup), the action on the
cosets of a normal subgroup for quotient_table().  A BFS from the identity,
letters in that order, numbers the elements (element words shortest, ties
lexicographic) and makes each its tree parent times one letter, so each
column of the table is one gather of its parent's column.  Every table is
verified against the group axioms before it is returned; associativity by
Light's test, (ab)c = a(bc) for all a, c and b running over the generator
images, n^2 products per image read as one gathered row per (a, b),
complete at every order because the element words make every element a
product of letters, and so of generator images.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import BudgetExceeded, InputError
from .presentation import Presentation, Word

if TYPE_CHECKING:
    from .relmod import RelationLattice

DEFAULT_MAX_COSETS = 10**6
DEFAULT_SUBGROUP_BOUND = 512


def _word_cols(w: Word) -> list[int]:
    """Letters as column indices: (g, +1) -> 2g, (g, -1) -> 2g + 1."""
    return [2 * g + (0 if s > 0 else 1) for g, s in w]


@dataclass(frozen=True)
class FiniteGroupTable:
    """Complete multiplication table of a finite group, identity at index 0.

    gen_images[i] is the element the i-th presentation generator maps to;
    element_words[x] is one shortest witness word with image x.
    _lattices holds the certified relation lattice of each presentation
    it was built for (relmod.relation_lattice), for the table's lifetime.
    """

    order: int
    mult: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    gen_images: tuple[int, ...]
    element_words: tuple[Word, ...]
    _lattices: dict[Presentation, RelationLattice] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return self.mult[self.mult[g][x]][self.inv[g]]

    def letter(self, g: int, s: int) -> int:
        """The element that the letter (g, s) of a word maps to."""
        x = self.gen_images[g]
        return x if s > 0 else self.inv[x]

    def power(self, x: int, e: int) -> int:
        if e < 0:
            return self.power(self.inv[x], -e)
        y = 0
        for _ in range(e):
            y = self.mult[y][x]
        return y


def word_image(tbl: FiniteGroupTable, w: Word) -> int:
    """Image of a word under the presentation homomorphism."""
    x = 0
    for g, s in w:
        x = tbl.mult[x][tbl.letter(g, s)]
    return x


def _gather(idx):
    """seq -> (seq[i] for i in idx) as a tuple, by one itemgetter."""
    get = operator.itemgetter(*idx)
    return get if len(idx) > 1 else lambda seq: (get(seq),)


def _verify_table(mult, inv, gen_images, element_words, relators):
    n = len(mult)
    for x in range(n):
        if mult[0][x] != x or mult[x][0] != x:
            raise AssertionError("identity law fails")
        y = inv[x]
        if mult[x][y] != 0 or mult[y][x] != 0:
            raise AssertionError("inverse law fails")
    # Light's test: (ab)c = a(bc) for all a, c and every generator image b.
    # If b and b' pass, so does bb': (a(bb'))c = ((ab)b')c = (ab)(b'c) =
    # a(b(b'c)) = a((bb')c).  If x passes, (ax)x^-1 = a(xx^-1) = a, so right
    # multiplication by x is a permutation whose inverse is right
    # multiplication by x^-1, a power of the former: a letter x^-1 in a
    # left-bracketed product is a run of letters x.  The element words
    # checked below write every element as a left-bracketed product of
    # letters, hence of generator images, so every b passes.
    # a(bc) over all c is row a gathered at row b, one gather per (a, b).
    for b in sorted(set(gen_images)):
        times_b = _gather(mult[b])
        for a, row_a in enumerate(mult):
            if times_b(row_a) != mult[row_a[b]]:
                raise AssertionError("associativity fails")
    tbl = FiniteGroupTable(n, mult, inv, gen_images, element_words)
    for r in relators:
        if word_image(tbl, r) != 0:
            raise AssertionError("relator does not map to the identity")
    for x in range(n):
        if word_image(tbl, element_words[x]) != x:
            raise AssertionError("element word does not witness its element")
    return tbl


def _canonical_table(action, ngens, relators):
    """The verified table of the group whose letters act on the elements.

    action[x][c] is x times letter c (column 2g for x_g, 2g + 1 for its
    inverse) and element 0 is the identity.  One BFS from 0, columns in
    order, numbers the elements canonically and records each one's tree
    edge (parent, column); then a * b = (a * parent(b)) * letter, so the
    table is built column by column, column b being column parent(b)
    gathered from the letter's column of the action: one gather per tree
    edge.  Returns (table, order_of) with order_of[old] = new index.
    """
    n = len(action)
    order_of = [0] + [-1] * (n - 1)
    seq, words = [0], [()]
    tree = []  # (parent, column) of elements 1, 2, ... in the new numbering
    for i, x in enumerate(seq):  # seq grows while it is walked: a BFS
        for c, y in enumerate(action[x]):
            if order_of[y] < 0:
                order_of[y] = len(seq)
                seq.append(y)
                tree.append((i, c))
                words.append(words[i] + ((c >> 1, -1 if c & 1 else 1),))
    if len(seq) != n:
        raise AssertionError("generators do not generate the whole table")
    act_cols = [tuple(order_of[action[x][c]] for x in seq) for c in range(len(action[0]))]
    cols = [tuple(range(n))]  # cols[b][a] = a * b
    for i, c in tree:
        cols.append(_gather(cols[i])(act_cols[c]))
    mult = tuple(zip(*cols))
    inv = []
    for row in mult:
        try:
            inv.append(row.index(0))
        except ValueError:
            raise AssertionError("row without inverse") from None
    gen_images = tuple(act_cols[2 * g][0] for g in range(ngens))
    return _verify_table(mult, tuple(inv), gen_images, tuple(words), relators), order_of


def todd_coxeter(pres: Presentation, max_cosets: int = DEFAULT_MAX_COSETS) -> FiniteGroupTable:
    """Enumerate F/<<relators>> by cosets of the trivial subgroup.

    HLT strategy: scan-and-fill every relator at every live coset, then fill
    the row.  Coincidences are processed to completion through a union-find
    queue.  When the table hits max_cosets it is compacted once if enough
    rows are dead, otherwise the budget error propagates.  The completed
    coset table is the letter action that _canonical_table reads.
    """
    ngens = pres.ngens
    ncols = 2 * ngens
    rel_cols = [_word_cols(r) for r in pres.relators]

    table: list[list[int | None]] = [[None] * ncols]
    parent = [0]

    def rep(k: int) -> int:
        while parent[k] != k:
            k = parent[k]
        return k

    def compact(alpha: int) -> int:
        live = [i for i in range(len(table)) if parent[i] == i]
        newidx = {old: new for new, old in enumerate(live)}
        newtab = []
        for old in live:
            row = table[old]
            newtab.append([None if v is None else newidx[rep(v)] for v in row])
        table[:] = newtab
        parent[:] = list(range(len(live)))
        # alpha points into the old numbering; resume at its new position
        shift = sum(1 for i in live if i < alpha)
        return shift

    def define(a: int, c: int) -> None:
        if len(table) >= max_cosets:
            raise BudgetExceeded(
                f"coset table exceeded max_cosets={max_cosets} "
                f"(presentation may define an infinite group)"
            )
        b = len(table)
        table.append([None] * ncols)
        parent.append(b)
        table[a][c] = b
        table[b][c ^ 1] = a

    merge_queue: deque[int] = deque()

    def merge(a: int, b: int) -> None:
        a, b = rep(a), rep(b)
        if a != b:
            if a > b:
                a, b = b, a
            parent[b] = a
            merge_queue.append(b)

    def coincidence(a: int, b: int) -> None:
        merge(a, b)
        while merge_queue:
            gamma = merge_queue.popleft()
            row = table[gamma]
            for c in range(ncols):
                delta = row[c]
                if delta is None:
                    continue
                table[delta][c ^ 1] = None
                mu, nu = rep(gamma), rep(delta)
                if table[mu][c] is not None:
                    merge(nu, table[mu][c])
                elif table[nu][c ^ 1] is not None:
                    merge(mu, table[nu][c ^ 1])
                else:
                    table[mu][c] = nu
                    table[nu][c ^ 1] = mu

    def scan_and_fill(alpha: int, cols: list[int]) -> None:
        f = b = alpha
        i, j = 0, len(cols) - 1
        while True:
            while i <= j and table[f][cols[i]] is not None:
                f = table[f][cols[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][cols[j] ^ 1] is not None:
                b = table[b][cols[j] ^ 1]
                j -= 1
            if j < i:
                if f != b:
                    coincidence(f, b)
                return
            if i == j:
                table[f][cols[i]] = b
                table[b][cols[i] ^ 1] = f
                return
            define(f, cols[i])

    alpha = 0
    while alpha < len(table):
        if parent[alpha] != alpha:
            alpha += 1
            continue
        try:
            for cols in rel_cols:
                if parent[alpha] != alpha:
                    break
                scan_and_fill(alpha, cols)
            if parent[alpha] == alpha:
                for c in range(ncols):
                    if table[alpha][c] is None:
                        define(alpha, c)
        except BudgetExceeded:
            dead = len(table) - sum(1 for i in range(len(table)) if parent[i] == i)
            if dead * 10 >= len(table):
                alpha = compact(alpha)
                continue
            raise
        alpha += 1

    live = [i for i in range(len(table)) if parent[i] == i]
    if live[0] != 0:
        raise AssertionError("the identity coset was merged away")
    idx = {old: new for new, old in enumerate(live)}
    action = []  # row per live coset: where each letter sends it
    for old in live:
        if any(table[old][c] is None for c in range(ncols)):
            raise AssertionError("incomplete row survived enumeration")
        action.append([idx[rep(table[old][c])] for c in range(ncols)])
    return _canonical_table(action, ngens, pres.relators)[0]


# ---------------------------------------------------------------------------
# subgroups

@dataclass(frozen=True)
class Subgroup:
    members: tuple[int, ...]
    generators: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)


def grow(mult, inside: set[int], gens) -> None:
    """Close the set inside under right multiplication by gens, in place,
    so that it becomes inside*<gens>.

    From {1} in a finite group this is the subgroup <gens>: a set closed
    under right multiplication by g holds g, g^2, ..., and so
    g^-1 = g^(|g| - 1).  From a subgroup N normal in <N, gens> it is the
    subgroup N*<gens>.
    """
    frontier = list(inside)
    for x in frontier:
        for y in gens:
            z = mult[x][y]
            if z not in inside:
                inside.add(z)
                frontier.append(z)


def greedy_generators(mult, candidates, inside: set[int]) -> tuple[int, ...]:
    """The candidates, in order, that the closure of inside and those before
    them does not hold; inside grows in place to inside*<picks>.  From
    inside = {1} over a subgroup's members, these generate it."""
    picks: list[int] = []
    for g in candidates:
        if g not in inside:
            picks.append(g)
            grow(mult, inside, picks)
    return tuple(picks)


def subgroup_closure(tbl: FiniteGroupTable, gens) -> Subgroup:
    """The subgroup generated by the given element indices, with those
    indices, sorted and distinct, as its generators.

    Closure under right multiplication from {1} (grow) suffices, with no
    inverses and no product check: it rests on the group axioms alone, and
    every table qrlab builds passes _verify_table, which proves them,
    associativity by Light's test.  subgroup_closure(tbl, tbl.gen_images)
    is G.
    """
    gens = tuple(sorted(set(gens)))
    members = {0}
    grow(tbl.mult, members, gens)
    return Subgroup(tuple(sorted(members)), gens)


def is_normal(tbl: FiniteGroupTable, sub: Subgroup) -> bool:
    mem = set(sub.members)
    return all(tbl.conj(g, x) in mem for g in tbl.gen_images for x in sub.members)


def _normalizes(tbl: FiniteGroupTable, g: int, sub: Subgroup, members: frozenset[int]) -> bool:
    """g*sub*g^-1 = sub, members being sub's member set.

    Tested on sub's generators: conjugation by g is an automorphism, so it
    maps sub = <generators> onto a subgroup of the same order, which lies in
    sub iff each conjugated generator does.  The trivial subgroup has no
    generators, and every g normalizes it.
    """
    return all(tbl.conj(g, x) in members for x in sub.generators)


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, a) with n = p^a, a >= 1; None if n is not a prime power."""
    if n < 2:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            return (p, a) if n == 1 else None
        p += 1
    return (n, 1)


def all_subgroups(tbl: FiniteGroupTable) -> list[Subgroup]:
    """Every subgroup exactly once, sorted by (order, member tuple).

    p-groups go through cyclic extension layer by layer (every subgroup of
    order p^(k+1) is <H, g> for a normal index-p subgroup H and g in its
    normalizer with g^p in H; g is tested in that order, skipped when an
    extension of H already holds it, and conjugates H's generators only
    when it passes the cheaper tests); other orders fall back to join
    closure.
    Past DEFAULT_SUBGROUP_BOUND elements it refuses (BudgetExceeded).
    """
    if tbl.order > DEFAULT_SUBGROUP_BOUND:
        raise BudgetExceeded(f"subgroup enumeration bound {DEFAULT_SUBGROUP_BOUND} exceeded "
                             f"(order {tbl.order})")
    trivial = subgroup_closure(tbl, ())
    if tbl.order == 1:
        return [trivial]
    pp = prime_power(tbl.order)
    found: dict[frozenset[int], Subgroup] = {frozenset(trivial.members): trivial}
    if pp is not None:
        p, a = pp
        layer = [trivial]
        for _ in range(a):
            nxt: dict[frozenset[int], Subgroup] = {}
            for h in layer:
                hset = frozenset(h.members)
                # <h, g'> = <h, g> for every g' in <h, g> - h: skip those
                covered = set(hset)
                for g in range(tbl.order):
                    if (g in covered or tbl.power(g, p) not in hset
                            or not _normalizes(tbl, g, h, hset)):
                        continue
                    members = set()
                    coset = list(h.members)
                    for _ in range(p):
                        members.update(coset)
                        coset = [tbl.mult[x][g] for x in coset]
                    covered |= members
                    key = frozenset(members)
                    if key in nxt or len(members) != p * h.order:
                        if len(members) != p * h.order:
                            raise AssertionError("cyclic extension size broke")
                        continue
                    nxt[key] = Subgroup(tuple(sorted(members)), h.generators + (g,))
            for key, sub in nxt.items():
                found.setdefault(key, sub)
            layer = list(nxt.values())
    else:
        work = [trivial]
        while work:
            h = work.pop()
            hset = set(h.members)
            for g in range(1, tbl.order):
                if g in hset:
                    continue
                k = subgroup_closure(tbl, h.generators + (g,))
                key = frozenset(k.members)
                if key not in found:
                    found[key] = k
                    work.append(k)
    subs = sorted(found.values(), key=lambda s: (s.order, s.members))
    return subs


def conjugate_subgroup_members(tbl: FiniteGroupTable, members, g: int) -> frozenset[int]:
    return frozenset(tbl.conj(g, x) for x in members)


def subgroup_conjugacy_classes(tbl: FiniteGroupTable, subs: list[Subgroup]) -> list[list[Subgroup]]:
    """Partition into conjugacy classes; each class sorted, rep = class[0]
    (minimal member tuple).  Classes sorted by (order, rep members)."""
    by_members = {frozenset(s.members): s for s in subs}
    gens = sorted(set(tbl.gen_images))
    seen: set[frozenset[int]] = set()
    classes = []
    for s in sorted(subs, key=lambda s: (s.order, s.members)):
        key = frozenset(s.members)
        if key in seen:
            continue
        # the orbit under the generator images, which generate G as a monoid
        cls, frontier = {key}, [key]
        for c in frontier:
            for x in gens:
                d = conjugate_subgroup_members(tbl, c, x)
                if d not in cls:
                    cls.add(d)
                    frontier.append(d)
        seen |= cls
        group = sorted((by_members[c] for c in cls if c in by_members),
                       key=lambda s: s.members)
        if len(group) != len(cls):
            raise AssertionError("conjugate of a subgroup missing from the list")
        classes.append(group)
    return classes


# ---------------------------------------------------------------------------
# cosets, quotients

def left_cosets(tbl: FiniteGroupTable, sub: Subgroup) -> tuple[list[int], list[int]]:
    """(coset_of, reps): coset_of[x] = index of x*H among cosets; reps[i] is
    the minimal element of coset i, and reps is sorted by that element."""
    coset_of = [-1] * tbl.order
    reps = []
    for x in range(tbl.order):
        if coset_of[x] >= 0:
            continue
        cid = len(reps)
        reps.append(x)
        for h in sub.members:
            coset_of[tbl.mult[x][h]] = cid
    return coset_of, reps


def quotient_table(tbl: FiniteGroupTable, normal: Subgroup) -> tuple[FiniteGroupTable, list[int]]:
    """(table of G/N, coset map x -> index in the quotient table).

    Built from the letters' action on the cosets, rN -> r*letter*N.
    Raises InputError if the subgroup is not normal.  G/1 is tbl itself,
    already verified: a table from todd_coxeter or from here is canonical,
    so a rebuild would give it back.
    """
    if normal.order == 1:
        return tbl, list(range(tbl.order))
    if not is_normal(tbl, normal):
        raise InputError("quotient by a non-normal subgroup")
    coset_of, reps = left_cosets(tbl, normal)
    if reps[0] != 0:
        raise AssertionError("the identity coset is not listed first")
    letters = [y for x in tbl.gen_images for y in (x, tbl.inv[x])]
    action = [[coset_of[tbl.mult[r][y]] for y in letters] for r in reps]
    qt, order_of = _canonical_table(action, len(tbl.gen_images), ())
    coset_map = [order_of[coset_of[x]] for x in range(tbl.order)]
    for x in range(tbl.order):
        for g, img in enumerate(tbl.gen_images):
            if coset_map[tbl.mult[x][img]] != qt.mult[coset_map[x]][qt.gen_images[g]]:
                raise AssertionError("quotient map is not a homomorphism")
    return qt, coset_map
