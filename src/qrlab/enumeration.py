"""Coset enumeration and finite group tables.

todd_coxeter() runs an HLT-style enumeration of the cosets of the trivial
subgroup, so a completed table is the regular action and its cosets are the
group elements.  Tables are re-indexed canonically (BFS from the identity,
alphabet x0, x0^-1, x1, x1^-1, ..., so element words are shortest, ties
lexicographic) and verified against the group axioms before being returned.
Associativity is checked by Light's test: (ab)c = a(bc) for all a, c and b
running over the generator images and their inverses, n^2 products per
letter.  The element words make every element a product of letters, so the
check is complete at every order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import BudgetExceeded, InputError
from .presentation import Presentation, Word

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
    """

    order: int
    mult: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    gen_images: tuple[int, ...]
    element_words: tuple[Word, ...]

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


def _verify_table(mult, inv, gen_images, element_words, relators):
    n = len(mult)
    for x in range(n):
        if mult[0][x] != x or mult[x][0] != x:
            raise AssertionError("identity law fails")
        y = inv[x]
        if mult[x][y] != 0 or mult[y][x] != 0:
            raise AssertionError("inverse law fails")
    # Light's test: (ab)c = a(bc) for all a, c and every letter b.  If b and
    # b' pass, so does bb': (a(bb'))c = ((ab)b')c = (ab)(b'c) = a(b(b'c))
    # = a((bb')c).  The element words checked below write every element as
    # a left-bracketed product of letters, so every b passes.
    letters = sorted(set(gen_images) | {inv[x] for x in gen_images})
    for b in letters:
        for a in range(n):
            row_a, row_ab = mult[a], mult[mult[a][b]]
            if any(row_ab[c] != row_a[bc] for c, bc in enumerate(mult[b])):
                raise AssertionError("associativity fails")
    tbl = FiniteGroupTable(n, mult, inv, gen_images, element_words)
    for r in relators:
        if word_image(tbl, r) != 0:
            raise AssertionError("relator does not map to the identity")
    for x in range(n):
        if word_image(tbl, element_words[x]) != x:
            raise AssertionError("element word does not witness its element")
    return tbl


def _canonical_table(mult_raw, identity, gen_imgs_raw, relators, ngens):
    """BFS re-index so the identity is 0 and element words are canonical.
    Returns (table, order_of) with order_of[old_index] = new_index."""
    n = len(mult_raw)
    inv_raw = [None] * n
    for x in range(n):
        for y in range(n):
            if mult_raw[x][y] == identity:
                inv_raw[x] = y
                break
        if inv_raw[x] is None:
            raise AssertionError("row without inverse")
    alphabet = []
    for g in range(ngens):
        img = gen_imgs_raw[g]
        alphabet.append(((g, 1), img))
        alphabet.append(((g, -1), inv_raw[img]))
    order_of = {identity: 0}
    words: list[Word] = [()]
    queue = deque([identity])
    seq = [identity]
    while queue:
        x = queue.popleft()
        wx = words[order_of[x]]
        for letter, img in alphabet:
            y = mult_raw[x][img]
            if y not in order_of:
                order_of[y] = len(seq)
                seq.append(y)
                words.append(wx + (letter,))
                queue.append(y)
    if len(seq) != n:
        raise AssertionError("generators do not generate the whole table")
    mult = tuple(
        tuple(order_of[mult_raw[seq[a]][seq[b]]] for b in range(n)) for a in range(n)
    )
    inv = tuple(order_of[inv_raw[seq[a]]] for a in range(n))
    gen_images = tuple(order_of[g] for g in gen_imgs_raw)
    return _verify_table(mult, inv, gen_images, tuple(words), relators), order_of


def todd_coxeter(pres: Presentation, max_cosets: int = DEFAULT_MAX_COSETS) -> FiniteGroupTable:
    """Enumerate F/<<relators>> by cosets of the trivial subgroup.

    HLT strategy: scan-and-fill every relator at every live coset, then fill
    the row.  Coincidences are processed to completion through a union-find
    queue.  When the table hits max_cosets it is compacted once if enough
    rows are dead, otherwise the budget error propagates.
    """
    ngens = pres.ngens
    ncols = 2 * ngens
    rel_cols = [_word_cols(r) for r in pres.relators]

    if ngens == 0:
        return _canonical_table([[0]], 0, [], pres.relators, 0)[0]

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
    idx = {old: new for new, old in enumerate(live)}
    mult_gen = []  # row per live coset: action of each generator image
    for old in live:
        if any(table[old][c] is None for c in range(ncols)):
            raise AssertionError("incomplete row survived enumeration")
        mult_gen.append([idx[rep(table[old][c])] for c in range(ncols)])
    n = len(live)
    # regular action: element of coset k is the word tracing 0 -> k; build the
    # full multiplication table by replaying those traces from every coset
    start = idx[rep(0)]
    # BFS words in the column alphabet
    word_cols: list[list[int] | None] = [None] * n
    word_cols[start] = []
    bfs = deque([start])
    while bfs:
        x = bfs.popleft()
        for c in range(ncols):
            y = mult_gen[x][c]
            if word_cols[y] is None:
                word_cols[y] = word_cols[x] + [c]
                bfs.append(y)
    if any(w is None for w in word_cols):
        raise AssertionError("coset graph not connected")
    mult_raw = []
    for a in range(n):
        row = []
        for b in range(n):
            x = a
            for c in word_cols[b]:
                x = mult_gen[x][c]
            row.append(x)
        mult_raw.append(row)
    gen_imgs_raw = [mult_gen[start][2 * g] for g in range(ngens)]
    return _canonical_table(mult_raw, start, gen_imgs_raw, pres.relators, ngens)[0]


# ---------------------------------------------------------------------------
# subgroups

@dataclass(frozen=True)
class Subgroup:
    members: tuple[int, ...]
    generators: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)


def subgroup_closure(tbl: FiniteGroupTable, gens) -> Subgroup:
    """Subgroup generated by the given element indices (verified closed)."""
    gens = tuple(sorted(set(gens)))
    members = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            for y in (tbl.mult[x][g], tbl.mult[x][tbl.inv[g]]):
                if y not in members:
                    members.add(y)
                    frontier.append(y)
    mem = tuple(sorted(members))
    for a in mem:
        if tbl.inv[a] not in members:
            raise AssertionError("closure not inverse-closed")
        for b in mem:
            if tbl.mult[a][b] not in members:
                raise AssertionError("closure not product-closed")
    return Subgroup(mem, gens)


def is_normal(tbl: FiniteGroupTable, sub: Subgroup) -> bool:
    mem = set(sub.members)
    return all(tbl.conj(g, x) in mem for g in tbl.gen_images for x in sub.members)


def _normalizer_members(tbl: FiniteGroupTable, members: frozenset[int]) -> list[int]:
    out = []
    for g in range(tbl.order):
        if all(tbl.conj(g, x) in members for x in members):
            out.append(g)
    return out


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


def all_subgroups(tbl: FiniteGroupTable, bound: int = DEFAULT_SUBGROUP_BOUND) -> list[Subgroup]:
    """Every subgroup exactly once, sorted by (order, member tuple).

    p-groups go through cyclic extension layer by layer (every subgroup of
    order p^(k+1) is <H, g> for a normal index-p subgroup H and g in its
    normalizer with g^p in H); other orders fall back to join closure.
    """
    if tbl.order > bound:
        raise BudgetExceeded(f"subgroup enumeration bound {bound} exceeded (order {tbl.order})")
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
                for g in _normalizer_members(tbl, hset):
                    if g in hset or tbl.power(g, p) not in hset:
                        continue
                    members = set()
                    coset = list(h.members)
                    for _ in range(p):
                        members.update(coset)
                        coset = [tbl.mult[x][g] for x in coset]
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
    seen: set[frozenset[int]] = set()
    classes = []
    for s in sorted(subs, key=lambda s: (s.order, s.members)):
        key = frozenset(s.members)
        if key in seen:
            continue
        cls = set()
        for g in range(tbl.order):
            cls.add(conjugate_subgroup_members(tbl, key, g))
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

    Raises InputError if the subgroup is not normal.
    """
    if not is_normal(tbl, normal):
        raise InputError("quotient by a non-normal subgroup")
    coset_of, reps = left_cosets(tbl, normal)
    n = len(reps)
    mult_raw = [[coset_of[tbl.mult[reps[a]][reps[b]]] for b in range(n)] for a in range(n)]
    gen_imgs_raw = [coset_of[g] for g in tbl.gen_images]
    identity = coset_of[0]
    qt, order_of = _canonical_table(
        mult_raw, identity, gen_imgs_raw, (), len(tbl.gen_images)
    )
    coset_map = [order_of[coset_of[x]] for x in range(tbl.order)]
    for x in range(tbl.order):
        for g, img in enumerate(tbl.gen_images):
            if coset_map[tbl.mult[x][img]] != qt.mult[coset_map[x]][qt.gen_images[g]]:
                raise AssertionError("quotient map is not a homomorphism")
    return qt, coset_map
