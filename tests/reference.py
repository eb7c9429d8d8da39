"""Reference algorithms for the tests.

They use the standard library only and share no code with qrlab, so a
test that compares qrlab against them is not checking a kernel against
itself.  The exceptions are lattice_from_rows, which wraps qrlab's
Lattice as the Hermite form that the tests solve in (lattice_coordinates),
and lattice_equals and the integer left_kernel, which work in that Lattice;
dimension_subgroup and full_depth_dimension_chain, which read qrlab's
delta_filtration (itself checked against dense_rref in
tests/test_groupring.py); and the integer
tower walk (integer_walk), which takes qrlab's certified Smith form
(itself checked against smallest_entry_snf in tests/test_intlinalg.py);
eager_marks, which runs qrlab's subgroup classes and Brauer quotients
(checked against direct counts in tests/test_permrec.py) on every class
before its own back-substitution; and bar_d2_gab, which takes qrlab's
lattice_quotient (its Smith form checked as integer_walk's is); and
full_elimination_over and entered_elimination_over, which run qrlab's
unit_pivot_rows (checked against dense elimination in
tests/test_intlinalg.py) on every relation row and on the rows that
entered a level's F_p span; and packed_level_rows, which packs those
rows with qrlab's FpRows.sub (checked slot by slot in
tests/test_intlinalg.py); per_level_lattice,
which enumerates one quotient's subgroups and classes with qrlab's
all_subgroups and subgroup_conjugacy_classes (checked against
all-elements walks in tests/test_enumeration.py); and stacked_hom_basis,
which solves the whole stack with qrlab's modp_left_kernel (checked
against dense_left_kernel in tests/test_intlinalg.py), and
stacked_brauer_dim, which traces those kernels with qrlab's FpRows.mul
(checked against dense products in tests/test_intlinalg.py).
"""

import functools
import itertools

from qrlab.enumeration import (Subgroup, all_subgroups, greedy_generators, subgroup_closure,
                               subgroup_conjugacy_classes)
from qrlab.errors import InputError
from qrlab.groupring import delta_filtration, require_p_group
from qrlab.intlinalg import (AbelianInvariants, Lattice, fp_rows, lattice_quotient, mat_mul,
                             modp_left_kernel, p_torsion, smith_normal_form, unit_pivot_rows)
from qrlab.permrec import _brauer_dim


def dense_rref(rows, p):
    """Reference F_p elimination: dense Gauss-Jordan on lists, column by
    column, sharing no code with qrlab's packed kernel.  Returns (reduced
    echelon rows, pivot columns); zero rows are dropped."""
    a = [[x % p for x in r] for r in rows]
    ncols = len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [(x * inv) % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a[:r], pivots


def dense_left_kernel(rows, p):
    """Reference F_p left kernel: dense_rref of [A | I]; the rows whose
    A-part vanished carry the kernel in their identity part, already in
    reduced echelon form."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    aug = [list(r) + [int(i == j) for j in range(m)] for i, r in enumerate(rows)]
    return [row[n:] for row in dense_rref(aug, p)[0] if not any(row[:n])]


def dense_inverse(rows, p):
    """Reference inverse mod p: dense_rref of [A | I] is [I | A^-1]."""
    n = len(rows)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = dense_rref(aug, p)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular mod p")
    return [row[n:] for row in red]


def digit_by_digit_lifts(a, p, k):
    """Reference for permrec._liftable_kernel without its stop at exact
    lifts: the same digit-by-digit algorithm, run for all k - 1 digits
    (stopping early only when no lift is left), on dense lists.  Each
    digit's kernel is dense_left_kernel of the defects stacked on the basis
    of M, and a row joins that basis when it raises the dense_rref rank."""
    d = len(a)
    if d == 0:
        return []
    n = len(a[0])

    def grows(fixes, row):
        return len(dense_rref([m for m, _ in fixes] + [row], p)[0]) > len(fixes)

    lifts = dense_left_kernel(a, p)
    fixes = []
    for j, row in enumerate(a):
        if grows(fixes, row):
            fixes.append((row, [int(i == j) for i in range(d)]))
    q = p
    for _ in range(1, k):
        if not lifts:
            break
        defects = []
        for w in lifts:
            wa = [sum(w[i] * a[i][j] for i in range(d)) for j in range(n)]
            if any(x % q for x in wa):
                raise AssertionError("a lift does not solve w * a = 0 mod q")
            defects.append([x // q for x in wa])
        r = len(lifts)
        new_lifts = []
        for row in dense_left_kernel(defects + [m for m, _ in fixes], p):
            if not any(row[:r]):
                break
            new_lifts.append([sum(row[i] * lifts[i][t] for i in range(r))
                              + p * sum(b * f[t] for b, (_, f) in zip(row[r:], fixes))
                              for t in range(d)])
        fixes = [(m, [p * x for x in f]) for m, f in fixes]
        for e, w in zip(defects, lifts):
            if grows(fixes, e):
                fixes.append((e, w))
        lifts = new_lifts
        q *= p
    return lifts


def left_translate(tbl, g, vec):
    """g * v in ZG: the coefficient of h moves to g*h."""
    out = [0] * tbl.order
    row = tbl.mult[g]
    for h, c in enumerate(vec):
        if c:
            out[row[h]] = c
    return out


def lattice_from_rows(ambient, rows):
    """The Hermite form of the span of rows, as a qrlab Lattice."""
    lat = Lattice(ambient)
    for r in rows:
        lat.add(r)
    lat.canonicalize()
    return lat


def lattice_coordinates(lat, vec):
    """c with sum c_k lat.basis[k] == vec, or None if vec is not in the
    qrlab Lattice lat: back-substitution down its echelon basis, each row
    zero left of its pivot, its first nonzero column."""
    v = [int(x) for x in vec]
    if len(v) != lat.ambient:
        raise ValueError("vector length != ambient dimension")
    coeffs = [0] * lat.rank
    for k, b in enumerate(lat.basis):
        j = next(c for c, x in enumerate(b) if x)
        if v[j]:
            if v[j] % b[j]:
                return None
            q = coeffs[k] = v[j] // b[j]
            v[j:] = [x - q * y for x, y in zip(v[j:], b[j:])]
    return coeffs if not any(v) else None


def lattice_equals(a, b):
    """Whether two qrlab Lattices span the same lattice: the same ambient
    and rank, and each basis inside the other (lattice_coordinates)."""
    if a.ambient != b.ambient or a.rank != b.rank:
        return False
    return all(lattice_coordinates(y, r) is not None
               for x, y in ((a, b), (b, a)) for r in x.basis)


def left_kernel(rows, width=None):
    """Basis of {x in Z^m : x * A = 0} for A given as m rows.

    The Hermite form of (A | I): the rows whose A-part vanished carry
    kernel vectors in the identity part, a full basis of the kernel
    lattice."""
    m = len(rows)
    n = width if width is not None else (len(rows[0]) if rows else 0)
    lat = Lattice(n + m)
    for i, r in enumerate(rows):
        if len(r) != n:
            raise ValueError("ragged input")
        aug = list(r) + [0] * m
        aug[n + i] = 1
        lat.add(aug)
    lat.canonicalize()
    return [row[n:] for row in lat.basis if not any(row[:n])]


def dimension_subgroup(tbl, p, n):
    """D_n = {g : g - 1 in Delta^n(F_p G)}, one level at a time, read off
    the powers of Delta.  Requires |G| = p^a."""
    require_p_group(tbl.order, p,
                    f"dimension subgroups over F_{p} need a {p}-group; order is {tbl.order}")
    if n < 1:
        raise InputError("Delta power index must be >= 1")
    if n == 1:
        return subgroup_closure(tbl, tbl.gen_images)
    # a shorter list means the chain went constant (or hit 0) before n
    span = delta_filtration(tbl, p, max_n=n)[-1]
    lay = span.layout
    members = [g for g in range(tbl.order)
               if span.coordinates(lay.sub(lay.unit(g), lay.unit(0))) is not None]
    return Subgroup(tuple(members), greedy_generators(tbl.mult, members, {0}))


def cycle_basis(rlat):
    """The relation lattice's basis as dense rows of Z^(|X|*|G|): each of
    rlat.cycles, its nonzeros (block start, h, +-1), written out."""
    width = rlat.pres.ngens * rlat.tbl.order
    rows = []
    for cycle in rlat.cycles:
        row = [0] * width
        for start, h, c in cycle:
            row[start + h] = c
        rows.append(tuple(row))
    return tuple(rows)


def gr_multiply(tbl, u, v):
    """Convolution product in the group ring ZG (dense, O(|G|^2))."""
    out = [0] * tbl.order
    for g, a in enumerate(u):
        if a:
            row = tbl.mult[g]
            for h, b in enumerate(v):
                if b:
                    out[row[h]] += a * b
    return out


def det_int(rows):
    """Bareiss fraction-free determinant."""
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    m = [r[:] for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def smallest_entry_snf(a):
    """Reference Smith form with qrlab's pivot rule and none of its
    shortcuts: every pivot is the smallest nonzero |entry| of the working
    submatrix (ties by lowest row, then column), found by a full scan;
    every row and column operation runs over whole rows and columns; the
    divisibility repair always scans.  Returns (D, U, V, Vinv) as row
    lists with U*A*V = D and V*Vinv = I."""
    m = len(a)
    n = len(a[0]) if a else 0
    M = [list(r) for r in a]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    Vinv = [[int(i == j) for j in range(n)] for i in range(n)]

    def pick(t):
        keys = [(abs(M[i][j]), i, j) for i in range(t, m) for j in range(t, n) if M[i][j]]
        return min(keys)[1:] if keys else None

    def row_sub(i, t, q):
        M[i] = [x - q * y for x, y in zip(M[i], M[t])]
        U[i] = [x - q * y for x, y in zip(U[i], U[t])]

    def col_sub(j, t, q):
        for row in M + V:
            row[j] -= q * row[t]
        Vinv[t] = [x + q * y for x, y in zip(Vinv[t], Vinv[j])]

    def swap_to(t, at):
        bi, bj = at
        M[bi], M[t] = M[t], M[bi]
        U[bi], U[t] = U[t], U[bi]
        for row in M + V:
            row[bj], row[t] = row[t], row[bj]
        Vinv[bj], Vinv[t] = Vinv[t], Vinv[bj]

    t = 0
    while t < min(m, n):
        at = pick(t)
        if at is None:
            break
        while True:
            swap_to(t, at)
            dirty = False
            for i in range(t + 1, m):
                if M[i][t]:
                    row_sub(i, t, M[i][t] // M[t][t])
                    dirty = dirty or M[i][t] != 0
            for j in range(t + 1, n):
                if M[t][j]:
                    col_sub(j, t, M[t][j] // M[t][t])
                    dirty = dirty or M[t][j] != 0
            if not dirty:
                break
            at = pick(t)
        if M[t][t] < 0:
            M[t] = [-x for x in M[t]]
            U[t] = [-x for x in U[t]]
        d = M[t][t]
        offender = next((i for i in range(t + 1, m)
                         if any(M[i][j] % d for j in range(t + 1, n))), None)
        if offender is not None:
            row_sub(t, offender, -1)
            continue
        t += 1
    return M, U, V, Vinv


def orbits_on_cosets(tbl, sub, acting):
    """Reference orbit count: the number of orbits of `acting` on the left
    cosets g*sub, each coset kept as a frozenset of group elements and
    moved by left multiplication by every member of `acting`."""
    cosets = {frozenset(tbl.mult[g][h] for h in sub.members) for g in range(tbl.order)}
    orbits = 0
    while cosets:
        seed = cosets.pop()
        orbit = {frozenset(tbl.mult[a][x] for x in seed) for a in acting.members}
        cosets -= orbit
        orbits += 1
    return orbits


def coset_marks(tbl, classes):
    """Reference table of marks by walking cosets: entry [i][j] is the
    number of left cosets g*H_j, each kept as a frozenset of elements,
    that left multiplication by every member of K_i maps to themselves;
    K_i and H_j run over classes."""
    cosets = [{frozenset(tbl.mult[g][h] for h in H.members) for g in range(tbl.order)}
              for H in classes]
    return [tuple(sum(all(frozenset(tbl.mult[k][x] for x in c) == c for k in K.members)
                      for c in of_h)
                  for of_h in cosets)
            for K in classes]


def eager_marks(mod):
    """Reference marks test, every Brauer quotient first: dim M(K) by
    qrlab's _brauer_dim for every subgroup class K, the table of marks by
    coset_marks, then back-substitution from the top class down to the
    first step that is not integral or not nonnegative.  Returns
    (brauer dims, candidates, witness) as MarksReport words them."""
    tbl, p = mod.qtbl, mod.p
    subs = all_subgroups(tbl)
    classes = [cls[0] for cls in subgroup_conjugacy_classes(tbl, subs)]
    dims = tuple(_brauer_dim(mod, K, [L for L in subs if L.order * p == K.order
                                      and set(L.members) <= set(K.members)])
                 for K in classes)
    marks = coset_marks(tbl, classes)
    m = [0] * len(classes)
    for i in reversed(range(len(classes))):
        rest = dims[i] - sum(marks[i][j] * m[j] for j in range(i + 1, len(classes)))
        q, r = divmod(rest, marks[i][i])
        if r or q < 0:
            force = (f"non-integral multiplicity {rest}/{marks[i][i]}" if r
                     else f"negative multiplicity {q}")
            return dims, (), (f"Brauer quotients force a {force} for the subgroup "
                              f"class {i} (order {classes[i].order})")
        m[i] = q
    return dims, (tuple(m),), None


def per_level_lattice(qtbl, p):
    """Reference subgroup classes of one quotient Q from its own build:
    all_subgroups and subgroup_conjugacy_classes on Q itself, the index-p
    subgroups of each class representative by member containment, in
    (order, members) order, and the table of marks counted over the
    classes, |Q| / (|H_j| |C_j|) * #{H in C_j : K_i <= H}.  Returns
    (class representatives, maximal lists, marks rows)."""
    subs = all_subgroups(qtbl)
    conj = subgroup_conjugacy_classes(qtbl, subs)
    classes = [cls[0] for cls in conj]
    sets = [[set(H.members) for H in cls] for cls in conj]
    maximal = [tuple(L for L in subs if L.order * p == K.order and hs[0].issuperset(L.members))
               for K, hs in zip(classes, sets)]
    marks = [tuple(qtbl.order // (cls[0].order * len(cls))
                   * sum(h.issuperset(K.members) for h in hs)
                   for cls, hs in zip(conj, sets))
             for K in classes]
    return classes, maximal, marks


def stacked_hom_basis(mod, sub, xi):
    """Reference Hom(Ind_H^Q xi, M) of a mod-p level module as one
    full-width kernel: w times the side-by-side stack of the A[h] - xi(h) I,
    h over H's greedy generators in member order, is 0.  Row i of the stack
    is row i of every A[h] joined as bytes, less xi(h) at slot i of each
    block; returns modp_left_kernel's reduced echelon basis of it, rows
    packed in mod.layout."""
    lay, dim = mod.layout, mod.dim
    sign = dict(zip(sub.members, xi))
    gens = greedy_generators(mod.qtbl.mult, sub.members, {0})
    wide = fp_rows(len(gens) * dim, mod.ring)
    size = dim * lay.nbytes
    diag = sum((sign[h] % mod.ring) << (b * dim * lay.bits) for b, h in enumerate(gens))
    mats = [mod.act(h) for h in gens]
    stacked = [wide.sub(int.from_bytes(b"".join(a[i].to_bytes(size, "little") for a in mats),
                                       "little"),
                        diag << (i * lay.bits))
               for i in range(dim)]
    return modp_left_kernel(stacked, mod.p, width=wide.width)


def stacked_brauer_dim(mod, K, maximal):
    """Reference dim M(K) of a mod-p level module from full-width kernels:
    dim M^K, the length of stacked_hom_basis at K, less the dense_rref rank
    of the images w * Tr_L^K of the rows w of stacked_hom_basis at every L
    in maximal, Tr_L^K the sum of the A[g^i], i < p, for the first member
    g of K outside L."""
    lay, p = mod.layout, mod.p
    images = []
    for L in maximal:
        g = next(x for x in K.members if x not in L.members)
        trace, x = [0] * mod.dim, 0
        for _ in range(p):
            trace = [lay.add(a, b) for a, b in zip(trace, mod.act(x))]
            x = mod.qtbl.mult[x][g]
        images += map(lay.unpack, lay.mul(stacked_hom_basis(mod, L, (1,) * L.order), trace))
    return len(stacked_hom_basis(mod, K, (1,) * K.order)) - len(dense_rref(images, p)[0])


def searched_sign_characters(tbl, sub):
    """Reference homomorphisms sub -> {1,-1} by search: a greedy generating
    set of d members, each of the 2^d sign assignments on it propagated
    through the table by BFS and kept only if multiplicative on every pair
    of members.  Value tuples aligned with sub.members, trivial first, then
    sorted."""
    members = list(sub.members)
    gens, reached = [], {0}
    for x in members:
        if x not in reached:
            gens.append(x)
            frontier = list(reached)
            for y in frontier:
                for g in gens:
                    z = tbl.mult[y][g]
                    if z not in reached:
                        reached.add(z)
                        frontier.append(z)
    chars = set()
    for signs in itertools.product((1, -1), repeat=len(gens)):
        val, frontier = {0: 1}, [0]
        for x in frontier:
            for g, s in zip(gens, signs):
                y = tbl.mult[x][g]
                if y not in val:
                    val[y] = val[x] * s
                    frontier.append(y)
        if all(val[tbl.mult[a][b]] == val[a] * val[b] for a in members for b in members):
            chars.add(tuple(val[m] for m in members))
    return sorted(chars, key=lambda c: (c != (1,) * len(members), c))


def word_replay_table(action):
    """Reference group table from a letter action, by replaying words.

    action[x][c] is x times letter c (columns x0, x0^-1, x1, x1^-1, ...) and
    element 0 is the identity.  A BFS from 0 gives every element a word;
    a*b is b's word replayed from a, letter by letter.  A second BFS over
    that table, letters in column order, re-indexes it, and each inverse is
    found by scanning its row for the identity.  Returns (mult, inv,
    gen_images, element_words, order_of), numbered canonically, with
    order_of[old] = new."""
    n, ncols = len(action), len(action[0])
    cols = {0: []}
    queue = [0]
    for x in queue:
        for c in range(ncols):
            y = action[x][c]
            if y not in cols:
                cols[y] = cols[x] + [c]
                queue.append(y)
    raw = []
    for a in range(n):
        row = []
        for b in range(n):
            x = a
            for c in cols[b]:
                x = action[x][c]
            row.append(x)
        raw.append(row)
    letters = [((c // 2, 1 if c % 2 == 0 else -1), action[0][c]) for c in range(ncols)]
    seq, words = [0], {0: ()}
    for x in seq:
        for letter, img in letters:
            y = raw[x][img]
            if y not in words:
                words[y] = words[x] + (letter,)
                seq.append(y)
    order_of = [seq.index(x) for x in range(n)]
    mult = tuple(tuple(order_of[raw[a][b]] for b in seq) for a in seq)
    inv = tuple(row.index(0) for row in mult)
    gen_images = tuple(order_of[img] for _, img in letters[::2])
    return mult, inv, gen_images, tuple(words[x] for x in seq), order_of


def closure(tbl, gens):
    """Members of <gens>, by BFS under right multiplication from 1."""
    members, frontier = {0}, [0]
    for x in frontier:
        for g in gens:
            y = tbl.mult[x][g]
            if y not in members:
                members.add(y)
                frontier.append(y)
    return members


def generators_for(tbl, members):
    """Greedy generators of the subgroup with these members, in member order:
    each member that the subgroup generated by those before it does not
    hold, with one full closure, under each pick and its inverse, per
    pick."""
    gens, have = [], {0}
    for x in members:
        if x not in have:
            gens.append(x)
            have = closure(tbl, gens + [tbl.inv[g] for g in gens])
    return tuple(gens)


def full_depth_dimension_chain(tbl, p):
    """Reference D_1, D_2, ... down to the first trivial term, each as
    (members, generators): the whole filtration Delta^1, ..., Delta^N = 0
    first, then every member g of D_(n-1) tested for g - 1 in Delta^n.
    D_1 is generated by the sorted distinct generator images; every later
    term by its greedy generators, each member in order that the ones
    before it do not generate."""
    spans = delta_filtration(tbl, p)
    if spans[-1].dim != 0:
        raise ValueError("augmentation filtration of a p-group did not reach 0")
    chain = [(tuple(sorted(closure(tbl, set(tbl.gen_images)))),
              tuple(sorted(set(tbl.gen_images))))]
    n = 2
    while len(chain[-1][0]) > 1:
        span = spans[min(n, len(spans)) - 1]
        members = []
        for g in chain[-1][0]:
            vec = [0] * tbl.order
            vec[g] += 1
            vec[0] += p - 1
            if span.coordinates(vec) is not None:
                members.append(g)
        chain.append((tuple(members), generators_for(tbl, members)))
        n += 1
    return chain


def jennings_delta_dims(chain, p):
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


def all_elements_normalizer(tbl, members):
    """Reference normalizer: the g with g*x*g^-1 in members for every x in
    members."""
    mset = set(members)
    return [g for g in range(tbl.order)
            if all(tbl.mult[tbl.mult[g][x]][tbl.inv[g]] in mset for x in members)]


def cyclic_extension_subgroups(tbl, p):
    """Reference subgroups of a p-group by cyclic extension, layer by layer,
    with no element skipped: <h, g> for every h of a layer and every g in
    the all-elements normalizer of h, outside h, with g^p in h; the first
    (h, g) to give a member set keeps it, with generators h's plus g.
    (members, generators) pairs sorted by (order, members)."""
    found = {(0,): ()}
    layer = [((0,), ())]
    while len(layer[0][0]) < tbl.order:
        nxt = {}
        for members, gens in layer:
            hset = set(members)
            for g in all_elements_normalizer(tbl, members):
                gp = 0
                for _ in range(p):
                    gp = tbl.mult[gp][g]
                if g in hset or gp not in hset:
                    continue
                grown = set()
                coset = list(members)
                for _ in range(p):
                    grown.update(coset)
                    coset = [tbl.mult[x][g] for x in coset]
                key = tuple(sorted(grown))
                nxt.setdefault(key, gens + (g,))
        found.update(nxt)
        layer = list(nxt.items())
    return sorted(found.items(), key=lambda s: (len(s[0]), s[0]))


def all_elements_conjugacy_classes(tbl, subs):
    """Reference classes of subgroups: each class is the set of conjugates
    of its least member tuple by every g in G, as sorted member tuples;
    classes in (order, least member tuple) order."""
    left = {s.members for s in subs}
    classes = []
    for members in sorted(left, key=lambda m: (len(m), m)):
        if members not in left:
            continue
        cls = {tuple(sorted(tbl.mult[tbl.mult[g][x]][tbl.inv[g]] for x in members))
               for g in range(tbl.order)}
        left -= cls
        classes.append(sorted(cls))
    return classes


def conjugation_jennings_series(tbl, p):
    """Reference Jennings recursion D_n = [D_(n-1), G] * (D_ceil(n/p))^p,
    the commutator term from every [d, g] = d g d^-1 g^-1 with d in
    D_(n-1) and g in G, the powers from every member of D_ceil(n/p).
    Member tuples, D_1 = G first, down to the trivial term."""
    chain = [tuple(sorted(closure(tbl, set(tbl.gen_images))))]
    while len(chain[-1]) > 1:
        n = len(chain) + 1
        gens = {tbl.mult[tbl.mult[tbl.mult[d][g]][tbl.inv[d]]][tbl.inv[g]]
                for d in chain[-1] for g in range(tbl.order)}
        gens.update(tbl.power(d, p) for d in chain[(n + p - 1) // p - 1])
        chain.append(tuple(sorted(closure(tbl, gens))))
    return chain


def lattice_letter_matrices(rlat):
    """The dense integer matrix of each generator image and its inverse on
    the relation lattice: row c is the chord entries of x * cycles[c]."""
    tbl, r = rlat.tbl, rlat.rank
    out = {}
    for x in {y for g in tbl.gen_images for y in (g, tbl.inv[g])}:
        rows = []
        for cycle in rlat.cycles:
            row = [0] * r
            for start, h, c in cycle:
                k = rlat.chord_at[start + tbl.mult[x][h]]
                if k >= 0:
                    row[k] = c
            rows.append(row)
        out[x] = rows
    return out


def _integer_step(tbl, above, sub):
    """One step of the integer walk: the level (divisors, letters) above,
    modulo its divisor rows d_j e_j and the rows of A[d] - I, A[d] along
    the word of d, for d over sub's generators; one Smith form.  Of y = x*V
    the level keeps the coordinates whose divisor is not 1, with letters
    V^-1 A[x] V there."""
    divisors, letters = above

    def reduced(rows, divs):
        return [[x % d if d else x for x, d in zip(row, divs)] for row in rows]

    width = len(divisors)
    rows = [[d * (i == j) for i in range(width)] for j, d in enumerate(divisors) if d]
    for d in sub.generators:
        if d:
            mats = [letters[tbl.letter(g, s)] for g, s in tbl.element_words[d]]
            a = functools.reduce(lambda out, m: reduced(mat_mul(m, out), divisors), mats)
            rows += ([x - (i == j) for i, x in enumerate(row)] for j, row in enumerate(a))
    diag, _, V, Vinv = smith_normal_form(rows or [[0] * width])
    diag += (0,) * (width - len(diag))
    kept = [j for j, d in enumerate(diag) if d != 1]
    new_divisors = [diag[j] for j in kept]
    down = [[row[j] for j in kept] for row in V]
    up = [list(Vinv[j]) for j in kept]
    new_letters = {x: reduced(mat_mul(up, mat_mul(a, down)), new_divisors)
                   for x, a in letters.items()}
    inv = AbelianInvariants(new_divisors.count(0), tuple(d for d in new_divisors if d))
    return inv, (new_divisors, new_letters)


def integer_walk(rlat, chain):
    """Reference level invariants for a descending chain of normal
    subgroups ending at 1: the integer walk up from the relation lattice,
    level n one Smith step from level n+1, a repeated subgroup sharing its
    level.  Returns AbelianInvariants aligned with chain."""
    level = ([0] * rlat.rank, lattice_letter_matrices(rlat))
    inv, members, out = AbelianInvariants(rlat.rank, ()), (0,), []
    for sub in reversed(chain):
        if sub.members != members:
            inv, level = _integer_step(rlat.tbl, level, sub)
            members = sub.members
        out.append(inv)
    return out[::-1]


def integer_g_coin(rlat, full):
    """Reference R/[R,F]: one integer Smith step from the lattice to the
    subgroup full, all of G."""
    return _integer_step(rlat.tbl, ([0] * rlat.rank, lattice_letter_matrices(rlat)), full)[0]


def bar_d2_gab(tbl):
    """Reference G_ab from the normalized bar complex's d2 alone: C1 / im d2
    = H1(G), im d2 spanned by the generator-block rows d2[g|x] = [x] - [gx]
    + [g], x a non-identity generator image, in the basis [g], g != 1."""
    n = tbl.order
    rows = []
    for g in range(1, n):
        for x in {x for x in tbl.gen_images if x}:
            vec = [0] * (n - 1)
            vec[g - 1] += 1
            vec[x - 1] += 1
            if tbl.mult[g][x]:
                vec[tbl.mult[g][x] - 1] -= 1
            rows.append(vec)
    return lattice_quotient(n - 1, rows)


def packed_level_rows(rlat, sub, ring):
    """(row, packed) for each row of A[d] - I nonzero over Z, d over sub's
    generators, in relation_rows' order: the row as a dense integer list,
    and packed mod ring entry by entry from the lattice's act, less e_c."""
    lay, r = fp_rows(rlat.rank, ring), rlat.rank
    out = []
    for d in sub.generators:
        if d:
            for c, nonzeros in enumerate(rlat.act(d)):
                row = [0] * r
                for j, e in nonzeros:
                    row[j] += e
                row[c] -= 1
                if any(row):
                    a = sum((e % ring) << (j * lay.bits) for j, e in nonzeros)
                    out.append((row, lay.sub(a, lay.unit(c))))
    return out


def full_elimination_over(coin, p, k):
    """Reference Coinvariants.over: (coords, down, letters) of the level
    over Z/p^k from one unit_pivot_rows elimination of every nonzero row
    of A[d] - I mod p^k, d over the level's generators (packed_level_rows),
    stopped at r - f - t_p pivots.  The quotient map and the letters are
    read off the pivot rows as over reads them."""
    rows = packed_level_rows(coin.rlat, coin.sub, p ** k)
    return _eliminated_over(coin, p, k, [v for _, v in rows if v])


def entered_elimination_over(coin, p, k):
    """Reference level 1 of Coinvariants.over at k > 1, the elimination it
    replaced: unit_pivot_rows on only the rows that entered the kept F_p
    span (Coinvariants.entered), packed mod p^k as relation_rows packs
    them, in their order; then as full_elimination_over."""
    rows = coin.rlat.relation_rows(coin.sub, p ** k)
    return _eliminated_over(coin, p, k, [rows[i] for i in coin.entered])


def _eliminated_over(coin, p, k, rows):
    rlat, ring, r = coin.rlat, p ** k, coin.rlat.rank
    lay = fp_rows(r, ring)
    rank = r - coin.invariants.free_rank - len(p_torsion(coin.invariants, p))
    pivots, _ = unit_pivot_rows(rows, lay, p, rank)
    if len(pivots) != rank:
        raise AssertionError(f"{len(pivots)} unit pivots, not {rank}")
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
