"""Reference algorithms for the tests, standard library only.

They share no code with qrlab, so a test that compares qrlab against them
is not checking a kernel against itself.
"""

import itertools
import math
from fractions import Fraction


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


def _fraction_rref_rank(rows):
    a = [list(r) for r in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        a[rank] = [x / a[rank][c] for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][c]:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank, a


def box_solutions(table, fix, dim, cap, box_cap):
    """Reference marks solver: Smith-reduce table * m = fix with
    smallest_entry_snf, bound the free coefficients by the corners of the
    box 0 <= m_j <= dim on s independent rows, then test every point of the
    coefficient box in itertools.product order.  Same return value as
    qrlab's permrec._integral_solutions."""
    t = len(fix)
    D, U, V, _ = smallest_entry_snf([list(r) for r in table])
    ufix = [sum(U[i][k] * fix[k] for k in range(t)) for i in range(t)]
    z0 = [0] * t
    free = []
    for i in range(t):
        d = D[i][i] if i < len(D[0]) else 0
        if d == 0:
            if ufix[i]:
                return [], "orbit-count system is inconsistent", False
            free.append(i)
        elif ufix[i] % d:
            return [], (f"orbit-count system forces a non-integral multiplicity "
                        f"({ufix[i]}/{d})"), False
        else:
            z0[i] = ufix[i] // d
    base = [sum(V[j][i] * z0[i] for i in range(t)) for j in range(t)]
    if not free:
        if all(0 <= x <= dim for x in base):
            return [tuple(base)], None, False
        return [], f"unique multiplicity vector {tuple(base)} is not admissible", False
    dirs = [[V[j][i] for j in range(t)] for i in free]
    s = len(dirs)
    picked = []
    for j in range(t):
        trial = [[Fraction(dirs[i][k]) for i in range(s)] for k in picked + [j]]
        if _fraction_rref_rank(trial)[0] == len(picked) + 1:
            picked.append(j)
    picked = picked[:s]
    aug = [[Fraction(dirs[i][j]) for i in range(s)] + [Fraction(int(a == b)) for b in range(s)]
           for a, j in enumerate(picked)]
    sub_inv = [r[s:] for r in _fraction_rref_rank(aug)[1]]
    coeffs_at = [
        [sum(sub_inv[i][a] * (corner[a] - base[picked[a]]) for a in range(s))
         for i in range(s)]
        for corner in itertools.product((0, dim), repeat=s)
    ]
    ranges = [range(math.ceil(min(c[i] for c in coeffs_at)),
                    math.floor(max(c[i] for c in coeffs_at)) + 1) for i in range(s)]
    if math.prod(max(len(r), 1) for r in ranges) > box_cap:
        return [], None, True
    sols = []
    capped = False
    for coeffs in itertools.product(*ranges):
        m = [b + sum(c * dvec[j] for c, dvec in zip(coeffs, dirs))
             for j, b in enumerate(base)]
        if all(0 <= x <= dim for x in m):
            sols.append(tuple(m))
            if len(sols) > cap:
                capped = True
                break
    sols = sorted(set(sols))
    if capped:
        sols = sols[:cap]
    if not sols and not capped:
        return [], "no nonnegative integral multiplicity vector exists", False
    return sols, None, capped
