"""Exact integer and mod-p linear algebra.

Everything here is arbitrary-precision (plain Python ints); nothing ever
rounds.  Matrices are lists of row lists internally, with a small immutable
IntMatrix wrapper for public return values.  Row-vector convention
throughout: vectors multiply matrices from the left, lattices are spanned
by rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

Rows = list[list[int]]


@dataclass(frozen=True)
class IntMatrix:
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.entries:
            w = len(self.entries[0])
            if any(len(r) != w for r in self.entries):
                raise ValueError("ragged matrix")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "IntMatrix":
        return cls(tuple(tuple(int(x) for x in r) for r in rows))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def to_rows(self) -> Rows:
        return [list(r) for r in self.entries]

    def diagonal(self) -> list[int]:
        return [self.entries[i][i] for i in range(min(self.rows, self.cols))]


def identity_rows(n: int) -> Rows:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Rows, b: Rows) -> Rows:
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    cols = len(b[0])
    out = []
    for row in a:
        acc = [0] * cols
        for k, x in enumerate(row):
            if x:
                bk = b[k]
                for j in range(cols):
                    acc[j] += x * bk[j]
        out.append(acc)
    return out


def transpose(a: Rows) -> Rows:
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def det_int(rows: Rows) -> int:
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


def integer_inverse(rows: Rows) -> Rows:
    """Exact inverse of a unimodular integer matrix, read off its Smith form.

    U*A*V = I gives A^-1 = V*U.  Raises ValueError when A is not square or
    its Smith form is not the identity (A is singular or not unimodular).
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("inverse of a non-square matrix")
    if n == 0:
        return []
    D, U, V, _ = smith_normal_form(rows)
    if D.diagonal() != [1] * n:
        raise ValueError("matrix is not unimodular over Z")
    return mat_mul(V.to_rows(), U.to_rows())


# ---------------------------------------------------------------------------
# Smith normal form

def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def smith_normal_form(a) -> tuple[IntMatrix, IntMatrix, IntMatrix, IntMatrix]:
    """Return (D, U, V, Vinv) with U*A*V = D diagonal, d1 | d2 | ..., di >= 0.

    U and V are unimodular products of elementary row/column operations.
    Vinv = V^-1 is accumulated alongside V: each column operation on V is
    mirrored by the inverse row operation on Vinv (col_j -= q*col_t becomes
    Vinv[t] += q*Vinv[j], a column swap becomes a row swap).  Checked before
    returning: U*A*V == D, V*Vinv == I, and det U = +-1 for up to 64 rows.
    Pivot rule: smallest nonzero absolute value in the working submatrix,
    ties by lowest (row, col).
    """
    A = a.to_rows() if isinstance(a, IntMatrix) else [list(r) for r in a]
    m = len(A)
    n = len(A[0]) if A else 0
    M = [r[:] for r in A]
    U = identity_rows(m)
    V = identity_rows(n)
    Vinv = identity_rows(n)

    def row_sub(i, t, q):  # row_i -= q * row_t
        Mi, Mt, Ui, Ut = M[i], M[t], U[i], U[t]
        for j in range(n):
            Mi[j] -= q * Mt[j]
        for j in range(m):
            Ui[j] -= q * Ut[j]

    def col_sub(j, t, q):  # col_j -= q * col_t
        for i in range(m):
            M[i][j] -= q * M[i][t]
        for i in range(n):
            V[i][j] -= q * V[i][t]
        Vt, Vj = Vinv[t], Vinv[j]
        for i in range(n):
            Vt[i] += q * Vj[i]

    def col_swap(j, t):
        for row in M:
            row[j], row[t] = row[t], row[j]
        for row in V:
            row[j], row[t] = row[t], row[j]
        Vinv[j], Vinv[t] = Vinv[t], Vinv[j]

    t = 0
    while t < min(m, n):
        # deterministic pivot: smallest |entry|, then lowest row, then col
        best = None
        for i in range(t, m):
            Mi = M[i]
            for j in range(t, n):
                x = Mi[j]
                if x:
                    key = (abs(x), i, j)
                    if best is None or key < best:
                        best = key
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            M[bi], M[t] = M[t], M[bi]
            U[bi], U[t] = U[t], U[bi]
        if bj != t:
            col_swap(bj, t)
        while True:
            dirty = False
            for i in range(t + 1, m):
                if M[i][t]:
                    q = M[i][t] // M[t][t]
                    if q:
                        row_sub(i, t, q)
                    if M[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if M[t][j]:
                    q = M[t][j] // M[t][t]
                    if q:
                        col_sub(j, t, q)
                    if M[t][j]:
                        dirty = True
            if not dirty:
                break
            # a nonzero remainder is strictly smaller than the pivot;
            # re-select inside the submatrix and keep going
            best = None
            for i in range(t, m):
                Mi = M[i]
                for j in range(t, n):
                    x = Mi[j]
                    if x:
                        key = (abs(x), i, j)
                        if best is None or key < best:
                            best = key
            _, bi, bj = best
            if bi != t:
                M[bi], M[t] = M[t], M[bi]
                U[bi], U[t] = U[t], U[bi]
            if bj != t:
                col_swap(bj, t)
        if M[t][t] < 0:
            M[t] = [-x for x in M[t]]
            U[t] = [-x for x in U[t]]
        # divisibility repair: fold any non-multiple into row t and redo
        d = M[t][t]
        offender = None
        for i in range(t + 1, m):
            Mi = M[i]
            for j in range(t + 1, n):
                if Mi[j] % d:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_sub(t, offender, -1)  # row_t += row_offender
            continue
        t += 1

    D = [[M[i][j] if i == j else 0 for j in range(n)] for i in range(m)]
    if M != D:
        raise AssertionError("Smith reduction left off-diagonal residue")
    diag = [D[i][i] for i in range(min(m, n))]
    for i in range(len(diag) - 1):
        if diag[i + 1] and diag[i] == 0:
            raise AssertionError("zero divisor precedes nonzero in Smith chain")
        if diag[i] and diag[i + 1] % diag[i]:
            raise AssertionError("Smith divisibility chain broken")
    if mat_mul(mat_mul(U, A), V) != D:
        raise AssertionError("U*A*V != D after Smith reduction")
    if m <= 64 and abs(det_int(U)) != 1:
        raise AssertionError("U not unimodular")
    if mat_mul(V, Vinv) != identity_rows(n):
        raise AssertionError("V*Vinv != I after Smith reduction")
    return (IntMatrix.from_rows(D), IntMatrix.from_rows(U), IntMatrix.from_rows(V),
            IntMatrix.from_rows(Vinv))


def elementary_divisors(rows: Rows) -> list[int]:
    """Nonzero diagonal of the Smith form (with multiplicity, 1s included)."""
    if not rows or not rows[0]:
        return []
    D, _, _, _ = smith_normal_form(rows)
    return [d for d in D.diagonal() if d]


# ---------------------------------------------------------------------------
# abelian invariants

@dataclass(frozen=True)
class AbelianInvariants:
    """Isomorphism type Z^free_rank + sum Z/d_i with 2 <= d1 | d2 | ..."""

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        prev = None
        for d in self.torsion:
            if d < 2:
                raise ValueError("torsion entries must be >= 2")
            if prev is not None and d % prev:
                raise ValueError("torsion entries must form a divisibility chain")
            prev = d

    @property
    def order(self) -> int | None:
        """Group order, None if infinite."""
        if self.free_rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def is_torsion_free(self) -> bool:
        return not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}" if self.free_rank > 1 else "Z")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def lattice_quotient(ambient_rank: int, gens: Iterable[Sequence[int]]) -> AbelianInvariants:
    """Invariants of Z^ambient_rank / (row span of gens)."""
    rows = [list(r) for r in gens]
    for r in rows:
        if len(r) != ambient_rank:
            raise ValueError("generator length != ambient rank")
    if not rows or ambient_rank == 0:
        return AbelianInvariants(ambient_rank, ())
    divisors = elementary_divisors(rows)
    torsion = tuple(d for d in divisors if d > 1)
    return AbelianInvariants(ambient_rank - len(divisors), torsion)


def p_part(d: int, p: int) -> int:
    q = 1
    while d % p == 0:
        d //= p
        q *= p
    return q


def p_torsion(inv: AbelianInvariants, p: int) -> tuple[int, ...]:
    """p-power elementary divisors of the torsion part (empty = no p-torsion)."""
    parts = [p_part(d, p) for d in inv.torsion]
    return tuple(q for q in parts if q > 1)


# ---------------------------------------------------------------------------
# Hermite-form row lattices

class Lattice:
    """Sublattice of Z^n spanned by inserted rows, kept in echelon form.

    Basis rows have strictly increasing pivot columns and positive pivots.
    canonicalize() additionally reduces entries above each pivot into
    [0, pivot), yielding the unique Hermite basis of the span.
    """

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.basis: Rows = []
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.basis)

    def add(self, vec: Sequence[int]) -> bool:
        """Insert one vector; True iff the spanned lattice grew or changed.

        Every basis row is zero left of its pivot, and so is v after a
        reduction step at pivot j; so each step touches columns j on only,
        and the pivot scan resumes at j + 1.
        """
        v = [int(x) for x in vec]
        if len(v) != self.ambient:
            raise ValueError("vector length != ambient dimension")
        changed = False
        k = 0
        j = 0
        while True:
            j = next((c for c in range(j, self.ambient) if v[c]), -1)
            if j < 0:
                return changed
            while k < len(self.basis) and self._pivots[k] < j:
                k += 1
            if k == len(self.basis) or self._pivots[k] > j:
                if v[j] < 0:
                    v = [-x for x in v]
                self.basis.insert(k, v)
                self._pivots.insert(k, j)
                return True
            b = self.basis[k]
            vj, bj = v[j], b[j]
            if vj % bj == 0:
                q = vj // bj
                v[j:] = [x - q * y for x, y in zip(v[j:], b[j:])]
            else:
                g, s, t = _xgcd(bj, vj)
                if g < 0:  # keep the pivot positive
                    g, s, t = -g, -s, -t
                bq, vq = bj // g, vj // g
                tail = list(zip(b[j:], v[j:]))
                b[j:] = [s * x + t * y for x, y in tail]
                v[j:] = [bq * y - vq * x for x, y in tail]
                changed = True
            j += 1

    def canonicalize(self) -> None:
        """Reduce above-pivot entries; basis becomes the Hermite normal form.

        Top row first: row k is zero at every earlier pivot, so clearing
        above pivot k leaves the columns already cleared alone.
        """
        for k in range(len(self.basis)):
            j = self._pivots[k]
            b = self.basis[k]
            for i in range(k):
                row = self.basis[i]
                q = row[j] // b[j]
                if q:
                    row[j:] = [x - q * y for x, y in zip(row[j:], b[j:])]

    def coordinates(self, vec: Sequence[int]) -> list[int] | None:
        """c with sum c_k basis_k == vec, or None if vec is not in the lattice."""
        v = [int(x) for x in vec]
        if len(v) != self.ambient:
            raise ValueError("vector length != ambient dimension")
        coeffs = [0] * len(self.basis)
        for k, (b, j) in enumerate(zip(self.basis, self._pivots)):
            if v[j]:  # b is zero left of j: columns before j are left alone
                if v[j] % b[j]:
                    return None
                q = v[j] // b[j]
                coeffs[k] = q
                v[j:] = [x - q * y for x, y in zip(v[j:], b[j:])]
        return coeffs if not any(v) else None

    def __contains__(self, vec) -> bool:
        return self.coordinates(vec) is not None

    def equals(self, other: "Lattice") -> bool:
        if self.ambient != other.ambient or self.rank != other.rank:
            return False
        return all(r in other for r in self.basis) and all(r in self for r in other.basis)


def lattice_from_rows(ambient: int, rows: Iterable[Sequence[int]]) -> Lattice:
    lat = Lattice(ambient)
    for r in rows:
        lat.add(r)
    lat.canonicalize()
    return lat


def left_kernel(rows: Rows, width: int | None = None) -> Rows:
    """Basis of {x in Z^m : x * A = 0} for A given as m rows.

    Echelonize (A | I); rows whose A-part vanished carry kernel vectors in
    the identity part.  The result is a full basis of the kernel lattice.
    """
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


# ---------------------------------------------------------------------------
# mod-p (and mod-p^k) routines

def modp_rref(rows: Rows, p: int) -> tuple[Rows, list[int]]:
    """Reduced row echelon form over F_p; returns (rref rows, pivot columns).
    Zero rows are dropped."""
    a = [[x % p for x in r] for r in rows]
    ncols = len(a[0]) if a else 0
    pivots: list[int] = []
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


def modp_rank(rows: Rows, p: int) -> int:
    _, pivots = modp_rref(rows, p)
    return len(pivots)


def modp_left_kernel(rows: Rows, p: int, width: int | None = None) -> Rows:
    """Basis of {x : x * A = 0 mod p}, A given as m rows of length n."""
    m = len(rows)
    n = width if width is not None else (len(rows[0]) if rows else 0)
    aug = []
    for i, r in enumerate(rows):
        e = [0] * m
        e[i] = 1
        aug.append([x % p for x in r] + e)
    # echelonize prioritizing the A-columns
    red, pivots = modp_rref(aug, p)
    out = [row[n:] for row in red if not any(row[:n])]
    # rows of rref that vanished entirely never appear; recover them:
    # rank-nullity says we need m - rank(A) kernel rows
    want = m - modp_rank(rows, p)
    if len(out) != want:
        raise AssertionError("kernel dimension mismatch")
    return out


def modp_solve_left(a_rows: Rows, b: Sequence[int], p: int) -> list[int] | None:
    """One x with x * A = b (mod p), or None.  A is m rows of length n."""
    m = len(a_rows)
    if m == 0:
        return [] if not any(x % p for x in b) else None
    at = transpose(a_rows)  # n x m, solve At * x^T = b^T
    aug = [[x % p for x in row] + [b[i] % p] for i, row in enumerate(at)]
    red, pivots = modp_rref(aug, p)
    x = [0] * m
    for row, c in zip(red, pivots):
        if c == m:
            return None  # pivot in the constants column: inconsistent
        x[c] = row[m]
    return x


def is_invertible_modp(rows: Rows, p: int) -> bool:
    n = len(rows)
    return n == 0 or (len(rows[0]) == n and modp_rank(rows, p) == n)


class ModpSpan:
    """Incremental F_p row space.

    Inserts keep a plain echelon form: rows with leading entry 1 at
    ascending pivots, nothing cleared above a pivot.  Reducing a vector
    against the rows in pivot order is exact on such a form, because the
    row at pivot c is zero left of c and so leaves every earlier pivot
    entry alone.  Reading `rows` clears above the pivots once after an
    insert, so it is the reduced echelon form; `pivots` is the same for
    both forms.
    """

    def __init__(self, width: int, p: int):
        self.width = width
        self.p = p
        self.pivots: list[int] = []
        self._rows: Rows = []
        self._reduced = True

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> Rows:
        """Reduced echelon basis, ordered by pivot."""
        if not self._reduced:
            p, rows = self.p, self._rows
            # clear above each pivot, bottom row first, so each row used is final
            for k in range(len(rows) - 1, 0, -1):
                c = self.pivots[k]
                below = rows[k][c:]
                for i in range(k):
                    row = rows[i]
                    f = row[c]
                    if f:
                        rows[i] = row[:c] + [(x - f * y) % p for x, y in zip(row[c:], below)]
            self._reduced = True
        return self._rows

    def reduce(self, vec: Sequence[int]) -> list[int]:
        p = self.p
        v = [x % p for x in vec]
        for row, c in zip(self._rows, self.pivots):
            f = v[c]
            if f:  # the row is zero left of its pivot
                v[c:] = [(x - f * y) % p for x, y in zip(v[c:], row[c:])]
        return v

    def contains(self, vec: Sequence[int]) -> bool:
        return not any(self.reduce(vec))

    def add(self, vec: Sequence[int]) -> bool:
        """Insert one vector; True iff the dimension grew."""
        p = self.p
        v = self.reduce(vec)
        c = next((j for j, x in enumerate(v) if x), None)
        if c is None:
            return False
        inv = pow(v[c], -1, p)
        v = [(x * inv) % p for x in v]
        k = next((i for i, pc in enumerate(self.pivots) if pc > c), len(self.pivots))
        self._rows.insert(k, v)
        self.pivots.insert(k, c)
        self._reduced = False
        return True
