"""Exact integer and mod-p linear algebra.

Everything here is arbitrary-precision (plain Python ints); nothing ever
rounds.  Matrices are lists of row lists internally; the Smith form returns
its transforms as tuples of row tuples.  Row-vector convention throughout:
vectors multiply matrices from the left, lattices are spanned by rows.
Mod-p work has one elimination routine, ModpSpan, which keeps each row
packed into a single int (FpRows); modp_rank feeds it rows until their
rank reaches a given stop, and the left kernel is one span of the packed
rows [A | I].
Packed rows work over any Z/m, and FpRows.mul multiplies matrices kept
as packed rows; the level modules use it over every ring Z/p^k.  Over
Z/p^k, unit_pivot_rows eliminates with unit pivots only, and
local_smith_exponents iterates it into the Smith form over the local ring.
Dense mat_mul is for the integer work (the Smith certificate, integer
inverses).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

Rows = list[list[int]]


def identity_rows(n: int) -> Rows:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Rows, b: Rows) -> Rows:
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    cols = len(b[0])
    nonzero_cols = [[j for j, y in enumerate(bk) if y] for bk in b]
    out = []
    for row in a:
        acc = [0] * cols
        for x, bk, js in zip(row, b, nonzero_cols):
            if x:
                for j in js:
                    acc[j] += x * bk[j]
        out.append(acc)
    return out


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
    diag, U, V, _ = smith_normal_form(rows)
    if diag != (1,) * n:
        raise ValueError("matrix is not unimodular over Z")
    return mat_mul(V, U)


# ---------------------------------------------------------------------------
# Smith normal form

def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _smallest_entry(M: Rows, t: int, n: int) -> tuple[int, int] | None:
    """Position of the smallest nonzero |entry| of M[t:, t:], ties by lowest
    (row, col); None when that submatrix is zero.  A unit is returned as soon
    as it is met: no key (|x|, i, j) can beat the first one in row-major
    order."""
    best = None
    for i in range(t, len(M)):
        Mi = M[i]
        for j in range(t, n):
            x = Mi[j]
            if x:
                if x == 1 or x == -1:
                    return i, j
                key = (abs(x), i, j)
                if best is None or key < best:
                    best = key
    return None if best is None else best[1:]


def smith_normal_form(a) -> tuple[tuple[int, ...], tuple, tuple, tuple]:
    """Return (diag, U, V, Vinv) with U*A*V = D diagonal, d1 | d2 | ..., di >= 0.

    diag is the diagonal of D, of length min(m, n); U, V and Vinv are
    tuples of row tuples.  Every caller reads the same statement:
    Z^n / rowspan(A) = sum_j Z/d_j + Z^(n-r) in the coordinates y = x*V,
    with r the number of nonzero d_j.  Three checks before returning
    prove it:
      (a) in A*V, column j is divisible by d_j for j < r, and every
          column from r on is zero, so rowspan(A)*V <= rowspan(D);
      (b) U[:r]*A equals the rows d_i*Vinv[i], i < r, so rowspan(D)*Vinv
          <= rowspan(A), the reverse inclusion;
      (c) V*Vinv = I, so V is unimodular and Vinv is its inverse.
    They cost m*n^2 + r*m*n + n^3 cells.  The rows of U past the rank are
    returned but not certified.  For a unimodular square A, r = m = n and
    (b) with (c) gives the whole product U*A*V = I.
    V^-1 is accumulated alongside V: each column operation on V is
    mirrored by the inverse row operation on Vinv (col_j -= q*col_t
    becomes Vinv[t] += q*Vinv[j], a column swap becomes a row swap).
    Pivot rule: smallest nonzero absolute value in the working submatrix,
    ties by lowest (row, col); the scan stops at the first unit.
    At step t every entry of M outside rows t.. and columns t.. is zero
    except the settled diagonal, so row operations touch M from column t
    on and column operations from row t on.  A unit pivot divides every
    entry, so it needs neither a second elimination round nor the
    divisibility repair.  Raises ValueError on a ragged matrix.
    """
    A = [list(r) for r in a]
    m = len(A)
    n = len(A[0]) if A else 0
    if any(len(r) != n for r in A):
        raise ValueError("ragged matrix")
    M = [r[:] for r in A]
    U = identity_rows(m)
    V = identity_rows(n)
    Vinv = identity_rows(n)

    def row_sub(i, t, q, start):  # row_i -= q * row_t, zero before start
        Mi, Mt = M[i], M[t]
        for j in range(start, n):
            Mi[j] -= q * Mt[j]
        Ui = U[i]
        for j, x in enumerate(U[t]):
            if x:
                Ui[j] -= q * x

    def col_sub(j, t, q):  # col_j -= q * col_t, rows above t are zero
        for i in range(t, m):
            Mi = M[i]
            Mi[j] -= q * Mi[t]
        for Vi in V:
            x = Vi[t]
            if x:
                Vi[j] -= q * x
        Vt = Vinv[t]
        for i, x in enumerate(Vinv[j]):
            if x:
                Vt[i] += q * x

    def row_swap(i, t):
        M[i], M[t] = M[t], M[i]
        U[i], U[t] = U[t], U[i]

    def col_swap(j, t):
        for row in M:
            row[j], row[t] = row[t], row[j]
        for row in V:
            row[j], row[t] = row[t], row[j]
        Vinv[j], Vinv[t] = Vinv[t], Vinv[j]

    t = 0
    while t < min(m, n):
        at = _smallest_entry(M, t, n)
        if at is None:
            break
        while True:
            bi, bj = at
            if bi != t:
                row_swap(bi, t)
            if bj != t:
                col_swap(bj, t)
            Mt = M[t]
            piv = Mt[t]
            dirty = False
            for i in range(t + 1, m):
                if M[i][t]:
                    q = M[i][t] // piv
                    if q:
                        row_sub(i, t, q, t)
                    if M[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if Mt[j]:
                    q = Mt[j] // piv
                    if q:
                        col_sub(j, t, q)
                    if Mt[j]:
                        dirty = True
            if not dirty:
                break
            # a nonzero remainder is strictly smaller than the pivot;
            # re-select inside the submatrix and keep going
            at = _smallest_entry(M, t, n)
            if abs(M[at[0]][at[1]]) >= abs(piv):
                raise AssertionError("Smith elimination left no smaller remainder")
        if M[t][t] < 0:
            M[t] = [-x for x in M[t]]
            U[t] = [-x for x in U[t]]
        # divisibility repair: fold any non-multiple into row t and redo
        d = M[t][t]
        offender = None
        if d != 1:
            for i in range(t + 1, m):
                Mi = M[i]
                for j in range(t + 1, n):
                    if Mi[j] % d:
                        offender = i
                        break
                if offender is not None:
                    break
        if offender is not None:
            row_sub(t, offender, -1, t)  # row_t += row_offender
            continue
        t += 1

    if any(x for i, row in enumerate(M) for j, x in enumerate(row) if i != j):
        raise AssertionError("Smith reduction left off-diagonal residue")
    diag = tuple(M[i][i] for i in range(min(m, n)))
    for i in range(len(diag) - 1):
        if diag[i + 1] and diag[i] == 0:
            raise AssertionError("zero divisor precedes nonzero in Smith chain")
        if diag[i] and diag[i + 1] % diag[i]:
            raise AssertionError("Smith divisibility chain broken")
    r = sum(1 for d in diag if d)
    for row in mat_mul(A, V):
        if any(row[j] % diag[j] for j in range(r)) or any(row[r:]):
            raise AssertionError("A*V is not in the row span of D")
    if mat_mul(U[:r], A) != [[diag[i] * x for x in Vinv[i]] for i in range(r)]:
        raise AssertionError("U*A != D*Vinv on the first r rows")
    if mat_mul(V, Vinv) != identity_rows(n):
        raise AssertionError("V*Vinv != I after Smith reduction")
    return diag, tuple(map(tuple, U)), tuple(map(tuple, V)), tuple(map(tuple, Vinv))


def elementary_divisors(rows: Rows) -> list[int]:
    """Nonzero diagonal of the Smith form (with multiplicity, 1s included)."""
    if not rows or not rows[0]:
        return []
    return [d for d in smith_normal_form(rows)[0] if d]


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
# mod-p routines: one packed-row elimination kernel

class FpRows:
    """Vectors over Z/m of one width, each packed into a single int.

    Any modulus m >= 2 works: F_p rows for the mod-p eliminations, and
    Z/p^k rows for level modules over every ring.  Coordinate j sits in
    slot j, bits [j*bits, (j+1)*bits), little-endian, as a residue in
    [0, m).  bits is the least multiple of 8 with 2^(bits-1) >= m: one
    byte per slot for m < 128, whole bytes always, so a row converts to
    bytes slot by slot.  Slotwise addition is one integer addition plus a
    correction: with the bias 2^(bits-1) - m added, a slot's high bit comes
    up exactly where the sum reached m, and m is subtracted there.  No slot
    ever carries into the next.  Over F_2 addition is XOR.  Nothing here
    divides, so only ModpSpan, which scales its pivots to 1, needs m prime.
    """

    def __init__(self, width: int, modulus: int):
        self.width = width
        self.modulus = modulus
        self.nbytes = (modulus.bit_length() + 8) // 8
        self.bits = 8 * self.nbytes
        self.slot_mask = (1 << self.bits) - 1
        ones = sum(1 << (j * self.bits) for j in range(width))
        self._ms = modulus * ones
        self._bias = ((1 << (self.bits - 1)) - modulus) * ones
        self._high = (1 << (self.bits - 1)) * ones

    def pack(self, vec: Sequence[int]) -> int:
        if len(vec) != self.width:
            raise ValueError("vector length != span width")
        m = self.modulus
        if self.nbytes == 1:
            return int.from_bytes(bytes([x % m for x in vec]), "little")
        return int.from_bytes(b"".join((x % m).to_bytes(self.nbytes, "little") for x in vec),
                              "little")

    def unpack(self, x: int) -> list[int]:
        raw = x.to_bytes(self.width * self.nbytes, "little")
        if self.nbytes == 1:
            return list(raw)
        if self.nbytes == 2:  # low and high bytes are the even and odd ones
            return [lo | hi << 8 for lo, hi in zip(raw[::2], raw[1::2])]
        k = self.nbytes
        return [int.from_bytes(raw[i:i + k], "little") for i in range(0, len(raw), k)]

    def unit(self, j: int) -> int:
        """The j-th standard basis vector."""
        return 1 << (j * self.bits)

    def entry(self, x: int, j: int) -> int:
        return (x >> (j * self.bits)) & self.slot_mask

    def _fold(self, t: int) -> int:
        """Slotwise t mod m, for slots in [0, 2m)."""
        return t - (((t + self._bias) & self._high) >> (self.bits - 1)) * self.modulus

    def add(self, a: int, b: int) -> int:
        if self.modulus == 2:
            return a ^ b
        return self._fold(a + b)

    def sub(self, a: int, b: int) -> int:
        if self.modulus == 2:
            return a ^ b
        return self._fold(a + (self._ms - b))  # m - b leaves every slot in [1, m]

    def difference(self, plus: int, minus: int) -> int:
        """plus - minus, for rows packed one byte per slot, plus's slots in
        [0, m) and minus's in [0, m]: spread into this layout's slots when
        those are wider, then one subtraction.  No slot of plus + (m - minus)
        leaves [0, 2m), so one fold reduces it, over F_2 as well."""
        if self.nbytes > 1:
            plus, minus = self._spread(plus), self._spread(minus)
        return self._fold(plus + (self._ms - minus))

    def _spread(self, x: int) -> int:
        """A row packed one byte per slot, in this layout."""
        out = bytearray(self.width * self.nbytes)
        out[::self.nbytes] = x.to_bytes(self.width, "little")
        return int.from_bytes(out, "little")

    def scale(self, x: int, c: int) -> int:
        """c * x, by doubling and adding; c in [1, m)."""
        out = 0
        while True:
            if c & 1:
                out = self.add(out, x) if out else x
            c >>= 1
            if not c:
                return out
            x = self.add(x, x)

    def cancel(self, v: int, row: int, j: int) -> int:
        """v - v_j * row, for a row whose slot j holds 1."""
        m = self.modulus
        if m == 2:
            return v ^ row
        f = (v >> (j * self.bits)) & self.slot_mask
        if 2 * f > m:  # v + (m - f) * row
            return self._fold(v + (row if f == m - 1 else self.scale(row, m - f)))
        # v + (m - f * row), every slot of the bracket in [1, m]
        return self._fold(v + (self._ms - (row if f == 1 else self.scale(row, f))))

    def mul(self, a: Iterable[int], b: Sequence[int]) -> tuple[int, ...]:
        """The packed rows of A*B, as a tuple: row i is sum_j a_ij * B_j.

        b is the len(b) rows of B in this layout, so the width is B's
        column count; a's rows are packed at the same modulus with width
        len(b).  Over F_2 a row is the XOR of the rows of B its ones pick.
        Otherwise the rows of B are spread once into slots wide enough for
        len(b) * (m - 1)^2, each row of A*B is one multiply-add over them
        with no carry between slots, and is reduced mod m as it is packed.
        """
        inner = len(b)
        if self.modulus == 2:
            return tuple([functools.reduce(operator.xor,
                                           itertools.compress(b, x.to_bytes(inner, "little")), 0)
                          for x in a])
        nb, wide = self.nbytes, (inner * (self.modulus - 1) ** 2).bit_length() // 8 + 1
        spread = []
        for row in b:
            raw, out = row.to_bytes(self.width * nb, "little"), bytearray(self.width * wide)
            for t in range(nb):
                out[t::wide] = raw[t::nb]
            spread.append(int.from_bytes(out, "little"))
        src = fp_rows(inner, self.modulus)
        rows = []
        for x in a:
            raw = sum(map(operator.mul, src.unpack(x), spread)).to_bytes(self.width * wide, "little")
            rows.append(self.pack([int.from_bytes(raw[i:i + wide], "little")
                                   for i in range(0, len(raw), wide)]))
        return tuple(rows)

    def permutation(self, src: Sequence[int]):
        """The map taking a packed row r to the row whose slot k holds r's slot
        src[k]; one byte gather, no per-coordinate work."""
        if self.width < 2:
            return lambda x: x
        k = self.nbytes
        pick = operator.itemgetter(*[s * k + i for s in src for i in range(k)])
        size = self.width * k
        return lambda x: int.from_bytes(bytes(pick(x.to_bytes(size, "little"))), "little")


@functools.cache
def fp_rows(width: int, modulus: int) -> FpRows:
    """The shared packed layout for one width and modulus."""
    return FpRows(width, modulus)


class ModpSpan:
    """Incremental F_p row space on packed rows (see FpRows).

    The basis is a semi-echelon form: one packed row per pivot column c,
    zero left of c and 1 at c, kept in a pivot -> row dict and never
    cleared above its pivot.  A vector is reduced on its leading slot only,
    found as the lowest set bit, by the row at that pivot; when the leading
    slot is not a pivot the vector is outside the span, since every nonzero
    combination of basis rows leads at a pivot.  add() and contains() take
    a sequence of ints or a row already packed in this span's layout.

    The reduced echelon form is read only by modp_left_kernel and by
    relmod's Coinvariants.over, so `rows` clears above the pivots and
    unpacks only when read; `pivots` is the same for both forms.
    """

    def __init__(self, width: int, p: int):
        self.width = width
        self.p = p
        self.layout = fp_rows(width, p)
        self.pivots: list[int] = []
        self._by_pivot: dict[int, int] = {}

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def packed(self) -> list[int]:
        """The semi-echelon basis as packed rows, in insertion order."""
        return list(self._by_pivot.values())

    @property
    def rows(self) -> Rows:
        """Reduced echelon basis, ordered by pivot."""
        lay, pivots = self.layout, self.pivots
        done: dict[int, int] = {}
        # bottom row first, so every row used to clear is already reduced:
        # zero at every pivot but its own, so clearing at c leaves the
        # other pivot slots alone, and one unpack reads them all
        for k in range(len(pivots) - 1, -1, -1):
            row = self._by_pivot[pivots[k]]
            vals = lay.unpack(row)
            for c in pivots[k + 1:]:
                if vals[c]:
                    row = lay.cancel(row, done[c], c)
            done[pivots[k]] = row
        return [lay.unpack(done[c]) for c in pivots]

    def _reduce(self, v: int, coeffs: dict[int, int] | None = None) -> tuple[int, int]:
        """(residue, its leading slot), or (0, -1) when v lies in the span.

        Each step clears the leading slot, so the leading slot strictly
        advances and uses each pivot at most once.  coeffs, when given,
        collects the multiple of each basis row taken off, by pivot.
        """
        lay, by_pivot, bits = self.layout, self._by_pivot, self.layout.bits
        for _ in range(len(by_pivot) + 1):
            if not v:
                return 0, -1
            c = ((v & -v).bit_length() - 1) // bits
            row = by_pivot.get(c)
            if row is None:
                return v, c
            if coeffs is not None:
                coeffs[c] = lay.entry(v, c)
            v = lay.cancel(v, row, c)
        raise AssertionError("F_p reduction failed to clear a leading slot")

    def contains(self, vec: Sequence[int] | int) -> bool:
        v = vec if isinstance(vec, int) else self.layout.pack(vec)
        return self._reduce(v)[1] < 0

    def coordinates(self, vec: Sequence[int] | int) -> dict[int, int] | None:
        """vec as a combination of the semi-echelon rows, {pivot: coefficient},
        or None when vec lies outside the span."""
        coeffs: dict[int, int] = {}
        v = vec if isinstance(vec, int) else self.layout.pack(vec)
        return coeffs if self._reduce(v, coeffs)[1] < 0 else None

    def add(self, vec: Sequence[int] | int) -> bool:
        """Insert one vector; True iff the dimension grew."""
        lay = self.layout
        v, c = self._reduce(vec if isinstance(vec, int) else lay.pack(vec))
        if c < 0:
            return False
        lead = lay.entry(v, c)
        if lead != 1:
            v = lay.scale(v, pow(lead, -1, self.p))
        self._by_pivot[c] = v
        bisect.insort(self.pivots, c)
        return True


def modp_rank(rows: Iterable[Sequence[int] | int], width: int, p: int,
              stop: int | None = None) -> int:
    """The F_p rank of rows of length width, each a sequence of ints or a
    row packed in fp_rows(width, p), as ModpSpan.add takes; with stop
    given, no row is read once the rank reaches it."""
    span, rows = ModpSpan(width, p), iter(rows)
    while span.dim != stop and (v := next(rows, None)) is not None:
        span.add(v)
    return span.dim


def modp_left_kernel(rows: Sequence[Sequence[int] | int], p: int,
                     width: int | None = None) -> Rows:
    """Reduced echelon basis of {x : x * A = 0 mod p}, A given as m rows
    of length n, each a sequence of ints or a row already packed in the
    layout fp_rows(n, p) (then width must be given), as ModpSpan.add takes.

    One elimination on [A | I]: row i is packed as A_i with e_i OR-ed in
    at slot n + i.  A basis row leading at a slot >= n has zero A-part, so
    its identity part (v >> n*bits) is a kernel vector.  Certified: every
    row entered (dim == m) and x * A = 0 for every returned x, one packed
    accumulation per row; the rows leading in the A-part number rank(A), so
    by rank-nullity the rest are a whole kernel basis.
    """
    m = len(rows)
    n = width if width is not None else (len(rows[0]) if rows else 0)
    lay = fp_rows(n, p)
    packed = [r if isinstance(r, int) else lay.pack(r) for r in rows]
    shift = n * lay.bits
    span = ModpSpan(n + m, p)
    for i, a in enumerate(packed):
        span.add(a | 1 << (shift + i * lay.bits))
    if span.dim != m:
        raise AssertionError("a row of [A | I] did not enter the span")
    kernel = ModpSpan(m, p)
    for v in span.packed:
        if not v & ((1 << shift) - 1):
            kernel.add(v >> shift)
    basis = kernel.rows
    for x in basis:
        acc = 0
        for c, a in zip(x, packed):
            if c:
                acc = lay.add(acc, lay.scale(a, c))
        if acc:
            raise AssertionError("kernel row does not annihilate A")
    return basis


# ---------------------------------------------------------------------------
# Z/p^k: unit pivots and the local Smith form

def _first_unit(lay: FpRows, v: int, p: int) -> int:
    """The lowest slot of v holding a unit of Z/p^k, or -1."""
    bits, mask = lay.bits, lay.slot_mask
    while v:
        c = ((v & -v).bit_length() - 1) // bits
        if lay.entry(v, c) % p:
            return c
        v &= ~(mask << (c * bits))
    return -1


def unit_pivot_rows(rows: Iterable[int], lay: FpRows, p: int,
                    rank: int | None = None) -> tuple[dict[int, int], list[int]]:
    """Gauss-Jordan elimination over Z/p^k (k >= 1, p^k = lay.modulus) with
    unit pivots only, on rows packed in lay.

    Returns (pivots, residues).  pivots[c] is a row of the span with 1 at
    slot c and 0 at every other pivot slot.  residues are the nonzero rows
    left with no unit: each is 0 at every pivot slot and divisible by p.
    So Z/p^k^width / span is (the non-pivot slots) / span(residues), and
    the span is a free direct summand exactly when residues is empty.
    With rank given, the rows stop once that many pivots are found, and
    residues is empty: for a caller that knows the span is a free summand
    of that rank, the rows so far already span it (the quotient by them is
    spanned by the width - rank other slots and maps onto a free module of
    that rank, so the map is onto between finite sets of one size).

    A row is reduced at every pivot, then takes the lowest slot holding a
    unit as its pivot; the earlier pivot rows are cleared there.  Modulo p
    a pivot row is zero left of its pivot (the slot was the lowest nonzero
    one mod p, and a row cleared at a later pivot c' was nonzero there mod
    p), so the pivot columns are the leading columns of the mod-p span,
    ModpSpan's pivots, at every k, and the rows reduce mod p to its
    reduced echelon form.  Reducing at every pivot reads the pivot slots
    once: cancelling at c leaves every other pivot slot alone.
    """
    m = lay.modulus
    pivots: dict[int, int] = {}

    def reduce(v: int) -> int:
        vals = lay.unpack(v)
        for c, row in pivots.items():
            if vals[c]:
                v = lay.cancel(v, row, c)
        return v

    residues = []
    for v in rows:
        if len(pivots) == rank:
            return pivots, []
        v = reduce(v)
        c = _first_unit(lay, v, p)
        if c < 0:
            if v:
                residues.append(v)
            continue
        lead = lay.entry(v, c)
        if lead != 1:
            v = lay.scale(v, pow(lead, -1, m))
        for b, row in pivots.items():
            if lay.entry(row, c):
                pivots[b] = lay.cancel(row, v, c)
        pivots[c] = v
    return pivots, [v for v in map(reduce, residues) if v]


def local_smith_exponents(rows: Iterable[int], width: int, p: int,
                          n: int) -> tuple[int, tuple[int, ...]]:
    """Z^width / span(rows), tensored with Z/p^n, as (z, exponents): it is
    (Z/p^n)^z + sum_e Z/p^e over the exponents, each in [1, n), ascending.
    rows are packed in fp_rows(width, p^n).

    The Smith form over the local ring Z/p^n, one unit-pivot elimination
    per p-adic digit.  Round v works over Z/p^(n-v): its pivots are Smith
    entries p^v, and its residues, restricted to the non-pivot slots, are
    p times a matrix over Z/p^(n-v-1) whose Smith form, times p, is theirs.
    The slots left when no residue remains (at the latest in round n - 1,
    over F_p, where every nonzero entry is a unit) are entries p^n = 0.
    When the torsion of the integer quotient is a p-group of exponent below
    p^n, z is its free rank and the exponents are its cyclic factors.
    """
    exps: list[int] = []
    for v in range(n):
        lay = fp_rows(width, p ** (n - v))
        pivots, residues = unit_pivot_rows(rows, lay, p)
        if v:
            exps += [v] * len(pivots)
        keep = [j for j in range(width) if j not in pivots]
        width = len(keep)
        if not residues:
            break
        nxt = fp_rows(width, p ** (n - v - 1))
        rows = [nxt.pack([vals[j] // p for j in keep]) for vals in map(lay.unpack, residues)]
    return width, tuple(exps)


def combine_primary(free_rank: int, parts: Iterable[Sequence[int]]) -> AbelianInvariants:
    """The invariants Z^free_rank + the sum of the cyclic groups of prime
    power order in parts (one ascending list per prime), with the p-parts
    merged into a divisibility chain: the i-th largest factor of every
    prime multiply into the i-th largest invariant."""
    lists = [sorted(part, reverse=True) for part in parts if part]
    size = max(map(len, lists), default=0)
    chain = [1] * size
    for part in lists:
        for i, q in enumerate(part):
            chain[i] *= q
    return AbelianInvariants(free_rank, tuple(reversed(chain)))
