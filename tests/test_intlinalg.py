"""Exact integer and mod-p linear algebra.

Smith forms are checked against the minor-gcd characterization of the
divisor chain, computed here from scratch so the two routes share no code,
and the whole factorization against reference.smallest_entry_snf, the same
pivot rule without qrlab's shortcuts.
The packed F_p kernel is checked against reference.dense_rref, a dense
Gauss-Jordan elimination on lists, and the left kernel against
reference.dense_left_kernel, the same elimination on [A | I].  Packed rows
over composite moduli and their product are checked against plain integer
arithmetic and mat_mul.
"""

import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import Phase, given, settings, strategies as st

from qrlab import intlinalg
from qrlab.intlinalg import (
    AbelianInvariants,
    ModpSpan,
    combine_primary,
    elementary_divisors,
    fp_rows,
    identity_rows,
    integer_inverse,
    is_invertible_modp,
    lattice_quotient,
    left_kernel,
    local_smith_exponents,
    mat_mul,
    modp_left_kernel,
    modp_rank,
    p_torsion,
    smith_normal_form,
)

from reference import (
    dense_left_kernel,
    dense_rref,
    det_int,
    lattice_from_rows,
    smallest_entry_snf,
)


def naive_det(a):
    """Cofactor expansion, the slow but obviously correct determinant."""
    n = len(a)
    if n == 0:
        return 1
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        if a[0][j]:
            minor = [row[:j] + row[j + 1:] for row in a[1:]]
            total += (-1) ** j * a[0][j] * naive_det(minor)
    return total


def minor_gcd_divisors(a):
    """d_k = gcd(k-minors) / gcd((k-1)-minors); the classical invariant-factor
    description, independent of any elimination order."""
    m, n = len(a), len(a[0]) if a else 0
    divisors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                sub = [[a[i][j] for j in cols] for i in rows]
                g = math.gcd(g, naive_det(sub))
        if g == 0:
            break
        divisors.append(g // prev)
        prev = g
    return divisors


def smith_rows(a):
    """smith_normal_form(a) as row lists (D, U, V, Vinv), D written out m x n."""
    diag, *transforms = smith_normal_form(a)
    m, n = len(a), len(a[0])
    assert len(diag) == min(m, n)
    d = [[diag[i] if i == j else 0 for j in range(n)] for i in range(m)]
    return [d] + [[list(r) for r in x] for x in transforms]


small = st.integers(-9, 9)


def matrices(max_dim=4, entries=small):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(entries, min_size=n, max_size=n),
                min_size=m, max_size=m)))


@given(matrices())
@settings(deadline=None, max_examples=80)
def test_smith_factorization(a):
    dr, ur, vr, vir = smith_rows(a)
    assert mat_mul(mat_mul(ur, a), vr) == dr
    assert abs(det_int(ur)) == 1
    assert abs(det_int(vr)) == 1
    assert mat_mul(vr, vir) == identity_rows(len(vr))
    assert mat_mul(vir, vr) == identity_rows(len(vr))
    diag = [dr[i][i] for i in range(min(len(dr), len(dr[0])))]
    for x, y in zip(diag, diag[1:]):
        if y:
            assert x and y % x == 0


@given(matrices(max_dim=4, entries=st.integers(-6, 6)))
@settings(deadline=None, max_examples=60)
def test_divisors_match_minor_gcds(a):
    assert elementary_divisors(a) == minor_gcd_divisors(a)


# mostly zeros, nonzero entries mostly +-1: the shape of the level
# coinvariant systems, where the unit-pivot shortcuts fire
sparse_entries = st.sampled_from((0,) * 8 + (1, -1) * 3 + (2, -2, 3, -4, 6))


@given(st.one_of(matrices(max_dim=7, entries=sparse_entries), matrices(max_dim=5)))
@settings(deadline=None, max_examples=200)
def test_smith_matches_full_scan_elimination(a):
    assert smith_rows(a) == list(smallest_entry_snf(a))


def tall_sparse_system():
    """70 x 9, a tall sparse system like the coinvariants of an order-32 group."""
    rng = random.Random(70)
    return [[rng.choice((0, 0, 0, 0, 1, -1, 2)) for _ in range(9)] for _ in range(70)]


def test_smith_certifies_u_past_64_rows():
    a = tall_sparse_system()
    got = smith_rows(a)
    assert got == list(smallest_entry_snf(a))
    assert abs(det_int(got[1])) == 1


def test_smith_certificate_costs_no_more_than_its_three_products():
    # A*V, U[:r]*A and V*Vinv: m*n^2 + r*m*n + n^3 multiply-add cells,
    # with no m x m product on the 70-row system
    a = tall_sparse_system()
    cells = []

    def counting(x, y):
        cells.append(len(x) * len(y) * (len(y[0]) if y else 0))
        return mat_mul(x, y)

    with mock.patch.object(intlinalg, "mat_mul", counting):
        smith_normal_form(a)
    m, n, r = 70, 9, len(elementary_divisors(a))
    assert sum(cells) <= m * n * n + r * m * n + n ** 3


def test_smith_rejects_ragged_input():
    for a in ([[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(ValueError):
            smith_normal_form(a)


def test_divisors_frozen_cases():
    assert elementary_divisors([[2, 0], [0, 3]]) == [1, 6]
    assert elementary_divisors([[2, 4], [4, 8]]) == [2]
    assert elementary_divisors([[2, 4], [6, 8]]) == [2, 4]
    assert elementary_divisors([[0]]) == []
    assert elementary_divisors([[1, 0, 0]]) == [1]
    assert elementary_divisors(identity_rows(3)) == [1, 1, 1]


@given(matrices())
@settings(deadline=None, max_examples=60)
def test_det_matches_cofactor(a):
    if len(a) == len(a[0]):
        assert det_int(a) == naive_det(a)


@given(matrices())
@settings(deadline=None, max_examples=60)
def test_left_kernel_is_the_whole_kernel(a):
    ker = left_kernel(a)
    n = len(a[0])
    for row in ker:
        assert all(sum(row[i] * a[i][j] for i in range(len(a))) == 0 for j in range(n))
    rank = len(elementary_divisors(a))
    assert len(ker) == len(a) - rank


@given(matrices(), st.lists(small, min_size=4, max_size=4), st.lists(small, min_size=4, max_size=4))
@settings(deadline=None, max_examples=80)
def test_lattice_is_the_hermite_form_of_the_row_span(a, comb, probe):
    n = len(a[0])
    lat = lattice_from_rows(n, a)
    pivots = [next(j for j, x in enumerate(r) if x) for r in lat.basis]
    assert pivots == sorted(set(pivots))
    for r, j in zip(lat.basis, pivots):
        assert r[j] > 0
        assert all(0 <= b[j] < r[j] for b in lat.basis[:pivots.index(j)])
    # span(a) <= span(basis) with equal minor gcds, so the spans are equal
    for row in a:
        c = lat.coordinates(row)
        assert [sum(ci * b[j] for ci, b in zip(c, lat.basis)) for j in range(n)] == row
    rank = len(minor_gcd_divisors(a))
    assert lat.rank == rank
    assert math.prod(minor_gcd_divisors(a)) == math.prod(minor_gcd_divisors(lat.basis))
    v = [sum(ci * row[j] for ci, row in zip(comb, a)) for j in range(n)]
    assert v in lat
    c = lat.coordinates(probe[:n])
    if c is not None:
        assert [sum(ci * b[j] for ci, b in zip(c, lat.basis)) for j in range(n)] == probe[:n]


def test_integer_inverse():
    u = [[1, 2], [0, 1]]
    assert mat_mul(u, integer_inverse(u)) == identity_rows(2)
    with pytest.raises(ValueError):
        integer_inverse([[2, 0], [0, 1]])


# --- mod p ---------------------------------------------------------------

primes = st.sampled_from([2, 3, 5])


def dense_rank(rows, p):
    return len(dense_rref(rows, p)[1])


@given(matrices(entries=st.integers(0, 6)), primes)
@settings(deadline=None, max_examples=80)
def test_modp_rank_kernel_dimension(a, p):
    n = len(a[0])
    r = modp_rank(a, p)
    assert r == dense_rank(a, p)
    ker = modp_left_kernel(a, p)
    assert ker == dense_left_kernel(a, p)
    assert len(ker) == len(a) - r
    for row in ker:
        assert all(sum(row[i] * a[i][j] for i in range(len(a))) % p == 0
                   for j in range(n))


@given(matrices(entries=st.integers(0, 6)), primes)
@settings(deadline=None, max_examples=40)
def test_modp_left_kernel_is_one_elimination(a, p):
    """Each row of [A | I] enters the one span once, and each kernel row
    the width-m span that puts the kernel in echelon form once."""
    with mock.patch.object(ModpSpan, "add", autospec=True, side_effect=ModpSpan.add) as add:
        ker = modp_left_kernel(a, p)
    assert add.call_count == len(a) + len(ker)


@given(matrices(entries=st.integers(0, 4)), primes)
@settings(deadline=None, max_examples=60)
def test_modp_span_counts_rank(a, p):
    span = ModpSpan(len(a[0]), p)
    added = sum(1 for row in a if span.add(row))
    assert added == dense_rank(a, p)


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(st.lists(st.integers(0, 6), min_size=n, max_size=n),
                       st.booleans()), max_size=8),
    st.lists(st.integers(0, 6), min_size=n, max_size=n))), primes)
@settings(deadline=None, max_examples=120)
def test_modp_span_matches_rref_with_interleaved_reads(steps_probe, p):
    """Reads of `rows` at arbitrary points between inserts; `pivots` and
    `contains` are checked after every insert, `rows` where read."""
    steps, probe = steps_probe
    span = ModpSpan(len(probe), p)
    inserted = []
    for vec, read in steps + [(None, True)]:
        if vec is not None:
            grows = dense_rank(inserted + [vec], p) > span.dim
            assert span.add(vec) == grows
            inserted.append(vec)
        rref, pivots = dense_rref(inserted, p)
        assert span.pivots == pivots and span.dim == len(pivots)
        assert span.contains(probe) == (dense_rank(inserted + [probe], p) == len(pivots))
        if read:
            assert span.rows == rref


# The kernel's edges: packed rows of up to 200 slots run over several 64-bit
# words at every slot width; 131 and 65537 force two- and three-byte slots;
# entries come negative and >= p, and hit the boundary residues 0, 1, p - 1.
# Entries come from a Random seeded by hypothesis: lists this long are slow
# to draw one hypothesis value at a time.  A failure is reported unshrunk:
# shrinking rows this wide at six primes takes minutes, drawing them seconds.
KERNEL_PRIMES = [2, 3, 5, 7, 131, 65537]
NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


def kernel_vector(rnd, p, n):
    edges = (1, p - 1, p, p + 1, -1, -p)
    return [0 if rnd.random() < 0.4 else
            rnd.choice(edges) if rnd.random() < 0.5 else rnd.randint(-3 * p, 3 * p)
            for _ in range(n)]


@pytest.mark.parametrize("p", KERNEL_PRIMES)
@given(st.integers(1, 200), st.integers(0, 2**32))
@settings(deadline=None, max_examples=80, phases=NO_SHRINK)
def test_packed_rows_are_slotwise_arithmetic(p, n, seed):
    rnd = random.Random(seed)
    a, b = kernel_vector(rnd, p, n), kernel_vector(rnd, p, n)
    c = rnd.randint(1, p - 1)
    perm = rnd.sample(range(n), n)
    lay = fp_rows(n, p)
    pa, pb = lay.pack(a), lay.pack(b)
    assert lay.unpack(pa) == [x % p for x in a]
    assert lay.unpack(lay.add(pa, pb)) == [(x + y) % p for x, y in zip(a, b)]
    assert lay.unpack(lay.sub(pa, pb)) == [(x - y) % p for x, y in zip(a, b)]
    assert lay.unpack(lay.scale(pa, c)) == [c * x % p for x in a]
    assert lay.unpack(lay.permutation(perm)(pa)) == [a[k] % p for k in perm]
    assert [lay.entry(pa, j) for j in range(n)] == [x % p for x in a]


@pytest.mark.parametrize("p", KERNEL_PRIMES)
@given(st.integers(1, 200), st.integers(1, 5), st.integers(0, 2**32))
@settings(deadline=None, max_examples=80, phases=NO_SHRINK)
def test_modp_span_matches_the_dense_reference_at_every_width_and_prime(p, n, m, seed):
    """m drawn rows, then a combination of them, and a probe."""
    rnd = random.Random(seed)
    rows = [kernel_vector(rnd, p, n) for _ in range(m)]
    coeffs = [rnd.randint(-p, p) for _ in rows]
    rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)])
    probe = kernel_vector(rnd, p, n)
    rref, pivots = dense_rref(rows, p)
    span = ModpSpan(n, p)
    assert sum(1 for r in rows if span.add(r)) == len(pivots)
    assert span.pivots == pivots and span.rows == rref
    assert modp_rank(rows, p) == len(pivots)
    assert modp_left_kernel(rows, p) == dense_left_kernel(rows, p)
    assert span.contains(rows[-1]) and not span.add(rows[-1])
    assert span.contains(probe) == (dense_rank(rows + [probe], p) == len(pivots))


# Packed rows over Z/m for any m: level modules keep every matrix as packed
# rows over Z/p^k, up to the harness's precision 20, so the slotwise
# arithmetic and the product kernel run at prime powers too.
COMPOSITE_MODULI = [4, 9, 2**20, 3**20]
PRODUCT_MODULI = [2, 3, *COMPOSITE_MODULI]


@pytest.mark.parametrize("m", COMPOSITE_MODULI)
@given(st.integers(0, 60), st.integers(0, 2**32))
@settings(deadline=None, max_examples=60)
def test_packed_rows_are_slotwise_arithmetic_at_a_composite_modulus(m, n, seed):
    rnd = random.Random(seed)
    a, b = kernel_vector(rnd, m, n), kernel_vector(rnd, m, n)
    c = rnd.randint(1, m - 1)
    lay = fp_rows(n, m)
    pa, pb = lay.pack(a), lay.pack(b)
    assert lay.unpack(pa) == [x % m for x in a]
    assert lay.unpack(lay.add(pa, pb)) == [(x + y) % m for x, y in zip(a, b)]
    assert lay.unpack(lay.sub(pa, pb)) == [(x - y) % m for x, y in zip(a, b)]
    assert lay.unpack(lay.sub(0, pa)) == [-x % m for x in a]
    assert lay.unpack(lay.scale(pa, c)) == [c * x % m for x in a]


def dense_product_mod(a, b, m, cols):
    """A*B mod m by mat_mul; with no rows in b mat_mul cannot see the width."""
    return [[x % m for x in row] for row in mat_mul(a, b)] if b else [[0] * cols for _ in a]


@pytest.mark.parametrize("m", PRODUCT_MODULI)
@given(st.data())
@settings(deadline=None, max_examples=60)
def test_packed_product_is_the_dense_product_mod_m(m, data):
    """Rectangular and empty shapes, entries at the residue edges."""
    rows, inner, cols = (data.draw(st.integers(0, 6)) for _ in range(3))
    entry = st.one_of(st.sampled_from([0, 1, m - 1, m, -1]), st.integers(-2 * m, 2 * m))
    a = data.draw(st.lists(st.lists(entry, min_size=inner, max_size=inner),
                           min_size=rows, max_size=rows))
    b = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                           min_size=inner, max_size=inner))
    lay = fp_rows(cols, m)
    got = lay.mul([fp_rows(inner, m).pack(r) for r in a], [lay.pack(r) for r in b])
    assert [lay.unpack(x) for x in got] == dense_product_mod(a, b, m, cols)


@pytest.mark.parametrize("m", PRODUCT_MODULI)
@pytest.mark.parametrize("inner", [1, 7, 64, 129])
def test_packed_product_sums_the_largest_entries_without_carry(m, inner):
    """Every entry m - 1: each slot of the product sums inner * (m - 1)^2,
    the most the widened slots must hold."""
    a = [[m - 1] * inner for _ in range(2)]
    b = [[m - 1] * 3 for _ in range(inner)]
    lay = fp_rows(3, m)
    got = lay.mul([fp_rows(inner, m).pack(r) for r in a], [lay.pack(r) for r in b])
    assert [lay.unpack(x) for x in got] == dense_product_mod(a, b, m, 3) == [[inner % m] * 3] * 2


def test_is_invertible_modp():
    assert is_invertible_modp([[1, 1], [0, 1]], 2)
    assert not is_invertible_modp([[1, 1], [1, 1]], 2)
    assert is_invertible_modp([[2, 0], [0, 1]], 3)


def test_modp_rank_frozen_cases():
    for n in range(1, 5):
        assert modp_rank(identity_rows(n), 2) == n
    assert modp_rank([[2]], 2) == 0
    assert modp_rank([[1, 1], [1, 1]], 3) == 1


# --- abelian invariants ---------------------------------------------------

def test_lattice_quotient_invariants():
    inv = lattice_quotient(2, [[2, 0], [0, 3]])
    assert (inv.free_rank, inv.torsion) == (0, (6,))
    inv = lattice_quotient(2, [[2, 0]])
    assert (inv.free_rank, inv.torsion) == (1, (2,))
    inv = lattice_quotient(2, [])
    assert (inv.free_rank, inv.torsion) == (2, ())
    inv = lattice_quotient(1, [[0]])
    assert (inv.free_rank, inv.torsion) == (1, ())
    lat = lattice_from_rows(2, [[2, 0], [0, 3]])
    assert lat.coordinates([2, 3]) is not None
    assert lat.coordinates([1, 0]) is None


def test_p_torsion_extracts_p_parts():
    inv = AbelianInvariants(1, (2, 12))
    assert p_torsion(inv, 2) == (2, 4)
    assert p_torsion(inv, 3) == (3,)
    assert p_torsion(inv, 5) == ()
    assert not AbelianInvariants(0, ()).torsion
    assert inv.torsion
    with pytest.raises(ValueError):
        AbelianInvariants(0, (4, 6))  # not a divisibility chain


def test_invariants_order_and_str():
    inv = AbelianInvariants(0, (2, 4))
    assert inv.order == 8
    assert "2" in str(inv) and "4" in str(inv)
    assert str(AbelianInvariants(0, ())) == "0"


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (5, 2)])
def test_local_smith_exponents_are_the_p_parts_of_the_integer_smith_form(p, n):
    """Over Z/p^n each integer Smith entry d becomes Z/p^min(v_p(d), n),
    and a zero entry (or a missing one past the rows) Z/p^n."""
    rng = random.Random(100 * p + n)
    for _ in range(60):
        m, w = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.choice((0, 0, 1, -1, 3, p, -p, 2 * p, p * p)) for _ in range(w)]
                for _ in range(m)]
        diag = list(smith_normal_form(rows)[0]) + [0] * (w - min(m, w))
        vals = []
        for d in diag:
            v = 0
            while d and d % p ** (v + 1) == 0 and v < n:
                v += 1
            vals.append(n if d == 0 else v)
        lay = fp_rows(w, p ** n)
        z, exps = local_smith_exponents([lay.pack(r) for r in rows], w, p, n)
        assert (z, exps) == (vals.count(n), tuple(sorted(v for v in vals if 0 < v < n))), rows


def test_combine_primary_merges_the_primes_into_a_divisibility_chain():
    assert combine_primary(3, [[2, 4], [3]]) == AbelianInvariants(3, (2, 12))
    assert combine_primary(0, [[2, 2, 8], [], [9, 27]]) == AbelianInvariants(0, (2, 18, 216))
    assert combine_primary(1, []) == AbelianInvariants(1, ())
