"""Exact integer and mod-p linear algebra.

Smith forms are checked against the minor-gcd characterization of the
divisor chain, computed here from scratch so the two routes share no code.
"""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from qrlab.intlinalg import (
    AbelianInvariants,
    ModpSpan,
    det_int,
    elementary_divisors,
    identity_rows,
    integer_inverse,
    is_invertible_modp,
    lattice_from_rows,
    lattice_quotient,
    left_kernel,
    mat_mul,
    modp_left_kernel,
    modp_rank,
    modp_rref,
    modp_solve_left,
    p_torsion,
    smith_normal_form,
    transpose,
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
    d, u, v, vinv = smith_normal_form(a)
    ur, dr, vr, vir = u.to_rows(), d.to_rows(), v.to_rows(), vinv.to_rows()
    assert mat_mul(mat_mul(ur, a), vr) == dr
    assert abs(det_int(ur)) == 1
    assert abs(det_int(vr)) == 1
    assert mat_mul(vr, vir) == identity_rows(len(vr))
    assert mat_mul(vir, vr) == identity_rows(len(vr))
    diag = [dr[i][i] for i in range(min(len(dr), len(dr[0])))]
    for i, row in enumerate(dr):
        for j, x in enumerate(row):
            assert x == 0 or i == j
    for x, y in zip(diag, diag[1:]):
        if y:
            assert x and y % x == 0


@given(matrices(max_dim=4, entries=st.integers(-6, 6)))
@settings(deadline=None, max_examples=60)
def test_divisors_match_minor_gcds(a):
    assert elementary_divisors(a) == minor_gcd_divisors(a)


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


def test_transpose_involution():
    a = [[1, 2, 3], [4, 5, 6]]
    assert transpose(transpose(a)) == a


# --- mod p ---------------------------------------------------------------

primes = st.sampled_from([2, 3, 5])


@given(matrices(entries=st.integers(0, 6)), primes)
@settings(deadline=None, max_examples=80)
def test_modp_rank_kernel_dimension(a, p):
    n = len(a[0])
    r = modp_rank(a, p)
    rows, pivots = modp_rref(a, p)
    assert r == len(rows) == len(pivots)
    assert pivots == sorted(pivots)
    ker = modp_left_kernel(a, p)
    assert len(ker) == len(a) - r
    for row in ker:
        assert all(sum(row[i] * a[i][j] for i in range(len(a))) % p == 0
                   for j in range(n))


@given(matrices(entries=st.integers(0, 6)), primes, st.data())
@settings(deadline=None, max_examples=60)
def test_modp_solve_left_round_trip(a, p, data):
    x = data.draw(st.lists(st.integers(0, p - 1), min_size=len(a), max_size=len(a)))
    rhs = [sum(x[i] * a[i][j] for i in range(len(a))) % p for j in range(len(a[0]))]
    y = modp_solve_left(a, rhs, p)
    assert y is not None
    assert [sum(y[i] * a[i][j] for i in range(len(a))) % p for j in range(len(a[0]))] == rhs


def test_modp_solve_left_detects_inconsistency():
    assert modp_solve_left([[2, 0]], [1, 1], 2) is None


@given(matrices(entries=st.integers(0, 4)), primes)
@settings(deadline=None, max_examples=60)
def test_modp_span_counts_rank(a, p):
    span = ModpSpan(len(a[0]), p)
    added = sum(1 for row in a if span.add(row))
    assert added == modp_rank(a, p)


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
            grows = modp_rank(inserted + [vec], p) > span.dim
            assert span.add(vec) == grows
            inserted.append(vec)
        rref, pivots = modp_rref(inserted, p)
        assert span.pivots == pivots and span.dim == len(pivots)
        assert span.contains(probe) == (modp_rank(inserted + [probe], p) == len(pivots))
        if read:
            assert span.rows == rref


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
    assert AbelianInvariants(0, ()).is_torsion_free()
    assert not inv.is_torsion_free()
    with pytest.raises(ValueError):
        AbelianInvariants(0, (4, 6))  # not a divisibility chain


def test_invariants_order_and_str():
    inv = AbelianInvariants(0, (2, 4))
    assert inv.order == 8
    assert "2" in str(inv) and "4" in str(inv)
    assert str(AbelianInvariants(0, ())) == "0"
