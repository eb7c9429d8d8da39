"""Reference algorithms for the tests, standard library only.

They share no code with qrlab, so a test that compares qrlab against them
is not checking a kernel against itself.
"""


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
