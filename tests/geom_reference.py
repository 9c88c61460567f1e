"""Reference geometry kernels, kept to test the library against.

These are the library's Fraction versions from before the geometry layer
moved to integer points: affine independence by rank_rational on Fraction
rows, the determinant by Gaussian elimination over Fraction, and the cube
reparametrization psi and its inverse on Fraction coordinates.  The integer
versions must give the same answers, and raise ValueError on the same bad
input.
"""

from fractions import Fraction

from polysmash.exactlin import rank_rational

F = Fraction


def affinely_independent(points):
    pts = list(points)
    if not pts:
        return True
    homog = [list(p) + [F(1)] for p in pts]
    return rank_rational(homog) == len(pts)


def determinant(rows):
    A = [[F(x) for x in row] for row in rows]
    n = len(A)
    det = F(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if A[i][c]), None)
        if pr is None:
            return F(0)
        if pr != c:
            A[c], A[pr] = A[pr], A[c]
            det = -det
        det *= A[c][c]
        p = A[c][c]
        for i in range(c + 1, n):
            if A[i][c]:
                f = A[i][c] / p
                A[i] = [x - f * y for x, y in zip(A[i], A[c])]
    return det


def eval_psi(n, x, lam):
    x = tuple(F(c) for c in x)
    lam = F(lam)
    if len(x) != n:
        raise ValueError("x has wrong length")
    if any(c < 0 for c in x) or sum(x) != 1:
        raise ValueError("x is not barycentric")
    if not 0 <= lam <= 1:
        raise ValueError("lambda must be in [0, 1]")
    tbar = max(x)
    if 2 * lam <= 1:
        scale = 2 * lam
    else:
        scale = (2 - 2 * lam) + (2 * lam - 1) * 2 / tbar
    return tuple(scale * c for c in x)


def eval_psi_inverse(n, y):
    y = tuple(F(c) for c in y)
    if len(y) != n:
        raise ValueError("y has wrong length")
    if any(c < 0 or c > 2 for c in y):
        raise ValueError("y outside the cube [0, 2]^n")
    total = sum(y)
    if total == 0:
        return tuple(F(1, n) for _ in range(n)), F(0)
    x = tuple(c / total for c in y)
    tbar = max(x)
    if total <= 1:
        lam = total / 2
    else:
        # total = (2 - 2 lam) + (2 lam - 1) * 2 / tbar, solved for lam
        lam = (total - 2 + 2 / tbar) / (4 / tbar - 2)
    return x, lam
