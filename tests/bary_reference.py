"""Reference barycentric solve, kept to test the library against.

solve_linear is the per-point exact solve the library ran before
BarycentricFrame factored each reference simplex once.  The frame must give
the same coordinates, or None off the affine hull, for every point.
"""

from fractions import Fraction

F = Fraction


def solve_linear(rows, rhs):
    """Solve the exact linear system rows . t = rhs; None if inconsistent.

    If underdetermined, free variables are set to 0.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    A = [[F(x) for x in row] + [F(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if A[i][c]), None)
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        p = A[r][c]
        A[r] = [x / p for x in A[r]]
        for i in range(m):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if A[i][n]:
            return None
    t = [F(0)] * n
    for i, c in enumerate(pivots):
        t[c] = A[i][n]
    return tuple(t)


def barycentric_reference(vertices, p):
    """The library's barycentric_coords before frames: one solve per point."""
    verts = list(vertices)
    n = len(p)
    rows = [[v[d] for v in verts] for d in range(n)]
    rows.append([F(1)] * len(verts))
    return solve_linear(rows, list(p) + [F(1)])
