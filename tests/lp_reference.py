"""Reference version of the exact LP, kept to test the library against.

lp_max here is the two-phase simplex on a fractions.Fraction tableau, before
the library's solver moved to an integer fraction-free tableau.  Both use
Bland's rule with the same basis-index tie-break, so the library must return
the same LPResult (status, value and point) on every LP.
"""

from fractions import Fraction

from polysmash.exactlin import LPResult, RationalLP


def lp_max(P: RationalLP) -> LPResult:
    """Exact two-phase simplex.  Bland's rule, so termination is guaranteed."""
    n = len(P.objective)
    nslack = len(P.a_ub)
    # standard form: [x, slacks] >= 0, equality rows only
    rows = []
    rhs = []
    for row, b in zip(P.a_eq, P.b_eq):
        rows.append([Fraction(x) for x in row] + [Fraction(0)] * nslack)
        rhs.append(Fraction(b))
    for k, (row, b) in enumerate(zip(P.a_ub, P.b_ub)):
        r = [Fraction(x) for x in row] + [Fraction(0)] * nslack
        r[n + k] = Fraction(1)
        rows.append(r)
        rhs.append(Fraction(b))
    m = len(rows)
    total = n + nslack
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]

    # phase 1: artificial basis, minimize sum of artificials
    tableau = [rows[i] + [Fraction(0)] * m + [rhs[i]] for i in range(m)]
    for i in range(m):
        tableau[i][total + i] = Fraction(1)
    basis = [total + i for i in range(m)]
    cost1 = [Fraction(0)] * total + [Fraction(-1)] * m
    status = _simplex(tableau, basis, cost1, total + m)
    if status != "optimal":  # phase 1 is bounded below by 0
        raise RuntimeError(f"simplex phase 1 ended {status!r}, expected 'optimal'")
    if sum(tableau[i][-1] for i in range(m) if basis[i] >= total) != 0:
        return LPResult("infeasible")
    _drive_out_artificials(tableau, basis, total)
    # drop artificial columns and any redundant rows still basic in one
    keep = [i for i in range(m) if basis[i] < total]
    tableau = [tableau[i][:total] + [tableau[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2
    cost2 = [Fraction(P.objective[j]) if j < n else Fraction(0) for j in range(total)]
    status = _simplex(tableau, basis, cost2, total)
    if status == "unbounded":
        return LPResult("unbounded")
    x = [Fraction(0)] * total
    for i, b in enumerate(basis):
        if b < total:
            x[b] = tableau[i][-1]
    value = sum(c * v for c, v in zip(cost2, x))
    return LPResult("optimal", value, tuple(x[:n]))


def _simplex(tableau, basis, cost, ncols):
    """Maximize cost.x in place.  Returns "optimal" or "unbounded"."""
    m = len(tableau)
    while True:
        # reduced costs: c_j - c_B . B^{-1} A_j
        y = [cost[basis[i]] for i in range(m)]
        entering = None
        for j in range(ncols):
            if j in basis:
                continue
            red = cost[j] - sum(y[i] * tableau[i][j] for i in range(m))
            if red > 0:
                entering = j  # Bland: first improving index
                break
        if entering is None:
            return "optimal"
        leaving = None
        best = None
        for i in range(m):
            a = tableau[i][entering]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving is None:
            return "unbounded"
        _pivot(tableau, basis, leaving, entering)


def _pivot(tableau, basis, i, j):
    p = tableau[i][j]
    tableau[i] = [x / p for x in tableau[i]]
    for r in range(len(tableau)):
        if r != i and tableau[r][j]:
            c = tableau[r][j]
            tableau[r] = [a - c * b for a, b in zip(tableau[r], tableau[i])]
    basis[i] = j


def _drive_out_artificials(tableau, basis, total):
    for i in range(len(basis)):
        if basis[i] >= total:
            j = next((j for j in range(total) if tableau[i][j]), None)
            if j is not None:
                _pivot(tableau, basis, i, j)
            # else: redundant row, keep the artificial at value 0
