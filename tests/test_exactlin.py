"""Exact linear algebra: SNF against an independent oracle, rank, LP."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysmash import exactlin
from polysmash.complexes import from_facets, random_complex
from polysmash.exactlin import (
    RationalLP,
    SmithForm,
    SparseIntMatrix,
    _fix_divisibility,
    lp_max,
    rank_rational,
    smith_normal_form,
)
from polysmash.geomjoin import BarycentricFrame, affinely_independent, proper_intersection
from polysmash.smashmodel import reduction_path_model

import lp_reference
from conftest import RP2_FACETS
from lp_reference import lp_max as reference_lp_max
from snf_reference import fix_divisibility_reference, full_scan_snf_diagonal


def from_dense(dense):
    """The SparseIntMatrix of a list of rows."""
    rows = len(dense)
    cols = len(dense[0]) if rows else 0
    entries = {
        (i, j): v for i, row in enumerate(dense) for j, v in enumerate(row) if v
    }
    return SparseIntMatrix(rows, cols, entries)


def snf_oracle(dense):
    """Naive Smith normal form by dense elementary operations.

    Deliberately simple-minded (always moves the smallest nonzero entry to
    the corner, no sparsity tricks) so it shares no code with the kernel.
    """
    M = [list(row) for row in dense]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    factors = []
    t = 0
    while True:
        nonzero = [
            (abs(M[i][j]), i, j)
            for i in range(t, rows)
            for j in range(t, cols)
            if M[i][j]
        ]
        if not nonzero:
            break
        _, pi, pj = min(nonzero)
        M[t], M[pi] = M[pi], M[t]
        for r in range(rows):
            M[r][t], M[r][pj] = M[r][pj], M[r][t]
        # reduce until the corner divides everything in its row and column
        while True:
            p = M[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if M[i][t]:
                    q = M[i][t] // p
                    for j in range(cols):
                        M[i][j] -= q * M[t][j]
                    if M[i][t]:
                        M[t], M[i] = M[i], M[t]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, cols):
                if M[t][j]:
                    q = M[t][j] // p
                    for i in range(rows):
                        M[i][j] -= q * M[i][t]
                    if M[t][j]:
                        for i in range(rows):
                            M[i][t], M[i][j] = M[i][j], M[i][t]
                        dirty = True
                        break
            if not dirty:
                break
        # p now divides its whole row/column (both cleared); enforce that it
        # divides the rest of the submatrix too
        p = M[t][t]
        offender = next(
            (
                (i, j)
                for i in range(t + 1, rows)
                for j in range(t + 1, cols)
                if M[i][j] % p
            ),
            None,
        )
        if offender is not None:
            i, _ = offender
            for j in range(cols):
                M[t][j] += M[i][j]
            continue
        factors.append(abs(p))
        t += 1
    return factors


def random_dense(rng, rows, cols):
    return [
        [rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(cols)]
        for _ in range(rows)
    ]


def test_snf_against_oracle_200_matrices():
    rng = random.Random(2024)
    for _ in range(200):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        dense = random_dense(rng, rows, cols)
        expected = snf_oracle(dense)
        got = smith_normal_form(from_dense(dense))
        assert list(got.factors) == expected, dense


@pytest.fixture(scope="module")
def rp2_reduction_matrices():
    """Boundary matrices of the RP^2, J = 1^6 reduction model (up to 914 rows)."""
    cc = reduction_path_model(from_facets(6, RP2_FACETS), (1,) * 6)
    return [cc.boundary(n) for n in cc.degrees() if cc.boundary(n).entries]


def random_entries(rng, rows, cols, density, vmax):
    out = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                v = rng.randint(-vmax, vmax)
                if v:
                    out[i, j] = v
    return out


def assert_same_diagonal(entries, rows, cols):
    got = exactlin.snf_diagonal(dict(entries))
    assert got == full_scan_snf_diagonal(dict(entries), rows, cols), entries


def test_snf_pivots_match_full_scan_on_random_matrices():
    # raw diagonal in pivot order: equal only if every pivot is the same
    rng = random.Random(31)
    for _ in range(300):
        rows, cols = rng.randint(1, 24), rng.randint(1, 24)
        density = rng.choice((0.1, 0.2, 0.35, 0.5))
        assert_same_diagonal(random_entries(rng, rows, cols, density, 9), rows, cols)


def test_snf_pivots_match_full_scan_on_unit_rectangles():
    rng = random.Random(32)
    for _ in range(4):
        entries = {
            (i, j): rng.choice((-1, 1))
            for j in range(120)
            for i in rng.sample(range(100), 3)
        }
        assert_same_diagonal(entries, 100, 120)


def test_snf_pivots_match_full_scan_on_rp2_reduction(rp2_reduction_matrices):
    assert max(M.rows for M in rp2_reduction_matrices) == 914
    for M in rp2_reduction_matrices:
        assert_same_diagonal(M.entries, M.rows, M.cols)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 10).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-50, 50), min_size=cols, max_size=cols),
            min_size=1,
            max_size=10,
        )
    )
)
def test_snf_pivots_match_full_scan_with_large_entries(dense):
    # entries up to 50 run long remainder chains in both clearing phases
    M = from_dense(dense)
    assert_same_diagonal(M.entries, M.rows, M.cols)


def test_snf_leaves_its_input_unchanged():
    # smith_normal_form hands M.entries to the kernel without a copy
    rng = random.Random(31)
    for _ in range(300):
        rows, cols = rng.randint(1, 24), rng.randint(1, 24)
        density = rng.choice((0.1, 0.2, 0.35, 0.5))
        M = SparseIntMatrix(rows, cols, random_entries(rng, rows, cols, density, 9))
        before = list(M.entries.items())
        smith_normal_form(M)
        assert list(M.entries.items()) == before


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 7).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-6, 6), min_size=cols, max_size=cols),
            min_size=1,
            max_size=7,
        )
    )
)
def test_snf_property_against_oracle(dense):
    got = smith_normal_form(from_dense(dense))
    assert list(got.factors) == snf_oracle(dense)


def test_fix_divisibility_matches_reference():
    rng = random.Random(33)
    for _ in range(500):
        n = rng.randint(0, 40)
        diagonal = [
            1 if rng.random() < 0.85 else rng.choice((-1, 1)) * rng.randint(1, 30)
            for _ in range(n)
        ]
        assert _fix_divisibility(diagonal) == fix_divisibility_reference(diagonal)


def test_snf_known_values():
    M = from_dense([[2, 0], [0, 3]])
    assert smith_normal_form(M).factors == (1, 6)
    M = from_dense([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert smith_normal_form(M).factors == (2, 2, 156)
    M = SparseIntMatrix(3, 3)
    assert smith_normal_form(M).factors == ()


def test_snf_rank_matches_rational_rank():
    rng = random.Random(7)
    for _ in range(50):
        dense = random_dense(rng, rng.randint(1, 8), rng.randint(1, 8))
        M = from_dense(dense)
        assert smith_normal_form(M).rank == rank_rational(M)


def test_smithform_validates_divisibility():
    with pytest.raises(ValueError):
        SmithForm((2, 3), 2)
    assert SmithForm((1, 2, 6), 3).torsion == (2, 6)


def test_sparse_matrix_basics():
    M = SparseIntMatrix(2, 3, {(0, 0): 1, (1, 2): -4})
    assert M[0, 0] == 1 and M[0, 1] == 0
    A = from_dense([[1, 0], [3, 4]])
    assert A.entries == {(0, 0): 1, (1, 0): 3, (1, 1): 4}
    assert A.to_dense() == [[1, 0], [3, 4]]
    # the constructor drops zeros, stores ints, and rejects an entry outside
    # the matrix even when it is zero
    N = SparseIntMatrix(2, 2, {(0, 0): Fraction(3), (1, 1): 0})
    assert N.entries == {(0, 0): 3} and type(N[0, 0]) is int
    for key in [(2, 0), (0, 2), (-1, 1)]:
        with pytest.raises(IndexError, match=rf"^entry \({key[0]}, {key[1]}\) outside 2x2 matrix$"):
            SparseIntMatrix(2, 2, {(0, 0): 1, key: 0})


def test_sparse_matrix_rejects_non_integral_values():
    # int() would store Fraction(1, 2) as a zero entry and 2.5 as 2
    for value in [Fraction(1, 2), 2.5, Fraction(-7, 3)]:
        with pytest.raises(ValueError, match=r"^entry \(1, 1\) = .* is not an integer$"):
            SparseIntMatrix(2, 2, {(0, 0): 1, (1, 1): value})


def test_sparse_matrix_refuses_floats():
    # int() stored 3.0 as 3; a float zero is refused before it is dropped,
    # while bools and integral Fractions are stored as ints
    for value in [3.0, -1.0, 0.0]:
        with pytest.raises(ValueError, match=r"^entry \(0, 0\) = .* is not an integer$"):
            SparseIntMatrix(1, 1, {(0, 0): value})
    M = SparseIntMatrix(1, 3, {(0, 0): True, (0, 1): False, (0, 2): Fraction(-4, 2)})
    assert M.entries == {(0, 0): 1, (0, 2): -2}


def test_rank_rational_fraction_rows():
    rows = [
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(3, 2), Fraction(1, 1)],
        [Fraction(1), Fraction(2, 3)],
    ]
    assert rank_rational(rows) == 1


def test_lp_simple_box():
    # max x + y on the unit square
    P = RationalLP(
        objective=[1, 1],
        a_ub=[[1, 0], [0, 1]],
        b_ub=[1, 1],
    )
    r = lp_max(P)
    assert r.status == "optimal"
    assert r.value == 2
    assert r.point == (1, 1)


def test_lp_equality_and_fractional_optimum():
    # max x subject to 2x + 3y = 1, x,y >= 0
    P = RationalLP(objective=[1, 0], a_eq=[[2, 3]], b_eq=[1])
    r = lp_max(P)
    assert r.status == "optimal"
    assert r.value == Fraction(1, 2)


def test_lp_infeasible_and_unbounded():
    P = RationalLP(objective=[1], a_eq=[[1]], b_eq=[-1])
    assert lp_max(P).status == "infeasible"
    P = RationalLP(objective=[1])
    assert lp_max(P).status == "unbounded"


def test_lp_refuses_float_data():
    # Fraction(0.1) made the optimum 3602879701896397/36028797018963968, the
    # binary float's value; a float anywhere in the data is refused
    for P in (RationalLP([0.1], a_ub=[[1]], b_ub=[1]),
              RationalLP([1], a_ub=[[1]], b_ub=[1.0]),
              RationalLP([1], a_eq=[[2.0]], b_eq=[1])):
        with pytest.raises(ValueError, match=r"^LP data .* is not rational$"):
            lp_max(P)
    assert lp_max(RationalLP([True], a_ub=[[1]], b_ub=[Fraction(1, 2)])).value == Fraction(1, 2)


FLOAT_CASES = [
    ("SparseIntMatrix value", lambda: SparseIntMatrix(1, 1, {(0, 0): 0.5}),
     r"entry \(0, 0\) = 0\.5 is not an integer"),
    # was stored, and smith_normal_form read factors (1, 2) from it
    ("SparseIntMatrix index", lambda: SparseIntMatrix(2, 2, {(0.5, 0): 1, (1, 1): 2}),
     r"entry \(0\.5, 0\) has an index that is not an int"),
    ("lp_max", lambda: lp_max(RationalLP([0.1], a_ub=[[1]], b_ub=[1])),
     r"LP data 0\.1 is not rational"),
    # the rows are proportional over Q, but 0.1 * 3 != 0.3 in binary: rank 2
    ("rank_rational", lambda: rank_rational([[0.1, 0.3], [1, 3]]),
     r"entry 0\.1 is not rational"),
    ("affinely_independent", lambda: affinely_independent([(0, 0), (0.5, 0)]),
     r"coordinate 0\.5 is not rational"),
    ("BarycentricFrame", lambda: BarycentricFrame([(0, 0), (1.0, 0)]),
     r"coordinate 1\.0 is not rational"),
    ("proper_intersection", lambda: proper_intersection([(0.5, 0)], [(1, 1)]),
     r"coordinate 0\.5 is not rational"),
    # a float density drew with its binary value: Fraction(0.1) is
    # 3602879701896397/36028797018963968
    ("random_complex", lambda: random_complex(4, 2, 0.5, 7),
     r"density 0\.5 is not rational"),
]


@pytest.mark.parametrize("call, message", [c[1:] for c in FLOAT_CASES],
                         ids=[c[0] for c in FLOAT_CASES])
def test_no_float_reaches_an_exact_kernel(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_sparse_matrix_refuses_non_int_indices():
    # bools are refused as indices, as SimplicialComplex refuses bool
    # vertices; the range check keeps its wording.  A dimension is refused
    # the same way, before the negativity check: a 2.5x2 matrix was built,
    # and its SNF read factors (1,)
    for key in [(True, 0), (0, False), (0, Fraction(1))]:
        with pytest.raises(ValueError, match="has an index that is not an int"):
            SparseIntMatrix(2, 2, {key: 1})
    for rows, cols in [(2.5, 2), (2, 2.5), (True, 1), (1, False), (Fraction(2), 2),
                       (2, Fraction(-1)), (-1.0, 2)]:
        with pytest.raises(ValueError, match=r"^matrix dimensions .* are not both ints$"):
            SparseIntMatrix(rows, cols, {(0, 0): 1})
    with pytest.raises(IndexError, match=r"^entry \(2, 0\) outside 2x2 matrix$"):
        SparseIntMatrix(2, 2, {(2, 0): 1})


def test_lp_redundant_constraints():
    # duplicated equality rows must not break phase 2
    P = RationalLP(
        objective=[1, 1],
        a_eq=[[1, 1], [1, 1], [2, 2]],
        b_eq=[1, 1, 2],
    )
    r = lp_max(P)
    assert r.status == "optimal" and r.value == 1


def test_lp_weak_duality_spot_check():
    # max c.x, Ax <= b, x >= 0 against a hand-checked dual feasible y
    P = RationalLP(
        objective=[3, 2],
        a_ub=[[1, 1], [1, 0]],
        b_ub=[4, 2],
    )
    r = lp_max(P)
    assert r.status == "optimal"
    y = [Fraction(2), Fraction(1)]  # dual feasible: A^T y >= c, y >= 0
    assert r.value <= y[0] * 4 + y[1] * 2
    assert r.value == 10  # x = (2, 2)


# -- the fraction-free LP against the Fraction tableau ----------------------


def _rational(rng):
    return Fraction(rng.choice([0, 0, 0, 1, -1, 2, -2, 3, -3, 4, -4]), rng.randint(1, 4))


def random_lp(rng):
    """Equality and <= rows with denominators up to 4.  Most draws are
    feasible by construction, at a random nonnegative point, and some repeat
    a multiple of an equality row; the rest have random right-hand sides."""
    n = rng.randint(1, 5)
    a_eq = [[_rational(rng) for _ in range(n)] for _ in range(rng.randint(0, 3))]
    a_ub = [[_rational(rng) for _ in range(n)] for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.6:
        x0 = [abs(_rational(rng)) for _ in range(n)]
        b_eq = [sum(a * x for a, x in zip(row, x0)) for row in a_eq]
        b_ub = [
            sum(a * x for a, x in zip(row, x0)) + abs(_rational(rng)) * rng.randint(0, 1)
            for row in a_ub
        ]
    else:
        b_eq = [_rational(rng) for _ in a_eq]
        b_ub = [_rational(rng) for _ in a_ub]
    if a_eq and rng.random() < 0.3:
        c = _rational(rng) or Fraction(1)
        i = rng.randrange(len(a_eq))
        a_eq.append([c * x for x in a_eq[i]])
        b_eq.append(c * b_eq[i])
    objective = [_rational(rng) for _ in range(n)]
    return RationalLP(objective, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub)


def test_lp_matches_fraction_reference_on_random_lps(monkeypatch):
    # the same LPResult through the same pivots, (row, column) each; the
    # negative pivots (driving out artificials) exercise the negation of the
    # fraction-free tableau
    pivots = {"library": [], "reference": []}
    negative = []
    pivot, reference_pivot = exactlin._pivot, lp_reference._pivot

    def spy(tableau, basis, d, r, c):
        pivots["library"].append((r, c))
        negative.append(tableau[r][c] < 0)
        return pivot(tableau, basis, d, r, c)

    def reference_spy(tableau, basis, r, c):
        pivots["reference"].append((r, c))
        return reference_pivot(tableau, basis, r, c)

    monkeypatch.setattr(exactlin, "_pivot", spy)
    monkeypatch.setattr(lp_reference, "_pivot", reference_spy)
    rng = random.Random(4)
    statuses = Counter()
    for _ in range(2000):
        P = random_lp(rng)
        got = lp_max(P)
        assert got == reference_lp_max(P), P
        assert pivots["library"] == pivots["reference"], P
        pivots["library"].clear()
        pivots["reference"].clear()
        statuses[got.status] += 1
    assert min(statuses[s] for s in ("optimal", "infeasible", "unbounded")) >= 200, statuses
    assert sum(negative) >= 100


_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def rational_lps(draw):
    n = draw(st.integers(1, 4))
    row = st.lists(_rationals, min_size=n, max_size=n)
    a_eq = draw(st.lists(row, max_size=3))
    a_ub = draw(st.lists(row, max_size=3))
    b_eq = draw(st.lists(_rationals, min_size=len(a_eq), max_size=len(a_eq)))
    b_ub = draw(st.lists(_rationals, min_size=len(a_ub), max_size=len(a_ub)))
    return RationalLP(draw(row), a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub)


@settings(max_examples=150, deadline=None)
@given(rational_lps())
def test_lp_property_matches_fraction_reference(P):
    assert lp_max(P) == reference_lp_max(P)


def test_fraction_free_pivot_checks_exact_division():
    # tableau / 2 pivoted on the 3: the other row becomes (0, 5, -1) / 2,
    # which no consistent integer tableau can produce
    with pytest.raises(RuntimeError, match="not divisible"):
        exactlin._pivot([[3, 1, 1], [1, 2, 0]], [0, 1], 2, 0, 0)
