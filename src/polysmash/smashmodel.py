"""Cell models of the polyhedral smash product of disk/sphere pairs.

Two independent routes to the same homology:

* the direct CW model: one cell per face of K (dimension sum(J) + |face|)
  plus a basepoint, built from the minimal cell structure on each pair
  (basepoint, a middle cell e^{j} for the sphere, a top cell e^{j+1} for the
  disk) with graded Leibniz boundary signs;

* the reduction route: double vertices until every pair is (D^1, S^0), build
  the cubical model of the polyhedral product inside [0,2]^m, and collapse
  every cell touching the outer boundary (some coordinate pinned at 2).

verify_main runs both against the suspension-shift expectation and reports
exact agreement.
"""

from __future__ import annotations

from .chains import (
    ChainComplex,
    HomologyTable,
    MalformedComplexError,
    homology,
    homology_shift,
    homology_equal,
    simplicial_chain_complex,
)
from .complexes import SimplicialComplex, double_iterated
from .exactlin import SparseIntMatrix
from .report import Check, VerificationReport

BASEPOINT = ("base",)


def face_cell(sigma):
    return ("face", tuple(sigma))


def cube_cell(sigma, eps):
    """eps: sorted tuple of (vertex, value) with value in {0, 2}."""
    return ("cube", tuple(sigma), tuple(eps))


class CellModel:
    """Labeled cell set with dimensions and integer boundary coefficients.

    Cells are materialized for the direct model; the cubical model keeps them
    behind iterators because its cell count is sum over faces of 2^(m-|face|).
    """

    def __init__(self, kind, K, J=None):
        self.kind = kind  # "direct" | "cubical"
        self.K = K
        self.J = tuple(J) if J is not None else None

    # -- direct model ------------------------------------------------------

    def cells(self):
        """Yield (label, dimension)."""
        if self.kind == "direct":
            yield BASEPOINT, 0
            shift = sum(self.J)
            for sigma in self.K.faces():
                yield face_cell(sigma), shift + len(sigma)
        else:
            for sigma in self.K.faces():
                for eps in self._eps_choices(sigma):
                    yield cube_cell(sigma, eps), len(sigma)

    def _eps_choices(self, sigma):
        free = [v for v in range(1, self.K.m + 1) if v not in sigma]
        def rec(idx):
            if idx == len(free):
                yield ()
                return
            for tail in rec(idx + 1):
                yield ((free[idx], 0),) + tail
                yield ((free[idx], 2),) + tail
        return rec(0)

    def boundary(self, label):
        """Integer-coefficient boundary of one cell, as {label: coeff}."""
        if label == BASEPOINT:
            return {}
        if label[0] == "face":
            return self._boundary_direct(label[1])
        return self._boundary_cubical(label[1], dict(label[2]))

    def _boundary_direct(self, sigma):
        # graded Leibniz rule over the coordinates in ascending order, with
        # d(top cell) = +(middle cell) in each factor; cells are then
        # reoriented so the matrix reads as the plain simplicial signs
        out = {}
        for pos, i in enumerate(sigma):
            out[face_cell(tuple(v for v in sigma if v != i))] = (-1) ** pos
        # Leibniz sign for slot i is (-1)^(sum of dims of earlier slots) =
        # (-1)^(sum_{l<i} j_l + pos); the orientation s(sigma) =
        # (-1)^(sum_{i in sigma} sum_{l<i} j_l) absorbs the first summand,
        # leaving (-1)^pos above.  See also test_leibniz_orientation.
        return out

    def leibniz_boundary(self, sigma):
        """Raw Leibniz-sign boundary, before the orientation normalization."""
        out = {}
        J = self.J
        prefix = [0] * (self.K.m + 1)
        for l in range(1, self.K.m + 1):
            prefix[l] = prefix[l - 1] + J[l - 1]
        for pos, i in enumerate(sigma):
            sign = (-1) ** (prefix[i - 1] + pos)
            out[face_cell(tuple(v for v in sigma if v != i))] = sign
        return out

    def _boundary_cubical(self, sigma, eps):
        out = {}
        for pos, i in enumerate(sigma):
            rest = tuple(v for v in sigma if v != i)
            sign = (-1) ** pos
            for value, s in ((2, sign), (0, -sign)):
                e = tuple(sorted(eps.items() | {(i, value)}))
                key = cube_cell(rest, e)
                out[key] = out.get(key, 0) + s
        return {k: v for k, v in out.items() if v}

    def cell_count(self):
        return sum(1 for _ in self.cells())

    def chain_complex(self, augmented=True):
        """Cellular chain complex.

        Direct model: the reduced complex (basepoint dropped).  Cubical model:
        the honest cellular complex of the subspace of [0,2]^m; augmented adds
        the empty-set generator in degree -1 so homology comes out reduced.
        """
        if self.kind == "direct":
            labels = [(lab, d) for lab, d in self.cells() if lab != BASEPOINT]
            return _assemble(labels, self.boundary)
        labels = list(self.cells())
        if augmented:
            aug = ("aug",)
            labels.append((aug, -1))
            base_boundary = self.boundary

            def boundary(label):
                if label == aug:
                    return {}
                if label[0] == "cube" and not label[1]:
                    return {aug: 1}
                return base_boundary(label)

            return _assemble(labels, boundary)
        return _assemble(labels, self.boundary)


def _assemble(labels, boundary_fn):
    bases = {}
    for lab, d in labels:
        bases.setdefault(d, []).append(lab)
    for d in bases:
        bases[d].sort()
    index = {lab: (d, i) for d, labs in bases.items() for i, lab in enumerate(labs)}
    boundaries = {}
    for d, labs in bases.items():
        if (d - 1) not in bases:
            continue
        M = SparseIntMatrix(len(bases[d - 1]), len(labs))
        for j, lab in enumerate(labs):
            for tgt, coeff in boundary_fn(lab).items():
                td, ti = index[tgt]
                if td != d - 1:
                    raise MalformedComplexError(
                        f"boundary of {lab!r} in degree {d} reaches {tgt!r} in degree {td}"
                    )
                M[ti, j] = coeff
        boundaries[d] = M
    return ChainComplex(bases, boundaries)


def direct_smash_model(K: SimplicialComplex, J):
    """CW model of the smash product over K of the pairs (D^{j_i+1}, S^{j_i})."""
    J = tuple(J)
    if len(J) != K.m:
        raise ValueError(f"J has length {len(J)}, expected {K.m}")
    if any(j < 0 for j in J):
        raise ValueError("J entries must be >= 0")
    model = CellModel("direct", K, J)
    return model, model.chain_complex()


def cubical_polyprod_model(K: SimplicialComplex) -> CellModel:
    """Cubical model of the (D^1, S^0) polyhedral product inside [0,2]^m.

    Cells are (face, assignment of {0,2} to the complementary coordinates);
    dimensions equal face cardinality.
    """
    return CellModel("cubical", K)


def quotient_outer_boundary(model: CellModel) -> ChainComplex:
    """Collapse every cell with some coordinate pinned at 2 to the basepoint.

    Surviving cells are exactly the all-zeros assignments, one per face of K;
    boundary terms landing in collapsed cells are dropped.  Surviving cells
    are oriented by (-1)^|face| so that, at J = 0, the matrices coincide with
    the direct model's.
    """
    if model.kind != "cubical":
        raise ValueError("quotient applies to the cubical model only")
    K = model.K

    def survives(label):
        return all(v == 0 for _, v in label[2])

    labels = []
    for sigma in K.faces():
        eps = tuple((v, 0) for v in range(1, K.m + 1) if v not in sigma)
        labels.append((cube_cell(sigma, eps), len(sigma)))

    def boundary(label):
        sign = (-1) ** len(label[1])
        out = {}
        for tgt, coeff in model.boundary(label).items():
            if survives(tgt):
                out[tgt] = coeff * sign * (-1) ** len(tgt[1])
        return out

    return _assemble(labels, boundary)


def reduction_path_model(K: SimplicialComplex, J) -> ChainComplex:
    """The section-by-section route: double down to (D^1, S^0), then the
    cubical model and its outer-boundary quotient over K(J)."""
    KJ, _ = double_iterated(K, J)
    return quotient_outer_boundary(cubical_polyprod_model(KJ))


def expected_homology(K: SimplicialComplex, J) -> HomologyTable:
    """Reduced homology of the (sum(J)+1)-fold suspension of |K|."""
    H = homology(simplicial_chain_complex(K))
    return homology_shift(H, sum(J) + 1)


def verify_main(K: SimplicialComplex, J) -> VerificationReport:
    """Three-way check of the suspension identity, at exact homology level."""
    J = tuple(J)
    report = VerificationReport(f"smash m={K.m} J={J}")
    _, direct_cc = direct_smash_model(K, J)
    direct = homology(direct_cc)
    reduced = homology(reduction_path_model(K, J))
    expected = expected_homology(K, J)

    eq, mism = homology_equal(direct, expected)
    report.add(Check("direct vs suspension shift", eq, str(expected), str(direct),
                     "maingen"))
    eq, mism = homology_equal(reduced, expected)
    report.add(Check("reduction path vs suspension shift", eq, str(expected),
                     str(reduced), "gen"))
    eq, mism = homology_equal(direct, reduced)
    report.add(Check("direct vs reduction path", eq, str(direct), str(reduced),
                     "gen"))

    chi_model = direct_cc.euler()
    chi_expected = (-1) ** (sum(J) + 1) * K.euler_reduced()
    report.add(Check("Euler identity", chi_model == chi_expected,
                     str(chi_expected), str(chi_model), "maingen"))
    return report
