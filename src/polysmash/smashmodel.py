"""Cell models of the polyhedral smash product of disk/sphere pairs.

Both models are shifted simplicial chain complexes, and each identity is
stated once, as a checked map:

* the direct CW model: one cell per face sigma of K, of dimension
  sum(J) + |sigma| (the basepoint is dropped, so homology comes out reduced),
  built from the minimal cell structure on each pair (basepoint, a middle
  cell e^{j} for the sphere, a top cell e^{j+1} for the disk) with graded
  Leibniz boundary signs.  The diagonal orientation
  s(sigma) = (-1)^(sum over i in sigma of j_1 + ... + j_{i-1}) conjugates its
  boundary to the simplicial one, d = S . d_K . S, so the model is C(K)
  shifted up by sum(J) + 1: the suspension identity at chain level;

* the reduction route: double vertices until every pair is (D^1, S^0).
  The smash product over K(J) of (D^1, S^0) is the cube [0,2]^m with its
  outer boundary collapsed, and the cellular chains of that quotient are
  C(K(J)) shifted up by one: one cell per face of K(J), in the degree of its
  cardinality, with the simplicial boundary.  tests/cubical_reference.py
  builds the cubical complex and checks that identity.

verify_main checks the orientation entry by entry and computes homology once
per distinct complex, C(K) and the quotient over K(J).
"""

from __future__ import annotations

from .chains import (
    ChainComplex,
    HomologyTable,
    MalformedComplexError,
    chain_complex_of_faces,
    homology,
    simplicial_chain_complex,
)
from .complexes import SimplicialComplex, double_iterated
from .exactlin import SparseIntMatrix
from .report import Check, VerificationReport


def face_cell(sigma):
    return ("face", tuple(sigma))


def _assemble(labels, boundary_fn):
    """Unchecked ChainComplex from (label, degree) pairs and a boundary rule."""
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
    return ChainComplex(bases, boundaries, check=False)


# -- direct model ----------------------------------------------------------


def direct_boundary(sigma, prefix):
    """Graded Leibniz boundary of the face cell sigma, as {cell: coeff}.

    prefix[i - 1] = j_1 + ... + j_{i-1}.  Dropping vertex i, at position pos
    of sigma, is d(top cell) = +(middle cell) in factor i, behind slots of
    total dimension prefix[i - 1] + pos.
    """
    return {
        face_cell(sigma[:pos] + sigma[pos + 1 :]): (-1) ** (prefix[i - 1] + pos)
        for pos, i in enumerate(sigma)
    }


def direct_smash_model(K: SimplicialComplex, J):
    """CW model of the smash product over K of the pairs (D^{j_i+1}, S^{j_i}).

    Returns (orientation, cc): cc is the reduced cellular chain complex with
    the Leibniz signs, and orientation is the diagonal map {cell: s(sigma)}
    that orientation_holds checks against C(K).  cc is built unchecked: a
    passing orientation check and d o d = 0 on C(K) imply d o d = 0 on cc,
    and homology(cc) checks it when the orientation fails.
    """
    J = tuple(J)
    if len(J) != K.m:
        raise ValueError(f"J has length {len(J)}, expected {K.m}")
    if any(j < 0 for j in J):
        raise ValueError("J entries must be >= 0")
    prefix = [sum(J[:i]) for i in range(K.m)]
    labels = [(face_cell(sigma), sum(J) + len(sigma)) for sigma in K.faces()]
    orientation = {
        lab: (-1) ** sum(prefix[i - 1] for i in lab[1]) for lab, _ in labels
    }
    return orientation, _assemble(labels, lambda lab: direct_boundary(lab[1], prefix))


def orientation_holds(orientation, cc: ChainComplex, CK: ChainComplex, shift) -> bool:
    """Entry by entry: cc is CK shifted up by shift, with boundary S . d_K . S
    for S the diagonal orientation map."""
    faces = {n + shift: [face_cell(f) for f in fs] for n, fs in CK.bases.items()}
    if cc.bases != faces:
        return False
    for n, cols in cc.bases.items():
        rows = cc.bases.get(n - 1, ())
        conjugated = {
            (r, c): orientation[rows[r]] * v * orientation[cols[c]]
            for (r, c), v in CK.boundary(n - shift).entries.items()
        }
        if cc.boundary(n).entries != conjugated:
            return False
    return True


# -- the reduction route -----------------------------------------------------


def reduction_path_model(K: SimplicialComplex, J) -> ChainComplex:
    """The section-by-section route: double down to (D^1, S^0), then the
    chains of the smash product over K(J), C(K(J)) shifted up by one."""
    KJ, _ = double_iterated(K, J)
    faces_by_size = {}
    for f in KJ.faces():
        faces_by_size.setdefault(len(f), []).append(f)
    return chain_complex_of_faces(faces_by_size)


def expected_homology(K: SimplicialComplex, J) -> HomologyTable:
    """Reduced homology of the (sum(J)+1)-fold suspension of |K|."""
    return homology(simplicial_chain_complex(K)).shifted(sum(J) + 1)


def verify_main(K: SimplicialComplex, J) -> VerificationReport:
    """Three-way check of the suspension identity, at exact homology level.

    The direct model's homology is H~(K) carried over by its checked
    orientation; only when the check fails is the model's own SNF run, so
    that the report shows its real homology.
    """
    J = tuple(J)
    report = VerificationReport(f"smash m={K.m} J={J}")
    shift = sum(J) + 1
    CK = simplicial_chain_complex(K)
    expected = homology(CK).shifted(shift)
    orientation, direct_cc = direct_smash_model(K, J)
    oriented = orientation_holds(orientation, direct_cc, CK, shift)
    direct = expected if oriented else homology(direct_cc)
    reduced = homology(reduction_path_model(K, J))

    report.add(Check("direct vs suspension shift", oriented, str(expected),
                     str(direct), "maingen"))
    report.add(Check("reduction path vs suspension shift", reduced == expected,
                     str(expected), str(reduced), "gen"))
    report.add(Check("direct vs reduction path", direct == reduced, str(direct),
                     str(reduced), "gen"))

    chi_model = direct_cc.euler()
    chi_expected = (-1) ** shift * K.euler_reduced()
    report.add(Check("Euler identity", chi_model == chi_expected,
                     str(chi_expected), str(chi_model), "maingen"))
    return report
