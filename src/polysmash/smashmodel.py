"""Cell models of the polyhedral smash product of disk/sphere pairs.

Both models are shifted simplicial chain complexes on one basis, the face
masks of face_levels(K) (vertex v at bit m - v), and each identity is stated
once, as a checked map:

* the direct CW model: one cell per face sigma of K, of dimension
  sum(J) + |sigma| (the basepoint is dropped, so homology comes out reduced),
  built from the minimal cell structure on each pair (basepoint, a middle
  cell e^{j} for the sphere, a top cell e^{j+1} for the disk) with graded
  Leibniz boundary signs: _assemble with vertex i in its odd mask when
  j_1 + ... + j_{i-1} is odd.  Its basis is C(K)'s, shifted up by sum(J) + 1.
  The diagonal orientation
  s(sigma) = (-1)^(sum over i in sigma of j_1 + ... + j_{i-1}) conjugates its
  boundary to the simplicial one, d = S . d_K . S, so the model is C(K)
  shifted up by sum(J) + 1: the suspension identity at chain level;

* the reduction route: double vertices until every pair is (D^1, S^0).
  K(J) is the simplicial wedge, and the route never builds it as a complex:
  complexes.doubled_face_levels writes each face mask of K(J) once from K's
  faces and the block sizes, the levels face_levels would give for
  double_iterated(K, J), which the tests check equal to doubling one vertex
  at a time.  The CLI bounds the face count, in closed form, before any of
  this runs.  The smash product over K(J) of (D^1, S^0) is the cube
  [0,2]^m with its outer boundary collapsed, and the cellular chains of
  that quotient are C(K(J)) shifted up by one: one cell per face of K(J),
  in the degree of its cardinality, with the simplicial boundary: _assemble
  on K(J)'s levels with no odd vertex, shifted by one.
  tests/cubical_reference.py builds the cubical complex and checks that
  identity.

All three complexes, C(K) included, come from one assembler,
chains._assemble(levels, odd, shift), the one place the library builds
a ChainComplex.

verify_main checks the orientation on the stored boundary columns of both
complexes, column by column, and computes homology once per distinct
complex, C(K) and the quotient over K(J).  K's faces are walked once per
complex (face_levels keeps them on K), so one case walks them once.
"""

from __future__ import annotations

from itertools import accumulate

from .chains import (
    ChainComplex,
    HomologyTable,
    _assemble,
    homology,
    simplicial_chain_complex,
)
from .complexes import SimplicialComplex, doubled_face_levels, face_levels, validate_j
from .report import Check, VerificationReport

# -- direct model ----------------------------------------------------------


def direct_smash_model(K: SimplicialComplex, J):
    """CW model of the smash product over K of the pairs (D^{j_i+1}, S^{j_i}).

    Returns (orientation, cc): cc is the reduced cellular chain complex with
    the Leibniz signs, on C(K)'s face masks shifted up by sum(J) + 1, and
    orientation is the diagonal map {mask: s(sigma)} that orientation_holds
    checks against C(K).  A sign that breaks d o d = 0 raises
    MalformedComplexError when cc is built.
    """
    J = tuple(J)
    validate_j(K, J)
    parity = [s & 1 for s in accumulate(J[:-1], initial=0)]
    levels = face_levels(K)
    odd = sum(bit for bit in levels.get(0, ()) if parity[K.m - bit.bit_length()])
    orientation = {
        f: -1 if (f & odd).bit_count() & 1 else 1 for fs in levels.values() for f in fs
    }
    return orientation, _assemble(levels, odd, sum(J) + 1)


def orientation_holds(orientation, cc: ChainComplex, CK: ChainComplex, shift) -> bool:
    """cc is CK = C(K) shifted up by shift, with boundary S . d_K . S for S
    the diagonal orientation map.

    After the bases, the stored columns are compared in place: each column
    c of cc's d_n, read as {row: coeff}, must be {r: s(r) v s(c)} over the
    (r, v) of CK's column c, and both must have columns in the same degrees.
    """
    if cc.bases != {n + shift: fs for n, fs in CK.bases.items()}:
        return False
    if cc.columns.keys() != {n + shift for n in CK.columns}:
        return False
    sign = {n: [orientation[f] for f in fs] for n, fs in cc.bases.items()}
    for n, cols in cc.columns.items():
        rows = sign[n - 1]
        for col, ref, s in zip(cols, CK.columns[n - shift], sign[n]):
            if dict(col) != {r: rows[r] * v * s for r, v in ref}:
                return False
    return True


# -- the reduction route -----------------------------------------------------


def reduction_path_model(K: SimplicialComplex, J) -> ChainComplex:
    """The section-by-section route: double down to (D^1, S^0), then the
    chains of the smash product over K(J), C(K(J)) shifted up by one."""
    levels, _ = doubled_face_levels(K, J)
    return _assemble(levels, 0, 1)


def expected_homology(K: SimplicialComplex, J) -> HomologyTable:
    """Reduced homology of the (sum(J)+1)-fold suspension of |K|."""
    return homology(simplicial_chain_complex(K)).shifted(sum(J) + 1)


def verify_main(K: SimplicialComplex, J) -> VerificationReport:
    """Three-way check of the suspension identity, at exact homology level.

    The direct model's homology is H~(K) carried over by its checked
    orientation; only when the check fails is the model's own SNF run, so
    that the report shows its real homology next to the failed check.
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

    actual = str(direct) if oriented else f"{direct}, but the orientation check failed"
    report.add(Check("direct vs suspension shift", oriented, str(expected),
                     actual, "maingen"))
    report.add(Check("reduction path vs suspension shift", reduced == expected,
                     str(expected), str(reduced), "gen"))
    report.add(Check("direct vs reduction path", direct == reduced, str(direct),
                     str(reduced), "gen"))

    chi_model = direct_cc.euler()
    chi_expected = (-1) ** shift * K.euler_reduced()
    report.add(Check("Euler identity", chi_model == chi_expected,
                     str(chi_expected), str(chi_model), "maingen"))
    return report
