"""Reference version of the direct model's orientation check.

Test-only and frozen: the library's orientation_holds compares the stored
boundary columns in place.  This is the check it replaced, which rebuilds
both boundaries as SparseIntMatrix entry dicts, degree by degree, and
compares them whole.  The two must return the same boolean on every input.
"""

from polysmash.chains import ChainComplex, face_of_mask
from polysmash.smashmodel import face_cell


def orientation_holds(orientation, cc: ChainComplex, CK: ChainComplex, shift, m) -> bool:
    """Entry by entry: cc is CK = C(K) shifted up by shift, with boundary
    S . d_K . S for S the diagonal orientation map; m is K.m, which decodes
    CK's face masks."""
    faces = {n + shift: [face_cell(face_of_mask(f, m)) for f in fs] for n, fs in CK.bases.items()}
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
