"""Reference version of the direct model's orientation check.

Test-only and frozen: the library's orientation_holds compares the stored
boundary columns in place.  This is the check it replaced, which rebuilds
both boundaries as SparseIntMatrix entry dicts, degree by degree, and
compares them whole.  The two must return the same boolean on every input.
"""

from polysmash.chains import ChainComplex


def orientation_holds(orientation, cc: ChainComplex, CK: ChainComplex, shift) -> bool:
    """Entry by entry: cc is CK = C(K) shifted up by shift, with boundary
    S . d_K . S for S the diagonal orientation map."""
    if cc.bases != {n + shift: fs for n, fs in CK.bases.items()}:
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
