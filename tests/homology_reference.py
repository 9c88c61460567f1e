"""Homology with Smith normal form on every full boundary matrix.

The library's homology() deletes unit reduction pairs before its Smith
normal form; this is the route without that pass, kept as a differential
reference.
"""

from polysmash.chains import ChainComplex, HomologyGroup, HomologyTable
from polysmash.exactlin import smith_normal_form


def homology_full_snf(C: ChainComplex) -> HomologyTable:
    """Reduced homology of a chain complex, degree by degree."""
    if not C.dd_checked:
        C.check_dd_zero()
    snf = {n: smith_normal_form(C.boundary(n)) for n in C.degrees()}
    table = {}
    for n in C.degrees():
        rank_in = snf[n + 1].rank if (n + 1) in snf else 0
        betti = C.rank(n) - snf[n].rank - rank_in
        torsion = snf[n + 1].torsion if (n + 1) in snf else ()
        table[n] = HomologyGroup(betti, torsion)
    return HomologyTable(table)
