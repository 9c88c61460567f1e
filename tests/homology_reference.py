"""Homology with Smith normal form on every full boundary matrix.

The library's homology() deletes unit reduction pairs before its Smith
normal form; this is the route without that pass, kept as a differential
reference.  group() reads one degree of a table, the zero group included,
and euler() the Euler characteristic of a table, which only the tests ask
for.
"""

from polysmash.chains import ChainComplex, HomologyGroup, HomologyTable
from polysmash.exactlin import smith_normal_form

ZERO_GROUP = HomologyGroup(0)


def group(H: HomologyTable, n):
    return H.get(n, ZERO_GROUP)


def euler(H: HomologyTable):
    """The reduced Euler characteristic sum (-1)^n betti_n."""
    return sum((-1) ** n * g.betti for n, g in H.items())


def homology_full_snf(C: ChainComplex) -> HomologyTable:
    """Reduced homology of a chain complex, degree by degree."""
    snf = {n: smith_normal_form(C.boundary(n)) for n in C.degrees()}
    table = {}
    for n in C.degrees():
        rank_in = snf[n + 1].rank if (n + 1) in snf else 0
        betti = C.rank(n) - snf[n].rank - rank_in
        torsion = snf[n + 1].torsion if (n + 1) in snf else ()
        table[n] = HomologyGroup(betti, torsion)
    return HomologyTable(table)
