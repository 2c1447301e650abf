"""Helpers the package does not ship, kept here for the tests that use
them: a seeded random Borel ideal and a label scaling of a complex."""
import random

from borelcell.borel import BorelIdeal
from borelcell.complexes import LabeledComplex
from borelcell.monomials import monomials_of_degree


def random_borel_minimal(n, d, s, seed):
    """Seeded random Borel ideal: s uniform degree-d draws, minimalized."""
    if s < 1:
        raise ValueError("need at least one draw")
    rng = random.Random(seed)
    pool = list(monomials_of_degree(n, d))
    picks = [pool[rng.randrange(len(pool))] for _ in range(s)]
    return BorelIdeal.from_borel_gens(n, picks)


def scale_labels(X, mu):
    """Multiply every vertex label by mu (a relabeling, not a subdivision)."""
    return LabeledComplex(
        X.n, {frozenset(v * mu for v in f): d for f, d in X.faces.items()}
    )
