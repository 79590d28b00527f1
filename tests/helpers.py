"""Shared test helpers: random expression trees, exact rational rank as an
independent check on Smith normal form, random unimodular matrices, and a
temporary address-space cap."""

import contextlib
import resource
from fractions import Fraction

from flowtop.expressions import ConnSum, Product, SphereAtom


def expr_of_dim(rng, dim, depth):
    """Random expression of the exact given dimension."""
    kinds = ["sphere"]
    if depth > 0 and dim >= 2:
        kinds += ["product", "connsum"]
    kind = rng.choice(kinds)
    if kind == "sphere":
        return SphereAtom(dim)
    if kind == "product":
        a = rng.randint(1, dim - 1)
        return Product(expr_of_dim(rng, a, depth - 1),
                       expr_of_dim(rng, dim - a, depth - 1))
    width = rng.randint(2, 3)
    return ConnSum(tuple(expr_of_dim(rng, dim, depth - 1) for _ in range(width)))


def random_expr(rng, max_depth=5, max_dim=8):
    return expr_of_dim(rng, rng.randint(1, max_dim), rng.randint(0, max_depth))


def nested_chains(levels, factors):
    """Expression text of `levels` bracket levels, each holding a chain of
    `factors` copies of S1 whose last factor is the next level; its tree is
    factors - 1 + levels tall."""
    text = " x ".join(["S1"] * factors)
    for _ in range(levels):
        text = "S1 x " * (factors - 1) + "(" + text + ")"
    return text


def rank_over_Q(rows, ncols):
    """Rank by plain Gaussian elimination over exact rationals."""
    mat = [list(map(Fraction, row)) for row in rows]
    rank = 0
    for j in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][j]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][j] / prow[j]
            if f:
                mat[i] = [a - f * b for a, b in zip(mat[i], prow)]
        rank += 1
    return rank


def det_over_Q(rows):
    """Determinant by Gaussian elimination over exact rationals."""
    n = len(rows)
    mat = [list(map(Fraction, row)) for row in rows]
    det = Fraction(1)
    for j in range(n):
        pivot = next((i for i in range(j, n) if mat[i][j]), None)
        if pivot is None:
            return 0
        if pivot != j:
            mat[j], mat[pivot] = mat[pivot], mat[j]
            det = -det
        prow = mat[j]
        det *= prow[j]
        for i in range(j + 1, n):
            f = mat[i][j] / prow[j]
            if f:
                mat[i] = [a - f * b for a, b in zip(mat[i], prow)]
    assert det.denominator == 1
    return det.numerator


def random_unimodular(rng, size):
    """Product of random elementary row operations applied to the identity."""
    mat = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(2 * size + 2):
        a = rng.randrange(size)
        b = rng.randrange(size)
        roll = rng.random()
        if a == b:
            if roll < 0.5:
                mat[a] = [-x for x in mat[a]]
        elif roll < 0.2:
            mat[a], mat[b] = mat[b], mat[a]
        else:
            q = rng.randint(-3, 3)
            mat[a] = [x + q * y for x, y in zip(mat[a], mat[b])]
    return mat


def convolve_ranks(r1, r2):
    out = {}
    for a, x in r1.items():
        for b, y in r2.items():
            out[a + b] = out.get(a + b, 0) + x * y
    return out


@contextlib.contextmanager
def address_space_cap(extra=2**30):
    """Cap this process's address space at its current size plus `extra` bytes.

    A test of an input whose dense form would fill the machine then fails
    with MemoryError instead of exhausting memory, whatever the
    overcommit policy.
    """
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        cap = int(fh.read().split()[0]) * resource.getpagesize() + extra
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
