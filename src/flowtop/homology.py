"""Integer homology and Poincare polynomials of manifold expressions.

Every expression the grammar admits has free integer homology supported in
finitely many degrees, so three closed-form rules suffice:

* sphere S^k: rank 1 in degrees 0 and k;
* product X x Y: degree-wise convolution of the factor ranks (the Kunneth
  rule without its torsion terms, as a rank map carries no torsion);
* connected sum of dimension n: rank 1 in degrees 0 and n, summand ranks
  added in degrees 1 through n-1.

Each rule is written once, over sparse degree -> rank maps, and reached one
way: ``_ranks`` folds them over the tree on plain dicts.  An expression is
the only way to ask for homology or a Poincare polynomial.  The fold's map
is right by construction (non-negative int degrees, positive int ranks), so
``homology`` adopts it through ``GradedGroup._adopt``, which only sorts it
by degree, ``poincare_polynomial`` views that group, and ``betti`` and
``euler_characteristic`` read the map directly.  The public ``GradedGroup``
constructor, and ``PoincarePolynomial._of`` that ``repr`` prints, still
check every entry they are given.

PoincarePolynomial is the read-only rank view of a torsion-free
GradedGroup; only its dense ``coefficients`` tuple costs memory
proportional to the dimension.

GradedGroup also carries invariant-factor torsion even though this module
never produces any: the simplicial verifier reuses the type and must be
able to report torsion, e.g. for non-orientable complexes.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .expressions import ConnSum, ManifoldExpr, Product, SphereAtom

__all__ = [
    "GradedGroup",
    "PoincarePolynomial",
    "betti",
    "euler_characteristic",
    "homology",
    "poincare_polynomial",
]


class GradedGroup:
    """Finitely supported graded abelian group.

    Each degree holds a free rank plus a chain of invariant factors
    d_1 | d_2 | ... (every d_i >= 2).  Degrees with rank 0 and no torsion
    are not stored.
    """

    __slots__ = ("_ranks", "_torsion")

    def __init__(self,
                 ranks: Mapping[int, int] | None = None,
                 torsion: Mapping[int, Iterable[int]] | None = None):
        clean_ranks: dict[int, int] = {}
        for deg, r in dict(ranks or {}).items():
            _check_stored_degree(deg)
            if not isinstance(r, int) or isinstance(r, bool) or r < 0:
                raise ValueError(f"rank in degree {deg} must be a non-negative integer")
            if r:
                clean_ranks[deg] = r
        clean_torsion: dict[int, tuple[int, ...]] = {}
        for deg, factors in dict(torsion or {}).items():
            _check_stored_degree(deg)
            fs = tuple(factors)
            for f in fs:
                if not isinstance(f, int) or f < 2:
                    raise ValueError(f"invariant factors must be integers >= 2, got {f!r}")
            if any(b % a for a, b in zip(fs, fs[1:])):
                raise ValueError(f"invariant factors {fs} violate the divisibility chain")
            if fs:
                clean_torsion[deg] = fs
        self._ranks = dict(sorted(clean_ranks.items()))
        self._torsion = dict(sorted(clean_torsion.items()))

    @classmethod
    def _adopt(cls, ranks: Mapping[int, int]) -> "GradedGroup":
        """Torsion-free group of a rank map whose degrees are non-negative
        ints and whose ranks are positive ints, as ``_ranks`` builds them;
        sorted by degree, no entry checked."""
        group = cls.__new__(cls)
        group._ranks = dict(sorted(ranks.items()))
        group._torsion = {}
        return group

    def rank(self, degree: int) -> int:
        """Free rank in ``degree``; a non-int degree is refused here, as in ``betti``."""
        _check_degree(degree)
        return self._ranks.get(degree, 0)

    def invariant_factors(self, degree: int) -> tuple[int, ...]:
        _check_degree(degree)
        return self._torsion.get(degree, ())

    @property
    def ranks(self) -> dict[int, int]:
        return dict(self._ranks)

    @property
    def torsion(self) -> dict[int, tuple[int, ...]]:
        return dict(self._torsion)

    @property
    def is_torsion_free(self) -> bool:
        return not self._torsion

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedGroup):
            return NotImplemented
        return self._ranks == other._ranks and self._torsion == other._torsion

    def __hash__(self) -> int:
        return hash((tuple(self._ranks.items()), tuple(self._torsion.items())))

    def __repr__(self) -> str:
        return f"GradedGroup(ranks={self._ranks!r}, torsion={self._torsion!r})"


def _check_degree(d) -> None:
    # True == 1 and indexes a list like it, so only a type check refuses it.
    if not isinstance(d, int) or isinstance(d, bool):
        raise ValueError(f"degree must be an integer, got {d!r}")


def _check_stored_degree(d) -> None:
    # one test on the path every valid degree takes; the shared check names a non-int
    if not isinstance(d, int) or isinstance(d, bool) or d < 0:
        _check_degree(d)
        raise ValueError(f"degrees must be non-negative integers, got {d!r}")


class PoincarePolynomial:
    """Read-only Poincare polynomial of an expression, stored sparsely.

    Coefficient i is the i-th Betti number, kept as a GradedGroup rank map;
    ``poincare_polynomial`` is the way to get one, and calling the class
    is a TypeError that says so.  ``degree`` is the top non-zero degree
    (0 for the zero polynomial).
    """

    __slots__ = ("_ranks",)

    def __init__(self, *args, **kwargs):
        raise TypeError(
            "PoincarePolynomial is not built directly; use poincare_polynomial(expr)")

    @classmethod
    def _of(cls, ranks: Mapping[int, int]) -> "PoincarePolynomial":
        """The polynomial of a degree -> rank map, every entry checked."""
        return cls._view(GradedGroup(ranks))

    @classmethod
    def _view(cls, group: GradedGroup) -> "PoincarePolynomial":
        """The rank view of a torsion-free group, sharing its rank map."""
        poly = cls.__new__(cls)
        poly._ranks = group._ranks
        return poly

    @property
    def coefficients(self) -> tuple[int, ...]:
        coeffs = [0] * (self.degree + 1)
        for i, c in self._ranks.items():
            coeffs[i] = c
        return tuple(coeffs)

    @property
    def degree(self) -> int:
        return max(self._ranks, default=0)

    def coefficient(self, i: int) -> int:
        """The i-th Betti number; a non-int i is refused here, as in ``betti``."""
        _check_degree(i)
        return self._ranks.get(i, 0)

    def __call__(self, t: int) -> int:
        return sum(c * t ** i for i, c in self._ranks.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PoincarePolynomial):
            return NotImplemented
        return self._ranks == other._ranks

    def __hash__(self) -> int:
        return hash(tuple(self._ranks.items()))

    def __repr__(self) -> str:
        return f"PoincarePolynomial._of({self._ranks!r})"

    def __str__(self) -> str:
        terms = []
        for i, c in self._ranks.items():
            t = "" if i == 0 else "t" if i == 1 else f"t^{i}"
            terms.append(t if c == 1 and t else f"{c}{t}")
        return " + ".join(terms) or "0"


def _convolve(left: Mapping[int, int], right: Mapping[int, int]) -> dict[int, int]:
    """Product rule: degree-wise convolution of two rank maps."""
    ranks: dict[int, int] = {}
    for a, x in left.items():
        for b, y in right.items():
            ranks[a + b] = ranks.get(a + b, 0) + x * y
    return ranks


def _connected_sum(parts: Iterable[tuple[Mapping[int, int], int]], n: int) -> dict[int, int]:
    """Connected-sum rule over (ranks, copies) pairs of n-dimensional summands."""
    ranks = {0: 1, n: 1}
    for part, copies in parts:
        for i, r in part.items():
            if 0 < i < n:
                ranks[i] = ranks.get(i, 0) + copies * r
    return ranks


def _ranks(expr: ManifoldExpr) -> dict[int, int]:
    """The three rules folded over an expression tree, one frame per level."""
    if isinstance(expr, SphereAtom):
        return {0: 1, expr.k: 1}
    if isinstance(expr, Product):
        return _convolve(_ranks(expr.left), _ranks(expr.right))
    if isinstance(expr, ConnSum):
        return _connected_sum(((_ranks(s), k) for s, k in expr.parts), expr.dim)
    raise TypeError(f"not a manifold expression: {expr!r}")


def homology(expr: ManifoldExpr) -> GradedGroup:
    """Graded integer homology of an expression (always torsion-free)."""
    return GradedGroup._adopt(_ranks(expr))


def poincare_polynomial(expr: ManifoldExpr) -> PoincarePolynomial:
    """Sum of betti(expr, i) * t^i over degrees 0..dimension(expr)."""
    return PoincarePolynomial._view(homology(expr))


def betti(expr: ManifoldExpr, i: int) -> int:
    """Rank of the i-th homology group; 0 for an int i outside 0..dimension."""
    _check_degree(i)
    return _ranks(expr).get(i, 0)


def euler_characteristic(expr: ManifoldExpr) -> int:
    """Alternating sum of the Betti numbers."""
    return sum(-r if i & 1 else r for i, r in _ranks(expr).items())
