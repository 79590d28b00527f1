"""Integer homology and Poincare polynomials of manifold expressions.

Every expression the grammar admits has free integer homology supported in
finitely many degrees, so three closed-form rules suffice:

* sphere S^k: rank 1 in degrees 0 and k;
* product X x Y: degree-wise convolution of the factor ranks (the Kunneth
  rule in its torsion-free form, which is valid precisely because factors
  are always torsion-free here, and asserted before convolving);
* connected sum of dimension n: rank 1 in degrees 0 and n, summand ranks
  added in degrees 1 through n-1.

GradedGroup also carries invariant-factor torsion even though this module
never produces any: the simplicial verifier reuses the type and must be
able to report torsion, e.g. for non-orientable complexes in its own test
cases.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping

from .expressions import ConnSum, ManifoldExpr, Product, SphereAtom, dimension

__all__ = [
    "GradedGroup",
    "PoincarePolynomial",
    "betti",
    "connected_sum_poly",
    "euler_characteristic",
    "homology",
    "poincare_polynomial",
    "poly_product",
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
            _check_degree(deg)
            if not isinstance(r, int) or isinstance(r, bool) or r < 0:
                raise ValueError(f"rank in degree {deg} must be a non-negative integer")
            if r:
                clean_ranks[deg] = r
        clean_torsion: dict[int, tuple[int, ...]] = {}
        for deg, factors in dict(torsion or {}).items():
            _check_degree(deg)
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

    def rank(self, degree: int) -> int:
        return self._ranks.get(degree, 0)

    def invariant_factors(self, degree: int) -> tuple[int, ...]:
        return self._torsion.get(degree, ())

    @property
    def ranks(self) -> dict[int, int]:
        return dict(self._ranks)

    @property
    def torsion(self) -> dict[int, tuple[int, ...]]:
        return dict(self._torsion)

    @property
    def degrees(self) -> list[int]:
        return sorted(self._ranks.keys() | self._torsion.keys())

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


def _check_degree(deg) -> None:
    if not isinstance(deg, int) or isinstance(deg, bool) or deg < 0:
        raise ValueError(f"degrees must be non-negative integers, got {deg!r}")


class PoincarePolynomial:
    """Dense polynomial with non-negative integer coefficients.

    Coefficient i is the i-th Betti number of whatever space the polynomial
    describes.  Trailing zero coefficients are stripped, so ``degree`` is
    the top non-zero degree (0 for the zero polynomial).
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[int]):
        cs = list(coefficients)
        for c in cs:
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise ValueError(f"coefficients must be non-negative integers, got {c!r}")
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [0]
        self._coeffs = tuple(cs)

    @property
    def coefficients(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def coefficient(self, i: int) -> int:
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return 0

    def __mul__(self, other: "PoincarePolynomial") -> "PoincarePolynomial":
        if not isinstance(other, PoincarePolynomial):
            return NotImplemented
        out = [0] * (len(self._coeffs) + len(other._coeffs) - 1)
        for a, x in enumerate(self._coeffs):
            if x:
                for b, y in enumerate(other._coeffs):
                    if y:
                        out[a + b] += x * y
        return PoincarePolynomial(out)

    def __call__(self, t: int) -> int:
        value = 0
        for c in reversed(self._coeffs):
            value = value * t + c
        return value

    def __eq__(self, other) -> bool:
        if not isinstance(other, PoincarePolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"PoincarePolynomial({list(self._coeffs)!r})"

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self._coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                t = "t" if i == 1 else f"t^{i}"
                terms.append(t if c == 1 else f"{c}{t}")
        return " + ".join(terms) if terms else "0"


def homology(expr: ManifoldExpr) -> GradedGroup:
    """Graded integer homology of an expression (always torsion-free)."""
    if isinstance(expr, SphereAtom):
        return GradedGroup({0: 1, expr.k: 1})
    if isinstance(expr, Product):
        left = homology(expr.left)
        right = homology(expr.right)
        if not (left.is_torsion_free and right.is_torsion_free):
            raise ValueError("rank convolution requires torsion-free factors")
        ranks: dict[int, int] = {}
        for a, x in left.ranks.items():
            for b, y in right.ranks.items():
                ranks[a + b] = ranks.get(a + b, 0) + x * y
        return GradedGroup(ranks)
    if isinstance(expr, ConnSum):
        n = dimension(expr)
        ranks = {0: 1, n: 1}
        # Equal summands (Sng(n, g) repeats one handle g times) are computed once.
        for summand, copies in Counter(expr.summands).items():
            for i, r in homology(summand).ranks.items():
                if 0 < i < n:
                    ranks[i] = ranks.get(i, 0) + copies * r
        return GradedGroup(ranks)
    raise TypeError(f"not a manifold expression: {expr!r}")


def poincare_polynomial(expr: ManifoldExpr) -> PoincarePolynomial:
    """Sum of betti(expr, i) * t^i over degrees 0..dimension(expr)."""
    h = homology(expr)
    n = dimension(expr)
    return PoincarePolynomial([h.rank(i) for i in range(n + 1)])


def poly_product(p: PoincarePolynomial, q: PoincarePolynomial) -> PoincarePolynomial:
    """Coefficient-wise convolution; the polynomial of a direct product."""
    return p * q


def connected_sum_poly(polys: Iterable[PoincarePolynomial], n: int) -> PoincarePolynomial:
    """Polynomial of a connected sum of manifolds with the given polynomials.

    Every input must have degree n with coefficient 1 in degrees 0 and n;
    the result keeps those unit coefficients and adds the inputs
    coefficient-wise in degrees 1..n-1.
    """
    ps = list(polys)
    if not ps:
        raise ValueError("need at least one summand polynomial")
    if n < 1:
        raise ValueError("dimension must be at least 1")
    for p in ps:
        if p.degree != n:
            raise ValueError(f"degree mismatch: expected degree {n}, got {p.degree}")
        if p.coefficient(0) != 1 or p.coefficient(n) != 1:
            raise ValueError(
                "summand polynomial must have coefficient 1 in degrees 0 and "
                f"{n}, got {p!r}")
    coeffs = [0] * (n + 1)
    coeffs[0] = coeffs[n] = 1
    for i in range(1, n):
        coeffs[i] = sum(p.coefficient(i) for p in ps)
    return PoincarePolynomial(coeffs)


def betti(expr: ManifoldExpr, i: int) -> int:
    """Rank of the i-th homology group; 0 outside degrees 0..dimension."""
    if i < 0:
        return 0
    return poincare_polynomial(expr).coefficient(i)


def euler_characteristic(expr: ManifoldExpr) -> int:
    """Alternating sum of the Betti numbers."""
    return poincare_polynomial(expr)(-1)
