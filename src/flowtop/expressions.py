"""Expression language for closed orientable manifolds built from spheres.

An expression is a sphere atom, a direct product, or a connected sum of
equal-dimensional pieces.  The concrete grammar, shared by the CLI and by
test fixtures:

    expr := term ('#' term)*
    term := atom ('x' atom)*
    atom := 'S' INT | 'Sng' '(' INT ',' INT ')' | '(' expr ')'

Whitespace is insignificant, the product ``x`` binds tighter than the
connected sum ``#``, and brackets nest at most MAX_BRACKET_DEPTH levels
deep.  ``S<k>`` is the k-sphere, k >= 1 (S0 is disconnected and
rejected).  ``Sng(n, g)`` is shorthand for the standard genus-g piece:
the sphere S^n for g = 0, otherwise a connected sum of g copies of
S^{n-1} x S^1.

Everything the grammar can express is a connected closed orientable
manifold, so no runtime orientability checks exist anywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ConnSum",
    "DimensionMismatchError",
    "MAX_BRACKET_DEPTH",
    "ManifoldExpr",
    "ParseError",
    "Product",
    "SphereAtom",
    "dimension",
    "parse_manifold",
    "render_manifold",
    "s_ng",
]


class ParseError(ValueError):
    """Input text does not conform to the expression grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DimensionMismatchError(ValueError):
    """Connected-sum summands do not share a common dimension."""


@dataclass(frozen=True)
class SphereAtom:
    """The k-sphere, k >= 1."""

    k: int

    def __post_init__(self):
        if not isinstance(self.k, int) or isinstance(self.k, bool):
            raise TypeError("sphere dimension must be an integer")
        if self.k < 1:
            raise ValueError("sphere dimension must be at least 1 (S0 is disconnected)")


@dataclass(frozen=True)
class Product:
    """Direct product of two expressions, kept binary and left-associated."""

    left: "ManifoldExpr"
    right: "ManifoldExpr"

    def __post_init__(self):
        _check_expr(self.left)
        _check_expr(self.right)


@dataclass(frozen=True)
class ConnSum:
    """Connected sum of two or more summands of one common dimension n >= 2.

    Nested sums are flattened on construction, so ``summands`` never
    contains another ConnSum.  Mixed dimensions raise
    DimensionMismatchError, making an invalid sum unrepresentable.
    """

    summands: tuple["ManifoldExpr", ...]

    def __post_init__(self):
        given = tuple(self.summands)
        if len(given) < 2:
            raise ValueError("connected sum needs at least two summands")
        flat: list[ManifoldExpr] = []
        for s in given:
            _check_expr(s)
            if isinstance(s, ConnSum):
                flat.extend(s.summands)
            else:
                flat.append(s)
        dims = sorted({dimension(s) for s in flat})
        if len(dims) != 1:
            raise DimensionMismatchError(
                f"connected-sum summands must have equal dimensions, got {dims}")
        if dims[0] < 2:
            raise ValueError("connected sums are defined in dimension >= 2")
        object.__setattr__(self, "summands", tuple(flat))


ManifoldExpr = SphereAtom | Product | ConnSum


def _check_expr(x) -> None:
    if not isinstance(x, (SphereAtom, Product, ConnSum)):
        raise TypeError(f"not a manifold expression: {x!r}")


def dimension(expr: ManifoldExpr) -> int:
    """Dimension of the underlying manifold."""
    if isinstance(expr, SphereAtom):
        return expr.k
    if isinstance(expr, Product):
        return dimension(expr.left) + dimension(expr.right)
    if isinstance(expr, ConnSum):
        return dimension(expr.summands[0])
    raise TypeError(f"not a manifold expression: {expr!r}")


def s_ng(n: int, g: int) -> ManifoldExpr:
    """The standard genus-g manifold of dimension n.

    Returns the sphere S^n for g = 0, a single copy of S^{n-1} x S^1 for
    g = 1, and a connected sum of g such copies for g >= 2.
    """
    if not isinstance(n, int) or not isinstance(g, int):
        raise TypeError("n and g must be integers")
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got n = {n}")
    if g < 0:
        raise ValueError(f"genus must be non-negative, got g = {g}")
    if g == 0:
        return SphereAtom(n)
    handle = Product(SphereAtom(n - 1), SphereAtom(1))
    if g == 1:
        return handle
    return ConnSum((handle,) * g)


_ATOM_HINT = "'S<k>', 'Sng(<n>,<g>)' or '('"

# Deepest bracket nesting the recursive-descent parser accepts; each level
# costs three Python frames here and more in the recursive tree functions.
MAX_BRACKET_DEPTH = 100


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    tokens = []
    i = 0
    end = len(text)
    while i < end:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "#x(),":
            tokens.append((c, 0, i))
            i += 1
        elif text.startswith("Sng", i):
            tokens.append(("Sng", 0, i))
            i += 3
        elif c == "S":
            j = i + 1
            while j < end and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("expected digits after 'S'", i)
            tokens.append(("sphere", int(text[i + 1:j]), i))
            i = j
        elif c.isdigit():
            j = i
            while j < end and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", 0, end))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, int, int]]):
        self._tokens = tokens
        self._pos = 0
        self._depth = 0

    def peek(self) -> str:
        return self._tokens[self._pos][0]

    def advance(self) -> tuple[str, int, int]:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, int, int]:
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2])
        return tok

    def parse_expr(self) -> ManifoldExpr:
        terms = [self.parse_term()]
        while self.peek() == "#":
            self.advance()
            terms.append(self.parse_term())
        if len(terms) == 1:
            return terms[0]
        return ConnSum(tuple(terms))

    def parse_term(self) -> ManifoldExpr:
        node = self.parse_atom()
        while self.peek() == "x":
            self.advance()
            node = Product(node, self.parse_atom())
        return node

    def parse_atom(self) -> ManifoldExpr:
        kind, value, pos = self.advance()
        if kind == "sphere":
            if value < 1:
                raise ParseError("S0 is disconnected and not a valid atom", pos)
            return SphereAtom(value)
        if kind == "Sng":
            self.expect("(", "'('")
            n = self.expect("int", "an integer")[1]
            self.expect(",", "','")
            g = self.expect("int", "an integer")[1]
            self.expect(")", "')'")
            try:
                return s_ng(n, g)
            except ValueError as exc:
                raise ParseError(str(exc), pos) from exc
        if kind == "(":
            if self._depth == MAX_BRACKET_DEPTH:
                raise ParseError(
                    f"brackets nested deeper than {MAX_BRACKET_DEPTH} levels", pos)
            self._depth += 1
            inner = self.parse_expr()
            self.expect(")", "')'")
            self._depth -= 1
            return inner
        raise ParseError(f"expected {_ATOM_HINT}", pos)


def parse_manifold(text: str) -> ManifoldExpr:
    """Parse an expression string into its tree.

    Raises ParseError (with the offending position) for text outside the
    grammar and DimensionMismatchError for a '#' between different
    dimensions.
    """
    parser = _Parser(_tokenize(text))
    expr = parser.parse_expr()
    tok = parser.advance()
    if tok[0] != "end":
        raise ParseError("unexpected trailing input", tok[2])
    return expr


def render_manifold(expr: ManifoldExpr) -> str:
    """Canonical text form; ``parse_manifold(render_manifold(e)) == e``."""
    if isinstance(expr, SphereAtom):
        return f"S{expr.k}"
    if isinstance(expr, Product):
        left = render_manifold(expr.left)
        right = render_manifold(expr.right)
        if isinstance(expr.left, ConnSum):
            left = f"({left})"
        if isinstance(expr.right, (ConnSum, Product)):
            right = f"({right})"
        return f"{left} x {right}"
    if isinstance(expr, ConnSum):
        return " # ".join(render_manifold(s) for s in expr.summands)
    raise TypeError(f"not a manifold expression: {expr!r}")
