"""Expression language for closed orientable manifolds built from spheres.

An expression is a sphere atom, a direct product, or a connected sum of
equal-dimensional pieces.  The concrete grammar, shared by the CLI and by
test fixtures:

    expr := term ('#' term)*
    term := atom ('x' atom)*
    atom := 'S' INT | 'Sng' '(' INT ',' INT ')' | '(' expr ')'

Whitespace is insignificant, the product ``x`` binds tighter than the
connected sum ``#``, and both brackets and the parsed tree nest at most
MAX_BRACKET_DEPTH levels deep.  ``S<k>`` is the k-sphere, k >= 1 (S0 is
disconnected and rejected).  ``Sng(n, g)`` is shorthand for the standard
genus-g piece: the sphere S^n for g = 0, otherwise a connected sum of g
copies of S^{n-1} x S^1.

Everything the grammar can express is a connected closed orientable
manifold, so no runtime orientability checks exist anywhere downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    height = 0  # a leaf; Product and ConnSum store height and dim as fields

    @property
    def dim(self) -> int:
        return self.k

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
    height: int = field(init=False, repr=False, compare=False)
    dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_expr(self.left)
        _check_expr(self.right)
        _set_shape(self, max(self.left.height, self.right.height),
                   self.left.dim + self.right.dim)


@dataclass(frozen=True, init=False, repr=False)
class ConnSum:
    """Connected sum of two or more summands of one common dimension n >= 2.

    Stored as ``parts``, the maximal runs of equal consecutive summands as
    (summand, copies) pairs: Sng(n, g) is one part.  Nested sums flatten and
    ``copies`` repeats each summand.  Mixed dimensions raise
    DimensionMismatchError, making an invalid sum unrepresentable.
    """

    parts: tuple[tuple["ManifoldExpr", int], ...]
    height: int = field(init=False, compare=False)
    dim: int = field(init=False, compare=False)

    def __init__(self, summands: tuple["ManifoldExpr", ...], copies: int = 1):
        if not isinstance(copies, int) or isinstance(copies, bool):
            raise TypeError("copies must be an integer")
        if copies < 1:
            raise ValueError(f"copies must be at least 1, got {copies}")
        given = tuple(summands)
        if len(given) * copies < 2:
            raise ValueError("connected sum needs at least two summands")
        parts: list[tuple[ManifoldExpr, int]] = []
        for s in given:
            if not isinstance(s, ConnSum):
                _check_expr(s)
            for part, k in s.parts if isinstance(s, ConnSum) else ((s, 1),):
                k *= copies
                if parts and parts[-1][0] == part:
                    k += parts.pop()[1]
                parts.append((part, k))
        dim, height = parts[0][0].dim, 0
        for s, _ in parts:
            if s.dim != dim:
                raise DimensionMismatchError(
                    "connected-sum summands must have equal dimensions, "
                    f"got [{', '.join(map(_decimal, sorted({s.dim for s, _ in parts})))}]")
            height = max(height, s.height)
        if dim < 2:
            raise ValueError("connected sums are defined in dimension >= 2")
        _set_shape(self, height, dim)
        object.__setattr__(self, "parts", tuple(parts))

    @property
    def summands(self) -> tuple["ManifoldExpr", ...]:
        return tuple(s for s, k in self.parts for _ in range(k))

    def __repr__(self) -> str:
        """One entry per run, a run of k > 1 copies as a nested ConnSum, so
        the text does not grow with the copies and evaluates back to self."""
        if len(self.parts) == 1:
            (s, k), = self.parts
            return f"ConnSum(summands=({s!r},), copies={k})"
        runs = ", ".join(repr(s) if k == 1 else repr(ConnSum((s,), k)) for s, k in self.parts)
        return f"ConnSum(summands=({runs}))"


ManifoldExpr = SphereAtom | Product | ConnSum


def _check_expr(x) -> None:
    if not isinstance(x, (SphereAtom, Product, ConnSum)):
        raise TypeError(f"not a manifold expression: {x!r}")


def _set_shape(node, below: int, dim: int) -> None:
    """Record a node's dimension and its height, one level above its tallest
    child, within the cap."""
    if below >= MAX_BRACKET_DEPTH:
        raise ValueError(f"expression tree deeper than {MAX_BRACKET_DEPTH} levels")
    object.__setattr__(node, "height", below + 1)
    object.__setattr__(node, "dim", dim)


def dimension(expr: ManifoldExpr) -> int:
    """Dimension of the underlying manifold, stored in each node when built."""
    _check_expr(expr)
    return expr.dim


def s_ng(n: int, g: int) -> ManifoldExpr:
    """The standard genus-g manifold of dimension n.

    Returns the sphere S^n for g = 0, a single copy of S^{n-1} x S^1 for
    g = 1, and a connected sum of g such copies for g >= 2.
    """
    if not (isinstance(n, int) and isinstance(g, int)) or bool in (type(n), type(g)):
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
    return ConnSum((handle,), g)


_ATOM_HINT = "'S<k>', 'Sng(<n>,<g>)' or '('"

# Deepest bracket nesting the parser accepts and tallest tree that Product and
# ConnSum build, as the parser and the tree functions recurse per level.  A
# chain of m factors is m - 1 levels tall.
MAX_BRACKET_DEPTH = 100


def _build(node_type, pos: int, *args) -> ManifoldExpr:
    """A Product or ConnSum node; a tree over the height cap is a ParseError
    at ``pos``, while a dimension mismatch propagates as it is."""
    try:
        return node_type(*args)
    except DimensionMismatchError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc), pos) from exc


def _integer(digits: str, pos: int) -> int:
    """A run of decimal digits as an int; a run longer than the interpreter's
    int-string limit (4300 digits by default) is a ParseError at ``pos``."""
    try:
        return int(digits)
    except ValueError as exc:
        raise ParseError(f"integer of {len(digits)} digits is too long", pos) from exc


def _decimal(d: int) -> str:
    """``str(d)``, or its digit count when ``d`` is past the interpreter's
    int-string limit, so that a refusal naming a dimension can be printed."""
    try:
        return str(d)
    except ValueError:
        k = int((d.bit_length() - 1) * math.log10(2))  # 10**k <= d, give or take one
        while 10 ** k <= d:
            k += 1
        return f"<{k} digits>"


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
        elif c == "S" or c.isdecimal():
            j = start = i + (c == "S")  # the digits after an 'S', or from this digit on
            while j < end and text[j].isdecimal():
                j += 1
            if j == start:
                raise ParseError("expected digits after 'S'", i)
            tokens.append(("sphere" if start > i else "int", _integer(text[start:j], i), i))
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", 0, end))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, int, int]]):
        self.tokens = tokens
        self.pos = 0
        self._depth = 0

    def expect(self, kind: str, what: str) -> tuple[str, int, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2])
        return tok

    def parse_expr(self) -> ManifoldExpr:
        node = self.parse_term()
        if self.tokens[self.pos][0] != "#":
            return node
        terms = [node]
        while self.tokens[self.pos][0] == "#":
            pos = self.tokens[self.pos][2]
            self.pos += 1
            terms.append(self.parse_term())
        return _build(ConnSum, pos, tuple(terms))

    def parse_term(self) -> ManifoldExpr:
        node = self.parse_atom()
        while self.tokens[self.pos][0] == "x":
            pos = self.tokens[self.pos][2]
            self.pos += 1
            node = _build(Product, pos, node, self.parse_atom())
        return node

    def parse_atom(self) -> ManifoldExpr:
        kind, value, pos = self.tokens[self.pos]
        self.pos += 1
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
    kind, _, pos = parser.tokens[parser.pos]
    if kind != "end":
        raise ParseError("unexpected trailing input", pos)
    return expr


def render_manifold(expr: ManifoldExpr) -> str:
    """Canonical text form; ``parse_manifold(render_manifold(e)) == e``.

    A run of k >= 2 copies of S^(n-1) x S^1 is written ``Sng(n,k)``; other
    runs write out every copy.
    """
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
        return " # ".join(_render_run(s, k) for s, k in expr.parts)
    raise TypeError(f"not a manifold expression: {expr!r}")


def _render_run(summand: ManifoldExpr, copies: int) -> str:
    """``copies`` equal summands of a connected sum, '#'-joined."""
    n = summand.dim
    if copies > 1 and summand == s_ng(n, 1):
        return f"Sng({n},{copies})"
    return " # ".join([render_manifold(summand)] * copies)
