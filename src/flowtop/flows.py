"""Combinatorial data of gradient-like flows without heteroclinic
intersections, and its validation.

A flow is described only by its ambient dimension n and the vector
c_0..c_n counting equilibria of each Morse index (optionally plus a list
of saddle-to-node connections).  With nu the number of saddles (indices
1..n-1) and mu the number of nodes (indices 0 and n), the ambient manifold
of such a flow is the dimension-n genus-g piece with

    g = (nu - mu + 2) / 2,

and a count vector is checked against that manifold in six ways: the
genus formula (g a non-negative integer), the middle-index exclusion (an
index in 2..n-2 would give a pair of transversally crossing spheres with
intersection number +1 or -1 that vanishing middle homology forces to 0),
the Morse inequalities c_i >= beta_i, the count laws nu = 2g + k,
mu = k + 2, the Euler characteristic, and, when connection data is
given, the saddle-to-node connections (labels match the counts, every
edge runs from a higher Morse index to a lower one, no saddle-to-saddle
edge, each saddle has the sinks and sources its index allows).

With a defined genus, ``validate_flow`` asks the engine once per call for
``poincare_polynomial(s_ng(n, g))``: the Morse check reads its coefficients
and the Euler check its value at t = -1.  The read is O(1) in n and g, so
nothing is cached.  The middle-index exclusion reads no Betti numbers, since
beta_i(Sng(n, g)) = 0 for every 2 <= i <= n-2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from .expressions import s_ng
# validate_flow calls no euler_characteristic; perfbench/spans.py traces this import site.
from .homology import PoincarePolynomial, euler_characteristic, poincare_polynomial  # noqa: F401

__all__ = [
    "CheckResult",
    "Connection",
    "FlowSpec",
    "GenusError",
    "GenusNegativityError",
    "GenusParityError",
    "ObstructionResult",
    "ValidationReport",
    "check_morse_inequalities",
    "enumerate_flows",
    "flow_spec_from_json",
    "flow_spec_to_json",
    "genus_of_counts",
    "obstruction_check",
    "report_to_json",
    "validate_flow",
]


class GenusError(ValueError):
    """The pair (nu, mu) is not realized by any flow in the class."""


class GenusParityError(GenusError):
    """nu - mu is odd, so (nu - mu + 2)/2 is not an integer."""


class GenusNegativityError(GenusError):
    """nu - mu + 2 is negative, so the genus would be negative."""


def _is_int(x) -> bool:
    """An int that is not a bool (True would otherwise pass as 1)."""
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class Connection:
    """Directed edge between two labelled equilibria."""

    source: str
    target: str


@dataclass(frozen=True)
class FlowSpec:
    """Index counts of a gradient-like flow, with optional connection data.

    ``counts[i]`` is the number of equilibria of Morse index i, so the
    vector has length n + 1.  A flow on a closed manifold has at least one
    sink and one source, hence counts[0] >= 1 and counts[n] >= 1; anything
    else is rejected as malformed.  ``connections`` and ``indices`` come
    together or not at all: the indices map labels every referenced
    equilibrium with its Morse index.
    """

    n: int
    counts: tuple[int, ...]
    no_heteroclinic: bool = True
    connections: tuple[Connection, ...] | None = None
    indices: Mapping[str, int] | None = None

    def __post_init__(self):
        if not _is_int(self.n) or self.n < 2:
            raise ValueError(f"ambient dimension must be an integer >= 2, got {self.n!r}")
        counts = tuple(self.counts)
        if len(counts) != self.n + 1:
            raise ValueError(
                f"counts must have length n + 1 = {self.n + 1}, got {len(counts)}")
        for c in counts:
            if not _is_int(c) or c < 0:
                raise ValueError(f"counts must be non-negative integers, got {c!r}")
        if counts[0] < 1 or counts[self.n] < 1:
            raise ValueError(
                "a gradient-like flow on a closed manifold has at least one sink "
                f"and one source: need counts[0] >= 1 and counts[{self.n}] >= 1")
        object.__setattr__(self, "counts", counts)
        if not isinstance(self.no_heteroclinic, bool):
            raise ValueError("no_heteroclinic must be a boolean")
        if (self.connections is None) != (self.indices is None):
            raise ValueError("connections and indices are optional together")
        if self.connections is not None:
            conns = tuple(self.connections)
            idx = dict(self.indices)
            for name, i in idx.items():
                if not _is_int(i) or not 0 <= i <= self.n:
                    raise ValueError(
                        f"Morse index of {name!r} must be an integer in 0..{self.n}, got {i!r}")
            for edge in conns:
                for endpoint in (edge.source, edge.target):
                    if endpoint not in idx:
                        raise ValueError(f"connection endpoint {endpoint!r} has no Morse index")
            object.__setattr__(self, "connections", conns)
            object.__setattr__(self, "indices", idx)

    @property
    def saddle_count(self) -> int:
        return sum(self.counts[1:self.n])

    @property
    def node_count(self) -> int:
        return self.counts[0] + self.counts[self.n]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_flow: genus, k, and one result per check."""

    genus: int | None
    k: int | None
    checks: tuple[CheckResult, ...]

    @property
    def admissible(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True)
class ObstructionResult:
    """Verdict for one (dimension, Morse index, genus) combination."""

    admissible: bool
    reason: str

    @property
    def forbidden(self) -> bool:
        return not self.admissible


def genus_of_counts(nu: int, mu: int) -> int:
    """Genus (nu - mu + 2)/2 of the ambient manifold of a flow.

    Raises GenusNegativityError when nu - mu + 2 < 0 and GenusParityError
    when nu - mu is odd; genuine flows always give a non-negative integer,
    so either error certifies invalid input data.
    """
    if not _is_int(nu) or nu < 0:
        raise ValueError(f"saddle count must be a non-negative integer, got {nu!r}")
    if not _is_int(mu) or mu < 2:
        raise ValueError(f"node count must be an integer >= 2, got {mu!r}")
    s = nu - mu + 2
    if s < 0:
        raise GenusNegativityError(
            f"nu - mu + 2 = {s} is negative, no flow realizes (nu, mu) = ({nu}, {mu})")
    if s % 2:
        raise GenusParityError(
            f"nu - mu = {nu - mu} is odd, so (nu - mu + 2)/2 is not an integer")
    return s // 2


def check_morse_inequalities(spec: FlowSpec, g: int) -> list[tuple[int, int, int]]:
    """Violations of c_i >= beta_i on the genus-g manifold, as (i, c_i, beta_i)."""
    return _morse_violations(spec.counts, poincare_polynomial(s_ng(spec.n, g)))


def _morse_violations(counts: tuple[int, ...],
                      poly: PoincarePolynomial) -> list[tuple[int, int, int]]:
    return [(i, c, b) for i, c in enumerate(counts) if c < (b := poly.coefficient(i))]


def obstruction_check(n: int, i: int, g: int) -> ObstructionResult:
    """Whether an index-i saddle can occur at all on the genus-g manifold.

    Forbidden exactly when 2 <= i <= n-2: the closures of the saddle's
    invariant manifolds are spheres of dimensions i and n-i crossing
    transversally in the saddle alone (intersection number +1 or -1),
    while null-homologous spheres must have intersection number 0.  No
    Betti number is read, as none can differ: Sng(n, 0) = S^n, and by the
    connected-sum rule beta_i(Sng(n, g)) = g * beta_i(S^(n-1) x S^1) = 0
    for 2 <= i <= n-2.
    """
    if not _is_int(n) or n < 3:
        raise ValueError(f"ambient dimension must be an integer >= 3, got {n!r}")
    if not _is_int(g) or g < 0:
        raise ValueError(f"genus must be a non-negative integer, got {g!r}")
    if not _is_int(i) or not 1 <= i <= n - 1:
        raise ValueError(f"Morse index must lie in 1..{n - 1}, got {i!r}")
    if n == 3:
        return ObstructionResult(
            True, "the middle index range 2..n-2 is empty in dimension 3")
    if i in (1, n - 1):
        return ObstructionResult(
            True, f"Morse index {i} lies outside the excluded middle range 2..{n - 2}")
    return ObstructionResult(
        admissible=False,
        reason=(
            f"closures of the invariant manifolds of an index-{i} saddle are "
            f"spheres of dimensions {i} and {n - i} crossing transversally in a "
            "single point, so their intersection number is +1 or -1; but both "
            f"spheres are null-homologous (beta_{i} = beta_{n - i} = 0), which "
            "forces intersection number 0"),
    )


def validate_flow(spec: FlowSpec) -> ValidationReport:
    """Run every admissibility check on a count vector.

    Individual failures land in the report; exceptions are reserved for
    malformed specs (those are rejected by the FlowSpec constructor) and
    for data that withdraws the no-heteroclinic hypothesis.
    """
    if not spec.no_heteroclinic:
        raise ValueError(
            "validation applies only to flows asserted to have no heteroclinic "
            "intersections (no_heteroclinic must be true)")
    n = spec.n
    c = spec.counts
    nu = spec.saddle_count
    mu = spec.node_count
    # The count laws hold whenever the genus is defined: FlowSpec forces
    # c_0, c_n >= 1, so k = mu - 2 >= 0, and nu = 2g + k is the genus
    # formula rearranged.
    try:
        g = genus_of_counts(nu, mu)
    except GenusError as exc:
        g = k = None
        genus = CheckResult("genus", False, str(exc))
        laws = CheckResult(
            "count_laws", False,
            f"no integers g >= 0, k >= 0 satisfy nu = 2g + k and mu = k + 2 "
            f"for (nu, mu) = ({nu}, {mu})")
    else:
        k = mu - 2
        genus = CheckResult("genus", True, f"g = {g} from (nu, mu) = ({nu}, {mu})")
        laws = CheckResult(
            "count_laws", True,
            f"k = mu - 2 = {k}: nu = {nu} = 2g + k = {2 * g + k}, mu = {mu} = k + 2")

    poly = None if g is None else poincare_polynomial(s_ng(n, g))
    checks = [genus, _check_index_restriction(n, c), _check_morse(n, c, g, poly), laws,
              _check_euler(n, c, g, poly)]
    if spec.connections is not None:
        checks.append(_check_connections(spec))

    return ValidationReport(genus=g, k=k, checks=tuple(checks))


def _check_index_restriction(n: int, c: tuple[int, ...]) -> CheckResult:
    if n <= 3:
        detail = (f"no saddle indices in 2..{n - 2} exist in dimension {n}; the "
                  "restriction is asserted only for dimension >= 4")
        if n == 3:
            detail += " (in dimension 3 the genus-0 case is known classically)"
        return CheckResult("index_restriction", True, detail)
    offenders = [(i, c[i]) for i in range(2, n - 1) if c[i]]
    if not offenders:
        return CheckResult(
            "index_restriction", True, f"c_i = 0 for all 2 <= i <= {n - 2}")
    # the reason is the same for every genus, so an undefined one does not matter
    return CheckResult("index_restriction", False, "; ".join(
        f"c_{i} = {count}: {obstruction_check(n, i, 0).reason}" for i, count in offenders))


def _check_morse(n: int, c: tuple[int, ...], g: int | None,
                 poly: PoincarePolynomial | None) -> CheckResult:
    if poly is None:
        # The genus-0 manifold is the sphere, whose bounds c_0, c_n >= 1
        # FlowSpec already enforces.
        return CheckResult(
            "morse_inequalities", True,
            "genus undefined; checked only the genus-independent bounds "
            "(Betti numbers of the genus-0 manifold)")
    violations = _morse_violations(c, poly)
    if violations:
        return CheckResult("morse_inequalities", False, "; ".join(
            f"c_{i} = {ci} < beta_{i} = {b}" for i, ci, b in violations))
    return CheckResult(
        "morse_inequalities", True,
        f"c_i >= beta_i of the genus-{g} manifold for all 0 <= i <= {n}")


def _check_euler(n: int, c: tuple[int, ...], g: int | None,
                 poly: PoincarePolynomial | None) -> CheckResult:
    alternating = sum(c[0::2]) - sum(c[1::2])
    if poly is not None:
        expected = poly(-1)  # the alternating sum of the Betti numbers
        return CheckResult(
            "euler_characteristic", alternating == expected,
            f"sum(-1)^i c_i = {alternating}, Euler characteristic of the "
            f"genus-{g} manifold = {expected}")
    if n % 2 == 1:
        return CheckResult(
            "euler_characteristic", alternating == 0,
            f"sum(-1)^i c_i = {alternating}; every closed odd-dimensional "
            "manifold has Euler characteristic 0")
    return CheckResult(
        "euler_characteristic", False,
        "genus undefined; the expected Euler characteristic 2 - 2g cannot be fixed")


def _check_connections(spec: FlowSpec) -> CheckResult:
    idx = spec.indices
    n = spec.n

    def is_saddle(v: str) -> bool:
        return 1 <= idx[v] <= n - 1

    problems: list[str] = []
    labelled = [0] * (n + 1)
    for i in idx.values():
        labelled[i] += 1
    for i, (found, declared) in enumerate(zip(labelled, spec.counts)):
        if found > declared:
            problems.append(
                f"{found} equilibria are labelled with Morse index {i}, "
                f"but counts[{i}] = {declared}")
        elif found < declared and 1 <= i <= n - 1:
            problems.append(
                f"counts[{i}] = {declared}, but only {found} saddles of index {i} "
                "are labelled")
    neighbours: dict[str, set[str]] = {}
    for edge in spec.connections:
        a, b = edge.source, edge.target
        if is_saddle(a) and is_saddle(b):
            problems.append(f"edge {a} -> {b} joins two saddles")
        # A trajectory from a to b needs W^u(a) to meet W^s(b) transversally,
        # so the Morse index strictly falls along it.
        if idx[a] <= idx[b]:
            problems.append(
                f"edge {a} -> {b} runs against the flow: index {idx[a]} is not "
                f"above index {idx[b]}")
        neighbours.setdefault(a, set()).add(b)
        neighbours.setdefault(b, set()).add(a)
    for name in sorted(idx):
        if not is_saddle(name):
            continue
        # The unstable manifold of an index-1 saddle is two separatrices, and
        # each may end at its own sink; its stable manifold minus the saddle
        # is connected, so it lies in one source basin.  Index n-1 is the
        # mirror case, and in n = 2 a saddle is both.
        two_sinks, two_sources = idx[name] == 1, idx[name] == n - 1
        nbrs = neighbours.get(name, set())
        sinks = sorted(v for v in nbrs if idx[v] == 0)
        sources = sorted(v for v in nbrs if idx[v] == n)
        if not (1 <= len(sinks) <= 1 + two_sinks and 1 <= len(sources) <= 1 + two_sources):
            problems.append(
                f"saddle {name} of index {idx[name]} must connect to "
                f"{'one or two sinks' if two_sinks else 'one sink'} and "
                f"{'one or two sources' if two_sources else 'one source'}, "
                f"found sinks {sinks} and sources {sources}")
    if problems:
        return CheckResult("connections", False, "; ".join(problems))
    return CheckResult(
        "connections", True,
        "no index has more labelled equilibria than its count and every counted "
        "saddle is labelled; every edge runs from a higher Morse index to a lower "
        "one; no saddle-to-saddle edges; every saddle has one "
        "source and one sink, except that an index-1 saddle may have two sinks "
        "and an index-(n-1) saddle two sources")


def _admissible_counts(n: int, g: int, k_max: int) -> Iterator[tuple[int, ...]]:
    """The vectors of :func:`enumerate_flows`, yielded lazily in lexicographic
    order; the argument checks run at the first ``next``."""
    if not _is_int(n) or n < 4:
        raise ValueError(f"enumeration needs dimension >= 4, got {n!r}")
    if not _is_int(g) or g < 0:
        raise ValueError(f"genus must be a non-negative integer, got {g!r}")
    if not _is_int(k_max) or k_max < 0:
        raise ValueError(f"k_max must be a non-negative integer, got {k_max!r}")
    middle = (0,) * (n - 3)
    for c0 in range(1, k_max + 2):
        # Euler: odd n leaves the one c_1 that makes 2(c_0 - c_1 + g - 1) vanish.
        for c1 in range(g, g + k_max + 1) if n % 2 == 0 else (c0 + g - 1,):
            # c_n = k + 2 - c_0 >= 1 and c_{n-1} = 2g + k - c_1 >= g
            for k in range(max(c0 - 1, c1 - g), k_max + 1):
                yield (c0, c1, *middle, 2 * g + k - c1, k + 2 - c0)


def enumerate_flows(n: int, g: int, k_max: int) -> list[tuple[int, ...]]:
    """All admissible count vectors with middle entries zero, for any k <= k_max.

    The vectors satisfy c_1 + c_{n-1} = 2g + k and c_0 + c_n = k + 2 for
    some 0 <= k <= k_max, with c_0, c_n >= 1 and c_1, c_{n-1} >= g, and
    pass validate_flow.  They are combinatorially admissible: no claim is
    made that each one is realized by an actual flow.  Output is sorted
    lexicographically.

    They are written down in closed form, not filtered.  A vector is fixed
    by (c_0, c_1, c_{n-1}), since k = c_1 + c_{n-1} - 2g and
    c_n = k + 2 - c_0, so looping over c_0, then c_1, then k yields them in
    lexicographic order.  The genus, index-restriction, Morse and count-law
    checks hold by construction.  The Euler check keeps every vector when n
    is even (the alternating sum is (k + 2) - (2g + k) = 2 - 2g).  When n is
    odd the alternating sum is 2(c_0 - c_1 + g - 1) and must be 0, so only
    c_1 = c_0 + g - 1 survives: k + 1 vectors for each k.  Acceptance
    criterion 5 and ``test_matches_brute_force`` still compare this list
    against validate_flow on every bounded candidate.
    """
    return list(_admissible_counts(n, g, k_max))


def flow_spec_from_json(data: Any) -> FlowSpec:
    """Build a FlowSpec from its JSON document form.

    Expected shape::

        {"n": 4, "counts": [1, 1, 0, 1, 1], "no_heteroclinic": true,
         "connections": [{"from": "s1", "to": "a1"}, ...],
         "indices": {"s1": 1, "a1": 0}}

    ``connections`` and ``indices`` are optional together and
    ``no_heteroclinic`` defaults to true.
    """
    if not isinstance(data, dict):
        raise ValueError("flow spec must be a JSON object")
    if "n" not in data:
        raise ValueError("flow spec is missing the field 'n'")
    if "counts" not in data:
        raise ValueError("flow spec is missing the field 'counts'")
    n = data["n"]
    counts = data["counts"]
    if not _is_int(n):
        raise ValueError("field 'n' must be an integer")
    if not isinstance(counts, list):
        raise ValueError("field 'counts' must be a list of integers")
    no_het = data.get("no_heteroclinic", True)
    connections = None
    indices = None
    if "connections" in data or "indices" in data:
        raw_conns = data.get("connections")
        raw_idx = data.get("indices")
        if not isinstance(raw_conns, list) or not isinstance(raw_idx, dict):
            raise ValueError("'connections' must be a list and 'indices' an object, "
                             "and they are optional together")
        conns = []
        for entry in raw_conns:
            if not isinstance(entry, dict) or "from" not in entry or "to" not in entry:
                raise ValueError("each connection must be an object with 'from' and 'to'")
            ends = entry["from"], entry["to"]
            # labels are JSON strings: 1, true and null must not match "1", "True", "None"
            if not all(isinstance(end, str) for end in ends):
                raise ValueError("connection endpoints 'from' and 'to' must be label strings")
            conns.append(Connection(*ends))
        connections = tuple(conns)
        if not all(isinstance(label, str) for label in raw_idx):
            raise ValueError("labels in 'indices' must be strings")
        indices = raw_idx
    return FlowSpec(n=n, counts=tuple(counts), no_heteroclinic=no_het,
                    connections=connections, indices=indices)


def flow_spec_to_json(spec: FlowSpec) -> dict:
    doc: dict[str, Any] = {
        "n": spec.n,
        "counts": list(spec.counts),
        "no_heteroclinic": spec.no_heteroclinic,
    }
    if spec.connections is not None:
        doc["connections"] = [{"from": e.source, "to": e.target} for e in spec.connections]
        doc["indices"] = dict(spec.indices)
    return doc


def report_to_json(report: ValidationReport) -> dict:
    return {
        "genus": report.genus,
        "k": report.k,
        "admissible": report.admissible,
        "checks": [
            {"name": c.name, "pass": c.passed, "detail": c.detail}
            for c in report.checks
        ],
    }

