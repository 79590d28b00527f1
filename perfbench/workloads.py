"""The four benchmark workloads: seeded inputs, the timed calls, and checks.

Every expected answer is derived here, independently of flowtop: closed-form
ranks and the Kuenneth formula (with Tor, for torsion) for homology, and the
count laws for flow verdicts.  A workload's ``setup`` builds its inputs from
the seed and returns a list of :class:`Job`; the worker times ``Job.run`` and
calls ``Job.check`` on the result outside the timed region.

``setup`` receives the flowtop package for building inputs (complexes for
``oracle-torsion``, parsed expressions for ``complex-build``).  The timed
calls go through ``lib``, a namespace of flowtop entry points that the worker
replaces with traced wrappers in a traced pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

__all__ = ["Job", "WORKLOADS", "NOT_RUNNABLE_AT_SEED", "Term", "kunneth", "invariant_factors"]


@dataclass
class Job:
    """One timed call (or short chain of calls) and the check of its answer.

    ``run(lib)`` is timed.  ``check(result)`` returns an error message, or
    None when the answer is right.  ``kind`` names the kind of query, whose
    share of pass time the run reports.  ``flow_key`` is the (n, g) a flow
    query runs on, used for ``flows.repeat_share``.
    """

    label: str
    run: Callable[[Any], Any]
    check: Callable[[Any], str | None]
    kind: str
    flow_key: tuple[int, int] | None = None


# Inputs that cannot run at the seed commit, with the reason measured for
# each.  None of them is in any workload; add them once the sparse oracle
# lands.
NOT_RUNNABLE_AT_SEED = {
    "crosscheck S2 x S2 x S1": "more than 490 s of dense SNF",
    "crosscheck S3 x S3": "63 s, mostly dense SNF",
    "boundary build S2 x S2 x S2": "dense boundary matrices exceed memory "
                                   "(killed near 7 GB without a cap)",
}


# ---------------------------------------------------------------- algebra

@dataclass(frozen=True)
class Term:
    """A manifold expression as text, with its Betti numbers by degree."""

    text: str
    ranks: tuple[int, ...]
    is_sum: bool = False

    @property
    def dim(self) -> int:
        return len(self.ranks) - 1

    @property
    def euler(self) -> int:
        return sum((-1) ** i * r for i, r in enumerate(self.ranks))


def sphere(k: int) -> Term:
    ranks = [0] * (k + 1)
    ranks[0] += 1
    ranks[k] += 1
    return Term(f"S{k}", tuple(ranks))


def product(*factors: Term) -> Term:
    """Kuenneth for torsion-free factors: ranks convolve."""
    ranks = [1]
    for f in factors:
        out = [0] * (len(ranks) + f.dim)
        for i, a in enumerate(ranks):
            for j, b in enumerate(f.ranks):
                out[i + j] += a * b
        ranks = out
    text = " x ".join(f"({f.text})" if f.is_sum else f.text for f in factors)
    return Term(text, tuple(ranks))


def connected_sum(*summands: Term) -> Term:
    """Closed orientable n-manifolds: ranks add in degrees 1..n-1."""
    n = summands[0].dim
    ranks = [0] * (n + 1)
    ranks[0] = ranks[n] = 1
    for s in summands:
        for i in range(1, n):
            ranks[i] += s.ranks[i]
    return Term(" # ".join(s.text for s in summands), tuple(ranks), is_sum=True)


def sng(n: int, g: int) -> Term:
    """The genus-g manifold, a connected sum of g copies of S^(n-1) x S^1."""
    ranks = [0] * (n + 1)
    ranks[0] += 1
    ranks[n] += 1
    ranks[1] += g
    ranks[n - 1] += g
    return Term(f"Sng({n},{g})", tuple(ranks))


def invariant_factors(cyclic_orders: list[int]) -> list[int]:
    """Invariant factors d_1 | d_2 | ... of a direct sum of cyclic groups Z/a."""
    powers: dict[int, list[int]] = {}
    for a in cyclic_orders:
        p = 2
        while a > 1:
            if a % p == 0:
                q = 1
                while a % p == 0:
                    a //= p
                    q *= p
                powers.setdefault(p, []).append(q)
            p += 1
    for qs in powers.values():
        qs.sort(reverse=True)
    width = max((len(qs) for qs in powers.values()), default=0)
    factors = [math.prod(qs[i] for qs in powers.values() if i < len(qs)) for i in range(width)]
    return sorted(factors)


# A graded group is a list indexed by degree of (rank, [cyclic orders > 1]).
Graded = list[tuple[int, list[int]]]


def kunneth(x: Graded, y: Graded) -> Graded:
    """Integral homology of X x Y: tensor terms in degree i+j, Tor in i+j+1."""
    top = len(x) + len(y) - 2
    out: Graded = [(0, []) for _ in range(top + 1)]

    def add(deg: int, rank: int, torsion: list[int]) -> None:
        r, t = out[deg]
        out[deg] = (r + rank, t + torsion)

    for i, (ra, ta) in enumerate(x):
        for j, (rb, tb) in enumerate(y):
            # (Z^ra + sum Z/a) (x) (Z^rb + sum Z/b)
            add(i + j, ra * rb, ta * rb + tb * ra + [math.gcd(a, b) for a in ta for b in tb])
            if i + j + 1 <= top:
                add(i + j + 1, 0, [math.gcd(a, b) for a in ta for b in tb])
    return [(r, invariant_factors(t)) for r, t in out]


RP2: Graded = [(1, []), (0, [2]), (0, [])]
KLEIN: Graded = [(1, []), (1, [2]), (0, [])]   # RP2 # RP2, by the classification of surfaces


def sphere_graded(k: int) -> Graded:
    return [(1 if d in (0, k) else 0, []) for d in range(k + 1)]


# ---------------------------------------------------------------- helpers

def _cli(lib, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lib.cli_main(argv)
    return rc, out.getvalue(), err.getvalue()


def _graded_from_cli(doc: dict, top: int) -> Graded:
    return [(doc["ranks"].get(str(d), 0), list(doc["torsion"].get(str(d), [])))
            for d in range(top + 1)]


# ---------------------------------------------------------------- oracle-ladder

LADDER = [sng(4, 2), sng(3, 6), sng(4, 4), product(sphere(3), sphere(2)),
          sng(5, 2), sng(6, 1), product(sphere(2), sphere(1), sphere(1))]
LADDER_TINY = [sng(3, 2), product(sphere(2), sphere(1))]


def _ladder_job(term: Term) -> Job:
    def run(lib):
        return _cli(lib, ["crosscheck", term.text, "--format", "json"])

    def check(result) -> str | None:
        rc, out, err = result
        if rc != 0:
            return f"exit {rc}: {err.strip() or out.strip()}"
        doc = json.loads(out)
        rows = doc["degrees"]
        if not doc["match"] or not all(row["match"] for row in rows):
            return f"crosscheck reported a mismatch: {rows}"
        oracle = [row["oracle"] for row in rows]
        engine = [row["engine"] for row in rows]
        if oracle != list(term.ranks) or engine != list(term.ranks):
            return f"ranks engine={engine} oracle={oracle}, expected {list(term.ranks)}"
        return None

    return Job(term.text, run, check, "crosscheck")


def setup_oracle_ladder(ft, seed: int, workdir: Path, tiny: bool) -> list[Job]:
    terms = list(LADDER_TINY if tiny else LADDER)
    random.Random(seed).shuffle(terms)
    return [_ladder_job(t) for t in terms]


# ---------------------------------------------------------------- oracle-torsion

# RP2xS2 is written in this many vertex orders, so that the median job is one
# of them (about a second), not the 40-ms RP2xS1, whose time a short burst
# of load on a shared box moves by a fifth.  The vertex order alone moves
# RP2xS2 by about a tenth, so the median rests on the 4th of 9 orders.
RP2_S2_ORDERS = 9


def _torsion_cases(ft, tiny: bool) -> list[tuple[str, Any, Graded, int]]:
    """(name, complex, expected homology, number of vertex orders)."""
    rp2 = ft.projective_plane_complex()
    s1 = ft.boundary_sphere_complex(1)
    s2 = ft.boundary_sphere_complex(2)
    cases = [
        ("RP2", rp2, RP2, 1),
        ("RP2#RP2", ft.connected_sum_complex(rp2, rp2, 2), KLEIN, 1),
        ("RP2xS1", ft.product_complex(rp2, s1), kunneth(RP2, sphere_graded(1)), 1),
    ]
    if not tiny:
        cases += [
            ("RP2xS2", ft.product_complex(rp2, s2), kunneth(RP2, sphere_graded(2)), RP2_S2_ORDERS),
            ("RP2xRP2", ft.product_complex(rp2, rp2), kunneth(RP2, RP2), 1),
        ]
    return cases


def _torsion_job(name: str, path: Path, expected: Graded) -> Job:
    def run(lib):
        return _cli(lib, ["oracle-complex", str(path), "--format", "json"])

    def check(result) -> str | None:
        rc, out, err = result
        if rc != 0:
            return f"exit {rc}: {err.strip() or out.strip()}"
        found = _graded_from_cli(json.loads(out), len(expected) - 1)
        if found != expected:
            return f"homology {found}, expected {expected}"
        return None

    return Job(name, run, check, "oracle-complex")


def setup_oracle_torsion(ft, seed: int, workdir: Path, tiny: bool) -> list[Job]:
    """Write each complex as JSON with a seeded vertex and facet order."""
    rng = random.Random(seed)
    jobs = []
    for name, K, expected, orders in _torsion_cases(ft, tiny):
        for order in range(orders):
            doc = ft.complex_to_json(K)
            rng.shuffle(doc["vertices"])
            rng.shuffle(doc["facets"])
            path = workdir / f"{name.replace('#', '_sum_')}-{order}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            jobs.append(_torsion_job(name, path, expected))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------- complex-build

BUILD_CHI = [product(sphere(2), sphere(2), sphere(2)),
             product(sphere(2), sphere(1), sphere(1), sphere(1))]
BUILD_BOUNDARY = [sng(6, 4), product(sphere(3), sphere(3))]
BUILD_TINY_CHI = [product(sphere(2), sphere(1))]
BUILD_TINY_BOUNDARY = [sng(3, 2)]


def _build_job(term: Term, expr, engine_chi: int, boundaries: bool) -> Job:
    def run(lib):
        K = lib.triangulate(expr)
        f = [K.n_simplices(d) for d in range(K.dim + 1)]
        shapes = ([K.boundary_matrix(i).shape for i in range(1, K.dim + 1)]
                  if boundaries else None)
        return K.dim, f, K.euler_characteristic(), shapes

    def check(result) -> str | None:
        dim, f, chi, shapes = result
        if dim != term.dim:
            return f"triangulation has dimension {dim}, expected {term.dim}"
        if not chi == engine_chi == term.euler:
            return (f"triangulation chi = {chi}, engine chi = {engine_chi}, "
                    f"closed form {term.euler}")
        if shapes is not None:
            want = [(f[i - 1], f[i]) for i in range(1, dim + 1)]
            if shapes != want:
                return f"boundary shapes {shapes}, expected {want}"
        return None

    kind = "boundaries" if boundaries else "chi"
    return Job(f"{kind} {term.text}", run, check, kind)


def setup_complex_build(ft, seed: int, workdir: Path, tiny: bool) -> list[Job]:
    """The boundary jobs, then the chi jobs, each group in a seeded order.

    Boundaries go first so that the peak RSS is that of the dense boundary
    matrices.  Run after the S2 x S2 x S2 triangulation, the same matrices
    peak about 8 MB higher on the heap that triangulation leaves behind.
    """
    rng = random.Random(seed)
    jobs = []
    for terms, boundaries in ((BUILD_TINY_BOUNDARY if tiny else BUILD_BOUNDARY, True),
                              (BUILD_TINY_CHI if tiny else BUILD_CHI, False)):
        group = []
        for term in terms:
            expr = ft.parse_manifold(term.text)
            group.append(_build_job(term, expr, ft.euler_characteristic(expr), boundaries))
        rng.shuffle(group)
        jobs += group
    return jobs


# ---------------------------------------------------------------- engine-queries

ENGINE_QUERIES = 2000
ENGINE_QUERIES_TINY = 200
# The mix was chosen, not measured from real traffic: equal shares for the
# four query kinds, and "a few small enumerate_flows", about 1%.  The run
# reports each kind's measured share of pass time.
ENGINE_KINDS = ("sng", "expr", "validate", "obstruction")
ENUMERATE_SHARE = 0.01
MAX_GENUS = 2000
MAX_GENUS_TINY = 50


def _composition(rng: random.Random, n: int) -> list[int]:
    parts = []
    while n:
        k = rng.randint(1, n)
        parts.append(k)
        n -= k
    return parts


def _random_product(rng: random.Random, n: int, nest: bool) -> Term:
    factors = []
    for d in _composition(rng, n):
        if nest and d >= 2 and rng.random() < 0.2:
            factors.append(_random_sum(rng, d, nest=False))
        else:
            factors.append(sphere(d))
    return factors[0] if len(factors) == 1 else product(*factors)


def _random_sum(rng: random.Random, n: int, nest: bool) -> Term:
    return connected_sum(*(_random_product(rng, n, nest) for _ in range(rng.randint(2, 4))))


def _random_expression(rng: random.Random) -> Term:
    n = rng.randint(2, 8)
    if rng.random() < 0.5:
        return _random_product(rng, n, nest=True)
    return _random_sum(rng, n, nest=True)


def _stratified(rng: random.Random, count: int, max_genus: int,
                dims: range) -> list[tuple[int, int]]:
    """``count`` pairs (n, g), with g log-uniform in 0..max_genus.

    g takes one draw from each of ``count`` equal-probability strata, in
    increasing order, and n cycles through ``dims`` along them.  The cost of
    a flow or Sng query grows with n * g, so stratifying keeps a pass's total
    cost nearly the same for every seed.
    """
    top = math.log(max_genus + 1)
    return [(dims[i % len(dims)],
             min(max_genus, int(math.exp(top * (i + rng.random()) / count)) - 1))
            for i in range(count)]


def _expression_job(rng: random.Random, term: Term, kind: str) -> Job:
    op = rng.choice(("homology", "poincare", "betti"))
    want_ranks = {d: r for d, r in enumerate(term.ranks) if r}
    if op == "homology":
        def run(lib):
            return lib.homology(lib.parse_manifold(term.text)).ranks
        expected: Any = want_ranks
    elif op == "poincare":
        def run(lib):
            return lib.poincare_polynomial(lib.parse_manifold(term.text)).coefficients
        expected = term.ranks
    else:
        degree = rng.randint(-1, term.dim + 1)

        def run(lib):
            return lib.betti(lib.parse_manifold(term.text), degree)
        expected = term.ranks[degree] if 0 <= degree <= term.dim else 0
        op = f"betti[{degree}]"

    def check(result) -> str | None:
        return None if result == expected else f"{op}: got {result!r}, expected {expected!r}"

    return Job(f"{op} {term.text}", run, check, kind)


def expected_verdict(n: int, counts: tuple[int, ...]) -> tuple[bool, int | None, int | None]:
    """(admissible, genus, k) from the count laws, written out independently."""
    nu = sum(counts[1:n])
    mu = counts[0] + counts[n]
    s = nu - mu + 2
    if s < 0 or s % 2:
        return False, None, None
    g, k = s // 2, mu - 2
    manifold = sng(n, g)
    ok = (not (n >= 4 and any(counts[2:n - 1]))
          and all(c >= b for c, b in zip(counts, manifold.ranks))
          and sum((-1) ** i * c for i, c in enumerate(counts)) == manifold.euler)
    return ok, g, k


def _flow_counts(rng: random.Random, n: int, g: int, kind: int) -> tuple[int, ...]:
    """An admissible count vector on Sng(n, g), then perturbed by ``kind``.

    0 leaves it admissible; 1 adds an equilibrium, so the genus is not an
    integer; 2 adds a middle-index saddle and a sink; 3 moves a saddle from
    index 1 to index n-1, which breaks a Morse inequality when c_1 = g.
    Kinds 1 to 3 are each rejected on a different check, and kind 1 skips the
    O(g) Euler check, so the kinds are assigned in fixed shares.
    """
    k = rng.randint(0, 4)
    c1 = g + rng.randint(0, k)
    c0 = rng.randint(1, k + 1)
    counts = [0] * (n + 1)
    counts[0], counts[1], counts[n - 1], counts[n] = c0, c1, 2 * g + k - c1, k + 2 - c0
    if kind == 1:
        counts[rng.randint(0, n)] += 1
    elif kind == 2:
        counts[rng.randint(2, n - 2)] += 1
        counts[0] += 1
    elif kind == 3 and counts[1] + counts[n - 1]:
        src, dst = (1, n - 1) if counts[1] else (n - 1, 1)
        counts[src] -= 1
        counts[dst] += 1
    return tuple(counts)


def _validate_job(ft, rng: random.Random, n: int, g: int, kind: int) -> Job:
    counts = _flow_counts(rng, n, g, kind)
    spec = ft.FlowSpec(n=n, counts=counts)
    expected = expected_verdict(n, counts)

    def run(lib):
        report = lib.validate_flow(spec)
        return report.admissible, report.genus, report.k

    def check(result) -> str | None:
        return None if result == expected else f"verdict {result}, expected {expected}"

    genus = expected[1] if expected[1] is not None else 0
    return Job(f"validate n={n} c={list(counts)}", run, check, "validate", flow_key=(n, genus))


def _obstruction_job(rng: random.Random, n: int, g: int) -> Job:
    i = rng.randint(1, n - 1)
    # Sng(n, g) has homology only in degrees 0, 1, n-1 and n.
    expected = not 2 <= i <= n - 2

    def run(lib):
        return lib.obstruction_check(n, i, g).admissible

    def check(result) -> str | None:
        return None if result == expected else f"admissible={result}, expected {expected}"

    return Job(f"obstruction n={n} i={i} g={g}", run, check, "obstruction", flow_key=(n, g))


def expected_enumeration(n: int, g: int, k_max: int) -> list[tuple[int, ...]]:
    """Candidates with c_1 + c_(n-1) = 2g + k and c_0 + c_n = k + 2 that pass the laws."""
    found = set()
    for k in range(k_max + 1):
        for c1 in range(g, g + k + 1):
            for c0 in range(1, k + 2):
                counts = [0] * (n + 1)
                counts[0], counts[1], counts[n - 1], counts[n] = c0, c1, 2 * g + k - c1, k + 2 - c0
                if expected_verdict(n, tuple(counts))[0]:
                    found.add(tuple(counts))
    return sorted(found)


def _enumerate_job(j: int) -> Job:
    n, g, k_max = 4 + j % 5, j % 7, j % 6
    expected = expected_enumeration(n, g, k_max)

    def run(lib):
        return lib.enumerate_flows(n, g, k_max)

    def check(result) -> str | None:
        if result != expected:
            return f"{len(result)} vectors, expected {len(expected)}"
        return None

    return Job(f"enumerate n={n} g={g} k_max={k_max}", run, check, "enumerate",
               flow_key=(n, g))


def setup_engine_queries(ft, seed: int, workdir: Path, tiny: bool) -> list[Job]:
    """A shuffled stream in equal shares: Sng and other expressions (each
    through parse_manifold and then homology, poincare_polynomial or betti),
    validate_flow and obstruction_check; plus about 1% small enumerate_flows."""
    rng = random.Random(seed)
    count = ENGINE_QUERIES_TINY if tiny else ENGINE_QUERIES
    max_genus = MAX_GENUS_TINY if tiny else MAX_GENUS
    each = round(count * (1 - ENUMERATE_SHARE)) // len(ENGINE_KINDS)
    jobs = [_expression_job(rng, sng(n, g), "sng")
            for n, g in _stratified(rng, each, max_genus, range(2, 11))]
    jobs += [_expression_job(rng, _random_expression(rng), "expr") for _ in range(each)]
    jobs += [_validate_job(ft, rng, n, g, kind=i % 4) for i, (n, g) in
             enumerate(_stratified(rng, each, max_genus, range(4, 11)))]
    jobs += [_obstruction_job(rng, n, g)
             for n, g in _stratified(rng, each, max_genus, range(3, 11))]
    jobs += [_enumerate_job(j) for j in range(count - each * len(ENGINE_KINDS))]
    rng.shuffle(jobs)
    return jobs


WORKLOADS: dict[str, Callable[..., list[Job]]] = {
    "oracle-ladder": setup_oracle_ladder,
    "oracle-torsion": setup_oracle_torsion,
    "complex-build": setup_complex_build,
    "engine-queries": setup_engine_queries,
}
