"""Instance pools for the three workloads, generated from the workload seed.

Every instance is stored as the text a user would hand to the CLI, so each
request parses it into a fresh ``Graph`` and no per-object cache carries over
between requests.  The harness draws its own choices (sizes, jitter, seeds
handed to the generators) from ``random.Random(seed)``; the instances
themselves come from ``immlab.gen`` and ``immlab.inflation.inflate``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from immlab import gen, graphs, inflation

@dataclass(frozen=True)
class Instance:
    """One input of the pool: what to solve, how, and what it promises."""

    label: str
    method: str          # a CLI --method token, or inflation:path / inflation:cycle
    text: str            # input of the solve request
    graph_text: str      # immlab-graph-v1 text for verify and analyze
    promise: int         # certificate order the route promises
    analyze: bool
    facts: dict = field(default_factory=dict)  # known structure, checked by analyze
    repeat: int = 1      # requests per pass, spread over the pass


def pool_digest(pool: list[Instance]) -> str:
    h = hashlib.sha256()
    for inst in pool:
        for part in (inst.label, inst.method, inst.text, inst.graph_text, str(inst.promise)):
            h.update(part.encode())
            h.update(b"\0")
    return h.hexdigest()


def _half(n: int) -> int:
    return (n + 1) // 2


# -- small-mix -------------------------------------------------------------------
#
# Request cost is set mostly by the route and n, so the pool is a fixed grid of
# (family, n) cells and the seed only draws the graph in each cell: every seed
# then issues the same mix.  The oracle's long searches come from two fixed
# n = 10 graphs on which ``auto`` falls back to it (the slowest of
# random_alpha2(10, s) for s < 1500, about 150 ms each); random n = 10 draws
# are left out because their heavy tail (1 ms median, up to 150 ms) would
# swing solve_per_s with the seed.

#: Pattern-free family -> the routes that solve it.
SMALL_ROUTES = {p: (f"vergara:{p}",) for p in graphs.FOUR_VERTEX_PATTERNS} | {
    "K4minus": ("vergara:K4minus", "k4minus"), "K4": ("vergara:K4", "k4"),
    "house": ("house",), "owh": ("owh",)}
SMALL_SIZES = tuple(range(6, 25, 3))
K4_SIZES = (6, 7, 8)            # no K4-free graph with alpha <= 2 has n > 8
AUTO_SIZES = (6, 7, 8, 9)
AUTOS_PER_SIZE = 10
ORACLE_WORST = (450, 1371)      # seeds of random_alpha2 at n = 10


def _small(method: str, g: graphs.Graph, facts: dict) -> Instance:
    text = g.to_json()
    return Instance(f"{method} n={g.n}", method, text, text, _half(g.n), True, facts)


def small_mix(seed: int) -> list[Instance]:
    rng = random.Random(seed)
    pool = []
    cells = [(f, n) for f in SMALL_ROUTES if f != "K4" for n in SMALL_SIZES]
    for family, n in cells + [("K4", n) for n in K4_SIZES]:
        g = gen.random_hfree_alpha2(family, n, rng.getrandbits(63))
        for method in SMALL_ROUTES[family]:
            pool.append(_small(method, g, {"alpha_at_most": 2, "free_of": family}))
    for n in AUTO_SIZES:
        for _ in range(AUTOS_PER_SIZE):
            g = gen.random_alpha2(n, rng.getrandbits(63))
            pool.append(_small("auto", g, {"alpha_at_most": 2}))
    for s in ORACLE_WORST:
        pool.append(_small("auto", gen.random_alpha2(10, s), {"alpha_at_most": 2}))
    return pool


# -- holefree-ladder -------------------------------------------------------------


def _bags(total: int, parts: int, rng: random.Random) -> list[int]:
    """``parts`` bag sizes summing to ``total``, as equal as possible; the
    seed picks which bags take the remainder.  Request cost depends on the
    bag sizes, so keeping them near equal keeps it from swinging with the
    seed."""
    sizes = [total // parts] * parts
    for j in rng.sample(range(parts), total % parts):
        sizes[j] += 1
    return sizes


def _jittered(total: int, parts: int, rng: random.Random, jitter: float) -> list[int]:
    """``parts`` positive sizes summing to ``total``, each within ~jitter of equal."""
    base = total / parts
    sizes = [max(1, round(base * (1 + rng.uniform(-jitter, jitter)))) for _ in range(parts)]
    while sum(sizes) != total:
        j = rng.randrange(parts)
        if sum(sizes) > total and sizes[j] > 1:
            sizes[j] -= 1
        elif sum(sizes) < total:
            sizes[j] += 1
    return sizes


def _cycle_join(sizes: list[int], universal: int) -> graphs.Graph:
    core, _ = inflation.inflate(graphs.cycle_graph(len(sizes)), tuple(sizes))
    if universal:
        return graphs.join(core, graphs.complete_graph(universal))
    return core


def _hole_free(label: str, method: str, sizes: list[int], universal: int,
               analyze: bool, repeat: int = 1) -> Instance:
    g = _cycle_join(sizes, universal)
    chi_core, _ = inflation.cycle_inflation_chromatic(tuple(sizes))
    k = len(sizes)
    omega = max(sizes[i] + sizes[(i + 1) % k] for i in range(k)) + universal
    facts = {"alpha": (k - 1) // 2, "free_of": "C4", "no_short_hole": True,
             "omega": omega, "chi": chi_core + universal}
    promise = _half(g.n) if method == "auto" else chi_core + universal
    text = g.to_json()
    return Instance(label, method, text, text, promise, analyze, facts, repeat)


#: Fixed shapes: the top rung (one auto solve takes 0.7 s), the max_clique
#: pathology C5[K_14] + K_14 (2.5 s in analyze) and the slow chromatic
#: number at n = 24, C5[K_4] + K_4 (0.4 s).  They are fixed so that the
#: costliest requests are the same for every seed.  (label, bags, universal,
#: analyzed)
HOLEFREE_FIXED = (("auto C5[25^5]+K3", [25] * 5, 3, False),
                  ("auto C5[14^5]+K14", [14] * 5, 14, True),
                  ("auto C5[4^5]+K4", [4] * 5, 4, True))
#: (n, instances, repeats per pass) of the seeded auto rungs.  Ten at n = 64
#: put the solve tail (the 11th slowest of 40 instances) inside that rung;
#: the cheap n = 16 rung, where the medians lie, is repeated four times a
#: pass so that the fastest repetition of each instance is well sampled.
HOLEFREE_RUNGS = ((16, 24, 4), (64, 10, 1))
FORBHOLES_SIZES = (40, 48, 56)


def holefree_ladder(seed: int) -> list[Instance]:
    rng = random.Random(seed)
    pool = []
    for n, count, repeat in HOLEFREE_RUNGS:
        for i in range(count):
            universal = i % (n // 8 + 1)
            sizes = _bags(n - universal, 5, rng)
            pool.append(_hole_free(f"auto C5 n={n}", "auto", sizes, universal, True, repeat))
    for n in FORBHOLES_SIZES:
        universal = 2
        sizes = _bags(n - universal, 7, rng)
        pool.append(_hole_free(f"forbholes C7 n={n}", "forbholes", sizes, universal, True))
    for label, sizes, universal, analyze in HOLEFREE_FIXED:
        pool.append(_hole_free(label, "auto", sizes, universal, analyze))
    return pool


# -- inflation-large -------------------------------------------------------------

#: (kind, bag count, target n, instances).  Four instances of every shape run
#: at n = 256, so that the solve tail (the 11th slowest of 26 instances) lies
#: above the median.  The large rung is cycle k=5 at n = 512, whose
#: certificate is the largest per vertex (about 1.6 MB) and whose solve plus
#: verify take 2 s.  Every instance runs twice a pass.
INFLATION_GRID = tuple((kind, k, 256, 4) for kind, k in (
    ("path", 4), ("path", 6), ("path", 8), ("cycle", 5), ("cycle", 7), ("cycle", 9))) + (
    ("cycle", 5, 512, 1),)
#: One more cycle inflation, k = 9 and n = 256 with fixed bags so that its
#: cost does not depend on the seed, is also analysed, three times a pass:
#: find_induced on the 4- and 5-vertex patterns, 0.5 s.  Analysing larger
#: hosts takes 16-60 s in the failing induced-C4 search.
INFLATION_ANALYZED_BAGS = (29, 29, 29, 29, 28, 28, 28, 28, 28)


def _path_sizes(sizes: list[int]) -> list[int]:
    # Engine preconditions: the first bag is no bigger than any bag, the last
    # no bigger than any even-position bag.
    sizes[-1] = min(sizes[-1], min(sizes[j] for j in range(1, len(sizes), 2)))
    sizes[0] = min(sizes)
    return sizes


def _inflation(kind: str, sizes: list[int], analyze: bool = False,
               repeat: int = 2) -> Instance:
    k = len(sizes)
    base = graphs.path_graph(k) if kind == "path" else graphs.cycle_graph(k)
    spec = inflation.InflationSpec(base, tuple(sizes))
    g, _ = inflation.inflate(spec.base, spec.sizes)
    if kind == "path":
        promise = sizes[0] + sizes[-1]
    else:
        promise, _ = inflation.cycle_inflation_chromatic(spec.sizes)
    return Instance(f"inflation:{kind} k={k} n={g.n}", f"inflation:{kind}",
                    inflation.inflation_to_json(spec), g.to_json(),
                    promise, analyze, {"free_of": "C4"}, repeat)


def inflation_large(seed: int) -> list[Instance]:
    rng = random.Random(seed)
    pool = []
    for kind, k, n, copies in INFLATION_GRID:
        for _ in range(copies):
            sizes = _jittered(n, k, rng, 0.1)
            pool.append(_inflation(kind, _path_sizes(sizes) if kind == "path" else sizes))
    pool.append(_inflation("cycle", list(INFLATION_ANALYZED_BAGS), analyze=True, repeat=3))
    return pool


#: Seconds one pass takes on the host the baseline was measured on.  A run
#: makes round(seconds / PASS_SECONDS) whole passes, so every run of a
#: workload repeats each instance equally often however busy the host is; a
#: run on a slower or faster host takes correspondingly longer or shorter.
PASS_SECONDS = {"small-mix": 0.9, "holefree-ladder": 7.5, "inflation-large": 16.0}

WORKLOADS = {
    "small-mix": small_mix,
    "holefree-ladder": holefree_ladder,
    "inflation-large": inflation_large,
}
