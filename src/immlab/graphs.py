"""Dense undirected graphs on {0, ..., n-1} with bitset adjacency.

The neighbourhood of vertex ``v`` is a Python int whose bit ``u`` is set iff
``uv`` is an edge.  Ints are arbitrary precision, so neighbourhood unions,
intersections and complements are single integer operations regardless of n.
"""

from __future__ import annotations

import gc
import hashlib
import json
import re
from dataclasses import dataclass
from functools import wraps
from itertools import combinations, compress
from typing import Callable, Iterable, Iterator, Sequence

MAX_VERTICES = 4096

GRAPH_FORMAT = "immlab-graph-v1"

_BITS = bytes.maketrans(b"01", b"\0\1")   # binary digits -> compress selectors
_INTEGERS = re.compile(r"-?[0-9]+(?: -?[0-9]+)*")   # space-separated ASCII integers


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph; ``adj[v]`` is the neighbour bitset of v."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside [0, {MAX_VERTICES}]")
        if not isinstance(self.adj, tuple):
            raise ValueError("adjacency must be a tuple")   # the kept digest needs it fixed
        if len(self.adj) != self.n:
            raise ValueError("adjacency tuple length != n")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"adjacency of {v} mentions vertices >= n")
            if row >> v & 1:
                raise ValueError(f"self-loop at {v}")
        # Char u of row v is bit u of adj[v]; of column v, bit v of adj[u].
        rows = [format(row, f"0{self.n}b")[::-1] for row in self.adj]
        matrix = "".join(rows)
        for v, row in enumerate(rows):
            column = matrix[v::self.n]
            if row != column and (missing := self.adj[v] & ~int(column[::-1], 2)):
                u = (missing & -missing).bit_length() - 1
                raise ValueError(f"asymmetric adjacency {v}-{u}")

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_edges(n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        """Entries are pairs of ints (not bools); a repeated pair, in either orientation,
        is a ValueError naming it.  n is gated before any row is allocated."""
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside [0, {MAX_VERTICES}]")
        rows = [bytearray(b"0") * n for _ in range(n)]   # char v of rows[u]: is uv an edge
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise ValueError(f"malformed edge entry {e!r}") from None
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"malformed edge entry {e!r}")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if rows[u][v] == 49:   # b"1"
                raise ValueError(f"edge ({u},{v}) repeats the pair {(min(u, v), max(u, v))}")
            rows[u][v] = rows[v][u] = 49
        return Graph(n, tuple([int(row[::-1], 2) for row in rows]))

    # -- queries -----------------------------------------------------------

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def _above(self) -> list[str]:
        """Row u above u as n - u - 1 binary digits, digit i set iff u+1+i is a neighbour
        (the last row, which has none, is "0")."""
        return [bin(row >> (u + 1))[:1:-1].ljust(self.n - u - 1, "0")
                for u, row in enumerate(self.adj)]

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (u, v) with u < v, in lexicographic order."""
        above = "".join(self._above()).encode().translate(_BITS)
        return list(compress(combinations(range(self.n), 2), above))

    def non_neighbors(self, v: int) -> int:
        """Closed non-neighbourhood: everything except v and its neighbours."""
        return self.vertex_mask & ~self.adj[v] & ~(1 << v)

    def is_clique(self, mask: int) -> bool:
        for v in bits(mask):
            if mask & ~self.adj[v] & ~(1 << v):
                return False
        return True

    def is_independent(self, mask: int) -> bool:
        for v in bits(mask):
            if mask & self.adj[v]:
                return False
        return True

    # -- derived graphs ----------------------------------------------------

    def complement(self) -> "Graph":
        full = self.vertex_mask
        return Graph(self.n, tuple(full & ~self.adj[v] & ~(1 << v) for v in range(self.n)))

    def induced_subgraph(self, keep: Iterable[int]) -> tuple["Graph", dict[int, int]]:
        """Subgraph induced on ``keep`` plus the old->new id map.

        Kept vertices are renumbered 0..k-1 in increasing old-id order, so the
        map is monotone and deterministic.
        """
        kept = sorted(set(keep))
        remap = {old: new for new, old in enumerate(kept)}
        adj = []
        for old in kept:
            row = 0
            for w in bits(self.adj[old]):
                to = remap.get(w)
                if to is not None:
                    row |= 1 << to
            adj.append(row)
        return Graph(len(kept), tuple(adj)), remap

    # -- canonical serialization --------------------------------------------

    def to_json(self) -> str:
        """Canonical one-line JSON as ``json.dumps`` writes it with separators (",", ":")."""
        ids = list(map(str, range(self.n)))
        rows = []
        for u, above in enumerate(self._above()):
            if vs := f"],[{u},".join(compress(ids[u + 1:], above.encode().translate(_BITS))):
                rows.append(f"[{u},{vs}]")
        return f'{{"format":"{GRAPH_FORMAT}","n":{self.n},"edges":[{",".join(rows)}]}}'

    def sha256(self) -> str:
        """Digest of ``to_json()``, kept after the first call (no field: ``==`` ignores it)."""
        digest = self.__dict__.get("_sha256")
        if digest is None:
            digest = hashlib.sha256(self.to_json().encode("ascii")).hexdigest()
            object.__setattr__(self, "_sha256", digest)
        return digest

    def to_text(self) -> str:
        """Whitespace edge-list format: ``n m`` header, then one edge per line."""
        es = self.edges()
        return "".join([f"{self.n} {len(es)}\n", *(f"{u} {v}\n" for u, v in es)])


def collector_paused(parse: Callable) -> Callable:
    """Run ``parse(text)`` with the cyclic garbage collector paused: parsed JSON has no
    cycles, and collecting over a large document's millions of lists outcosts the parse."""
    @wraps(parse)
    def paused(text: str):
        if not gc.isenabled():
            return parse(text)
        gc.disable()
        try:
            return parse(text)
        finally:
            gc.enable()
    return paused


@collector_paused
def graph_from_json(text: str) -> Graph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    return graph_from_doc(doc)


def graph_from_doc(doc: object) -> Graph:
    """Build a graph from an already-parsed canonical JSON document."""
    if not isinstance(doc, dict) or doc.get("format") != GRAPH_FORMAT:
        raise ValueError(f"not a {GRAPH_FORMAT} document")
    n = doc.get("n")
    edges = doc.get("edges")
    if type(n) is not int or not isinstance(edges, list):
        raise ValueError("graph document needs integer 'n' and list 'edges'")
    return Graph.from_edges(n, edges)


def graph_from_text(text: str) -> Graph:
    """Parse the whitespace edge-list format (``n m`` header, m endpoint pairs).

    Tokens are ASCII decimal integers, with an optional leading ``-`` so that
    a negative id reaches the range check; ``int``'s wider syntax (``1_0``,
    ``+1``, non-ASCII digits) is rejected.
    """
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("missing 'n m' header")
    if not _INTEGERS.fullmatch(" ".join(tokens)):
        bad = next(t for t in tokens if not _INTEGERS.fullmatch(t))
        raise ValueError(f"non-integer token in edge list: {bad!r}")
    numbers = list(map(int, tokens))
    n, m, ends = numbers[0], numbers[1], numbers[2:]
    if len(ends) != 2 * m:
        dangling = f", and a dangling endpoint {ends[-1]}" if len(ends) % 2 else ""
        raise ValueError(f"header promises {m} edges but {len(ends) // 2} given{dangling}")
    return Graph.from_edges(n, zip(ends[::2], ends[1::2]))


# -- standard graphs --------------------------------------------------------


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def join(a: Graph, b: Graph) -> Graph:
    """Disjoint union of ``a`` and ``b`` plus every edge between the halves."""
    bmask = ((1 << b.n) - 1) << a.n
    amask = (1 << a.n) - 1
    adj = [row | bmask for row in a.adj]
    adj += [(row << a.n) | amask for row in b.adj]
    return Graph(a.n + b.n, tuple(adj))


# -- the small-pattern catalogue ---------------------------------------------
#
# Fixed edge lists; embeddings found elsewhere report host vertices in this
# vertex order.  "owh" is the 5-vertex graph made of a triangle with a
# 2-edge tail; "K3v" is a triangle plus one isolated vertex; "K4minus" is K4
# with one edge removed; "paw" is a triangle with a pendant edge.

PATTERN_EDGES: dict[str, tuple[int, tuple[tuple[int, int], ...]]] = {
    "K4": (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
    "K4minus": (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))),
    "C4": (4, ((0, 1), (1, 2), (2, 3), (0, 3))),
    "P4": (4, ((0, 1), (1, 2), (2, 3))),
    "paw": (4, ((0, 1), (0, 2), (1, 2), (2, 3))),
    "K3v": (4, ((0, 1), (0, 2), (1, 2))),
    "twoK2": (4, ((0, 1), (2, 3))),
    "C5": (5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))),
    "house": (5, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4))),
    "owh": (5, ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4))),
}

#: The four-vertex patterns, in the order the automatic solver tries them.
FOUR_VERTEX_PATTERNS = ("C4", "P4", "paw", "twoK2", "K3v", "K4minus", "K4")

_PATTERNS = {name: Graph.from_edges(n, edges) for name, (n, edges) in PATTERN_EDGES.items()}


def pattern(name: str) -> Graph:
    """The catalogue graph, built once at import and shared by every caller."""
    try:
        return _PATTERNS[name]
    except KeyError:
        raise ValueError(f"unknown pattern {name!r}; known: {sorted(PATTERN_EDGES)}")
