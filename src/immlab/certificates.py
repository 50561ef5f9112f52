"""Immersion certificates: data model, canonical JSON, verifier, and trimming.

A certificate for "K_t immerses in g" names t distinct branch vertices and,
for every pair of them, a path in g, such that

  I.   each path joins its pair and really is a path of g (simple, edges exist),
  II.  the paths are pairwise edge-disjoint (sharing interior *vertices* is fine),
  III. no branch vertex lies in the interior of any path.

``verify_certificate`` checks branch, keys and vertices, then I (each step
x -> y against the bitset row ``adj[x]``), II (the steps' edges, one int each,
all distinct) and III (walk interiors against the branch set), in that order.

The canonical JSON is the compact ``json.dumps`` form of the document
``{"format", "graph_sha256", "order", "branch", "paths"}``, with the branch
sorted and one ``{"u", "v", "walk"}`` object per path in key order.
``certificate_to_json`` writes those bytes itself: one f-string per path,
joined once, the ints by ``str`` and only the host hash by ``json.dumps``,
so that its escaping is ``json.dumps``'s.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, combinations, islice
from typing import Iterable

from .graphs import Graph, collector_paused

CERT_FORMAT = "immlab-cert-v1"

Walk = tuple[int, ...]
Pair = tuple[int, int]


def ordered_pair(a: int, b: int) -> Pair:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class ImmersionCertificate:
    """A claimed clique immersion: branch vertices plus one path per pair."""

    host_hash: str
    branch: tuple[int, ...]
    paths: dict[Pair, Walk] = field(default_factory=dict)

    @property
    def order(self) -> int:
        return len(self.branch)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = "ok"
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _bad(reason: str, detail: str) -> Verdict:
    return Verdict(False, reason, detail)


# -- verification -------------------------------------------------------------


def verify_certificate(g: Graph, cert: ImmersionCertificate) -> Verdict:
    """Full audit of a clique-immersion certificate against its host graph."""
    if cert.host_hash != g.sha256():
        return _bad("hash-mismatch",
                    f"certificate is for {cert.host_hash[:12]}.., host is {g.sha256()[:12]}..")
    n, adj, branch, paths = g.n, g.adj, cert.branch, cert.paths
    for v in branch:
        if not (type(v) is int and 0 <= v < n):
            return _bad("structural", f"branch vertex {v!r} out of range")
    if len(set(branch)) != len(branch):
        return _bad("structural", f"branch vertices not distinct: {branch}")
    required = list(combinations(sorted(branch), 2))
    legal_keys = set(required)
    vertices = [*chain.from_iterable(paths.values())]
    if not (paths.keys() <= legal_keys and set(map(type, vertices)) <= {int}
            and (not vertices or 0 <= min(vertices) and max(vertices) < n)):
        for key, walk in paths.items():   # name the first fault, in path order
            if key not in legal_keys:
                return _bad("structural", f"unexpected path key {key}")
            for x in walk:
                if not (type(x) is int and 0 <= x < n):
                    return _bad("structural", f"walk vertex {x!r} out of range in path {key}")

    # Condition I, pair by pair in increasing order; each step's edge is
    # noted as the int min * n + max for condition II.
    steps: list[int] = []
    for key in required:
        walk = paths.get(key)
        if walk is None:
            return _bad("condition-I", f"no path for pair {key}")
        a, b = key
        if len(walk) < 2 or walk[0] != a or walk[-1] != b:
            return _bad("condition-I", f"path {key} does not run {a} -> {b}: {walk}")
        if len(walk) > 2 and len(set(walk)) != len(walk):
            return _bad("condition-I", f"path {key} repeats a vertex: {walk}")
        x = a
        for y in islice(walk, 1, None):
            if not adj[x] >> y & 1:
                return _bad("condition-I", f"path {key} uses non-edge ({x},{y})")
            steps.append(x * n + y if x < y else y * n + x)
            x = y

    # Condition II: no edge noted twice.  Only on a repeat are the walks
    # scanned again, in order, to name the two paths.
    if len(set(steps)) != len(steps):
        owner: dict[Pair, Pair] = {}
        for key in required:
            for e in map(ordered_pair, paths[key], paths[key][1:]):
                if e in owner:
                    return _bad("condition-II", f"edge {e} used by paths {owner[e]} and {key}")
                owner[e] = key

    # Condition III: branch vertices never sit inside a path.
    bset = set(branch)
    for key in required:
        for x in paths[key][1:-1]:
            if x in bset:
                return _bad("condition-III", f"branch vertex {x} interior to path {key}")
    return Verdict(True)


# -- constructors and trimming ---------------------------------------------------


def direct_clique_certificate(g: Graph, vertices: Iterable[int]) -> ImmersionCertificate:
    """Certificate for a literal clique: every pair joined by its own edge."""
    branch = tuple(sorted(set(vertices)))
    paths: dict[Pair, Walk] = {}
    for u, v in combinations(branch, 2):
        if not g.has_edge(u, v):
            raise ValueError(f"({u},{v}) is not an edge; vertices are not a clique")
        paths[(u, v)] = (u, v)
    return ImmersionCertificate(g.sha256(), branch, paths)


def trim_certificate(cert: ImmersionCertificate, target: int) -> ImmersionCertificate:
    """Keep only the ``target`` lowest-id branch vertices and their paths.

    Dropping branch vertices can only relax conditions II and III, so the
    result stays valid.
    """
    if not 0 <= target <= len(cert.branch):
        raise ValueError(f"cannot trim an order-{len(cert.branch)} certificate to {target}")
    keep = tuple(sorted(cert.branch)[:target])
    kset = set(keep)
    paths = {k: w for k, w in cert.paths.items() if k[0] in kset and k[1] in kset}
    return ImmersionCertificate(cert.host_hash, keep, paths)


# -- canonical JSON ---------------------------------------------------------------


def certificate_to_json(cert: ImmersionCertificate) -> str:
    """The canonical JSON of a certificate whose vertices are ints, as
    ``certificate_from_json`` reads them (``str(True)`` is not ``true``)."""
    paths = ",".join(f'{{"u":{u},"v":{v},"walk":[{",".join(map(str, w))}]}}'
                     for (u, v), w in sorted(cert.paths.items()))
    return (f'{{"format":"{CERT_FORMAT}","graph_sha256":{json.dumps(cert.host_hash)},'
            f'"order":{len(cert.branch)},"branch":[{",".join(map(str, sorted(cert.branch)))}],'
            f'"paths":[{paths}]}}')


@collector_paused
def certificate_from_json(text: str) -> ImmersionCertificate:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != CERT_FORMAT:
        raise ValueError(f"not a {CERT_FORMAT} document")
    host_hash = doc.get("graph_sha256")
    order = doc.get("order")
    branch = doc.get("branch")
    raw_paths = doc.get("paths")
    if not isinstance(host_hash, str):
        raise ValueError("'graph_sha256' must be a string")
    if not (isinstance(branch, list) and set(map(type, branch)) <= {int}):
        raise ValueError("'branch' must be a list of ints")
    if type(order) is not int or order != len(branch):
        raise ValueError(f"'order' is {order} but branch lists {len(branch)} vertices")
    if not isinstance(raw_paths, list):
        raise ValueError("'paths' must be a list")
    paths: dict[Pair, Walk] = {}
    for entry in raw_paths:
        if not isinstance(entry, dict):
            raise ValueError(f"malformed path entry {entry!r}")
        u, v, walk = entry.get("u"), entry.get("v"), entry.get("walk")
        if not (type(u) is int and type(v) is int and isinstance(walk, list)):
            raise ValueError(f"malformed path entry {entry!r}")
        if u >= v:
            raise ValueError(f"path key ({u},{v}) must have u < v")
        if (u, v) in paths:
            raise ValueError(f"duplicate path entry for pair ({u},{v})")
        paths[(u, v)] = tuple(walk)
    if not set(map(type, chain.from_iterable(paths.values()))) <= {int}:
        entry = next(e for e in raw_paths if not set(map(type, e["walk"])) <= {int})
        raise ValueError(f"malformed path entry {entry!r}")
    return ImmersionCertificate(host_hash, tuple(branch), paths)
