"""Communication graphs, Laplacian products, and spectral bounds.

The consensus constraint matrix of the decentralized problem is never
materialized: every quantity the solvers need is expressed through the graph
Laplacian ``Omega`` (degree matrix minus adjacency) applied block-wise to
stacked vectors.  Nodes are 1-based; edges are stored as ``(i, j)`` with
``i < j``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class GraphError(ValueError):
    """Raised for malformed or disconnected graph inputs."""


@dataclass(frozen=True)
class Graph:
    """Connected undirected simple graph.

    Attributes
    ----------
    num_nodes : int
        Number of nodes ``N >= 2``.
    edges : tuple of (int, int)
        Unordered edges, each stored with the smaller node id first.
    degrees : ndarray
        Read-only degree of each node, index 0 holding node 1.
    """

    num_nodes: int
    edges: tuple[tuple[int, int], ...]
    _adjacency: dict[int, tuple[int, ...]] = field(init=False, repr=False)
    degrees: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.num_nodes
        if n < 2:
            raise GraphError(f"need at least 2 nodes, got {n}")
        seen = set()
        adj: dict[int, list[int]] = {i: [] for i in range(1, n + 1)}
        for e in self.edges:
            i, j = e
            if not (1 <= i <= n and 1 <= j <= n):
                raise GraphError(f"edge {e} references a node outside [1, {n}]")
            if i == j:
                raise GraphError(f"self-loop at node {i}")
            if i > j:
                raise GraphError(f"edge {e} not stored with smaller id first")
            if e in seen:
                raise GraphError(f"duplicate edge {e}")
            seen.add(e)
            adj[i].append(j)
            adj[j].append(i)
        for i, nbrs in adj.items():
            if not nbrs:
                raise GraphError(f"node {i} is isolated")
        object.__setattr__(
            self, "_adjacency", {i: tuple(sorted(v)) for i, v in adj.items()}
        )
        degrees = np.array([len(adj[i]) for i in range(1, n + 1)])
        degrees.flags.writeable = False
        object.__setattr__(self, "degrees", degrees)
        comp = self._reachable_from(1)
        if len(comp) != n:
            missing = sorted(set(range(1, n + 1)) - comp)
            raise GraphError(f"graph is disconnected; unreachable nodes {missing}")

    def _reachable_from(self, root: int) -> set[int]:
        comp = {root}
        stack = [root]
        while stack:
            u = stack.pop()
            for v in self._adjacency[u]:
                if v not in comp:
                    comp.add(v)
                    stack.append(v)
        return comp

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._adjacency[i]

    def degree(self, i: int) -> int:
        return len(self._adjacency[i])

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def build_topology(kind: str, num_nodes: int, path: str | None = None) -> Graph:
    """Construct a named topology or load one from an edge file.

    Parameters
    ----------
    kind : {'star', 'clique', 'edge-file'}
        Star places node 1 at the center.
    num_nodes : int
        Ignored for ``'edge-file'`` (the file carries its own node count).
    path : str, optional
        Edge file path, required for ``'edge-file'``.
    """
    if kind == "star":
        return Graph(num_nodes, tuple((1, j) for j in range(2, num_nodes + 1)))
    if kind == "clique":
        edges = tuple(
            (i, j)
            for i in range(1, num_nodes + 1)
            for j in range(i + 1, num_nodes + 1)
        )
        return Graph(num_nodes, edges)
    if kind == "edge-file":
        if path is None:
            raise GraphError("edge-file topology needs a path")
        return load_edge_file(path)
    raise GraphError(f"unknown topology kind {kind!r}")


def load_edge_file(path: str) -> Graph:
    """Read a graph from plain text: first line ``N``, then ``i j`` lines.

    Node ids are 1-based with ``i < j``; ``#`` starts a comment.
    """
    lines = []
    with open(path) as fh:
        for raw in fh:
            stripped = raw.split("#", 1)[0].strip()
            if stripped:
                lines.append(stripped)
    if not lines:
        raise GraphError(f"{path}: empty edge file")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise GraphError(f"{path}: first line must be the node count") from exc
    edges = []
    for text in lines[1:]:
        parts = text.split()
        if len(parts) != 2:
            raise GraphError(f"{path}: malformed edge line {text!r}")
        i, j = int(parts[0]), int(parts[1])
        edges.append((i, j))
    return Graph(n, tuple(edges))


def _check_stacked(g: Graph, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != g.num_nodes:
        raise ValueError(
            f"expected stacked vector of {g.num_nodes} blocks, got shape {x.shape}"
        )
    return x

def laplacian_apply(g: Graph, x: np.ndarray) -> np.ndarray:
    """Apply the block Laplacian to a stacked vector of shape ``(N, n)``.

    Block ``i`` of the result is ``d_i x_i - sum_{j adjacent to i} x_j``, which
    equals the dense Kronecker-product Laplacian acting on the concatenation.
    """
    x = _check_stacked(g, x)
    out = g.degrees[:, None] * x
    for i, j in g.edges:
        out[i - 1] -= x[j - 1]
        out[j - 1] -= x[i - 1]
    return out


def laplacian_quadratic(g: Graph, x: np.ndarray) -> float:
    """Sum of squared disagreements ``sum_{(i,j) in E} ||x_i - x_j||^2``."""
    x = _check_stacked(g, x)
    total = 0.0
    for i, j in g.edges:
        d = x[i - 1] - x[j - 1]
        total += float(d @ d)
    return total


def laplacian_dense(g: Graph) -> np.ndarray:
    """Dense ``N x N`` Laplacian; intended for tests and small eigensolves."""
    n = g.num_nodes
    omega = np.zeros((n, n))
    np.fill_diagonal(omega, g.degrees)
    for i, j in g.edges:
        omega[i - 1, j - 1] = -1.0
        omega[j - 1, i - 1] = -1.0
    return omega


# A dense eigensolve takes about a second at this size; larger graphs get a
# certified upper bound instead.
_DENSE_EIG_LIMIT = 2048


def spectral_bounds(g: Graph) -> tuple[float, float]:
    """Largest and second-smallest Laplacian eigenvalues.

    The second-smallest eigenvalue (algebraic connectivity) is strictly
    positive for a connected graph.  Past ``_DENSE_EIG_LIMIT`` nodes the
    largest is replaced by the Anderson-Morley bound ``max over edges (i, j)
    of d_i + d_j`` (an upper bound, which keeps step sizes safe) and the
    second-smallest is NaN; no solver reads it.
    """
    if g.num_nodes <= _DENSE_EIG_LIMIT:
        eigs = np.linalg.eigvalsh(laplacian_dense(g))
        return float(eigs[-1]), float(eigs[1])
    ends = np.asarray(g.edges) - 1
    return float(np.max(g.degrees[ends].sum(axis=1))), math.nan


def consensus_violation(g: Graph, x: np.ndarray, normalize: bool = True) -> float:
    """Largest disagreement ``max over edges (i, j) of ||x_i - x_j||``,
    divided by ``sqrt(n)`` when ``normalize``."""
    cv = max(float(np.linalg.norm(x[i - 1] - x[j - 1])) for i, j in g.edges)
    if normalize:
        cv /= math.sqrt(x.shape[1])
    return cv
