"""Communication graphs, Laplacian products, and spectral bounds.

The consensus constraint matrix of the decentralized problem is never
materialized: every quantity the solvers need is expressed through the graph
Laplacian ``Omega`` (degree matrix minus adjacency) applied block-wise to
stacked vectors.  Nodes are 1-based; edges are stored as ``(i, j)`` with
``i < j``.  Each graph also holds 0-based neighbour index arrays, built once,
so Laplacian products, quadratic forms and edge disagreements are array
expressions over all edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .checks import integer


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
    degrees, degree_col, degree_col1 : ndarray
        Read-only degree of each node (index 0 is node 1), as ints, a float column and that + 1.
    nbr_ptr, nbr_idx : ndarray
        Read-only CSR neighbour lists: the 0-based neighbours of the node at
        index ``i`` are ``nbr_idx[nbr_ptr[i]:nbr_ptr[i + 1]]``, sorted.
    edge_idx : ndarray
        Read-only ``(E, 2)`` array of ``edges`` made 0-based.
    """

    num_nodes: int
    edges: tuple[tuple[int, int], ...]
    degrees: np.ndarray = field(init=False, repr=False, compare=False)
    degree_col: np.ndarray = field(init=False, repr=False, compare=False)
    degree_col1: np.ndarray = field(init=False, repr=False, compare=False)
    nbr_ptr: np.ndarray = field(init=False, repr=False, compare=False)
    nbr_idx: np.ndarray = field(init=False, repr=False, compare=False)
    edge_idx: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n, seen = self.num_nodes, set()
        try:  # the readers' errors are graph errors too
            integer("the node count", n, 2)
            for e in self.edges:
                # a tuple, since edges are compared and hashed
                if not isinstance(e, tuple) or len(e) != 2:
                    raise GraphError(f"edge {e!r} is not a pair of node ids")
                i, j = (integer(f"a node id of edge {e}", v) for v in e)
                if not (1 <= i <= n and 1 <= j <= n):
                    raise GraphError(f"edge {e} references a node outside [1, {n}]")
                if i == j:
                    raise GraphError(f"self-loop at node {i}")
                if i > j:
                    raise GraphError(f"edge {e} not stored with smaller id first")
                if e in seen:
                    raise GraphError(f"duplicate edge {e}")
                seen.add(e)
        except ValueError as exc:
            raise GraphError(str(exc)) from None
        except TypeError:  # from the loop over edges that are no sequence
            raise GraphError(f"edges must be a tuple of pairs, got {self.edges!r}") from None
        # checked before the arrays of n entries, which a huge n would not fit
        if len(self.edges) < n - 1:
            raise GraphError(f"graph is disconnected; {len(self.edges)} edges leave nodes "
                             f"of its {n} unreachable")
        edge_idx = np.array(self.edges, dtype=np.int64).reshape(-1, 2) - 1
        src = np.concatenate([edge_idx[:, 0], edge_idx[:, 1]])
        dst = np.concatenate([edge_idx[:, 1], edge_idx[:, 0]])
        degrees = np.bincount(src, minlength=n)
        nbr_ptr = np.concatenate([[0], np.cumsum(degrees)])
        nbr_idx = dst[np.lexsort((dst, src))]
        col = degrees[:, None].astype(float)
        for name, arr in (("degrees", degrees), ("degree_col", col), ("degree_col1", col + 1.0),
                          ("nbr_ptr", nbr_ptr), ("nbr_idx", nbr_idx), ("edge_idx", edge_idx)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        # depth-first search from node 1, linear in the edge count
        ptr, idx = nbr_ptr.tolist(), nbr_idx.tolist()
        reached = np.zeros(n, dtype=bool)
        reached[0] = True
        stack = [0]
        while stack:
            u = stack.pop()
            for v in idx[ptr[u]:ptr[u + 1]]:
                if not reached[v]:
                    reached[v] = True
                    stack.append(v)
        if not reached.all():
            missing = (np.flatnonzero(~reached) + 1).tolist()
            raise GraphError(f"graph is disconnected; unreachable nodes {missing}")

    def neighbor_sum(self, x: np.ndarray) -> np.ndarray:
        """Row ``i`` sums the rows of ``x`` at the neighbours of the node at
        index ``i``."""
        return np.add.reduceat(x.take(self.nbr_idx, axis=0), self.nbr_ptr[:-1], axis=0)


def build_topology(kind: str, num_nodes: int, path: str | None = None) -> Graph:
    """Construct a named topology or load one from an edge file.

    Parameters
    ----------
    kind : {'star', 'clique', 'edge-file'}
        Star places node 1 at the center.
    num_nodes : int
        Ignored for ``'edge-file'`` (the file carries its own node count).
    path : str, optional
        Edge file path, required for ``'edge-file'`` and rejected for the
        other kinds.
    """
    if path is not None and kind != "edge-file":
        raise GraphError(f"an edge file goes with kind 'edge-file', not {kind!r}")
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
        try:
            i, j = map(int, text.split())  # a wrong token count fails the unpacking
        except ValueError as exc:
            raise GraphError(f"{path}: malformed edge line {text!r}") from exc
        edges.append((i, j))
    return Graph(n, tuple(edges))


def _check_stacked(g: Graph, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != g.num_nodes or x.shape[1] == 0:
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
    out = g.degree_col * x
    out -= g.neighbor_sum(x)
    return out


def laplacian_quadratic(g: Graph, x: np.ndarray) -> float:
    """Sum of squared disagreements ``sum_{(i,j) in E} ||x_i - x_j||^2``."""
    x = _check_stacked(g, x)
    d = x[g.edge_idx[:, 0]] - x[g.edge_idx[:, 1]]
    return float(np.sum(d * d))


def laplacian_dense(g: Graph) -> np.ndarray:
    """Dense ``N x N`` Laplacian; intended for tests and small eigensolves."""
    n = g.num_nodes
    omega = np.zeros((n, n))
    np.fill_diagonal(omega, g.degrees)
    i, j = g.edge_idx.T
    omega[i, j] = omega[j, i] = -1.0
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
    return float(np.max(g.degrees[g.edge_idx].sum(axis=1))), math.nan


def consensus_violation(g: Graph, x: np.ndarray) -> float:
    """Largest disagreement ``max over edges (i, j) of ||x_i - x_j||`` over
    ``sqrt(n)``: ``np.linalg.norm``'s row norms and ``np.max``, without their dispatch."""
    x = _check_stacked(g, x)
    d = x.take(g.edge_idx[:, 0], axis=0) - x.take(g.edge_idx[:, 1], axis=0)
    d *= d
    return float(np.maximum.reduce(np.sqrt(np.add.reduce(d, axis=1)))) / math.sqrt(x.shape[1])
