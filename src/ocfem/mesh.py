"""Nested structured triangulations of the unit square.

Conventions
-----------
* Triangles are stored as counterclockwise vertex-index triples.
* The structured builder splits every subsquare along the same diagonal
  (lower-left to upper-right) so that dyadic refinement is nested.
* Vertices of the structured mesh are numbered lexicographically by
  (row, column), row being the x2-index.
* ``refine`` keeps parent vertex ``v`` at index ``v`` and emits the four
  children of parent triangle ``t`` at indices ``4*t .. 4*t+3``, child 3
  being the middle one, with its parent's barycenter.  The refined mesh
  records its ``parent`` and the two parent vertices of each new midpoint
  (``midpoints``).  Prolongation in ``fem``, point location and the
  study's sampling of the finest level by index rely on this layout.
* The P1 sparsity pattern, built on first use, is the one edge table:
  its entries above the diagonal are the edges, sorted by vertex pair.

Meshes are immutable after construction (the backing arrays are marked
read-only) and safe to share between threads.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import MeshError, MeshSizeError

_INDEX_DTYPE = np.int32


class Mesh:
    """Conforming triangulation of a convex polygon.

    Parameters
    ----------
    vertices : (nv, 2) float array
        Vertex coordinates.
    triangles : (nt, 3) int array
        Counterclockwise vertex-index triples; the boundary is not stored.
    level : int
        Refinement level ``j >= 0``.

    Attributes
    ----------
    h : float
        Longest triangle diameter.
    areas : (nt,) array
        Signed triangle areas (validated positive).
    parent : Mesh or None
        Mesh this one was refined from, if any.
    midpoints : (ne, 2) int array or None
        The two parent vertices of each new midpoint, vertex
        ``parent.num_vertices + k`` for row ``k``; None on a root mesh.
    """

    @np.errstate(over="ignore", invalid="ignore")  # MeshError, no warning
    def __init__(self, vertices, triangles, level,
                 _structure=None, _parent=None, _midpoints=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=_INDEX_DTYPE)
        self.level = int(level)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must have shape (nv, 2)")
        if not np.all(np.isfinite(self.vertices)):
            raise MeshError("vertex coordinates must be finite")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must have shape (nt, 3)")
        if self.triangles.size and (self.triangles.min() < 0 or
                                    self.triangles.max() >= len(self.vertices)):
            raise MeshError("triangle index outside the vertex range")

        p = self.vertices[self.triangles]          # (nt, 3, 2)
        e01 = p[:, 1] - p[:, 0]
        e02 = p[:, 2] - p[:, 0]
        self.areas = 0.5 * (e01[:, 0] * e02[:, 1] - e01[:, 1] * e02[:, 0])
        if np.any(self.areas <= 0.0):
            raise MeshError("all triangles must have positive signed area")
        edges = p - np.roll(p, 1, axis=1)
        self.h = float(np.sqrt(np.max(np.sum(edges ** 2, axis=2))))
        # |gradient| = |edge| / 2|T| by component: inf where the largest is.
        steep = np.max(np.abs(edges), axis=(1, 2)) / (2.0 * self.areas)
        # Finite coordinates can still overflow an area, a gradient or h.
        if not all(np.all(np.isfinite(arr))
                   for arr in (self.areas, steep, self.h)):
            raise MeshError("triangle areas, gradients and diameters must "
                            "be finite")

        self._structure = _structure
        self.parent = _parent
        self.midpoints = None if _midpoints is None else \
            np.ascontiguousarray(_midpoints, dtype=_INDEX_DTYPE)
        for arr in (self.vertices, self.triangles, self.areas, self.midpoints):
            if arr is not None:
                arr.setflags(write=False)

    def gradients(self, tri_idx=slice(None)) -> np.ndarray:
        """Barycentric gradients of the triangles ``tri_idx``, (..., 3, 2)."""
        p = self.vertices[self.triangles[tri_idx]]
        # grad(lambda_i) = perp(opposite edge) / (2A), perp(d) = (-d_y, d_x)
        opp = p[..., [2, 0, 1], :] - p[..., [1, 2, 0], :]
        grads = np.stack([-opp[..., 1], opp[..., 0]], axis=-1)
        grads /= (2.0 * self.areas[tri_idx])[..., None, None]
        return grads

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @cached_property
    def pattern(self):
        """Read-only CSR ``(indptr, indices)`` of the P1 couplings and the
        position in ``indices`` of each of the 9 nt local entries, in the
        row-major order of the local (nt, 3, 3) matrices, in index dtype."""
        nv = self.num_vertices
        rows = np.repeat(self.triangles, 3, axis=1).ravel()
        cols = np.tile(self.triangles, (1, 3)).ravel()
        # COO to CSR sums duplicates without a sort; its keys come sorted.
        csr = sp.csr_matrix((np.ones(len(rows), np.int8), (rows, cols)),
                            shape=(nv, nv))
        keys = np.repeat(np.arange(nv, dtype=np.int64) * nv,
                         np.diff(csr.indptr)) + csr.indices
        position = np.searchsorted(keys, rows.astype(np.int64) * nv + cols)
        pattern = csr.indptr, csr.indices, position.astype(csr.indices.dtype)
        for arr in pattern:
            arr.setflags(write=False)
        return pattern

    def edges(self):
        """The pattern's entries above the diagonal as vertex pairs (ne, 2),
        the number of triangles on each (ne,), and the rows of each
        triangle's edges (a, b), (b, c), (c, a) (nt, 3)."""
        indptr, indices, slot = self.pattern
        rows = np.repeat(np.arange(self.num_vertices, dtype=indices.dtype),
                         np.diff(indptr))
        upper = rows < indices
        rank = np.cumsum(upper, dtype=indices.dtype) - 1
        # Of an edge's entries (i, j) and (j, i), the upper one comes first.
        local, i, j = slot.reshape(-1, 3, 3), [0, 1, 2], [1, 2, 0]
        triangle_edges = rank[np.minimum(local[:, i, j], local[:, j, i])]
        return (np.column_stack([rows[upper], indices[upper]]),
                np.bincount(slot)[upper], triangle_edges)

    def validate(self) -> None:
        """Raise MeshError if an edge is shared by more than two triangles."""
        if np.any(self.edges()[1] > 2):
            raise MeshError("non-conforming: an edge is shared by >2 triangles")


def check_level(level: int) -> None:
    """Refuse a unit-square level whose ``(2**level+1)**2`` vertices the
    index type cannot number (``MeshSizeError``), or a negative one."""
    if level < 0:
        raise MeshError("level must be >= 0")
    index = np.iinfo(_INDEX_DTYPE)
    if level >= index.bits or ((1 << level) + 1) ** 2 > index.max:
        raise MeshSizeError(f"level {level} overflows the vertex index type")


def build_unit_square_mesh(level: int) -> Mesh:
    """Structured right-triangle mesh of (0,1)^2 at a dyadic level.

    Each of the ``4**level`` subsquares is split along its lower-left to
    upper-right diagonal, giving ``(2**level+1)**2`` vertices,
    ``2*4**level`` triangles and ``h = 2**-level * sqrt(2)``.
    """
    check_level(level)
    n = 1 << level
    coords = np.arange(n + 1, dtype=float) / n
    xx, yy = np.meshgrid(coords, coords)            # row-major: row = x2-index
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    r, c = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    r, c = r.ravel(), c.ravel()
    ll = r * (n + 1) + c
    lr = ll + 1
    ul = ll + (n + 1)
    ur = ul + 1
    triangles = np.empty((2 * n * n, 3), dtype=_INDEX_DTYPE)
    triangles[0::2] = np.column_stack([ll, lr, ur])
    triangles[1::2] = np.column_stack([ll, ur, ul])
    return Mesh(vertices, triangles, level, _structure=("unit_square", n))


def refine(mesh: Mesh) -> Mesh:
    """Red refinement: split every triangle into 4 congruent children.

    Parent vertex ``v`` keeps index ``v``; the midpoints of the parent's
    edges follow in edge-table order.  Parent triangle ``t`` ``[a, b, c]``
    has the children ``[a, m01, m20]``, ``[m01, b, m12]``,
    ``[m20, m12, c]`` and the middle ``[m01, m12, m20]`` at ``4t..4t+3``;
    the middle child has its parent's barycenter.  Prolongation and the
    study's samples of the finest level on coarser ones rely on both facts.
    The child's ``parent`` is ``mesh`` and its ``midpoints`` are the
    parent's edges, the two parent vertices of each midpoint.
    """
    nv, nt = mesh.num_vertices, mesh.num_triangles
    index_max = np.iinfo(_INDEX_DTYPE).max
    if 4 * nt - 1 > index_max or nv + 3 * nt > index_max:
        raise MeshSizeError("refined mesh overflows the vertex index type")
    pairs, _, triangle_edges = mesh.edges()

    vertices = np.concatenate([
        mesh.vertices,
        0.5 * (mesh.vertices[pairs[:, 0]] + mesh.vertices[pairs[:, 1]]),
    ])
    a, b, c = mesh.triangles.T
    m01, m12, m20 = nv + triangle_edges.T
    children = np.empty((4 * nt, 3), dtype=_INDEX_DTYPE)
    children[0::4] = np.column_stack([a, m01, m20])
    children[1::4] = np.column_stack([m01, b, m12])
    children[2::4] = np.column_stack([m20, m12, c])
    children[3::4] = np.column_stack([m01, m12, m20])
    return Mesh(vertices, children, mesh.level + 1,
                _parent=mesh, _midpoints=pairs)


def barycenters(mesh: Mesh) -> np.ndarray:
    """Per-triangle arithmetic mean of the three vertices, shape (nt, 2)."""
    return mesh.vertices[mesh.triangles].mean(axis=1)


def barycentric_coordinates(mesh: Mesh, tri_idx, points) -> np.ndarray:
    """Barycentric coordinates of ``points`` w.r.t. the given triangles.

    ``tri_idx`` and ``points`` broadcast along the leading axis; the result
    has shape ``(..., 3)`` and rows sum to one.  Coordinates may be negative
    for points outside their triangle.
    """
    tri_idx = np.asarray(tri_idx, dtype=np.int64)
    points = np.asarray(points, dtype=float)
    p0 = mesh.vertices[mesh.triangles[tri_idx, 0]]
    g = mesh.gradients(tri_idx)                      # (..., 3, 2)
    d = points - p0
    lam = np.einsum("...ij,...j->...i", g, d)
    lam[..., 0] += 1.0
    return lam


def locate(mesh: Mesh, points) -> np.ndarray:
    """Index of a triangle containing each point.

    Works for meshes with a structured unit-square ancestor: the root is
    located arithmetically and the refinement chain is descended through
    the 4-children-per-parent layout.  Points on shared edges resolve to
    the most interior candidate (deterministic).
    """
    points = np.asarray(points, dtype=float)
    squeeze = points.ndim == 1
    pts = np.atleast_2d(points)

    chain = []
    node = mesh
    while node._structure is None:
        if node.parent is None:
            raise MeshError("point location requires a structured ancestor")
        chain.append(node)
        node = node.parent
    n = node._structure[1]

    ij = np.clip(np.floor(pts * n).astype(np.int64), 0, n - 1)
    frac = pts * n - ij
    lower = frac[:, 0] >= frac[:, 1]
    t = 2 * (ij[:, 1] * n + ij[:, 0]) + np.where(lower, 0, 1)

    for child_mesh in reversed(chain):
        best = 4 * t
        best_q = barycentric_coordinates(child_mesh, best, pts).min(axis=1)
        for k in (1, 2, 3):
            cand = 4 * t + k
            q = barycentric_coordinates(child_mesh, cand, pts).min(axis=1)
            take = q > best_q
            best = np.where(take, cand, best)
            best_q = np.where(take, q, best_q)
        t = best
    return t[0] if squeeze else t
