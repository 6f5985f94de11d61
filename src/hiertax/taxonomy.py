"""Tree-shaped class hierarchies: parsing, validation, and structural queries.

Node ids are dense integers assigned in file order; names only appear at the
I/O boundary. Levels run from 1 at the leaves up to ``height + 1`` at the
root; in unbalanced trees a node's level is one plus the longest edge
distance to any leaf below it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class TaxonomyError(ValueError):
    """Invalid taxonomy file or malformed hierarchy structure."""


@dataclass(frozen=True)
class ClassHierarchy:
    """Immutable rooted tree over class names.

    ``build_hierarchy`` computes every structural table once (the ancestor
    mask, tree distances, the batch kernels' arrays); arrays are read-only,
    so the object is safe for concurrent shared reads. ``ancestor_mask`` is
    the only stored form of the ancestor relation. Equality and hashing
    follow the defining fields; the tables derive from them.
    """

    nodes: tuple[str, ...]
    parent: tuple[int, ...]          # -1 for the root
    children: tuple[tuple[int, ...], ...]
    root: int
    leaves: tuple[int, ...]
    level: tuple[int, ...]
    height: int
    dist: np.ndarray = field(repr=False, compare=False)  # |V| x |V| tree distances in edges
    # Per depth 1, 2, ...: (nodes at that depth, their parents).
    top_down: tuple[tuple[np.ndarray, np.ndarray], ...] = field(repr=False, compare=False)
    # Per depth, deepest first: (kids, starts, parents, group, fan). ``kids``
    # are the nodes at that depth sorted by parent, ``starts`` the
    # ``reduceat`` offset of each parent's run of kids, ``parents`` the
    # parent of each run, ``group`` the run index of each kid and ``fan``
    # (an int) the length every run shares, or 0 when run lengths differ.
    bottom_up: tuple[tuple, ...] = field(repr=False, compare=False)
    # |V| x |V| bool; ancestor_mask[v, u] is True when u is on v's chain
    # (v included), so row ``leaf`` is the leaf's label expansion.
    ancestor_mask: np.ndarray = field(repr=False, compare=False)
    # Each node's position in ``leaves``; -1 for internal nodes.
    leaf_index: np.ndarray = field(repr=False, compare=False)
    # (height + 1, |V|); row ``L - 1`` maps each node to its highest ancestor
    # of level <= L, or to itself when its own level exceeds L.
    level_targets: np.ndarray = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.nodes)

    def _check_id(self, v: int) -> None:
        if not 0 <= v < len(self.nodes):
            raise TaxonomyError(f"node id {v} out of range [0, {len(self.nodes)})")

    def is_leaf(self, v: int) -> bool:
        self._check_id(v)
        return len(self.children[v]) == 0

    def ancestors(self, v: int) -> frozenset[int]:
        """All nodes on the path from v to the root, v included."""
        self._check_id(v)
        return frozenset(np.flatnonzero(self.ancestor_mask[v]).tolist())

    def ancestor_chain(self, v: int) -> tuple[int, ...]:
        """Path v -> root as an ordered tuple, v first."""
        self._check_id(v)
        chain = [v]
        while self.parent[chain[-1]] != -1:
            chain.append(self.parent[chain[-1]])
        return tuple(chain)

    def descendants(self, v: int) -> frozenset[int]:
        """All nodes in the subtree rooted at v, v included."""
        self._check_id(v)
        return frozenset(np.flatnonzero(self.ancestor_mask[:, v]).tolist())

    def tree_distance(self, u: int, v: int) -> int:
        """Shortest-path length between u and v, counted in edges."""
        self._check_id(u)
        self._check_id(v)
        return int(self.dist[u, v])

    def leaf_positions(self, ids: np.ndarray) -> np.ndarray:
        """Positions of the label ``ids`` in ``leaves``, the one leaf check: raises
        ``ValueError`` naming the first id, row-major, that is not a leaf."""
        ids = np.asarray(ids)
        if not ids.size or (ids.min() >= 0 and ids.max() < len(self)):
            pos = self.leaf_index[ids]
            if not pos.size or pos.min() >= 0:
                return pos
        bad = next(
            v for v in ids.ravel().tolist() if not 0 <= v < len(self) or self.leaf_index[v] < 0
        )
        raise ValueError(f"label id {bad} is not a leaf of the hierarchy")

    def root_to_leaf_paths(self) -> list[list[int]]:
        """One path per leaf, ordered leaf first, root last; leaf id order."""
        return [list(self.ancestor_chain(leaf)) for leaf in self.leaves]


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def build_hierarchy(names: list[str], parent: list[int]) -> ClassHierarchy:
    """Assemble and validate a ClassHierarchy from parallel name/parent lists.

    This is the only place that builds the hierarchy's structural tables.
    """
    n = len(names)
    if n == 0:
        raise TaxonomyError("empty hierarchy")
    if len(set(names)) != n:
        raise TaxonomyError("duplicate node name")
    roots = [v for v in range(n) if parent[v] == -1]
    if len(roots) != 1:
        raise TaxonomyError(f"expected exactly one root, found {len(roots)}")
    root = roots[0]

    children: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        p = parent[v]
        if p == -1:
            continue
        if not 0 <= p < n:
            raise TaxonomyError(f"dangling parent reference for node {names[v]!r}")
        children[p].append(v)

    # Depth-first from the root doubles as cycle/connectivity validation.
    depth = [-1] * n
    stack = [(root, 0)]
    seen = 0
    while stack:
        v, d = stack.pop()
        if depth[v] != -1:
            raise TaxonomyError("cycle detected")
        depth[v] = d
        seen += 1
        for c in children[v]:
            stack.append((c, d + 1))
    if seen != n:
        raise TaxonomyError("hierarchy is not connected (cycle or orphan subtree)")

    leaves = tuple(v for v in range(n) if not children[v])

    # Deepest first, each node's level (1 + longest edge distance to a
    # descendant leaf) is final before its parent reads it.
    level = [1] * n
    for v in sorted(range(n), key=lambda v: -depth[v]):
        if children[v]:
            level[v] = 1 + max(level[c] for c in children[v])
    height = level[root] - 1

    # Tables for the array kernels: nodes per depth with their parents, and
    # per depth the kids grouped by parent for np.<ufunc>.reduceat, or for
    # a (runs, fan, B) reshape when every run has the same length.
    depth_arr = np.array(depth, dtype=np.int64)
    parent_arr = np.array(parent, dtype=np.int64)
    top_down = []
    bottom_up = []
    for d in range(1, int(depth_arr.max()) + 1):
        nodes = np.flatnonzero(depth_arr == d)
        top_down.append(_frozen(nodes, parent_arr[nodes]))
        kids = nodes[np.argsort(parent_arr[nodes], kind="stable")]
        first = np.ones(kids.size, dtype=bool)
        first[1:] = parent_arr[kids[1:]] != parent_arr[kids[:-1]]
        starts = np.flatnonzero(first)
        runs = np.diff(starts, append=kids.size)
        fan = int(runs[0]) if (runs == runs[0]).all() else 0
        step = _frozen(kids, starts, parent_arr[kids[starts]], np.cumsum(first) - 1)
        bottom_up.append((*step, fan))

    # anc[v, u]: u is on v's chain. Its transpose marks each node's subtree,
    # so it must be complete before the distance pass reads deeper rows:
    # dist(v, u) = dist(parent v, u) + 1, minus 2 when u lies below v.
    anc = np.eye(n, dtype=bool)
    for nodes, parents in top_down:
        anc[nodes] |= anc[parents]
    dist = np.empty((n, n), dtype=np.int64)
    dist[root] = depth_arr
    for nodes, parents in top_down:
        dist[nodes] = dist[parents] + 1 - 2 * anc.T[nodes]

    leaf_index = np.full(n, -1, dtype=np.int64)
    leaf_index[list(leaves)] = np.arange(len(leaves))

    # Top-down: a node inherits its parent's target while the parent's level
    # is within bounds, and is its own target otherwise.
    level_arr = np.array(level, dtype=np.int64)
    bound = np.arange(1, height + 2)[:, None]
    level_targets = np.tile(np.arange(n), (height + 1, 1))
    for nodes, parents in top_down:
        level_targets[:, nodes] = np.where(
            level_arr[parents] <= bound, level_targets[:, parents], nodes
        )

    _frozen(dist, anc, leaf_index, level_targets)
    return ClassHierarchy(
        nodes=tuple(names),
        parent=tuple(parent),
        children=tuple(tuple(c) for c in children),
        root=root,
        leaves=leaves,
        level=tuple(level),
        height=height,
        dist=dist,
        top_down=tuple(top_down),
        bottom_up=tuple(reversed(bottom_up)),
        ancestor_mask=anc,
        leaf_index=leaf_index,
        level_targets=level_targets,
    )


def parse_taxonomy(text: str | bytes) -> ClassHierarchy:
    """Parse the line-oriented taxonomy format.

    First non-comment line is ``root<TAB>name``; every following line is
    ``parent<TAB>child``. Comments start with ``#``. Node ids follow first
    appearance order.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    names: list[str] = []
    index: dict[str, int] = {}
    parent: list[int] = []  # -1 root, -2 not yet assigned
    seen_edges: set[tuple[str, str]] = set()
    root_name: str | None = None

    def intern(name: str) -> int:
        if name not in index:
            index[name] = len(names)
            names.append(name)
            parent.append(-2)
        return index[name]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise TaxonomyError(f"line {lineno}: expected two tab-separated fields")
        left, right = parts[0].strip(), parts[1].strip()
        if not left or not right:
            raise TaxonomyError(f"line {lineno}: empty field")
        if root_name is None:
            if left != "root":
                raise TaxonomyError(f"line {lineno}: first line must declare 'root<TAB>name'")
            root_name = right
            parent[intern(right)] = -1
            continue
        if left == "root":
            raise TaxonomyError(f"line {lineno}: multiple root declarations")
        if (left, right) in seen_edges:
            raise TaxonomyError(f"line {lineno}: duplicate edge {left!r} -> {right!r}")
        seen_edges.add((left, right))
        p = intern(left)
        c = intern(right)
        if parent[c] == -1:
            raise TaxonomyError(f"line {lineno}: node {right!r} is the root, cannot have a parent")
        if parent[c] != -2:
            raise TaxonomyError(f"line {lineno}: duplicate node name {right!r} (second parent)")
        parent[c] = p

    if root_name is None:
        raise TaxonomyError("empty file: no root declaration")
    for v, p in enumerate(parent):
        if p == -2:
            raise TaxonomyError(f"dangling parent reference: {names[v]!r} never attached to the tree")
    return build_hierarchy(names, parent)


def load_taxonomy(path) -> ClassHierarchy:
    with open(path, "rb") as f:
        return parse_taxonomy(f.read())
