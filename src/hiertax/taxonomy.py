"""Tree-shaped class hierarchies: parsing, validation, and structural queries.

Node ids are dense integers assigned in file order; names only appear at the
I/O boundary. Levels run from 1 at the leaves up to ``height + 1`` at the
root; in unbalanced trees a node's level is one plus the longest edge
distance to any leaf below it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class TaxonomyError(ValueError):
    """Invalid taxonomy file or malformed hierarchy structure."""


@dataclass(frozen=True)
class ClassHierarchy:
    """Immutable rooted tree over class names.

    All structural queries (ancestor/descendant sets, pairwise tree
    distances, root-to-leaf paths) are precomputed at construction, so the
    object is safe for concurrent shared reads.
    """

    nodes: tuple[str, ...]
    parent: tuple[int, ...]          # -1 for the root
    children: tuple[tuple[int, ...], ...]
    root: int
    leaves: tuple[int, ...]
    level: tuple[int, ...]
    height: int
    dist: np.ndarray                 # |V| x |V| tree distances in edges

    def __post_init__(self):
        self.dist.setflags(write=False)

    def __len__(self) -> int:
        return len(self.nodes)

    def _check_id(self, v: int) -> None:
        if not 0 <= v < len(self.nodes):
            raise TaxonomyError(f"node id {v} out of range [0, {len(self.nodes)})")

    def name_to_id(self, name: str) -> int:
        try:
            return self.nodes.index(name)
        except ValueError:
            raise TaxonomyError(f"unknown class name {name!r}") from None

    def is_leaf(self, v: int) -> bool:
        self._check_id(v)
        return len(self.children[v]) == 0

    def ancestors(self, v: int) -> frozenset[int]:
        """All nodes on the path from v to the root, v included."""
        self._check_id(v)
        return self._ancestor_sets[v]

    def ancestor_chain(self, v: int) -> tuple[int, ...]:
        """Path v -> root as an ordered tuple, v first."""
        self._check_id(v)
        return self._chains[v]

    def descendants(self, v: int) -> frozenset[int]:
        """All nodes in the subtree rooted at v, v included."""
        self._check_id(v)
        return self._descendant_sets[v]

    def tree_distance(self, u: int, v: int) -> int:
        """Shortest-path length between u and v, counted in edges."""
        self._check_id(u)
        self._check_id(v)
        return int(self.dist[u, v])

    def root_to_leaf_paths(self) -> list[list[int]]:
        """One path per leaf, ordered leaf first, root last; leaf id order."""
        return [list(self._chains[leaf]) for leaf in self.leaves]

    @property
    def _chains(self) -> tuple[tuple[int, ...], ...]:
        return object.__getattribute__(self, "_chains_cache")

    @property
    def _ancestor_sets(self) -> tuple[frozenset[int], ...]:
        return object.__getattribute__(self, "_ancestor_cache")

    @property
    def _descendant_sets(self) -> tuple[frozenset[int], ...]:
        return object.__getattribute__(self, "_descendant_cache")

    @property
    def top_down(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per depth 1, 2, ...: (nodes at that depth, their parents)."""
        return object.__getattribute__(self, "_top_down_cache")

    @property
    def bottom_up(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]:
        """Per depth, deepest first: (kids, starts, parents, group).

        ``kids`` are the nodes at that depth sorted by parent, ``starts``
        the ``reduceat`` offset of each parent's run of kids, ``parents``
        the parent of each run and ``group`` the run index of each kid.
        """
        return object.__getattribute__(self, "_bottom_up_cache")

    @property
    def leaf_chain_mask(self) -> np.ndarray:
        """|V| x |V| bool; row ``leaf`` marks the leaf's ancestor chain.

        Rows of internal nodes are all False.
        """
        return object.__getattribute__(self, "_chain_mask_cache")


def _finalize(h: ClassHierarchy) -> ClassHierarchy:
    # Precompute ancestor chains and descendant sets once; the dataclass is
    # frozen so caches are attached via object.__setattr__.
    chains = []
    for v in range(len(h.nodes)):
        chain = [v]
        while h.parent[chain[-1]] != -1:
            chain.append(h.parent[chain[-1]])
        chains.append(tuple(chain))
    desc: list[set[int]] = [{v} for v in range(len(h.nodes))]
    for v in sorted(range(len(h.nodes)), key=lambda v: -len(chains[v])):
        if h.parent[v] != -1:
            desc[h.parent[v]].update(desc[v])
    object.__setattr__(h, "_chains_cache", tuple(chains))
    object.__setattr__(h, "_ancestor_cache", tuple(frozenset(c) for c in chains))
    object.__setattr__(h, "_descendant_cache", tuple(frozenset(d) for d in desc))

    # Tables for the array kernels: nodes per depth with their parents, and
    # per depth the kids grouped by parent for np.<ufunc>.reduceat.
    n = len(h.nodes)
    depth = np.array([len(c) - 1 for c in chains], dtype=np.int64)
    parent = np.array(h.parent, dtype=np.int64)
    top_down = []
    bottom_up = []
    for d in range(1, int(depth.max()) + 1):
        nodes = np.flatnonzero(depth == d)
        top_down.append(_frozen(nodes, parent[nodes]))
        kids = nodes[np.argsort(parent[nodes], kind="stable")]
        first = np.ones(kids.size, dtype=bool)
        first[1:] = parent[kids[1:]] != parent[kids[:-1]]
        starts = np.flatnonzero(first)
        bottom_up.append(_frozen(kids, starts, parent[kids[starts]], np.cumsum(first) - 1))
    chain_mask = np.eye(n, dtype=bool)
    for nodes, parents in top_down:
        chain_mask[nodes] |= chain_mask[parents]
    chain_mask[[v for v in range(n) if h.children[v]]] = False
    object.__setattr__(h, "_top_down_cache", tuple(top_down))
    object.__setattr__(h, "_bottom_up_cache", tuple(reversed(bottom_up)))
    object.__setattr__(h, "_chain_mask_cache", _frozen(chain_mask)[0])
    return h


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def build_hierarchy(names: list[str], parent: list[int]) -> ClassHierarchy:
    """Assemble and validate a ClassHierarchy from parallel name/parent lists."""
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

    # level = 1 + longest edge distance to a descendant leaf
    level = [0] * n
    for v in sorted(range(n), key=lambda v: -depth[v]):
        level[v] = 1 if not children[v] else 1 + max(level[c] for c in children[v])
    height = level[root] - 1

    # dist(u, v) = depth(u) + depth(v) - 2 depth(lca); the common ancestors
    # of u and v are exactly the lca's chain, so their count is depth(lca)+1
    # and one boolean matmul yields all pairs at once.
    anc = np.zeros((n, n), dtype=np.int64)
    for v in range(n):
        u = v
        anc[v, u] = 1
        while parent[u] != -1:
            u = parent[u]
            anc[v, u] = 1
    lca_depth = anc @ anc.T - 1
    depth_arr = np.array(depth, dtype=np.int64)
    dist = depth_arr[:, None] + depth_arr[None, :] - 2 * lca_depth

    h = ClassHierarchy(
        nodes=tuple(names),
        parent=tuple(parent),
        children=tuple(tuple(c) for c in children),
        root=root,
        leaves=leaves,
        level=tuple(level),
        height=height,
        dist=dist,
    )
    return _finalize(h)


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
