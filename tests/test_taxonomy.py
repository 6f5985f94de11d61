import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiertax.gradcheck import random_hierarchy
from hiertax.taxonomy import TaxonomyError, build_hierarchy, load_taxonomy, parse_taxonomy

from conftest import TAX_DIR


def test_minimal_tree():
    h = parse_taxonomy(b"root\tall\nall\tA\nall\tB\n")
    assert len(h) == 3
    assert h.height == 1
    assert sorted(h.nodes[v] for v in h.leaves) == ["A", "B"]


def test_degenerate_single_node():
    h = parse_taxonomy("root\tonly")
    assert len(h) == 1
    assert h.leaves == (0,)
    assert h.height == 0
    assert h.root_to_leaf_paths() == [[0]]


def test_pascal_person_part_fixture():
    h = load_taxonomy(f"{TAX_DIR}/pascal_person_part.tax")
    # 6 parts + background at the finest level; upper/lower body; full body.
    assert len(h) == 11
    assert h.height == 3
    assert len(h.leaves) == 7
    by_level = {}
    for v in range(len(h)):
        by_level.setdefault(h.level[v], []).append(h.nodes[v])
    assert sorted(by_level[2]) == ["lower-body", "upper-body"]
    assert by_level[3] == ["full-body"]


def test_mapillary_fixture_level_counts():
    h = load_taxonomy(f"{TAX_DIR}/mapillary_vistas.tax")
    counts = {}
    for v in range(len(h)):
        counts[h.level[v]] = counts.get(h.level[v], 0) + 1
    assert counts == {1: 124, 2: 16, 3: 4, 4: 1}


def test_cityscapes_fixture_level_counts():
    h = load_taxonomy(f"{TAX_DIR}/cityscapes.tax")
    counts = {}
    for v in range(len(h)):
        counts[h.level[v]] = counts.get(h.level[v], 0) + 1
    assert counts == {1: 19, 2: 6, 3: 1}


@pytest.mark.parametrize(
    "text,match",
    [
        (b"", "empty"),
        (b"root\ta\nroot\tb\n", "multiple root"),
        (b"root\ta\na\tb\na\tb\n", "duplicate edge"),
        (b"root\ta\na\tb\nc\tb\n", "duplicate node"),
        (b"root\ta\nb\tc\n", "dangling|not connected"),
        (b"root\ta\na\ta2\na2\ta\n", "root, cannot have a parent|duplicate"),
        (b"justoneword\n", "two tab-separated"),
    ],
)
def test_parse_errors(text, match):
    with pytest.raises(TaxonomyError, match=match):
        parse_taxonomy(text)


def test_ancestors_descendants(tiny):
    assert tiny.ancestors(0) == {0}
    assert tiny.ancestors(3) == {3, 1, 0}
    assert tiny.ancestors(1) == {1, 0}
    assert tiny.descendants(3) == {3}
    assert tiny.descendants(1) == {1, 3, 4}
    assert tiny.descendants(0) == set(range(5))
    with pytest.raises(TaxonomyError):
        tiny.ancestors(99)


def test_tree_distance(tiny):
    for v in range(5):
        assert tiny.tree_distance(v, v) == 0
    assert tiny.tree_distance(3, 4) == 2
    assert tiny.tree_distance(3, 2) == 3
    with pytest.raises(TaxonomyError):
        tiny.tree_distance(0, 99)


def test_root_to_leaf_paths():
    # leaf order follows first appearance in the file
    h = parse_taxonomy(b"root\tr\nr\tA\nA\ta1\nA\ta2\nr\tB\n")
    paths = [[h.nodes[v] for v in p] for p in h.root_to_leaf_paths()]
    assert paths == [["a1", "A", "r"], ["a2", "A", "r"], ["B", "r"]]
    assert len(h.root_to_leaf_paths()) == len(h.leaves)


def _bfs_dist(h):
    g = nx.Graph()
    g.add_nodes_from(range(len(h)))
    g.add_edges_from((v, h.parent[v]) for v in range(len(h)) if h.parent[v] != -1)
    lengths = dict(nx.all_pairs_shortest_path_length(g))
    out = np.zeros((len(h), len(h)), dtype=np.int64)
    for u, row in lengths.items():
        for v, d in row.items():
            out[u, v] = d
    return out


@pytest.mark.parametrize("seed", range(10))
def test_dist_matrix_matches_bfs_oracle(seed):
    rng = np.random.default_rng(seed)
    h = random_hierarchy(rng, int(rng.integers(2, 201)))
    bfs = _bfs_dist(h)
    assert np.array_equal(h.dist, bfs)
    assert np.array_equal(h.dist, h.dist.T)
    assert np.all(np.diag(h.dist) == 0)


@pytest.mark.parametrize("seed", range(5))
def test_structure_invariants(seed):
    rng = np.random.default_rng(100 + seed)
    h = random_hierarchy(rng, int(rng.integers(1, 80)))
    for v in range(len(h)):
        assert len(h.ancestors(v)) == h.tree_distance(v, h.root) + 1
        assert h.ancestors(v) & h.descendants(v) == {v}
    covered = set()
    for path in h.root_to_leaf_paths():
        covered.update(path)
    assert covered == set(range(len(h)))


def test_triangle_inequality(tiny):
    n = len(tiny)
    for u, v, w in itertools.product(range(n), repeat=3):
        assert tiny.dist[u, w] <= tiny.dist[u, v] + tiny.dist[v, w]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(1, 60))
def test_leaf_index_and_level_targets_match_chain_walks(seed, n_nodes):
    h = random_hierarchy(np.random.default_rng(seed), n_nodes)
    want_index = [h.leaves.index(v) if h.is_leaf(v) else -1 for v in range(len(h))]
    assert h.leaf_index.tolist() == want_index
    assert h.level_targets.shape == (h.height + 1, len(h))
    for level in range(1, h.height + 2):
        for v in range(len(h)):
            target = v
            for u in h.ancestor_chain(v):
                if h.level[u] > level:
                    break
                target = u
            assert h.level_targets[level - 1, v] == target
    for v in range(len(h)):
        assert set(np.flatnonzero(h.ancestor_mask[v]).tolist()) == h.ancestors(v)
    tables = [h.dist, h.ancestor_mask, h.leaf_index, h.level_targets]
    tables += [a for group in h.top_down + h.bottom_up for a in group]
    assert all(not a.flags.writeable for a in tables)


def test_equality_and_hash_follow_the_defining_fields():
    a = build_hierarchy(["r", "a", "b"], [-1, 0, 0])
    b = build_hierarchy(["r", "a", "b"], [-1, 0, 0])
    assert a == b
    assert hash(a) == hash(b)
    assert a != build_hierarchy(["r", "a", "b"], [-1, 0, 1])
    assert {a: "tree"}[b] == "tree"
