import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpgait import graph
from gpgait.errors import ConfigError


class TestAdjacencySubsets:
    def test_first_subset_is_identity(self):
        subsets = graph.build_adjacency_subsets()
        np.testing.assert_array_equal(subsets[0], np.eye(17))

    def test_unnormalized_partition_property(self):
        # rebuild the unnormalized subsets from the normalized ones by
        # restoring column sums, then compare against I + A
        subsets = graph.build_adjacency_subsets()
        binarized = (subsets > 0).astype(float)
        total = binarized.sum(axis=0)
        expect = np.eye(17)
        for a, b in graph.EDGES:
            expect[a, b] = expect[b, a] = 1.0
        np.testing.assert_array_equal(total, expect)

    def test_column_normalization(self):
        subsets = graph.build_adjacency_subsets()
        for k in range(3):
            colsums = subsets[k].sum(axis=0)
            nz = colsums > 0
            np.testing.assert_allclose(colsums[nz], 1.0, atol=1e-12)

    def test_wrist_elbow_orientation(self):
        # joint 9 (wrist) sits farther from the barycenter than its
        # neighbor 7 (elbow): edge contribution 9->7 is centrifugal,
        # 7->9 is centripetal
        bary = graph.CANONICAL_POSE.mean(axis=0)
        d = np.linalg.norm(graph.CANONICAL_POSE - bary, axis=1)
        assert d[9] > d[7]
        subsets = graph.build_adjacency_subsets()
        centripetal, centrifugal = subsets[1], subsets[2]
        assert centrifugal[9, 7] > 0 and centripetal[9, 7] == 0
        assert centripetal[7, 9] > 0 and centrifugal[7, 9] == 0

    def test_nonnegative(self):
        assert (graph.build_adjacency_subsets() >= 0).all()


class TestPartitionMasks:
    def test_parts5_entries(self):
        m = graph.mask_set()["parts5"]
        assert m[5, 7] == 1.0   # both left arm
        assert m[5, 16] == 0.0  # left arm vs right leg

    def test_global_all_ones(self):
        m = graph.mask_set()["global"]
        assert m.sum() == 17 * 17

    def test_left_right_arm_leg(self):
        m = graph.mask_set()["left_right"]
        assert m[7, 13] == 1.0  # left arm with left leg
        assert m[8, 13] == 0.0

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ConfigError, match="scheme 'bad': joints \\[1\\] in multiple"):
            graph.mask_set((("bad", ((0, 1), (1, 2), tuple(range(3, 17)))),))

    def test_non_covering_rejected(self):
        with pytest.raises(ConfigError, match="uncovered"):
            graph.mask_set((("bad", ((0, 1, 2),)),))
        # a built-in scheme's groups are checked as an override's are
        with pytest.raises(ConfigError, match="scheme 'parts5'.*uncovered"):
            graph.mask_set((("parts5", ((0, 1, 2),)),), partitioned=False)

    @pytest.mark.parametrize("joint", [17, -1])
    def test_out_of_range_joint_named(self, joint):
        """Every joint covered plus one index outside 0-16: the message
        names that index (it used to read "joints [] uncovered")."""
        with pytest.raises(ConfigError, match=f"scheme 'global': joint indices "
                                              f"\\[{joint}\\] outside 0-16"):
            graph.mask_set((("global", (tuple(range(17)), (joint,))),))

    @pytest.mark.parametrize("name", sorted(graph.PARTITION_SCHEMES))
    def test_equivalence_relation(self, name):
        """Brute force: M is the indicator of 'same group'."""
        m = graph.mask_set()[name]
        group_of = {}
        for gi, g in enumerate(graph.PARTITION_SCHEMES[name]):
            for j in g:
                group_of[j] = gi
        for i in range(17):
            for j in range(17):
                expect = 1.0 if group_of[i] == group_of[j] else 0.0
                assert m[i, j] == expect
        # reflexive, symmetric; transitivity via the group indicator
        assert all(m[i, i] == 1.0 for i in range(17))
        np.testing.assert_array_equal(m, m.T)

    @given(st.permutations(list(range(5))))
    @settings(max_examples=20, deadline=None)
    def test_within_group_permutation_invariance(self, perm5):
        # permute joints within the head group; M must be unchanged
        # after applying the same permutation to rows and columns
        m = graph.mask_set()["parts5"]
        p = np.arange(17)
        p[:5] = np.asarray(perm5)
        np.testing.assert_array_equal(m, m[np.ix_(p, p)])

    def test_overrides_replace_or_add(self):
        halves = ((0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10), (11, 12, 13, 14, 15, 16))
        masks = graph.mask_set((("parts5", halves), ("halves", halves)))
        assert list(masks) == [*graph.PARTITION_SCHEMES, "halves"]
        np.testing.assert_array_equal(masks["parts5"], graph.mask_set()["upper_lower"])
        np.testing.assert_array_equal(masks["halves"], masks["parts5"])

    def test_unpartitioned_all_ones(self):
        masks = graph.mask_set((("extra", (tuple(range(17)),)),), partitioned=False)
        assert list(masks) == [*graph.PARTITION_SCHEMES, "extra"]
        assert all((m == 1.0).all() and m.shape == (17, 17) for m in masks.values())


def test_topology_connected_and_symmetric():
    """The neighbours the adjacency subsets connect (self-loops aside)
    form a symmetric, connected graph over all 17 joints."""
    seen = {0}
    frontier = [0]
    adj = (graph.build_adjacency_subsets() > 0).any(axis=0) & ~np.eye(17, dtype=bool)
    np.testing.assert_array_equal(adj, adj.T)
    while frontier:
        u = frontier.pop()
        for v in range(17):
            if adj[u, v] and v not in seen:
                seen.add(v)
                frontier.append(v)
    assert seen == set(range(17))
