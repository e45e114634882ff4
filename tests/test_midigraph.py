"""Unit tests for the MI-digraph model (§2)."""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from repro.core.connection import Connection
from repro.core.errors import InvalidNetworkError, StageIndexError
from repro.core.midigraph import MIDigraph
from repro.networks.baseline import baseline


def tiny_net() -> MIDigraph:
    """3-stage network on 2 cells per stage (not square; fine for tests)."""
    return MIDigraph(
        [Connection([0, 0], [1, 1]), Connection([0, 1], [1, 0])]
    )


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(InvalidNetworkError):
            MIDigraph([])

    def test_mixed_sizes_rejected(self):
        with pytest.raises(InvalidNetworkError):
            MIDigraph([Connection([0, 1], [1, 0]), Connection([0], [0])])

    def test_non_connection_rejected(self):
        with pytest.raises(InvalidNetworkError):
            MIDigraph([Connection([0, 1], [1, 0]), "nope"])

    def test_from_child_tables(self):
        net = MIDigraph.from_child_tables([([0, 1], [1, 0])])
        assert net.n_stages == 2

    def test_shape_properties(self, baseline4):
        assert baseline4.n_stages == 4
        assert baseline4.m == 3
        assert baseline4.size == 8
        assert baseline4.n_inputs == 16
        assert baseline4.is_square()

    def test_subrange_not_square(self, baseline4):
        assert not baseline4.subrange(2, 4).is_square()


class TestAdjacency:
    def test_children_and_parents(self):
        net = tiny_net()
        assert net.children(1, 0) == (0, 1)
        assert net.parents(2, 0) == (0, 1)

    def test_children_of_last_stage_rejected(self):
        with pytest.raises(StageIndexError):
            tiny_net().children(3, 0)

    def test_parents_of_first_stage_rejected(self):
        with pytest.raises(StageIndexError):
            tiny_net().parents(1, 0)

    def test_stage_bounds_checked(self):
        with pytest.raises(StageIndexError):
            tiny_net().children(0, 0)
        with pytest.raises(StageIndexError):
            tiny_net().connection(5)

    def test_nodes_and_arcs_counts(self, baseline4):
        assert len(list(baseline4.nodes())) == 4 * 8
        assert len(list(baseline4.arcs())) == 3 * 16

    def test_connection_accessor_is_one_based(self, baseline4):
        assert baseline4.connection(1) == baseline4.connections[0]


class TestReverseAndSubrange:
    def test_reverse_swaps_stage_order(self):
        net = tiny_net()
        rev = net.reverse()
        assert rev.n_stages == net.n_stages
        # arcs of rev = reversed arcs of net with stages mirrored
        fwd = {
            ((s, x), (t, y))
            for ((s, x), (t, y)) in net.arcs()
        }
        n = net.n_stages
        for (s, x), (t, y) in rev.arcs():
            assert ((n + 1 - t, y), (n + 1 - s, x)) in fwd

    def test_reverse_is_involution_on_digraph(self, baseline4):
        assert baseline4.reverse().reverse().same_digraph(baseline4)

    def test_subrange_slices_connections(self, baseline4):
        sub = baseline4.subrange(2, 4)
        assert sub.n_stages == 3
        assert sub.connections == baseline4.connections[1:3]

    def test_subrange_requires_i_lt_j(self, baseline4):
        with pytest.raises(StageIndexError):
            baseline4.subrange(3, 3)
        with pytest.raises(StageIndexError):
            baseline4.subrange(0, 2)


class TestNetworkxExport:
    def test_node_and_edge_counts(self, baseline4):
        g = baseline4.to_networkx()
        assert g.number_of_nodes() == 32
        assert g.number_of_edges() == 48

    def test_parallel_arcs_preserved(self):
        net = MIDigraph([Connection([0, 1], [0, 1])])  # double links
        g = net.to_networkx()
        assert g.number_of_edges() == 4
        assert g.number_of_edges((1, 0), (2, 0)) == 2

    def test_stage_attribute(self, baseline4):
        g = baseline4.to_networkx()
        assert g.nodes[(3, 5)]["stage"] == 3

    def test_import_repro_does_not_load_networkx(self):
        # A fresh interpreter: this test process may already hold it.
        code = (
            "import sys, repro; "
            "print('networkx' in sys.modules, 'repro.sim' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True,
        ).stdout.split()
        assert out == ["False", "True"]

    def test_import_repro_does_not_load_numpy_random(self):
        # numpy loads it lazily; only a traffic or fault draw needs it.
        code = (
            "import sys, repro; "
            "print('numpy.random' in sys.modules, 'numpy' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True,
        ).stdout.split()
        assert out == ["False", "True"]


class TestEqualityAndRelabel:
    def test_equality(self):
        assert tiny_net() == tiny_net()
        assert tiny_net() != baseline(3)

    def test_equality_other_type(self):
        assert tiny_net() != object()

    def test_hashable(self):
        assert len({tiny_net(), tiny_net()}) == 1

    def test_same_digraph_ignores_splits(self):
        a = MIDigraph([Connection([0, 1], [1, 0])])
        b = MIDigraph([Connection([1, 0], [0, 1])])
        assert a != b
        assert a.same_digraph(b)

    def test_relabel_identity_is_noop(self, baseline4):
        ident = [np.arange(8)] * 4
        assert baseline4.relabel(ident) == baseline4

    def test_relabel_requires_right_count(self, baseline4):
        with pytest.raises(InvalidNetworkError):
            baseline4.relabel([np.arange(8)] * 3)

    def test_relabel_requires_permutations(self, baseline4):
        bad = [np.arange(8)] * 3 + [np.zeros(8, dtype=np.int64)]
        with pytest.raises(InvalidNetworkError):
            baseline4.relabel(bad)

    def test_relabel_moves_arcs_correctly(self):
        net = MIDigraph([Connection([0, 0], [1, 1])])
        swap = np.array([1, 0])
        ident = np.arange(2)
        relabeled = net.relabel([swap, ident])
        # old cell 0 (now labelled 1) kept children (0, 1)
        assert relabeled.children(1, 1) == (0, 1)

    def test_repr_mentions_shape(self, baseline4):
        assert "n_stages=4" in repr(baseline4)
