"""The multistage interconnection digraph (MI-digraph) of §2.

    "A multistage interconnection digraph (MI-digraph) with n stages is a
    digraph whose nodes are partitioned into n ordered stages. [...] There
    are arcs only from nodes of the i-th stage to nodes of the (i+1)-th
    stage.  The nodes are of indegree 2 and outdegree 2 except the nodes
    from the first and the last stage.  And every stage has N/2 nodes where
    N = 2^n."

An :class:`MIDigraph` is stored as the tuple of its ``n - 1`` inter-stage
:class:`~repro.core.connection.Connection` objects — precisely the paper's
decomposition "such a decomposition of the adjacency relationship exists as
the outdegree of a node is always two".  Inputs and outputs of the physical
network are *not* nodes ("they do not play any role in the graph
isomorphism", §2).

Stages are numbered ``1 … n`` as in the paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro.core.connection import Connection
from repro.core.errors import InvalidNetworkError, StageIndexError

if TYPE_CHECKING:  # networkx loads only when a graph is exported
    import networkx as nx

__all__ = ["MIDigraph"]


class MIDigraph:
    """An n-stage multistage interconnection digraph.

    Parameters
    ----------
    connections:
        The ``n - 1`` inter-stage connections, gap ``i`` linking stage ``i``
        to stage ``i + 1``.  All connections must act on the same stage
        size.  An empty sequence is rejected: the smallest interesting
        MI-digraph has 2 stages (``n = 1`` would be a single stage of half a
        cell — meaningless).
    """

    # ``_digest`` memoizes :func:`repro.sim.compiled.network_digest`; the
    # connection tables are read-only, so it cannot go stale.
    __slots__ = ("_connections", "_m", "_digest")

    def __init__(self, connections: Sequence[Connection]) -> None:
        conns = tuple(connections)
        if not conns:
            raise InvalidNetworkError(
                "an MI-digraph needs at least one connection (two stages)"
            )
        m = conns[0].m
        for i, c in enumerate(conns):
            if not isinstance(c, Connection):
                raise InvalidNetworkError(
                    f"connection {i} is not a Connection: {type(c)!r}"
                )
            if c.m != m:
                raise InvalidNetworkError(
                    f"connection {i} acts on 2^{c.m} cells, expected 2^{m}"
                )
        self._connections = conns
        self._m = m
        self._digest: str | None = None

    # -- shape ---------------------------------------------------------------

    @property
    def n_stages(self) -> int:
        """Number of stages ``n``."""
        return len(self._connections) + 1

    @property
    def m(self) -> int:
        """Number of label digits per cell (``n - 1`` for classical sizes).

        Note: the paper ties stage size to stage count (``M = 2^{n-1}``);
        this class does not enforce that so sub-digraphs ``(G)_{i,j}``
        remain first-class MIDigraph values.  :meth:`is_square` tells
        whether the paper's size relation holds.
        """
        return self._m

    @property
    def size(self) -> int:
        """Number of cells per stage, ``M = 2^m``."""
        return 1 << self._m

    @property
    def n_inputs(self) -> int:
        """Number of network inputs ``N = 2 · M`` (two per first-stage cell)."""
        return 2 * self.size

    def is_square(self) -> bool:
        """Whether the paper's size relation ``M = 2^{n-1}`` holds.

        The characterization theorem and the P-properties are stated for
        square MI-digraphs; sub-digraphs extracted by :meth:`subrange` are
        generally not square.
        """
        return self.size == 1 << (self.n_stages - 1)

    @property
    def connections(self) -> tuple[Connection, ...]:
        """The inter-stage connections, gap ``i`` at index ``i - 1``."""
        return self._connections

    def connection(self, gap: int) -> Connection:
        """The connection between stage ``gap`` and stage ``gap + 1``.

        ``gap`` ranges over ``1 … n-1`` (paper numbering).
        """
        if not 1 <= gap <= len(self._connections):
            raise StageIndexError(
                f"gap {gap} outside 1..{len(self._connections)}"
            )
        return self._connections[gap - 1]

    def _check_stage(self, stage: int) -> None:
        if not 1 <= stage <= self.n_stages:
            raise StageIndexError(
                f"stage {stage} outside 1..{self.n_stages}"
            )

    # -- adjacency -------------------------------------------------------------

    def children(self, stage: int, x: int) -> tuple[int, int]:
        """Children ``T+(x)`` of cell ``x`` at ``stage`` (with multiplicity)."""
        self._check_stage(stage)
        if stage == self.n_stages:
            raise StageIndexError("last-stage cells have no children")
        return self._connections[stage - 1].children(x)

    def parents(self, stage: int, y: int) -> tuple[int, ...]:
        """Parents ``T-(y)`` of cell ``y`` at ``stage`` (with multiplicity)."""
        self._check_stage(stage)
        if stage == 1:
            raise StageIndexError("first-stage cells have no parents")
        return self._connections[stage - 2].parents(y)

    def nodes(self) -> Iterator[tuple[int, int]]:
        """All nodes as ``(stage, label)`` pairs, stage-major order."""
        for stage in range(1, self.n_stages + 1):
            for x in range(self.size):
                yield (stage, x)

    def arcs(self) -> Iterator[tuple[tuple[int, int], tuple[int, int]]]:
        """All arcs as ``((stage, x), (stage + 1, y))`` pairs."""
        for gap, conn in enumerate(self._connections, start=1):
            for x, y, _tag in conn.arcs():
                yield ((gap, x), (gap + 1, y))

    # -- derived digraphs -------------------------------------------------------

    def reverse(self) -> "MIDigraph":
        """The reverse MI-digraph ``G^{-1}`` (§3).

        "The digraph G^{-1} is obtained from G by changing the orientation
        of all the arcs [and] is associated with what is called the reverse
        network in the literature."

        Stage ``i`` of the reverse is stage ``n + 1 - i`` of ``G``.  The
        split of each reversed adjacency into ``(f, g)`` is **not** canonical
        — here the two parents are assigned in sorted order.  Use
        :func:`repro.core.reverse.reverse_connection` for the independence-
        preserving split of Proposition 1.
        """
        rev: list[Connection] = []
        for conn in reversed(self._connections):
            p0, p1 = conn.parent_arrays()
            rev.append(Connection(p0, p1, validate=True))
        return MIDigraph(rev)

    def subrange(self, i: int, j: int) -> "MIDigraph":
        """The sub-digraph ``(G)_{i,j}`` induced by stages ``i … j`` (§2).

        Requires ``1 <= i < j <= n`` (at least two stages — for single-stage
        "sub-digraphs" there is no connection to store; component counts for
        those are trivially ``M``).
        """
        self._check_stage(i)
        self._check_stage(j)
        if i >= j:
            raise StageIndexError(
                f"subrange needs i < j, got i={i}, j={j}"
            )
        return MIDigraph(self._connections[i - 1 : j - 1])

    def to_networkx(self) -> nx.MultiDiGraph:
        """Export as a networkx ``MultiDiGraph``.

        Nodes are ``(stage, label)`` tuples carrying a ``stage`` attribute;
        parallel arcs (double links) are preserved.  Used by the test suite
        to cross-validate isomorphism decisions with networkx's VF2.
        """
        import networkx as nx

        graph = nx.MultiDiGraph()
        for stage, x in self.nodes():
            graph.add_node((stage, x), stage=stage)
        for u, v in self.arcs():
            graph.add_edge(u, v)
        return graph

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MIDigraph):
            return NotImplemented
        return self._connections == other._connections

    def __hash__(self) -> int:
        return hash(self._connections)

    def same_digraph(self, other: "MIDigraph") -> bool:
        """Equality of the underlying digraphs, ignoring the f/g splits."""
        return self.n_stages == other.n_stages and all(
            a.same_digraph(b)
            for a, b in zip(self._connections, other._connections)
        )

    def __repr__(self) -> str:
        return (
            f"MIDigraph(n_stages={self.n_stages}, size={self.size}, "
            f"square={self.is_square()})"
        )

    # -- convenience constructors ---------------------------------------------

    @classmethod
    def from_child_tables(
        cls,
        tables: Iterable[tuple[Sequence[int], Sequence[int]]],
    ) -> "MIDigraph":
        """Build from raw ``(f, g)`` table pairs, one per gap."""
        return cls([Connection(f, g) for f, g in tables])

    def relabel(self, mappings: Sequence[np.ndarray]) -> "MIDigraph":
        """Apply per-stage relabelings and return the relabeled MI-digraph.

        ``mappings[s]`` (``s = 0 … n-1``) sends old label → new label at
        stage ``s + 1`` and must be a permutation of ``0 … M-1``.  The
        resulting digraph is isomorphic to ``self`` by construction; this is
        the workhorse for generating isomorphic variants in tests and for
        applying canonical labelings.
        """
        if len(mappings) != self.n_stages:
            raise InvalidNetworkError(
                f"need {self.n_stages} stage mappings, got {len(mappings)}"
            )
        maps = [np.asarray(p, dtype=np.int64) for p in mappings]
        size = self.size
        for s, p in enumerate(maps):
            if p.shape != (size,) or not np.array_equal(
                np.sort(p), np.arange(size)
            ):
                raise InvalidNetworkError(
                    f"stage {s + 1} mapping is not a permutation of "
                    f"0..{size - 1}"
                )
        out: list[Connection] = []
        for gap, conn in enumerate(self._connections, start=1):
            src, dst = maps[gap - 1], maps[gap]
            inv_src = np.empty(size, dtype=np.int64)
            inv_src[src] = np.arange(size, dtype=np.int64)
            # new cell x' = src[x] has children dst[f[x]], dst[g[x]]
            out.append(
                Connection(
                    dst[conn.f[inv_src]], dst[conn.g[inv_src]], validate=False
                )
            )
        return MIDigraph(out)
