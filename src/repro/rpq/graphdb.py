"""Semi-structured databases as edge-labelled graphs (Section 4.1).

Following [BDFS97] and the paper, a database is a graph whose edges are
labelled with elements of a finite domain ``D``.  Nodes are arbitrary
hashable objects.  The graph is not required to be rooted or connected.

Storage layout (the indexed backend used by :mod:`repro.rpq.engine`):
nodes are interned to dense integer ids on first sight, and the edge set
is kept *label-first* in two mirrored indexes::

    _out[label][source_id] -> set of target ids
    _in[label][target_id]  -> set of source ids

so that a frontier of nodes can be expanded through one label with a few
bulk set unions (:meth:`GraphDB.successors_bulk`) instead of per-edge
Python calls, and so that bidirectional search can walk edges backwards
(:meth:`GraphDB.predecessors_bulk`).  The public API still speaks in the
original node objects; the integer ids are an internal representation
exposed only through :meth:`node_id` / :meth:`node_at` for the engine.
"""

from __future__ import annotations

import random
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

__all__ = ["GraphDB", "random_graph", "path_graph"]

Edge = tuple[Hashable, Hashable, Hashable]  # (source, label, target)


class GraphDB:
    """An edge-labelled directed graph database.

    Parallel edges with different labels are allowed; duplicate (source,
    label, target) triples are stored once.
    """

    def __init__(self, edges: Iterable[Edge] = (), nodes: Iterable[Hashable] = ()):
        self._id_of: dict[Hashable, int] = {}
        self._node_of: list[Hashable] = []
        self._out: dict[Hashable, dict[int, set[int]]] = {}
        self._in: dict[Hashable, dict[int, set[int]]] = {}
        self._num_edges = 0
        # Monotone counter bumped on every *effective* mutation (a new
        # node interned, an edge actually added or removed); no-op calls
        # leave it unchanged, so equality of counters implies structural
        # equality of two observations of the same instance.  Consumed
        # by the CSR snapshot cache below and by
        # :meth:`repro.rpq.sharded.ParallelEvaluator.refresh` to skip
        # re-freezing after no-op updates.
        self._mutations = 0
        self._csr_cache = None
        self._csr_cache_mutations = -1
        self._node_array = None
        for node in nodes:
            self.add_node(node)
        for source, label, target in edges:
            self.add_edge(source, label, target)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _intern(self, node: Hashable) -> int:
        node_id = self._id_of.get(node)
        if node_id is None:
            node_id = len(self._node_of)
            self._id_of[node] = node_id
            self._node_of.append(node)
            self._mutations += 1
        return node_id

    def add_node(self, node: Hashable) -> None:
        self._intern(node)

    def add_edge(self, source: Hashable, label: Hashable, target: Hashable) -> None:
        """Add the edge ``source --label--> target`` (idempotent)."""
        source_id = self._intern(source)
        target_id = self._intern(target)
        targets = self._out.setdefault(label, {}).setdefault(source_id, set())
        if target_id not in targets:
            targets.add(target_id)
            self._in.setdefault(label, {}).setdefault(target_id, set()).add(source_id)
            self._num_edges += 1
            self._mutations += 1

    def remove_edge(
        self, source: Hashable, label: Hashable, target: Hashable
    ) -> bool:
        """Remove the edge ``source --label--> target`` if present.

        Returns ``True`` when an edge was removed.  Nodes stay interned
        (their dense ids remain valid) even when their last incident edge
        disappears, so engine-facing id mappings never shift under a
        long-lived store performing incremental updates.
        """
        source_id = self._id_of.get(source)
        target_id = self._id_of.get(target)
        if source_id is None or target_id is None:
            return False
        adjacency = self._out.get(label)
        if adjacency is None:
            return False
        targets = adjacency.get(source_id)
        if targets is None or target_id not in targets:
            return False
        targets.discard(target_id)
        if not targets:
            del adjacency[source_id]
        if not adjacency:
            del self._out[label]
        reverse = self._in[label][target_id]
        reverse.discard(source_id)
        if not reverse:
            del self._in[label][target_id]
        if not self._in[label]:
            del self._in[label]
        self._num_edges -= 1
        self._mutations += 1
        return True

    def add_path(
        self, start: Hashable, labels: Sequence[Hashable], nodes: Sequence[Hashable]
    ) -> None:
        """Add a path ``start --labels[0]--> nodes[0] --labels[1]--> ...``.

        ``labels`` and ``nodes`` must have equal length: ``nodes[i]`` is the
        target of the edge labelled ``labels[i]``.  With both empty, only
        ``start`` is registered (a zero-length path still has its endpoint).
        """
        if len(labels) != len(nodes):
            raise ValueError("need as many intermediate nodes as labels")
        self.add_node(start)
        current = start
        for label, node in zip(labels, nodes):
            self.add_edge(current, label, node)
            current = node

    @classmethod
    def from_triples(cls, triples: Iterable[Edge]) -> "GraphDB":
        """Build a database from ``(source, label, target)`` triples."""
        return cls(edges=triples)

    def to_triples(self) -> set[Edge]:
        """The edge set as ``(source, label, target)`` triples.

        Round-trips with :meth:`from_triples` up to isolated nodes (which
        have no incident edge and therefore no triple).
        """
        return set(self.edges())

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> frozenset[Hashable]:
        return frozenset(self._id_of)

    @property
    def num_nodes(self) -> int:
        return len(self._node_of)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def mutation_count(self) -> int:
        """Monotone counter of effective mutations (see ``__init__``)."""
        return self._mutations

    def to_csr(self):
        """A frozen :class:`~repro.rpq.csr.CSRSnapshot` of the current
        contents, cached until the next effective mutation.

        The snapshot covers every *interned* node — ``num_nodes`` rows,
        not ``len(domain())`` — so drained stores (nodes kept alive by
        :meth:`remove_edge`'s id-stability contract) snapshot with empty
        CSR rows rather than shifted ids.
        """
        if (
            self._csr_cache is None
            or self._csr_cache_mutations != self._mutations
        ):
            from ..sweep.csr import CSRSnapshot

            self._csr_cache = CSRSnapshot.from_graph(self)
            self._csr_cache_mutations = self._mutations
        return self._csr_cache

    def domain(self) -> frozenset[Hashable]:
        """The set of edge labels actually used (a subset of the domain D)."""
        return frozenset(self._out)

    def successors(self, node: Hashable, label: Hashable) -> frozenset[Hashable]:
        node_id = self._id_of.get(node)
        if node_id is None:
            return frozenset()
        targets = self._out.get(label, {}).get(node_id, ())
        return frozenset(self._node_of[t] for t in targets)

    def out_edges(self, node: Hashable) -> Iterator[tuple[Hashable, Hashable]]:
        """Yield ``(label, target)`` pairs for edges leaving ``node``."""
        node_id = self._id_of.get(node)
        if node_id is None:
            return
        for label, adjacency in self._out.items():
            for target_id in adjacency.get(node_id, ()):
                yield (label, self._node_of[target_id])

    def edges(self) -> Iterator[Edge]:
        for label, adjacency in self._out.items():
            for source_id, targets in adjacency.items():
                source = self._node_of[source_id]
                for target_id in targets:
                    yield (source, label, self._node_of[target_id])

    def has_path(self, source: Hashable, labels: Sequence[Hashable]) -> bool:
        """Is there a path from ``source`` spelling exactly ``labels``?"""
        source_id = self._id_of.get(source)
        if source_id is None:
            return False
        frontier = {source_id}
        for label in labels:
            frontier = self.successors_bulk(frontier, label)
            if not frontier:
                return False
        return True

    # ------------------------------------------------------------------
    # Engine-facing indexed access (dense integer node ids)
    # ------------------------------------------------------------------
    def node_id(self, node: Hashable) -> int:
        """The dense integer id of ``node``; raises ``KeyError`` if absent."""
        try:
            return self._id_of[node]
        except KeyError:
            raise KeyError(f"unknown node {node!r}") from None

    def node_at(self, node_id: int) -> Hashable:
        """The node object with the given dense id."""
        return self._node_of[node_id]

    def node_array(self):
        """The interned nodes as an object array indexed by dense id (read
        only), built lazily and rebuilt once nodes were interned since —
        nodes are append-only, so a matching length means a current array."""
        nodes = self._node_array
        if nodes is None or len(nodes) != len(self._node_of):
            import numpy as np

            # ``fromiter`` fills element-wise: a tuple-valued node stays
            # one scalar instead of becoming a second axis.
            nodes = self._node_array = np.fromiter(
                self._node_of, dtype=object, count=len(self._node_of)
            )
        return nodes

    def pairs_at(self, sources, targets) -> list[tuple[Hashable, Hashable]]:
        """``[(node_at(s), node_at(t)), ...]`` for two parallel dense-id
        arrays: where a decoded answer's ids become node pairs."""
        nodes = self.node_array()
        return list(zip(nodes[sources].tolist(), nodes[targets].tolist()))

    def label_out_index(self, label: Hashable) -> Mapping[int, set[int]]:
        """The forward adjacency ``source_id -> target ids`` for one label."""
        return self._out.get(label, {})

    def label_in_index(self, label: Hashable) -> Mapping[int, set[int]]:
        """The reverse adjacency ``target_id -> source ids`` for one label."""
        return self._in.get(label, {})

    def successors_bulk(self, frontier: Iterable[int], label: Hashable) -> set[int]:
        """All targets of ``label``-edges leaving any node id in ``frontier``."""
        return self._expand_bulk(self._out.get(label), frontier)

    def predecessors_bulk(self, frontier: Iterable[int], label: Hashable) -> set[int]:
        """All sources of ``label``-edges entering any node id in ``frontier``."""
        return self._expand_bulk(self._in.get(label), frontier)

    @staticmethod
    def _expand_bulk(
        adjacency: dict[int, set[int]] | None, frontier: Iterable[int]
    ) -> set[int]:
        result: set[int] = set()
        if not adjacency:
            return result
        if not isinstance(frontier, (set, frozenset)):
            frontier = set(frontier)
        if len(adjacency) < len(frontier):
            # Sparse label: scanning its adjacency beats probing the frontier.
            for source_id, targets in adjacency.items():
                if source_id in frontier:
                    result |= targets
        else:
            for source_id in frontier:
                targets = adjacency.get(source_id)
                if targets:
                    result |= targets
        return result

    def __repr__(self) -> str:
        return f"GraphDB(nodes={self.num_nodes}, edges={self.num_edges})"


def random_graph(
    rng: random.Random,
    num_nodes: int,
    labels: Sequence[Hashable],
    num_edges: int,
) -> GraphDB:
    """A random labelled graph with the given node/edge counts (seeded)."""
    db = GraphDB()
    node_names = [f"n{i}" for i in range(num_nodes)]
    for node in node_names:
        db.add_node(node)
    for _ in range(num_edges):
        db.add_edge(
            rng.choice(node_names), rng.choice(labels), rng.choice(node_names)
        )
    return db


def path_graph(labels: Sequence[Hashable]) -> GraphDB:
    """The single-path database ``x0 --labels[0]--> x1 --...--> xn``.

    The paper's Theorem 4.1 proof uses exactly these databases to relate
    semantic and language-level rewriting.
    """
    db = GraphDB()
    for i, label in enumerate(labels):
        db.add_edge(f"x{i}", label, f"x{i + 1}")
    if not labels:
        db.add_node("x0")
    return db
