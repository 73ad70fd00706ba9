"""Frozen CSR (compressed sparse row) snapshots of road networks.

:class:`~repro.network.graph.RoadNetwork` is a mutable dict-of-dicts structure —
ideal while a network is being built, wasteful once it only gets read: every query
used to re-materialise node and adjacency dictionaries for its window, and every
traversal paid Python hashing per neighbour hop. :class:`CompactNetwork` is the
read-optimised counterpart: an immutable snapshot holding the graph as flat arrays

* ``ids``      — node identifiers, in the source network's iteration order;
* ``xs / ys``  — planar coordinates (float64), aligned with ``ids``;
* ``indptr``   — CSR row pointers (int32), one entry per node plus one;
* ``indices``  — CSR column indices (int32 dense node positions), each undirected
  edge appearing once per direction;
* ``lengths``  — edge lengths (float64), aligned with ``indices``.

Snapshots are created once — :meth:`CompactNetwork.from_network` (or
:meth:`RoadNetwork.freeze <repro.network.graph.RoadNetwork.freeze>`) — and shared
read-only by every consumer thereafter: they are safe to use concurrently and cheap
to pickle (only the six arrays cross process boundaries), which is what makes them
the unit of sharding and multiprocess serving.

Two further properties matter for correctness:

* **Order preservation.** The CSR rows and the per-row neighbour order replicate the
  source network's iteration order exactly, and :meth:`window_view` /
  :meth:`subgraph` preserve the snapshot's relative order. Traversals that break
  ties by discovery order therefore behave identically on both backends.
* **O(|V|) windowing.** :meth:`window_view` filters nodes with one vectorised
  coordinate comparison and re-numbers the CSR with a handful of numpy kernels —
  no per-node or per-edge Python work — which is where the per-query speedup of the
  compact backend comes from.

Snapshots also carry flat Python list mirrors of the arrays for the traversal hot
loops (per-element numpy access is far slower than list indexing). The mirrors are
built **lazily** on first traversal: windowing, coordinate masks, statistics and the
whole :mod:`repro.service.persist` load path run on the raw arrays alone. A snapshot
whose arrays are memory-mapped from an on-disk artifact therefore does no Python-side
materialisation at load time — construction touches only shapes plus one vectorised
id-uniqueness scan, and the expensive per-element mirror build is deferred until a
traversal actually happens (artifact loads with checksum verification enabled stream
the file once for hashing, which warms the page cache but still builds nothing).

:class:`GraphView` is the minimal protocol shared by :class:`RoadNetwork` and
:class:`CompactNetwork`; solver and routing code is written against it so either
backend can be plugged in.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Protocol,
    Sequence,
    Set,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.exceptions import EdgeNotFoundError, GraphError, NodeNotFoundError
from repro.network.graph import Edge, Node, RoadNetwork

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.network.subgraph import Rectangle


@runtime_checkable
class GraphView(Protocol):
    """The read-only graph surface the LCMSR algorithms are written against.

    Both the mutable :class:`~repro.network.graph.RoadNetwork` and the frozen
    :class:`CompactNetwork` satisfy this protocol, so solvers, Dijkstra and the
    instance builder accept either backend interchangeably.
    """

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the view."""
        ...

    def node_ids(self) -> Iterator[int]:
        """Iterate over all node identifiers."""
        ...

    def neighbor_items(self, node_id: int) -> Iterable[Tuple[int, float]]:
        """Iterate over ``(neighbor_id, edge_length)`` pairs of ``node_id``."""
        ...

    def degree(self, node_id: int) -> int:
        """Return the number of incident edges of ``node_id``."""
        ...

    def edge_length(self, u: int, v: int) -> float:
        """Return the road-segment length τ(u, v)."""
        ...

    def coords(self, node_id: int) -> Tuple[float, float]:
        """Return the planar ``(x, y)`` embedding of ``node_id``."""
        ...

    def contains(self, node_id: int) -> bool:
        """Return ``True`` if ``node_id`` is a node of the view."""
        ...


class CompactNetwork:
    """An immutable CSR snapshot of a road network (see the module docstring).

    Instances are normally obtained through :meth:`from_network`,
    :meth:`window_view` or :meth:`subgraph` rather than the raw constructor. The
    read API mirrors :class:`~repro.network.graph.RoadNetwork` exactly (minus the
    mutators), so a snapshot is a drop-in replacement wherever a network is only
    read.
    """

    __slots__ = (
        "_ids",
        "_xs",
        "_ys",
        "_indptr",
        "_indices",
        "_lengths",
        "_ids_list",
        "_indptr_list",
        "_nbr_ids_list",
        "_nbr_pos_list",
        "_lengths_list",
        "_nbr_pairs_list",
        "_id_to_index",
        "_num_edges",
        "_row_of_entry",
        "_length_stats",
        "_id_sort_order",
    )

    def __init__(
        self,
        ids: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        lengths: np.ndarray,
        validate_ids: bool = True,
    ) -> None:
        self._ids = np.asarray(ids, dtype=np.int64)
        self._xs = np.asarray(xs, dtype=np.float64)
        self._ys = np.asarray(ys, dtype=np.float64)
        self._indptr = np.asarray(indptr, dtype=np.int32)
        self._indices = np.asarray(indices, dtype=np.int32)
        self._lengths = np.asarray(lengths, dtype=np.float64)
        n = self._ids.shape[0]
        if self._xs.shape[0] != n or self._ys.shape[0] != n:
            raise GraphError("coordinate arrays must align with the id array")
        if self._indptr.shape[0] != n + 1:
            raise GraphError("indptr must have num_nodes + 1 entries")
        if self._indices.shape[0] != self._lengths.shape[0]:
            raise GraphError("indices and lengths must align")
        # Vectorised uniqueness check: keeps the "corrupt snapshot fails at
        # construction" guarantee (important for artifact loading) without
        # materialising the Python id map. Derived views (window/subgraph) keep
        # a subset of already-validated ids and skip the re-check.
        if validate_ids and np.unique(self._ids).shape[0] != n:
            raise GraphError("duplicate node ids in snapshot")
        self._num_edges = int(self._indices.shape[0]) // 2
        # Flat Python mirrors (traversal loops index these instead of numpy arrays
        # because per-element numpy access costs far more than list indexing) and
        # the id → dense-position map are built lazily by _materialize_lists /
        # _id_map: pure-array consumers — windowing, stats, persistence — never
        # pay for them, which keeps mmap-loaded snapshots engine-ready without
        # reading the arrays.
        self._ids_list: List[int] | None = None
        self._indptr_list: List[int] | None = None
        self._nbr_ids_list: List[int] | None = None
        self._nbr_pos_list: List[int] | None = None
        self._lengths_list: List[float] | None = None
        self._nbr_pairs_list: List[Tuple[int, float]] | None = None
        self._id_to_index: Dict[int, int] | None = None
        self._row_of_entry: np.ndarray | None = None  # lazy np.repeat cache
        self._length_stats: Tuple[float, float, float] | None = None
        self._id_sort_order: Tuple[np.ndarray, np.ndarray] | None = None

    def _materialize_lists(self) -> None:
        """Build the flat list mirrors of the CSR arrays (idempotent, lazy)."""
        if self._ids_list is not None:
            return
        indptr_list = self._indptr.tolist()
        nbr_ids_list: List[int] = (
            self._ids[self._indices].tolist() if self._indices.size else []
        )
        nbr_pos_list: List[int] = self._indices.tolist()
        lengths_list: List[float] = self._lengths.tolist()
        # Pre-zipped (neighbor_id, length) pairs: neighbor_items() slices this one
        # flat list (pointer copies only) instead of zipping two slices per call,
        # which would allocate fresh tuples on every visit of a node.
        nbr_pairs_list: List[Tuple[int, float]] = list(zip(nbr_ids_list, lengths_list))
        self._indptr_list = indptr_list
        self._nbr_ids_list = nbr_ids_list
        self._nbr_pos_list = nbr_pos_list
        self._lengths_list = lengths_list
        self._nbr_pairs_list = nbr_pairs_list
        # Assigned last: readers gate on _ids_list, so under the GIL a concurrent
        # reader either sees None (and rebuilds, idempotently) or a complete set.
        self._ids_list = self._ids.tolist()

    def _lists(self) -> Tuple[List[int], List[int], List[int], List[float], List[int]]:
        """Return ``(indptr, positions, neighbor_ids, lengths, ids)`` flat lists."""
        if self._ids_list is None:
            self._materialize_lists()
        return (
            self._indptr_list,  # type: ignore[return-value]
            self._nbr_pos_list,
            self._nbr_ids_list,
            self._lengths_list,
            self._ids_list,
        )

    def _id_map(self) -> Dict[int, int]:
        """Return the node-id → dense-position map (built lazily).

        Id uniqueness was already validated vectorised in ``__init__``.
        """
        if self._id_to_index is None:
            self._id_to_index = {
                node_id: index for index, node_id in enumerate(self._ids.tolist())
            }
        return self._id_to_index

    # ------------------------------------------------------------------ construction
    @classmethod
    def from_network(cls, network: "GraphView") -> "CompactNetwork":
        """Freeze ``network`` into a CSR snapshot.

        Node order and per-node neighbour order replicate the source network's
        iteration order, so traversals tie-break identically on both backends.
        Freezing a :class:`CompactNetwork` returns it unchanged (snapshots are
        immutable, so sharing is always safe).
        """
        if isinstance(network, CompactNetwork):
            return network
        ids: List[int] = []
        xs: List[float] = []
        ys: List[float] = []
        for node_id in network.node_ids():
            x, y = network.coords(node_id)
            ids.append(node_id)
            xs.append(x)
            ys.append(y)
        id_to_index = {node_id: index for index, node_id in enumerate(ids)}
        indptr: List[int] = [0]
        indices: List[int] = []
        lengths: List[float] = []
        for node_id in ids:
            for neighbor_id, length in network.neighbor_items(node_id):
                indices.append(id_to_index[neighbor_id])
                lengths.append(length)
            indptr.append(len(indices))
        return cls(
            np.asarray(ids, dtype=np.int64),
            np.asarray(xs, dtype=np.float64),
            np.asarray(ys, dtype=np.float64),
            np.asarray(indptr, dtype=np.int32),
            np.asarray(indices, dtype=np.int32),
            np.asarray(lengths, dtype=np.float64),
        )

    def to_network(self) -> RoadNetwork:
        """Thaw the snapshot back into a mutable :class:`RoadNetwork`."""
        network = RoadNetwork()
        ids = self._lists()[4]
        xs = self._xs.tolist()
        ys = self._ys.tolist()
        for index, node_id in enumerate(ids):
            network.add_node(node_id, xs[index], ys[index])
        for edge in self.edges():
            network.add_edge(edge.u, edge.v, edge.length)
        return network

    def __reduce__(self):
        # Pickle only the six defining arrays; every derived structure (flat list
        # mirrors, the id map) is rebuilt on unpickling.
        return (
            CompactNetwork,
            (self._ids, self._xs, self._ys, self._indptr, self._indices, self._lengths),
        )

    # ------------------------------------------------------------------ inspection
    def __contains__(self, node_id: int) -> bool:
        return node_id in self._id_map()

    def contains(self, node_id: int) -> bool:
        """Return ``True`` if ``node_id`` is a node of the snapshot."""
        return node_id in self._id_map()

    def __len__(self) -> int:
        return int(self._ids.shape[0])

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the snapshot."""
        return int(self._ids.shape[0])

    @property
    def num_edges(self) -> int:
        """Number of undirected edges in the snapshot."""
        return self._num_edges

    def index_of(self, node_id: int) -> int:
        """Return the dense array position of ``node_id``.

        Raises:
            NodeNotFoundError: If ``node_id`` is not in the snapshot.
        """
        try:
            return self._id_map()[node_id]
        except KeyError:
            raise NodeNotFoundError(node_id) from None

    def adjacency_arrays(
        self,
    ) -> Tuple[List[int], List[int], List[int], List[float], List[int]]:
        """Return ``(indptr, positions, neighbor_ids, lengths, ids)`` flat lists.

        This is the traversal surface used by array-indexed kernels (e.g. the CSR
        Dijkstra): row ``i`` of the CSR spans ``indptr[i]:indptr[i + 1]`` in the
        flat ``positions`` (dense node positions), ``neighbor_ids`` and
        ``lengths`` lists, and ``ids[p]`` maps a dense position back to a node
        id. The lists are shared, not copied — callers must treat them as
        read-only.
        """
        return self._lists()

    def csr_index_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return the raw ``(indptr, indices, lengths)`` numpy arrays (read-only)."""
        return self._indptr, self._indices, self._lengths

    def id_sort_order(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(permutation, sorted_ids)`` for vectorised id → position lookups.

        ``permutation[k]`` is the dense position of the k-th smallest node id
        and ``sorted_ids = ids[permutation]``; a batch of node ids maps to
        positions via ``permutation[np.searchsorted(sorted_ids, keys)]``. The
        permutation is a constant of the immutable snapshot, so it is computed
        once and cached — per-query consumers (the dense-instance builder on
        the window-less hot path) then pay O(k log |V|) instead of re-sorting
        the whole id array.
        """
        if self._id_sort_order is None:
            order = np.argsort(self._ids, kind="stable")
            self._id_sort_order = (order, self._ids[order])
        return self._id_sort_order

    def csr_node_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return the raw ``(ids, xs, ys)`` numpy arrays (read-only).

        Together with :meth:`csr_index_arrays` this is the complete defining state
        of a snapshot — the six arrays :mod:`repro.service.persist` writes to and
        memory-maps from an on-disk artifact.
        """
        return self._ids, self._xs, self._ys

    def node(self, node_id: int) -> Node:
        """Return the :class:`Node` for ``node_id``; raises :class:`NodeNotFoundError`."""
        index = self.index_of(node_id)
        return Node(node_id, float(self._xs[index]), float(self._ys[index]))

    def coords(self, node_id: int) -> Tuple[float, float]:
        """Return the ``(x, y)`` embedding of ``node_id``."""
        index = self.index_of(node_id)
        return (float(self._xs[index]), float(self._ys[index]))

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes."""
        ids = self._lists()[4]
        xs = self._xs.tolist()
        ys = self._ys.tolist()
        for index, node_id in enumerate(ids):
            yield Node(node_id, xs[index], ys[index])

    def node_ids(self) -> Iterator[int]:
        """Iterate over all node identifiers (snapshot order)."""
        return iter(self._lists()[4])

    def edges(self) -> Iterator[Edge]:
        """Iterate over all undirected edges, each reported once in normalised order."""
        indptr, _, neighbor_ids, lengths, ids = self._lists()
        for index, u in enumerate(ids):
            for slot in range(indptr[index], indptr[index + 1]):
                v = neighbor_ids[slot]
                if u < v:
                    yield Edge(u, v, lengths[slot])

    def neighbors(self, node_id: int) -> Iterator[int]:
        """Iterate over the neighbour identifiers of ``node_id``."""
        index = self.index_of(node_id)
        indptr, _, neighbor_ids, _, _ = self._lists()
        return iter(neighbor_ids[indptr[index] : indptr[index + 1]])

    def neighbor_items(self, node_id: int) -> Iterator[Tuple[int, float]]:
        """Iterate over ``(neighbor_id, edge_length)`` pairs of ``node_id``."""
        index = self.index_of(node_id)
        self._materialize_lists()
        indptr = self._indptr_list
        return iter(self._nbr_pairs_list[indptr[index] : indptr[index + 1]])

    def degree(self, node_id: int) -> int:
        """Return the number of incident edges of ``node_id``."""
        index = self.index_of(node_id)
        return int(self._indptr[index + 1]) - int(self._indptr[index])

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` if the undirected edge ``(u, v)`` exists."""
        index = self._id_map().get(u)
        if index is None:
            return False
        indptr, _, neighbor_ids, _, _ = self._lists()
        start, end = indptr[index], indptr[index + 1]
        return v in neighbor_ids[start:end]

    def edge_length(self, u: int, v: int) -> float:
        """Return the road-segment length τ(u, v); raises if the edge does not exist."""
        index = self._id_map().get(u)
        if index is not None:
            indptr, _, neighbor_ids, lengths, _ = self._lists()
            start, end = indptr[index], indptr[index + 1]
            for slot in range(start, end):
                if neighbor_ids[slot] == v:
                    return lengths[slot]
        raise EdgeNotFoundError(u, v)

    def euclidean(self, u: int, v: int) -> float:
        """Return the Euclidean distance between the embeddings of two nodes."""
        ax, ay = self.coords(u)
        bx, by = self.coords(v)
        return ((ax - bx) ** 2 + (ay - by) ** 2) ** 0.5

    def total_length(self) -> float:
        """Return the sum of all road-segment lengths in the snapshot."""
        return self._edge_length_stats()[0]

    def min_edge_length(self) -> float:
        """Return the minimum edge length (the paper's ``dmin``), or 0.0 if no edges."""
        return self._edge_length_stats()[1]

    def max_edge_length(self) -> float:
        """Return the maximum edge length (the paper's ``τmax``), or 0.0 if no edges."""
        return self._edge_length_stats()[2]

    def _edge_length_stats(self) -> Tuple[float, float, float]:
        if self._length_stats is None:
            if self._lengths.size == 0:
                self._length_stats = (0.0, 0.0, 0.0)
            else:
                # Each undirected edge appears twice in the CSR, hence the /2.
                self._length_stats = (
                    float(self._lengths.sum()) / 2.0,
                    float(self._lengths.min()),
                    float(self._lengths.max()),
                )
        return self._length_stats

    def bounding_box(self) -> Tuple[float, float, float, float]:
        """Return ``(min_x, min_y, max_x, max_y)`` over all node embeddings."""
        if self._ids.size == 0:
            raise GraphError("bounding_box of an empty network is undefined")
        return (
            float(self._xs.min()),
            float(self._ys.min()),
            float(self._xs.max()),
            float(self._ys.max()),
        )

    # ------------------------------------------------------------------ traversal
    def bfs_order(self, start: int) -> List[int]:
        """Return node ids reachable from ``start`` in breadth-first order."""
        start_index = self.index_of(start)
        indptr, columns, _, _, ids = self._lists()
        visited = [False] * len(ids)
        visited[start_index] = True
        order_indices: List[int] = [start_index]
        head = 0
        while head < len(order_indices):
            u = order_indices[head]
            head += 1
            for slot in range(indptr[u], indptr[u + 1]):
                v = columns[slot]
                if not visited[v]:
                    visited[v] = True
                    order_indices.append(v)
        return [ids[index] for index in order_indices]

    def connected_components(self) -> List[Set[int]]:
        """Return the connected components of the snapshot as sets of node ids."""
        remaining: Set[int] = set(self._lists()[4])
        components: List[Set[int]] = []
        while remaining:
            start = next(iter(remaining))
            component = set(self.bfs_order(start))
            components.append(component)
            remaining -= component
        return components

    def is_connected(self) -> bool:
        """Return ``True`` if the snapshot has one connected component (or is empty)."""
        ids = self._lists()[4]
        if not ids:
            return True
        return len(self.bfs_order(ids[0])) == len(ids)

    # ------------------------------------------------------------------ derived views
    def window_view(self, window: "Rectangle") -> "CompactNetwork":
        """Return the snapshot restricted to the nodes inside ``window``.

        The node filter is one vectorised coordinate comparison and the CSR is
        re-numbered with numpy kernels — no per-node Python work — so extracting a
        query window from a frozen snapshot costs a small fraction of rebuilding a
        dict-backed subgraph. Only edges with both endpoints inside the window are
        kept, matching :func:`repro.network.subgraph.induced_subgraph`.
        """
        return self._masked_view(window.contains_points(self._xs, self._ys))

    def window_node_ids(self, window: "Rectangle") -> List[int]:
        """Return the ids of the nodes inside ``window`` (vectorised point test)."""
        return self._ids[window.contains_points(self._xs, self._ys)].tolist()

    def subgraph(self, node_ids: Iterable[int]) -> "CompactNetwork":
        """Return the snapshot induced by ``node_ids`` (nodes must exist).

        The result keeps the snapshot's node order restricted to the kept set,
        regardless of the order ``node_ids`` provides them in
        (:meth:`RoadNetwork.subgraph <repro.network.graph.RoadNetwork.subgraph>`
        by contrast follows the caller-provided order — pass ids in network
        iteration order there when cross-backend order parity matters).

        Raises:
            NodeNotFoundError: If any requested node is not in the snapshot.
        """
        mask = np.zeros(self._ids.shape[0], dtype=bool)
        for node_id in node_ids:
            mask[self.index_of(node_id)] = True
        return self._masked_view(mask)

    def _masked_view(self, mask: np.ndarray) -> "CompactNetwork":
        keep = np.flatnonzero(mask)
        new_position = np.full(self._ids.shape[0], -1, dtype=np.int32)
        new_position[keep] = np.arange(keep.size, dtype=np.int32)
        rows = self._entry_rows()
        entry_keep = mask[rows] & mask[self._indices]
        new_indices = new_position[self._indices[entry_keep]]
        new_lengths = self._lengths[entry_keep]
        # Kept entries stay grouped by (ordered) source row, so a bincount over the
        # re-numbered rows rebuilds the row pointers directly.
        counts = np.bincount(new_position[rows[entry_keep]], minlength=keep.size)
        new_indptr = np.zeros(keep.size + 1, dtype=np.int32)
        np.cumsum(counts, out=new_indptr[1:])
        return CompactNetwork(
            self._ids[keep],
            self._xs[keep],
            self._ys[keep],
            new_indptr,
            new_indices.astype(np.int32, copy=False),
            new_lengths,
            validate_ids=False,  # a subset of this snapshot's already-unique ids
        )

    def _entry_rows(self) -> np.ndarray:
        """Row (source-node position) of every CSR entry, cached after first use."""
        if self._row_of_entry is None:
            self._row_of_entry = np.repeat(
                np.arange(self._ids.shape[0], dtype=np.int32), np.diff(self._indptr)
            )
        return self._row_of_entry

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CompactNetwork(nodes={self.num_nodes}, edges={self.num_edges})"
