"""The dense problem-instance substrate: position-indexed solver input.

The Greedy, TGEN and APP loops run on one input: :class:`DenseInstance`
renumbers the query window into contiguous *local positions* and stores
everything a solver's hot loop needs as flat arrays indexed by position — no
per-hop hashing of global node ids:

* ``ids``            — local position → global node id (int64), in window order;
* ``xs / ys``        — node coordinates (float64), aligned with ``ids``;
* ``indptr``         — CSR row pointers (int32), one entry per node plus one;
* ``indices``        — CSR columns as **local positions** (int32);
* ``lengths``        — edge lengths (float64), aligned with ``indices``;
* ``sigma``          — σ_v per position (float64; 0.0 for irrelevant nodes);
* ``relevant_order`` — positions of the weighted nodes in *weight-dict
  iteration order* (int32) — the key to the identity contract below.

On top of the arrays the instance precomputes the aggregates every solver used
to rescan the weight dict for: ``sigma_max``, the relevant positions, and the
window's ``tau_max`` (longest edge).

**Identity contract.** The substrate is a *representation* change, not an
algorithm change: solvers running on it must return byte-identical results to
their dict-loop twins in :mod:`repro.core.reference` (same regions, same
tie-breaks, bit-equal floats). Three properties make that possible and are
load-bearing:

1. **Order preservation** — local positions follow the window snapshot's node
   order, and per-row neighbour order is the snapshot's CSR row order (which
   ``neighbor_items`` replays); traversals therefore visit nodes and edges in
   exactly the reference order.
2. **Dict-order replay** — ``relevant_order`` records the iteration order of
   the source weight dict (the columnar pipeline's node-table order on the hot
   path), so :meth:`weights_dict` re-materialises a dict whose items iterate
   identically.
3. **Same arithmetic** — vectorised kernels keep the reference expression
   trees (IEEE-754 elementwise ops are exact), so ranks, scaled weights and
   length checks land on the same bits.

Instances are immutable after construction, cheap to share across threads, and
pickle down to their defining arrays (the serving layer caches them instead of
full :class:`~repro.core.instance.ProblemInstance` objects — no per-entry
weight dict and no per-entry graph copies). The list mirrors
(:meth:`DenseInstance.ids_list`, :meth:`DenseInstance.sigma_list`,
:meth:`DenseInstance.position_of` and the window graph's
``adjacency_arrays()``) are built lazily and then stay on the instance, so a
cached entry keeps them. Greedy and TGEN solves on the compiled kernel build
none of them; the paths that do are the solvers' Python fallbacks, APP's quota
solver, Exact and the reference twins.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

import numpy as np

from repro.exceptions import QueryError
from repro.network.compact import CompactNetwork

if TYPE_CHECKING:  # pragma: no cover - typing only (instance imports dense)
    from repro.core.instance import ProblemInstance
    from repro.core.query import LCMSRQuery


class DenseInstance:
    """A window-local, position-indexed view of one solver input.

    Built from a frozen window snapshot plus a node-weight dict — see
    :meth:`from_graph` — and treated as read-only everywhere afterwards.
    """

    __slots__ = (
        "ids",
        "xs",
        "ys",
        "indptr",
        "indices",
        "lengths",
        "sigma",
        "relevant_order",
        "sigma_max",
        "tau_max",
        "_relevant_positions",
        "_graph",
        "_ids_list",
        "_sigma_list",
        "_position_of",
    )

    def __init__(
        self,
        ids: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        lengths: np.ndarray,
        sigma: np.ndarray,
        relevant_order: np.ndarray,
        graph: Optional[CompactNetwork] = None,
    ) -> None:
        self.ids = np.asarray(ids, dtype=np.int64)
        self.xs = np.asarray(xs, dtype=np.float64)
        self.ys = np.asarray(ys, dtype=np.float64)
        self.indptr = np.asarray(indptr, dtype=np.int32)
        self.indices = np.asarray(indices, dtype=np.int32)
        self.lengths = np.asarray(lengths, dtype=np.float64)
        self.sigma = np.asarray(sigma, dtype=np.float64)
        self.relevant_order = np.asarray(relevant_order, dtype=np.int32)
        n = self.ids.shape[0]
        if self.sigma.shape[0] != n:
            raise QueryError("sigma must align with the node table")
        if self.indptr.shape[0] != n + 1:
            raise QueryError("indptr must have num_nodes + 1 entries")
        # Max over floats is exact in any order, so it equals the reference's.
        if self.relevant_order.size:
            self.sigma_max = float(self.sigma[self.relevant_order].max())
        else:
            self.sigma_max = 0.0
        self.tau_max = float(self.lengths.max()) if self.lengths.size else 0.0
        self._relevant_positions: Optional[np.ndarray] = None
        self._graph = graph
        self._ids_list: Optional[List[int]] = None
        self._sigma_list: Optional[List[float]] = None
        self._position_of: Optional[Dict[int, int]] = None

    # ------------------------------------------------------------------ construction
    @classmethod
    def from_graph(
        cls, graph: CompactNetwork, weights: Mapping[int, float]
    ) -> "DenseInstance":
        """Build the dense substrate for the window snapshot ``graph`` + ``weights``.

        Shares the snapshot's six arrays and maps the weight keys to positions
        with one vectorised searchsorted.

        Raises:
            QueryError: If a weight key is not a node of ``graph`` (instances
                built by :func:`~repro.core.instance.build_instance` always
                satisfy this).
        """
        ids, xs, ys = graph.csr_node_arrays()
        indptr, indices, lengths = graph.csr_index_arrays()
        n = ids.shape[0]
        sigma = np.zeros(n, dtype=np.float64)
        if weights:
            keys = np.fromiter(weights.keys(), dtype=np.int64, count=len(weights))
            values = np.fromiter(weights.values(), dtype=np.float64, count=len(weights))
            order, sorted_ids = graph.id_sort_order()
            slots = np.searchsorted(sorted_ids, keys)
            if (slots >= n).any() or (sorted_ids[np.minimum(slots, n - 1)] != keys).any():
                raise QueryError("node weights reference nodes outside the window graph")
            positions = order[slots].astype(np.int32, copy=False)
            sigma[positions] = values
        else:
            positions = np.empty(0, dtype=np.int32)
        return cls(ids, xs, ys, indptr, indices, lengths, sigma, positions, graph=graph)

    def __reduce__(self):
        # The graph view is rebuilt from the shared arrays on unpickling; only
        # the defining arrays cross process boundaries.
        return (
            DenseInstance,
            (
                self.ids,
                self.xs,
                self.ys,
                self.indptr,
                self.indices,
                self.lengths,
                self.sigma,
                self.relevant_order,
            ),
        )

    # ------------------------------------------------------------------ inspection
    @property
    def num_nodes(self) -> int:
        """``|VQ|``: number of nodes in the window."""
        return int(self.ids.shape[0])

    def relevant_positions(self) -> np.ndarray:
        """Positions with σ_v > 0, in ascending position order (cached)."""
        if self._relevant_positions is None:
            self._relevant_positions = np.flatnonzero(self.sigma > 0.0).astype(
                np.int32, copy=False
            )
        return self._relevant_positions

    def ids_list(self) -> List[int]:
        """Flat Python mirror of :attr:`ids` (hot loops index lists, not arrays)."""
        if self._ids_list is None:
            self._ids_list = self.ids.tolist()
        return self._ids_list

    def sigma_list(self) -> List[float]:
        """Flat Python mirror of :attr:`sigma`."""
        if self._sigma_list is None:
            self._sigma_list = self.sigma.tolist()
        return self._sigma_list

    def position_of(self) -> Dict[int, int]:
        """The global-id → local-position map (built lazily)."""
        if self._position_of is None:
            self._position_of = {
                node_id: index for index, node_id in enumerate(self.ids_list())
            }
        return self._position_of

    # ------------------------------------------------------------------ views
    def graph_view(self) -> CompactNetwork:
        """The window as a :class:`CompactNetwork` (shares the arrays, cached)."""
        if self._graph is None:
            self._graph = CompactNetwork(
                self.ids,
                self.xs,
                self.ys,
                self.indptr,
                self.indices,
                self.lengths,
                validate_ids=False,  # positions were derived from unique ids
            )
        return self._graph

    def weights_dict(self) -> Dict[int, float]:
        """Re-materialise the node-weight dict, in the source dict's order.

        The returned dict iterates exactly like the dict the instance was built
        from (``relevant_order`` recorded it), which is what keeps the dict
        consumers (Exact, findOptTree, the reference twins) byte-identical
        when they run on a rebuilt view.

        Deliberately NOT memoised on the substrate: substrates sit in the
        serving layer's LRU precisely because they carry no per-entry dict, so
        the dict view is cached on the per-query :class:`ProblemInstance`
        wrapper (its ``weights`` property) and dies with it.
        """
        ids = self.ids_list()
        sigma = self.sigma_list()
        return {ids[pos]: sigma[pos] for pos in self.relevant_order.tolist()}

    def to_problem_instance(
        self, query: "LCMSRQuery", sampling=None
    ) -> "ProblemInstance":
        """Wrap the substrate into a full :class:`ProblemInstance` for ``query``.

        The weight dict is materialised lazily on first access; the Greedy and
        TGEN hot loops never touch it, while APP's quota solver and the Exact
        oracle (deliberate dict-view consumers) rebuild it per wrapper. This is
        how the serving layer's instance cache re-binds one cached substrate
        to many queries; ``sampling`` re-attaches the
        :class:`~repro.textindex.columnar.SampledWeights` record of a sampled
        build. The wrapper is pruned, exactly like a fresh build.
        """
        from repro.core.instance import ProblemInstance  # deferred: cycle guard

        return ProblemInstance(
            graph=self.graph_view(),
            weights=None,
            query=query,
            build_seconds=0.0,
            dense=self,
            sampling=sampling,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"DenseInstance(nodes={self.num_nodes}, edges={int(self.indices.shape[0]) // 2}, "
            f"relevant={int(self.relevant_order.size)})"
        )
