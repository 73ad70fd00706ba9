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
to rescan the weight dict for: ``sigma_max`` and the window's ``tau_max``
(longest edge).

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

Instances are immutable: nothing is assigned to one after construction, so a
substrate shared across threads or held by the serving layer's instance cache
stays exactly as built. They pickle down to their defining arrays (the serving
layer caches them instead of full :class:`~repro.core.instance.ProblemInstance`
objects — no per-entry weight dict and no per-entry graph), and a cache entry
holds the arrays and ``__init__``'s aggregates only, whichever solver ran on
it. The Python paths (APP's quota solver, Exact and the reference twins) walk
the list mirrors of the instance's own window graph — the window a fresh
build extracted, or the view
:meth:`DenseInstance.to_problem_instance` makes for each rebind — or lists
they build per solve, so what they build dies with the query.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping

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
        return cls(ids, xs, ys, indptr, indices, lengths, sigma, positions)

    def __reduce__(self):
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
        """Positions with σ_v > 0, in ascending position order."""
        return np.flatnonzero(self.sigma > 0.0).astype(np.int32, copy=False)

    # ------------------------------------------------------------------ views
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
        order = self.relevant_order
        return dict(zip(self.ids[order].tolist(), self.sigma[order].tolist()))

    def to_problem_instance(
        self, query: "LCMSRQuery", sampling=None
    ) -> "ProblemInstance":
        """Wrap the substrate into a full :class:`ProblemInstance` for ``query``.

        The weight dict is materialised lazily on first access; the Greedy and
        TGEN hot loops never touch it, while APP's quota solver and the Exact
        oracle (deliberate dict-view consumers) rebuild it per wrapper. Each
        wrapper gets its own window view over the shared arrays, so whatever
        a solve builds on the graph dies with the wrapper. This is how the
        serving layer's instance cache re-binds one cached substrate to many
        queries; ``sampling`` re-attaches the
        :class:`~repro.textindex.columnar.SampledWeights` record of a sampled
        build. Solvers take the same skips on the wrapper as on a fresh
        build.
        """
        from repro.core.instance import ProblemInstance  # deferred: cycle guard

        graph = CompactNetwork(
            self.ids,
            self.xs,
            self.ys,
            self.indptr,
            self.indices,
            self.lengths,
            validate_ids=False,  # positions were derived from unique ids
        )
        return ProblemInstance(
            graph=graph,
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
