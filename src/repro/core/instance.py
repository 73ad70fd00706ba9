"""The solver input: a windowed, weighted road-network instance.

Every LCMSR algorithm in the paper works on the same derived input: the sub-network
induced by the nodes inside ``Q.Λ`` (``VQ``/``EQ``) together with the per-node query
weights σ_v obtained from the index layer. :class:`ProblemInstance` packages exactly
that, and :func:`build_instance` produces it either from the columnar σ_v pipeline
(the serving path), from the object-loop reference scorer, or from explicit node
weights (unit tests, the paper's Figure 2 example).

Since the dense-substrate refactor an instance carries *two* coupled views of the
same input:

* the **dict view** — ``weights: Dict[int, float]`` keyed by global node ids,
  consumed by the reference solver backend (and by the Exact oracle); and
* the **dense view** — a :class:`~repro.core.dense.DenseInstance` of
  position-indexed arrays, consumed by the solvers' array-first hot loops.

Either view can be materialised from the other (lazily, cached), and solvers
must return byte-identical results on both — the cross-backend parity suite
(``tests/core/test_solver_backend_parity.py``) enforces it. ``solver_backend``
selects which view the solvers take: ``"auto"`` (dense when the builder
attached one — the pipeline hot path — dict otherwise), ``"dense"`` (force the
substrate, building it on demand) or ``"dict"`` (force the reference loops).
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Mapping, Optional, Set

from repro.core.dense import DenseInstance
from repro.core.query import LCMSRQuery
from repro.exceptions import QueryError
from repro.network.compact import CompactNetwork, GraphView
from repro.network.subgraph import Rectangle, induced_subgraph
from repro.textindex.columnar import WeightPipeline
from repro.textindex.relevance import RelevanceScorer

SOLVER_BACKENDS = ("auto", "dense", "dict")
"""The valid ``solver_backend`` selectors (shared by every validation site)."""

PRUNING_POLICIES = ("auto", "on", "off")
"""The valid ``pruning`` policy selectors (shared by every validation site).

``"auto"`` and ``"on"`` both enable bound-based skipping (there is currently no
heuristic that would make them differ — ``"auto"`` is the forward-compatible
default); ``"off"`` forces the unpruned reference paths. Pruning only ever
licences skips of provably irrelevant work, so results are byte-identical under
every policy (``tests/core/test_pruning_parity.py`` enforces this).
"""


class ProblemInstance:
    """The windowed, weighted graph a solver consumes.

    Attributes:
        graph: The sub-network induced by the nodes inside ``Q.Λ`` (or the full
            network when the query has no window). Either backend — a dict-backed
            :class:`~repro.network.graph.RoadNetwork` or a frozen
            :class:`~repro.network.compact.CompactNetwork` window view — solvers
            treat it as read-only and code against the
            :class:`~repro.network.compact.GraphView` protocol.
        weights: Positive node weights σ_v for the relevant nodes; nodes absent from
            the mapping have weight 0. Materialised lazily from the dense arrays
            when the instance was created dense-first (e.g. out of the serving
            layer's substrate cache) — the rebuilt dict iterates in the source
            dict's order, so the reference backend stays byte-identical.
        query: The originating LCMSR query.
        build_seconds: Time spent building the instance (index probing + windowing);
            reported separately from solver runtime, mirroring the paper's offline /
            online split.
        dense: The attached :class:`~repro.core.dense.DenseInstance`, or ``None``
            when only the dict view exists (use :meth:`ensure_dense` to build it).
        solver_backend: ``"auto"`` / ``"dense"`` / ``"dict"`` — which view the
            solvers consume (see the module docstring).
        pruning: ``"auto"`` / ``"on"`` / ``"off"`` — whether solvers may take
            bound-licensed skips (see :data:`PRUNING_POLICIES`); results are
            byte-identical either way.

    Instances are immutable by contract: neither view nor the derived aggregates
    are ever invalidated.
    """

    def __init__(
        self,
        graph: GraphView,
        weights: Optional[Dict[int, float]] = None,
        query: Optional[LCMSRQuery] = None,
        build_seconds: float = 0.0,
        dense: Optional[DenseInstance] = None,
        solver_backend: str = "auto",
        pruning: str = "auto",
        budget=None,
        sampling=None,
    ) -> None:
        if weights is None and dense is None:
            raise QueryError("a ProblemInstance needs weights, a dense substrate, or both")
        if query is None:
            raise QueryError("a ProblemInstance needs its originating query")
        if solver_backend not in SOLVER_BACKENDS:
            raise QueryError(
                f"solver_backend must be one of {SOLVER_BACKENDS}, got {solver_backend!r}"
            )
        if pruning not in PRUNING_POLICIES:
            raise QueryError(
                f"pruning must be one of {PRUNING_POLICIES}, got {pruning!r}"
            )
        self.graph = graph
        self.query = query
        self.build_seconds = build_seconds
        self.dense = dense
        self.solver_backend = solver_backend
        self.pruning = pruning
        # Anytime tier (repro.core.anytime): an optional cooperative Budget the
        # solvers poll in their hot loops, and optional SampledWeights metadata
        # when σ_v came from the sampled estimator. None (the default) keeps
        # every solver code path literally unchanged — the exact-policy
        # byte-identity contract.
        self.budget = budget
        self.sampling = sampling
        self._weights = weights
        # Derived aggregates, computed once on demand (instances are immutable).
        self._sigma_max: Optional[float] = None
        self._total_weight: Optional[float] = None
        self._relevant_nodes: Optional[Set[int]] = None

    # ------------------------------------------------------------------ views
    @property
    def weights(self) -> Dict[int, float]:
        """The dict view of σ_v (materialised lazily from the dense arrays)."""
        if self._weights is None:
            assert self.dense is not None
            self._weights = self.dense.weights_dict()
        return self._weights

    def dense_view(self) -> Optional[DenseInstance]:
        """The dense view the solvers should consume, or ``None`` for the dict path.

        Resolution follows :attr:`solver_backend`: ``"dict"`` always returns
        ``None``; ``"dense"`` builds and caches the substrate on demand; and
        ``"auto"`` returns whatever the instance builder attached (the columnar
        pipeline path attaches one, the scalar/test paths do not).
        """
        if self.solver_backend == "dict":
            return None
        if self.solver_backend == "dense":
            return self.ensure_dense()
        return self.dense

    def ensure_dense(self) -> DenseInstance:
        """Build (and cache) the dense substrate from the dict view if missing."""
        if self.dense is None:
            self.dense = DenseInstance.from_graph(self.graph, self.weights)
        return self.dense

    def with_backend(self, solver_backend: str) -> "ProblemInstance":
        """Return a sibling instance sharing every view but pinned to a backend.

        The graph, dict weights and dense substrate are shared, not copied —
        the parity suite and the runner use this to solve one built instance
        under both backends.
        """
        # Validation happens in the constructor below.
        sibling = ProblemInstance(
            graph=self.graph,
            weights=self._weights,
            query=self.query,
            build_seconds=self.build_seconds,
            dense=self.dense,
            solver_backend=solver_backend,
            pruning=self.pruning,
            budget=self.budget,
            sampling=self.sampling,
        )
        if solver_backend == "dense":
            sibling.ensure_dense()
            # Share the lazily built substrate back so repeated switches are free.
            if self.dense is None:
                self.dense = sibling.dense
        return sibling

    def with_pruning(self, pruning: str) -> "ProblemInstance":
        """Return a sibling instance sharing every view but pinned to a pruning policy.

        Like :meth:`with_backend`, nothing is copied — the benchmark and the
        parity suite use this to solve one built instance pruned and unpruned.
        """
        return ProblemInstance(
            graph=self.graph,
            weights=self._weights,
            query=self.query,
            build_seconds=self.build_seconds,
            dense=self.dense,
            solver_backend=self.solver_backend,
            pruning=pruning,
            budget=self.budget,
            sampling=self.sampling,
        )

    def with_budget(self, budget) -> "ProblemInstance":
        """Return a sibling instance sharing every view but carrying a solve budget.

        The serving layer caches budget-free instances and attaches a fresh
        :class:`~repro.core.anytime.Budget` per anytime query via this copy, so
        a deadline never leaks into a cached instance (or into an exact query
        served from the same cache entry).
        """
        return ProblemInstance(
            graph=self.graph,
            weights=self._weights,
            query=self.query,
            build_seconds=self.build_seconds,
            dense=self.dense,
            solver_backend=self.solver_backend,
            pruning=self.pruning,
            budget=budget,
            sampling=self.sampling,
        )

    @property
    def pruning_enabled(self) -> bool:
        """Whether solvers may take bound-licensed skips (``"auto"`` resolves to yes)."""
        return self.pruning != "off"

    # ------------------------------------------------------------------ derived facts
    @property
    def num_candidate_nodes(self) -> int:
        """``|VQ|``: the number of nodes inside the query window."""
        return self.graph.num_nodes

    @property
    def num_candidate_edges(self) -> int:
        """``|EQ|``: the number of edges with both endpoints inside the window."""
        return self.graph.num_edges

    @property
    def has_relevant_nodes(self) -> bool:
        """``True`` if at least one node has positive weight."""
        if self._weights is None and self.dense is not None:
            return bool(self.dense.relevant_positions().size)
        return any(weight > 0 for weight in self.weights.values())

    def weight_of(self, node_id: int) -> float:
        """Return σ_v (0.0 for nodes without relevant objects)."""
        return self.weights.get(node_id, 0.0)

    def sigma_max(self) -> float:
        """Return the largest node weight in the instance (0.0 if none; cached)."""
        if self._sigma_max is None:
            if self._weights is None and self.dense is not None:
                self._sigma_max = self.dense.sigma_max
            else:
                self._sigma_max = max(self.weights.values(), default=0.0)
        return self._sigma_max

    def total_weight(self) -> float:
        """Return the sum of all node weights in the instance (cached).

        The dense substrate replays the dict iteration order when summing, so
        the cached value is bit-equal on both views.
        """
        if self._total_weight is None:
            if self._weights is None and self.dense is not None:
                self._total_weight = self.dense.total_weight
            else:
                self._total_weight = sum(self.weights.values())
        return self._total_weight

    def relevant_nodes(self) -> Set[int]:
        """Return the ids of nodes with positive weight (cached; treat as read-only)."""
        if self._relevant_nodes is None:
            self._relevant_nodes = {
                node_id for node_id, weight in self.weights.items() if weight > 0
            }
        return self._relevant_nodes

    def restricted_to(self, node_ids: Iterable[int]) -> "ProblemInstance":
        """Return a copy of the instance restricted to a node subset (used in tests)."""
        keep = set(node_ids)
        return ProblemInstance(
            graph=self.graph.subgraph(keep),
            weights={n: w for n, w in self.weights.items() if n in keep},
            query=self.query,
            build_seconds=self.build_seconds,
            solver_backend=self.solver_backend,
            pruning=self.pruning,
        )


def build_instance(
    network: GraphView,
    query: LCMSRQuery,
    scorer: Optional[RelevanceScorer] = None,
    node_weights: Optional[Mapping[int, float]] = None,
    pipeline: Optional[WeightPipeline] = None,
    pruning: str = "auto",
    overlay=None,
    sample_epsilon: Optional[float] = None,
    sample_seed: int = 0,
) -> ProblemInstance:
    """Build the solver input for ``query`` over ``network``.

    Exactly one source of node weights must be provided:

    * ``pipeline`` — the columnar hot path: σ_v computed with vectorised array
      kernels over the frozen :class:`~repro.textindex.columnar.ColumnarScoringIndex`
      (bit-identical to the ``scorer`` reference backend). When the window graph
      is a frozen CSR view, the instance additionally carries an attached
      :class:`~repro.core.dense.DenseInstance` so the solvers' array-first hot
      loops run without any dict re-keying; or
    * ``scorer`` — score objects one by one through a :class:`RelevanceScorer`
      (the reference the pipeline is checked against); or
    * ``node_weights`` — explicit per-node weights (unit tests, Figure 2 example,
      rating-based scoring computed by the caller).

    ``pruning`` selects the instance's bound-based skipping policy (see
    :data:`PRUNING_POLICIES`). On the pipeline path with a windowed query it
    additionally enables the builder's own skip: when the window's admissible
    σ-mass bound is exactly zero, the σ computation is bypassed entirely (the
    window graph is still built identically).

    ``overlay`` (pipeline path only) is a
    :class:`~repro.service.generations.DeltaOverlay` with pending mutations:
    node weights then come from the overlay's base+delta merge instead of the
    frozen pipeline, and the zero-σ-mass window skip is disabled — the cell
    mass bounds describe the base generation only, so a window empty in the
    base may still hold a positive overlay contribution.

    ``sample_epsilon`` (pipeline path only) switches σ_v to the sampled
    Horvitz–Thompson estimator (:meth:`WeightPipeline.node_weights_sampled
    <repro.textindex.columnar.WeightPipeline.node_weights_sampled>`) seeded
    with ``sample_seed``; the instance then carries the sampling metadata
    (per-node variances) under ``instance.sampling``. An overlay with pending
    mutations takes precedence — the merge is exact, so the sampled tier
    degrades to exact answers (CI 0) until the overlay is compacted.

    Returns:
        The :class:`ProblemInstance` restricted to ``Q.Λ``.

    Raises:
        QueryError: If no weight source (or more than one) is given, or if
            ``overlay`` is passed without ``pipeline``.
    """
    sources = sum(
        1 for source in (scorer, node_weights, pipeline) if source is not None
    )
    if sources != 1:
        raise QueryError(
            "exactly one of pipeline, scorer, or node_weights must be provided"
        )
    if overlay is not None and pipeline is None:
        raise QueryError("overlay merging requires the pipeline weight source")

    start = time.perf_counter()
    if query.region is not None:
        window_graph = induced_subgraph(network, query.region)
    else:
        # A window-less query spans the whole network. Solvers treat instance
        # graphs as read-only, so the shared graph is used directly — deep-copying
        # it per instance was pure overhead (and pinned one full copy per cached
        # instance in the serving layer).
        window_graph = network

    weights: Dict[int, float]
    if pipeline is not None:
        sampling = None
        if overlay is not None and overlay.has_pending:
            # Base+delta merge: base columnar sums with superseded rows masked
            # out, overlay objects re-scored by the scalar reference
            # arithmetic. The zero-mass skip below must not run — the cell
            # bounds know nothing about pending mutations.
            weights = overlay.node_weights(
                query.keywords, window=query.region, node_window=query.region
            )
        elif (
            pruning != "off"
            and query.region is not None
            and pipeline.bounds.window_mass_bound(query.region) == 0.0
        ):
            # Zero-σ-mass window skip: the covering cells' mass bound is exactly
            # 0.0 only when every mapped object the window could select has a
            # zero score potential, i.e. the reference computation would return
            # no positive node sums. The window graph is built identically — the
            # skip drops only the σ computation, so |VQ| (and hence TGEN's θ
            # scaling) is untouched and results stay byte-identical.
            weights = {}
        elif sample_epsilon is not None:
            sampling = pipeline.node_weights_sampled(
                query.keywords,
                epsilon=sample_epsilon,
                rng=sample_seed,
                window=query.region,
                node_window=query.region,
            )
            weights = sampling.weights
        else:
            # The pipeline restricts nodes to the window with one vectorised
            # coordinate comparison (a mapped node lies in the window graph
            # exactly when its coordinates lie in Q.Λ) — no per-query node-id
            # set needed.
            weights = pipeline.node_weights(
                query.keywords, window=query.region, node_window=query.region
            )
        dense: Optional[DenseInstance] = None
        if isinstance(window_graph, CompactNetwork):
            dense = DenseInstance.from_graph(window_graph, weights)
        build_seconds = time.perf_counter() - start
        return ProblemInstance(
            graph=window_graph,
            weights=weights,
            query=query,
            build_seconds=build_seconds,
            dense=dense,
            pruning=pruning,
            sampling=sampling,
        )

    window_nodes = set(window_graph.node_ids())
    if node_weights is not None:
        weights = {
            node_id: float(weight)
            for node_id, weight in node_weights.items()
            if node_id in window_nodes and weight > 0
        }
    else:
        assert scorer is not None
        weights = scorer.node_weights(
            query.keywords, candidate_nodes=window_nodes, window=query.region
        )
    build_seconds = time.perf_counter() - start
    return ProblemInstance(
        graph=window_graph,
        weights=weights,
        query=query,
        build_seconds=build_seconds,
        pruning=pruning,
    )
