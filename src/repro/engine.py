"""High-level facade: build the indexes once, then ask LCMSR queries by name.

:class:`LCMSREngine` is the entry point application code (and the examples) should
use. It owns an :class:`~repro.service.bundle.IndexBundle` — the frozen road
network, the object corpus, the object → node mapping and the columnar scoring
index — and exposes ``query`` / ``query_topk`` calls that accept plain
keywords and return :class:`~repro.core.region.Region` results, dispatching to APP,
TGEN or Greedy by name. For batched / concurrent serving over the same indexes, wrap
an engine in :class:`repro.service.QueryService`.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

from dataclasses import replace

from repro.core.anytime import Budget, QueryPolicy, ResultQuality
from repro.core.app import APPSolver
from repro.core.exact import ExactSolver
from repro.core.greedy import GreedySolver
from repro.core.instance import ProblemInstance, build_instance
from repro.core.query import LCMSRQuery
from repro.core.result import RegionResult, TopKResult
from repro.core.tgen import TGENSolver
from repro.exceptions import QueryError
from repro.network.compact import GraphView
from repro.network.graph import RoadNetwork
from repro.network.subgraph import Rectangle
from repro.objects.corpus import ObjectCorpus
from repro.objects.mapping import NodeObjectMap
from repro.service.bundle import IndexBundle
from repro.textindex.relevance import ScoringMode

SolverUnion = Union[APPSolver, TGENSolver, GreedySolver, ExactSolver]


def _default_solvers() -> Dict[str, SolverUnion]:
    """The paper's solver registry with default parameters."""
    return {
        "app": APPSolver(),
        "tgen": TGENSolver(),
        "greedy": GreedySolver(),
        "exact": ExactSolver(),
    }


class LCMSREngine:
    """Index a dataset once and answer LCMSR queries.

    Construction validates its configuration *before* any index is built, so a
    misconfigured engine fails in microseconds instead of after a multi-second
    offline build: ``scoring_mode`` must name a scoring mode and
    ``default_algorithm`` a registered solver. Every instance the engine
    builds is pruned: solvers take the bound-licensed skips of
    :mod:`repro.core.bounds`, which never change an answer.

    Args:
        network: The road network.
        corpus: The geo-textual objects.
        scoring_mode: Per-object weight definition (see
            :class:`~repro.textindex.relevance.ScoringMode`), as the enum or its
            value string: ``TEXT_RELEVANCE`` (the paper's default) scores
            objects by TF-IDF vector-space relevance; ``RATING_IF_MATCH`` uses
            the object's rating when it contains any query keyword;
            ``LANGUAGE_MODEL`` uses a Jelinek–Mercer smoothed query likelihood.
        default_algorithm: Algorithm used when a query does not name one. One of
            ``"tgen"`` (the paper's accuracy recommendation and the default),
            ``"app"`` (the (5 + ε)-approximation with a quality guarantee),
            ``"greedy"`` (fastest, no guarantee) or ``"exact"`` (brute-force
            oracle, tiny windows only).

    Raises:
        QueryError: If ``scoring_mode`` or ``default_algorithm`` is unknown.
    """

    def __init__(
        self,
        network: RoadNetwork,
        corpus: ObjectCorpus,
        scoring_mode: Union[ScoringMode, str] = ScoringMode.TEXT_RELEVANCE,
        default_algorithm: str = "tgen",
    ) -> None:
        # Fail fast on configuration errors before paying for the index build:
        # the solver registry is cheap, so it is built (and the default name
        # validated against it) first; IndexBundle.build validates
        # scoring_mode before any index work.
        solvers = _default_solvers()
        if default_algorithm.lower() not in solvers:
            raise QueryError(
                f"unknown default algorithm {default_algorithm!r}; "
                f"known: {sorted(solvers)}"
            )
        bundle = IndexBundle.build(network, corpus, scoring_mode=scoring_mode)
        self._attach(bundle, solvers, default_algorithm)

    def _attach(
        self,
        bundle: IndexBundle,
        solvers: Dict[str, SolverUnion],
        default_algorithm: str,
    ) -> None:
        self._bundle = bundle
        self._default_algorithm = default_algorithm.lower()
        self._solvers = solvers
        self._solver_generation = 0
        self._solver_lock = threading.Lock()
        self._bundle_generation = 0
        self._bundle_lock = threading.Lock()
        self._overlay = None

    @classmethod
    def from_bundle(
        cls,
        bundle: IndexBundle,
        default_algorithm: str = "tgen",
    ) -> "LCMSREngine":
        """Create an engine over an already-built index bundle.

        This skips the offline build entirely — the intended path for services
        that share one :class:`~repro.service.bundle.IndexBundle` across several
        engines or worker pools.

        Args:
            bundle: The prebuilt index state.
            default_algorithm: Algorithm used when a query does not name one.

        Returns:
            An engine serving queries from the shared bundle.

        Raises:
            QueryError: If ``default_algorithm`` is unknown.
        """
        solvers = _default_solvers()
        if default_algorithm.lower() not in solvers:
            raise QueryError(
                f"unknown default algorithm {default_algorithm!r}; "
                f"known: {sorted(solvers)}"
            )
        engine = cls.__new__(cls)
        engine._attach(bundle, solvers, default_algorithm)
        return engine

    @classmethod
    def from_artifact(
        cls,
        path: Union[str, "Path"],
        default_algorithm: str = "tgen",
    ) -> "LCMSREngine":
        """Create an engine from a persisted index artifact — no offline build.

        The artifact (written by :meth:`IndexBundle.save
        <repro.service.bundle.IndexBundle.save>` or ``python -m repro build``)
        is checksum-verified and loaded with its arrays memory-mapped
        read-only, so the engine is query-ready in I/O-bound time instead of
        index-rebuild time.

        Generation-aware: when the artifact root carries a ``CURRENT`` pointer
        (written by ``python -m repro compact``), the generation it names is
        loaded instead of the base artifact; and when a delta log with pending
        mutations exists at the root, the corresponding
        :class:`~repro.service.generations.DeltaOverlay` is attached so queries
        serve the mutated world.

        Args:
            path: The artifact directory.
            default_algorithm: Algorithm used when a query does not name one.

        Returns:
            An engine serving queries from the loaded bundle.

        Raises:
            ArtifactError: If the artifact is missing, corrupt or written by an
                unsupported format version, or if ``CURRENT`` points at a
                missing/partial generation.
            QueryError: If ``default_algorithm`` is unknown.
        """
        # Deferred: repro.service.generations imports the service layer, which
        # imports this module.
        from repro.service.generations import overlay_from_delta_log, resolve_generation

        resolved = resolve_generation(path)
        bundle = IndexBundle.load(resolved)
        engine = cls.from_bundle(bundle, default_algorithm=default_algorithm)
        overlay = overlay_from_delta_log(bundle, path)
        if overlay is not None:
            engine.attach_overlay(overlay)
        return engine

    # ------------------------------------------------------------------ configuration
    @property
    def bundle(self) -> IndexBundle:
        """The engine's query-independent index state."""
        return self._bundle

    @property
    def network(self) -> RoadNetwork:
        """The indexed road network as a mutable dict-backed graph.

        For engines created with :meth:`from_artifact` the dict backend does not
        exist yet; the first access thaws it from the CSR snapshot (queries never
        need it — they run on :attr:`graph_view`).
        """
        return self._bundle.road_network()

    @property
    def graph_view(self) -> "GraphView":
        """The network representation queries traverse: the bundle's CSR snapshot."""
        return self._bundle.graph_view()

    @property
    def corpus(self) -> ObjectCorpus:
        """The indexed object corpus.

        For engines created with :meth:`from_artifact` the first access
        unpickles it (see :attr:`IndexBundle.corpus
        <repro.service.bundle.IndexBundle.corpus>`); queries never need it.
        """
        return self._bundle.corpus

    @property
    def mapping(self) -> NodeObjectMap:
        """The object → node mapping, read off the bundle's scoring columns.

        Derived on first access and cached (see :attr:`IndexBundle.mapping
        <repro.service.bundle.IndexBundle.mapping>`); queries never need it.
        """
        return self._bundle.mapping

    @property
    def scoring_mode(self) -> ScoringMode:
        """The per-object weight definition queries are scored under."""
        return self._bundle.scoring_mode

    @property
    def default_algorithm(self) -> str:
        """The solver name used when a query does not specify one."""
        return self._default_algorithm

    @property
    def solver_generation(self) -> int:
        """Counter bumped by every :meth:`configure_solver` call.

        The serving layer folds this into its result-cache keys, so results
        computed by a replaced solver are never served after reconfiguration.
        """
        return self._solver_generation

    @property
    def bundle_generation(self) -> int:
        """Counter bumped by every :meth:`swap_bundle` call.

        The solver-generation idea extended to the index state: the serving
        layer folds this into its cache keys and clears its caches when it
        changes, so a result computed against generation N is never served
        after a compaction swaps in generation N+1.
        """
        return self._bundle_generation

    @property
    def overlay(self):
        """The attached :class:`~repro.service.generations.DeltaOverlay`, or ``None``."""
        return self._overlay

    def attach_overlay(self, overlay) -> None:
        """Attach (or detach, with ``None``) a delta overlay.

        While an overlay with pending mutations is attached,
        :meth:`build_instance` merges base columnar σ_v with the overlay's
        contributions, so queries serve the mutated world without a rebuild.
        """
        self._overlay = overlay

    def swap_bundle(self, bundle: IndexBundle) -> None:
        """Atomically replace the served bundle (a generation swap).

        Called by the :class:`~repro.service.generations.Compactor` after a
        re-freeze. The overlay is dropped — its mutations are baked into the
        new bundle — and :attr:`bundle_generation` is bumped. Publication
        order mirrors :meth:`configure_solver`: the new bundle (and the
        overlay drop) land BEFORE the generation bump, so a lock-free reader
        pairing (generation, bundle) can at worst cache a new-world result
        under the old generation key — which the bump then retires — never a
        stale result under the new key.
        """
        with self._bundle_lock:
            self._bundle = bundle
            self._overlay = None
            self._bundle_generation += 1

    @property
    def bundle_cache_key(self) -> str:
        """Identity string for the world this engine currently answers from.

        Folds the bundle's dataset fingerprint, the bundle generation and the
        overlay mutation version, so two engines over different artifacts (or
        one engine across a generation swap / pending mutations) can never
        share a service cache entry.
        """
        overlay = self._overlay
        overlay_version = overlay.version if overlay is not None else 0
        return (
            f"{self._bundle.fingerprint()[:16]}"
            f":g{self._bundle_generation}:o{overlay_version}"
        )

    def configure_solver(self, name: str, solver: SolverUnion) -> None:
        """Replace or add a named solver (e.g. an APP with different α/β).

        Args:
            name: Registry name; lower-cased, so ``"Greedy"`` and ``"greedy"``
                address the same slot.
            solver: Any object with ``solve`` / ``solve_topk`` methods.
        """
        with self._solver_lock:
            # Copy-on-write: the registry dict is never mutated in place, so
            # readers (solver(), possibly on concurrent QueryService workers)
            # can snapshot it without taking the lock and still never observe a
            # half-updated registry. The lock only serialises writers. The new
            # dict is published BEFORE the generation bump: a lock-free reader
            # pairing (generation, registry) can then at worst resolve the new
            # solver under the old generation (its cached result is simply
            # never served once the bump lands) — never the old solver under
            # the new generation, which would be permanently stale.
            updated = dict(self._solvers)
            updated[name.lower()] = solver
            self._solvers = updated
            self._solver_generation += 1

    def solver(self, name: Optional[str] = None) -> SolverUnion:
        """Return the solver registered under ``name``.

        Args:
            name: Solver name; the engine's default algorithm when omitted.

        Returns:
            The registered solver instance.

        Raises:
            QueryError: If ``name`` does not match a registered solver.
        """
        # Snapshot the reference once: configure_solver() replaces the dict
        # copy-on-write (never mutates it), so the lookup below runs on one
        # consistent registry even while a concurrent reconfiguration lands.
        solvers = self._solvers
        key = (name or self._default_algorithm).lower()
        if key not in solvers:
            raise QueryError(f"unknown algorithm {name!r}; known: {sorted(solvers)}")
        return solvers[key]

    # ------------------------------------------------------------------ querying
    def build_instance(
        self, query: LCMSRQuery, policy: Optional[QueryPolicy] = None
    ) -> ProblemInstance:
        """Build the solver input for a query (exposed for advanced callers).

        The window subgraph is extracted from the bundle's frozen CSR snapshot,
        and the node weights σ_v come from the bundle's columnar
        :class:`~repro.textindex.columnar.WeightPipeline` — or, while an
        attached overlay holds pending mutations, from the overlay's merge of
        the pipeline with those mutations.

        Args:
            query: The LCMSR query to derive the instance from.
            policy: Optional :class:`~repro.core.anytime.QueryPolicy`. A
                ``sampled`` policy switches σ_v to the seeded Horvitz–Thompson
                estimator; ``exact`` / ``anytime`` / ``None`` leave instance
                building untouched (the anytime budget is attached at solve
                time, not here, so cached instances stay deadline-free).

        Returns:
            The windowed, weighted :class:`~repro.core.instance.ProblemInstance`.
        """
        sample_epsilon: Optional[float] = None
        sample_seed = 0
        if policy is not None and policy.kind == "sampled":
            sample_epsilon = policy.epsilon
            sample_seed = policy.seed
        bundle = self._bundle
        overlay = self._overlay
        if overlay is not None and overlay.bundle is not bundle:
            # A swap landed between reads; the overlay's mutations are in the
            # new bundle already, so serve it frozen.
            overlay = None
        return build_instance(
            bundle.graph_view(), query, pipeline=bundle.weight_pipeline(),
            overlay=overlay, sample_epsilon=sample_epsilon, sample_seed=sample_seed,
        )

    @staticmethod
    def _apply_policy(instance: ProblemInstance,
                      policy: Optional[QueryPolicy]) -> ProblemInstance:
        """Attach the per-solve policy state (an anytime budget) to an instance.

        Called at solve time so the deadline clock starts when solving starts,
        and so cached/shared instances never carry a stale budget. Exact and
        sampled policies return the instance unchanged.
        """
        if policy is not None and policy.kind == "anytime":
            return instance.with_budget(Budget.from_deadline_ms(policy.deadline_ms))
        return instance

    @staticmethod
    def _annotate_sampled(result, instance: ProblemInstance,
                          policy: Optional[QueryPolicy]):
        """Fold the sampled-policy ResultQuality (region CI) into result stats.

        The region CI is the 95% half-width on the returned region's estimated
        weight: member variances summed (independence approximation — see
        docs/ARCHITECTURE.md), 0.0 when the sampler enumerated exactly or an
        overlay forced the exact merge path.
        """
        if policy is None or policy.kind != "sampled":
            return result
        sampling = instance.sampling

        def annotated(region_result):
            ci = (
                sampling.region_ci(region_result.region.nodes)
                if sampling is not None
                else 0.0
            )
            stats = dict(region_result.stats)
            stats.update(ResultQuality("sampled", ci=ci).to_stats())
            return replace(region_result, stats=stats)

        if isinstance(result, TopKResult):
            results = [annotated(r) for r in result.results]
            stats = dict(result.stats)
            if results:
                stats.update(
                    {k: v for k, v in results[0].stats.items()
                     if k.startswith("quality_")}
                )
            else:
                stats.update(ResultQuality("sampled", ci=0.0).to_stats())
            return replace(result, results=results, stats=stats)
        return annotated(result)

    def query(
        self,
        keywords: Iterable[str],
        delta: float,
        region: Optional[Rectangle] = None,
        algorithm: Optional[str] = None,
        policy: Optional[QueryPolicy] = None,
    ) -> RegionResult:
        """Answer one LCMSR query.

        Args:
            keywords: Query keywords ``Q.ψ``.
            delta: Length constraint ``Q.∆`` (same unit as the network edge lengths).
            region: Region of interest ``Q.Λ``; the whole network when omitted.
            algorithm: "app", "tgen", "greedy" or "exact"; the engine default when
                omitted.
            policy: Per-query service level (``None`` = exact, today's
                byte-identical path); see :class:`~repro.core.anytime.QueryPolicy`.

        Returns:
            The best region found (empty when nothing in the window matches).
            Approximate policies add ``quality_*`` entries to ``stats`` (see
            :class:`~repro.core.anytime.ResultQuality`).

        Raises:
            QueryError: On an empty keyword set, negative ``delta`` or unknown
                algorithm name.
        """
        lcmsr_query = LCMSRQuery.create(keywords, delta=delta, region=region)
        instance = self.build_instance(lcmsr_query, policy=policy)
        result = self.solver(algorithm).solve(self._apply_policy(instance, policy))
        return self._annotate_sampled(result, instance, policy)

    def query_topk(
        self,
        keywords: Iterable[str],
        delta: float,
        k: int,
        region: Optional[Rectangle] = None,
        algorithm: Optional[str] = None,
        policy: Optional[QueryPolicy] = None,
    ) -> TopKResult:
        """Answer a top-k LCMSR query (Section 6.2).

        Args:
            keywords: Query keywords ``Q.ψ``.
            delta: Length constraint ``Q.∆``.
            k: Number of distinct regions to return.
            region: Region of interest ``Q.Λ``; the whole network when omitted.
            algorithm: Solver name; the engine default when omitted.
            policy: Per-query service level (``None`` = exact).

        Returns:
            Up to ``k`` distinct regions in decreasing score order.

        Raises:
            QueryError: On an empty keyword set, negative ``delta``, ``k < 1`` or
                unknown algorithm name.
        """
        lcmsr_query = LCMSRQuery.create(keywords, delta=delta, region=region, k=k)
        instance = self.build_instance(lcmsr_query, policy=policy)
        result = self.solver(algorithm).solve_topk(
            self._apply_policy(instance, policy), k)
        return self._annotate_sampled(result, instance, policy)
