"""The shared, immutable index state behind an engine: one build, many queries.

:class:`IndexBundle` holds everything the serving path reads that does not depend
on the query: the frozen CSR road network, the object corpus, the columnar
scoring index (which also holds the object → node mapping) and the scoring
mode. A bundle is built once — :meth:`IndexBundle.build` — and can then back
any number of engines and any number of
:class:`~repro.service.query_service.QueryService` workers concurrently: after
construction the bundle is never mutated, so sharing it across threads is safe.

Bundles also persist: :meth:`IndexBundle.save` writes a versioned on-disk artifact
(manifest + mmap-able CSR and scoring columns + the pickled corpus, see
:mod:`repro.service.persist`) and :meth:`IndexBundle.load` restores it
without re-running any of the offline build, and without unpickling the corpus
until something reads it — the path behind
:meth:`LCMSREngine.from_artifact <repro.engine.LCMSREngine.from_artifact>` and the
``python -m repro`` CLI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Optional, Union

from repro.exceptions import QueryError
from repro.network.compact import CompactNetwork
from repro.network.graph import RoadNetwork
from repro.objects.corpus import ObjectCorpus
from repro.objects.geoobject import GeoTextualObject
from repro.objects.mapping import NodeObjectMap, map_objects_to_network
from repro.textindex.columnar import ColumnarScoringIndex, WeightPipeline
from repro.textindex.relevance import ScoringMode

if TYPE_CHECKING:  # pragma: no cover - typing only (persist imports the bundle)
    from repro.datasets.synthetic import SyntheticDataset
    from repro.service.persist import ArtifactManifest, PathLike

CorpusSource = Union[ObjectCorpus, Callable[[], ObjectCorpus]]
"""What a bundle is constructed with for its corpus: the corpus itself, or a
loader that returns it on first call (see :attr:`IndexBundle.corpus`)."""


def scoring_mode_of(value: Union[ScoringMode, str]) -> ScoringMode:
    """Return ``value`` as a :class:`ScoringMode` (the enum or its value string).

    Raises:
        QueryError: If ``value`` names no scoring mode.
    """
    try:
        return ScoringMode(value)
    except ValueError:
        raise QueryError(
            f"unknown scoring mode {value!r}; "
            f"known: {[mode.value for mode in ScoringMode]}"
        ) from None


@dataclass(frozen=True)
class IndexBundle:
    """Everything the serving path needs that is query-independent.

    Attributes:
        corpus_source: The geo-textual objects ``O``, read through
            :attr:`corpus`. The build paths pass the
            :class:`~repro.objects.corpus.ObjectCorpus` itself; a bundle
            loaded from an artifact gets a
            :class:`~repro.service.persist.CorpusLoader` that unpickles
            ``index.pkl`` on first access, because no query reads the corpus.
            Left out of ``==`` and ``repr``.
        compact: The road network (paper Section 2's graph ``G``) as a frozen
            CSR snapshot (:class:`~repro.network.compact.CompactNetwork`), the
            one network the build, compaction and every query read, shared
            read-only by every engine / service query. :meth:`road_network`
            thaws it when a mutable copy is wanted.
        columnar: The frozen columnar scoring index
            (:class:`~repro.textindex.columnar.ColumnarScoringIndex`) — CSR
            term → object postings plus object/node tables — from which every
            query computes σ_v with vectorised array kernels
            (:meth:`weight_pipeline`). Its node table and node → object CSR
            are the one stored copy of the object → node mapping (see
            :attr:`mapping`).
        scoring_mode: Which per-object weight definition the bundle scores with.
            Construction accepts the enum or its value string and stores the enum.
        build_seconds: Wall-clock time of each offline build step plus a ``"total"``
            entry; mirrors the paper's offline / online cost split.
        grid_resolution: Sizes nothing. It is kept only because
            ``perfbench/serve.py`` passes ``bundle.grid_resolution`` back into
            :meth:`build`.

    Raises:
        QueryError: If ``scoring_mode`` names no
            :class:`~repro.textindex.relevance.ScoringMode`.
    """

    corpus_source: CorpusSource = field(compare=False, repr=False)
    compact: CompactNetwork
    columnar: ColumnarScoringIndex
    scoring_mode: ScoringMode
    build_seconds: Dict[str, float]
    grid_resolution: int = 48

    def __post_init__(self) -> None:
        mode = scoring_mode_of(self.scoring_mode)
        object.__setattr__(self, "scoring_mode", mode)
        # One pipeline per bundle: it owns the lazily built cell bounds and the
        # sampling frame, which a per-query pipeline would rebuild every time.
        object.__setattr__(self, "_pipeline", WeightPipeline(self.columnar, mode))

    @classmethod
    def build(
        cls,
        network: Union[RoadNetwork, CompactNetwork],
        corpus: ObjectCorpus,
        scoring_mode: Union[ScoringMode, str] = ScoringMode.TEXT_RELEVANCE,
        grid_resolution: int = 48,
    ) -> "IndexBundle":
        """Run the offline indexing pipeline once: CSR freeze, mapping, columnar index.

        Building from a :class:`RoadNetwork` and from its snapshot writes the
        same artifact, byte for byte: every step reads the snapshot.

        Args:
            network: The road network to index (a snapshot is used as is).
            corpus: The geo-textual objects to index.
            scoring_mode: Per-object weight definition (see
                :class:`~repro.textindex.relevance.ScoringMode`), as the enum or
                its value string.
            grid_resolution: Stored on the bundle and otherwise unused (see the
                class docstring).

        Returns:
            The immutable bundle holding every index structure.

        Raises:
            QueryError: If ``scoring_mode`` names no scoring mode — raised before
                any build work starts.
        """
        return cls._build(
            network, corpus, scoring_mode_of(scoring_mode), {},
            grid_resolution=grid_resolution,
        )

    @classmethod
    def _build(
        cls,
        network: Union[RoadNetwork, CompactNetwork],
        corpus: ObjectCorpus,
        scoring_mode: ScoringMode,
        timings: Dict[str, float],
        mapping: Optional[NodeObjectMap] = None,
        grid_resolution: int = 48,
    ) -> "IndexBundle":
        """The one build behind :meth:`build`, :meth:`build_streaming` and
        :meth:`from_dataset`. It freezes ``network`` once and reads only the
        snapshot; ``mapping`` is reused when given (it only feeds the columnar
        build; the bundle keeps no reference to it)."""
        start = time.perf_counter()
        compact = CompactNetwork.from_network(network)
        timings["freeze"] = time.perf_counter() - start

        if mapping is None:
            start = time.perf_counter()
            mapping = map_objects_to_network(compact, corpus)
            timings["mapping"] = time.perf_counter() - start

        start = time.perf_counter()
        columnar = ColumnarScoringIndex.build(corpus, mapping, compact.coords)
        timings["columnar"] = time.perf_counter() - start

        timings["total"] = sum(timings.values())
        return cls(
            corpus_source=corpus,
            compact=compact,
            columnar=columnar,
            scoring_mode=scoring_mode,
            build_seconds=timings,
            grid_resolution=grid_resolution,
        )

    @classmethod
    def build_streaming(
        cls,
        network: RoadNetwork,
        objects: Iterable[GeoTextualObject],
        scoring_mode: Union[ScoringMode, str] = ScoringMode.TEXT_RELEVANCE,
    ) -> "IndexBundle":
        """Index an object *iterator* (the 1M-object path).

        Objects stream into the corpus one at a time (incremental document
        frequencies / collection statistics), so no object list exists beside
        the corpus; the corpus then goes through :meth:`build`'s pipeline. The
        bundle — and its saved artifact, byte for byte — equals :meth:`build`
        of the same (network, objects).

        Args:
            network: The road network to index.
            objects: An iterable/generator of
                :class:`~repro.objects.geoobject.GeoTextualObject`; consumed
                once, never materialised as a list.
            scoring_mode: Per-object weight definition.

        Returns:
            The immutable bundle.

        Raises:
            QueryError: If ``scoring_mode`` names no scoring mode.
        """
        mode = scoring_mode_of(scoring_mode)
        start = time.perf_counter()
        corpus = ObjectCorpus()
        for obj in objects:
            corpus.add(obj)
        return cls._build(
            network, corpus, mode, {"accumulate": time.perf_counter() - start}
        )

    @classmethod
    def from_dataset(
        cls,
        dataset: "SyntheticDataset",
        compact: Optional[CompactNetwork] = None,
    ) -> "IndexBundle":
        """Index an assembled dataset, reusing the mapping it already computed.

        The path behind the ``python -m repro build`` CLI and the evaluation
        runner's artifact cache.

        Args:
            dataset: The assembled dataset to wrap.
            compact: Optional pre-frozen snapshot of ``dataset.network`` to build
                from instead of freezing again (the artifact cache freezes early
                for fingerprinting).

        Returns:
            A text-relevance bundle over the dataset's network and corpus.
        """
        return cls._build(
            dataset.network if compact is None else compact,
            dataset.corpus,
            ScoringMode.TEXT_RELEVANCE,
            {},
            mapping=dataset.mapping,
        )

    # ------------------------------------------------------------------ persistence
    def save(
        self,
        path: "PathLike",
        overwrite: bool = False,
        compress: Optional[str] = None,
        compress_level: Optional[int] = None,
    ) -> "ArtifactManifest":
        """Persist the bundle as a versioned on-disk artifact directory.

        See :func:`repro.service.persist.save_bundle` for the layout, determinism
        and versioning guarantees.

        Args:
            path: Target artifact directory (created if missing).
            overwrite: Replace an existing artifact instead of raising.
            compress: Optional chunk-compression codec (``"zlib"`` / ``"lzma"``;
                ``None`` or ``"none"`` stores the raw mmap-everything layout).
            compress_level: Optional codec effort level (codec default when
                omitted).

        Returns:
            The written :class:`~repro.service.persist.ArtifactManifest`.

        Raises:
            ArtifactError: If ``path`` already holds an artifact and
                ``overwrite`` is false, or ``compress`` names an unknown codec.
        """
        from repro.service import persist

        return persist.save_bundle(
            self,
            path,
            overwrite=overwrite,
            compression=persist.compression_spec(compress, compress_level),
        )

    @classmethod
    def load(
        cls, path: "PathLike", verify: bool = True
    ) -> "IndexBundle":
        """Restore a bundle from an artifact directory written by :meth:`save`.

        The arrays come back as read-only memory maps (chunk-compressed
        columns decode lazily) and the corpus is unpickled on first access
        (see :attr:`corpus`), so loading is I/O-bound instead of
        rebuild-bound.

        Args:
            path: The artifact directory.
            verify: Check file checksums against the manifest first.

        Returns:
            A bundle answering queries identically to the one that was saved.

        Raises:
            ArtifactError: On a missing/corrupt artifact or version mismatch.
        """
        from repro.service import persist

        return persist.load_bundle(path, verify=verify)

    def road_network(self) -> RoadNetwork:
        """The road network as a mutable :class:`RoadNetwork`, thawed from the snapshot.

        The first call thaws :attr:`compact` (rows in CSR order, see
        :meth:`CompactNetwork.to_network
        <repro.network.compact.CompactNetwork.to_network>`) and caches the
        result on the bundle. No build, compaction or query needs this — it
        exists for callers that want to mutate or re-index the graph.
        """
        cached = self._road_network
        if cached is None:
            cached = self.compact.to_network()
            # Lock-free single-assignment, same pattern as mapping: a racing
            # thread may thaw its own copy, and whichever assignment lands is
            # what later calls return.
            object.__setattr__(self, "_road_network", cached)
        return cached

    @property
    def corpus(self) -> ObjectCorpus:
        """The geo-textual objects ``O``; a loaded bundle reads them on first access.

        Only writers need the corpus: overlay updates of base objects,
        compaction, sharding and saving. So a bundle loaded from an artifact
        unpickles ``index.pkl`` on the first access, once, under the lock of
        its own :class:`~repro.service.persist.CorpusLoader`, and every caller
        gets the same corpus. That first access raises
        :class:`~repro.exceptions.ArtifactError` if a verified load finds the
        file changed since the manifest was written, or the payload does not
        unpickle to a corpus.
        """
        source = self.corpus_source
        return source if isinstance(source, ObjectCorpus) else source()

    # Plain class attributes (no annotation), so they are NOT dataclass fields:
    # the lazily computed caches behind :meth:`road_network`, :attr:`mapping`
    # and :meth:`fingerprint`.
    _road_network = None
    _mapping = None
    _fingerprint = None

    @property
    def mapping(self) -> NodeObjectMap:
        """The object → nearest-node mapping that turns object scores into σ_v.

        Read off the columnar index's node table and node → object CSR
        (:meth:`ColumnarScoringIndex.node_object_map
        <repro.textindex.columnar.ColumnarScoringIndex.node_object_map>`) on
        first access and cached on the bundle. It equals the mapping the bundle
        was built from, key orders included. No query reads it.
        """
        cached = self._mapping
        if cached is None:
            cached = self.columnar.node_object_map()
            # Lock-free single-assignment: a racing thread may derive its own
            # copy; whichever assignment lands is what later calls return.
            object.__setattr__(self, "_mapping", cached)
        return cached

    def fingerprint(self) -> str:
        """The dataset fingerprint of this bundle's (network, corpus).

        Computed lazily with :func:`repro.service.persist.dataset_fingerprint`
        and cached on the bundle (loading an artifact seeds the cache from the
        manifest, so loaded bundles never re-hash).  Two bundles answer queries
        identically only if their fingerprints match, which is why the service
        cache keys fold this in.
        """
        cached = self._fingerprint
        if cached is None:
            from repro.service.persist import dataset_fingerprint

            cached = dataset_fingerprint(self.compact, self.corpus)
            # Lock-free single-assignment, same pattern as mapping.
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def weight_pipeline(self) -> WeightPipeline:
        """The vectorised σ_v pipeline every query takes.

        The same :class:`~repro.textindex.columnar.WeightPipeline` object on
        every call, created with the bundle: it lazily builds and then keeps
        the cell upper bounds and the sampling frame.
        """
        return self._pipeline

    def graph_view(self) -> CompactNetwork:
        """The network the query hot path traverses: the CSR snapshot."""
        return self.compact

    def describe(self) -> str:
        """One-line summary of the indexed dataset (used in logs and reports)."""
        return (
            f"{self.compact.num_nodes} nodes / {self.compact.num_edges} edges "
            f"(csr backend), "
            f"{self.columnar.num_objects} objects, "
            f"{self.columnar.num_postings} postings, "
            f"scoring={self.scoring_mode.value}, "
            f"built in {self.build_seconds.get('total', 0.0):.3f}s"
        )
