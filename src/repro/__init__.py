"""repro — a reproduction of "Retrieving Regions of Interest for User Exploration".

The library implements the length-constrained maximum-sum region (LCMSR) query of
Cao, Cong, Jensen and Yiu (PVLDB 7(9), 2014) together with every substrate the paper
depends on: the road-network graph model, geo-textual objects, TF-IDF text relevance,
a columnar TF-IDF scoring index, the node-weight scaling technique, a
GW-based node-weighted k-MST solver, the APP / TGEN / Greedy algorithms, the top-k
extension, an exact oracle for small inputs and the MaxRS / clustering baselines.

For serving many queries, :class:`repro.service.QueryService` wraps an engine with a
worker pool, a result cache and a problem-instance cache (``submit_many`` /
``run_batch``). The offline index build persists as a versioned on-disk artifact
(:mod:`repro.service.persist`, ``python -m repro build``) that any process loads
back in I/O-bound time with the network arrays memory-mapped. To scale past one
core, ``python -m repro build --shards K`` partitions the artifact into tile
shards with halo edges and :class:`repro.service.ShardedQueryService` serves
them through a multi-process gateway that routes each query to one shard
(:mod:`repro.service.sharding`) with byte-identical answers.

Quick start (build once — here in-process, normally ``python -m repro build``)::

    from repro import IndexBundle, LCMSREngine, build_ny_like

    dataset = build_ny_like()
    IndexBundle.from_dataset(dataset).save("artifacts/ny")

    engine = LCMSREngine.from_artifact("artifacts/ny")   # no index rebuild
    result = engine.query(["cafe", "restaurant"], delta=2000.0)
    print(result.region)

Batched serving (an engine or an artifact path)::

    from repro import QueryRequest, QueryService

    with QueryService("artifacts/ny", max_workers=4) as service:
        results = service.run_batch(
            [QueryRequest.create(["cafe"], delta=1500.0) for _ in range(32)]
        )
        print(service.stats().result_hit_rate)

See README.md for install / quickstart, docs/ARCHITECTURE.md for the
paper-to-module map, the serving-path data flow and the artifact layout, and
``python -m repro --help`` for the CLI.
"""

from repro.engine import LCMSREngine
from repro.service import (
    IndexBundle,
    QueryRequest,
    QueryService,
    ServiceStats,
    ShardedQueryService,
)
from repro.core import (
    APPSolver,
    Budget,
    ExactSolver,
    GreedySolver,
    LCMSRQuery,
    QueryPolicy,
    ResultQuality,
    ProblemInstance,
    Region,
    RegionResult,
    RegionTuple,
    ScalingContext,
    TGENSolver,
    TopKResult,
    build_instance,
)
from repro.network import CompactNetwork, Rectangle, RoadNetwork
from repro.objects import GeoTextualObject, ObjectCorpus, map_objects_to_network
from repro.baselines import MaxRSSolver
from repro.datasets import build_ny_like, build_usanw_like, generate_workload

__version__ = "1.1.0"

__all__ = [
    "LCMSREngine",
    "IndexBundle",
    "QueryService",
    "QueryRequest",
    "QueryPolicy",
    "Budget",
    "ResultQuality",
    "ServiceStats",
    "ShardedQueryService",
    "LCMSRQuery",
    "Region",
    "RegionTuple",
    "RegionResult",
    "TopKResult",
    "ProblemInstance",
    "build_instance",
    "ScalingContext",
    "APPSolver",
    "TGENSolver",
    "GreedySolver",
    "ExactSolver",
    "MaxRSSolver",
    "RoadNetwork",
    "CompactNetwork",
    "Rectangle",
    "GeoTextualObject",
    "ObjectCorpus",
    "map_objects_to_network",
    "build_ny_like",
    "build_usanw_like",
    "generate_workload",
    "__version__",
]
