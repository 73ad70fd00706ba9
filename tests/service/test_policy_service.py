"""Per-query service policies through the caches, the gateway and shedding.

Four contracts under test:

* **Cache isolation** — an exact answer is never served from a sampled cache
  entry and vice versa; distinct epsilons and seeds are distinct entries. The
  explicit ``QueryPolicy.exact()`` maps onto the legacy (policy-free) key, so
  pre-policy callers and exact-policy callers share one entry.
* **Instance sharing** — anytime requests reuse the exact instance build (the
  budget attaches at solve time), sampled requests build their own.
* **Gateway transport** — a ``QueryRequest`` carrying a policy pickles across
  the process boundary and the worker honours it (quality stats come back).
* **Load shedding** — above the in-flight threshold the gateway downgrades
  exact requests to the configured degraded policy, counts them in ``shed``
  once admission control admits them, and never rewrites a request that
  already chose its own approximation.
"""

from __future__ import annotations

import pickle

import pytest

from repro import LCMSREngine, QueryPolicy, QueryRequest, QueryService
from repro.core.anytime import ResultQuality
from repro.exceptions import QueryError
from repro.service.bundle import IndexBundle
from repro.service.sharding import ShardedQueryService, build_shards


@pytest.fixture(scope="module")
def engine(tiny_ny_dataset):
    return LCMSREngine(tiny_ny_dataset.network, tiny_ny_dataset.corpus)


class TestCacheIsolation:
    def test_exact_never_served_from_a_sampled_entry(self, engine):
        with QueryService(engine, max_workers=1) as service:
            sampled = service.execute(QueryRequest.create(
                ["restaurant"], 1000.0, policy=QueryPolicy.sampled(0.3)))
            exact = service.execute(QueryRequest.create(["restaurant"], 1000.0))
            assert exact is not sampled
            assert service.stats().result_hits == 0
            assert "quality_ci" not in exact.stats

    def test_sampled_never_served_from_an_exact_entry(self, engine):
        with QueryService(engine, max_workers=1) as service:
            exact = service.execute(QueryRequest.create(["restaurant"], 1000.0))
            sampled = service.execute(QueryRequest.create(
                ["restaurant"], 1000.0, policy=QueryPolicy.sampled(0.3)))
            assert sampled is not exact
            assert service.stats().result_hits == 0
            # The sampled entry carries its CI annotation, also when it is
            # later served straight from the cache.
            assert "quality_ci" in sampled.stats
            again = service.execute(QueryRequest.create(
                ["restaurant"], 1000.0, policy=QueryPolicy.sampled(0.3)))
            assert again is sampled
            assert "quality_ci" in again.stats

    def test_each_policy_hits_its_own_entry(self, engine):
        with QueryService(engine, max_workers=1) as service:
            requests = [
                QueryRequest.create(["restaurant"], 1000.0),
                QueryRequest.create(["restaurant"], 1000.0,
                                    policy=QueryPolicy.sampled(0.3)),
                QueryRequest.create(["restaurant"], 1000.0,
                                    policy=QueryPolicy.anytime(60_000.0)),
            ]
            first = [service.execute(r) for r in requests]
            second = [service.execute(r) for r in requests]
            for a, b in zip(first, second):
                assert b is a
            stats = service.stats()
            assert stats.queries == 6
            assert stats.result_hits == 3

    def test_distinct_epsilons_and_seeds_are_distinct_entries(self, engine):
        with QueryService(engine, max_workers=1) as service:
            variants = [
                QueryPolicy.sampled(0.3),
                QueryPolicy.sampled(0.4),
                QueryPolicy.sampled(0.3, seed=1),
            ]
            for policy in variants:
                service.execute(QueryRequest.create(["restaurant"], 1000.0,
                                                    policy=policy))
            assert service.stats().result_hits == 0

    def test_explicit_exact_policy_is_the_legacy_entry(self, engine):
        with QueryService(engine, max_workers=1) as service:
            legacy = service.execute(QueryRequest.create(["restaurant"], 1000.0))
            explicit = service.execute(QueryRequest.create(
                ["restaurant"], 1000.0, policy=QueryPolicy.exact()))
            assert explicit is legacy
            assert service.stats().result_hits == 1

    def test_anytime_reuses_the_exact_instance_build(self, engine):
        with QueryService(engine, max_workers=1) as service:
            service.execute(QueryRequest.create(["restaurant"], 1000.0))
            service.execute(QueryRequest.create(
                ["restaurant"], 1000.0, policy=QueryPolicy.anytime(60_000.0)))
            stats = service.stats()
            # Distinct result entries, one shared instance build.
            assert stats.result_hits == 0
            assert stats.instance_hits == 1

    def test_sampled_builds_its_own_instance(self, engine):
        with QueryService(engine, max_workers=1) as service:
            service.execute(QueryRequest.create(["restaurant"], 1000.0))
            service.execute(QueryRequest.create(
                ["restaurant"], 1000.0, policy=QueryPolicy.sampled(0.3)))
            assert service.stats().instance_hits == 0

    @pytest.mark.parametrize("algorithm", ["greedy", "tgen"])
    def test_sampled_instance_hit_solves_on_the_cached_substrate(
            self, engine, monkeypatch, algorithm):
        # With the result cache off, the repeat of a sampled request is an
        # instance-cache hit. It must solve on the substrate the miss built
        # (not a dict-only rebuild), keep the sampling record, and answer
        # exactly like the miss.
        solver = engine.solver(algorithm)
        seen = []
        solve = solver.solve
        monkeypatch.setattr(
            solver, "solve", lambda instance: seen.append(instance) or solve(instance)
        )
        request = QueryRequest.create(
            ["restaurant", "cafe"], 1000.0, algorithm=algorithm,
            policy=QueryPolicy.sampled(0.3, seed=11))
        with QueryService(engine, max_workers=1, result_cache_size=0) as service:
            miss = service.execute(request)
            hit = service.execute(request)
            assert service.stats().instance_hits == 1
        built, rebound = seen
        assert rebound.dense is built.dense
        assert rebound.sampling is built.sampling
        assert hit.region == miss.region
        assert hit.weight == miss.weight
        quality = {k: v for k, v in miss.stats.items() if k.startswith("quality_")}
        assert quality
        assert {k: v for k, v in hit.stats.items() if k.startswith("quality_")} == quality


class TestPolicyResults:
    def test_exact_policy_answers_byte_identical_to_the_engine(self, engine):
        with QueryService(engine, max_workers=1) as service:
            got = service.execute(QueryRequest.create(
                ["restaurant", "cafe"], 1200.0, algorithm="tgen",
                policy=QueryPolicy.exact()))
        expected = engine.query(["restaurant", "cafe"], 1200.0, algorithm="tgen")
        assert got.region.nodes == expected.region.nodes
        assert got.weight == expected.weight
        assert got.length == expected.length

    def test_far_deadline_anytime_matches_exact(self, engine):
        with QueryService(engine, max_workers=1) as service:
            exact = service.execute(QueryRequest.create(
                ["restaurant"], 1000.0, algorithm="greedy"))
            anytime = service.execute(QueryRequest.create(
                ["restaurant"], 1000.0, algorithm="greedy",
                policy=QueryPolicy.anytime(3_600_000.0)))
        assert anytime.region.nodes == exact.region.nodes
        assert anytime.weight == exact.weight
        quality = ResultQuality.from_stats(anytime.stats)
        assert quality is not None and quality.kind == "anytime"
        assert quality.regret_bound == 0.0

    def test_sampled_answer_carries_a_ci(self, engine):
        with QueryService(engine, max_workers=1) as service:
            result = service.execute(QueryRequest.create(
                ["restaurant"], 1000.0, algorithm="greedy",
                policy=QueryPolicy.sampled(0.3, seed=2)))
        quality = ResultQuality.from_stats(result.stats)
        assert quality is not None and quality.kind == "sampled"
        assert quality.ci is not None and quality.ci >= 0.0

    def test_sampled_is_deterministic_per_seed(self, engine):
        policy = QueryPolicy.sampled(0.3, seed=5)
        with QueryService(engine, max_workers=1, result_cache_size=0,
                          instance_cache_size=0) as service:
            a = service.execute(QueryRequest.create(["restaurant"], 1000.0,
                                                    policy=policy))
            b = service.execute(QueryRequest.create(["restaurant"], 1000.0,
                                                    policy=policy))
        assert a is not b  # caches disabled: genuinely recomputed
        assert a.region.nodes == b.region.nodes
        assert a.weight == b.weight
        assert a.stats["quality_ci"] == b.stats["quality_ci"]


# ---------------------------------------------------------------- gateway
@pytest.fixture(scope="module")
def gateway_artifact(tmp_path_factory):
    from repro.datasets.ny import build_ny_like

    dataset = build_ny_like(rows=12, cols=12, block_size=120.0,
                            num_objects=260, num_clusters=5, seed=3)
    path = tmp_path_factory.mktemp("policy-gateway") / "artifact"
    bundle = IndexBundle.build(dataset.network, dataset.corpus)
    bundle.save(path)
    build_shards(bundle, path, num_shards=2, halo_margin=700.0)
    return path


class TestGatewayPolicy:
    def test_policy_requests_pickle_cleanly(self):
        for policy in (QueryPolicy.exact(), QueryPolicy.anytime(150.0),
                       QueryPolicy.sampled(0.25, seed=3)):
            request = QueryRequest.create(["cafe"], 800.0, policy=policy)
            restored = pickle.loads(pickle.dumps(request))
            assert restored == request
            assert restored.policy == policy

    def test_worker_processes_honour_the_policy(self, gateway_artifact):
        """A sampled request crosses the process boundary intact."""
        requests = [
            QueryRequest.create(["cafe"], 700.0, algorithm="greedy"),
            QueryRequest.create(["cafe"], 700.0, algorithm="greedy",
                                policy=QueryPolicy.sampled(0.3, seed=2)),
            QueryRequest.create(["cafe"], 700.0, algorithm="greedy",
                                policy=QueryPolicy.anytime(60_000.0)),
        ]
        with ShardedQueryService(gateway_artifact, num_workers=2) as service:
            exact, sampled, anytime = service.run_batch(requests)
        assert "quality_kind" not in exact.stats
        assert ResultQuality.from_stats(sampled.stats).kind == "sampled"
        assert ResultQuality.from_stats(anytime.stats).kind == "anytime"
        # The far-deadline anytime answer equals the exact one.
        assert anytime.region.nodes == exact.region.nodes
        assert anytime.weight == exact.weight


# ---------------------------------------------------------------- shedding
class TestLoadShedding:
    def test_constructor_validation(self, gateway_artifact):
        with pytest.raises(QueryError, match="shed_threshold must be >= 1"):
            ShardedQueryService(gateway_artifact, num_workers=1,
                                shed_threshold=0,
                                degraded_policy=QueryPolicy.sampled(0.3))
        with pytest.raises(QueryError, match="requires a degraded_policy"):
            ShardedQueryService(gateway_artifact, num_workers=1,
                                shed_threshold=4)
        with pytest.raises(QueryError, match="must be approximate"):
            ShardedQueryService(gateway_artifact, num_workers=1,
                                shed_threshold=4,
                                degraded_policy=QueryPolicy.exact())

    def test_below_threshold_requests_pass_through(self, gateway_artifact):
        service = ShardedQueryService(
            gateway_artifact, num_workers=1, shed_threshold=8,
            degraded_policy=QueryPolicy.sampled(0.3),
        )
        try:
            request = QueryRequest.create(["cafe"], 700.0)
            assert service._maybe_shed(request) is request
            assert service.shed == 0
        finally:
            service.close()

    def test_over_threshold_downgrades_exact_requests(self, gateway_artifact):
        degraded = QueryPolicy.sampled(0.3, seed=1)
        service = ShardedQueryService(
            gateway_artifact, num_workers=1, shed_threshold=1,
            degraded_policy=degraded,
        )
        try:
            with service._inflight_lock:
                service._in_flight += 1  # simulate a busy gateway
            exact = QueryRequest.create(["cafe"], 700.0)
            shed = service._maybe_shed(exact)
            assert shed.policy == degraded
            # A request that already chose its approximation is untouched.
            own = QueryRequest.create(["cafe"], 700.0,
                                      policy=QueryPolicy.anytime(100.0))
            assert service._maybe_shed(own) is own
            # The count moves once a request is admitted: the exact one only.
            assert service.shed == 0
            service.submit(exact).result(timeout=60)
            assert service.shed == 1
            service.submit(own).result(timeout=60)
            assert service.shed == 1
            with service._inflight_lock:
                service._in_flight -= 1
        finally:
            service.close()

    def test_a_rejected_request_is_not_counted_as_shed(self, gateway_artifact):
        service = ShardedQueryService(
            gateway_artifact, num_workers=1, max_in_flight=1, shed_threshold=1,
            degraded_policy=QueryPolicy.sampled(0.3, seed=1),
        )
        try:
            # Hold the one admission slot, as an in-flight request would.
            assert service._admission.acquire(blocking=False)
            with service._inflight_lock:
                service._in_flight += 1
            with pytest.raises(QueryError, match="admission queue full"):
                service.submit(QueryRequest.create(["cafe"], 700.0))
            assert service.rejected == 1
            assert service.shed == 0
            with service._inflight_lock:
                service._in_flight -= 1
            service._admission.release()
        finally:
            service.close()

    def test_a_malformed_request_never_reaches_admission(self, gateway_artifact):
        """A malformed query fails in the caller: nothing is counted or held."""
        service = ShardedQueryService(
            gateway_artifact, num_workers=1, max_in_flight=1, shed_threshold=1,
            degraded_policy=QueryPolicy.sampled(0.3, seed=1),
        )
        try:
            # With the one slot held, a request that reached admission control
            # would be rejected and counted.
            assert service._admission.acquire(blocking=False)
            for keywords, delta, k in (([], 700.0, 1), ("cafe", 700.0, 1),
                                       (["cafe"], -1.0, 1), (["cafe"], float("nan"), 1),
                                       (["cafe"], 700.0, 0)):
                with pytest.raises(QueryError):
                    service.submit(QueryRequest.create(keywords, delta, k=k))
            assert (service.rejected, service.shed, service.in_flight) == (0, 0, 0)
            service._admission.release()
        finally:
            service.close()

    def test_shed_request_answers_with_quality_stats(self, gateway_artifact):
        degraded = QueryPolicy.sampled(0.3, seed=1)
        service = ShardedQueryService(
            gateway_artifact, num_workers=1, shed_threshold=1,
            degraded_policy=degraded,
        )
        try:
            with service._inflight_lock:
                service._in_flight += 1  # trip the threshold
            result = service.execute(QueryRequest.create(
                ["cafe"], 700.0, algorithm="greedy"))
            with service._inflight_lock:
                service._in_flight -= 1
            assert service.shed == 1
            quality = ResultQuality.from_stats(result.stats)
            assert quality is not None and quality.kind == "sampled"
            assert service.in_flight == 0
        finally:
            service.close()

    def test_in_flight_settles_back_to_zero(self, gateway_artifact):
        with ShardedQueryService(gateway_artifact, num_workers=2) as service:
            service.run_batch(
                [QueryRequest.create(["cafe"], 600.0 + 50.0 * i)
                 for i in range(4)]
            )
            assert service.in_flight == 0
            assert service.shed == 0
