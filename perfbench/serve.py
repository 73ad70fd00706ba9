"""One workload in one fresh process: open the fixture, serve, time, check.

``run.py`` starts this file as a subprocess so that ``peak_rss_mb`` and
``setup_s`` cover serving alone — the process imports the package, opens the
cached artifact and nothing else; dataset generation and artifact builds
happened earlier, elsewhere. It writes its measurements as one JSON object to
``--out``.

Set-up means the same on every workload: open the artifact and answer one
read, after which the server is ready. It is repeated and the median is
reported.

Every load is closed-loop from one client. In-process workloads run one
request at a time on the calling thread; the gateway keeps two requests in
flight (the host has two CPUs). Ops run in rounds, and the timed phase stops
at the first round boundary after ``--seconds``: a round is one pass over a
fixed query set (``tgen-paper``), one compaction cycle of 50 × (19 reads and
a write) (``serve-rw``) or a fixed number of draws, so every run measures
whole units of the same mix.

Every reported time is scaled to a reference host speed by a
:class:`harness.HostClock`, which runs a fixed kernel between ops; the raw
figures go to the diagnostics.

Each latency percentile is taken over one op type. On ``serve-rw`` that is a
read the engine answers; a result-cache hit is a dictionary lookup, counted in
``throughput_qps`` but kept out of the percentiles, where its share would move
the median between two modes.

With ``--trace 1`` rounds alternate between untraced and traced; per-layer
numbers come from the traced rounds and ``trace.overhead_pct`` compares the
mean primary-op latency of the two kinds of round.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import sys
import threading
import time
from concurrent.futures import FIRST_COMPLETED, wait
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import layertrace as tracing  # noqa: E402
from harness import HostClock, Outcomes, Sample, mean, median, percentile  # noqa: E402

from repro import IndexBundle, LCMSREngine, QueryPolicy, QueryRequest, QueryService  # noqa: E402
from repro.core.query import LCMSRQuery  # noqa: E402
from repro.network.subgraph import Rectangle  # noqa: E402
from repro.service import ShardedQueryService  # noqa: E402
from repro.service import generations  # noqa: E402

MIB = 1024.0 * 1024.0

# Spans that wrap a whole operation: their self time is whatever no narrower
# span claims, so trace.attributed_share leaves them out.
CATCH_ALL = ("query_service", "engine.build_instance")


def signature(result) -> list:
    """Answer identity: nodes, edges, weight and length (timings excluded)."""
    region = result.region
    return [
        sorted(region.nodes),
        sorted([list(edge) for edge in region.edges]),
        region.weight,
        region.length,
    ]


def request_of(query: dict, algorithm: str, policy: Optional[QueryPolicy] = None) -> QueryRequest:
    return QueryRequest.create(
        query["keywords"], delta=query["delta"], region=Rectangle(*query["region"]),
        algorithm=algorithm, policy=policy,
    )


def dir_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / MIB


class Recorder:
    """The timed samples and the outcomes of one run."""

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        self.samples: List[Sample] = []
        self.outcomes = Outcomes()

    def add(self, sample: Sample) -> None:
        self.samples.append(sample)
        self.outcomes.record_ok()

    def scaled(self, kind: str, traced: Optional[bool] = None) -> List[float]:
        """Milliseconds of the ``kind`` ops, scaled to the reference host speed."""
        return [s.ms * self.clock.factor(s.segment) for s in self.samples
                if s.kind == kind and traced in (None, s.traced)]


class Workload:
    """Base class: ``open``/``close`` a server, run timed ``round``\\ s, ``check``."""

    setups = 5

    def __init__(self, fixture: Path, seed: int) -> None:
        self.artifact = fixture / "artifact"
        self.pool = json.loads((fixture / "fixture.json").read_text())["queries"]
        self.rng = random.Random(seed)
        self.tracer: Optional[tracing.Tracer] = None
        self.service = None
        self.answers: Dict[int, list] = {}
        self.extra: Dict[str, float] = {}

    def serve(self):
        """Open the artifact and return the service that answers reads."""
        raise NotImplementedError

    def open(self) -> None:
        """Open the artifact and answer one read; the server is then ready."""
        self.service = self.serve()
        self.service.execute(request_of(self.pool[0], "greedy"))

    def close(self) -> None:
        self.service.close()
        self.service = None

    def warm(self) -> None:
        """Forget the counts the set-up read left behind."""
        self.service.reset_stats()

    def round(self, rec: Recorder, traced: bool) -> None:
        raise NotImplementedError

    def check(self, rec: Recorder) -> None:
        raise NotImplementedError

    def layer_counts(self, rec: Recorder, scale: float) -> Dict[str, float]:
        return {}

    def primary_latencies(self, rec: Recorder) -> List[float]:
        """One value per primary op: its query's median latency over the run.

        A query's own median keeps what the query costs and drops the moments
        when a burst on the host hit one of its ops; the percentiles still
        weigh each query by how often it ran. The per-op tail is reported as
        ``workload.latency_p99_ms``.
        """
        by_query: Dict[int, List[float]] = {}
        for sample in rec.samples:
            if sample.kind == "primary":
                by_query.setdefault(sample.key, []).append(
                    sample.ms * rec.clock.factor(sample.segment))
        return [median(ms) for ms in by_query.values() for _ in ms]

    # -- helpers
    def timed(self, rec: Recorder, kind, traced: bool, key: int, fn, *args):
        """Run one op and record its latency; ``None`` on failure.

        ``kind`` names the op type, or is a function of the op's result that
        names it; ``key`` is the query the op answers (-1 for none).
        """
        rec.clock.tick()
        segment = rec.clock.segment
        span = self.tracer.begin(tracing.ROOT, rec.outcomes.attempted) if traced else None
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed op is counted, the run goes on
            if span is not None:
                self.tracer.end(span)
            print(f"op failed: {exc!r}", file=sys.stderr)
            rec.outcomes.record_error()
            return None
        elapsed = time.perf_counter() - start
        if span is not None:
            self.tracer.end(span)
        rec.add(Sample(kind(result) if callable(kind) else kind, elapsed * 1000.0,
                       segment, traced, key))
        return result

    def remember(self, rec: Recorder, index: int, result) -> None:
        """Keep the first answer per query; a later different one is wrong."""
        sig = signature(result)
        previous = self.answers.setdefault(index, sig)
        if previous != sig:
            rec.outcomes.record_check(False)


class InProcess(Workload):
    """An in-process ``QueryService`` over ``LCMSREngine.from_artifact``."""

    algorithm = "greedy"
    cache_sizes = (0, 0)

    def serve(self):
        self.engine = LCMSREngine.from_artifact(self.artifact)
        return QueryService(self.engine, max_workers=1,
                            result_cache_size=self.cache_sizes[0],
                            instance_cache_size=self.cache_sizes[1])

    def close(self) -> None:
        super().close()
        self.engine = None

    def warm(self) -> None:
        self.service.clear_caches()
        super().warm()

    def read(self, index: int, policy: Optional[QueryPolicy] = None):
        result, _ = self.service.execute_timed(
            request_of(self.pool[index], self.algorithm, policy))
        return result

    def layer_counts(self, rec: Recorder, scale: float) -> Dict[str, float]:
        stats = self.service.stats()
        rc, ic = stats.result_cache, stats.instance_cache
        return {
            "cache.result_hit_rate": rc.hits / rc.lookups if rc.lookups else math.nan,
            "cache.instance_hit_rate": ic.hits / ic.lookups if ic.lookups else math.nan,
            "cache.evictions": float(rc.evictions + ic.evictions),
        }

    def check_against_engine(self, rec: Recorder, indices) -> None:
        for index in indices:
            q = self.pool[index]
            cold = self.engine.query(q["keywords"], delta=q["delta"],
                                     region=Rectangle(*q["region"]),
                                     algorithm=self.algorithm)
            rec.outcomes.record_check(signature(cold) == self.answers[index])


class TgenPaper(InProcess):
    """Distinct paper-default TGEN queries, caches off: solve-bound."""

    algorithm = "tgen"
    setups = 9
    checked = 4

    def round(self, rec: Recorder, traced: bool) -> None:
        order = list(range(len(self.pool)))
        self.rng.shuffle(order)
        for index in order:
            result = self.timed(rec, "primary", traced, index, self.read, index)
            if result is not None:
                self.remember(rec, index, result)

    def check(self, rec: Recorder) -> None:
        sample = sorted(self.answers)
        self.rng.shuffle(sample)
        self.check_against_engine(rec, sample[: self.checked])


class Greedy200k(InProcess):
    """Greedy on 200,000 objects, caches off: window/σ/dense-build-bound."""

    setups = 5
    reads_per_round = 40
    epsilon = 0.1

    def __init__(self, fixture: Path, seed: int) -> None:
        super().__init__(fixture, seed)
        self.sampled: List[tuple] = []
        self.reads = 0

    def round(self, rec: Recorder, traced: bool) -> None:
        for _ in range(self.reads_per_round):
            index = self.rng.randrange(len(self.pool))
            result = self.timed(rec, "primary", traced, index, self.read, index)
            if result is not None:
                self.remember(rec, index, result)
            self.reads += 1
            if self.reads % 4 == 0:  # every 4th read also runs sampled
                policy = QueryPolicy.sampled(self.epsilon, self.rng.randrange(2**31))
                result = self.timed(rec, "sampled", traced, index, self.read, index, policy)
                if result is not None:
                    self.sampled.append((index, policy, signature(result)))

    def check(self, rec: Recorder) -> None:
        self.check_against_engine(rec, sorted(self.answers))
        achieved = exact = 0.0
        for n, (index, policy, sig) in enumerate(self.sampled):
            q = self.pool[index]
            region = Rectangle(*q["region"])
            if n < 8:  # seeded sampled answers repeat exactly
                again = self.engine.query(q["keywords"], delta=q["delta"], region=region,
                                          algorithm="greedy", policy=policy)
                rec.outcomes.record_check(signature(again) == sig)
            weights = self.engine.build_instance(
                LCMSRQuery.create(q["keywords"], delta=q["delta"], region=region)).weights
            achieved += sum(weights.get(node, 0.0) for node in sig[0])
            exact += self.answers[index][2]
        self.extra["sampled_weight_ratio"] = achieved / exact if exact > 0 else math.nan


class ServeRW(InProcess):
    """Zipf Greedy reads beside overlay writes and periodic compaction."""

    cache_sizes = (512, 128)
    setups = 9
    reads_per_write = 19
    writes_per_cycle = 50
    zipf_exponent = 1.1
    checked = 20

    def serve(self):
        service = super().serve()
        self.engine.attach_overlay(generations.DeltaOverlay(self.engine.bundle))
        return service

    def warm(self) -> None:
        super().warm()
        corpus = self.engine.bundle.corpus
        self.base_count = len(corpus)
        self.base_ids = [obj.object_id for obj in corpus]
        self.points = [(obj.x, obj.y) for obj in corpus]
        self.terms = sorted({t for q in self.pool for t in q["keywords"]})
        self.next_id = max(self.base_ids) + 1
        self.cum = harness.zipf_cum_weights(len(self.pool), self.zipf_exponent)
        self.pending: List[float] = []
        self.added: List[int] = []
        self.rated: Dict[int, float] = {}
        self.snapshot = None

    def write_op(self, kind: int) -> dict:
        """A seeded write; it is also noted, so check() can find it applied."""
        rng = self.rng
        if kind == 0:
            op = {"op": "rate", "id": rng.choice(self.base_ids),
                  "rating": round(rng.uniform(1.0, 5.0), 2)}
            self.rated[op["id"]] = op["rating"]
            return op
        x, y = rng.choice(self.points)
        self.next_id += 1
        self.added.append(self.next_id)
        return {"op": "add", "id": self.next_id,
                "x": x + rng.uniform(-30.0, 30.0), "y": y + rng.uniform(-30.0, 30.0),
                "keywords": rng.sample(self.terms, 2), "rating": 1.0}

    def compact(self) -> None:
        generations.Compactor(self.engine).compact()
        self.engine.attach_overlay(generations.DeltaOverlay(self.engine.bundle))

    @staticmethod
    def read_kind(served) -> str:
        _, timing = served
        return "hit" if timing.result_cache_hit else "primary"

    def round(self, rec: Recorder, traced: bool) -> None:
        cycle = harness.rw_cycle(self.rng, self.cum, self.reads_per_write,
                                 self.writes_per_cycle)
        for kind, arg in cycle:
            if kind == "read":
                self.pending.append(self.engine.overlay.pending_count)
                self.timed(rec, self.read_kind, traced, arg,
                           self.service.execute_timed, request_of(self.pool[arg], "greedy"))
            elif kind == "write":
                op = self.write_op(arg)
                self.timed(rec, "write", traced, -1,
                           generations.apply_op, self.engine.overlay, op)
            else:
                # The corpus as the writes left it, for check(); kept out of
                # every timed segment.
                self.snapshot = rec.clock.untimed(self.engine.overlay.materialize_corpus)
                self.timed(rec, "compact", traced, -1, self.compact)

    def check(self, rec: Recorder) -> None:
        """The last compaction's input holds every write issued, and reads
        served after it equal a cold rebuild of that corpus."""
        snapshot = self.snapshot
        outcomes = rec.outcomes
        outcomes.record_check(len(snapshot) == self.base_count + len(self.added))
        outcomes.record_check(all(object_id in snapshot for object_id in self.added))
        outcomes.record_check(all(snapshot.get(object_id).rating == rating
                                  for object_id, rating in self.rated.items()))
        bundle = self.engine.bundle
        cold = LCMSREngine.from_bundle(IndexBundle.build(
            bundle.road_network(), snapshot, grid_resolution=bundle.grid_resolution,
            scoring_mode=bundle.scoring_mode))
        for index in self.rng.sample(range(len(self.pool)), self.checked):
            q = self.pool[index]
            served = signature(self.service.execute(request_of(q, "greedy")))
            expected = cold.query(q["keywords"], delta=q["delta"],
                                  region=Rectangle(*q["region"]), algorithm="greedy")
            outcomes.record_check(served == signature(expected))
            self.answers[index] = served

    def layer_counts(self, rec: Recorder, scale: float) -> Dict[str, float]:
        return {**super().layer_counts(rec, scale),
                "generations.pending_at_read": mean(self.pending)}


class GatewayGreedy(Workload):
    """Greedy through the 2-process sharded gateway, 2 requests in flight."""

    setups = 9
    in_flight = 2
    requests_per_round = 16

    def serve(self):
        return ShardedQueryService(
            self.artifact, num_workers=2, result_cache_size=0, instance_cache_size=0,
            preload_base=True)

    def round(self, rec: Recorder, traced: bool) -> None:
        rec.clock.tick()  # between rounds no request is in flight
        segment = rec.clock.segment
        done_at: Dict[object, float] = {}
        lock = threading.Lock()

        def stamp(future) -> None:
            with lock:
                done_at[future] = time.perf_counter()

        pending = {}
        draws = [self.rng.randrange(len(self.pool)) for _ in range(self.requests_per_round)]
        cursor = 0
        while cursor < len(draws) or pending:
            while cursor < len(draws) and len(pending) < self.in_flight:
                index = draws[cursor]
                cursor += 1
                started = time.perf_counter()
                future = self.service.submit(request_of(self.pool[index], "greedy"))
                future.add_done_callback(stamp)
                pending[future] = (index, started)
            finished, _ = wait(list(pending), return_when=FIRST_COMPLETED)
            for future in finished:
                index, started = pending.pop(future)
                try:
                    result = future.result()
                except Exception as exc:
                    print(f"op failed: {exc!r}", file=sys.stderr)
                    rec.outcomes.record_error()
                    continue
                # wait() may return before the completion callback has run.
                now = time.perf_counter()
                with lock:
                    ended = done_at.pop(future, now)
                rec.add(Sample("primary", (ended - started) * 1000.0, segment, traced, index))
                self.remember(rec, index, result)

    def layer_counts(self, rec: Recorder, scale: float) -> Dict[str, float]:
        worker = [t.total_seconds * 1000.0 for t in self.service.stats().timings]
        client = [s.ms for s in rec.samples]
        # No client-side span wraps a gateway request (the work happens in
        # the workers), so coverage is the worker share of client latency.
        return {
            "trace.coverage": mean(worker) / mean(client),
            "sharding.worker_ms": mean(worker) * scale,
            "sharding.gateway_overhead_ms": (mean(client) - mean(worker)) * scale,
            "sharding.rejected": float(self.service.rejected),
            "sharding.shed": float(self.service.shed),
        }

    def check(self, rec: Recorder) -> None:
        engine = LCMSREngine.from_artifact(self.artifact)
        with QueryService(engine, max_workers=1, result_cache_size=0,
                          instance_cache_size=0) as local:
            for index in sorted(self.answers):
                expected = local.execute(request_of(self.pool[index], "greedy"))
                rec.outcomes.record_check(signature(expected) == self.answers[index])


WORKLOADS = {
    "tgen-paper": TgenPaper,
    "greedy-200k": Greedy200k,
    "serve-rw": ServeRW,
    "gateway-greedy": GatewayGreedy,
}


def span_layers(spans, scale: float) -> Dict[str, float]:
    """Per-layer numbers from the traced rounds' spans (means per call).

    Times are scaled to the reference host speed by ``scale``. A number the
    workload gives nothing to measure is ``nan``.
    """
    selfs = harness.self_times(spans)
    by_name: Dict[str, List] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def self_ms(name: str) -> float:
        return mean([selfs[s.span_id] for s in by_name.get(name, [])]) * 1000.0 * scale

    def dur_ms(name: str) -> float:
        return mean([s.duration for s in by_name.get(name, [])]) * 1000.0 * scale

    def counts(name: str, key: str) -> List[float]:
        return [(s.counts or {}).get(key, 0.0) for s in by_name.get(name, [])]

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else math.nan

    builds = by_name.get("engine.build_instance", [])
    sigma_names = ("textindex.sigma", "textindex.sigma_sampled", "generations.overlay_sigma")
    with_sigma = {s.parent for s in spans if s.name in sigma_names}
    positive = sum(sum(counts(name, "positive")) for name in sigma_names)
    processed = sum(counts("tgen.solve", "edges_processed"))
    skipped = sum(counts("tgen.solve", "edges_skipped"))
    compactions = [s.duration for s in by_name.get("generations.compact", [])]
    return {
        "network.window_ms": self_ms("network.window"),
        "network.window_nodes": mean(counts("network.window", "nodes")),
        "textindex.sigma_ms": self_ms("textindex.sigma"),
        "textindex.sigma_sampled_ms": self_ms("textindex.sigma_sampled"),
        "textindex.zero_mass_skip_ratio": ratio(
            sum(1 for b in builds if b.span_id not in with_sigma), len(builds)),
        "textindex.relevant_ratio": ratio(positive, sum(counts("network.window", "nodes"))),
        "dense.build_ms": self_ms("dense.build"),
        "tgen.solve_ms": self_ms("tgen.solve"),
        "tgen.tuples_generated": mean(counts("tgen.solve", "tuples_generated")),
        "tgen.edges_processed": mean(counts("tgen.solve", "edges_processed")),
        "tgen.edges_skipped": mean(counts("tgen.solve", "edges_skipped")),
        "tgen.edge_skip_ratio": ratio(skipped, processed + skipped),
        "greedy.solve_ms": self_ms("greedy.solve"),
        "greedy.candidates_scanned": mean(counts("greedy.solve", "greedy_candidates_scanned")),
        "engine.build_instance_ms": dur_ms("engine.build_instance"),
        "engine.unattributed_ms": self_ms("engine.build_instance"),
        "query_service.overhead_ms": self_ms("query_service"),
        "generations.apply_op_ms": dur_ms("generations.apply_op"),
        "generations.overlay_sigma_ms": self_ms("generations.overlay_sigma"),
        "generations.compact_s": median(compactions) * scale,
        "sharding.single_shard_ratio": mean(counts("sharding.route", "single_shard")),
        "trace.coverage": harness.coverage(spans, tracing.ROOT),
        "trace.attributed_share": harness.coverage(spans, tracing.ROOT, CATCH_ALL),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fixture", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    traced_run = bool(args.trace)
    workload = WORKLOADS[args.workload](args.fixture, args.seed)
    tracer = tracing.Tracer()
    workload.tracer = tracer
    in_process = isinstance(workload, InProcess)

    # Set-up: open the artifact several times, keep the last server. The
    # clock probes before and after every open.
    setup_clock = HostClock(interval=0.0)
    setup_clock.start()
    setups: List[Sample] = []
    for attempt in range(workload.setups):
        gc.collect()
        # Gateway workers fork from this process, so they must not inherit
        # the wrappers; in-process set-up is traced for persist.load.
        installation = tracing.install(tracer) if traced_run and in_process else None
        setup_clock.tick()
        start = time.perf_counter()
        workload.open()
        setups.append(Sample("setup", (time.perf_counter() - start) * 1000.0,
                             setup_clock.segment))
        if installation is not None:
            installation.uninstall()
        if attempt < workload.setups - 1:
            workload.close()
    setup_clock.stop()
    setup_s = [s.ms * setup_clock.factor(s.segment) / 1000.0 for s in setups]
    load_s = [s.duration for s in tracer.spans if s.name == "persist.load"]
    tracer.spans.clear()
    workload.warm()

    clock = HostClock()
    rec = Recorder(clock)
    rounds = 0
    deadline = time.perf_counter() + args.seconds
    clock.start()
    while True:
        traced = traced_run and rounds % 2 == 1
        installation = tracing.install(tracer) if traced else None
        workload.round(rec, traced)
        if installation is not None:
            installation.uninstall()
        rounds += 1
        if time.perf_counter() >= deadline and (not traced_run or rounds >= 2):
            break
    clock.stop()
    ops = rec.outcomes.attempted

    peak_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = harness.REFERENCE_KERNEL_MS / median(clock.probes_ms)
    layer_counts = workload.layer_counts(rec, scale)
    if not in_process:
        workload.close()  # joins the workers, so their peak RSS is known
    peak_workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    workload.check(rec)
    if in_process:
        workload.close()

    latencies = workload.primary_latencies(rec)
    p50, n = percentile(latencies, 50)
    p90, _ = percentile(latencies, 90)
    p99, _ = percentile(rec.scaled("primary"), 99)
    metrics = {
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "throughput_qps": ops / clock.scaled_wall(),
        "setup_s": median(setup_s),
        "peak_rss_mb": max(peak_self, peak_workers),
        "artifact_mb": dir_mb(workload.artifact),
    }
    layers: Dict[str, float] = {}
    if traced_run:
        layers = {
            **span_layers(tracer.spans, scale),
            **layer_counts,
            "persist.load_s": median(load_s) * scale,
            "persist.index_pkl_mb": (workload.artifact / "index.pkl").stat().st_size / MIB,
            "persist.network_npz_mb": (workload.artifact / "network.npz").stat().st_size / MIB,
            "persist.scoring_npz_mb": (workload.artifact / "scoring.npz").stat().st_size / MIB,
            "trace.overhead_pct": (mean(rec.scaled("primary", True))
                                   / mean(rec.scaled("primary", False)) - 1.0) * 100.0,
            "host.probe_ms": median(clock.probes_ms),
            "workload.latency_p99_ms": p99 if harness.samples_beyond(n, 99) >= 10 else math.nan,
            "workload.sampled_p50_ms": median(rec.scaled("sampled")),
            "workload.sampled_weight_ratio": workload.extra.get("sampled_weight_ratio", math.nan),
            "workload.write_p50_ms": median(rec.scaled("write")),
            "workload.compact_s": median(rec.scaled("compact")) / 1000.0,
        }
        # What this workload does not reach is left out; run.py reports it as 0.
        layers = {name: value for name, value in layers.items() if math.isfinite(value)}
        if args.spans is not None:
            tracer.write(args.spans)
    kinds = sorted({s.kind for s in rec.samples})
    out = {
        "metrics": metrics,
        "layers": layers,
        "attempted": rec.outcomes.attempted,
        "failed": rec.outcomes.failed,
        "digest": harness.digest([[k, workload.answers[k]] for k in sorted(workload.answers)]),
        "diag": {
            "latency_samples": n,
            "raw_primary_p50_ms": median([s.ms for s in rec.samples if s.kind == "primary"]),
            "rounds": rounds,
            "ops": ops,
            "wrong_answers": rec.outcomes.wrong,
            "setup_samples_s": setup_s,
            "probe_first_ms": setup_clock.probes_ms[0],
            "probe_median_ms": median(clock.probes_ms),
            "probe_last_ms": clock.probes_ms[-1],
            "probes": len(clock.probes_ms),
            "op_p50_ms": {kind: median(rec.scaled(kind)) for kind in kinds},
            "op_counts": {kind: len(rec.scaled(kind)) for kind in kinds},
            "extra": workload.extra,
        },
    }
    args.out.write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
