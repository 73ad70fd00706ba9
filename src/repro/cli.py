"""The ``python -m repro`` command line: build, inspect and query index artifacts.

The CLI is the operational face of :mod:`repro.service.persist` — it separates the
offline index build from online serving so examples, benchmarks and deployments can
share one prebuilt artifact instead of each paying the full indexing pipeline:

* ``python -m repro build --dataset ny --out artifacts/ny`` — generate a dataset,
  build every index structure once and persist the bundle as a versioned artifact
  (add ``--compress zlib`` for a chunk-compressed artifact and ``--stream`` to
  build from an object generator, with no object list beside the corpus);
* ``python -m repro info artifacts/ny`` — print the manifest (format version,
  dataset fingerprint, checksums, per-file on-disk sizes and compression ratio)
  without loading the indexes, and the path of the compiled solver kernel this
  installation runs;
* ``python -m repro query artifacts/ny --keywords cafe,bar --delta 2000`` — load
  the artifact (CSR arrays memory-mapped) and answer one LCMSR query;
* ``python -m repro serve-batch artifacts/ny --synthesize 32`` — run a batch of
  queries through :class:`~repro.service.query_service.QueryService` and print the
  timing / cache statistics;
* ``python -m repro mutate artifacts/ny --remove 17`` — record dataset mutations
  in the served generation's delta log; queries merge them at serving time until
  the next compaction;
* ``python -m repro compact artifacts/ny`` — re-freeze base + delta into a new
  ``gen-NNNN/`` generation directory and flip the ``CURRENT`` pointer atomically.

Every subcommand exits with status 2 on an :class:`~repro.exceptions.ReproError`
(bad artifact, malformed query, ...) and prints the reason to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import asdict
from pathlib import Path
from typing import List, Optional, Sequence

from repro.exceptions import QueryError, ReproError
from repro.network.subgraph import Rectangle


def _parse_keywords(raw: str) -> List[str]:
    keywords = [part.strip() for part in raw.split(",") if part.strip()]
    if not keywords:
        raise QueryError(f"no keywords in {raw!r} (expected e.g. 'cafe,restaurant')")
    return keywords


def _parse_region(raw: Optional[str]) -> Optional[Rectangle]:
    if raw is None:
        return None
    parts = [part.strip() for part in raw.split(",")]
    if len(parts) != 4:
        raise QueryError(
            f"a region needs 4 comma-separated numbers min_x,min_y,max_x,max_y, got {raw!r}"
        )
    try:
        min_x, min_y, max_x, max_y = (float(part) for part in parts)
    except ValueError as exc:
        raise QueryError(f"non-numeric region coordinate in {raw!r}") from exc
    return Rectangle(min_x, min_y, max_x, max_y)


# ---------------------------------------------------------------------- build
def _cmd_build(args: argparse.Namespace) -> int:
    from repro.service.bundle import IndexBundle

    # Checked before any build work, so a bad value leaves no artifact behind.
    if args.shards is not None:
        if args.shards < 1:
            raise QueryError(f"--shards must be >= 1, got {args.shards}")
        if not math.isfinite(args.halo) or args.halo < 0.0:
            raise QueryError(f"--halo must be a finite number >= 0, got {args.halo}")
    compress = None if args.compress == "none" else args.compress
    if args.stream:
        # Streaming build: the objects are consumed from a generator straight
        # into the corpus, with no object list beside it. The artifact equals
        # the eager build's byte for byte; the corpus and the index still
        # grow with the object count (BENCH_artifact.json records the same
        # peak RSS for both builds at 1 M objects), so memory is not bounded.
        if args.dataset == "ny":
            from repro.datasets.ny import ny_like_parts

            dataset_name = "NY-like"
            network, objects = ny_like_parts(
                rows=args.rows,
                cols=args.cols,
                block_size=args.block_size,
                num_objects=args.objects,
                num_clusters=args.clusters,
                seed=args.seed,
            )
        else:
            from repro.datasets.usanw import usanw_like_parts

            dataset_name = "USANW-like"
            network, objects = usanw_like_parts(
                num_nodes=args.nodes,
                extent=args.extent,
                num_objects=args.objects,
                num_clusters=args.clusters,
                seed=args.seed,
            )
        bundle = IndexBundle.build_streaming(network, objects)
    else:
        from repro.datasets.ny import build_ny_like
        from repro.datasets.usanw import build_usanw_like

        if args.dataset == "ny":
            dataset = build_ny_like(
                rows=args.rows,
                cols=args.cols,
                block_size=args.block_size,
                num_objects=args.objects,
                num_clusters=args.clusters,
                seed=args.seed,
            )
        else:
            dataset = build_usanw_like(
                num_nodes=args.nodes,
                extent=args.extent,
                num_objects=args.objects,
                num_clusters=args.clusters,
                seed=args.seed,
            )
        dataset_name = dataset.name
        bundle = IndexBundle.from_dataset(dataset)
    manifest = bundle.save(args.out, overwrite=args.force, compress=compress)
    streamed = " [streamed]" if args.stream else ""
    print(f"artifact written to {args.out}")
    print(f"  dataset     : {dataset_name} (seed {args.seed}){streamed}")
    print(f"  bundle      : {bundle.describe()}")
    print(f"  fingerprint : {manifest.fingerprint[:16]}…")
    print(f"  format      : v{manifest.format_version}")
    if manifest.compression is not None:
        print(
            f"  compression : {manifest.compression.get('codec')} "
            f"(level {manifest.compression.get('level')})"
        )
    if args.shards is not None:
        from repro.service.persist import compression_spec
        from repro.service.sharding import build_shards

        shard_set = build_shards(
            bundle,
            args.out,
            num_shards=args.shards,
            halo_margin=args.halo,
            base_fingerprint=manifest.fingerprint,
            overwrite=args.force,
            compression=compression_spec(compress),
        )
        kx, ky = shard_set.tiles
        print(
            f"  shards      : {shard_set.num_shards} "
            f"({kx}x{ky} tiles, halo {shard_set.halo_margin:.0f} m)"
        )
    return 0


# ---------------------------------------------------------------------- info
def _cmd_info(args: argparse.Namespace) -> int:
    from repro.core import kernel
    from repro.service.persist import read_manifest, verify_artifact

    manifest = verify_artifact(args.artifact) if args.verify else read_manifest(args.artifact)
    if args.json:
        fields = asdict(manifest)
        fields["kernel"] = kernel.describe()
        print(json.dumps(fields, sort_keys=True, indent=2))
        return 0
    print(f"artifact {args.artifact}")
    print(f"  format version : {manifest.format_version}")
    print(f"  fingerprint    : {manifest.fingerprint}")
    print(f"  scoring mode   : {manifest.scoring_mode}")
    print(f"  kernel         : {kernel.describe()}")
    if manifest.shard is not None:
        print(
            f"  shard          : part {manifest.shard.get('part')} of "
            f"{manifest.shard.get('of')} (halo {manifest.shard.get('halo_margin')} m)"
        )
    for key in sorted(manifest.stats):
        print(f"  {key:<15}: {manifest.stats[key]}")
    for name in sorted(manifest.checksums):
        print(f"  sha256 {name:<12}: {manifest.checksums[name][:16]}…")
    artifact_dir = Path(args.artifact)
    total_disk = 0
    for name in sorted(manifest.checksums):
        file_path = artifact_dir / name
        size = file_path.stat().st_size if file_path.is_file() else 0
        total_disk += size
        print(f"  bytes {name:<13}: {size:,}")
    block = manifest.compression
    if block is not None:
        raw_bytes = block.get("raw_bytes") or {}
        total_raw = sum(int(value) for value in raw_bytes.values())
        ratio = (total_raw / total_disk) if total_disk else 0.0
        print(
            f"  compression    : {block.get('codec')} level {block.get('level')} "
            f"({block.get('chunk_elems')}-elem chunks)"
        )
        print(
            f"  on-disk total  : {total_disk:,} bytes "
            f"({total_raw:,} raw, {ratio:.2f}x smaller)"
        )
    else:
        print(f"  on-disk total  : {total_disk:,} bytes (uncompressed)")
    if args.verify:
        print("  checksums      : verified ok")
    return 0


# ---------------------------------------------------------------------- query
def _parse_policy(args: argparse.Namespace):
    """Resolve the --policy/--deadline-ms/--epsilon flags to a QueryPolicy.

    Returns ``None`` when no policy flag was given at all, so the exact path
    stays the literal pre-policy code path.
    """
    from repro.core.anytime import QueryPolicy

    if args.policy is None and args.deadline_ms is None and args.epsilon is None:
        return None
    text = args.policy
    if text is None:
        text = "anytime" if args.deadline_ms is not None else "sampled"
    try:
        return QueryPolicy.parse(
            text, deadline_ms=args.deadline_ms, epsilon=args.epsilon
        )
    except ValueError as exc:
        raise QueryError(str(exc)) from exc


def _quality_line(stats) -> Optional[str]:
    """Render the quality_* stats entries of an approximate answer, if any."""
    from repro.core.anytime import ResultQuality

    quality = ResultQuality.from_stats(stats or {})
    if quality is None or quality.kind == "exact":
        return None
    if quality.kind == "anytime":
        bound = quality.regret_bound if quality.regret_bound is not None else 0.0
        return f"quality   : anytime (regret bound {bound:.4f})"
    ci = quality.ci if quality.ci is not None else 0.0
    return f"quality   : sampled (95% CI ±{ci:.4f})"


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.engine import LCMSREngine

    engine = LCMSREngine.from_artifact(args.artifact)
    keywords = _parse_keywords(args.keywords)
    region = _parse_region(args.region)
    policy = _parse_policy(args)
    if args.k > 1:
        topk = engine.query_topk(
            keywords, delta=args.delta, k=args.k, region=region,
            algorithm=args.algorithm, policy=policy,
        )
        print(
            f"{len(topk)} region(s) by {topk.algorithm} "
            f"in {topk.runtime_seconds * 1000:.1f} ms"
        )
        for rank, result in enumerate(topk, start=1):
            print(
                f"  #{rank}: weight={result.weight:.4f} length={result.length:.1f} "
                f"nodes={result.region.num_nodes}"
            )
        quality = _quality_line(topk.stats)
        if quality is not None:
            print(quality)
        return 0
    result = engine.query(
        keywords, delta=args.delta, region=region, algorithm=args.algorithm,
        policy=policy,
    )
    print(f"algorithm : {result.algorithm}")
    print(f"weight    : {result.weight:.4f}")
    print(f"length    : {result.length:.1f} (budget {args.delta:.1f})")
    print(f"nodes     : {sorted(result.region.nodes)}")
    print(f"runtime   : {result.runtime_seconds * 1000:.1f} ms")
    quality = _quality_line(result.stats)
    if quality is not None:
        print(quality)
    return 0


# ---------------------------------------------------------------------- serve-batch
def _synthesize_requests(engine, count: int, delta: float, seed: int, policy=None):
    """Build a deterministic keyword workload from the corpus's frequent terms."""
    from repro.service.query_service import QueryRequest

    rng = random.Random(seed)
    # Read off the scoring columns, so a loaded artifact's corpus stays unpickled.
    frequent = [term for term, _ in engine.bundle.columnar.most_frequent_terms(40)]
    if not frequent:
        raise QueryError("the artifact's corpus has no terms to synthesize queries from")
    requests = []
    for _ in range(count):
        size = rng.randint(1, min(3, len(frequent)))
        keywords = rng.sample(frequent, size)
        requests.append(QueryRequest.create(keywords, delta=delta, policy=policy))
    return requests


def _cmd_serve_batch(args: argparse.Namespace) -> int:
    from repro.engine import LCMSREngine
    from repro.evaluation.reporting import format_service_stats
    from repro.service.query_service import QueryRequest, QueryService

    from repro.core.anytime import QueryPolicy

    if args.repeat < 1:
        raise QueryError(f"--repeat must be >= 1, got {args.repeat}")
    if args.requests is None and args.synthesize < 1:
        raise QueryError(f"--synthesize must be >= 1, got {args.synthesize}")
    default_policy = _parse_policy(args)
    # The sharded gateway opens the artifact in its workers, so the CLI process
    # loads an engine only to synthesize requests or to run the thread pool.
    engine = None
    if args.requests is None or args.processes is None:
        engine = LCMSREngine.from_artifact(args.artifact)
    if args.requests is not None:
        requests = []
        for line_number, line in enumerate(
            Path(args.requests).read_text(encoding="utf-8").splitlines(), start=1
        ):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
                region = raw.get("region")
                policy = (
                    QueryPolicy.parse(raw["policy"])
                    if raw.get("policy") is not None
                    else default_policy
                )
                requests.append(
                    QueryRequest.create(
                        raw["keywords"],
                        delta=float(raw["delta"]),
                        region=Rectangle(*region) if region else None,
                        algorithm=raw.get("algorithm"),
                        k=int(raw.get("k", 1)),
                        policy=policy,
                    )
                )
            except (QueryError, ValueError, KeyError, TypeError) as exc:
                raise QueryError(
                    f"malformed request on line {line_number} of {args.requests}: {exc}"
                ) from exc
        if not requests:
            raise QueryError(f"no requests found in {args.requests}")
    else:
        requests = _synthesize_requests(
            engine, args.synthesize, args.delta, args.seed, policy=default_policy
        )

    # RegionResult exposes is_empty; a TopKResult is empty when it has no entries.
    def _answered(result) -> bool:
        if hasattr(result, "is_empty"):
            return not result.is_empty
        return len(result) > 0

    if args.processes is not None:
        from repro.service.sharding import ShardedQueryService

        if args.processes < 1:
            raise QueryError(f"--processes must be >= 1, got {args.processes}")
        with ShardedQueryService(args.artifact, num_workers=args.processes) as service:
            for _ in range(args.repeat):
                results = service.run_batch(requests)
            shard_set = service.shard_set
            shards = shard_set.num_shards if shard_set else 0
            print(
                f"served {len(requests)} request(s) x{args.repeat} with "
                f"{args.processes} process(es) over {shards} shard(s)"
            )
            answered = sum(1 for result in results if _answered(result))
            print(f"non-empty answers in last pass: {answered}/{len(results)}")
            print(format_service_stats(service.stats(), title="sharded service stats"))
        return 0

    with QueryService(engine, max_workers=args.workers) as service:
        for _ in range(args.repeat):
            results = service.run_batch(requests)
        print(f"served {len(requests)} request(s) x{args.repeat} with {args.workers} worker(s)")
        answered = sum(1 for result in results if _answered(result))
        print(f"non-empty answers in last pass: {answered}/{len(results)}")
        print(format_service_stats(service.stats(), title="service stats"))
    return 0


# ---------------------------------------------------------------------- mutate
def _parse_op_json(raw: str, kind: str) -> dict:
    """Parse one ``--add``/``--update`` JSON object into a mutation op."""
    try:
        op = json.loads(raw)
    except ValueError as exc:
        raise QueryError(f"malformed JSON for --{kind}: {exc}") from exc
    if not isinstance(op, dict):
        raise QueryError(f"--{kind} expects a JSON object, got {raw!r}")
    op["op"] = kind
    return op


def _collect_mutation_ops(args: argparse.Namespace) -> List[dict]:
    """Assemble the op list: ``--ops`` file first, then the per-flag groups."""
    ops: List[dict] = []
    if args.ops is not None:
        try:
            payload = json.loads(Path(args.ops).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise QueryError(f"cannot read mutation ops from {args.ops}: {exc}") from exc
        listed = payload.get("ops") if isinstance(payload, dict) else payload
        if not isinstance(listed, list):
            raise QueryError(
                f"{args.ops} must hold a JSON list of ops (or {{\"ops\": [...]}})"
            )
        ops.extend(listed)
    ops.extend(_parse_op_json(raw, "add") for raw in args.add)
    ops.extend(_parse_op_json(raw, "update") for raw in args.update)
    for raw in args.remove:
        try:
            ops.append({"op": "remove", "id": int(raw)})
        except ValueError as exc:
            raise QueryError(f"--remove expects an object id, got {raw!r}") from exc
    for raw in args.set_rating:
        ident, sep, rating = raw.partition("=")
        try:
            if not sep:
                raise ValueError("missing '='")
            ops.append({"op": "rate", "id": int(ident), "rating": float(rating)})
        except ValueError as exc:
            raise QueryError(
                f"--set-rating expects ID=RATING (e.g. 17=4.5), got {raw!r}: {exc}"
            ) from exc
    return ops


def _cmd_mutate(args: argparse.Namespace) -> int:
    from repro.engine import LCMSREngine
    from repro.service.generations import (
        DeltaOverlay,
        append_delta_ops,
        apply_ops,
        resolve_generation,
    )

    ops = _collect_mutation_ops(args)
    if not ops:
        raise QueryError(
            "no mutations given: pass --add / --update / --remove / --set-rating "
            "or --ops FILE"
        )
    # Loading the served generation replays its delta log; applying the new
    # ops on top validates the whole sequence before anything is written to
    # disk, and the ops go to the log of the generation they were validated on.
    served = resolve_generation(args.artifact, warn_partial=False)
    engine = LCMSREngine.from_artifact(served)
    overlay = engine.overlay
    if overlay is None:
        overlay = DeltaOverlay(engine.bundle)
    apply_ops(overlay, ops)
    total = append_delta_ops(served, ops)
    print(f"recorded {len(ops)} mutation(s) in the delta log at {served}")
    print(f"  pending ops     : {total}")
    print(f"  touched objects : {overlay.pending_count}")
    print(f"  served merged at query time; run `python -m repro compact {args.artifact}`")
    return 0


# ---------------------------------------------------------------------- compact
def _cmd_compact(args: argparse.Namespace) -> int:
    from repro.engine import LCMSREngine
    from repro.service.generations import Compactor

    engine = LCMSREngine.from_artifact(args.artifact)
    overlay = engine.overlay
    if overlay is None or not overlay.has_pending:
        print(f"nothing to compact: no pending mutations at {args.artifact}")
        return 0
    report = Compactor(engine, root=args.artifact).compact()
    print(f"compacted {report.mutations} mutation(s) into {report.generation}")
    print(f"  path        : {report.path}")
    print(f"  fingerprint : {report.fingerprint[:16]}…")
    print(f"  resharded   : {'yes' if report.resharded else 'no'}")
    print(f"  seconds     : {report.seconds:.2f}")
    return 0


# ---------------------------------------------------------------------- parser
def build_parser() -> argparse.ArgumentParser:
    """Build the ``python -m repro`` argument parser (exposed for tests/docs)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Build, inspect and query persistent LCMSR index artifacts.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    build = subparsers.add_parser(
        "build", help="generate a dataset, build all indexes once and persist them"
    )
    build.add_argument("--dataset", choices=("ny", "usanw"), default="ny")
    build.add_argument("--out", required=True, help="artifact directory to write")
    build.add_argument("--seed", type=int, default=42, help="dataset seed (deterministic)")
    build.add_argument("--force", action="store_true", help="overwrite an existing artifact")
    build.add_argument("--rows", type=int, default=50, help="[ny] street-grid rows")
    build.add_argument("--cols", type=int, default=50, help="[ny] street-grid columns")
    build.add_argument("--block-size", type=float, default=120.0, help="[ny] block size (m)")
    build.add_argument("--nodes", type=int, default=3000, help="[usanw] network nodes")
    build.add_argument("--extent", type=float, default=20000.0, help="[usanw] extent (m)")
    build.add_argument("--objects", type=int, default=7000, help="number of geo-textual objects")
    build.add_argument("--clusters", type=int, default=30, help="number of PoI hot spots")
    build.add_argument(
        "--compress", choices=("none", "zlib", "lzma"), default="none",
        help="chunk-compress the artifact's payload columns with this codec "
        "(hot bound/offset columns stay raw memmaps; queries are "
        "byte-identical either way)",
    )
    build.add_argument(
        "--stream", action="store_true",
        help="build through the streaming indexer: objects are generated and "
        "consumed one at a time, with no object list beside the corpus (the "
        "same artifact, byte for byte; the corpus and index still grow with "
        "the object count)",
    )
    build.add_argument(
        "--shards", type=int, default=None,
        help="also partition the artifact into this many tile shards under "
        "<out>/shards/ (self-contained sub-artifacts with halo edges)",
    )
    build.add_argument(
        "--halo", type=float, default=2000.0,
        help="[--shards] halo margin in meters; choose >= the largest query ∆ "
        "the shards should answer locally",
    )
    build.set_defaults(func=_cmd_build)

    info = subparsers.add_parser("info", help="print an artifact's manifest")
    info.add_argument("artifact", help="artifact directory")
    info.add_argument("--json", action="store_true", help="machine-readable output")
    info.add_argument("--verify", action="store_true", help="also verify file checksums")
    info.set_defaults(func=_cmd_info)

    query = subparsers.add_parser("query", help="answer one LCMSR query from an artifact")
    query.add_argument("artifact", help="artifact directory")
    query.add_argument("--keywords", required=True, help="comma-separated query keywords")
    query.add_argument("--delta", type=float, required=True, help="length budget Q.∆ (m)")
    query.add_argument("--region", help="query window min_x,min_y,max_x,max_y")
    query.add_argument(
        "--algorithm", choices=("app", "tgen", "greedy", "exact"), default=None,
        help="solver (engine default: tgen)",
    )
    query.add_argument("-k", type=int, default=1, help="return the top-k regions")
    query.add_argument(
        "--policy", default=None,
        help="service policy: 'exact' (default), 'anytime(<ms>)' or "
        "'sampled(<eps>)'; bare 'anytime'/'sampled' take the value from "
        "--deadline-ms/--epsilon",
    )
    query.add_argument(
        "--deadline-ms", type=float, default=None,
        help="deadline for --policy anytime (milliseconds)",
    )
    query.add_argument(
        "--epsilon", type=float, default=None,
        help="target error for --policy sampled (0 < eps < 1)",
    )
    query.set_defaults(func=_cmd_query)

    serve = subparsers.add_parser(
        "serve-batch", help="run a query batch through the serving layer"
    )
    serve.add_argument("artifact", help="artifact directory")
    serve.add_argument(
        "--requests",
        help="JSONL file; each line {\"keywords\": [...], \"delta\": ..., "
        "\"region\"?: [x1,y1,x2,y2], \"algorithm\"?: ..., \"k\"?: ..., "
        "\"policy\"?: \"anytime(200)\"}",
    )
    serve.add_argument(
        "--synthesize", type=int, default=16,
        help="without --requests: synthesize this many keyword queries",
    )
    serve.add_argument("--delta", type=float, default=2000.0, help="budget for synthesized queries")
    serve.add_argument("--seed", type=int, default=7, help="seed for synthesized queries")
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument(
        "--processes", type=int, default=None,
        help="serve with this many worker processes through the sharded "
        "gateway, which routes each query to one shard whose extent contains "
        "its window (else to the base artifact), instead of the in-process "
        "thread pool",
    )
    serve.add_argument("--repeat", type=int, default=1, help="run the batch this many times")
    serve.add_argument(
        "--policy", default=None,
        help="service policy applied to every request that does not set its "
        "own (JSONL lines may carry a \"policy\" field): 'exact', "
        "'anytime(<ms>)' or 'sampled(<eps>)'",
    )
    serve.add_argument(
        "--deadline-ms", type=float, default=None,
        help="deadline for --policy anytime (milliseconds)",
    )
    serve.add_argument(
        "--epsilon", type=float, default=None,
        help="target error for --policy sampled (0 < eps < 1)",
    )
    serve.set_defaults(func=_cmd_serve_batch)

    mutate = subparsers.add_parser(
        "mutate", help="record dataset mutations in the served generation's delta log"
    )
    mutate.add_argument("artifact", help="artifact root directory")
    mutate.add_argument(
        "--add", action="append", metavar="JSON", default=[],
        help='add an object: \'{"id": 900, "x": 10.0, "y": 20.0, '
        '"keywords": ["cafe"], "rating": 2.0}\' (repeatable)',
    )
    mutate.add_argument(
        "--update", action="append", metavar="JSON", default=[],
        help="replace an existing object (same JSON shape as --add; repeatable)",
    )
    mutate.add_argument(
        "--remove", action="append", metavar="ID", default=[],
        help="remove the object with this id (repeatable)",
    )
    mutate.add_argument(
        "--set-rating", action="append", metavar="ID=RATING", default=[],
        dest="set_rating",
        help="change an object's rating, e.g. --set-rating 17=4.5 (repeatable)",
    )
    mutate.add_argument(
        "--ops",
        help='JSON file with a list of mutation ops (or {"ops": [...]}); '
        "applied before the per-flag groups",
    )
    mutate.set_defaults(func=_cmd_mutate)

    compact = subparsers.add_parser(
        "compact",
        help="re-freeze base + pending mutations into a new gen-NNNN generation",
    )
    compact.add_argument("artifact", help="artifact root directory")
    compact.set_defaults(func=_cmd_compact)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (e.g. `... | head`) closed stdout: not an error.
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
