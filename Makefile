PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-parity test-mutation docs-check compile-check bench-service bench bench-smoke bench-json artifact-smoke shard-smoke compact-smoke anytime-smoke reach

# Tier-1 suite (includes the docs link/section check).
test:
	$(PYTHON) -m pytest -x -q

# Just the byte-identity parity suites: each solver vs its dict-loop reference
# twin (repro.core.reference, also on a RoadNetwork input and on its snapshot
# via the property harness's TestBackendIdentity), bound-based pruning (each
# solver, which always prunes, vs its twin, which never does, and the
# zero-mass window skip vs the scorer build), the graph suites (a RoadNetwork input, frozen at entry, vs its CSR
# snapshot) and σ_v (the columnar pipeline, the only σ_v path queries take,
# vs the object-loop reference scorer). Every σ_v read scores through the
# pipeline's one score function (WeightPipeline._query_terms and
# _score_hits), so the suites check it through each read that gathers for it:
# the corpus scan that small corpora take and the cell-ordered window kernel
# that large ones take, which test_window_kernel.py also checks against each
# other on every window shape, exclude_rows masks, a tile subset, a zlib
# artifact and the sampled tier's probe; and the sampled tier's full-budget
# read, which must equal the exact sums bit for bit (TestEscapeHatch). TGEN's
# cases, with its dominance near-ties and edge-length ties (test_tgen.py),
# and Greedy's, with its compaction, its rebound substrates, its tie rules and
# boundaries (test_kernel.py's TestGreedyTies and TestGreedyBoundaries) and
# test_greedy.py, run on the compiled kernel (kernel.c) against the reference
# twins, plus one tgen-paper-scale instance; the counters the twins do not
# keep are pinned to hand-derived values (test_kernel.py's TestCounters).
# Every solver also solves on a substrate served from an instance-cache hit
# and must leave each of its slots as built (TestCachedSubstrate). The fast
# gate to run after touching a solver hot loop, a skip branch or a scoring
# kernel.
test-parity:
	$(PYTHON) -m pytest tests/core/test_solver_backend_parity.py \
		tests/core/test_tgen.py::TestDominanceTies \
		tests/core/test_tgen.py::TestEdgeLengthTies \
		tests/core/test_greedy.py tests/core/test_kernel.py::TestGreedyTies \
		tests/core/test_kernel.py::TestGreedyBoundaries \
		tests/core/test_kernel.py::TestCounters \
		tests/core/test_solver_properties.py::TestBackendIdentity \
		tests/core/test_pruning_parity.py tests/core/test_backend_parity.py \
		tests/textindex/test_columnar.py tests/textindex/test_window_kernel.py \
		tests/textindex/test_sampling.py::TestEscapeHatch -q

# The mutable-world gate: the mutation-parity suite (overlay serving and
# post-compaction results byte-identical to a cold rebuild of the mutated
# corpus, through both σ_v kernels; and, for scripts that change the
# collection statistics, every merged read byte-identical to the scalar
# scorers over the mutated corpus with the base statistics pinned, the oracle
# of the overlay's columnar delta, which scores through the pipeline's one
# score function), the cache-staleness hammer tests, and the CLI
# mutate/compact round trips. Run after touching the overlay merge, the
# compactor or the caches.
test-mutation:
	$(PYTHON) -m pytest tests/service/test_generations.py \
		"tests/service/test_cli.py::TestMutateAndCompact" -q

# Fail on broken intra-repo doc links or missing README sections.
docs-check:
	$(PYTHON) -m pytest tests/test_docs.py -q

# Byte-compile the whole source tree: a fast syntax/import-shape gate that
# catches broken modules the test run might not import. The solvers' C kernel
# is compiled too, with every warning an error (its runtime build in
# repro.core.kernel uses the same -std, -O2 and -ffp-contract flags).
compile-check:
	$(PYTHON) -m compileall -q src
	$(CC) -std=c99 -O2 -ffp-contract=off -Wall -Wextra -Werror \
		-c -o /dev/null src/repro/core/kernel.c

# Reachability audit (tools/reach.py; about 25 minutes on 2 CPUs, not part of
# tier-1): run perfbench's four workloads, the four smoke targets, the
# examples and the smoke benchmarks, then tier-1, all under a profiling probe,
# and list the functions of src/repro that only tier-1 or nothing reaches.
# Fails on any such function that tools/reach_keep.txt does not list with a
# reason.
reach:
	$(PYTHON) tools/reach.py

# Serving-layer throughput benchmark (queries/sec vs batch size, cache hit rate).
bench-service:
	$(PYTHON) -m pytest benchmarks/bench_service_throughput.py -q -s

# All figure benchmarks (slow). bench_*.py is outside the default test file
# pattern, so the collection pattern is widened explicitly.
bench:
	$(PYTHON) -m pytest benchmarks/ -q -o python_files="bench_*.py"

# Every benchmark at its smallest configuration (1 query/setting, smallest
# datasets) under a hard time cap — a quick regression gate over the whole
# benchmark surface, including the artifact-persistence load-vs-rebuild check
# (bench_persist.py).
bench-smoke: compact-smoke anytime-smoke
	REPRO_BENCH_SMOKE=1 timeout 1200 $(PYTHON) -m pytest benchmarks/ -q \
		-o python_files="bench_*.py"

# Record the perf numbers of the refactor benchmarks as JSON — the columnar
# scoring pipeline (BENCH_scoring.json, bench_scoring.py), the dense solver
# substrate against the dict-loop reference twins (BENCH_solver.json,
# bench_solver_backend.py) and the bound-based pruning subsystem
# (BENCH_pruning.json, bench_pruning.py, including the skip/visit counters) —
# so the repo's performance trajectory is captured run over run. Runs at the
# default benchmark scale.
bench-json:
	REPRO_BENCH_JSON=BENCH_scoring.json $(PYTHON) -m pytest \
		benchmarks/bench_scoring.py -q -s -o python_files="bench_*.py"
	REPRO_BENCH_JSON=BENCH_solver.json $(PYTHON) -m pytest \
		benchmarks/bench_solver_backend.py -q -s -o python_files="bench_*.py"
	REPRO_BENCH_JSON=BENCH_pruning.json $(PYTHON) -m pytest \
		benchmarks/bench_pruning.py -q -s -o python_files="bench_*.py"
	REPRO_BENCH_JSON=BENCH_service.json $(PYTHON) -m pytest \
		benchmarks/bench_service_throughput.py::test_bench_process_scaling \
		-q -s -o python_files="bench_*.py"
	REPRO_BENCH_JSON=BENCH_generations.json $(PYTHON) -m pytest \
		benchmarks/bench_generations.py -q -s -o python_files="bench_*.py"
	REPRO_BENCH_JSON=BENCH_artifact.json $(PYTHON) -m pytest \
		benchmarks/bench_artifact_scale.py -q -s -o python_files="bench_*.py"
	REPRO_BENCH_JSON=BENCH_anytime.json $(PYTHON) -m pytest \
		benchmarks/bench_anytime.py -q -s -o python_files="bench_*.py"

# End-to-end artifact gate through the CLI: build a small artifact, verify and
# reload it, and answer one query per solver (exact gets a small window so its
# enumeration stays tiny). Then build the same dataset with --compress zlib,
# verify it, check `info` reports the codec, and diff each solver's answer on
# it against the raw artifact's (all lines but the runtime one). Query output
# goes through a file so a failing query fails the target. Leaves no files
# behind.
ARTIFACT_SMOKE_DIR := .artifact-smoke
artifact-smoke:
	rm -rf $(ARTIFACT_SMOKE_DIR)
	$(PYTHON) -m repro build --dataset ny --rows 16 --cols 16 --objects 500 \
		--clusters 6 --seed 3 --out $(ARTIFACT_SMOKE_DIR)/ny
	$(PYTHON) -m repro info $(ARTIFACT_SMOKE_DIR)/ny --verify
	for alg in app tgen greedy; do \
		$(PYTHON) -m repro query $(ARTIFACT_SMOKE_DIR)/ny \
			--keywords cafe,restaurant --delta 800 --algorithm $$alg || exit 1; \
	done
	$(PYTHON) -m repro query $(ARTIFACT_SMOKE_DIR)/ny --keywords cafe \
		--delta 500 --region 100,100,450,450 --algorithm exact
	$(PYTHON) -m repro serve-batch $(ARTIFACT_SMOKE_DIR)/ny --synthesize 8 \
		--delta 800 --workers 2 --repeat 2
	$(PYTHON) -m repro build --dataset ny --rows 16 --cols 16 --objects 500 \
		--clusters 6 --seed 3 --out $(ARTIFACT_SMOKE_DIR)/zlib --compress zlib
	$(PYTHON) -m repro info $(ARTIFACT_SMOKE_DIR)/zlib --verify \
		> $(ARTIFACT_SMOKE_DIR)/info.txt
	grep 'compression    : zlib' $(ARTIFACT_SMOKE_DIR)/info.txt
	for args in 'cafe,restaurant --delta 800 --algorithm app' \
		'cafe,restaurant --delta 800 --algorithm tgen' \
		'cafe,restaurant --delta 800 --algorithm greedy' \
		'cafe --delta 500 --region 100,100,450,450 --algorithm exact'; do \
		for art in ny zlib; do \
			$(PYTHON) -m repro query $(ARTIFACT_SMOKE_DIR)/$$art --keywords $$args \
				> $(ARTIFACT_SMOKE_DIR)/$$art.out || exit 1; \
			grep -v runtime $(ARTIFACT_SMOKE_DIR)/$$art.out \
				> $(ARTIFACT_SMOKE_DIR)/$$art.txt || exit 1; \
		done; \
		diff $(ARTIFACT_SMOKE_DIR)/ny.txt $(ARTIFACT_SMOKE_DIR)/zlib.txt || exit 1; \
	done
	rm -rf $(ARTIFACT_SMOKE_DIR)

# End-to-end mutable-world gate through the CLI: build a small artifact,
# record mutations in the delta log, answer a query from the merged (overlay)
# world, compact into gen-0001, verify the new generation's checksums, and
# answer one query per solver from it (exact gets a small window so its
# enumeration stays tiny). The mutations include an add 1,000 km outside the
# network, so each compaction runs under a time cap: mapping a far object must
# stay fast. The same mutations then run on a zlib-compressed build, whose
# compaction reads the compressed index.pkl through the lazily loaded corpus;
# its compacted answers must match the raw ones (all lines but the runtime
# one). A mutation never touches the road network, so in both passes the
# compacted gen-0001/network.npz must equal the base's byte for byte (`cmp`):
# compaction reuses the base CSR, and a thaw-and-refreeze would reorder its
# adjacency rows. A `mutate --add` with a NaN coordinate must then exit with
# status 2 and record nothing in the served generation's delta log
# (gen-0001/delta.json; the base's stays in the root), and a log there
# holding an op without an id must make `query` exit with status 2. Leaves no
# files behind.
COMPACT_SMOKE_DIR := .compact-smoke
COMPACT_SMOKE_BUILD := build --dataset ny --rows 16 --cols 16 --objects 500 \
	--clusters 6 --seed 3
COMPACT_SMOKE_MUTATIONS := \
	--add '{"id": 90001, "x": 350.0, "y": 350.0, "keywords": ["cafe", "bar"], "rating": 2.5}' \
	--add '{"id": 90002, "x": 1000000.0, "y": 1000000.0, "keywords": ["cafe"], "rating": 1.5}' \
	--set-rating 3=4.5 --remove 7
compact-smoke:
	rm -rf $(COMPACT_SMOKE_DIR)
	$(PYTHON) -m repro $(COMPACT_SMOKE_BUILD) --out $(COMPACT_SMOKE_DIR)/ny
	$(PYTHON) -m repro mutate $(COMPACT_SMOKE_DIR)/ny $(COMPACT_SMOKE_MUTATIONS)
	$(PYTHON) -m repro query $(COMPACT_SMOKE_DIR)/ny \
		--keywords cafe,restaurant --delta 800
	timeout 120 $(PYTHON) -m repro compact $(COMPACT_SMOKE_DIR)/ny
	cmp $(COMPACT_SMOKE_DIR)/ny/network.npz $(COMPACT_SMOKE_DIR)/ny/gen-0001/network.npz
	$(PYTHON) -m repro info $(COMPACT_SMOKE_DIR)/ny/gen-0001 --verify
	$(PYTHON) -m repro $(COMPACT_SMOKE_BUILD) --out $(COMPACT_SMOKE_DIR)/zlib \
		--compress zlib
	$(PYTHON) -m repro mutate $(COMPACT_SMOKE_DIR)/zlib $(COMPACT_SMOKE_MUTATIONS)
	timeout 120 $(PYTHON) -m repro compact $(COMPACT_SMOKE_DIR)/zlib
	cmp $(COMPACT_SMOKE_DIR)/zlib/network.npz $(COMPACT_SMOKE_DIR)/zlib/gen-0001/network.npz
	$(PYTHON) -m repro info $(COMPACT_SMOKE_DIR)/zlib/gen-0001 --verify \
		> $(COMPACT_SMOKE_DIR)/info.txt
	grep 'compression    : zlib' $(COMPACT_SMOKE_DIR)/info.txt
	for alg in app tgen greedy; do \
		for art in ny zlib; do \
			$(PYTHON) -m repro query $(COMPACT_SMOKE_DIR)/$$art \
				--keywords cafe,restaurant --delta 800 --algorithm $$alg \
				> $(COMPACT_SMOKE_DIR)/$$art.out || exit 1; \
			grep -v runtime $(COMPACT_SMOKE_DIR)/$$art.out \
				> $(COMPACT_SMOKE_DIR)/$$art.txt || exit 1; \
		done; \
		cat $(COMPACT_SMOKE_DIR)/ny.out; \
		diff $(COMPACT_SMOKE_DIR)/ny.txt $(COMPACT_SMOKE_DIR)/zlib.txt || exit 1; \
	done
	$(PYTHON) -m repro query $(COMPACT_SMOKE_DIR)/ny --keywords cafe \
		--delta 500 --region 100,100,450,450 --algorithm exact
	$(PYTHON) -m repro mutate $(COMPACT_SMOKE_DIR)/ny \
		--add '{"id": 90003, "x": NaN, "y": 350.0, "keywords": ["cafe"]}'; \
		test $$? -eq 2
	test ! -e $(COMPACT_SMOKE_DIR)/ny/gen-0001/delta.json
	echo '{"ops": [{"op": "remove"}]}' > $(COMPACT_SMOKE_DIR)/ny/gen-0001/delta.json
	$(PYTHON) -m repro query $(COMPACT_SMOKE_DIR)/ny --keywords cafe --delta 800; \
		test $$? -eq 2
	rm -rf $(COMPACT_SMOKE_DIR)

# End-to-end policy gate through the CLI: build a small artifact, answer one
# query per solver under each service policy, assert the exact policy answers
# identically to the policy-free path (all lines but the runtime one), check
# every sampled answer prints its 95% CI line, and run mixed-policy batches
# through serve-batch. Leaves no files behind.
ANYTIME_SMOKE_DIR := .anytime-smoke
anytime-smoke:
	rm -rf $(ANYTIME_SMOKE_DIR)
	$(PYTHON) -m repro build --dataset ny --rows 16 --cols 16 --objects 500 \
		--clusters 6 --seed 3 --out $(ANYTIME_SMOKE_DIR)/ny
	for alg in app tgen greedy; do \
		$(PYTHON) -m repro query $(ANYTIME_SMOKE_DIR)/ny \
			--keywords cafe,restaurant --delta 800 --algorithm $$alg \
			| grep -v runtime > $(ANYTIME_SMOKE_DIR)/plain.txt || exit 1; \
		$(PYTHON) -m repro query $(ANYTIME_SMOKE_DIR)/ny \
			--keywords cafe,restaurant --delta 800 --algorithm $$alg \
			--policy exact \
			| grep -v runtime > $(ANYTIME_SMOKE_DIR)/exact.txt || exit 1; \
		diff $(ANYTIME_SMOKE_DIR)/plain.txt $(ANYTIME_SMOKE_DIR)/exact.txt \
			|| exit 1; \
		$(PYTHON) -m repro query $(ANYTIME_SMOKE_DIR)/ny \
			--keywords cafe,restaurant --delta 800 --algorithm $$alg \
			--policy 'anytime(60000)' || exit 1; \
		$(PYTHON) -m repro query $(ANYTIME_SMOKE_DIR)/ny \
			--keywords cafe,restaurant --delta 800 --algorithm $$alg \
			--policy 'sampled(0.3)' \
			| grep 'quality   : sampled (95% CI' || exit 1; \
	done
	$(PYTHON) -m repro query $(ANYTIME_SMOKE_DIR)/ny --keywords cafe \
		--delta 500 --region 100,100,450,450 --algorithm exact \
		--policy 'sampled(0.3)' | grep 'quality   : sampled (95% CI'
	$(PYTHON) -m repro serve-batch $(ANYTIME_SMOKE_DIR)/ny --synthesize 6 \
		--delta 800 --workers 2 --policy 'sampled(0.3)'
	$(PYTHON) -m repro serve-batch $(ANYTIME_SMOKE_DIR)/ny --synthesize 6 \
		--delta 800 --workers 2 --deadline-ms 60000
	rm -rf $(ANYTIME_SMOKE_DIR)

# End-to-end sharded-serving gate through the CLI: build an artifact with 4
# tile shards, verify every shard sub-artifact's manifest and checksums, and
# serve one cross-shard query per solver through the multi-process gateway.
# Then record a mutation, compact (which re-shards gen-0001), verify every
# gen-0001 shard, and serve the same batch again: the gateway follows CURRENT
# to gen-0001 and its mirrored 4-shard set. Output goes through a file so a
# failing command fails the target (a pipe into grep would hide its status).
# Leaves no files behind.
SHARD_SMOKE_DIR := .shard-smoke
shard-smoke:
	rm -rf $(SHARD_SMOKE_DIR)
	$(PYTHON) -m repro build --dataset ny --rows 16 --cols 16 --objects 500 \
		--clusters 6 --seed 3 --out $(SHARD_SMOKE_DIR)/ny --shards 4 --halo 600
	for shard in $(SHARD_SMOKE_DIR)/ny/shards/shard-*; do \
		$(PYTHON) -m repro info $$shard --verify || exit 1; \
	done
	printf '%s\n' \
		'{"keywords": ["cafe", "restaurant"], "delta": 800, "algorithm": "app"}' \
		'{"keywords": ["cafe", "restaurant"], "delta": 800, "algorithm": "tgen"}' \
		'{"keywords": ["cafe", "restaurant"], "delta": 800, "algorithm": "greedy"}' \
		'{"keywords": ["cafe"], "delta": 500, "region": [100, 100, 450, 450], "algorithm": "exact"}' \
		> $(SHARD_SMOKE_DIR)/requests.jsonl
	$(PYTHON) -m repro serve-batch $(SHARD_SMOKE_DIR)/ny \
		--requests $(SHARD_SMOKE_DIR)/requests.jsonl --processes 2 \
		> $(SHARD_SMOKE_DIR)/out.txt
	grep 'over 4 shard(s)' $(SHARD_SMOKE_DIR)/out.txt
	$(PYTHON) -m repro mutate $(SHARD_SMOKE_DIR)/ny \
		--add '{"id": 90001, "x": 350.0, "y": 350.0, "keywords": ["cafe", "bar"], "rating": 2.5}'
	$(PYTHON) -m repro compact $(SHARD_SMOKE_DIR)/ny > $(SHARD_SMOKE_DIR)/out.txt
	grep 'resharded   : yes' $(SHARD_SMOKE_DIR)/out.txt
	for shard in $(SHARD_SMOKE_DIR)/ny/gen-0001/shards/shard-*; do \
		$(PYTHON) -m repro info $$shard --verify || exit 1; \
	done
	$(PYTHON) -m repro serve-batch $(SHARD_SMOKE_DIR)/ny \
		--requests $(SHARD_SMOKE_DIR)/requests.jsonl --processes 2 \
		> $(SHARD_SMOKE_DIR)/out.txt
	grep 'over 4 shard(s)' $(SHARD_SMOKE_DIR)/out.txt
	rm -rf $(SHARD_SMOKE_DIR)
