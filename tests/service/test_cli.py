"""The ``python -m repro`` CLI: build / info / query / serve-batch round trips.

The commands are exercised in-process through :func:`repro.cli.main` (same code
path as ``python -m repro``, minus the interpreter spawn), asserting both the
exit codes and the observable artifact side effects.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core import kernel
from repro.engine import LCMSREngine
from repro.service.persist import FORMAT_VERSION, read_manifest

BUILD_ARGS = [
    "build", "--dataset", "ny", "--rows", "12", "--cols", "12",
    "--objects", "220", "--clusters", "5", "--seed", "3",
]


@pytest.fixture(scope="module")
def cli_artifact(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "artifact"
    assert main(BUILD_ARGS + ["--out", str(path)]) == 0
    return path


class TestBuild:
    def test_build_writes_a_valid_artifact(self, cli_artifact, capsys):
        manifest = read_manifest(cli_artifact)
        assert manifest.format_version == FORMAT_VERSION
        assert manifest.stats["num_objects"] == 220

    def test_build_refuses_overwrite_without_force(self, cli_artifact, capsys):
        assert main(BUILD_ARGS + ["--out", str(cli_artifact)]) == 2
        assert "already exists" in capsys.readouterr().err
        assert main(BUILD_ARGS + ["--out", str(cli_artifact), "--force"]) == 0


class TestInfo:
    def test_info_prints_manifest_fields(self, cli_artifact, capsys):
        assert main(["info", str(cli_artifact), "--verify"]) == 0
        out = capsys.readouterr().out
        assert f"format version : {FORMAT_VERSION}" in out
        assert "fingerprint" in out
        assert "verified ok" in out

    def test_info_json_is_machine_readable(self, cli_artifact, capsys):
        assert main(["info", str(cli_artifact), "--json"]) == 0
        raw = json.loads(capsys.readouterr().out)
        assert raw["format_version"] == FORMAT_VERSION
        assert set(raw["checksums"]) == {
            "network.npz",
            "scoring.npz",
            "index.pkl",
            "vocabulary.json",
        }

    def test_info_names_the_kernel(self, cli_artifact, capsys):
        assert main(["info", str(cli_artifact)]) == 0
        assert f"kernel         : {kernel.LIBRARY.path}" in capsys.readouterr().out
        assert main(["info", str(cli_artifact), "--json"]) == 0
        raw = json.loads(capsys.readouterr().out)
        assert raw["kernel"] == str(kernel.LIBRARY.path)

    def test_info_on_missing_artifact_fails_cleanly(self, tmp_path, capsys):
        assert main(["info", str(tmp_path / "missing")]) == 2
        assert "manifest" in capsys.readouterr().err

    def test_info_reports_per_file_sizes(self, cli_artifact, capsys):
        assert main(["info", str(cli_artifact)]) == 0
        out = capsys.readouterr().out
        assert "bytes scoring.npz" in out
        assert "on-disk total" in out and "(uncompressed)" in out


class TestCompressedBuild:
    @pytest.fixture(scope="class")
    def compressed_artifact(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-compressed") / "artifact"
        assert main(BUILD_ARGS + ["--out", str(path), "--compress", "zlib"]) == 0
        return path

    def test_manifest_records_the_codec(self, compressed_artifact):
        manifest = read_manifest(compressed_artifact)
        assert manifest.compression is not None
        assert manifest.compression["codec"] == "zlib"
        assert set(manifest.compression["raw_bytes"]) == set(manifest.checksums)

    def test_info_reports_codec_and_ratio(self, compressed_artifact, capsys):
        assert main(["info", str(compressed_artifact), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "compression    : zlib level" in out
        assert "x smaller" in out
        assert "verified ok" in out

    def test_compressed_artifact_answers_queries(self, compressed_artifact, capsys):
        assert main([
            "query", str(compressed_artifact), "--keywords", "cafe,restaurant",
            "--delta", "700",
        ]) == 0
        assert "weight" in capsys.readouterr().out

    @pytest.mark.parametrize("dataset", ["ny", "usanw"])
    def test_streamed_build_matches_eager_columns(
        self, cli_artifact, tmp_path, capsys, dataset
    ):
        if dataset == "ny":
            build_args, eager = BUILD_ARGS, cli_artifact
        else:
            build_args = [
                "build", "--dataset", "usanw", "--nodes", "160", "--objects", "200",
                "--clusters", "4", "--seed", "3",
            ]
            eager = tmp_path / "eager"
            assert main(build_args + ["--out", str(eager)]) == 0
        streamed = tmp_path / "streamed"
        assert main(build_args + ["--out", str(streamed), "--stream"]) == 0
        assert "[streamed]" in capsys.readouterr().out
        for name in ("scoring.npz", "network.npz", "vocabulary.json", "index.pkl",
                     "manifest.json"):
            assert (streamed / name).read_bytes() == (eager / name).read_bytes()


class TestQuery:
    @pytest.mark.parametrize("algorithm", ["app", "tgen", "greedy"])
    def test_query_every_heuristic(self, cli_artifact, capsys, algorithm):
        assert main([
            "query", str(cli_artifact), "--keywords", "cafe,restaurant",
            "--delta", "700", "--algorithm", algorithm,
        ]) == 0
        out = capsys.readouterr().out
        assert "weight" in out and "length" in out

    def test_query_exact_on_a_small_window(self, cli_artifact, capsys):
        assert main([
            "query", str(cli_artifact), "--keywords", "cafe",
            "--delta", "500", "--region", "100,100,430,430", "--algorithm", "exact",
        ]) == 0
        assert "Exact" in capsys.readouterr().out

    def test_query_topk(self, cli_artifact, capsys):
        assert main([
            "query", str(cli_artifact), "--keywords", "cafe",
            "--delta", "600", "-k", "3",
        ]) == 0
        assert "#1:" in capsys.readouterr().out

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_non_finite_delta_fails_cleanly(self, cli_artifact, capsys, delta):
        assert main([
            "query", str(cli_artifact), "--keywords", "cafe,restaurant",
            "--delta", delta, "--algorithm", "tgen",
        ]) == 2
        assert "length constraint" in capsys.readouterr().err

    def test_malformed_region_fails_cleanly(self, cli_artifact, capsys):
        assert main([
            "query", str(cli_artifact), "--keywords", "cafe",
            "--delta", "500", "--region", "1,2,3",
        ]) == 2
        assert "region" in capsys.readouterr().err

    @pytest.mark.parametrize("region", ["nan,100,450,450", "0,100,inf,450"])
    def test_non_finite_region_fails_cleanly(self, cli_artifact, capsys, region):
        assert main([
            "query", str(cli_artifact), "--keywords", "cafe", "--delta", "500",
            "--region", region, "--algorithm", "greedy",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-finite rectangle" in err
        assert "Traceback" not in err


class TestQueryPolicyFlags:
    def test_anytime_policy_prints_a_regret_bound(self, cli_artifact, capsys):
        assert main([
            "query", str(cli_artifact), "--keywords", "cafe",
            "--delta", "700", "--policy", "anytime(60000)",
        ]) == 0
        out = capsys.readouterr().out
        assert "quality   : anytime (regret bound" in out

    def test_bare_deadline_implies_anytime(self, cli_artifact, capsys):
        assert main([
            "query", str(cli_artifact), "--keywords", "cafe",
            "--delta", "700", "--deadline-ms", "60000",
        ]) == 0
        assert "quality   : anytime" in capsys.readouterr().out

    def test_sampled_policy_prints_a_ci(self, cli_artifact, capsys):
        assert main([
            "query", str(cli_artifact), "--keywords", "cafe",
            "--delta", "700", "--policy", "sampled(0.3)",
        ]) == 0
        assert "quality   : sampled (95% CI ±" in capsys.readouterr().out

    def test_bare_epsilon_implies_sampled(self, cli_artifact, capsys):
        assert main([
            "query", str(cli_artifact), "--keywords", "cafe",
            "--delta", "700", "--epsilon", "0.3",
        ]) == 0
        assert "quality   : sampled" in capsys.readouterr().out

    def test_exact_policy_prints_no_quality_line(self, cli_artifact, capsys):
        assert main([
            "query", str(cli_artifact), "--keywords", "cafe",
            "--delta", "700", "--policy", "exact",
        ]) == 0
        assert "quality" not in capsys.readouterr().out

    def test_policy_applies_to_topk(self, cli_artifact, capsys):
        assert main([
            "query", str(cli_artifact), "--keywords", "cafe",
            "--delta", "600", "-k", "3", "--policy", "sampled(0.3)",
        ]) == 0
        out = capsys.readouterr().out
        assert "#1:" in out and "quality   : sampled" in out

    def test_malformed_policy_fails_cleanly(self, cli_artifact, capsys):
        assert main([
            "query", str(cli_artifact), "--keywords", "cafe",
            "--delta", "700", "--policy", "anytime",
        ]) == 2
        assert "anytime" in capsys.readouterr().err


class TestServeBatch:
    def test_synthesized_batch(self, cli_artifact, capsys):
        assert main([
            "serve-batch", str(cli_artifact), "--synthesize", "6",
            "--delta", "700", "--workers", "2", "--repeat", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "served 6 request(s) x2" in out
        assert "result-cache hit rate" in out

    def test_jsonl_requests(self, cli_artifact, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            json.dumps({"keywords": ["cafe"], "delta": 600.0}) + "\n"
            + json.dumps({"keywords": ["bar"], "delta": 700.0, "algorithm": "greedy"}) + "\n"
        )
        assert main([
            "serve-batch", str(cli_artifact), "--requests", str(requests),
            "--workers", "2",
        ]) == 0
        assert "served 2 request(s)" in capsys.readouterr().out

    def test_default_policy_applies_to_synthesized_requests(
        self, cli_artifact, capsys
    ):
        assert main([
            "serve-batch", str(cli_artifact), "--synthesize", "3",
            "--delta", "700", "--policy", "sampled(0.3)", "--workers", "1",
        ]) == 0
        assert "served 3 request(s)" in capsys.readouterr().out

    def test_jsonl_lines_may_carry_their_own_policy(
        self, cli_artifact, tmp_path, capsys
    ):
        requests = tmp_path / "policies.jsonl"
        requests.write_text(
            json.dumps({"keywords": ["cafe"], "delta": 600.0,
                        "policy": "sampled(0.3)"}) + "\n"
            + json.dumps({"keywords": ["cafe"], "delta": 600.0,
                          "policy": "anytime(60000)"}) + "\n"
            + json.dumps({"keywords": ["cafe"], "delta": 600.0}) + "\n"
        )
        assert main([
            "serve-batch", str(cli_artifact), "--requests", str(requests),
            "--workers", "1",
        ]) == 0
        assert "served 3 request(s)" in capsys.readouterr().out

    def test_malformed_jsonl_policy_fails_cleanly(
        self, cli_artifact, tmp_path, capsys
    ):
        requests = tmp_path / "bad-policy.jsonl"
        requests.write_text(json.dumps(
            {"keywords": ["cafe"], "delta": 600.0, "policy": "wat"}) + "\n")
        assert main([
            "serve-batch", str(cli_artifact), "--requests", str(requests),
        ]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_non_positive_repeat_and_synthesize_fail_cleanly(self, cli_artifact, capsys):
        assert main(["serve-batch", str(cli_artifact), "--repeat", "0"]) == 2
        assert "--repeat" in capsys.readouterr().err
        assert main(["serve-batch", str(cli_artifact), "--synthesize", "0"]) == 2
        assert "--synthesize" in capsys.readouterr().err

    def test_malformed_jsonl_fails_cleanly(self, cli_artifact, tmp_path, capsys):
        requests = tmp_path / "bad.jsonl"
        requests.write_text(json.dumps({"keywords": ["cafe"]}) + "\n")  # no delta
        assert main([
            "serve-batch", str(cli_artifact), "--requests", str(requests),
        ]) == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("keywords, message", [
        ("cafe", "not the string 'cafe'"),
        (["cafe", 3], "must be words, got 3"),
    ], ids=["bare-string", "non-string-keyword"])
    def test_keywords_that_are_not_words_fail_cleanly(
        self, cli_artifact, tmp_path, capsys, keywords, message
    ):
        requests = tmp_path / "bad-keywords.jsonl"
        requests.write_text(
            json.dumps({"keywords": ["cafe"], "delta": 800}) + "\n"
            + json.dumps({"keywords": keywords, "delta": 800}) + "\n"
        )
        assert main([
            "serve-batch", str(cli_artifact), "--requests", str(requests),
        ]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and message in err

    def test_non_finite_jsonl_region_fails_cleanly(
        self, cli_artifact, tmp_path, capsys
    ):
        requests = tmp_path / "nan-region.jsonl"
        requests.write_text(
            json.dumps({"keywords": ["cafe"], "delta": 600.0})
            + "\n"
            + json.dumps({"keywords": ["cafe"], "delta": 500.0,
                          "region": [float("nan"), 100, 450, 450]})
            + "\n"
        )
        assert main([
            "serve-batch", str(cli_artifact), "--requests", str(requests),
        ]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "non-finite rectangle" in err

    def test_process_gateway_with_a_request_file_loads_no_engine_here(
        self, cli_artifact, tmp_path, capsys, monkeypatch
    ):
        # The gateway's workers open the artifact themselves; the CLI process
        # needs an engine only to synthesize requests or to run the thread pool.
        loads = []
        from_artifact = LCMSREngine.from_artifact.__func__

        def counting_from_artifact(cls, *args, **kwargs):
            loads.append(args)
            return from_artifact(cls, *args, **kwargs)

        monkeypatch.setattr(
            LCMSREngine, "from_artifact", classmethod(counting_from_artifact)
        )
        requests = tmp_path / "requests.jsonl"
        requests.write_text(json.dumps({"keywords": ["cafe"], "delta": 600.0}) + "\n")
        argv = ["serve-batch", str(cli_artifact), "--requests", str(requests)]
        assert main(argv + ["--processes", "1"]) == 0
        assert "served 1 request(s)" in capsys.readouterr().out
        assert loads == []
        assert main(argv + ["--workers", "1"]) == 0
        assert len(loads) == 1


class TestPruningFlagIsGone:
    @pytest.mark.parametrize(
        "command",
        [["query", "--keywords", "cafe", "--delta", "500"], ["serve-batch"], ["compact"]],
        ids=["query", "serve-batch", "compact"],
    )
    def test_pruning_flag_is_rejected(self, cli_artifact, capsys, command):
        argv = [command[0], str(cli_artifact), *command[1:], "--pruning", "off"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "--pruning" in capsys.readouterr().err


class TestSharding:
    @pytest.fixture(scope="class")
    def sharded_artifact(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-shards") / "artifact"
        assert main(BUILD_ARGS + [
            "--out", str(path), "--shards", "2", "--halo", "500",
        ]) == 0
        return path

    def test_build_shards_writes_verifiable_sub_artifacts(
        self, sharded_artifact, capsys
    ):
        shard_dirs = sorted((sharded_artifact / "shards").glob("shard-*"))
        assert len(shard_dirs) == 2
        assert (sharded_artifact / "shards" / "shards.json").is_file()
        for shard_dir in shard_dirs:
            assert main(["info", str(shard_dir), "--verify"]) == 0
            out = capsys.readouterr().out
            assert "verified ok" in out
            assert "shard" in out and "of 2" in out

    def test_serve_batch_processes_uses_the_sharded_gateway(
        self, sharded_artifact, capsys
    ):
        assert main([
            "serve-batch", str(sharded_artifact), "--synthesize", "4",
            "--delta", "600", "--processes", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "served 4 request(s)" in out
        assert "2 process(es)" in out and "2 shard(s)" in out

    def test_non_positive_shards_fails_cleanly(self, tmp_path, capsys):
        assert main(BUILD_ARGS + [
            "--out", str(tmp_path / "bad"), "--shards", "0",
        ]) == 2
        assert "--shards" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "shard_args, flag",
        [
            (["--shards", "0"], "--shards"),
            (["--shards", "2", "--halo", "nan"], "--halo"),
            (["--shards", "2", "--halo", "-5"], "--halo"),
        ],
        ids=["zero-shards", "nan-halo", "negative-halo"],
    )
    def test_bad_shard_options_write_nothing(self, tmp_path, capsys, shard_args, flag):
        out = tmp_path / "bad"
        assert main(BUILD_ARGS + ["--out", str(out), *shard_args]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and flag in captured.err
        assert "artifact written" not in captured.out
        assert not out.exists()


class TestMutateAndCompact:
    @pytest.fixture()
    def mutable_artifact(self, tmp_path):
        path = tmp_path / "mutable"
        assert main(BUILD_ARGS + ["--out", str(path)]) == 0
        return path

    def test_mutate_records_ops_in_the_delta_log(self, mutable_artifact, capsys):
        from repro.service.generations import read_delta_log

        assert main([
            "mutate", str(mutable_artifact),
            "--add", '{"id": 90001, "x": 300.0, "y": 300.0, '
                     '"keywords": ["cafe", "bar"], "rating": 2.5}',
            "--set-rating", "3=4.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "recorded 2 mutation(s)" in out
        ops = read_delta_log(mutable_artifact)
        assert [op["op"] for op in ops] == ["add", "rate"]
        # A second mutate call appends.
        assert main(["mutate", str(mutable_artifact), "--remove", "3"]) == 0
        assert len(read_delta_log(mutable_artifact)) == 3

    def test_mutate_validates_before_writing(self, mutable_artifact, capsys):
        from repro.service.generations import read_delta_log

        assert main([
            "mutate", str(mutable_artifact), "--remove", "999999",
        ]) == 2
        assert "unknown" in capsys.readouterr().err
        assert read_delta_log(mutable_artifact) == []

    def test_mutate_rejects_a_nan_coordinate_without_writing(
        self, mutable_artifact, capsys
    ):
        from repro.service.generations import DELTA_LOG_NAME

        assert main([
            "mutate", str(mutable_artifact),
            "--add", '{"id": 90001, "x": NaN, "y": 300.0, "keywords": ["cafe"]}',
        ]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (mutable_artifact / DELTA_LOG_NAME).exists()

    def test_mutate_without_ops_fails_cleanly(self, mutable_artifact, capsys):
        assert main(["mutate", str(mutable_artifact)]) == 2
        assert "no mutations given" in capsys.readouterr().err

    def test_mutate_from_ops_file(self, mutable_artifact, tmp_path, capsys):
        from repro.service.generations import read_delta_log

        ops_file = tmp_path / "ops.json"
        ops_file.write_text(json.dumps({"ops": [
            {"op": "rate", "id": 5, "rating": 3.5},
            {"op": "remove", "id": 7},
        ]}), encoding="utf-8")
        assert main(["mutate", str(mutable_artifact), "--ops", str(ops_file)]) == 0
        assert len(read_delta_log(mutable_artifact)) == 2

    @pytest.mark.parametrize("ops", [
        [{"op": "rate", "id": 3}],
        [{"op": "remove"}],
        [{"op": "remove", "id": None}],
        [["remove", 3]],
        [{"op": "add", "id": 90001, "x": 300.0, "y": 300.0,
          "keywords": {"cafe": "many"}}],
    ], ids=["rate-without-rating", "remove-without-id", "remove-null-id",
            "list-entry", "add-text-count"])
    def test_mutate_rejects_a_malformed_ops_file_without_writing(
        self, mutable_artifact, tmp_path, capsys, ops
    ):
        from repro.service.generations import DELTA_LOG_NAME

        ops_file = tmp_path / "ops.json"
        ops_file.write_text(json.dumps(ops), encoding="utf-8")
        assert main(["mutate", str(mutable_artifact), "--ops", str(ops_file)]) == 2
        assert "error: malformed mutation op" in capsys.readouterr().err
        assert not (mutable_artifact / DELTA_LOG_NAME).exists()

    @pytest.mark.parametrize("command", [
        ["query", "--keywords", "cafe", "--delta", "600"],
        ["compact"],
    ], ids=["query", "compact"])
    def test_malformed_delta_log_fails_cleanly(self, mutable_artifact, capsys,
                                               command):
        from repro.service.generations import DELTA_LOG_NAME

        log = mutable_artifact / DELTA_LOG_NAME
        log.write_text(json.dumps({"ops": [{"op": "remove"}]}), encoding="utf-8")
        before = sorted(p.name for p in mutable_artifact.iterdir())
        assert main([command[0], str(mutable_artifact), *command[1:]]) == 2
        assert "error: malformed mutation op" in capsys.readouterr().err
        assert sorted(p.name for p in mutable_artifact.iterdir()) == before

    def test_compact_writes_generation_and_flips_current(
        self, mutable_artifact, capsys
    ):
        from repro.service.generations import read_delta_log

        assert main(["mutate", str(mutable_artifact), "--set-rating", "3=4.5"]) == 0
        capsys.readouterr()
        assert main(["compact", str(mutable_artifact)]) == 0
        out = capsys.readouterr().out
        assert "compacted 1 mutation(s) into gen-0001" in out
        current = (mutable_artifact / "CURRENT").read_text(encoding="utf-8").strip()
        assert current == "gen-0001"
        # The folded op stays in the base's log; the new generation has none,
        # and the next mutate appends to its own.
        assert len(read_delta_log(mutable_artifact)) == 1
        assert read_delta_log(mutable_artifact / "gen-0001") == []
        assert main(["mutate", str(mutable_artifact), "--set-rating", "3=1.5"]) == 0
        assert len(read_delta_log(mutable_artifact)) == 1
        assert len(read_delta_log(mutable_artifact / "gen-0001")) == 1
        capsys.readouterr()
        # The new generation is a complete, verifiable artifact...
        assert main(["info", str(mutable_artifact / "gen-0001"), "--verify"]) == 0
        assert "verified ok" in capsys.readouterr().out
        # ...and queries against the root serve it transparently.
        assert main([
            "query", str(mutable_artifact),
            "--keywords", "cafe", "--delta", "600",
        ]) == 0

    def test_compact_without_pending_is_a_noop(self, mutable_artifact, capsys):
        assert main(["compact", str(mutable_artifact)]) == 0
        assert "nothing to compact" in capsys.readouterr().out
