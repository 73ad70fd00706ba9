"""The σ_v window kernel against the corpus scan and the scalar reference.

``WeightPipeline.node_sums`` has two kernels. The scan scores and masks every
object; the window kernel reads only the query terms' postings in the grid
cells that cover the window, which the cell-ordered postings (artifact format
8) make contiguous. Which one runs is a size rule (``SCAN_MAX_OBJECTS``), so
both must return the same bytes for every read: every scoring mode, with and
without ``exclude_rows``, over windows inside, across, outside and covering
the extent, zero-area windows and windowless reads, on a full index, a tile
subset and a zlib artifact. The sampled tier's (cell, row) probe must score
its rows exactly as the scan does.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.datasets.ny import build_ny_like
from repro.network.builders import grid_network
from repro.network.subgraph import Rectangle
from repro.objects.corpus import ObjectCorpus
from repro.objects.geoobject import GeoTextualObject
from repro.objects.mapping import map_objects_to_network
from repro.service import IndexBundle
from repro.textindex import columnar
from repro.textindex.columnar import ColumnarScoringIndex, WeightPipeline
from repro.textindex.relevance import RelevanceScorer, ScoringMode

VOCAB = ["cafe", "bar", "museum", "park", "sushi", "pizza", "shop", "gym", "hotel"]
EXTENT = (-20.0, -20.0, 620.0, 620.0)  # object bounding box of random_setup


def random_setup(seed: int, num_objects: int = 700):
    """A seeded corpus scattered over (and a little beyond) a 600 m grid."""
    rng = random.Random(seed)
    objects = [
        GeoTextualObject.create(
            object_id,
            rng.uniform(EXTENT[0], EXTENT[2]),
            rng.uniform(EXTENT[1], EXTENT[3]),
            [rng.choice(VOCAB) for _ in range(rng.randint(0, 5))],
            rating=rng.choice([0.0, 0.5, 1.0, 2.5, 4.8]),
        )
        for object_id in range(num_objects)
    ]
    corpus = ObjectCorpus(objects)
    network = grid_network(9, 9, spacing=75.0)
    mapping = map_objects_to_network(network, corpus)
    return corpus, mapping, ColumnarScoringIndex.build(corpus, mapping, network.coords)


def windows(rng: random.Random):
    """One window of each shape the kernel's cell bands must handle."""
    x0, y0 = rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0)
    px, py = rng.uniform(0.0, 600.0), rng.uniform(0.0, 600.0)
    return {
        "inside": Rectangle(x0, y0, x0 + rng.uniform(20.0, 190.0), y0 + rng.uniform(20.0, 190.0)),
        "straddles_edge": Rectangle(-80.0, y0, rng.uniform(10.0, 200.0), y0 + 150.0),
        "outside": Rectangle(700.0, 700.0, 900.0, 950.0),
        "zero_area": Rectangle(px, py, px, py),
        "whole_extent": Rectangle(-50.0, -50.0, 650.0, 650.0),
        "full_width_band": Rectangle(-50.0, y0, 650.0, y0 + 80.0),
        "windowless": None,
    }


def random_keywords(rng: random.Random):
    count = rng.randint(1, 4)
    return list(dict.fromkeys(rng.choice(VOCAB + ["nosuchterm"]) for _ in range(count)))


def sums_by_kernel(pipeline, monkeypatch, keywords, window, exclude_rows=None):
    """``node_sums`` bytes through the scan and through the window kernel."""
    out = {}
    for name, limit in (("scan", 2**62), ("window", 0)):
        monkeypatch.setattr(columnar, "SCAN_MAX_OBJECTS", limit)
        out[name] = pipeline.node_sums(keywords, window=window, exclude_rows=exclude_rows)
    monkeypatch.undo()
    return out


@pytest.fixture(scope="module")
def setup():
    return random_setup(5)


class TestKernelParity:
    @pytest.mark.parametrize("mode", list(ScoringMode))
    @pytest.mark.parametrize("masked", [False, True], ids=["all_rows", "exclude_rows"])
    def test_window_kernel_equals_scan(self, setup, monkeypatch, mode, masked):
        _, _, index = setup
        pipeline = WeightPipeline(index, mode)
        rng = random.Random(31)
        for trial in range(6):
            keywords = random_keywords(rng)
            exclude = None
            if masked:
                exclude = np.zeros(index.num_objects, dtype=bool)
                exclude[rng.sample(range(index.num_objects), index.num_objects // 5)] = True
            for shape, window in windows(rng).items():
                sums = sums_by_kernel(pipeline, monkeypatch, keywords, window, exclude)
                assert sums["window"].tobytes() == sums["scan"].tobytes(), (
                    trial, shape, keywords,
                )

    @pytest.mark.parametrize("mode", list(ScoringMode))
    def test_window_kernel_equals_the_scalar_reference(self, setup, window_kernel, mode):
        corpus, mapping, index = setup
        scorer = RelevanceScorer(corpus, mapping, mode=mode)
        pipeline = WeightPipeline(index, mode)
        rng = random.Random(47)
        for _ in range(6):
            keywords = random_keywords(rng)
            for shape, window in windows(rng).items():
                reference = scorer.node_weights(keywords, window=window)
                fast = pipeline.node_weights(keywords, window=window)
                assert list(fast.items()) == list(reference.items()), (shape, keywords)

    def test_large_corpora_take_the_window_kernel(self, setup, monkeypatch):
        _, _, index = setup
        pipeline = WeightPipeline(index, ScoringMode.TEXT_RELEVANCE)
        taken = []
        for kernel in ("_scan_node_sums", "_window_node_sums"):
            original = getattr(pipeline, kernel)
            monkeypatch.setattr(
                pipeline, kernel,
                lambda *args, _k=kernel, _f=original: taken.append(_k) or _f(*args),
            )
        monkeypatch.setattr(columnar, "SCAN_MAX_OBJECTS", index.num_objects)
        pipeline.node_sums(["cafe"])
        monkeypatch.setattr(columnar, "SCAN_MAX_OBJECTS", index.num_objects - 1)
        pipeline.node_sums(["cafe"])
        assert taken == ["_scan_node_sums", "_window_node_sums"]

    @pytest.mark.parametrize("mode", list(ScoringMode))
    def test_tile_subset(self, setup, monkeypatch, mode):
        _, _, index = setup
        sub = index.subset_for_extent(Rectangle(0.0, 0.0, 330.0, 330.0))
        full_pipeline = WeightPipeline(index, mode)
        sub_pipeline = WeightPipeline(sub, mode)
        rng = random.Random(59)
        for _ in range(6):
            keywords = random_keywords(rng)
            x0, y0 = rng.uniform(20.0, 150.0), rng.uniform(20.0, 150.0)
            window = Rectangle(x0, y0, x0 + 150.0, y0 + 150.0)
            sums = sums_by_kernel(sub_pipeline, monkeypatch, keywords, window)
            assert sums["window"].tobytes() == sums["scan"].tobytes()
            monkeypatch.setattr(columnar, "SCAN_MAX_OBJECTS", 0)
            full = full_pipeline.node_weights(keywords, window=window, node_window=window)
            part = sub_pipeline.node_weights(keywords, window=window, node_window=window)
            monkeypatch.undo()
            assert list(part.items()) == list(full.items())


class TestArtifacts:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        dataset = build_ny_like(rows=12, cols=12, block_size=120.0, num_objects=600,
                                num_clusters=6, seed=4)
        bundle = IndexBundle.from_dataset(dataset)
        root = tmp_path_factory.mktemp("window-kernel")
        bundle.save(root / "raw")
        bundle.save(root / "zlib", compress="zlib")
        return bundle, root

    def test_zlib_artifact_window_kernel_equals_raw_scan(self, artifacts, monkeypatch):
        bundle, root = artifacts
        raw = IndexBundle.load(root / "raw").weight_pipeline()
        compressed = IndexBundle.load(root / "zlib").weight_pipeline()
        index = bundle.columnar
        min_x, min_y = float(np.min(index.obj_x)), float(np.min(index.obj_y))
        rng = random.Random(71)
        terms = [term for term, _ in index.most_frequent_terms(12)]
        for _ in range(10):
            keywords = list(dict.fromkeys(rng.choice(terms) for _ in range(3)))
            x0 = min_x + rng.uniform(0.0, 900.0)
            y0 = min_y + rng.uniform(0.0, 900.0)
            for window in (Rectangle(x0, y0, x0 + 500.0, y0 + 400.0), None):
                scan = sums_by_kernel(raw, monkeypatch, keywords, window)["scan"]
                windowed = sums_by_kernel(compressed, monkeypatch, keywords, window)["window"]
                assert windowed.tobytes() == scan.tobytes()

    def test_loaded_columns_are_plain_read_only_arrays(self, artifacts):
        _, root = artifacts
        index = IndexBundle.load(root / "raw").columnar
        for name in columnar.ARRAY_FIELDS:
            array = getattr(index, name)
            assert type(array) is np.ndarray, name
            assert not array.flags.writeable, name

    def test_post_cell_dtype_holds_every_cell(self, artifacts):
        bundle, _ = artifacts
        index = bundle.columnar
        assert index.post_cell.dtype == columnar.POST_CELL_DTYPE
        num_cells = columnar.BOUND_RESOLUTION * columnar.BOUND_RESOLUTION
        assert np.iinfo(columnar.POST_CELL_DTYPE).max >= num_cells - 1


class TestSampledProbe:
    @pytest.mark.parametrize("mode", list(ScoringMode))
    def test_sampled_contributions_equal_scan_scores(self, setup, monkeypatch, mode):
        _, _, index = setup
        pipeline = WeightPipeline(index, mode)
        probed = []
        original = pipeline._scores_for_rows

        def recording(keywords, rows, window):
            scores = original(keywords, rows, window)
            probed.append((list(keywords), rows.copy(), scores.copy()))
            return scores

        monkeypatch.setattr(pipeline, "_scores_for_rows", recording)
        rng = random.Random(83)
        for trial in range(8):
            keywords = random_keywords(rng)
            for window in windows(rng).values():
                pipeline.node_sums_sampled(keywords, rate=0.4, rng=trial, window=window)
        assert probed
        for keywords, rows, scores in probed:
            expected = pipeline.object_scores(keywords)[rows]
            assert scores.tobytes() == expected.tobytes(), keywords
