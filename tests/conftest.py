"""Shared fixtures for the test suite.

Expensive artefacts (the small NY-like / USANW-like datasets) are session-scoped so
the integration tests and the accuracy tests share one build. The "paper example"
fixtures reproduce the exact graph, weights and parameters of the paper's Figure 2 /
Example 2, which several core tests assert against.
"""

from __future__ import annotations

import random

import pytest

from repro.core import LCMSRQuery, build_instance
from repro.datasets.ny import build_ny_like
from repro.datasets.synthetic import SyntheticDataset, assemble_dataset, generate_objects_on_network
from repro.datasets.usanw import build_usanw_like
from repro.datasets.vocab import PLACES_VOCABULARY
from repro.network.builders import grid_network, manhattan_network, paper_example_network
from repro.network.graph import RoadNetwork
from repro.objects.corpus import ObjectCorpus
from repro.objects.geoobject import GeoTextualObject
from repro.textindex import columnar


# Figure 2 of the paper: node weights w.r.t. the query (v1..v6) and the length
# constraint used in the running example. The optimal region is {v2, v4, v5, v6}
# with weight 1.1 and length 5.9.
PAPER_EXAMPLE_WEIGHTS = {1: 0.2, 2: 0.3, 3: 0.4, 4: 0.2, 5: 0.2, 6: 0.4}
PAPER_EXAMPLE_DELTA = 6.0
PAPER_EXAMPLE_OPTIMUM_NODES = frozenset({2, 4, 5, 6})
PAPER_EXAMPLE_OPTIMUM_WEIGHT = 1.1
PAPER_EXAMPLE_OPTIMUM_LENGTH = 5.9


@pytest.fixture
def window_kernel(monkeypatch):
    """Send every σ_v read through the window kernel.

    ``WeightPipeline.node_sums`` scans corpora of up to ``SCAN_MAX_OBJECTS``
    objects, which covers every test corpus; a limit of 0 makes any corpus
    take the cell-ordered window kernel instead.
    """
    monkeypatch.setattr(columnar, "SCAN_MAX_OBJECTS", 0)


class PollBudget:
    """A solve budget that expires after a fixed number of ``expired()`` polls.

    Unlike a deadline it truncates a run at the same point on every machine,
    so a solver and its twin must stop after exactly the same step.
    """

    def __init__(self, polls: int) -> None:
        self.remaining = polls

    def expired(self) -> bool:
        self.remaining -= 1
        return self.remaining < 0

    def expired_now(self) -> bool:
        return self.remaining < 0


def rebind(instance):
    """``instance`` as the serving layer's instance cache hands it to a solver.

    A cache hit wraps the cached dense substrate alone for the query
    (:meth:`~repro.core.dense.DenseInstance.to_problem_instance`): the kernel
    reads the same arrays, while the window graph and the weight dict that
    the reference twins read are rebuilt from the substrate. A budget
    carries over.
    """
    rebound = instance.dense.to_problem_instance(instance.query, sampling=instance.sampling)
    return rebound if instance.budget is None else rebound.with_budget(instance.budget)


@pytest.fixture(params=["built", "rebound"])
def route(request):
    """Run a test on its instances as built, then as a cache hit rebinds them.

    The fixture is a function a test passes every instance through before
    it solves: the identity, then :func:`rebind`.
    """
    if request.param == "built":
        return lambda instance: instance
    return rebind


def assert_tgen_work_matches_twin(result, reference, context=None):
    """TGEN's counters against its twin's, which never skips an edge.

    Every edge the twin processed, TGEN processed or skipped; and where it
    skipped none, both combined exactly the same tuples.
    """
    skipped = result.stats["edges_skipped"]
    assert (
        result.stats["edges_processed"] + skipped == reference.stats["edges_processed"]
    ), context
    if skipped == 0.0:
        assert (
            result.stats["tuples_generated"] == reference.stats["tuples_generated"]
        ), context


@pytest.fixture
def paper_graph() -> RoadNetwork:
    """The 6-node example graph of the paper's Figure 2."""
    return paper_example_network()


@pytest.fixture
def paper_instance(paper_graph):
    """The Figure 2 graph wired into a solver-ready instance (Δ = 6, whole graph)."""
    query = LCMSRQuery.create(["t"], delta=PAPER_EXAMPLE_DELTA)
    return build_instance(paper_graph, query, node_weights=PAPER_EXAMPLE_WEIGHTS)


@pytest.fixture
def small_grid() -> RoadNetwork:
    """A deterministic 4x4 grid network with 100 m blocks (16 nodes, 24 edges)."""
    return grid_network(4, 4, spacing=100.0)


@pytest.fixture
def medium_grid() -> RoadNetwork:
    """A deterministic 8x8 grid network used by mid-size solver tests."""
    return grid_network(8, 8, spacing=100.0)


def make_small_corpus() -> ObjectCorpus:
    """A hand-written 8-object corpus used across index and text tests."""
    corpus = ObjectCorpus()
    descriptions = [
        (0, 50, 50, ["cafe", "coffee", "bakery"]),
        (1, 150, 50, ["cafe", "espresso"]),
        (2, 250, 60, ["restaurant", "pizza", "italian"]),
        (3, 60, 150, ["restaurant", "sushi"]),
        (4, 160, 160, ["bar", "pub", "beer"]),
        (5, 260, 150, ["pharmacy"]),
        (6, 70, 260, ["bookstore", "coffee"]),
        (7, 260, 260, ["museum", "gallery", "art"]),
    ]
    for object_id, x, y, terms in descriptions:
        corpus.add(GeoTextualObject.create(object_id, x, y, terms))
    return corpus


@pytest.fixture
def small_corpus() -> ObjectCorpus:
    """See :func:`make_small_corpus`."""
    return make_small_corpus()


@pytest.fixture(scope="session")
def tiny_ny_dataset() -> SyntheticDataset:
    """A small NY-like dataset (fast to build, shared across the session)."""
    return build_ny_like(rows=20, cols=20, block_size=120.0, num_objects=900,
                         num_clusters=8, seed=3)


@pytest.fixture(scope="session")
def tiny_usanw_dataset() -> SyntheticDataset:
    """A small USANW-like dataset (fast to build, shared across the session)."""
    return build_usanw_like(num_nodes=400, extent=6000.0, num_objects=400,
                            num_clusters=6, seed=5)


def random_weighted_network(seed: int, num_nodes: int = 12):
    """A small random connected network plus random node weights (for oracle tests)."""
    rng = random.Random(seed)
    rows = 3
    cols = max(2, num_nodes // rows)
    network = grid_network(rows, cols, spacing=1.0, jitter=0.2, rng=rng)
    weights = {}
    for node in network.nodes():
        if rng.random() < 0.6:
            weights[node.node_id] = round(rng.uniform(0.05, 1.0), 3)
    if not weights:
        weights[next(network.node_ids())] = 0.5
    return network, weights


def assert_same_rows(network: RoadNetwork, expected: RoadNetwork) -> None:
    """Assert two networks are equal node for node and row for row.

    Nodes must come in the same order with the same coordinates, and every
    adjacency row must list the same neighbours in the same order with the
    same lengths.
    """
    assert list(network.nodes()) == list(expected.nodes())
    assert network.num_edges == expected.num_edges
    for node_id in expected.node_ids():
        assert list(network.neighbor_items(node_id)) == list(
            expected.neighbor_items(node_id)
        )
