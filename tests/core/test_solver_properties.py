"""Randomized metamorphic properties of the LCMSR solvers.

Rather than pinning outputs on hand-built examples, these tests generate seeded
random instances (networks, weights, keyword assignments) and assert relations
that must hold *between* solver runs:

* **Budget monotonicity** — enlarging ``Q.∆`` never hurts the optimum. The Exact
  solver must be exactly monotone; Greedy and TGEN are asserted monotone
  empirically (deterministic seeds — a regression here means a behaviour change,
  not flakiness); APP only carries a (5 + ε) approximation guarantee, so its
  monotonicity is asserted up to that factor (strict monotonicity is *not* a
  property of APP — see the bound below).
* **Keyword-set monotonicity** — under match-based weights (an object contributes
  iff it contains a query keyword), removing a keyword can only shrink node
  weights pointwise, so the optimal score never increases.
* **Feasibility invariants** — every returned region respects the length budget,
  is a connected subgraph of the window, stays inside ``Q.Λ`` and reports a
  weight equal to the sum of its nodes' weights.
* **Backend identity** — dict-backed and CSR-backed instances produce identical
  regions under the same seeds (the randomized counterpart of
  ``test_backend_parity.py``), and so does each solver's reference twin
  (:func:`repro.core.reference.twin`, the dict loops) on both graphs.
* **Pruning invariants** — each pruned solver's top-k equals its unpruned
  twin's, and Exact's branch-and-bound equals the exhaustive enumeration of
  :class:`~repro.core.reference.ReferenceExact`, rank for rank.

Apart from the backend-identity tests, which compare the two, every test builds
its instances on both graph inputs (the ``graph_input`` fixture): the
generator's ``RoadNetwork`` and its frozen CSR ``CompactNetwork``, which is
what every serving path builds its instances on.

All randomness is seeded: each failure is reproducible from the test id alone.
"""

from __future__ import annotations

import random
from typing import Dict, List

import pytest

from repro.core.app import APPSolver
from repro.core.exact import ExactSolver
from repro.core.greedy import GreedySolver
from repro.core.instance import ProblemInstance, build_instance
from repro.core.query import LCMSRQuery
from repro.core.reference import ReferenceExact, twin
from repro.core.tgen import TGENSolver
from repro.network.builders import grid_network, random_geometric_network
from repro.network.compact import CompactNetwork
from repro.network.subgraph import Rectangle

SEEDS = [3, 11, 27]
DELTAS = [250.0, 500.0, 900.0, 1400.0]

# APP's quality guarantee: weight >= OPT / (5 + eps). Monotonicity therefore only
# holds up to that factor; 6.0 is conservative for the default solver parameters.
APP_GUARANTEE_FACTOR = 6.0

KEYWORD_POOL = ["alpha", "beta", "gamma", "delta_kw", "epsilon"]


@pytest.fixture(params=["dict", "dense"])
def implementation(request):
    """Run the whole harness on the solvers and on their reference twins.

    Returns the function that picks which implementation a test runs: the
    ``dense`` arm runs each solver as is, the ``dict`` arm its twin from
    :mod:`repro.core.reference`, which never prunes (Exact's enumerates
    exhaustively). The solvers' dense substrate and their bound-licensed skips
    carry a byte-identity contract, so every metamorphic property that holds
    for the reference must hold verbatim for them.
    """
    if request.param == "dense":
        return lambda solver: solver
    return twin


@pytest.fixture(params=["road", "csr"])
def graph_input(request):
    """Run the property tests on a ``RoadNetwork`` and on its CSR freeze.

    Returns the function that turns a generated network into the graph a
    test's instances are built on. ``build_instance`` extracts windows from
    each input by its own code, so every property must hold on both.
    """
    if request.param == "road":
        return lambda network: network
    return CompactNetwork.from_network


def _network_for(seed: int):
    return random_geometric_network(num_nodes=80, extent=2000.0, seed=seed)


def _random_weights(network, seed: int, fraction: float = 0.5) -> Dict[int, float]:
    rng = random.Random(seed)
    return {
        node_id: round(rng.uniform(0.1, 4.0), 3)
        for node_id in network.node_ids()
        if rng.random() < fraction
    }


def _instance(graph, weights, delta, region=None) -> ProblemInstance:
    query = LCMSRQuery.create(["kw"], delta=delta, region=region)
    return build_instance(graph, query, node_weights=weights)


def _keyword_assignment(network, seed: int) -> Dict[int, List[str]]:
    """Give ~60% of the nodes a random 1-2 keyword description."""
    rng = random.Random(seed)
    assignment: Dict[int, List[str]] = {}
    for node_id in network.node_ids():
        if rng.random() < 0.6:
            assignment[node_id] = rng.sample(KEYWORD_POOL, rng.randint(1, 2))
    return assignment


def _match_weights(
    assignment: Dict[int, List[str]], keywords: List[str]
) -> Dict[int, float]:
    """Match-based weights: a node scores 1 iff it carries any query keyword.

    Removing a keyword shrinks these weights pointwise, which is what makes the
    keyword-removal property sound (TF-IDF weights are query-normalised and do
    NOT have this property).
    """
    keyword_set = set(keywords)
    return {
        node_id: 1.0
        for node_id, terms in assignment.items()
        if keyword_set.intersection(terms)
    }


class TestBudgetMonotonicity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_exact_is_monotone_in_delta(self, seed, implementation, graph_input):
        # Tiny instances: Exact enumerates, so the window must stay small.
        network = grid_network(4, 4, spacing=100.0, jitter=15.0,
                               rng=random.Random(seed))
        weights = _random_weights(network, seed, fraction=0.7)
        graph = graph_input(network)
        solver = implementation(ExactSolver(max_nodes=16))
        previous = -1.0
        for delta in (120.0, 250.0, 450.0, 800.0):
            score = solver.solve(_instance(graph, weights, delta)).weight
            assert score >= previous - 1e-12, (
                f"Exact got worse with a larger budget at delta={delta}"
            )
            previous = score

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("make_solver", [GreedySolver, TGENSolver],
                             ids=["greedy", "tgen"])
    def test_heuristics_are_monotone_in_delta(self, seed, make_solver, implementation,
                                               graph_input):
        network = _network_for(seed)
        weights = _random_weights(network, seed)
        graph = graph_input(network)
        solver = implementation(make_solver())
        previous = -1.0
        for delta in DELTAS:
            score = solver.solve(_instance(graph, weights, delta)).weight
            assert score >= previous - 1e-9, (
                f"{solver.__class__.__name__} got worse with a larger budget "
                f"at delta={delta} (seed {seed})"
            )
            previous = score

    @pytest.mark.parametrize("seed", SEEDS)
    def test_app_is_monotone_up_to_its_guarantee(self, seed, implementation, graph_input):
        network = _network_for(seed)
        weights = _random_weights(network, seed)
        graph = graph_input(network)
        solver = implementation(APPSolver())
        scores = [
            solver.solve(_instance(graph, weights, delta)).weight
            for delta in DELTAS
        ]
        for smaller, larger in zip(scores, scores[1:]):
            assert larger * APP_GUARANTEE_FACTOR >= smaller - 1e-9, (
                "APP fell below its approximation guarantee when the budget grew"
            )


class TestKeywordMonotonicity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_removing_a_keyword_never_increases_the_optimum(self, seed, implementation,
                                                            graph_input):
        network = grid_network(4, 4, spacing=100.0, jitter=10.0,
                               rng=random.Random(seed + 100))
        assignment = _keyword_assignment(network, seed)
        graph = graph_input(network)
        solver = implementation(ExactSolver(max_nodes=16))
        keywords = list(KEYWORD_POOL)
        full = solver.solve(
            _instance(graph, _match_weights(assignment, keywords), 500.0)
        ).weight
        for removed in keywords:
            reduced_keywords = [k for k in keywords if k != removed]
            reduced = solver.solve(
                _instance(graph, _match_weights(assignment, reduced_keywords), 500.0)
            ).weight
            assert reduced <= full + 1e-12, (
                f"dropping keyword {removed!r} increased the optimal score"
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_heuristics_never_beat_full_keyword_exact_optimum(self, seed, implementation,
                                                              graph_input):
        # The heuristics run on pointwise-smaller weights, so even they can never
        # exceed the full-keyword-set *exact* optimum.
        network = grid_network(4, 4, spacing=100.0, jitter=10.0,
                               rng=random.Random(seed + 200))
        assignment = _keyword_assignment(network, seed)
        graph = graph_input(network)
        optimum = implementation(ExactSolver(max_nodes=16)).solve(
            _instance(graph, _match_weights(assignment, KEYWORD_POOL), 500.0)
        ).weight
        for solver in map(implementation, (GreedySolver(), TGENSolver(), APPSolver())):
            for removed in KEYWORD_POOL[:2]:
                reduced_keywords = [k for k in KEYWORD_POOL if k != removed]
                score = solver.solve(
                    _instance(graph, _match_weights(assignment, reduced_keywords),
                              500.0)
                ).weight
                assert score <= optimum + 1e-9


class TestFeasibilityInvariants:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "make_solver",
        [GreedySolver, TGENSolver, APPSolver],
        ids=["greedy", "tgen", "app"],
    )
    def test_regions_respect_budget_window_and_connectivity(self, seed, make_solver,
                                                            implementation, graph_input):
        network = _network_for(seed)
        weights = _random_weights(network, seed)
        graph = graph_input(network)
        window = Rectangle(200.0, 200.0, 1700.0, 1700.0)
        for delta in (400.0, 900.0):
            instance = _instance(graph, weights, delta, region=window)
            result = implementation(make_solver()).solve(instance)
            region = result.region
            if region.is_empty:
                continue
            # Budget.
            assert region.length <= delta + 1e-9
            edge_sum = sum(network.edge_length(u, v) for u, v in region.edges)
            assert edge_sum == pytest.approx(region.length, abs=1e-9)
            # Window containment.
            for node_id in region.nodes:
                x, y = network.coords(node_id)
                assert window.contains(x, y)
            # Weight consistency.
            assert region.weight == pytest.approx(
                sum(weights.get(node_id, 0.0) for node_id in region.nodes), abs=1e-9
            )
            # Connectivity over the region's own edges.
            adjacency: Dict[int, List[int]] = {node_id: [] for node_id in region.nodes}
            for u, v in region.edges:
                assert u in region.nodes and v in region.nodes
                adjacency[u].append(v)
                adjacency[v].append(u)
            start = next(iter(region.nodes))
            seen = {start}
            frontier = [start]
            while frontier:
                for neighbor in adjacency[frontier.pop()]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        frontier.append(neighbor)
            assert seen == set(region.nodes), "returned region is not connected"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_exact_invariants_on_tiny_windows(self, seed, implementation, graph_input):
        network = grid_network(4, 4, spacing=100.0, jitter=15.0,
                               rng=random.Random(seed + 300))
        weights = _random_weights(network, seed, fraction=0.7)
        delta = 350.0
        instance = _instance(graph_input(network), weights, delta)
        result = implementation(ExactSolver(max_nodes=16)).solve(instance)
        if not result.region.is_empty:
            assert result.region.length <= delta + 1e-9
            assert result.region.weight == pytest.approx(
                sum(weights.get(n, 0.0) for n in result.region.nodes), abs=1e-9
            )
        # No heuristic may beat the exact optimum on the same instance.
        for solver in (GreedySolver(), TGENSolver(), APPSolver()):
            assert implementation(solver).solve(instance).weight <= result.weight + 1e-9


class TestBackendIdentity:
    @staticmethod
    def _assert_same(result_a, result_b):
        assert result_a.region.nodes == result_b.region.nodes
        assert result_a.region.edges == result_b.region.edges
        assert result_a.length == pytest.approx(result_b.length, abs=1e-12)
        assert result_a.weight == pytest.approx(result_b.weight, abs=1e-12)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_dict_and_csr_backends_stay_identical(self, seed):
        network = _network_for(seed)
        weights = _random_weights(network, seed)
        frozen = CompactNetwork.from_network(network)
        window = Rectangle(150.0, 150.0, 1800.0, 1800.0)
        for delta in (500.0, 1100.0):
            for region in (None, window):
                query = LCMSRQuery.create(["kw"], delta=delta, region=region)
                dict_instance = build_instance(network, query, node_weights=weights)
                csr_instance = build_instance(frozen, query, node_weights=weights)
                for solver in (GreedySolver(), TGENSolver(), APPSolver()):
                    reference = twin(solver).solve(dict_instance)
                    self._assert_same(reference, twin(solver).solve(csr_instance))
                    # The solver must coincide with its twin on BOTH graph backends.
                    self._assert_same(reference, solver.solve(dict_instance))
                    self._assert_same(reference, solver.solve(csr_instance))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_topk_backend_identity(self, seed):
        network = _network_for(seed + 50)
        weights = _random_weights(network, seed + 50)
        frozen = CompactNetwork.from_network(network)
        query = LCMSRQuery.create(["kw"], delta=700.0, k=3)
        dict_instance = build_instance(network, query, node_weights=weights)
        csr_instance = build_instance(frozen, query, node_weights=weights)
        for solver in (GreedySolver(), TGENSolver()):
            topk_dict = twin(solver).solve_topk(dict_instance, k=3)
            for other in (
                twin(solver).solve_topk(csr_instance, k=3),
                solver.solve_topk(dict_instance, k=3),
                solver.solve_topk(csr_instance, k=3),
            ):
                assert len(topk_dict.results) == len(other.results)
                for result_d, result_c in zip(topk_dict.results, other.results):
                    self._assert_same(result_d, result_c)


class TestTopKPruningInvariant:
    """Pruned top-k must equal the unpruned twin's, rank for rank."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_pruned_exact_topk_matches_exhaustive_enumeration(self, seed, k, graph_input):
        # ReferenceExact enumerates every connected subset, so comparing
        # against it pins the branch-and-bound top-k to the full enumeration:
        # same k results, same order, bit-equal scores.
        network = grid_network(4, 4, spacing=100.0, jitter=15.0,
                               rng=random.Random(seed + 400))
        weights = _random_weights(network, seed, fraction=0.7)
        instance = _instance(graph_input(network), weights, 350.0)
        pruned = ExactSolver(max_nodes=16).solve_topk(instance, k=k)
        exhaustive = ReferenceExact(max_nodes=16).solve_topk(instance, k=k)
        assert len(pruned.results) == len(exhaustive.results)
        for result_p, result_e in zip(pruned.results, exhaustive.results):
            assert result_p.region.nodes == result_e.region.nodes
            assert result_p.region.edges == result_e.region.edges
            assert result_p.weight == result_e.weight  # bit-equal
            assert result_p.length == result_e.length

    @pytest.mark.parametrize("seed", SEEDS)
    def test_pruned_heuristic_topk_is_identical(self, seed, graph_input):
        network = _network_for(seed + 70)
        weights = _random_weights(network, seed + 70)
        instance = _instance(graph_input(network), weights, 700.0)
        for solver in (GreedySolver(), TGENSolver()):
            pruned = solver.solve_topk(instance, k=3)
            reference = twin(solver).solve_topk(instance, k=3)
            assert len(pruned.results) == len(reference.results)
            for result_p, result_r in zip(pruned.results, reference.results):
                assert result_p.region.nodes == result_r.region.nodes
                assert result_p.weight == result_r.weight
