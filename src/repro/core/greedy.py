"""Greedy region expansion (paper Section 6.1).

The greedy algorithm seeds the explored region with the heaviest node inside ``Q.Λ``
and repeatedly attaches the neighbouring node with the best combined rank

    ρ(v) = µ · (1 − τ(v, attach)/τmax) + (1 − µ) · σ_v / σmax,

where ``τ(v, attach)`` is the length of the shortest edge connecting the candidate to
the explored region, ``τmax`` is the longest edge in ``Q.Λ`` and ``σmax`` the largest
node weight in ``Q.Λ``. Expansion stops when no neighbouring node can be added without
exceeding the length constraint. The parameter µ trades off proximity against weight;
the pure-weight (µ = 0) and pure-length (µ = 1) variants the paper discusses are the
endpoints of the same knob.

Note on the paper's formula: the paper's text prints the weight term as
``σ_{vj}/σmax`` (the weight of the already-included anchor node); ranking candidates
by the anchor's weight cannot differentiate them, so — consistent with the algorithm's
stated intent ("the node weight ... of the selecting node") — we use the candidate's
weight ``σ_{vi}``. This interpretation is recorded here and in the "Deviations
from the paper" section of ``docs/ARCHITECTURE.md``.

Candidate enumeration order is part of the determinism contract: each round scans
the region's members in *insertion order* and each member's neighbours in graph
iteration order. The expansion runs on the instance's
:class:`~repro.core.dense.DenseInstance` and replays exactly that sequence —
members append their CSR rows (with ranks precomputed once) to one flat
candidate table as they join, so one scan selects the same attachment, bit for
bit, as the dict-keyed loop of :class:`~repro.core.reference.ReferenceGreedy`.
Each grown region is one call into the compiled kernel (``kernel.c``, built
and loaded by :mod:`repro.core.kernel` on first import), on the substrate's
arrays; where no compiler works, the Python loop :meth:`GreedySolver._grow_dense`
grows it instead, with the same answers and counters, on the list mirrors of
the instance's own window graph, which die with the instance.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core import kernel
from repro.core.anytime import annotate_anytime_stats
from repro.core.dense import DenseInstance
from repro.core.instance import ProblemInstance
from repro.core.region import Region
from repro.core.result import RegionResult, TopKResult
from repro.core.topk import resolve_k
from repro.exceptions import SolverError
from repro.network.compact import CompactNetwork
from repro.network.graph import edge_key


class GreedySolver:
    """The paper's Greedy algorithm.

    Args:
        mu: The balance parameter µ ∈ [0, 1]; the paper settles on 0.2 for NY and 0.4
            for USANW.
    """

    name = "Greedy"

    def __init__(self, mu: float = 0.2) -> None:
        if not 0.0 <= mu <= 1.0:
            raise SolverError(f"mu must be in [0, 1], got {mu}")
        self.mu = mu

    # ------------------------------------------------------------------ public API
    def solve(self, instance: ProblemInstance) -> RegionResult:
        """Answer an LCMSR query by greedy region expansion.

        Args:
            instance: The windowed, weighted problem instance to solve.

        Returns:
            The grown region (no approximation guarantee); an empty result when no
            node in the window is relevant.
        """
        start = time.perf_counter()
        prune_stats: Dict[str, float] = {}
        region = self._grow(
            instance, excluded=set(), budget=instance.budget, stats=prune_stats
        )
        runtime = time.perf_counter() - start
        stats = {"nodes_expanded": float(region.num_nodes)} if region else {}
        stats.update(prune_stats)
        annotate_anytime_stats(instance, region.weight if region else 0.0, stats)
        return RegionResult(region or Region.empty(), self.name, runtime, stats=stats)

    def solve_topk(self, instance: ProblemInstance, k: Optional[int] = None) -> TopKResult:
        """Top-k variant (Section 6.2): regrow repeatedly, excluding earlier regions.

        Args:
            instance: The windowed, weighted problem instance to solve.
            k: Number of distinct regions to return; ``instance.query.k`` when
                omitted.

        Returns:
            Up to ``k`` node-disjoint regions in the order they were grown.

        Raises:
            SolverError: If ``k`` is smaller than 1.
        """
        start = time.perf_counter()
        k = resolve_k(instance, k)
        results: List[RegionResult] = []
        prune_stats: Dict[str, float] = {}
        budget = instance.budget
        excluded: Set[int] = set()
        for _ in range(k):
            region = self._grow(
                instance, excluded=excluded, budget=budget, stats=prune_stats
            )
            if region is None or region.is_empty:
                break
            results.append(RegionResult(region, self.name))
            excluded |= set(region.nodes)
            if budget is not None and budget.expired_now():
                prune_stats["budget_expired"] = 1.0
                break
        runtime = time.perf_counter() - start
        annotate_anytime_stats(
            instance, sum(r.region.weight for r in results), prune_stats,
            one_region=False,
        )
        results = [
            RegionResult(r.region, self.name, runtime, stats=r.stats) for r in results
        ]
        return TopKResult(results, self.name, runtime, stats=prune_stats)

    # ------------------------------------------------------------------ expansion
    def _grow(
        self,
        instance: ProblemInstance,
        excluded: Set[int],
        budget=None,
        stats: Optional[Dict[str, float]] = None,
    ) -> Optional[Region]:
        """Grow one region on the instance's substrate, avoiding ``excluded`` ids.

        The compiled kernel grows it where its library loaded, and
        :meth:`_grow_dense` where it did not; both make the same decisions in
        the same order, so they return the same region and counters.
        """
        dense = instance.dense
        mask = bytearray(dense.num_nodes)
        if excluded:
            taken = np.fromiter(excluded, dtype=np.int64, count=len(excluded))
            np.frombuffer(mask, dtype=np.uint8)[np.isin(dense.ids, taken)] = 1
        library = kernel.LIBRARY
        if library is None:
            return self._grow_dense(
                dense, instance.graph, instance.query.delta, mask, stats, budget
            )
        grown = library.greedy_grow(dense, self.mu, instance.query.delta, mask, budget)
        if grown is None:
            return None
        if stats is not None:
            if grown.expired:
                stats["budget_expired"] = 1.0
            stats["greedy_candidates_scanned"] = (
                stats.get("greedy_candidates_scanned", 0.0) + grown.scanned
            )
            stats["greedy_candidates_compacted"] = (
                stats.get("greedy_candidates_compacted", 0.0) + grown.compacted
            )
        nodes = dense.ids[grown.positions].tolist()
        members = dense.ids[grown.attached[1:]].tolist()
        return Region(
            nodes=frozenset(nodes),
            edges=frozenset(
                edge_key(member, node) for member, node in zip(members, nodes[1:])
            ),
            length=grown.length,
            weight=sum(dense.sigma[grown.positions].tolist()),
        )

    def _grow_dense(
        self,
        dense: DenseInstance,
        graph: CompactNetwork,
        delta: float,
        excluded: bytearray,
        stats: Optional[Dict[str, float]] = None,
        budget=None,
    ) -> Optional[Region]:
        """Grow one region over local node positions (``excluded`` is a byte mask).

        This is the expansion in Python: it runs where the compiled kernel
        could not be built, and the parity suite checks the kernel against it.
        It walks the list mirrors of ``graph``, the instance's window graph
        (the substrate's positions are the graph's), and reads σ off the
        substrate's array, so it leaves nothing on the substrate.

        Candidate ranks are constants per (member, neighbour) edge, so each new
        member appends its CSR row — rank precomputed once — to one flat
        candidate table; per round a single scan over that table applies the
        reference comparison with list indexing only (no per-candidate dict
        hashing, set probing or rank re-derivation). The scan order equals the
        reference dict loop's member-insertion × neighbour-row order and the
        rank arithmetic keeps its expression tree, so the selected attachment
        is identical, bit for bit.

        The table is periodically *compacted*: entries that are permanently
        dead — their target already joined the region or is excluded, or the
        (monotonically growing) used length can no longer admit their edge —
        are dropped once they make up over half the table. The reference scan
        merely ``continue``s over exactly those entries, and the survivors keep
        their order, so the selected attachment is unchanged.
        ``stats`` (when given) accumulates the ``greedy_candidates_scanned`` /
        ``greedy_candidates_compacted`` counters.
        """
        sigma = dense.sigma
        relevant = dense.relevant_order
        if relevant.size == 0:
            return None
        # Zero-copy view of the exclusion byte mask for the vectorised seed pick.
        excluded_view = np.frombuffer(excluded, dtype=np.uint8)
        available = relevant[excluded_view[relevant] == 0]
        if available.size == 0:
            return None
        available_weights = sigma[available]
        sigma_max = float(available_weights.max())
        if sigma_max <= 0:
            return None
        tau_max = dense.tau_max or 1.0
        # The reference seeds at max (weight, id): heaviest weight, largest id on ties.
        heaviest = available[available_weights == sigma_max]
        seed = int(heaviest[np.argmax(dense.ids[heaviest])])

        indptr, columns, neighbor_ids, lengths, ids_list = graph.adjacency_arrays()
        sigma_of = memoryview(sigma)  # indexing yields Python floats
        mu = self.mu
        one_minus_mu = 1.0 - mu
        delta_eps = delta + 1e-12

        in_region = bytearray(dense.num_nodes)
        in_region[seed] = 1
        region_order: List[int] = [seed]
        region_edges: List[Tuple[int, int]] = []
        total_length = 0.0
        scanned = 0
        compacted = 0

        # Flat candidate table, appended to as members join (see docstring).
        cand_pos: List[int] = []
        cand_member: List[int] = []
        cand_length: List[float] = []
        cand_rank: List[float] = []
        cand_id: List[int] = []

        member = seed
        while True:
            if budget is not None and budget.expired():
                if stats is not None:
                    stats["budget_expired"] = 1.0
                break
            for slot in range(indptr[member], indptr[member + 1]):
                position = columns[slot]
                edge_length = lengths[slot]
                cand_pos.append(position)
                cand_member.append(member)
                cand_length.append(edge_length)
                # Same expression tree as the reference rank computation.
                cand_rank.append(
                    mu * (1.0 - edge_length / tau_max)
                    + one_minus_mu * sigma_of[position] / sigma_max
                )
                cand_id.append(neighbor_ids[slot])

            best_slot = -1
            best_rank = 0.0
            best_id = -1
            dead = 0
            for slot in range(len(cand_pos)):
                position = cand_pos[slot]
                if in_region[position] or excluded[position]:
                    dead += 1
                    continue
                if total_length + cand_length[slot] > delta_eps:
                    dead += 1
                    continue
                rank = cand_rank[slot]
                if best_slot < 0 or rank > best_rank or (
                    abs(rank - best_rank) <= 1e-12 and cand_id[slot] < best_id
                ):
                    best_slot = slot
                    best_rank = rank
                    best_id = cand_id[slot]
            scanned += len(cand_pos)
            if best_slot < 0:
                break
            neighbor = cand_pos[best_slot]
            in_region[neighbor] = 1
            region_order.append(neighbor)
            region_edges.append((cand_member[best_slot], neighbor))
            total_length += cand_length[best_slot]
            member = neighbor

            if dead * 2 > len(cand_pos) and len(cand_pos) > 64:
                # Compact the table, re-evaluating deadness against the *post-
                # selection* state (in_region just grew, total_length just
                # rose): every dropped entry is one the reference scan would
                # forever skip, and survivors keep their relative order, so
                # future selections are bit-identical.
                keep = [
                    slot
                    for slot in range(len(cand_pos))
                    if not (
                        in_region[cand_pos[slot]]
                        or excluded[cand_pos[slot]]
                        or total_length + cand_length[slot] > delta_eps
                    )
                ]
                compacted += len(cand_pos) - len(keep)
                cand_pos = [cand_pos[slot] for slot in keep]
                cand_member = [cand_member[slot] for slot in keep]
                cand_length = [cand_length[slot] for slot in keep]
                cand_rank = [cand_rank[slot] for slot in keep]
                cand_id = [cand_id[slot] for slot in keep]

        if stats is not None:
            stats["greedy_candidates_scanned"] = (
                stats.get("greedy_candidates_scanned", 0.0) + scanned
            )
            stats["greedy_candidates_compacted"] = (
                stats.get("greedy_candidates_compacted", 0.0) + compacted
            )
        weight_total = sum(sigma_of[pos] for pos in region_order)
        return Region(
            nodes=frozenset(ids_list[pos] for pos in region_order),
            edges=frozenset(
                edge_key(ids_list[a], ids_list[b]) for a, b in region_edges
            ),
            length=total_length,
            weight=weight_total,
        )
