"""Region tuples and tuple arrays (paper Definitions 4, 5 and 6).

A region is represented during search as a 5-tuple ``T = (l, s, ŝ, V, E)``: total
length, original weight, scaled weight, node set and edge set. Both the findOptTree
dynamic program (Definition 5) and TGEN (Definition 6) keep, per node, an array mapping
each scaled weight value ``S`` to the shortest known region with that scaled weight —
the dominance rule of Lemma 6. :class:`TupleArray` implements that array with the
dominance update, and :class:`RegionTuple` the 5-tuple with the combination operation
of Lemma 7 / Section 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.core.region import Region
from repro.network.graph import edge_key

#: Float tolerance shared by the dominance rule (:meth:`TupleArray.update`) and
#: the result-preference order (:meth:`RegionTuple.better_than`). TGEN's dense
#: loop applies both predicates to its own flat tuples (an inlined copy of each)
#: and imports this constant so the tolerance cannot drift between the copies.
EPS = 1e-12


@dataclass(frozen=True)
class RegionTuple:
    """The paper's 5-tuple region representation ``(l, s, ŝ, V, E)``.

    Attributes:
        length: Total length ``l`` of all road segments in the region.
        weight: Original (unscaled) weight ``s``.
        scaled_weight: Scaled integer weight ``ŝ``.
        nodes: Frozen set of the region's node ids ``V``.
        edges: Frozen set of the region's normalised edges ``E``.
    """

    length: float
    weight: float
    scaled_weight: int
    nodes: FrozenSet[int]
    edges: FrozenSet[Tuple[int, int]]

    @staticmethod
    def singleton(node_id: int, weight: float, scaled_weight: int) -> "RegionTuple":
        """Return the tuple for the single-node region ``{node_id}`` (length 0)."""
        return RegionTuple(0.0, weight, int(scaled_weight), frozenset({node_id}), frozenset())

    def shares_nodes_with(self, other: "RegionTuple") -> bool:
        """Return ``True`` if the two regions have a node in common (Lemma 9 check)."""
        small, large = (self.nodes, other.nodes) if len(self.nodes) <= len(other.nodes) else (
            other.nodes,
            self.nodes,
        )
        return any(node in large for node in small)

    def combine(self, other: "RegionTuple", u: int, v: int, edge_length: float) -> "RegionTuple":
        """Combine two node-disjoint regions through the edge ``(u, v)``.

        ``self`` must contain ``u`` and ``other`` must contain ``v`` (or vice versa);
        the caller is responsible for the Lemma 9 disjointness check, which it usually
        performs anyway to decide whether to combine at all.
        """
        return RegionTuple(
            length=self.length + other.length + edge_length,
            weight=self.weight + other.weight,
            scaled_weight=self.scaled_weight + other.scaled_weight,
            nodes=self.nodes | other.nodes,
            edges=(self.edges | other.edges) | {edge_key(u, v)},
        )

    def extend(self, node_id: int, weight: float, scaled_weight: int,
               attach_to: int, edge_length: float) -> "RegionTuple":
        """Return a new tuple with ``node_id`` attached to the region via ``attach_to``."""
        return RegionTuple(
            length=self.length + edge_length,
            weight=self.weight + weight,
            scaled_weight=self.scaled_weight + int(scaled_weight),
            nodes=self.nodes | {node_id},
            edges=self.edges | {edge_key(attach_to, node_id)},
        )

    def to_region(self) -> Region:
        """Convert the tuple to a user-facing :class:`Region`."""
        return Region(nodes=self.nodes, edges=self.edges, length=self.length, weight=self.weight)

    def better_than(self, other: Optional["RegionTuple"]) -> bool:
        """Result preference order: larger scaled weight, then larger weight, then shorter.

        The paper returns the feasible region with the largest (scaled) weight and, on
        ties, the one with the shortest length.
        """
        if other is None:
            return True
        if self.scaled_weight != other.scaled_weight:
            return self.scaled_weight > other.scaled_weight
        if abs(self.weight - other.weight) > EPS:
            return self.weight > other.weight
        return self.length < other.length - EPS


class TupleArray:
    """Per-node array of region tuples keyed by scaled weight (Definitions 5 / 6).

    For each scaled weight value ``S`` the array keeps only the tuple with the smallest
    length (Lemma 6's dominance rule). Implemented as a dictionary because scaled
    weights are sparse in practice.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: Dict[int, RegionTuple] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[RegionTuple]:
        return iter(self._entries.values())

    def __contains__(self, scaled_weight: int) -> bool:
        return scaled_weight in self._entries

    def get(self, scaled_weight: int) -> Optional[RegionTuple]:
        """Return the stored tuple for ``scaled_weight`` or ``None``."""
        return self._entries.get(scaled_weight)

    def update(self, candidate: RegionTuple) -> bool:
        """Insert ``candidate`` if it is shorter than the stored tuple of equal ŝ.

        Returns:
            ``True`` if the array changed.
        """
        stored = self._entries.get(candidate.scaled_weight)
        if stored is None or candidate.length < stored.length - EPS:
            self._entries[candidate.scaled_weight] = candidate
            return True
        return False

    def tuples(self) -> List[RegionTuple]:
        """Return a snapshot list of the stored tuples (safe to iterate while updating)."""
        return list(self._entries.values())

    def best(self) -> Optional[RegionTuple]:
        """Return the stored tuple with the largest scaled weight (ties: shortest)."""
        best: Optional[RegionTuple] = None
        for entry in self._entries.values():
            if entry.better_than(best):
                best = entry
        return best

    def prune_longer_than(self, max_length: float) -> None:
        """Drop every stored tuple whose length exceeds ``max_length``."""
        to_delete = [s for s, t in self._entries.items() if t.length > max_length + 1e-12]
        for scaled_weight in to_delete:
            del self._entries[scaled_weight]
