"""Synthetic geo-textual datasets over synthetic road networks.

:class:`SyntheticDataset` bundles everything one experiment needs: the road network,
the object corpus and the object → node mapping.
The object generator places PoIs on (or jittered around) road-network nodes with a
configurable degree of *co-location*: a fraction of objects is placed inside a small
number of hot-spot clusters whose members share category terms, reproducing the
"cities have regions with high concentrations of bars, restaurants, shops" phenomenon
the LCMSR query is designed to exploit.

Determinism policy: no function in this module touches module-level RNG state (the
global :mod:`random` generator or :data:`numpy.random`) — every random draw flows
through one explicit :class:`random.Random` instance derived from the caller's
``seed`` (or injected directly via ``rng``), or through a
:class:`numpy.random.Generator` seeded deterministically *from* that instance
(the chunked background-placement draws). Two builds with the same seed
therefore produce identical corpora, and — because the persistence layer is
deterministic too — byte-identical on-disk artifacts (regression-tested in
``tests/service/test_persist.py``).

Scale policy: :func:`iter_objects_on_network` is a generator — it yields
objects one at a time and holds nothing corpus-sized, so
:meth:`IndexBundle.build_streaming
<repro.service.bundle.IndexBundle.build_streaming>` can index millions of
objects without this module ever materialising the corpus. Background
placements are drawn in vectorised numpy chunks (node index, jitter and rating
arrays per chunk) rather than three Python-level RNG calls per object, which
keeps generation from dominating a 1M-object build.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import DatasetError
from repro.network.graph import RoadNetwork
from repro.network.subgraph import Rectangle
from repro.objects.corpus import ObjectCorpus
from repro.objects.geoobject import GeoTextualObject
from repro.objects.mapping import NodeObjectMap, map_objects_to_network
from repro.datasets.vocab import Vocabulary, PLACES_VOCABULARY


@dataclass
class SyntheticDataset:
    """A dataset ready to index: network + objects + their node mapping.

    Attributes:
        name: Human-readable dataset name ("NY-like", "USANW-like", ...).
        network: The road network.
        corpus: The geo-textual objects.
        mapping: Object → nearest-node assignment.
        vocabulary: The vocabulary objects were generated from.
    """

    name: str
    network: RoadNetwork
    corpus: ObjectCorpus
    mapping: NodeObjectMap
    vocabulary: Vocabulary

    @property
    def extent(self) -> Rectangle:
        """The spatial extent of the road network."""
        min_x, min_y, max_x, max_y = self.network.bounding_box()
        return Rectangle(min_x, min_y, max_x, max_y)

    def describe(self) -> Dict[str, float]:
        """Return headline statistics: node, edge, object and distinct-keyword counts."""
        return {
            "nodes": float(self.network.num_nodes),
            "edges": float(self.network.num_edges),
            "objects": float(len(self.corpus)),
            "distinct_keywords": float(self.corpus.vocabulary_size()),
        }


def generate_objects_on_network(
    network: RoadNetwork,
    num_objects: int,
    vocabulary: Vocabulary = PLACES_VOCABULARY,
    cluster_fraction: float = 0.6,
    num_clusters: int = 20,
    cluster_radius: float = 400.0,
    hub_fraction: float = 0.08,
    num_hubs: int = 25,
    jitter: float = 25.0,
    seed: int = 17,
    rng: Optional[random.Random] = None,
) -> ObjectCorpus:
    """Generate geo-textual objects along a road network, fully materialised.

    A thin wrapper around :func:`iter_objects_on_network` (same parameters,
    same objects in the same order) that collects the stream into an
    :class:`ObjectCorpus`. Callers indexing at the million-object scale should
    consume the iterator directly through :meth:`IndexBundle.build_streaming
    <repro.service.bundle.IndexBundle.build_streaming>` instead.
    """
    corpus = ObjectCorpus()
    corpus.add_all(
        iter_objects_on_network(
            network,
            num_objects,
            vocabulary=vocabulary,
            cluster_fraction=cluster_fraction,
            num_clusters=num_clusters,
            cluster_radius=cluster_radius,
            hub_fraction=hub_fraction,
            num_hubs=num_hubs,
            jitter=jitter,
            seed=seed,
            rng=rng,
        )
    )
    return corpus


def iter_objects_on_network(
    network: RoadNetwork,
    num_objects: int,
    vocabulary: Vocabulary = PLACES_VOCABULARY,
    cluster_fraction: float = 0.6,
    num_clusters: int = 20,
    cluster_radius: float = 400.0,
    hub_fraction: float = 0.08,
    num_hubs: int = 25,
    jitter: float = 25.0,
    seed: int = 17,
    rng: Optional[random.Random] = None,
) -> Iterator[GeoTextualObject]:
    """Yield geo-textual objects along a road network, one at a time.

    Three kinds of objects are generated:

    * **hot-spot objects** (``cluster_fraction`` of the total): placed in
      ``num_clusters`` spatially extended hot spots whose members share two signature
      category terms — the co-located, topically coherent street regions the LCMSR
      query looks for;
    * **hub objects** (``hub_fraction``): small, very dense pockets (food courts,
      malls) of category-sharing objects concentrated on essentially a single node,
      isolated from the extended hot spots. Hubs create individual nodes with large
      weight but poor surroundings — the situation in which a greedy expansion from
      the heaviest node wastes its budget while APP/TGEN find a better street region;
    * **background objects** (the rest): spread uniformly over the network's nodes
      with fully Zipfian descriptions.

    Args:
        network: The road network to attach objects to.
        num_objects: Total number of objects.
        vocabulary: Term universe for descriptions.
        cluster_fraction: Fraction of objects placed in extended hot spots.
        num_clusters: Number of extended hot spots.
        cluster_radius: Euclidean radius of a hot spot, in meters.
        hub_fraction: Fraction of objects placed in isolated single-node hubs.
        num_hubs: Number of isolated hubs.
        jitter: Coordinate jitter applied to every object, in meters.
        seed: Random seed (the whole dataset is deterministic given the seed).
        rng: Optional explicit generator; overrides ``seed`` when given. Every
            random draw of the generation flows through this single generator
            or through a numpy generator seeded from it — there is no hidden
            module-level RNG state.

    Returns:
        An iterator of :class:`~repro.objects.geoobject.GeoTextualObject`
        (hot-spot objects first, then hub objects, then background objects;
        ids ascend from 0 in yield order). Validation errors raise eagerly at
        call time, before the first object is requested.
    """
    if num_objects < 1:
        raise DatasetError("num_objects must be positive")
    if not 0.0 <= cluster_fraction <= 1.0:
        raise DatasetError("cluster_fraction must be in [0, 1]")
    if not 0.0 <= hub_fraction <= 1.0 or cluster_fraction + hub_fraction > 1.0:
        raise DatasetError("cluster_fraction + hub_fraction must stay within [0, 1]")
    rng = rng if rng is not None else random.Random(seed)
    nodes = list(network.nodes())
    if not nodes:
        raise DatasetError("cannot place objects on an empty network")

    # Pick hot-spot street walks and their signature terms from the vocabulary head.
    # PoIs in cities line up along streets, so each extended hot spot is a random walk
    # over the road network rather than a disk: this produces the irregular, elongated
    # relevant regions (the paper's "L-shaped" example) that fixed shapes cannot cover
    # and that make naive greedy expansion take wrong turns.
    head = [t for t in vocabulary.terms[: max(10, num_clusters * 2)]]
    mean_edge = (network.total_length() / network.num_edges) if network.num_edges else 1.0
    walk_length = max(4, int(round(2.0 * cluster_radius / mean_edge)))
    hotspots: List[Tuple[List[Tuple[float, float]], Tuple[str, str]]] = []
    for index in range(num_clusters):
        centre = rng.choice(nodes)
        walk = _street_walk(network, centre.node_id, walk_length, rng)
        term_a = head[(2 * index) % len(head)]
        term_b = head[(2 * index + 1) % len(head)]
        hotspots.append((walk, (term_a, term_b)))
    hubs: List[Tuple[float, float, Tuple[str, str]]] = []
    for index in range(max(0, num_hubs)):
        centre = rng.choice(nodes)
        term_a = head[(2 * index + 1) % len(head)]
        term_b = head[(2 * index) % len(head)]
        hubs.append((centre.x, centre.y, (term_a, term_b)))

    num_clustered = int(round(cluster_fraction * num_objects))
    num_hub_objects = int(round(hub_fraction * num_objects)) if hubs else 0
    num_background = num_objects - num_clustered - num_hub_objects
    # Background *placements* (node pick, jitter, rating) are drawn in chunks
    # from a numpy generator seeded off the dataset rng: three vectorised draws
    # per ~8k objects instead of four Python-level RNG calls per object, which
    # is what keeps 1M-object generation from dominating the build. Seeding
    # happens here — before any object is emitted — so the derived stream is a
    # pure function of the caller's seed regardless of consumption pattern.
    placement_rng = np.random.default_rng(rng.getrandbits(64))
    node_xs = np.fromiter((n.x for n in nodes), dtype=np.float64, count=len(nodes))
    node_ys = np.fromiter((n.y for n in nodes), dtype=np.float64, count=len(nodes))

    def emit() -> Iterator[GeoTextualObject]:
        object_id = 0
        for _ in range(num_clustered):
            walk, signature = hotspots[rng.randrange(len(hotspots))]
            cx, cy = walk[rng.randrange(len(walk))]
            x = cx + rng.uniform(-jitter * 2, jitter * 2)
            y = cy + rng.uniform(-jitter * 2, jitter * 2)
            terms = list(signature)
            if rng.random() < 0.7:
                terms.append(rng.choice(signature))
            terms.extend(vocabulary.sample_description(rng, 1, 3))
            yield GeoTextualObject.create(
                object_id, x, y, terms, rating=1.0 + rng.random() * 4.0
            )
            object_id += 1
        for _ in range(num_hub_objects):
            hx, hy, signature = hubs[rng.randrange(len(hubs))]
            terms = list(signature)
            terms.append(rng.choice(signature))
            terms.extend(vocabulary.sample_description(rng, 1, 2))
            yield GeoTextualObject.create(
                object_id,
                hx + rng.uniform(-jitter, jitter),
                hy + rng.uniform(-jitter, jitter),
                terms,
                rating=1.0 + rng.random() * 4.0,
            )
            object_id += 1
        chunk_size = 8192
        remaining = num_background
        while remaining > 0:
            count = min(chunk_size, remaining)
            picks = placement_rng.integers(0, len(nodes), size=count)
            xs = node_xs[picks] + placement_rng.uniform(-jitter, jitter, size=count)
            ys = node_ys[picks] + placement_rng.uniform(-jitter, jitter, size=count)
            ratings = 1.0 + placement_rng.random(count) * 4.0
            for i in range(count):
                terms = vocabulary.sample_description(rng, 2, 5)
                yield GeoTextualObject.create(
                    object_id,
                    float(xs[i]),
                    float(ys[i]),
                    terms,
                    rating=float(ratings[i]),
                )
                object_id += 1
            remaining -= count

    return emit()


def _street_walk(
    network: RoadNetwork, start: int, length: int, rng: random.Random
) -> List[Tuple[float, float]]:
    """Return the coordinates of a non-backtracking random walk along the network."""
    current = start
    previous: Optional[int] = None
    coordinates: List[Tuple[float, float]] = [network.node(current).coords()]
    for _ in range(length):
        neighbors = [n for n in network.neighbors(current) if n != previous]
        if not neighbors:
            neighbors = list(network.neighbors(current))
            if not neighbors:
                break
        previous, current = current, rng.choice(neighbors)
        coordinates.append(network.node(current).coords())
    return coordinates


def assemble_dataset(
    name: str,
    network: RoadNetwork,
    corpus: ObjectCorpus,
    vocabulary: Vocabulary,
) -> SyntheticDataset:
    """Wire a network and corpus into a :class:`SyntheticDataset` (maps the objects)."""
    return SyntheticDataset(
        name=name,
        network=network,
        corpus=corpus,
        mapping=map_objects_to_network(network, corpus),
        vocabulary=vocabulary,
    )
