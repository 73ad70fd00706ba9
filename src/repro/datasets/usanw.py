"""The USANW-like dataset (stand-in for the paper's north-west USA workload).

The paper's second dataset is the DIMACS north-west USA road network (1,207,945 nodes,
2,840,208 arcs) with one synthetic object per node whose description is a set of
Flickr photo tags. Relative to NY, the USANW network is much sparser (long rural
segments, small towns), and the keyword distribution is noisier with a far larger
vocabulary. The builder reproduces those contrasts at laptop scale: a random geometric
network with town clusters, one object per node region following the network density,
and the Flickr-like vocabulary (see "Deviations from the paper" in
``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

import random
from typing import Iterator, Tuple

from repro.datasets.synthetic import (
    SyntheticDataset,
    assemble_dataset,
    generate_objects_on_network,
    iter_objects_on_network,
)
from repro.datasets.vocab import FLICKR_VOCABULARY, Vocabulary
from repro.network.builders import random_geometric_network
from repro.network.graph import RoadNetwork
from repro.objects.geoobject import GeoTextualObject


def build_usanw_like(
    num_nodes: int = 3000,
    extent: float = 20000.0,
    num_objects: int = 3000,
    num_clusters: int = 25,
    seed: int = 97,
    vocabulary: Vocabulary = FLICKR_VOCABULARY,
) -> SyntheticDataset:
    """Build the USANW-like dataset.

    Args:
        num_nodes: Number of road-network nodes (default 3,000; the real network has
            1.2 M — the scale-down is listed under "Deviations from the paper" in
            ``docs/ARCHITECTURE.md``).
        extent: Side length of the covered square area in meters (default 20 km).
        num_objects: Number of geo-textual objects; the paper uses one object per
            node, generated following the network distribution, and so do we by
            default.
        num_clusters: Number of photo hot spots (viewpoints, town centres, ...).
        seed: Seed controlling the whole dataset deterministically.
        vocabulary: Keyword universe; defaults to the Flickr-like vocabulary.

    Returns:
        A ready-to-query :class:`~repro.datasets.synthetic.SyntheticDataset` named
        ``"USANW-like"``.
    """
    network = random_geometric_network(
        num_nodes=num_nodes,
        extent=extent,
        target_degree=2.8,
        seed=seed,
    )
    corpus = generate_objects_on_network(
        network,
        num_objects=num_objects,
        vocabulary=vocabulary,
        cluster_fraction=0.45,
        num_clusters=num_clusters,
        cluster_radius=extent / 40.0,
        jitter=extent / 400.0,
        seed=seed + 1,
    )
    return assemble_dataset("USANW-like", network, corpus, vocabulary)


def usanw_like_parts(
    num_nodes: int = 3000,
    extent: float = 20000.0,
    num_objects: int = 3000,
    num_clusters: int = 25,
    seed: int = 97,
    vocabulary: Vocabulary = FLICKR_VOCABULARY,
) -> Tuple[RoadNetwork, Iterator[GeoTextualObject]]:
    """Return the USANW-like dataset's raw parts for a streaming build.

    Same parameters, seeds and object stream as :func:`build_usanw_like`, with
    the objects as a lazy iterator — see
    :func:`repro.datasets.ny.ny_like_parts` for the streaming-build contract.
    """
    network = random_geometric_network(
        num_nodes=num_nodes,
        extent=extent,
        target_degree=2.8,
        seed=seed,
    )
    objects = iter_objects_on_network(
        network,
        num_objects=num_objects,
        vocabulary=vocabulary,
        cluster_fraction=0.45,
        num_clusters=num_clusters,
        cluster_radius=extent / 40.0,
        jitter=extent / 400.0,
        seed=seed + 1,
    )
    return network, objects
