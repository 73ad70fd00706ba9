"""The New-York-like dataset (stand-in for the paper's NY workload).

The paper's NY dataset is the DIMACS New York City road network (264,346 nodes,
733,846 arcs) with 0.5 M Google Places objects mapped to their nearest nodes. This
builder generates a scaled-down Manhattan-style street grid with Places-like objects
whose co-location and keyword-skew properties match the original's (see "Deviations
from the paper" in ``docs/ARCHITECTURE.md``). The
default size (≈ 2,500 nodes, ≈ 7,000 objects) keeps a full benchmark run in CPython in
the minutes range; pass larger ``rows``/``cols``/``num_objects`` to stress-test.

To run on the real data instead, load it with :func:`repro.network.io.load_dimacs` and
build the corpus from your own crawl, then call
:func:`repro.datasets.synthetic.assemble_dataset`.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.datasets.synthetic import (
    SyntheticDataset,
    assemble_dataset,
    generate_objects_on_network,
    iter_objects_on_network,
)
from repro.datasets.vocab import PLACES_VOCABULARY, Vocabulary
from repro.network.builders import manhattan_network
from repro.network.graph import RoadNetwork
from repro.objects.geoobject import GeoTextualObject


def build_ny_like(
    rows: int = 50,
    cols: int = 50,
    block_size: float = 120.0,
    num_objects: int = 7000,
    num_clusters: int = 30,
    seed: int = 42,
    vocabulary: Vocabulary = PLACES_VOCABULARY,
) -> SyntheticDataset:
    """Build the NY-like dataset.

    Args:
        rows / cols: Street-grid dimensions (default 50 × 50 ≈ 2,500 junctions).
        block_size: Block edge length in meters (the extent is ≈ 6 km × 6 km by
            default — dense-downtown scale, which matches the per-query window sizes
            used in the benchmarks once scaled; see "Deviations from the paper" in
            ``docs/ARCHITECTURE.md``).
        num_objects: Number of geo-textual objects.
        num_clusters: Number of PoI hot spots (restaurant rows, shopping streets, ...).
        seed: Seed controlling the whole dataset deterministically.
        vocabulary: Keyword universe; defaults to the Places-like vocabulary.

    Returns:
        A ready-to-query :class:`~repro.datasets.synthetic.SyntheticDataset` named
        ``"NY-like"``.
    """
    network = manhattan_network(
        rows=rows,
        cols=cols,
        spacing=block_size,
        diagonal_fraction=0.04,
        removal_fraction=0.02,
        seed=seed,
    )
    corpus = generate_objects_on_network(
        network,
        num_objects=num_objects,
        vocabulary=vocabulary,
        cluster_fraction=0.65,
        num_clusters=num_clusters,
        cluster_radius=3.0 * block_size,
        jitter=block_size / 4.0,
        seed=seed + 1,
    )
    return assemble_dataset("NY-like", network, corpus, vocabulary)


def ny_like_parts(
    rows: int = 50,
    cols: int = 50,
    block_size: float = 120.0,
    num_objects: int = 7000,
    num_clusters: int = 30,
    seed: int = 42,
    vocabulary: Vocabulary = PLACES_VOCABULARY,
) -> Tuple[RoadNetwork, Iterator[GeoTextualObject]]:
    """Return the NY-like dataset's raw parts for a streaming build.

    Same parameters, seeds and object stream as :func:`build_ny_like`, but the
    objects come back as a lazy iterator instead of an assembled dataset —
    feed both parts to :meth:`IndexBundle.build_streaming
    <repro.service.bundle.IndexBundle.build_streaming>` to index them with no
    object list beside the corpus (the path behind ``python -m repro build
    --dataset ny --stream``). The resulting artifact is byte-identical to the
    eager build's; the corpus and index still grow with the object count.
    """
    network = manhattan_network(
        rows=rows,
        cols=cols,
        spacing=block_size,
        diagonal_fraction=0.04,
        removal_fraction=0.02,
        seed=seed,
    )
    objects = iter_objects_on_network(
        network,
        num_objects=num_objects,
        vocabulary=vocabulary,
        cluster_fraction=0.65,
        num_clusters=num_clusters,
        cluster_radius=3.0 * block_size,
        jitter=block_size / 4.0,
        seed=seed + 1,
    )
    return network, objects
