"""Using the library on your own data: build a network and corpus by hand.

The other examples use the bundled synthetic datasets. This one shows the full manual
path — defining a small road network edge by edge, creating geo-textual objects from
raw strings, and running LCMSR and top-k queries over them — which is exactly what you
would do with data exported from OpenStreetMap or a places API. It also shows the
rating-based scoring mode the paper mentions as an alternative to text relevance.

Run with:  python examples/custom_dataset.py
"""

from __future__ import annotations

from repro import GeoTextualObject, LCMSREngine, ObjectCorpus, RoadNetwork
from repro.textindex.relevance import ScoringMode
from repro.textindex.tokenizer import tokenize


def build_network() -> RoadNetwork:
    """A toy waterfront district: a main street, two side streets and a pier."""
    network = RoadNetwork()
    coordinates = {
        1: (0, 0), 2: (200, 0), 3: (400, 0), 4: (600, 0), 5: (800, 0),     # main street
        6: (200, 150), 7: (400, 150), 8: (600, 150),                        # north side
        9: (400, -200), 10: (500, -350),                                    # the pier
    }
    for node_id, (x, y) in coordinates.items():
        network.add_node(node_id, float(x), float(y))
    for u, v in [(1, 2), (2, 3), (3, 4), (4, 5), (2, 6), (6, 7), (7, 8), (8, 4),
                 (3, 7), (3, 9), (9, 10)]:
        network.add_edge(u, v)  # edge length defaults to the Euclidean distance
    return network


def build_corpus() -> ObjectCorpus:
    """Objects created from free-text descriptions (tokenised) plus a rating."""
    raw = [
        (1, 190, 10, "Harbour Coffee Roasters - specialty coffee and cake", 4.6),
        (2, 210, -15, "The Dockside Cafe, brunch and coffee", 4.2),
        (3, 395, 12, "Pier Street Seafood Restaurant", 4.8),
        (4, 410, -8, "Nonna's Italian Restaurant and pizza", 4.4),
        (5, 605, 8, "Waterfront Wine Bar", 4.1),
        (6, 205, 160, "Old Town Pharmacy", 3.9),
        (7, 402, 158, "Gallery of Modern Art - museum shop and cafe", 4.7),
        (8, 598, 145, "Bookshop and reading cafe", 4.5),
        (9, 405, -195, "Fish market and oyster bar", 4.3),
        (10, 495, -340, "Lighthouse viewpoint", 4.9),
    ]
    corpus = ObjectCorpus()
    for object_id, x, y, description, rating in raw:
        corpus.add(GeoTextualObject.create(object_id, x, y, tokenize(description), rating))
    return corpus


def main() -> None:
    network = build_network()
    corpus = build_corpus()

    # Text-relevance scoring (the paper's default weight definition).
    engine = LCMSREngine(network, corpus)
    result = engine.query(["cafe", "coffee"], delta=450.0, algorithm="tgen")
    print("text-relevance scoring, keywords ['cafe', 'coffee'], budget 450 m:")
    print(f"  region nodes {sorted(result.region.nodes)}  weight={result.weight:.3f} "
          f"length={result.length:.0f} m")

    # Top-2 alternatives.
    topk = engine.query_topk(["restaurant"], delta=300.0, k=2, algorithm="tgen")
    print("\ntop-2 'restaurant' regions with a 300 m budget:")
    for rank, entry in enumerate(topk, start=1):
        print(f"  #{rank} nodes {sorted(entry.region.nodes)}  weight={entry.weight:.3f}")

    # Rating-based scoring: an object's weight is its rating if it matches the query.
    rated_engine = LCMSREngine(
        network, corpus, scoring_mode=ScoringMode.RATING_IF_MATCH
    )
    rated = rated_engine.query(["cafe", "coffee"], delta=450.0, algorithm="tgen")
    print("\nrating-based scoring for the same query:")
    print(f"  region nodes {sorted(rated.region.nodes)}  total rating={rated.weight:.1f}")

    # The exact oracle is practical on a network this small; use it to check TGEN.
    exact = engine.query(["cafe", "coffee"], delta=450.0, algorithm="exact")
    print(f"\nexact optimum weight {exact.weight:.3f} vs TGEN {result.weight:.3f}")


if __name__ == "__main__":
    main()
