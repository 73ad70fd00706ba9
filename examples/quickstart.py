"""Quickstart: build an index artifact once, then load it and ask LCMSR queries.

This is the smallest complete use of the library's public API, in the build-once /
serve-many shape the serving stack is designed around:

1. build (or reuse) a persistent index artifact — normally done offline via
   ``python -m repro build --dataset ny --out artifacts/ny-quickstart``; this script
   builds it in-process on first run so it stays a one-file example,
2. load the artifact with :meth:`repro.LCMSREngine.from_artifact` (the CSR arrays
   come back memory-mapped; no index is rebuilt),
3. ask for the best region for a keyword set and a length budget, and
4. inspect the returned region.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from pathlib import Path

from repro import IndexBundle, LCMSREngine, Rectangle, build_ny_like

ARTIFACT = Path(__file__).resolve().parent / "artifacts" / "ny-quickstart"


def ensure_artifact() -> None:
    """Build the NY-like index artifact if it is not on disk yet.

    Equivalent to running::

        python -m repro build --dataset ny --out examples/artifacts/ny-quickstart

    once; every later run of this script (or any other process) just loads it.
    """
    if (ARTIFACT / "manifest.json").is_file():
        print(f"reusing artifact at {ARTIFACT}")
        return
    # A synthetic Manhattan-style dataset: ~2,500 road junctions, ~7,000 PoIs with
    # Google-Places-like keywords ("restaurant", "cafe", "bar", ...). To use your
    # own data, build a RoadNetwork (repro.network) and an ObjectCorpus
    # (repro.objects), wire them with repro.datasets.synthetic.assemble_dataset,
    # and save the bundle the same way.
    dataset = build_ny_like()
    print(f"dataset: {dataset.name}  {dataset.describe()}")
    IndexBundle.from_dataset(dataset).save(ARTIFACT)
    print(f"artifact written to {ARTIFACT}")


def main() -> None:
    ensure_artifact()

    # Engine-ready straight from disk: the offline build (object mapping,
    # columnar scoring index, CSR freeze) is NOT repeated here.
    engine = LCMSREngine.from_artifact(ARTIFACT)
    print(f"engine ready from artifact in "
          f"{engine.bundle.build_seconds['load'] * 1000:.0f} ms: "
          f"{engine.bundle.describe()}")

    # "Where should I go to explore cafes and restaurants, if I am willing to walk
    # about two kilometres of streets in total?" — restricted to the part of town the
    # user cares about (the paper's region of interest Q.Λ), here a 2.5 km square
    # around the centre of the map.
    min_x, min_y, max_x, max_y = engine.graph_view.bounding_box()
    cx, cy = (min_x + max_x) / 2.0, (min_y + max_y) / 2.0
    downtown = Rectangle.from_center(cx, cy, 2500.0, 2500.0)
    result = engine.query(
        ["cafe", "restaurant"], delta=2000.0, region=downtown, algorithm="tgen"
    )

    region = result.region
    print(f"\nbest region found by {result.algorithm} "
          f"in {result.runtime_seconds * 1000:.0f} ms:")
    print(f"  total relevance weight : {region.weight:.3f}")
    print(f"  total street length    : {region.length:.0f} m (budget 2000 m)")
    print(f"  road-network nodes     : {region.num_nodes}")

    # The region is a connected subgraph of the road network; list the PoIs inside it.
    relevant = []
    for node_id in region.nodes:
        for object_id in engine.mapping.objects_at(node_id):
            obj = engine.corpus.get(object_id)
            if obj.contains_any(["cafe", "restaurant"]):
                relevant.append(obj)
    print(f"  relevant PoIs inside   : {len(relevant)}")
    for obj in relevant[:10]:
        print(f"    - object {obj.object_id} at ({obj.x:.0f}, {obj.y:.0f}): "
              f"{' '.join(sorted(obj.terms)[:4])}")

    # The same query answered by the other two algorithms of the paper.
    for algorithm in ("app", "greedy"):
        other = engine.query(
            ["cafe", "restaurant"], delta=2000.0, region=downtown, algorithm=algorithm
        )
        print(f"  {algorithm.upper():6s} weight={other.weight:.3f} "
              f"length={other.length:.0f} m  time={other.runtime_seconds * 1000:.0f} ms")


if __name__ == "__main__":
    main()
