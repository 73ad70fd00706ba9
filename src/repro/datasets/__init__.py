"""Datasets: synthetic stand-ins for the paper's NY and USANW workloads.

The paper evaluates on (a) the New York City road network with 0.5 M Google Places
objects and (b) a north-west USA road network with Flickr-tag objects. Neither dataset
ships with this reproduction, so this subpackage generates synthetic equivalents that
preserve the properties the algorithms are sensitive to — street-aligned, co-located
PoIs; Zipfian keyword frequencies; grid-like dense cores vs. sparse fringes — at a
scale a laptop reproduces in seconds. Real data can still be plugged in through
:mod:`repro.network.io` and :class:`repro.objects.corpus.ObjectCorpus`.

See "Deviations from the paper" in ``docs/ARCHITECTURE.md`` for the substitution and
:mod:`repro.datasets.queries` for the paper's query-workload generator (Section 7.1).
"""

from repro.datasets.vocab import Vocabulary, PLACES_VOCABULARY, FLICKR_VOCABULARY
from repro.datasets.synthetic import SyntheticDataset, generate_objects_on_network
from repro.datasets.ny import build_ny_like
from repro.datasets.usanw import build_usanw_like
from repro.datasets.queries import QueryWorkloadGenerator, generate_workload

__all__ = [
    "Vocabulary",
    "PLACES_VOCABULARY",
    "FLICKR_VOCABULARY",
    "SyntheticDataset",
    "generate_objects_on_network",
    "build_ny_like",
    "build_usanw_like",
    "QueryWorkloadGenerator",
    "generate_workload",
]
