"""Exception hierarchy for the ``repro`` library.

All exceptions raised by the library derive from :class:`ReproError`, so callers can
use a single ``except ReproError`` to distinguish library failures from programming
errors in their own code.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class GraphError(ReproError):
    """Raised when a road-network graph is malformed or an operation is invalid.

    Examples include adding an edge whose endpoints do not exist, asking for the
    neighbours of an unknown node, or negative edge lengths.
    """


class NodeNotFoundError(GraphError):
    """Raised when a node identifier is not present in the graph."""

    def __init__(self, node_id: int) -> None:
        super().__init__(f"node {node_id!r} is not in the graph")
        self.node_id = node_id


class EdgeNotFoundError(GraphError):
    """Raised when an edge is not present in the graph."""

    def __init__(self, u: int, v: int) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.u = u
        self.v = v


class RegionError(ReproError):
    """Raised when a region is malformed (e.g. disconnected or inconsistent)."""


class QueryError(ReproError):
    """Raised when an LCMSR query is malformed.

    Examples: empty keyword set, non-positive length constraint, degenerate query
    rectangle.
    """


class IndexError_(ReproError):
    """Raised for index-structure failures (the columnar scoring index).

    Named with a trailing underscore to avoid shadowing the built-in ``IndexError``.
    """


class DatasetError(ReproError):
    """Raised when dataset generation or loading fails."""


class ArtifactError(ReproError):
    """Raised when a persisted index-bundle artifact cannot be written or loaded.

    Covers missing or malformed manifests, unsupported artifact format versions,
    checksum mismatches (on-disk corruption) and refusals to overwrite an existing
    artifact directory. See :mod:`repro.service.persist`.
    """


class SolverError(ReproError):
    """Raised when an algorithm cannot produce a result.

    This covers cases such as a query region containing no relevant objects, or a
    k-MST quota that no tree in the graph can satisfy.
    """


class NoFeasibleRegionError(SolverError):
    """Raised when no feasible region exists for the query.

    A feasible region requires at least one node with positive weight inside the
    query rectangle; if every relevant object lies outside ``Q.Λ`` or no object
    matches the query keywords, this error is raised by solvers configured to be
    strict (the default is to return an empty result instead).
    """
