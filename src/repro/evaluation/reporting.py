"""Plain-text rendering of experiment results (the rows/series the paper's figures show).

Besides the figure-shaped sweep tables, this module renders the serving layer's
accounting (:class:`repro.service.ServiceStats`): an aggregate summary via
:func:`format_service_stats` and the per-query cost breakdown via
:func:`format_query_timings`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.evaluation.sweeps import ParameterSweep

if TYPE_CHECKING:  # pragma: no cover - the service layer imports nothing from here
    from repro.service.stats import ServiceStats


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: Optional[str] = None
) -> str:
    """Render a simple fixed-width table.

    Args:
        headers: Column headers.
        rows: Row values; floats are formatted to four significant decimals.
        title: Optional title line printed above the table.

    Returns:
        The table as a single string (callers print or write it).
    """
    def fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    text_rows = [[fmt(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in text_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(sweep: ParameterSweep, measure: str, title: Optional[str] = None) -> str:
    """Render one measure of a sweep as a table with one column per algorithm.

    Args:
        sweep: The populated sweep.
        measure: ``"runtime"``, ``"weight"`` or ``"ratio"``.
        title: Optional title; defaults to ``"<measure> vs <axis>"``.

    Returns:
        The formatted table.
    """
    algorithms = sweep.algorithms()
    headers = [sweep.axis] + algorithms
    rows: List[List[object]] = []
    for point in sweep.points:
        source = {"runtime": point.runtimes, "weight": point.weights, "ratio": point.ratios}[
            measure
        ]
        rows.append([point.x] + [source.get(name, float("nan")) for name in algorithms])
    return format_table(headers, rows, title or f"{measure} vs {sweep.axis}")


def format_service_stats(stats: "ServiceStats", title: Optional[str] = None) -> str:
    """Render a service's aggregate accounting as a two-column table.

    Args:
        stats: A snapshot from :meth:`repro.service.QueryService.stats`.
        title: Optional title line; defaults to ``"query service statistics"``.

    Returns:
        The formatted summary (queries, hit rates, time split, cache occupancy).
    """
    rows: List[Sequence[object]] = [
        ("queries served", stats.queries),
        ("result-cache hits", stats.result_hits),
        ("result-cache hit rate", stats.result_hit_rate),
        ("instance-cache hits", stats.instance_hits),
        ("mean latency (s)", stats.mean_latency_seconds),
        ("p50 latency (s)", stats.p50_latency_seconds),
        ("p95 latency (s)", stats.p95_latency_seconds),
        ("p99 latency (s)", stats.p99_latency_seconds),
        ("total build time (s)", stats.total_build_seconds),
        ("total solve time (s)", stats.total_solve_seconds),
        ("total service time (s)", stats.total_seconds),
        ("result cache size", f"{stats.result_cache.size}/{stats.result_cache.max_size}"),
        ("result cache evictions", stats.result_cache.evictions),
        ("instance cache size",
         f"{stats.instance_cache.size}/{stats.instance_cache.max_size}"),
        ("instance cache evictions", stats.instance_cache.evictions),
    ]
    return format_table(
        ["measure", "value"], rows, title or "query service statistics"
    )


def format_query_timings(
    stats: "ServiceStats", limit: Optional[int] = None, title: Optional[str] = None
) -> str:
    """Render the per-query cost breakdown, one row per served query.

    Args:
        stats: A snapshot from :meth:`repro.service.QueryService.stats`.
        limit: Show only the last ``limit`` queries when given.
        title: Optional title line; defaults to ``"per-query timings"``.

    Returns:
        The formatted table (keywords, algorithm, cache outcome, build / solve /
        total seconds).
    """
    if limit is None:
        timings = stats.timings
    else:
        # timings[-0:] would be the whole list, not "the last zero entries".
        timings = stats.timings[-limit:] if limit > 0 else []
    rows: List[Sequence[object]] = []
    for timing in timings:
        if timing.result_cache_hit:
            outcome = "result-hit"
        elif timing.instance_cache_hit:
            outcome = "instance-hit"
        else:
            outcome = "miss"
        rows.append(
            (
                " ".join(timing.key.query.keywords),
                timing.key.algorithm,
                outcome,
                timing.build_seconds,
                timing.solve_seconds,
                timing.total_seconds,
            )
        )
    return format_table(
        ["keywords", "algorithm", "cache", "build_s", "solve_s", "total_s"],
        rows,
        title or "per-query timings",
    )
