"""Admissible upper bounds over the columnar index's per-cell aggregates.

The bound subsystem lets consumers *skip* work — windows with no score mass,
search branches that cannot beat an incumbent, edges whose endpoints carry no
scaled weight — without ever changing the arithmetic of the work that is kept.
Every bound here is **admissible**: it is greater than or equal to the true best
achievable value it bounds, for every query, so a skip licensed by a bound can
never remove a result the unpruned references (the twins of
:mod:`repro.core.reference` and the scorer weight source) would have produced.
The parity suite (``tests/core/test_pruning_parity.py``) checks the end-to-end
consequence — results byte-identical to those references' — and
``tests/core/test_bounds.py`` checks admissibility of the bounds themselves on
randomized instances.

Construction of the aggregate lives in
:func:`repro.textindex.columnar._bound_aggregate_arrays` (build time, persisted
in ``scoring.npz``); this module only reads it. One per-cell aggregate exists
per scoring mode: ``cell_sigma_mass``, the Σ of guarded per-object potentials
by *object* cell, which bounds the total σ-mass any query can collect from
objects located in a cell.

The aggregate is non-negative, so sums of cell values over a covering cell
range are computed as plain block sums — never as subtractions of prefix sums,
which could cancel catastrophically and produce a spuriously small
(inadmissible) bound. A covering range may over-include geometry near cell
boundaries; over-inclusion only raises the bound, which is safe.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import IndexError_
from repro.network.subgraph import Rectangle
from repro.textindex.columnar import BOUND_MODES, ColumnarScoringIndex


class UpperBoundIndex:
    """Read-only view over one scoring mode's cell aggregates, exposing bounds.

    Use :meth:`from_columnar` to construct one; :class:`WeightPipeline
    <repro.textindex.columnar.WeightPipeline>` caches an instance per pipeline
    under its ``bounds`` property.
    """

    def __init__(
        self,
        resolution: int,
        min_x: float,
        min_y: float,
        cell_w: float,
        cell_h: float,
        sigma_mass: np.ndarray,
    ) -> None:
        self.resolution = int(resolution)
        self.min_x = float(min_x)
        self.min_y = float(min_y)
        self.cell_w = float(cell_w)
        self.cell_h = float(cell_h)
        shape = (self.resolution, self.resolution)
        self.sigma_mass = np.asarray(sigma_mass).reshape(shape)

    @classmethod
    def from_columnar(cls, index: ColumnarScoringIndex, mode) -> "UpperBoundIndex":
        """Build the bound view for ``mode`` from an index's persisted aggregates."""
        mode_value = getattr(mode, "value", mode)
        try:
            row = BOUND_MODES.index(mode_value)
        except ValueError:
            raise IndexError_(
                f"no bound aggregates for scoring mode {mode_value!r}; "
                f"expected one of {BOUND_MODES}"
            ) from None
        meta = np.asarray(index.bound_meta, dtype=np.float64)
        return cls(
            resolution=int(meta[0]),
            min_x=float(meta[1]),
            min_y=float(meta[2]),
            cell_w=float(meta[3]),
            cell_h=float(meta[4]),
            sigma_mass=index.cell_sigma_mass[row],
        )

    # ------------------------------------------------------------------ geometry
    def cell_span(
        self, min_x: float, min_y: float, max_x: float, max_y: float
    ) -> Tuple[int, int, int, int]:
        """Return the clamped ``(r0, r1, c0, c1)`` cell range covering a rectangle.

        The range is a *superset* of the cells any covered point can land in:
        the clamping mirrors the build-time ``np.clip``, which folds
        out-of-extent geometry into the border cells, so block aggregates over
        the span are admissible. The bounds, the sampler's strata and the
        σ_v window kernel (:meth:`WeightPipeline._cell_bands
        <repro.textindex.columnar.WeightPipeline._cell_bands>`) all take their
        cells from here.
        """
        last = self.resolution - 1
        c0 = min(max(int((min_x - self.min_x) / self.cell_w), 0), last)
        c1 = min(max(int((max_x - self.min_x) / self.cell_w), 0), last)
        r0 = min(max(int((min_y - self.min_y) / self.cell_h), 0), last)
        r1 = min(max(int((max_y - self.min_y) / self.cell_h), 0), last)
        return r0, r1, c0, c1

    # ------------------------------------------------------------------ bounds
    def window_mass_bound(self, window: Rectangle) -> float:
        """Upper bound on the total σ-mass of objects inside ``window``.

        A direct block sum of non-negative cell masses over the covering cell
        range — in particular it is exactly ``0.0`` iff every covered cell holds
        only zero-potential objects, which licences the instance builder's
        zero-mass window skip.
        """
        r0, r1, c0, c1 = self.cell_span(
            window.min_x, window.min_y, window.max_x, window.max_y
        )
        return float(self.sigma_mass[r0 : r1 + 1, c0 : c1 + 1].sum())
