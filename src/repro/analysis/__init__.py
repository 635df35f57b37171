"""Presentation helpers: plain-text tables, ASCII renderings and plan
load profiles (:mod:`repro.analysis.loads`).

Measurement lives in :mod:`repro.api`: ``RunReport.ratio``/``goodput``,
fanned out by ``run_batch``.
"""

from repro.analysis.tables import format_table
from repro.analysis.viz import (
    render_sketch_loads,
    render_spacetime,
    render_tile_quadrants,
)

__all__ = [
    "format_table",
    "render_sketch_loads",
    "render_spacetime",
    "render_tile_quadrants",
]
