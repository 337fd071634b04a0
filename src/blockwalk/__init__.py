"""Block-model graphs, their hitting-time encodings, and the folding curve.

The package exports the paper's constructions; the types they return, the
path-algebra primitives and the checks of ``blockwalk.validate`` are
imported from their modules.
"""

from .curve import (
    CurveAssumptionError,
    build_curve,
    composed_processes,
    encode_components,
    level_hit_times,
)
from .field import (
    build_field,
    field_exploration,
    field_from_jumps,
    hitting_process,
    hitting_time,
    sample_clocks,
)
from .model import BlockModel, connected_components, factor_kernel, graph_exploration, sample_graph
from .paths import PiecewisePath, compose, excursions, generalized_inverse, polyline, smooth_compose

__version__ = "0.1.0"
