"""difflab: continuous-time information-diffusion models on directed graphs.

Simulation, exact likelihood evaluation, iterative maximum-likelihood
parameter learning, hold-out model selection, and influence-degree ranking
for two contrasting diffusion mechanisms: a push-style independent-cascade
model and a pull-style linear-threshold model, both with asynchronous
exponential delays.

Diagnostics (e.g. a fit stopped at its iteration cap) go to the ``difflab``
logger, which has a ``NullHandler``: nothing is printed unless the
application configures logging.
"""

import logging as _logging

__version__ = "0.1.0"

_logging.getLogger(__name__).addHandler(_logging.NullHandler())

from .cascade import (Cascade, CascadeSet, dumps_cascades, effective_parents,
                      loads_cascades, read_cascades, write_cascades)
from .centrality import (RankedList, centrality, rank_by_score,
                         ranking_similarity)
from .em import (EmConfig, EmTrace, fit, fit_batch, load_params, loglik,
                 param_error, save_params)
from .errors import (CascadeError, DiffLabError, EdgeListParseError,
                     EstimationError, GraphValidationError,
                     InsufficientDataError, ParameterError,
                     SimulationProgressError)
from .graph import (DirectedGraph, dumps_edge_list, erdos_renyi,
                    load_edge_list, mean_out_degree, preferential_attachment)
from .influence import (CumulativeInfluence, InfluenceTable,
                        cumulative_influence, influence_direct_mc,
                        influence_percolation)
from .likelihood import (h_asic, h_aslt, x_density_asic, x_density_aslt,
                         y_survival_asic)
from .params import (PER_LINK, SHARED, AsicParams, AsltParams, DelayMode,
                     link_array)
from .select import (ObservationPeriods, SelectionReport,
                     build_observation_periods, select_model, select_topics)
from .simulate import generate_training_set, simulate_asic, simulate_aslt

__all__ = [name for name in dir() if not name.startswith("_")]
