"""The public surface: every name in ``difflab.__all__`` and the parameter
names of each exported function and constructor.  A new option or entry
point shows up here as an edit to ``API``."""

import inspect

import difflab

# name -> its parameter names, or None for a name without a signature of
# its own (a constant, a submodule, an enum or a plain exception class).
# Dotted names are alternative constructors, which ``__all__`` does not list.
API = {
    "AsicParams": "mode strength r",
    "AsicParams.shared": "strength r",
    "AsicParams.per_link": "g strength r",
    "AsltParams": "mode strength r",
    "AsltParams.shared": "strength r",
    "AsltParams.per_link": "g strength r",
    "Cascade": "events horizon",
    "CascadeError": None,
    "CascadeSet": "cascades ids topics",
    "CumulativeInfluence": "sigma",
    "DelayMode": None,
    "DiffLabError": None,
    "DirectedGraph": "node_count edges labels duplicate_count",
    "EdgeListParseError": "message line_number",
    "EmConfig": "init_p init_q init_r tolerance max_iterations mode",
    "EmTrace": "loglik converged iterations untouched_links",
    "EstimationError": None,
    "GraphValidationError": None,
    "InfluenceTable": "sigma stderr samples method model mean_stderr",
    "InsufficientDataError": None,
    "ObservationPeriods": "cutoffs tau0",
    "PER_LINK": None,
    "ParameterError": None,
    "RankedList": "order scores",
    "SHARED": None,
    "SelectionReport": ("topic score_asic score_aslt j chosen indeterminate "
                        "cutoffs skipped capped"),
    "SimulationProgressError": None,
    "build_observation_periods": "data",
    "cascade": None,
    "centrality": "g metric",
    "cumulative_influence": "table",
    "dumps_cascades": "cs",
    "dumps_edge_list": "g",
    "effective_parents": "g c v",
    "em": None,
    "erdos_renyi": "n p_edge seed",
    "errors": None,
    "fit": "model g data config horizon_mode",
    "fit_batch": "model g problems config starts horizon_mode",
    "generate_training_set": ("g params model delay target_active min_len "
                              "rng_seed max_attempts horizon_margin"),
    "graph": None,
    "h_asic": "c g params delay v",
    "h_aslt": "c g params delay v",
    "influence": None,
    "influence_direct_mc": "g model params delay samples rng_seed threads",
    "influence_percolation": "g model params samples rng_seed threads",
    "likelihood": None,
    "link_array": "g name values",
    "load_edge_list": "text",
    "load_params": "path g",
    "loads_cascades": "text",
    "loglik": "model g params data horizon_mode",
    "mean_out_degree": "g",
    "param_error": "estimate truth",
    "params": None,
    "preferential_attachment": "n m seed",
    "rank_by_score": "scores",
    "ranking_similarity": "truth candidate k",
    "read_cascades": "path",
    "rng": None,
    "save_params": "path model params g iterations loglik_value",
    "select": None,
    "select_model": "g data em_config topic",
    "select_topics": "g topics em_config",
    "simulate": None,
    "simulate_asic": ("g params delay seeds rng_seed horizon_margin "
                      "attempt_log"),
    "simulate_aslt": "g params delay seeds rng_seed horizon_margin",
    "write_cascades": "path cs",
    "x_density_asic": "p r dt",
    "x_density_aslt": "q r dt",
    "y_survival_asic": "p r dt",
}


def test_exported_names():
    assert sorted(difflab.__all__) == sorted(n for n in API if "." not in n)


def test_parameter_names():
    pinned = {name: names for name, names in API.items() if names}
    got = {}
    for name in pinned:
        obj = difflab
        for part in name.split("."):
            obj = getattr(obj, part)
        got[name] = " ".join(inspect.signature(obj).parameters)
    assert got == pinned
