"""The package's public names: exactly these, each bound, none listed twice."""

import jdmkit

PUBLIC = [
    "AutocorrelationResult", "Bipartite", "CandidateState", "ChainRunner",
    "ClassAverages", "ConfigCensus", "ConfigModel", "Configuration",
    "FileFormatError", "GraphError", "GraphicalityReport", "Jdm",
    "LabeledGraph", "MetagraphReport", "MultiGraphRealization",
    "NotGraphicalError", "NotRealizationError", "Rso", "SwapError",
    "SwapSequence", "Violation", "__version__", "all_spectra", "apply_rso",
    "autocorrelation", "aux_bipartite", "balance", "balance_step",
    "bipartite_swap_path", "build_model", "chain_a_step", "chain_b_step",
    "check_graphical", "class_averages", "construct_realization",
    "degree_spectrum", "delete_vertex", "deviation", "dumps_graph",
    "dumps_jdm", "dumps_multigraph", "dumps_trace", "embed_realization",
    "enumerate_configurations", "enumerate_realizations", "extract_jdm",
    "imbalance", "initial_candidate", "lift_aux_swap", "load_graph",
    "load_jdm", "load_trace", "loads_graph", "loads_jdm", "loads_trace",
    "metagraph_connected", "psi_descent_step", "rso_path", "run",
    "save_graph", "save_jdm", "save_trace", "simple_fiber_size",
    "simple_swap_path", "spectrum_align", "to_multigraph",
    "uniform_configuration", "vertex_counts",
]


def test_public_names_are_pinned():
    assert len(PUBLIC) == 68
    assert sorted(jdmkit.__all__) == PUBLIC


def test_public_names_resolve_once():
    assert len(set(jdmkit.__all__)) == len(jdmkit.__all__)
    for name in jdmkit.__all__:
        assert hasattr(jdmkit, name), name
