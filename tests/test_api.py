"""The package's public names: exactly these, each bound, none listed twice."""

import ast
import pathlib

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


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so every check in the package is
    # an explicit raise.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(pathlib.Path(jdmkit.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def imported_names(tree):
    """(name, line) for every name an import binds; star imports and
    __future__ imports bind none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                if alias.name != "*":
                    yield (alias.asname or alias.name).partition(".")[0], node.lineno


def used_names(tree):
    """Every name read as a Name node or listed as a string in __all__."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                c.value
                for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            )
    return used


def test_package_has_no_unused_imports():
    # A name imported but never read is dead code; __init__.py's names are
    # read through its __all__.
    found = []
    for path in sorted(pathlib.Path(jdmkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = used_names(tree)
        found += [
            f"{path.name}:{line} {name}" for name, line in imported_names(tree) if name not in used
        ]
    assert found == []


def test_package_has_no_unused_private_code():
    # Every module-level _name function or class and every non-dunder _name
    # method is referenced somewhere in the package outside its own definition.
    defs, refs = [], []
    for path in sorted(pathlib.Path(jdmkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            inner = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node, *inner]:
                if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and d.name.startswith("_") and not (
                    d.name.startswith("__") and d.name.endswith("__")
                ):
                    defs.append((path.name, d))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((path.name, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((path.name, node.lineno, node.attr))
            elif isinstance(node, ast.alias):
                refs.append((path.name, node.lineno, node.name))
    unused = [
        f"{name}:{d.lineno} {d.name}"
        for name, d in defs
        if not any(
            ref == d.name and not (file == name and d.lineno <= line <= d.end_lineno)
            for file, line, ref in refs
        )
    ]
    assert unused == []


def test_unchecked_constructors_state_their_proof():
    # LabeledGraph._proved and Jdm._counted build without checking, so each
    # use states on the line above it why its input already holds.
    uses, missing = [], []
    for path in sorted(pathlib.Path(jdmkit.__file__).parent.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and node.attr in ("_proved", "_counted"):
                uses.append(node.attr)
                if not lines[node.lineno - 2].strip().startswith("# proof:"):
                    missing.append(f"{path.name}:{node.lineno} {node.attr}")
    assert set(uses) == {"_proved", "_counted"}
    assert missing == []
