"""The package's public names: exactly these, each bound, none listed twice."""

import ast
import pathlib
import sys

import pytest

import jdmkit
from jdmkit.core import Jdm
from jdmkit.fileio import save_graph, save_jdm

PUBLIC = [
    "AutocorrelationResult", "Bipartite", "CandidateState", "ChainRunner",
    "ClassAverages", "ConfigCensus", "ConfigModel", "Configuration",
    "FileFormatError", "GraphError", "GraphicalityReport", "Jdm",
    "LabeledGraph", "MetagraphReport", "MultiGraphRealization",
    "NotGraphicalError", "NotRealizationError", "Rso", "SwapError",
    "SwapSequence", "Violation", "__version__", "apply_rso",
    "autocorrelation", "aux_bipartite", "balance", "bipartite_swap_path",
    "build_model", "chain_a_step", "check_graphical", "class_averages",
    "construct_realization", "delete_vertex", "deviation", "dumps_graph",
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
    assert len(PUBLIC) == 64
    assert sorted(jdmkit.__all__) == PUBLIC


def test_public_names_resolve_once():
    assert len(set(jdmkit.__all__)) == len(jdmkit.__all__)
    for name in jdmkit.__all__:
        assert hasattr(jdmkit, name), name
    assert set(jdmkit.__all__) <= set(dir(jdmkit))
    # Each name is the object its defining module lists, never a module of
    # the same name: `balance` is the function, not jdmkit.balance.
    modules = ("core", "fileio", "graphic", "balance", "transform", "sampler", "oracle")
    owners = {
        name: sys.modules[f"jdmkit.{module}"]
        for module in modules
        for name in sys.modules[f"jdmkit.{module}"].__all__
    }
    assert owners.keys() == set(jdmkit.__all__) - {"__version__", "run"}
    for name, owner in owners.items():
        assert getattr(jdmkit, name) is getattr(owner, name), name
    assert jdmkit.balance is sys.modules["jdmkit.balance"].balance


# Prints, after `import jdmkit.cli` and again after running the command in
# argv (if any), which deferred modules have run.  A module that has run
# holds its __all__; reading its __dict__ through object.__getattribute__
# does not make it run.
LOADED = """
import contextlib, io, sys
import jdmkit.cli

def loaded():
    return sorted(
        name for name in ("graphic", "oracle", "sampler", "transform")
        if "__all__" in object.__getattribute__(sys.modules["jdmkit." + name], "__dict__")
    )

print(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    code = jdmkit.cli.run(sys.argv[1:]) if sys.argv[1:] else 0
print(code, loaded())
"""


@pytest.mark.parametrize(
    "command, expected",
    [
        ([], []),
        (["check", "m.txt"], ["graphic"]),
        (["extract", "g.txt"], []),
        (["path", "g.txt", "h.txt", "--out", "t.txt"], ["transform"]),
        (["enumerate", "m.txt"], ["oracle", "sampler"]),
        (["sample", "m.txt", "--chain", "a", "--steps", "10", "--seed", "1"], ["sampler"]),
    ],
)
def test_a_cold_process_runs_only_what_its_command_uses(
    tmp_path, python_run, six_cycle, two_triangles, command, expected
):
    save_jdm(Jdm([[0, 0], [0, 6]]), str(tmp_path / "m.txt"))
    save_graph(six_cycle, str(tmp_path / "g.txt"))
    save_graph(two_triangles, str(tmp_path / "h.txt"))
    proc = python_run(["-c", LOADED, *command], cwd=tmp_path, check=True)
    assert proc.stdout.splitlines() == ["[]", f"0 {expected}"]


def test_a_cold_import_does_not_load_dataclasses(python_run):
    # Every command pays the eager modules' imports; dataclasses alone costs
    # several milliseconds, most of it the inspect module it imports.
    script = "import sys, jdmkit.cli; print('dataclasses' in sys.modules)"
    assert python_run(["-c", script], check=True).stdout == "False\n"


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


def unreferenced_definitions():
    """(file, node) for every module-level function or class and every method,
    dunders aside, that nothing in the package references outside its own
    definition.  A reference is a name, an attribute or an imported name;
    __all__'s strings are not references."""
    defs, refs = [], []
    for path in sorted(pathlib.Path(jdmkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            inner = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node, *inner]:
                if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and not (
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
    return [
        (name, d)
        for name, d in defs
        if not any(
            ref == d.name and not (file == name and d.lineno <= line <= d.end_lineno)
            for file, line, ref in refs
        )
    ]


def test_package_has_no_unused_private_code():
    # Every module-level _name function or class and every non-dunder _name
    # method is referenced somewhere in the package outside its own definition.
    unused = [f"{name}:{d.lineno} {d.name}" for name, d in unreferenced_definitions()
              if d.name.startswith("_")]
    assert unused == []


# The public functions, classes and methods that nothing in the package
# calls, each with the reason it stays.  A public name whose whole job
# another public call already does is retired instead.
KEEP = {
    # Fixed acceptance criteria import these.
    "chain_a_step": "acceptance criterion 7 steps chain a through it",
    "class_averages": "acceptance criterion 6 reads the forced class averages through it",
    "delete_vertex": "acceptance criterion 2 deletes a vertex through it",
    "apply_rso": "acceptance criteria 5 and 6 replay swaps one at a time through it",
    "metagraph_connected": "acceptance criterion 5 checks swap connectivity through it",
    # Steps and quantities of the paper; the benchmark names several layers after them.
    "aux_bipartite": "the paper's auxiliary bipartite graph of a balanced class",
    "lift_aux_swap": "the paper's lift of a side-graph swap to a swap on the graph",
    "spectrum_align": "the paper's spectrum-alignment step",
    "bipartite_swap_path": "the paper's side-respecting swap sequence",
    "simple_swap_path": "the paper's ordinary swap sequence between equal degree sequences",
    "deviation": "the paper's per-vertex, per-class deviation from the class average",
    # Capabilities with no other route.
    "load_trace": "the inverse of save_trace",
    "dumps_multigraph": "the only serializer of a sampled multigraph",
    "simple_fiber_size": "the constant configuration count behind chain b's uniformity",
    "neighbors": "LabeledGraph's adjacency read, which the benchmark uses",
}


def test_public_names_without_a_caller_are_kept_for_a_reason():
    uncalled = {d.name for _, d in unreferenced_definitions() if not d.name.startswith("_")}
    assert uncalled == set(KEEP)


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
