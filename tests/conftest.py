"""Shared fixtures: small hand-checked graphs used across the suite, matrix
and graph generators shared by several tests, and subprocess runners for
checks that need a fresh interpreter."""

import importlib.util
import itertools
import os
import subprocess
import sys

import pytest

import jdmkit
from jdmkit.core import Jdm, LabeledGraph


@pytest.fixture
def python_run():
    """Run this interpreter on args in a subprocess against this jdmkit."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(jdmkit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(args, **kwargs):
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, **kwargs)

    return run


@pytest.fixture
def optimized_stdout(python_run):
    """Standard output of script run under python -O against this jdmkit."""
    return lambda script: python_run(["-O", "-c", script], check=True).stdout


@pytest.fixture
def symmetric_matrices():
    """Every symmetric k x k matrix with entries 0..max_entry, as Jdm."""

    def generate(k, max_entry):
        cells = [(i, l) for i in range(k) for l in range(i, k)]
        for values in itertools.product(range(max_entry + 1), repeat=len(cells)):
            rows = [[0] * k for _ in range(k)]
            for (i, l), val in zip(cells, values):
                rows[i][l] = rows[l][i] = val
            yield Jdm(rows)

    return generate


@pytest.fixture
def sparse_gnm():
    """tools/construct_scaling.py's sparse G(n, 8/n) generator, so that the
    fingerprints the tests pin and the ones the tool prints come from one copy."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "tools", "construct_scaling.py")
    spec = importlib.util.spec_from_file_location("construct_scaling", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.sparse_gnm


@pytest.fixture
def six_cycle():
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)]
    return LabeledGraph.from_edges(edges)


@pytest.fixture
def two_triangles():
    edges = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]
    return LabeledGraph.from_edges(edges)


@pytest.fixture
def pendant():
    # Three class-1 leaves hanging off a class-3 core on {3..7}; class 3 is
    # unbalanced (vertex 3 carries two leaves, vertex 5 none).
    edges = [
        (3, 0), (3, 1), (4, 2),
        (3, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
    ]
    return LabeledGraph.from_edges(edges)
