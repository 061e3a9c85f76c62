"""Property tests: the fast code against exhaustive search, networkx and itself.

Examples are derandomized, so every run draws the same cases.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from jdmkit.core import Jdm, LabeledGraph, SwapError, Rso, apply_rso, extract_jdm, vertex_counts  # noqa: E402
from jdmkit.fileio import FileFormatError, loads_graph, loads_jdm, loads_trace  # noqa: E402
from jdmkit.graphic import check_graphical, construct_realization  # noqa: E402
from jdmkit.oracle import enumerate_realizations  # noqa: E402
from jdmkit.transform import rso_path  # noqa: E402

fixed = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def matrices(draw, max_k=4, max_entry=4):
    """Symmetric non-negative k x k matrices with small entries."""
    k = draw(st.integers(1, max_k))
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        for l in range(i, k):
            rows[i][l] = rows[l][i] = draw(st.integers(0, max_entry))
    return Jdm(rows)


@st.composite
def graphs(draw, max_n=9):
    """Realizations: random edge sets over 0..n-1, each vertex of its degree."""
    n = draw(st.integers(2, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    assume(any(keep))
    return LabeledGraph.from_edges([e for e, kept in zip(pairs, keep) if kept])


@fixed
@given(st.one_of(matrices(max_k=3, max_entry=2), graphs(max_n=8).map(extract_jdm)))
def test_check_graphical_agrees_with_exhaustive_search(j):
    assume(sum(vertex_counts(j)) <= 8)
    assert check_graphical(j).verdict == bool(enumerate_realizations(j, first_only=True))


def test_check_graphical_agrees_with_networkx():
    nx = pytest.importorskip("networkx")

    @fixed
    @given(matrices(max_k=5, max_entry=6))
    def agree(j):
        # networkx keys rows by degree and counts a within-class edge twice.
        joint = {
            i: {l: (2 if i == l else 1) * j.entry(i, l) for l in range(1, j.k + 1)}
            for i in range(1, j.k + 1)
        }
        assert check_graphical(j).verdict == nx.is_valid_joint_degree(joint)

    agree()


@fixed
@given(graphs(max_n=12))
def test_construct_round_trips_through_extract(g):
    j = extract_jdm(g)
    out = construct_realization(j)
    assert out.is_realization()
    assert extract_jdm(out) == j


def rso_walk(g, rnd, steps):
    """g after up to `steps` random restricted swaps, drawn and applied plainly."""
    part = g.partition()
    for _ in range(steps):
        a, c = rnd.choice(g.edges())
        if rnd.random() < 0.5:
            a, c = c, a
        b = rnd.choice(part[g.class_of(a)])
        if not g.neighbors(b):
            continue
        d = rnd.choice(g.neighbors(b))
        try:
            g = apply_rso(g, Rso(a, b, c, d, g.class_of(a)))
        except SwapError:
            continue
    return g


@fixed
@given(graphs(max_n=10), st.randoms(use_true_random=False), st.integers(0, 200))
def test_rso_path_replays_exactly(g, rnd, steps):
    h = rso_walk(g, rnd, steps)
    assert extract_jdm(h) == extract_jdm(g)
    seq = rso_path(g, h)
    assert seq.replay(g) == h


def int_lines(width=None, count=None):
    """Lines of small integers, `width` per line and `count` lines when given."""
    def sized(n):
        return {"max_size": 6} if n is None else {"min_size": n, "max_size": n}

    row = st.lists(st.integers(-1, 6), **sized(width)).map(lambda r: " ".join(map(str, r)))
    return st.lists(row, **sized(count))


@st.composite
def shaped_texts(draw):
    """Headers that agree with their bodies, so parsing reaches the values."""
    kind = draw(st.sampled_from(["graph", "jdm", "trace"]))
    if kind == "graph":
        edges = draw(int_lines(2))
        return "\n".join([f"{draw(st.integers(0, 8))} {len(edges)}"] + edges)
    if kind == "jdm":
        k = draw(st.integers(0, 4))
        return "\n".join([str(k)] + draw(int_lines(k, k)))
    return "\n".join(draw(int_lines(5)))


texts = st.one_of(
    st.text(max_size=40),
    st.text(" \n\t-0123456789x", max_size=40),
    int_lines().map("\n".join),
    shaped_texts(),
)


@fixed
@given(texts)
def test_parsers_raise_only_file_format_errors(text):
    for parse in (loads_graph, loads_jdm, loads_trace):
        try:
            parse(text)
        except FileFormatError:
            pass
