"""Text round trips and line-numbered format diagnostics."""

import random

import pytest

from jdmkit.core import Jdm, LabeledGraph, NotRealizationError, Rso
from jdmkit.fileio import (
    FileFormatError,
    dumps_graph,
    dumps_jdm,
    dumps_multigraph,
    dumps_trace,
    load_graph,
    load_jdm,
    load_trace,
    loads_graph,
    loads_jdm,
    loads_trace,
    save_graph,
    save_jdm,
    save_trace,
)
from jdmkit.sampler import Configuration, build_model, to_multigraph


class TestGraphFormat:
    def test_dumps_layout(self, six_cycle):
        text = dumps_graph(six_cycle)
        assert text == "6 6\n1 2\n1 6\n2 3\n3 4\n4 5\n5 6\n"

    def test_round_trip(self, six_cycle, two_triangles, pendant):
        for g in (six_cycle, two_triangles, pendant):
            assert loads_graph(dumps_graph(g)) == g
            # Blank lines between edge lines are skipped.
            assert loads_graph(dumps_graph(g).replace("\n", "\n\n")) == g

    def test_file_round_trip(self, pendant, tmp_path):
        path = str(tmp_path / "g.txt")
        save_graph(pendant, path)
        assert load_graph(path) == pendant

    def test_dumps_requires_realization(self):
        g = LabeledGraph(edges=[(0, 1)], classes={0: 1, 1: 2})
        with pytest.raises(NotRealizationError, match="round-trip"):
            dumps_graph(g)

    def test_random_round_trips(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randrange(3, 9)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ]
            if not edges:
                continue
            g = LabeledGraph.from_edges(edges)
            assert loads_graph(dumps_graph(g)) == g

    @pytest.mark.parametrize(
        "text,message,line",
        [
            ("", "missing `n m` header", 1),
            ("\n1 2\n", "missing `n m` header", 1),
            ("2 x\n", "expected integers", 1),
            ("2\n", "expected 2 integers", 1),
            ("-1 0\n", "must be non-negative", 1),
            ("2 1\n", "expected 1 edge lines", 1),
            ("2 1\n1 1\n", "loop 1 1 not allowed", 2),
            ("2 1\n-1 2\n", "labels must be non-negative", 2),
            ("2 2\n1 2\n2 1\n", "duplicate edge 2 1", 3),
            ("3 1\n1 2\n", "header says 3 vertices but edges name 2", 1),
            ("3 1\n1 2 3\n", "expected 2 integers, got '1 2 3'", 2),
            ("3 1\nx 2 3\n", "expected 2 integers, got 'x 2 3'", 2),
            ("2 1\n1 x\n", "expected integers, got '1 x'", 2),
            ("2 1\n1\t2\t3\n", "expected 2 integers, got '1\\t2\\t3'", 2),
            ("2 1\n1 y  \n", "expected integers, got '1 y  '", 2),
            ("3 2\n1 2\n\n\n2 2\n", "loop 2 2 not allowed", 5),
            ("3 2\n1 2\n  \n1 3 4\n", "expected 2 integers, got '1 3 4'", 4),
            ("3 1\n0 1\n\n1 2\n", "expected 1 edge lines", 4),
            ("2 2\n1 x\n", "expected 2 edge lines", 2),
        ],
    )
    def test_load_diagnostics(self, text, message, line):
        with pytest.raises(FileFormatError) as err:
            loads_graph(text)
        assert message in str(err.value)
        assert err.value.line == line
        assert str(err.value).startswith(f"line {line}:")

    @pytest.mark.parametrize(
        "text", ["3 2\n0\t1\n1 2  \n", "3 2\n\n0 1\n\t\n1 2\n\n", " 3 2 \n 1  2\n0 1\n"]
    )
    def test_edge_lines_split_on_any_whitespace(self, text):
        assert loads_graph(text) == LabeledGraph.from_edges([(0, 1), (1, 2)])


class TestJdmFormat:
    def test_dumps_layout(self):
        assert dumps_jdm(Jdm([[0, 2], [2, 2]])) == "2\n0 2\n2 2\n"

    def test_round_trip(self, tmp_path):
        j = Jdm([[0, 0, 3], [0, 0, 0], [3, 0, 6]])
        assert loads_jdm(dumps_jdm(j)) == j
        path = str(tmp_path / "j.txt")
        save_jdm(j, path)
        assert load_jdm(path) == j

    def test_header_and_row_diagnostics(self):
        with pytest.raises(FileFormatError, match="missing matrix size"):
            loads_jdm("")
        with pytest.raises(FileFormatError, match="matrix size must be non-negative"):
            loads_jdm("-1\n")
        with pytest.raises(FileFormatError, match="expected 2 matrix rows"):
            loads_jdm("2\n0 1\n")
        with pytest.raises(FileFormatError, match="expected 2 integers"):
            loads_jdm("2\n0\n0 0\n")

    def test_matrix_errors_become_format_errors(self):
        with pytest.raises(FileFormatError, match="symmetric"):
            loads_jdm("2\n0 1\n2 0\n")
        with pytest.raises(FileFormatError, match="non-negative"):
            loads_jdm("1\n-3\n")


class TestTraceFormat:
    def test_round_trip(self, tmp_path):
        swaps = [Rso(1, 4, 2, 5, pivot_class=2), Rso(4, 1, 2, 5, pivot_class=2)]
        text = dumps_trace(swaps)
        assert text == "1 4 2 5 2\n4 1 2 5 2\n"
        assert loads_trace(text) == swaps
        path = str(tmp_path / "t.txt")
        save_trace(swaps, path)
        assert load_trace(path) == swaps

    def test_empty_trace(self):
        assert dumps_trace([]) == ""
        assert loads_trace("") == []
        assert loads_trace("\n\n") == []

    def test_malformed_line(self):
        with pytest.raises(FileFormatError, match="expected 5 integers"):
            loads_trace("1 2 3 4\n")


class TestMultigraphFormat:
    def test_loops_and_multiplicities(self):
        model = build_model(Jdm([[0, 0], [0, 3]]))
        mg = to_multigraph(Configuration(model=model, match=(tuple(range(6)),)))
        text = dumps_multigraph(mg)
        assert text == "3 3\n0 0\n1 1\n2 2\n"

    def test_parallel_edges_repeat(self):
        model = build_model(Jdm([[0, 0], [0, 3]]))
        # find some matching with a double edge
        import itertools

        for perm in itertools.permutations(range(6)):
            mg = to_multigraph(Configuration(model=model, match=(perm,)))
            if 2 in mg.pair_counts.values():
                break
        else:
            pytest.fail("no double edge found")
        text = dumps_multigraph(mg)
        lines = text.splitlines()
        assert lines[0] == "3 3"
        assert len(lines) == 4
        assert len(set(lines[1:])) == 2  # the doubled line appears twice
