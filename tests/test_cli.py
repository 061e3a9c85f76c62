"""Command flows: exit codes, JSON determinism, and file side effects."""

import json

import pytest

from jdmkit.cli import run
from jdmkit.core import Jdm, apply_rso, extract_jdm
from jdmkit.fileio import (
    dumps_graph,
    dumps_jdm,
    load_graph,
    load_jdm,
    load_trace,
    save_graph,
    save_jdm,
)


def run_json(argv, capsys):
    """Invoke the CLI and decode stdout, asserting byte-exact determinism."""
    code = run(argv)
    text = capsys.readouterr().out
    payload = json.loads(text)
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert payload["schema_version"] == 1
    return code, payload


@pytest.fixture
def jdm_file(tmp_path):
    def write(rows, name="m.txt"):
        path = str(tmp_path / name)
        save_jdm(Jdm(rows), path)
        return path

    return write


@pytest.fixture
def graph_file(tmp_path):
    def write(g, name="g.txt"):
        path = str(tmp_path / name)
        save_graph(g, path)
        return path

    return write


class TestCheck:
    def test_graphical_matrix(self, jdm_file, capsys):
        code, payload = run_json(["check", jdm_file([[0, 2], [2, 2]])], capsys)
        assert code == 0
        assert payload["graphical"] is True
        assert payload["class_count"] == 2
        assert payload["vertex_counts"] == ["2", "3"]
        assert payload["violations"] == []

    def test_non_graphical_matrix(self, jdm_file, capsys):
        code, payload = run_json(["check", jdm_file([[0, 1], [1, 0]])], capsys)
        assert code == 1
        assert payload["graphical"] is False
        assert payload["vertex_counts"] == ["1", "1/2"]
        assert payload["violations"][0]["condition"] == "integrality"

    def test_out_file(self, jdm_file, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        code = run(["check", jdm_file([[0, 0], [0, 3]]), "--out", out])
        assert code == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(open(out).read())
        assert payload["graphical"] is True


class TestConstruct:
    def test_pendant_matrix(self, jdm_file, tmp_path, capsys):
        out = str(tmp_path / "g.txt")
        rows = [[0, 0, 3], [0, 0, 0], [3, 0, 6]]
        code, payload = run_json(
            ["construct", jdm_file(rows), "--out", out], capsys
        )
        assert code == 0
        g = load_graph(out)
        assert g.is_realization()
        assert extract_jdm(g) == Jdm(rows)
        assert payload["vertices"] == 8
        assert payload["edges"] == 9
        assert payload["initial_psi"] % 2 == 0
        assert payload["descent_steps"] * 2 == payload["initial_psi"]
        assert payload["out"] == out

    def test_non_graphical_fails(self, jdm_file, tmp_path, capsys):
        out = str(tmp_path / "g.txt")
        code = run(["construct", jdm_file([[0, 1], [1, 0]]), "--out", out])
        assert code == 1
        assert "not graphical" in capsys.readouterr().err


class TestExtract:
    def test_stdout_is_raw_matrix_text(self, graph_file, six_cycle, capsys):
        code = run(["extract", graph_file(six_cycle)])
        assert code == 0
        assert capsys.readouterr().out == dumps_jdm(Jdm([[0, 0], [0, 6]]))

    def test_out_file(self, graph_file, pendant, tmp_path, capsys):
        out = str(tmp_path / "m.txt")
        code = run(["extract", graph_file(pendant), "--out", out])
        assert code == 0
        assert load_jdm(out) == extract_jdm(pendant)


class TestBalance:
    def test_pendant_flow(self, graph_file, pendant, tmp_path, capsys):
        out = str(tmp_path / "bal.txt")
        trace = str(tmp_path / "trace.txt")
        code, payload = run_json(
            ["balance", graph_file(pendant), "--out", out, "--trace", trace],
            capsys,
        )
        assert code == 0
        assert [3, 2] in payload["imbalance_before"]
        assert all(v == 0 for _, v in payload["imbalance_after"])
        swaps = load_trace(trace)
        assert payload["swaps"] == len(swaps)
        cur = pendant
        for r in swaps:
            cur = apply_rso(cur, r)
        assert cur == load_graph(out)


class TestPath:
    def test_verified_route(
        self, graph_file, six_cycle, two_triangles, tmp_path, capsys
    ):
        out = str(tmp_path / "trace.txt")
        code, payload = run_json(
            [
                "path",
                graph_file(six_cycle, "a.txt"),
                graph_file(two_triangles, "b.txt"),
                "--out", out,
                "--verify",
            ],
            capsys,
        )
        assert code == 0
        assert payload["verified"] is True
        swaps = load_trace(out)
        assert payload["swap_count"] == len(swaps)
        cur = six_cycle
        for r in swaps:
            cur = apply_rso(cur, r)
        assert cur == two_triangles

    def test_incompatible_endpoints(self, graph_file, six_cycle, tmp_path, capsys):
        from jdmkit.core import LabeledGraph

        triangle = LabeledGraph.from_edges([(1, 2), (2, 3), (1, 3)])
        code = run(
            [
                "path",
                graph_file(six_cycle, "a.txt"),
                graph_file(triangle, "b.txt"),
                "--out", str(tmp_path / "t.txt"),
            ]
        )
        assert code == 1
        assert "matrices differ" in capsys.readouterr().err


class TestEnumerate:
    def test_counts_realizations(self, jdm_file, tmp_path, capsys):
        witness = str(tmp_path / "w.txt")
        code, payload = run_json(
            ["enumerate", jdm_file([[0, 0], [0, 6]]), "--witness", witness],
            capsys,
        )
        assert code == 0
        assert payload["count"] == 70
        assert payload["first_only"] is False
        g = load_graph(witness)
        assert extract_jdm(g) == Jdm([[0, 0], [0, 6]])

    def test_first_only(self, jdm_file, capsys):
        code, payload = run_json(
            ["enumerate", jdm_file([[0, 0], [0, 6]]), "--first-only"], capsys
        )
        assert code == 0
        assert payload == {"count": 1, "first_only": True, "schema_version": 1}

    def test_empty_space_exits_one(self, jdm_file, capsys):
        code, payload = run_json(["enumerate", jdm_file([[0, 1], [1, 0]])], capsys)
        assert code == 1
        assert payload["count"] == 0

    def test_vertex_limit(self, jdm_file, capsys):
        code = run(
            ["enumerate", jdm_file([[0, 0], [0, 6]]), "--max-vertices", "5"]
        )
        assert code == 1
        assert "exceeds" in capsys.readouterr().err


class TestCensus:
    def test_triangle_matrix(self, jdm_file, capsys):
        code, payload = run_json(["census", jdm_file([[0, 0], [0, 3]])], capsys)
        assert code == 0
        assert payload["total"] == 720
        assert payload["fiber_sizes"] == [48, 96, 96, 96, 384]
        assert payload["simple_fibers"] == 1
        assert len(payload["fibers"]) == 5
        simple = [f for f in payload["fibers"] if f["simple"]]
        assert simple == [
            {"multigraph": "0-1x1;0-2x1;1-2x1", "count": 384, "simple": True}
        ]

    def test_configuration_limit(self, jdm_file, capsys):
        code = run(
            ["census", jdm_file([[0, 0], [0, 6]]), "--max-configurations", "100"]
        )
        assert code == 1
        assert "exceeds" in capsys.readouterr().err


class TestSample:
    def test_seed_policy(self, jdm_file, capsys):
        code = run(
            ["sample", jdm_file([[0, 0], [0, 3]]), "--chain", "a", "--steps", "10"]
        )
        assert code == 1
        assert "--seed" in capsys.readouterr().err

    def test_parameter_validation(self, jdm_file, capsys):
        code = run(
            [
                "sample", jdm_file([[0, 0], [0, 3]]),
                "--chain", "a", "--steps", "-1", "--seed", "1",
            ]
        )
        assert code == 1
        assert "steps >= 0" in capsys.readouterr().err

    def test_direct_draws_are_reproducible(self, jdm_file, capsys):
        argv = [
            "sample", jdm_file([[0, 0], [0, 3]]),
            "--chain", "direct", "--steps", "60", "--seed", "4",
        ]
        code, first = run_json(argv, capsys)
        assert code == 0
        assert first["draws"] == 60
        assert first["distinct_multigraphs"] <= 5
        assert 0 <= first["simple_rate"] <= 1
        assert sum(t["count"] for t in first["top_multigraphs"]) == 60
        code, second = run_json(argv, capsys)
        assert second == first

    def test_direct_rejects_start(self, jdm_file, graph_file, six_cycle, capsys):
        code = run(
            [
                "sample", jdm_file([[0, 0], [0, 6]]),
                "--chain", "direct", "--steps", "5", "--seed", "1",
                "--start", graph_file(six_cycle),
            ]
        )
        assert code == 1
        assert "--start only applies" in capsys.readouterr().err

    def test_chain_a_reports_correlation(self, jdm_file, capsys):
        code, payload = run_json(
            [
                "sample", jdm_file([[0, 0], [0, 3]]),
                "--chain", "a", "--steps", "200", "--seed", "3",
            ],
            capsys,
        )
        assert code == 0
        assert payload["retained_samples"] == 200
        ac = payload["autocorrelation"]
        assert ac["max_lag"] == 100
        assert len(ac["rho"]) == 101
        assert ac["rho"][0] == 1.0
        assert ac["integrated_time"] >= 1.0

    def test_burnin_and_thin(self, jdm_file, capsys):
        code, payload = run_json(
            [
                "sample", jdm_file([[0, 0], [0, 3]]),
                "--chain", "a", "--steps", "100", "--seed", "2",
                "--burnin", "20", "--thin", "5",
            ],
            capsys,
        )
        assert code == 0
        assert payload["retained_samples"] == 16

    @pytest.mark.parametrize("chain", ["a", "b"])
    def test_edgeless_matrix_holds_every_step(self, chain, jdm_file, capsys):
        code, payload = run_json(
            [
                "sample", jdm_file([[0]]),
                "--chain", chain, "--steps", "10", "--seed", "1",
            ],
            capsys,
        )
        assert code == 0
        assert payload["holds"] == payload["steps"] == 10
        assert payload["rejects"] == 0

    def test_chain_b_stays_simple_and_saves(
        self, jdm_file, graph_file, six_cycle, tmp_path, capsys
    ):
        last = str(tmp_path / "last.txt")
        code, payload = run_json(
            [
                "sample", jdm_file([[0, 0], [0, 6]]),
                "--chain", "b", "--steps", "80", "--seed", "6",
                "--start", graph_file(six_cycle),
                "--save-last", last,
            ],
            capsys,
        )
        assert code == 0
        assert payload["simple_rate"] == 1.0
        assert payload["saved_last"] == last
        g = load_graph(last)
        assert extract_jdm(g) == Jdm([[0, 0], [0, 6]])


    @pytest.mark.parametrize("chain", ["a", "b"])
    def test_start_labelled_out_of_degree_order(self, chain, jdm_file, tmp_path, capsys):
        # The path 0-1 1-2 has its class-2 vertex between the class-1 ones,
        # so labels in sorted order do not give its classes.
        start = tmp_path / "path.txt"
        start.write_text("3 2\n0 1\n1 2\n")
        last = str(tmp_path / "last.txt")
        code, payload = run_json(
            [
                "sample", jdm_file([[0, 2], [2, 0]]),
                "--chain", chain, "--steps", "20", "--seed", "1",
                "--start", str(start), "--save-last", last,
            ],
            capsys,
        )
        assert code == 0
        assert payload["retained_samples"] == 20
        assert load_graph(last).classes() == {0: 1, 1: 2, 2: 1}

    def test_start_of_another_matrix_is_refused(self, jdm_file, graph_file, six_cycle, capsys):
        code = run(
            [
                "sample", jdm_file([[0, 2], [2, 0]]),
                "--chain", "b", "--steps", "5", "--seed", "1",
                "--start", graph_file(six_cycle),
            ]
        )
        assert code == 1
        assert "matrices differ" in capsys.readouterr().err


class TestErrorHandling:
    def test_memory_exhaustion_is_a_clean_exit(self, tmp_path, python_run):
        # 10^8 class-2 vertices: labelling them alone outgrows the 400 MB
        # address space the child process limits itself to.
        pytest.importorskip("resource")
        path = tmp_path / "m.txt"
        path.write_text("2\n0 0\n0 100000000\n")
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (400 * 2**20, 400 * 2**20))\n"
            "from jdmkit.cli import run\n"
            "sys.exit(run(sys.argv[1:]))\n"
        )
        out = python_run(["-c", script, "construct", str(path), "--out", str(tmp_path / "g.txt")])
        assert (out.returncode, out.stdout, out.stderr) == (1, "", "error: out of memory\n")

    def test_missing_file_is_an_io_error(self, capsys):
        assert run(["check", "/nonexistent/matrix.txt"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_matrix_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2\n0 1\n")
        assert run(["check", str(path)]) == 2
        assert "matrix rows" in capsys.readouterr().err

    def test_malformed_graph_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n1 1\n")
        assert run(["extract", str(path)]) == 2
        assert "line 2: loop" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "{m}"],
            ["construct", "{m}", "--out", "{o}"],
            ["extract", "{g}"],
            ["balance", "{g}", "--out", "{o}"],
            ["path", "{g}", "{g}", "--out", "{o}"],
            ["sample", "{m}", "--chain", "a", "--steps", "5", "--seed", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_non_ascii_byte_is_a_parse_error(self, argv, tmp_path, capsys):
        files = {"m": "2\n0 0\n0 6\xe9\n", "g": "3 3\n1 2\n2 3\xe9\n1 3\n"}
        for name, text in files.items():
            (tmp_path / name).write_bytes(text.encode("latin-1"))
        paths = {name: str(tmp_path / name) for name in ("m", "g", "o")}
        assert run([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: line 3: non-ASCII byte 0xe9")
