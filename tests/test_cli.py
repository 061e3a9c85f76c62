"""Command flows: exit codes, JSON determinism, and file side effects."""

import hashlib
import itertools
import json
import random

import pytest

from jdmkit.cli import run
from jdmkit.core import Jdm, LabeledGraph, apply_rso, extract_jdm
from jdmkit.fileio import (
    dumps_graph,
    dumps_jdm,
    load_graph,
    load_jdm,
    load_trace,
    save_graph,
    save_jdm,
)
from jdmkit.sampler import (
    ChainRunner,
    Configuration,
    autocorrelation,
    build_model,
    to_multigraph,
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

    def test_negative_max_lag_is_refused(self, jdm_file, capsys):
        argv = ["sample", jdm_file([[0, 0], [0, 3]]), "--chain", "a", "--steps", "20", "--seed", "1"]
        assert run(argv + ["--max-lag", "-4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max-lag >= 0" in captured.err
        # --max-lag 0 asks for no autocorrelation estimate.
        code, payload = run_json(argv + ["--max-lag", "0"], capsys)
        assert code == 0
        assert payload["retained_samples"] == 20
        assert "autocorrelation" not in payload

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

    def test_direct_rejects_save_last(self, jdm_file, tmp_path, capsys):
        last = tmp_path / "last.txt"
        code = run(
            [
                "sample", jdm_file([[0, 0], [0, 3]]),
                "--chain", "direct", "--steps", "5", "--seed", "1",
                "--save-last", str(last),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --save-last only applies to chain a or b\n"
        assert not last.exists()

    def test_direct_refuses_burnin_and_thin(self, jdm_file, capsys):
        argv = [
            "sample", jdm_file([[0, 0], [0, 3]]),
            "--chain", "direct", "--steps", "5", "--seed", "1",
        ]
        for extra in (["--burnin", "100"], ["--thin", "7"]):
            assert run(argv + extra) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: --burnin and --thin only apply to chain a or b\n"
        # The defaults, spelled out, change nothing.
        assert run(argv) == 0
        plain = capsys.readouterr().out
        assert run(argv + ["--burnin", "0", "--thin", "1"]) == 0
        assert capsys.readouterr().out == plain

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

    def test_save_last_refuses_a_non_simple_state(self, jdm_file, tmp_path, capsys):
        # Chain a starts from the identity configuration: three loops here.
        last = tmp_path / "last.txt"
        code = run(
            [
                "sample", jdm_file([[0, 0], [0, 3]]),
                "--chain", "a", "--steps", "0", "--seed", "1",
                "--save-last", str(last),
            ]
        )
        assert code == 1
        assert "final state is not simple; nothing to save" in capsys.readouterr().err
        assert not last.exists()

    @pytest.mark.parametrize("chain", ["a", "b"])
    def test_one_fiber_key_per_request(self, chain, jdm_file, monkeypatch, capsys):
        calls = []
        fiber_key = ChainRunner.fiber_key

        def counted(runner):
            calls.append(runner)
            return fiber_key(runner)

        monkeypatch.setattr(ChainRunner, "fiber_key", counted)
        code, payload = run_json(
            [
                "sample", jdm_file([[0, 2], [2, 2]]),
                "--chain", chain, "--steps", "50", "--seed", "1",
            ],
            capsys,
        )
        assert code == 0
        assert payload["retained_samples"] == 50
        assert len(calls) == 1

    @pytest.mark.parametrize("chain", ["a", "b"])
    @pytest.mark.parametrize("steps, burnin, thin", [(50, 0, 1), (101, 3, 7), (20, 20, 1), (0, 0, 1)])
    def test_one_advance_per_retained_sample(self, chain, steps, burnin, thin, jdm_file, monkeypatch, capsys):
        calls = {"step": 0, "advance": []}
        advance = ChainRunner.advance

        def counted_step(runner):
            calls["step"] += 1

        def counted_advance(runner, k):
            calls["advance"].append(k)
            return advance(runner, k)

        monkeypatch.setattr(ChainRunner, "step", counted_step)
        monkeypatch.setattr(ChainRunner, "advance", counted_advance)
        code, payload = run_json(
            [
                "sample", jdm_file([[0, 2], [2, 2]]),
                "--chain", chain, "--steps", str(steps), "--burnin", str(burnin),
                "--thin", str(thin), "--seed", "1",
            ],
            capsys,
        )
        assert code == 0
        assert calls["step"] == 0
        assert len(calls["advance"]) <= payload["retained_samples"] + 1
        assert sum(calls["advance"]) == steps

    @pytest.mark.parametrize("thin", [4, 9])
    def test_chain_a_with_a_long_thin_counts_its_multigraph_once(self, thin, jdm_file, monkeypatch, capsys):
        # The matrix has 4 edges, so every batch after the first one-step
        # burn-in leaves the multigraph stale: the simple and start checks
        # walk the edge labels up to a limit, and only the constructor walks
        # them with none.
        recounts = []
        walk = ChainRunner._walk

        def counted(runner, cap):
            if cap is None:
                recounts.append(runner)
            return walk(runner, cap)

        monkeypatch.setattr(ChainRunner, "_walk", counted)
        code, payload = run_json(
            [
                "sample", jdm_file([[0, 2], [2, 2]]),
                "--chain", "a", "--steps", str(1 + 60 * thin), "--thin", str(thin), "--seed", "3",
            ],
            capsys,
        )
        assert code == 0
        assert payload["retained_samples"] == 61
        assert 0 < payload["simple_rate"] < 1
        # A series that never returned to the start would be constant, with
        # every correlation beyond lag 0 exactly 0.
        assert any(payload["autocorrelation"]["rho"][1:])
        assert len(recounts) == 1

    @pytest.mark.parametrize(
        "seed, thin",
        # The matrix has 3 edges, so --thin 5 advances chain a in batches that
        # recount the multigraph once each.
        [pytest.param(seed, thin, id=f"{seed}-thin{thin}" if thin > 1 else str(seed))
         for thin in (1, 5) for seed in range(3)],
    )
    def test_series_marks_returns_to_the_start_multigraph(self, seed, thin, jdm_file, capsys):
        # Replay the command's chain from the identity configuration and
        # compare full multigraphs after every step; the command retains
        # every thin-th of them.
        j = Jdm([[0, 0], [0, 3]])
        model = build_model(j)
        identity = Configuration(
            model=model, match=tuple(tuple(range(n)) for n in model.component_sizes())
        )
        start = to_multigraph(identity).fiber_key()
        runner = ChainRunner(model, identity, "a", random.Random(seed))
        series = []
        for _ in range(200):
            runner.step()
            series.append(1.0 if to_multigraph(runner.configuration()).fiber_key() == start else 0.0)
        retained = series[::thin]
        assert 0 < sum(retained) < len(retained)
        max_lag = min(100, len(retained) - 1)
        expected = autocorrelation(retained, max_lag=max_lag)
        code, payload = run_json(
            [
                "sample", jdm_file(j.rows),
                "--chain", "a", "--steps", "200", "--thin", str(thin), "--seed", str(seed),
            ],
            capsys,
        )
        assert code == 0
        assert payload["retained_samples"] == len(retained)
        assert payload["autocorrelation"] == {
            "max_lag": max_lag,
            "integrated_time": expected.integrated_time,
            "rho": list(expected.rho),
        }


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

    @pytest.mark.parametrize(
        "argv, stdout_sha, last_sha",
        [
            pytest.param(
                ["--chain", "a", "--steps", "600", "--thin", "3"],
                "386e39a1cf0685ec4bd7e11a60e56c6c17e0a5df40b88bd74b95d2ff54f67348",
                None,
                id="a-thin3",
            ),
            # --thin 400 is at least the edge count m (210, checked in the
            # test), so chain a advances in batches that recount the multigraph.
            pytest.param(
                ["--chain", "a", "--steps", "4000", "--thin", "400"],
                "a4c8ad62caa49cb7faef3bbce427e02302a3be0dd8a4756c4545fd3769c499c5",
                None,
                id="a-thin400",
            ),
            pytest.param(
                ["--chain", "b", "--steps", "600", "--thin", "1",
                 "--start", "start.txt", "--save-last", "last.txt"],
                "34f13addef3570ed9005cd587203c3b7a7915152f7881677829162336ac449ae",
                "9d3c703ce562cc6850d626051f16c637dfb326a95a9190d451feefb40bc490a2",
                id="b-start-thin1",
            ),
        ],
    )
    def test_golden_bytes(self, argv, stdout_sha, last_sha, tmp_path, monkeypatch, capsys):
        # sha256 pins of the report and the saved last state on a seeded
        # G(60, 8/60).  A change to the values drawn, to the words they take
        # from the generator or to the report's bytes shows here.
        rng = random.Random(60)
        g = LabeledGraph.from_edges(
            (u, v) for u, v in itertools.combinations(range(60), 2) if rng.random() < 8 / 60
        )
        assert g.m <= 400
        monkeypatch.chdir(tmp_path)
        save_jdm(extract_jdm(g), "m.txt")
        save_graph(g, "start.txt")
        assert run(["sample", "m.txt", *argv, "--seed", "11"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == stdout_sha
        if last_sha is not None:
            with open("last.txt", "rb") as f:
                assert hashlib.sha256(f.read()).hexdigest() == last_sha


class TestRepeatedRuns:
    """run builds its parser once per process; no run may see another's options."""

    def test_balance_trace_is_not_carried_over(self, graph_file, pendant, tmp_path, capsys):
        g, out, trace = graph_file(pendant), str(tmp_path / "h.txt"), tmp_path / "t.txt"
        assert run(["balance", g, "--out", out, "--trace", str(trace)]) == 0
        assert trace.exists()
        trace.unlink()
        assert run(["balance", g, "--out", out]) == 0
        assert not trace.exists()

    def test_seed_is_not_carried_over(self, jdm_file, capsys):
        argv = ["sample", jdm_file([[0, 0], [0, 3]]), "--chain", "a", "--steps", "10"]
        assert run(argv + ["--seed", "1"]) == 0
        capsys.readouterr()
        assert run(argv) == 1
        assert "--seed" in capsys.readouterr().err

    def test_usage_error_leaves_the_parser_usable(self, jdm_file, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["check"])
        assert exc.value.code == 2
        assert "usage: jdm check" in capsys.readouterr().err
        code, payload = run_json(["check", jdm_file([[0, 2], [2, 2]])], capsys)
        assert code == 0
        assert payload["graphical"] is True


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "{m}", "--out", "{o}"],
            ["census", "{m}"],
            ["sample", "{m}", "--chain", "a", "--steps", "1", "--seed", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_vertex_total_past_any_list_is_a_domain_error(self, argv, tmp_path, python_run):
        # 10^30 class-1 edges need 2 * 10^30 vertices; labelling refuses them
        # before anything is allocated.
        (tmp_path / "m").write_text("1\n1000000000000000000000000000000\n")
        paths = {name: str(tmp_path / name) for name in ("m", "o")}
        script = "import sys\nfrom jdmkit.cli import run\nsys.exit(run(sys.argv[1:]))\n"
        out = python_run(["-c", script, *(arg.format(**paths) for arg in argv)])
        assert "Traceback" not in out.stderr
        assert (out.returncode, out.stdout, out.stderr) == (
            1, "", f"error: matrix needs {2 * 10**30} vertices, too many to label\n"
        )

    @pytest.mark.parametrize(
        "argv, expected",
        [
            # 2000 class-2 slots make (2000)! configurations, a number too
            # long to print; the census refuses before counting them all.
            (["census", "{m}"], (1, "", "error: the configuration count exceeds the limit of 10000000\n")),
            # The search places a class pair's 1000 edges on an explicit
            # stack, not one call deep per edge, so --max-vertices is its
            # only cap.
            (["enumerate", "{m}", "--first-only", "--max-vertices", "5000"],
             (0, '{\n  "count": 1,\n  "first_only": true,\n  "schema_version": 1\n}\n', "")),
        ],
        ids=["census", "enumerate"],
    )
    def test_a_thousand_vertices_is_a_clean_exit(self, argv, expected, tmp_path, python_run):
        (tmp_path / "m").write_text("2\n0 0\n0 1000\n")
        script = "import sys\nfrom jdmkit.cli import run\nsys.exit(run(sys.argv[1:]))\n"
        out = python_run(["-c", script, *(arg.format(m=tmp_path / "m") for arg in argv)])
        assert (out.returncode, out.stdout, out.stderr) == expected

    def test_python_m_jdmkit_runs_the_cli(self, jdm_file, tmp_path, python_run, capsys):
        matrix = jdm_file([[0, 0], [0, 6]])
        assert run(["check", matrix]) == 0
        expected = capsys.readouterr().out
        out = python_run(["-m", "jdmkit", "check", matrix], cwd=tmp_path)
        assert (out.returncode, out.stdout, out.stderr) == (0, expected, "")

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
