"""Stub-matching space, exchange chains, and the correlation diagnostic."""

import copy
import itertools
import math
import random
import sys
import textwrap
from fractions import Fraction

import pytest

from jdmkit.core import GraphError, Jdm, LabeledGraph, extract_jdm
from jdmkit.graphic import construct_realization
from jdmkit.sampler import (
    ChainRunner,
    Configuration,
    MultiGraphRealization,
    _build_model,
    autocorrelation,
    build_model,
    chain_a_step,
    embed_realization,
    simple_fiber_size,
    to_multigraph,
    uniform_configuration,
)


class ScriptedRng:
    """Plays back queued (bound, value) draws and verifies each bound."""

    def __init__(self, queue):
        self.queue = list(queue)

    def randrange(self, n):
        bound, val = self.queue.pop(0)
        assert bound == n, (bound, n)
        return val


class TestBuildModel:
    def test_three_loop_model_shape(self):
        model = build_model(Jdm([[0, 0], [0, 3]]))
        assert model.component_classes == (2,)
        assert model.component_sizes() == (6,)
        assert model.classes == {0: 2, 1: 2, 2: 2}
        assert model.minis[2] == (
            (0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2),
        )
        assert len(model.points[2]) == 6
        assert all(pair == (2, 2) for (pair, e, side) in model.points[2])

    def test_cross_edges_put_points_on_both_classes(self):
        model = build_model(Jdm([[0, 2], [2, 2]]))
        assert model.component_classes == (1, 2)
        assert model.component_sizes() == (2, 6)
        assert len(model.minis[1]) == 2
        assert sum(1 for (pair, e, s) in model.points[2] if pair == (1, 2)) == 2
        assert sum(1 for (pair, e, s) in model.points[2] if pair == (2, 2)) == 4

    def test_non_integral_counts_rejected(self):
        with pytest.raises(GraphError, match="would need"):
            build_model(Jdm([[0, 1], [1, 0]]))

    def test_labels_must_cover_the_count(self):
        j = Jdm([[0, 0], [0, 3]])
        model = build_model(j, labels=[7, 8, 9])
        assert model.classes == {7: 2, 8: 2, 9: 2}
        with pytest.raises(GraphError, match="distinct labels"):
            build_model(j, labels=[7, 8])
        with pytest.raises(GraphError, match="distinct labels"):
            build_model(j, labels=[7, 7, 8])


class TestConfigurationsAndMultigraphs:
    def test_identity_matching_gives_three_loops(self):
        model = build_model(Jdm([[0, 0], [0, 3]]))
        c = Configuration(model=model, match=(tuple(range(6)),))
        mg = to_multigraph(c)
        assert mg.pair_counts == {(0, 0): 1, (1, 1): 1, (2, 2): 1}
        assert not mg.is_simple
        # A loop counts twice toward its vertex's degree.
        assert sum(mult * (u, w).count(0) for (u, w), mult in mg.pair_counts.items()) == 2
        assert mg.fiber_key() == (((0, 0), 1), ((1, 1), 1), ((2, 2), 1))
        with pytest.raises(GraphError, match="loops or parallel"):
            mg.as_labeled_graph()

    def test_lifting_decides_simplicity_from_the_counts(self):
        # The stored flag may disagree with the counts; the counts decide.
        doubled = MultiGraphRealization({0: 2, 1: 2, 2: 2}, {(0, 1): 2, (1, 2): 1, (0, 2): 1}, True)
        with pytest.raises(GraphError, match="multigraph has loops or parallel edges"):
            doubled.as_labeled_graph()
        triangle = MultiGraphRealization({0: 2, 1: 2, 2: 2}, {(0, 1): 1, (1, 2): 1, (0, 2): 1}, False)
        assert triangle.as_labeled_graph() == LabeledGraph.from_edges([(0, 1), (1, 2), (0, 2)])

    def test_match_round_trip(self):
        model = build_model(Jdm([[0, 0], [0, 3]]))
        c = uniform_configuration(model, random.Random(1))
        assert Configuration(model=model, match=c.match) == c

    def test_simple_configuration_lifts_to_graph(self):
        j = Jdm([[0, 0], [0, 3]])
        model = build_model(j)
        for perm in itertools.permutations(range(6)):
            mg = to_multigraph(Configuration(model=model, match=(perm,)))
            if mg.is_simple:
                g = mg.as_labeled_graph()
                assert extract_jdm(g) == j
                break
        else:
            pytest.fail("no simple matching found")

    def test_uniform_configuration_is_seed_deterministic(self):
        model = build_model(Jdm([[0, 2], [2, 2]]))
        a = uniform_configuration(model, random.Random(9))
        b = uniform_configuration(model, random.Random(9))
        assert a == b

    @pytest.mark.parametrize(
        "sabotage, message",
        [
            # Class sizes of zero leave class 2's six mini-vertices unmatched.
            ("sampler._class_sizes = lambda j: [0] * j.k", "class 2 must hold 0 mini-vertices and edge-points"),
            # Each edge label keeps only its first point.
            (
                "ends = sampler._label_endpoints; "
                "sampler._label_endpoints = lambda m, match: {k: vs[:1] for k, vs in ends(m, match).items()}",
                "every edge label must receive exactly two points",
            ),
        ],
    )
    def test_invariants_survive_optimized_mode(self, sabotage, message, optimized_stdout):
        script = textwrap.dedent(
            f"""
            import random, sys
            from jdmkit import sampler
            from jdmkit.core import GraphError, Jdm

            assert sys.flags.optimize
            {sabotage}
            try:
                model = sampler.build_model(Jdm([[0, 0], [0, 3]]))
                mg = sampler.to_multigraph(sampler.uniform_configuration(model, random.Random(1)))
            except GraphError as exc:
                print("GraphError:", exc)
            else:
                print("returned", mg)
            """
        )
        assert optimized_stdout(script) == f"GraphError: {message}\n"


class TestEmbedRealization:
    def test_round_trip(self, six_cycle):
        j = extract_jdm(six_cycle)
        model = build_model(j, labels=[1, 2, 3, 4, 5, 6])
        c = embed_realization(six_cycle, model)
        mg = to_multigraph(c)
        assert mg.is_simple
        assert mg.as_labeled_graph() == six_cycle

    def test_rejects_foreign_matrix(self, six_cycle):
        model = build_model(Jdm([[0, 0], [0, 3]]))
        with pytest.raises(GraphError, match="matrices differ"):
            embed_realization(six_cycle, model)

    def test_rejects_foreign_labels(self, six_cycle):
        model = build_model(extract_jdm(six_cycle))  # labels 0..5
        with pytest.raises(GraphError, match="partitions differ"):
            embed_realization(six_cycle, model)


class TestSimpleFiberSize:
    def test_frozen_values(self):
        assert simple_fiber_size(Jdm([[0, 0], [0, 3]])) == 384
        assert simple_fiber_size(Jdm([[0, 2], [2, 2]])) == 128
        assert simple_fiber_size(Jdm([[0, 0], [0, 6]])) == 2949120

    def test_formula_shape(self):
        # slot orders (i!)^{n_i}, loop-pair flips & relabelings 2^J_ii J_ii!,
        # cross relabelings J_il!
        j = Jdm([[0, 2], [2, 2]])
        expect = (
            math.factorial(1) ** 2
            * math.factorial(2) ** 3
            * (2 ** 2) * math.factorial(2)
            * math.factorial(2)
        )
        assert simple_fiber_size(j) == expect


class TestScriptedSteps:
    def test_hold_branch_keeps_the_matching(self):
        model = build_model(Jdm([[0, 0], [0, 3]]))
        start = Configuration(model=model, match=(tuple(range(6)),))
        rng = ScriptedRng([(2, 0)])
        out = chain_a_step(start, rng)
        assert out.match == start.match
        assert not rng.queue

    def test_move_branch_changes_the_matching(self):
        model = build_model(Jdm([[0, 0], [0, 3]]))
        start = Configuration(model=model, match=(tuple(range(6)),))
        seen = set()
        for g in range(6):
            for k2 in range(5):
                rng = ScriptedRng([(2, 1), (6, g), (5, k2)])
                out = chain_a_step(start, rng)
                assert not rng.queue
                assert out.match != start.match
                seen.add(out.match)
        # 30 draws, each exchanging one chosen point with one of the 5 others
        assert len(seen) == 15

    def test_single_point_component_always_holds(self):
        # class 1 has one vertex with one slot; picking its lone point can
        # exchange with nothing, so the step holds without a third draw
        model = build_model(Jdm([[0, 0, 1], [0, 0, 0], [1, 0, 7]]))
        assert model.component_sizes() == (1, 15)
        start = uniform_configuration(model, random.Random(0))
        rng = ScriptedRng([(2, 1), (16, 0)])
        out = chain_a_step(start, rng)
        assert out.match == start.match
        assert not rng.queue

    def test_chain_b_rejects_non_simple_input(self):
        model = build_model(Jdm([[0, 0], [0, 3]]))
        loops = Configuration(model=model, match=(tuple(range(6)),))
        with pytest.raises(GraphError, match="^chain b needs a simple starting configuration$"):
            ChainRunner(model, loops, "b", random.Random(0))

    def test_chain_b_never_leaves_simple_states(self):
        j = Jdm([[0, 0], [0, 3]])
        model = build_model(j)
        c = embed_realization(construct_realization(j), model)
        rng = random.Random(13)
        for _ in range(300):
            runner = ChainRunner(model, c, "b", rng)
            runner.step()
            c = runner.configuration()
            assert to_multigraph(c).is_simple


class TestChainRunner:
    def test_validates_inputs(self):
        j = Jdm([[0, 0], [0, 3]])
        model = build_model(j)
        other = build_model(j, labels=[5, 6, 7])
        start = Configuration(model=model, match=(tuple(range(6)),))
        with pytest.raises(GraphError, match="unknown chain kind"):
            ChainRunner(model, start, "c", random.Random(0))
        with pytest.raises(GraphError, match="different model"):
            ChainRunner(other, start, "a", random.Random(0))
        with pytest.raises(GraphError, match="simple starting"):
            ChainRunner(model, start, "b", random.Random(0))
        for match in ((0, 0, 1, 2, 3, 4), (0, 1, 2, 3, 4), (0, 1, 2, 3, 4, 6)):
            with pytest.raises(GraphError, match="exactly two points"):
                ChainRunner(model, Configuration(model=model, match=(match,)), "a", random.Random(0))
        runner = ChainRunner(model, start, "a", random.Random(0))
        for k in (2.5, "3", True):
            with pytest.raises(GraphError, match="cannot advance by"):
                runner.advance(k)
        assert runner.steps == 0

    def test_bookkeeping_matches_recomputation(self):
        j = Jdm([[0, 2], [2, 2]])
        model = build_model(j)
        start = uniform_configuration(model, random.Random(2))
        runner = ChainRunner(model, start, "a", random.Random(3))
        for step in range(400):
            runner.step()
            if step % 20 == 0:
                fresh = to_multigraph(runner.configuration())
                assert runner.pair_counts == fresh.pair_counts
                assert runner.is_simple() == fresh.is_simple
                assert runner.fiber_key() == fresh.fiber_key()
        assert runner.steps == 400
        assert runner.holds <= 400

    def test_chain_b_counts_rejections_and_stays_simple(self):
        j = Jdm([[0, 2], [2, 2]])
        model = build_model(j)
        start = embed_realization(construct_realization(j), model)
        runner = ChainRunner(model, start, "b", random.Random(5))
        for _ in range(500):
            runner.step()
            assert runner.nonsimple == 0
            assert runner.is_simple()
        fresh = to_multigraph(runner.configuration())
        assert fresh.is_simple
        assert runner.steps == 500

    def test_rejection_restores_the_previous_state(self):
        j = Jdm([[0, 2], [2, 2]])
        model = build_model(j)
        start = embed_realization(construct_realization(j), model)
        rng = random.Random(7)
        runner = ChainRunner(model, start, "b", rng)
        prev_key = runner.configuration().match
        prev_rejects = runner.rejects
        for _ in range(500):
            runner.step()
            if runner.rejects > prev_rejects:
                assert runner.configuration().match == prev_key
                fresh = to_multigraph(runner.configuration())
                assert runner.multigraph().pair_counts == fresh.pair_counts
                assert runner.pair_counts == fresh.pair_counts
            prev_key = runner.configuration().match
            prev_rejects = runner.rejects
        assert runner.rejects > 0


    @pytest.mark.parametrize("kind", ["a", "b"])
    def test_incremental_bookkeeping_after_every_step(self, kind):
        # Classes 1 and 2 share cross pair (1, 2) and class 2 has a diagonal
        # pair, so proposals make loops and parallel edges and chain b rejects.
        j = Jdm([[0, 2], [2, 2]])
        model = build_model(j)
        start = embed_realization(construct_realization(j), model)
        runner = ChainRunner(model, start, kind, random.Random(11))
        nonsimple_seen = 0
        for _ in range(600):
            runner.step()
            fresh = to_multigraph(runner.configuration())
            assert runner.pair_counts == fresh.pair_counts
            assert runner.nonsimple == sum(
                mult if u == v else mult - 1
                for (u, v), mult in fresh.pair_counts.items()
            )
            nonsimple_seen += runner.nonsimple > 0
        # Chain a visits loops and parallel edges; chain b refuses them.
        assert (nonsimple_seen > 0) if kind == "a" else (runner.rejects > 0)


def _reference_step(model, perms, kind, rng):
    """One chain step from the class docstring alone, on plain permutation
    lists; chain b asks to_multigraph whether the proposal stays simple."""
    sizes = model.component_sizes()
    if rng.randrange(2) == 0 or not sizes:
        return "hold"
    mi1 = rng.randrange(sum(sizes))
    ci = 0
    while mi1 >= sizes[ci]:
        mi1 -= sizes[ci]
        ci += 1
    if sizes[ci] == 1:
        return "hold"
    mi2 = rng.randrange(sizes[ci] - 1)
    mi2 += mi2 >= mi1
    proposal = [list(p) for p in perms]
    proposal[ci][mi1], proposal[ci][mi2] = proposal[ci][mi2], proposal[ci][mi1]
    match = tuple(tuple(p) for p in proposal)
    if kind == "b" and not to_multigraph(Configuration(model=model, match=match)).is_simple:
        return "reject"
    perms[:] = proposal
    return "move"


def _runner_state(runner):
    return (
        [list(p) for p in runner.perms],
        [list(i) for i in runner.inv],
        dict(runner.pair_counts),
        runner.nonsimple,
        runner.steps,
        runner.holds,
        runner.rejects,
        runner.rng.getstate(),
    )


def _count_variants(counts, rng):
    """counts, and maps one change away from it: a multiplicity moved to
    another pair or to a pair at an unknown vertex, a pair dropped, an absent
    pair added at zero, a pair written in reverse."""
    variants = [dict(counts)]
    if counts:
        vertices = sorted({v for pair in counts for v in pair})
        old = rng.choice(sorted(counts))
        for new in (tuple(sorted(rng.choices(vertices, k=2))), (vertices[0], vertices[-1] + 1)):
            moved = dict(counts)
            moved[old] -= 1
            moved[new] = moved.get(new, 0) + 1
            variants.append({pair: mult for pair, mult in moved.items() if mult})
        variants.append({pair: mult for pair, mult in counts.items() if pair != old})
        absent = [pair for pair in itertools.combinations_with_replacement(vertices, 2) if pair not in counts]
        if absent:
            variants.append({**counts, rng.choice(absent): 0})
        if old[0] != old[1]:
            variants.append({**counts, old[::-1]: counts[old]})
            del variants[-1][old]
    return variants


def _stale_copy(runner):
    """A deep copy of runner, sharing its model and generator, which no read
    of the multigraph touches.  A copy of a stale runner is stale."""
    return copy.deepcopy(runner, {id(runner.model): runner.model, id(runner.rng): runner.rng})


def _check_reads(runner, start_counts):
    """is_simple and same_multigraph, called as jdm sample calls them (and in
    the other order), agree with a multigraph read off the matching.  A walk
    that reaches the end refreshes the runner, so every map is also checked
    on its own copy of the runner as the batch left it."""
    fresh = to_multigraph(runner.configuration())
    rng = random.Random(runner.steps)
    maps = [start_counts, *_count_variants(fresh.pair_counts, rng)]
    want = [c == fresh.pair_counts for c in maps]
    assert [_stale_copy(runner).same_multigraph(c) for c in maps] == want
    other = _stale_copy(runner)
    assert other.same_multigraph(start_counts) == want[0]
    assert other.is_simple() == fresh.is_simple
    assert runner.is_simple() == fresh.is_simple
    assert runner.same_multigraph(start_counts) == want[0]
    assert runner.pair_counts == fresh.pair_counts
    assert [runner.same_multigraph(c) for c in maps] == want


def _advance_all(k, batched, single, ref_perms, ref_rng, ref_counts, start_counts):
    """Advance batched in one call of k steps, single and the reference by k
    single steps, then check that all three describe the same chain.  The
    batched runner answers is_simple and same_multigraph (start_counts among
    the maps) before anything else reads its multigraph."""
    model, kind = batched.model, batched.kind
    batched.advance(k)
    _check_reads(batched, start_counts)
    for _ in range(k):
        single.step()
        ref_counts[_reference_step(model, ref_perms, kind, ref_rng)] += 1
    assert _runner_state(batched) == _runner_state(single)
    fresh = to_multigraph(Configuration(model=model, match=tuple(map(tuple, ref_perms))))
    assert batched.perms == ref_perms
    assert all(inv[p[mi]] == mi for p, inv in zip(batched.perms, batched.inv) for mi in range(len(p)))
    assert batched.pair_counts == fresh.pair_counts
    assert batched.nonsimple == sum(
        mult if u == v else mult - 1 for (u, v), mult in fresh.pair_counts.items()
    )
    assert (batched.holds, batched.rejects) == (ref_counts["hold"], ref_counts["reject"])
    assert batched.steps == sum(ref_counts.values())
    assert batched.rng.getstate() == ref_rng.getstate()


class CountingRandom(random.Random):
    """A generator that overrides randrange, counting the calls it gets."""

    calls = 0

    def randrange(self, *args):
        self.calls += 1
        return super().randrange(*args)


class BelowRandom(random.Random):
    """A generator that overrides only _randbelow, counting the calls it gets."""

    calls = 0

    def _randbelow(self, n):
        self.calls += 1
        return super()._randbelow(n)


class WidthLog(random.Random):
    """A generator that logs the width k of every getrandbits(k) call."""

    def __init__(self, seed):
        self.widths = []
        super().__init__(seed)

    def getrandbits(self, k):
        self.widths.append(k)
        return super().getrandbits(k)


# Class 2's diagonal pair and the cross pair (1, 2) give loops, parallel edges
# and chain-b rejections; a triangle with a pendant vertex has a class-1
# component of one pair; the edgeless matrix has no pair at all.
ADVANCE_CASES = [
    ([[0, 2], [2, 2]], "a"),
    ([[0, 2], [2, 2]], "b"),
    ([[0, 0, 1], [0, 1, 2], [1, 2, 0]], "a"),
    ([[0, 0, 1], [0, 1, 2], [1, 2, 0]], "b"),
    ([[0]], "a"),
    ([[0]], "b"),
]


class TestAdvance:
    @staticmethod
    def _start(j, kind):
        model = build_model(j)
        if kind == "a":
            return model, uniform_configuration(model, random.Random(4))
        return model, embed_realization(construct_realization(j), model)

    @pytest.mark.parametrize("rows, kind", ADVANCE_CASES)
    def test_batches_match_single_steps_and_the_reference(self, rows, kind):
        model, start = self._start(Jdm(rows), kind)
        batched = ChainRunner(model, start, kind, random.Random(21))
        single = ChainRunner(model, start, kind, random.Random(21))
        ref_perms = [list(p) for p in start.match]
        start_counts = to_multigraph(start).pair_counts
        ref_rng = random.Random(21)
        ref_counts = {"hold": 0, "reject": 0, "move": 0}
        sizes = random.Random(5)
        nonsimple_seen = False
        for _ in range(60):
            k = sizes.choice((0, 1, 1, 2, 3, 7, 16, 40))
            _advance_all(k, batched, single, ref_perms, ref_rng, ref_counts, start_counts)
            nonsimple_seen |= batched.nonsimple > 0
        if rows != [[0]]:
            assert ref_counts["move"] > 0
        if rows == [[0, 2], [2, 2]]:
            assert (ref_counts["reject"] > 0) if kind == "b" else nonsimple_seen

    @pytest.mark.parametrize("rows, kind", ADVANCE_CASES)
    def test_zero_and_negative_counts_change_nothing(self, rows, kind):
        model, start = self._start(Jdm(rows), kind)
        runner = ChainRunner(model, start, kind, random.Random(8))
        runner.advance(25)
        before = _runner_state(runner)
        runner.advance(0)
        assert _runner_state(runner) == before
        with pytest.raises(GraphError, match="^cannot advance by -1 steps$"):
            runner.advance(-1)
        assert _runner_state(runner) == before

    def test_counters_describe_the_steps_taken_when_a_draw_raises(self):
        model = build_model(Jdm([[0, 0], [0, 3]]))
        start = Configuration(model=model, match=(tuple(range(6)),))
        move = [(2, 1), (6, 0), (5, 2)]
        # The matrix has 3 edges: a batch of 2 keeps the multigraph move by
        # move, a batch of 5 recounts it when the draw raises.  Either way a
        # move of mini-vertices 0 and 3 (after a hold in the longer batch) is
        # followed by a step whose first draw finds the queue empty.
        for k, queue, holds in ((2, move, 0), (5, [(2, 0), *move], 1)):
            runner = ChainRunner(model, start, "a", ScriptedRng(queue))
            with pytest.raises(IndexError):
                runner.advance(k)
            assert (runner.steps, runner.holds, runner.rejects) == (holds + 2, holds, 0)
            assert runner.perms == [[3, 1, 2, 0, 4, 5]]
            assert runner.inv == [[3, 1, 2, 0, 4, 5]]
            assert runner.pair_counts == {(0, 1): 2, (2, 2): 1}
            assert runner.pair_counts == to_multigraph(runner.configuration()).pair_counts
            assert runner.nonsimple == 2

    def _check_every_draw_counted(self, rng_type, kind):
        j = Jdm([[0, 2], [2, 2]])
        model, start = self._start(j, kind)
        batched = ChainRunner(model, start, kind, rng_type(6))
        single = ChainRunner(model, start, kind, random.Random(6))
        ref_perms = [list(p) for p in start.match]
        start_counts = to_multigraph(start).pair_counts
        ref_rng = rng_type(6)
        ref_counts = {"hold": 0, "reject": 0, "move": 0}
        # The matrix has 4 edges, so the batches fall on both sides of the rule.
        for k in (1, 3, 4, 9, 30):
            _advance_all(k, batched, single, ref_perms, ref_rng, ref_counts, start_counts)
        assert batched.rng.calls == ref_rng.calls > batched.steps

    @pytest.mark.parametrize("kind", ["a", "b"])
    def test_a_generator_overriding_randrange_gets_every_draw(self, kind):
        self._check_every_draw_counted(CountingRandom, kind)

    @pytest.mark.parametrize("kind", ["a", "b"])
    def test_a_generator_overriding_randbelow_gets_every_draw(self, kind):
        self._check_every_draw_counted(BelowRandom, kind)

    @pytest.mark.parametrize("kind", ["a", "b"])
    def test_getrandbits_widths_match_randrange(self, kind):
        # Degrees 7, 5, 3, 3, 3, 2, 1, 1, 1: the components hold 3, 2, 9, 5
        # and 7 pairs, so the second draw's bounds 2, 1, 8, 4 and 6 include
        # powers of two, whose bit length exceeds that of the bound less one.
        g = LabeledGraph.from_edges(
            [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
             (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (4, 8)]
        )
        model, start = self._start(extract_jdm(g), kind)
        assert {1, 2, 4, 8} <= {size - 1 for size in model.component_sizes()}
        batched = ChainRunner(model, start, kind, WidthLog(9))
        single = ChainRunner(model, start, kind, random.Random(9))
        ref_perms = [list(p) for p in start.match]
        start_counts = to_multigraph(start).pair_counts
        ref_rng = WidthLog(9)
        ref_counts = {"hold": 0, "reject": 0, "move": 0}
        # The graph has 13 edges: batches on both sides of chain a's rule.
        for k in (1, 5, 13, 40, 100):
            _advance_all(k, batched, single, ref_perms, ref_rng, ref_counts, start_counts)
        assert batched.rng.widths == ref_rng.widths
        # 2 bits for the hold draw and bound 2, 5 for the 26 pairs, 1, 3 and
        # 4 for the bounds 1, 4 (and 6) and 8.
        assert set(batched.rng.widths) == {1, 2, 3, 4, 5}

    @pytest.mark.parametrize("hidden", [False, True])
    def test_draws_go_through_randbelow_without_the_getrandbits_loop(self, hidden, monkeypatch):
        # An interpreter whose random.Random has no _randbelow_with_getrandbits
        # gets its draws through randrange, and so through _randbelow; with
        # it, advance reads getrandbits itself.  Either way the values and the state match randrange's.
        model, start = self._start(Jdm([[0, 2], [2, 2]]), "a")
        callers = []
        getrandbits = random.Random.getrandbits

        def logged(rng, k):
            callers.append(sys._getframe(1).f_code.co_name)
            return getrandbits(rng, k)

        monkeypatch.setattr(random.Random, "getrandbits", logged)
        if hidden:
            monkeypatch.delattr(random.Random, "_randbelow_with_getrandbits")
        runner = ChainRunner(model, start, "a", random.Random(3))
        runner.advance(50)
        assert set(callers) == {"_randbelow_with_getrandbits" if hidden else "advance"}
        ref_perms = [list(p) for p in start.match]
        ref_rng = random.Random(3)
        for _ in range(50):
            _reference_step(model, ref_perms, "a", ref_rng)
        assert runner.perms == ref_perms
        assert runner.rng.getstate() == ref_rng.getstate()

    @pytest.mark.parametrize("kind", ["a", "b"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_batches_either_side_of_the_edge_count(self, seed, kind, monkeypatch):
        # G(n, 8/n) at n = 40: batches of m - 1, m, m + 1 and 3m steps.
        rng = random.Random(seed)
        g = LabeledGraph.from_edges(
            (u, v) for u, v in itertools.combinations(range(40), 2) if rng.random() < 8 / 40
        )
        m = len(g.edges())
        model, start = self._start(extract_jdm(g), kind)
        recounts = []
        walk = ChainRunner._walk

        def counted_walk(runner, cap):
            if cap is None:
                recounts.append(runner)
            return walk(runner, cap)

        monkeypatch.setattr(ChainRunner, "_walk", counted_walk)
        batched = ChainRunner(model, start, kind, random.Random(seed))
        single = ChainRunner(model, start, kind, random.Random(seed))
        ref_perms = [list(p) for p in start.match]
        start_counts = to_multigraph(start).pair_counts
        ref_rng = random.Random(seed)
        ref_counts = {"hold": 0, "reject": 0, "move": 0}
        for k in (m - 1, m, m + 1, 3 * m):
            _advance_all(k, batched, single, ref_perms, ref_rng, ref_counts, start_counts)
        # Each runner counts its start; only chain a's batches of m or more
        # steps recount after it.
        assert recounts == [batched, single] + [batched] * 3 * (kind == "a")
        assert ref_counts["move"] > 0
        assert (ref_counts["reject"] > 0) if kind == "b" else (ref_counts["hold"] > 0)


    def test_short_batches_right_after_long_ones(self):
        # The matrix has 4 edges: each short batch follows a long one that
        # left the multigraph stale, with no read between them.
        model, start = self._start(Jdm([[0, 2], [2, 2]]), "a")
        batched = ChainRunner(model, start, "a", random.Random(12))
        single = ChainRunner(model, start, "a", random.Random(12))
        for k in (9, 1, 4, 3, 11, 2, 6, 3, 4, 2):
            batched.advance(k)
        for _ in range(45):
            single.step()
        assert _runner_state(batched) == _runner_state(single)

    @pytest.mark.parametrize("kind", ["a", "b"])
    def test_a_start_graph_out_of_class_order(self, kind):
        # jdm sample --start builds the model on the start graph's own
        # classes, whose labels need not ascend with the class.
        rng = random.Random(2)
        labels = list(range(30))
        rng.shuffle(labels)
        g = LabeledGraph.from_edges(
            (labels[u], labels[v])
            for u, v in itertools.combinations(range(30), 2)
            if rng.random() < 6 / 30
        )
        classes = g.classes()
        assert [classes[v] for v in sorted(classes)] != sorted(classes.values())
        m = len(g.edges())
        model = _build_model(extract_jdm(g), classes)
        start = embed_realization(g, model)
        start_counts = to_multigraph(start).pair_counts
        batched = ChainRunner(model, start, kind, random.Random(4))
        single = ChainRunner(model, start, kind, random.Random(4))
        ref_perms = [list(p) for p in start.match]
        ref_rng = random.Random(4)
        ref_counts = {"hold": 0, "reject": 0, "move": 0}
        for k in (0, 1, m, m - 1, 2 * m + 3, 5, 4 * m):
            _advance_all(k, batched, single, ref_perms, ref_rng, ref_counts, start_counts)
        assert ref_counts["move"] > 0


class CountingDict(dict):
    """A dict that counts its get calls."""

    gets = 0

    def get(self, *args):
        self.gets += 1
        return super().get(*args)


class TestWalk:
    """One walk over the edge labels answers every read of a stale multigraph."""

    @staticmethod
    def _held():
        # Chain a from a simple realization, held for m = 4 steps: the
        # multigraph is stale and still the simple start.
        model = build_model(Jdm([[0, 2], [2, 2]]))
        start = embed_realization(construct_realization(model.jdm), model)
        runner = ChainRunner(model, start, "a", ScriptedRng([(2, 0)] * 4))
        runner.advance(4)
        assert runner._counts is None
        return runner, to_multigraph(start).pair_counts

    @pytest.mark.parametrize("read", ["is_simple", "same_multigraph", "same_multigraph_with_a_zero"])
    def test_a_walk_to_the_end_stores_the_counts(self, read, monkeypatch):
        runner, counts = self._held()
        if read == "is_simple":
            assert runner.is_simple()
        else:
            # A map with an absent pair at zero holds every pair often enough,
            # so the walk ends, and then differs from pair_counts.
            extra = {(0, 0): 0} if read.endswith("zero") else {}
            assert runner.same_multigraph({**counts, **extra}) == (not extra)
        assert runner._counts == counts
        assert runner._nonsimple == 0
        walks = []
        monkeypatch.setattr(ChainRunner, "_walk", lambda runner, cap: walks.append(cap))
        assert runner.pair_counts == counts
        assert runner.nonsimple == 0
        assert runner.is_simple()
        assert runner.same_multigraph(dict(counts))
        runner.advance(0)
        assert walks == []

    def test_a_walk_that_stops_early_stores_nothing(self):
        runner, counts = self._held()
        # The walk meets pair more often than each map allows: at zero,
        # dropped, or written in reverse.
        pair = min(counts)
        dropped = {p: c for p, c in counts.items() if p != pair}
        for short in ({**counts, pair: 0}, dropped, {**dropped, pair[::-1]: counts[pair]}):
            assert not runner.same_multigraph(short)
            assert runner._counts is None
        model = runner.model
        looped = Configuration(model, tuple(tuple(range(n)) for n in model.component_sizes()))
        runner = ChainRunner(model, looped, "a", ScriptedRng([(2, 0)] * 4))
        runner.advance(4)
        assert not runner.is_simple()
        assert runner._counts is None

    def test_the_start_check_stops_at_the_first_pair_over_its_count(self):
        # A G(40, 8/40) graph with m = 149 edges; chain a from the identity
        # configuration, as jdm sample starts it.  After 2m steps the start
        # check reads the start map at the labels it walks, and stops at the
        # second.
        rng = random.Random(1)
        g = LabeledGraph.from_edges(
            (u, v) for u, v in itertools.combinations(range(40), 2) if rng.random() < 8 / 40
        )
        m = len(g.edges())
        model = build_model(extract_jdm(g))
        start = Configuration(model, tuple(tuple(range(n)) for n in model.component_sizes()))
        runner = ChainRunner(model, start, "a", random.Random(1))
        start_counts = CountingDict(runner.fiber_key())
        runner.advance(2 * m)
        assert not runner.same_multigraph(start_counts)
        assert (start_counts.gets, m) == (2, 149)
        assert runner._counts is None


class TestAutocorrelation:
    def test_constant_series(self):
        out = autocorrelation([3.0] * 50, max_lag=5)
        assert out.rho == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert out.integrated_time == 1.0

    def test_alternating_series(self):
        out = autocorrelation([1.0, 0.0] * 40, max_lag=4)
        assert out.rho[0] == 1.0
        assert out.rho[1] < 0
        assert out.integrated_time == 1.0

    def test_blocky_series_has_long_memory(self):
        series = []
        for block in range(40):
            series.extend([float(block % 2)] * 25)
        out = autocorrelation(series, max_lag=100)
        assert 10 < out.integrated_time < 60

    def test_series_must_exceed_the_lag(self):
        with pytest.raises(GraphError, match="lag"):
            autocorrelation([1.0, 2.0], max_lag=2)

    @pytest.mark.parametrize("max_lag", [-1, 1.5, "2", True])
    def test_max_lag_must_be_a_non_negative_integer(self, max_lag):
        with pytest.raises(GraphError, match="non-negative integer"):
            autocorrelation([1.0, 2.0, 3.0, 4.0], max_lag=max_lag)

    def test_matches_exact_arithmetic(self):
        rng = random.Random(11)
        for n in (5, 12, 30):
            series = [rng.choice((0.0, 1.0, 0.5, 3.25)) for _ in range(n)]
            if len(set(series)) == 1:
                continue
            x = [Fraction(v) for v in series]
            mean = sum(x) / n
            d = [v - mean for v in x]
            c0 = sum(v * v for v in d)
            out = autocorrelation(series, max_lag=n - 1)
            for k, got in enumerate(out.rho):
                exact = sum(d[i] * d[i + k] for i in range(n - k)) / c0
                assert abs(got - float(exact)) <= 1e-12

    def test_runs_without_numpy(self, python_run):
        script = (
            "import sys, jdmkit\n"
            "from jdmkit.sampler import autocorrelation\n"
            "autocorrelation([0.0, 1.0, 1.0, 0.0, 1.0], max_lag=2)\n"
            "print('numpy' in sys.modules)\n"
        )
        out = python_run(["-c", script], check=True).stdout
        assert out == "False\n"
