"""Property tests of the shared engine over random graphs, label counts and schedules."""
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import operators_on_every_step, problems, random_grid_mrf, replay
from mfnet import engine, meanfield
from mfnet.crf import grid_graph, theta0
from mfnet.engine import Schedule, sequential_schedule
from mfnet.mfn import MfnParams, forward, forward_mrfs, traced_chunks
from mfnet.mrf import (
    FactorialDistribution,
    GraphTopology,
    PairwiseMRF,
    row_softmax,
    softmax_init,
    unnormalized_kl,
)


@settings(max_examples=80, deadline=None)
@given(problems())
def test_rows_are_finite_distributions(problem):
    mrfs, schedule = problem
    q = forward_mrfs(mrfs, schedule).q_final
    assert np.all(np.isfinite(q))
    np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(problems())
def test_tied_forward_equals_mean_field(problem):
    mrfs, schedule = problem
    m = mrfs[0]
    trace = forward_mrfs([m] * len(mrfs), schedule)
    q, _ = meanfield.run(m, softmax_init(m), len(mrfs), schedule)
    np.testing.assert_array_equal(trace.q_final, q.probs)


@settings(max_examples=80, deadline=None)
@given(problems())
def test_kl_trace_reads_each_sweep_of_the_plain_run(problem):
    """With track_kl, `meanfield.run` calls the engine once per sweep: its q
    is the same bits as one call over every sweep, and entry i of its trace
    is the KL of the run of i + 1 sweeps."""
    mrfs, schedule = problem
    m, q0 = mrfs[0], FactorialDistribution(row_softmax(mrfs[-1].unary))
    q, trace = meanfield.run(m, q0, len(mrfs), schedule, track_kl=True)
    plain, no_trace = meanfield.run(m, q0, len(mrfs), schedule)
    assert no_trace is None and q.probs.tobytes() == plain.probs.tobytes()
    assert len(trace) == len(mrfs)
    for i, kl in enumerate(trace):
        assert kl == unnormalized_kl(meanfield.run(m, q0, i + 1, schedule)[0], m)


@settings(max_examples=80, deadline=None)
@given(problems())
def test_replay_equals_forward(problem):
    mrfs, schedule = problem
    trace = forward_mrfs(mrfs, schedule)
    np.testing.assert_array_equal(replay(trace), trace.q_final)


@settings(max_examples=30, deadline=None)
@given(problems(), st.sampled_from(["q", "a", "both"]), st.integers(0, 2**32 - 1))
def test_backward_matches_finite_differences(problem, seeds, seed):
    mrfs, schedule = problem
    mrfs = mrfs[:3]
    rng = np.random.default_rng(seed)
    topo = mrfs[0].topology
    compiled = engine.compile_schedule(topo, schedule)
    n, K = mrfs[0].unary.shape
    gq = rng.normal(size=(n, K)) if seeds in ("q", "both") else None
    ga = rng.normal(size=(n, K)) if seeds in ("a", "both") else None
    layers = [(m.unary.copy(), m.pairwise.copy()) for m in mrfs]
    q0 = rng.dirichlet(np.ones(K), size=n)

    def loss():
        q, a = engine.run_unrolled(engine.layer_inputs(compiled, layers), q0, compiled)
        total = float(np.sum(gq * q)) if gq is not None else 0.0
        if ga is not None:
            total += float(np.sum(ga * a))
        return total

    tape, inputs = [], engine.layer_inputs(compiled, layers)
    engine.run_unrolled(inputs, q0, compiled, tape=tape)
    dunary, dtables, gq0 = engine.backward_unrolled(compiled, tape, inputs, gq, ga)
    lifted = [engine.lift_gradients(compiled, du, dt) for du, dt in zip(dunary, dtables)]

    h = 1e-6

    def numeric(arr):
        out = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            saved = arr[idx]
            arr[idx] = saved + h
            up = loss()
            arr[idx] = saved - h
            down = loss()
            arr[idx] = saved
            out[idx] = (up - down) / (2 * h)
        return out

    for (unary, pairwise), (dunary_m, dpair_m) in zip(layers, lifted):
        np.testing.assert_allclose(dunary_m, numeric(unary), rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(dpair_m, numeric(pairwise), rtol=1e-5, atol=1e-6)
    # Label 0 of q0 is not read, so its gradient is 0.
    full_gq0 = np.vstack([np.zeros((1, n)), gq0]).T
    np.testing.assert_allclose(full_gq0, numeric(q0), rtol=1e-5, atol=1e-6)


@settings(max_examples=80, deadline=None)
@given(problems())
def test_run_unrolled_matches_site_updates(problem):
    mrfs, schedule = problem
    q = row_softmax(mrfs[0].unary)
    q0 = q.copy()
    a = np.zeros_like(q)
    for m in mrfs:
        for block in schedule.blocks:
            before = FactorialDistribution(q.copy())
            for v in block:
                # The unary plus each neighbour's pre-block q through the edge table.
                a[v] = m.unary[v] + sum(
                    (m.pairwise[e] if v < t else m.pairwise[e].T) @ before.probs[t]
                    for t, e in m.topology.adjacency[v]
                )
                q[v] = meanfield.site_update(m, before, v)
    compiled = engine.compile_schedule(mrfs[0].topology, schedule)
    inputs = engine.layer_inputs(compiled, [(m.unary, m.pairwise) for m in mrfs])
    out, a_out = engine.run_unrolled(inputs, q0, compiled)
    np.testing.assert_allclose(out, q, rtol=0, atol=1e-12)
    # The engine returns activations relative to label 0.
    np.testing.assert_allclose(a_out, a - a[:, :1], rtol=0, atol=1e-12)
    assert np.all(a_out[:, 0] == 0)


@pytest.mark.parametrize("prop", [
    test_rows_are_finite_distributions,
    test_tied_forward_equals_mean_field,
    test_kl_trace_reads_each_sweep_of_the_plain_run,
    test_replay_equals_forward,
    test_backward_matches_finite_differences,
    test_run_unrolled_matches_site_updates,
], ids=lambda prop: prop.__name__)
def test_properties_hold_with_an_operator_on_every_step(prop, monkeypatch):
    """The properties above, with every step's message sum run as its
    stored CSR product, so random K 2-4 graphs of any size reach it."""
    monkeypatch.setattr(engine, "SPARSE_MIN_MESSAGES", 0)
    engine.compile_schedule.cache_clear()
    try:
        prop()
    finally:
        engine.compile_schedule.cache_clear()


@pytest.mark.parametrize("schedule_name", ["checkerboard", "raster"])
@pytest.mark.parametrize("h, w", [(3, 4), (13, 17), (50, 100)])
def test_operator_path_equals_bincount_path_at_k2(h, w, schedule_name, rng):
    """At K = 2 both kernels sum each target's messages from 0 in message
    order: forward, tape and reverse pass agree bit for bit."""
    mrfs = [random_grid_mrf(rng, h, w) for _ in range(2)]
    schedule = (engine.checkerboard_schedule(h, w) if schedule_name == "checkerboard"
                else engine.raster_schedule(h * w))
    compiled = engine.compile_schedule(mrfs[0].topology, schedule)
    inputs = engine.layer_inputs(compiled, [(m.unary, m.pairwise) for m in mrfs])
    large = [st.msgs.stop - st.msgs.start >= engine.SPARSE_MIN_MESSAGES for st in compiled.steps]
    assert all([op is not None for op in ops] == large for _, _, ops in inputs)
    plain = [(u, t, engine.StepOperators((None,) * len(ops))) for u, t, ops in inputs]
    q0 = row_softmax(mrfs[0].unary)
    gq, ga = rng.normal(size=q0.shape), rng.normal(size=q0.shape)
    runs = []
    for inp in (inputs, plain):
        tape = []
        q, a = engine.run_unrolled(inp, q0, compiled, tape=tape)
        dunary, dtables, gq0 = engine.backward_unrolled(compiled, tape, inp, gq, ga)
        records = [x for rec in tape for x in (rec.q_read_km, rec.q_out_km)]
        runs.append([q, a, *records, *dunary, *dtables, gq0])
    assert len(runs[0]) == len(runs[1])
    for x, y in zip(*runs):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


# Three isolated sites, so the schedule's one step has no read sites.
_EDGELESS = GraphTopology(n_vertices=3, edges=np.zeros((0, 2), dtype=np.int64))
_EDGELESS_PROBLEM = (
    [PairwiseMRF(_EDGELESS, 3, np.arange(9.0).reshape(3, 3) * (0.5 - i), np.zeros((0, 3, 3)))
     for i in range(2)],
    sequential_schedule((2, 0, 1)),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(problems())
@example(_EDGELESS_PROBLEM)
def _images_run_as_one_batch(problem):
    """Each problem layer's unary is an image's, all with the first
    layer's pairwise array: `meanfield.run` on the list, and the engine on
    the stacked image axis, give each image the bits of its own run."""
    mrfs, schedule = problem
    pairwise, n_iters = mrfs[0].pairwise, 2
    models = [PairwiseMRF(m.topology, m.K, m.unary, pairwise) for m in mrfs]
    q0s = [softmax_init(m) for m in models[::-1]]
    qs, no_trace = meanfield.run(models, q0s, n_iters, schedule)
    assert no_trace is None and len(qs) == len(models)
    compiled = engine.compile_schedule(models[0].topology, schedule)
    unary = np.stack([m.unary for m in models], axis=2)
    q_all, a_all = engine.run_unrolled(
        engine.layer_inputs(compiled, [(unary, pairwise)]) * n_iters,
        np.stack([q.probs for q in q0s], axis=2), compiled)
    for i, (m, q0, q) in enumerate(zip(models, q0s, qs)):
        single, a = engine.run_unrolled(
            engine.layer_inputs(compiled, [(m.unary, pairwise)]) * n_iters, q0.probs, compiled)
        assert q.probs.tobytes() == single.tobytes()
        assert q_all[..., i].tobytes() == single.tobytes()
        assert a_all[..., i].tobytes() == a.tobytes()


@pytest.mark.parametrize("threshold", [0, 10**9], ids=["operator on every step", "no operator"])
def test_batched_mean_field_equals_one_run_per_image(threshold, monkeypatch):
    """K 2-4 problems, once with every step's message sum as its stored
    CSR product and once with none, so both kernels take the image axis."""
    monkeypatch.setattr(engine, "SPARSE_MIN_MESSAGES", threshold)
    engine.compile_schedule.cache_clear()
    try:
        _images_run_as_one_batch()
    finally:
        engine.compile_schedule.cache_clear()


def test_mean_field_on_a_list_checks_its_models(rng):
    mrf = random_grid_mrf(rng, 3, 4)
    other = PairwiseMRF(mrf.topology, 2, mrf.unary, mrf.pairwise.copy())
    schedule = engine.checkerboard_schedule(3, 4)
    q0 = softmax_init(mrf)
    assert meanfield.run([], [], 3, schedule) == ([], None)
    assert meanfield.run([mrf], [q0], 0, schedule)[0] == [q0]
    for models, q0s, match in [([mrf, other], [q0, q0], "share one topology"),
                               ([mrf, mrf], [q0], "2 models but 1 initial"),
                               ([mrf], [q0], "track_kl")]:
        with pytest.raises(ValueError, match=match):
            meanfield.run(models, q0s, 3, schedule, track_kl=match == "track_kl")


def test_run_unrolled_without_layers_returns_q0_and_zero_activations():
    topo = GraphTopology(n_vertices=3, edges=[(0, 1)])
    q0 = np.full((3, 2), 0.5)
    q, a = engine.run_unrolled([], q0, engine.compile_schedule(topo, engine.raster_schedule(3)))
    np.testing.assert_array_equal(q, q0)
    np.testing.assert_array_equal(a, np.zeros((3, 2)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(problems(), st.integers(2, 3), st.integers(0, 2**32 - 1))
@example(_EDGELESS_PROBLEM, 2, 0)
def _taped_images_run_as_one_batch(problem, n_images, seed):
    """N images share the problem's layer stack, each with the layers'
    unaries scaled by its own factor, its own q0 and its own output
    gradients: a taped `run_unrolled` on the image axis, then
    `backward_unrolled` on its tape, gives each image the bits of its own
    one-image run, tape and reverse pass."""
    mrfs, schedule = problem
    compiled = engine.compile_schedule(mrfs[0].topology, schedule)
    scales = 1.0 - 0.75 * np.arange(n_images)
    layers = [(m.unary[..., None] * scales, m.pairwise) for m in mrfs]
    q0 = np.stack([row_softmax(layers[-1][0][..., i]) for i in range(n_images)], axis=2)
    gq, ga = np.random.default_rng(seed).normal(size=(2, *q0.shape))
    inputs, tape = engine.layer_inputs(compiled, layers), []
    q, a = engine.run_unrolled(inputs, q0, compiled, tape=tape)
    assert len(tape) == len(layers) * len(compiled.steps)
    dunary, dtables, gq0 = engine.backward_unrolled(compiled, tape, inputs, gq, ga)
    for i in range(n_images):
        one = [(u[..., i], p) for u, p in layers]
        inputs_i, tape_i = engine.layer_inputs(compiled, one), []
        q_i, a_i = engine.run_unrolled(inputs_i, np.ascontiguousarray(q0[..., i]), compiled,
                                       tape=tape_i)
        grads_i = engine.backward_unrolled(compiled, tape_i, inputs_i,
                                           np.ascontiguousarray(gq[..., i]),
                                           np.ascontiguousarray(ga[..., i]))
        records = [x for rec in tape for x in (rec.q_read_km, rec.q_out_km)]
        records_i = [x for rec in tape_i for x in (rec.q_read_km, rec.q_out_km)]
        batch = [q, a, *records, *dunary, *dtables, gq0]
        alone = [q_i, a_i, *records_i, *grads_i[0], *grads_i[1], grads_i[2]]
        assert len(batch) == len(alone)
        for x, y in zip(batch, alone):
            assert x.shape[:-1] == y.shape and x[..., i].tobytes() == y.tobytes()


@pytest.mark.parametrize("threshold", [0, 10**9], ids=["operator on every step", "no operator"])
def test_taped_images_equal_one_taped_run_and_reverse_pass_per_image(threshold, monkeypatch):
    """K 2-4 problems, with every step's message sum a stored CSR product
    and with none, so both kernels of both passes take the image axis."""
    monkeypatch.setattr(engine, "SPARSE_MIN_MESSAGES", threshold)
    engine.compile_schedule.cache_clear()
    try:
        _taped_images_run_as_one_batch()
    finally:
        engine.compile_schedule.cache_clear()


def test_backward_rejects_a_tape_of_another_length():
    topo = GraphTopology(n_vertices=3, edges=[(0, 1)])
    compiled = engine.compile_schedule(topo, engine.raster_schedule(3))
    layers = [(np.zeros((3, 2)), np.ones((1, 2, 2)))] * 2
    tape, inputs = [], engine.layer_inputs(compiled, layers)
    engine.run_unrolled(inputs, np.full((3, 2), 0.5), compiled, tape=tape)
    for bad_tape, bad_inputs in [(tape[:-1], inputs), (tape + tape[:1], inputs),
                                 (tape, inputs[:1])]:
        with pytest.raises(ValueError, match="tape length"):
            engine.backward_unrolled(compiled, bad_tape, bad_inputs, np.ones((3, 2)))
    with pytest.raises(ValueError, match="at least one layer"):
        engine.backward_unrolled(compiled, [], [])


def test_equal_schedules_built_separately_share_one_compiled_schedule():
    topo = grid_graph(6, 5)
    for make in (lambda: sequential_schedule(tuple(range(29, -1, -1))),
                 lambda: Schedule(tuple(tuple(b) for b in [range(15), range(15, 30)]))):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        assert engine.compile_schedule(topo, a) is engine.compile_schedule(topo, b)
    # Coordinate order is the one-site-block case: both spellings are one schedule.
    seq, par = sequential_schedule((0, 1)), Schedule(((0,), (1,)))
    assert seq == par and hash(seq) == hash(par)
    path = GraphTopology(n_vertices=2, edges=[(0, 1)])
    assert engine.compile_schedule(path, seq) is engine.compile_schedule(path, par)
    assert seq != sequential_schedule((1, 0)) and par != Schedule(((0, 1),))


def _independent_blocks(topology, order):
    """Split `order` greedily into consecutive blocks with no edge inside a block."""
    neighbours = [{t for t, _ in adj} for adj in topology.adjacency]
    blocks, block = [], []
    for v in order:
        if neighbours[v].intersection(block):
            blocks.append(tuple(block))
            block = []
        block.append(v)
    blocks.append(tuple(block))
    return blocks


@settings(max_examples=80, deadline=None)
@given(problems())
def test_independent_blocks_equal_sequential(problem):
    mrfs, schedule = problem
    mrfs = mrfs[:3]
    topo = mrfs[0].topology
    order = [v for block in schedule.blocks for v in block]
    blocks = _independent_blocks(topo, order)
    layers = [(m.unary, m.pairwise) for m in mrfs]
    q0 = row_softmax(mrfs[0].unary)

    def run(schedule):
        compiled = engine.compile_schedule(topo, schedule)
        return engine.run_unrolled(engine.layer_inputs(compiled, layers), q0, compiled)[0]

    parallel = run(Schedule(tuple(blocks)))
    sequential = run(sequential_schedule(tuple(order)))
    np.testing.assert_allclose(parallel, sequential, rtol=0, atol=1e-12)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 3), st.integers(1, 6)),
        elements=st.one_of(
            st.floats(-50.0, 50.0), st.sampled_from([-700.0, 700.0, -1e308, 1e308])
        ),
    )
)
def test_reduced_softmax_is_softmax_with_a_zero_row(a):
    """K = 2..4: the engine's softmax is `row_softmax` of rows (0, a), bit for
    bit, and neither raises a floating-point warning. Overflow is the q = 0
    limit; `run_unrolled` suppresses it once per pass, so it is ignored here,
    and any other floating-point error fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        full = row_softmax(np.vstack([np.zeros((1, a.shape[1])), a]).T).T
        with np.errstate(over="ignore", invalid="raise", divide="raise"):
            q = engine.reduced_softmax(a)
    np.testing.assert_array_equal(q, full[1:])
    assert np.all(np.isfinite(q)) and np.all((q >= 0) & (q <= 1))


@settings(max_examples=80, deadline=None)
@given(problems())
def test_steps_are_dependency_levels(problem):
    mrfs, schedule = problem
    topo = mrfs[0].topology
    compiled = engine.compile_schedule(topo, schedule)
    n = topo.n_vertices
    step_of = np.full(n, -1)
    for s, step in enumerate(compiled.steps):
        assert np.all(step_of[step.verts] == -1)
        step_of[step.verts] = s
    assert np.all(step_of >= 0)
    block_of, rank = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    order = [v for block in schedule.blocks for v in block]
    rank[order] = np.arange(n)
    for b, block in enumerate(schedule.blocks):
        block_of[list(block)] = b
        assert len(set(step_of[list(block)])) <= 1
    for u, v in topo.edges:
        if block_of[u] != block_of[v]:
            first, last = (u, v) if block_of[u] < block_of[v] else (v, u)
            assert step_of[first] < step_of[last]
    for step in compiled.steps:
        assert np.all(np.diff(rank[step.verts]) > 0)


@pytest.mark.parametrize("h, w", [(1, 1), (1, 6), (4, 1), (3, 5), (50, 100)])
def test_raster_compiles_to_anti_diagonals(h, w):
    topo = grid_graph(h, w)
    compiled = engine.compile_schedule(topo, engine.raster_schedule(h * w))
    assert len(compiled.steps) == h + w - 1
    for d, step in enumerate(compiled.steps):
        rows, cols = np.divmod(step.verts, w)
        assert np.all(rows + cols == d)


def test_checkerboard_compiles_to_its_two_blocks():
    schedule = engine.checkerboard_schedule(50, 100)
    compiled = engine.compile_schedule(grid_graph(50, 100), schedule)
    assert [tuple(step.verts) for step in compiled.steps] == list(schedule.blocks)


def test_sequential_along_a_path_compiles_to_one_step_per_vertex():
    n = 6
    topo = GraphTopology(n_vertices=n, edges=[(v, v + 1) for v in range(n - 1)])
    compiled = engine.compile_schedule(topo, engine.raster_schedule(n))
    assert [tuple(step.verts) for step in compiled.steps] == [(v,) for v in range(n)]


def test_edgeless_graph_compiles_to_one_step():
    topo = GraphTopology(n_vertices=5, edges=np.zeros((0, 2), dtype=np.int64))
    compiled = engine.compile_schedule(topo, sequential_schedule((3, 1, 4, 0, 2)))
    assert [tuple(step.verts) for step in compiled.steps] == [(3, 1, 4, 0, 2)]


def _frozen_copy(a):
    a = a.copy()
    a.flags.writeable = False
    return a


def _read_only_view(a):
    view = a.view()
    view.flags.writeable = False  # read-only, but its base can still change
    return view


@settings(max_examples=60, deadline=None)
@given(problems())
def test_stored_table_inputs_equal_fresh_ones(problem):
    mrfs, schedule = problem
    # Outside the compile cache, so the table store starts empty.
    compiled = engine.compile_schedule.__wrapped__(mrfs[0].topology, schedule)
    frozen = [(m.unary, _frozen_copy(m.pairwise)) for m in mrfs]
    views = [(u, _read_only_view(p)) for u, p in frozen]
    with operators_on_every_step():
        first = engine.layer_inputs(compiled, frozen)
        again = engine.layer_inputs(compiled, frozen)  # served from the store
        fresh = engine.layer_inputs(compiled, [(u.copy(), p.copy()) for u, p in frozen])
        rebuilt = [engine.layer_inputs(compiled, views) for _ in range(2)]
    for (u1, t1, o1), (u2, t2, o2), (u3, t3, o3), *built in zip(first, again, fresh, *rebuilt):
        assert t2 is t1 and not t1.flags.writeable and o2 is o1
        np.testing.assert_array_equal(u2, u3)
        np.testing.assert_array_equal(t2, t3)
        assert len(o1) == len(compiled.steps) and all(op is not None for op in o1)
        for ops in [o3] + [o for _, _, o in built]:
            for op, stored in zip(ops, o1):
                assert op is not stored
                np.testing.assert_array_equal(op.toarray(), stored.toarray())
        assert all(a is not b for a, b in zip(built[0][2], built[1][2]))


@settings(max_examples=60, deadline=None)
@given(problems())
def test_transposed_operators_are_built_on_the_first_reverse_pass(problem):
    """A taped forward builds no transpose; the first reverse pass builds
    each stored operator's transpose as CSR, kept with the table set."""
    mrfs, schedule = problem
    compiled = engine.compile_schedule.__wrapped__(mrfs[0].topology, schedule)
    layers = [(m.unary, _frozen_copy(m.pairwise)) for m in mrfs]
    with operators_on_every_step():
        inputs = engine.layer_inputs(compiled, layers)
    q0, tape = row_softmax(mrfs[0].unary), []
    engine.run_unrolled(inputs, q0, compiled, tape=tape)
    assert not any("transposed" in vars(ops) for _, _, ops in inputs)
    engine.backward_unrolled(compiled, tape, inputs, np.ones_like(q0))
    for (_, _, ops), (_, _, stored) in zip(inputs, engine.layer_inputs(compiled, layers)):
        assert stored is ops and "transposed" in vars(ops)
        for op, op_t in zip(ops, ops.transposed):
            assert op_t.format == "csr"
            np.testing.assert_array_equal(op_t.toarray(), op.toarray().T)


def test_stored_table_set_lives_as_long_as_its_array(rng):
    """No count bounds the store: every live read-only array keeps its
    table set, the store does not keep the array alive, and freeing the
    array drops its entry."""
    topo = GraphTopology(n_vertices=4, edges=[(0, 1), (1, 2), (2, 3)])
    compiled = engine.compile_schedule.__wrapped__(topo, engine.raster_schedule(4))
    store, unary = compiled._table_inputs, rng.normal(size=(4, 2))
    arrays = [_frozen_copy(rng.normal(size=(3, 2, 2))) for _ in range(9)]
    first = engine.layer_inputs(compiled, [(unary, p) for p in arrays])
    again = engine.layer_inputs(compiled, [(unary, p) for p in arrays])
    assert sorted(store) == sorted(map(id, arrays))
    assert all(b[1] is a[1] for a, b in zip(first, again))
    freed = weakref.ref(arrays.pop())
    assert freed() is None and len(store) == len(arrays)
    del arrays[:]
    assert not store


def test_table_store_skips_writable_arrays_and_read_only_views(rng):
    topo = GraphTopology(n_vertices=4, edges=[(0, 1), (1, 2), (2, 3)])
    compiled = engine.compile_schedule.__wrapped__(topo, engine.raster_schedule(4))
    unary = rng.normal(size=(4, 2))
    writable = rng.normal(size=(3, 2, 2))
    engine.layer_inputs(compiled, [(unary, writable), (unary, _read_only_view(writable))])
    engine.layer_inputs(compiled, [(unary, _read_only_view(_frozen_copy(writable)))])
    assert not compiled._table_inputs


def test_writable_pairwise_changed_in_place_is_not_served_stale(rng):
    topo = grid_graph(3, 4)
    compiled = engine.compile_schedule(topo, engine.checkerboard_schedule(3, 4))
    unary = rng.normal(size=(12, 2))
    pairwise = rng.normal(size=(topo.n_edges, 2, 2))
    q0 = row_softmax(unary)

    def run(pairwise):
        return engine.run_unrolled(engine.layer_inputs(compiled, [(unary, pairwise)]) * 2,
                                   q0, compiled)[0]

    before = run(pairwise)
    pairwise += 1.0
    after = run(pairwise)
    fresh = run(pairwise.copy())
    assert not np.array_equal(before, after)
    np.testing.assert_array_equal(after, fresh)


def _check_step_order(compiled):
    """The passes' site numbering: the stored order is a permutation whose
    inverse is `rank`, the steps' slices tile it in step order and hold
    their own `verts`, and each step's reads, mapped back, are the distinct
    neighbours its messages read, in original ids."""
    topo = compiled.topology
    n, order = topo.n_vertices, compiled.order
    np.testing.assert_array_equal(np.sort(order), np.arange(n))
    np.testing.assert_array_equal(compiled.rank[order], np.arange(n))
    assert [st.sites.start for st in compiled.steps] == [0] + [
        st.sites.stop for st in compiled.steps[:-1]]
    assert compiled.steps[-1].sites.stop == n
    for st in compiled.steps:
        assert st.sites.step is None
        np.testing.assert_array_equal(order[st.sites], st.verts)
        into = np.isin(topo.edges, st.verts)
        read = np.concatenate([topo.edges[into[:, 0], 1], topo.edges[into[:, 1], 0]])
        np.testing.assert_array_equal(order[st.reads], np.unique(read))


@settings(max_examples=80, deadline=None)
@given(problems())
def test_sites_are_numbered_in_step_order(problem):
    mrfs, schedule = problem
    _check_step_order(engine.compile_schedule(mrfs[0].topology, schedule))


@pytest.mark.parametrize("schedule_name", ["checkerboard", "raster"])
def test_grid_sites_are_numbered_in_step_order(schedule_name):
    schedule = (engine.checkerboard_schedule(50, 100) if schedule_name == "checkerboard"
                else engine.raster_schedule(5000))
    _check_step_order(engine.compile_schedule(grid_graph(50, 100), schedule))


def _check_message_order(compiled):
    """The one message order: grouped by step and, inside a step, sorted
    stably by target, so `pos` is non-decreasing and each target reads its
    messages into lower endpoints first, in edge order, then those into
    upper endpoints; each message's target and read site agree with its
    edge. At K = 2 a step's operator data is its table slice, a view of it
    when the step holds at least half the messages, as each checkerboard
    step does (scipy copies a view of less than half its base)."""
    topo = compiled.topology
    E, (lo, hi) = topo.n_edges, topo.edges.T
    np.testing.assert_array_equal(np.sort(compiled.message_of.ravel()), np.arange(2 * E))
    source = np.argsort(compiled.message_of.ravel())  # e, or E + e for the upper end
    target, read = np.concatenate([lo, hi])[source], np.concatenate([hi, lo])[source]
    layer = np.zeros((topo.n_vertices, 2)), np.arange(4.0 * E).reshape(E, 2, 2)
    with operators_on_every_step():
        ((_, tables, ops),) = engine.layer_inputs(compiled, [layer])
    for st, op in zip(compiled.steps, ops):
        pos, m = st.pos, source[st.msgs]
        assert np.all(np.diff(pos) >= 0)
        assert np.all((np.diff(pos) > 0) | (np.diff(m) > 0))
        np.testing.assert_array_equal(compiled.rank[target[st.msgs]], st.sites.start + pos)
        np.testing.assert_array_equal(st.reads[st.read_idx], compiled.rank[read[st.msgs]])
        mine = np.isin(topo.edges, st.verts)
        np.testing.assert_array_equal(np.sort(st.e_lo), np.flatnonzero(mine[:, 0]))
        np.testing.assert_array_equal(np.sort(st.e_hi), np.flatnonzero(mine[:, 1]))
        assert op.data.tobytes() == tables[:, :, st.msgs].tobytes()
        assert np.shares_memory(op.data, tables) == (pos.size > 0 and pos.size >= E)


@settings(max_examples=80, deadline=None)
@given(problems())
def test_messages_are_sorted_by_target_in_each_step(problem):
    mrfs, schedule = problem
    _check_message_order(engine.compile_schedule(mrfs[0].topology, schedule))


@pytest.mark.parametrize("schedule_name", ["checkerboard", "raster"])
def test_grid_messages_are_sorted_by_target_in_each_step(schedule_name):
    schedule = (engine.checkerboard_schedule(50, 100) if schedule_name == "checkerboard"
                else engine.raster_schedule(5000))
    compiled = engine.compile_schedule(grid_graph(50, 100), schedule)
    _check_message_order(compiled)
    if schedule_name == "checkerboard":
        assert [st.pos.size for st in compiled.steps] == [compiled.topology.n_edges] * 2


@pytest.mark.parametrize("schedule_name", ["checkerboard", "raster"])
def test_step_fields_the_benchmark_reads(schedule_name, monkeypatch):
    """A taped `mfn.forward`, and a chunk of images on the image axis,
    call `engine.block_activations` once per StepRecord, through the
    module attribute; the steps' `verts` count every site once and their
    `e_lo` and `e_hi` every message once."""
    h, w = 7, 9
    schedule = (engine.checkerboard_schedule(h, w) if schedule_name == "checkerboard"
                else engine.raster_schedule(h * w))
    calls = []
    inner = engine.block_activations

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(engine, "block_activations", counted)
    params = MfnParams.tied_from(theta0()).untied_copy(3)
    images = [np.random.default_rng(3 + i).random((h, w)) for i in range(3)]
    trace = forward(images[0], params, 3, schedule)
    assert len(calls) == len(trace.tape) == 3 * len(trace.compiled.steps)
    # No step of a 7x9 grid has a stored operator, so the three images run as one pass.
    calls.clear()
    [(chunk, batch)] = traced_chunks([(y, None) for y in images], params, 3, schedule)
    assert len(chunk) == 3 and batch.q_final.shape == (h * w, 2, 3)
    assert len(calls) == len(batch.tape) == 3 * len(batch.compiled.steps)
    assert all(rec.q_out_km.shape[2] == 3 for rec in batch.tape)
    steps, topo = trace.compiled.steps, trace.compiled.topology
    assert sum(st.verts.size for st in steps) == topo.n_vertices
    assert sum(st.e_lo.size + st.e_hi.size for st in steps) == 2 * topo.n_edges
