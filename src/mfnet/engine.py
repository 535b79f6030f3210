"""Shared execution engine for mean field sweeps and their unrolled form.

A `Schedule` is a tuple of blocks: every site update inside a block reads
the q values from before the block, and a sweep applies the blocks in order
(sequential order is the case of one-site blocks). Compiling a schedule
against a topology groups its blocks into dependency levels, as level
scheduling does for sparse triangular solves, and runs each level as one
block step: a block's level is one more than the highest level of any
earlier block it shares an edge with. Each site then reads exactly the
values the schedule gives it, so the forward pass is the same bit for bit;
a 50x100 raster sweep runs as 149 anti-diagonal steps instead of 5,000.

The same step loop runs plain mean field and the unrolled network; the
tape recorded here is what the reverse pass consumes.

Reduced form: a softmax ignores a constant added to a site's activations,
so the engine pins label 0's activation at 0 and carries only labels
1..K-1 (`reduced_layer` builds a layer's matching unary and message
tables, and reuses the tables of read-only pairwise arrays). For the
binary CRF this is the magnetization form of mean field,
q_s = sigmoid(h_s + sum_t (c_st + s_st q_t)). Callers still pass and
receive (n, K) arrays: label 0 of q0 is not read, since q0 is a
distribution; label 0 of a returned q is one minus the others; returned
activations are relative to label 0, so their column 0 is 0, and so is
column 0 of the reverse pass's gradient for q0.

Layout: inside the forward and reverse passes every per-site array is
label-major: q, unary potentials and their gradients are (K-1, n), message
tables are (K-1, K-1, 2E) and tape arrays are (K-1, rows). Table columns
are messages in step order, and inside a step sorted stably by target,
the compressed-sparse-row order; `message_of` maps edges to them, and
only this module reads it. The reverse pass returns (K-1, K-1, E) table
gradients in edge order, each edge's two message gradients summed, once per
layer from the layer's unary gradients and tape reads; `lift_gradients`
takes its gradients to the full arrays through ((K-1)^2 + 2(K-1), E) ones.
With K small and a block step touching thousands of sites, each softmax,
reduction and product then runs over long contiguous rows instead of a
short last axis. A step with at least `SPARSE_MIN_MESSAGES` messages sums
them with one stored CSR product: `_table_inputs` builds one (K-1)B x
(K-1)R operator per table set from the step's row pointers (its `pos`
counts), columns (`read_idx`) and table slice, so the forward builds
nothing per image. Smaller steps sum each label row's messages with one
`bincount` over the step's `BlockStep` indices. The reverse pass makes the
same choice for the gradient of a step's read sites: the product with the
operator's transpose (scipy's `op.T.tocsr()`, built on the table set's
first reverse pass and kept with it), or per-message products scattered
by `bincount`. Each kernel sums a row's terms from 0 in message order, so
at K = 2 the two agree bit for bit.

Image axis: the forward pass also runs N images at once that share one
layer stack's tables and operators, each with its own unary and q0. q0
is then (n, K, N), each layer's unary (K-1, n, N), and every per-site
array of the pass gains the trailing image axis: a step's message sum is
one product of its operator with N columns (scipy's `csr_matvecs`) or the
`bincount` kernel once per image, and each softmax runs over all N
images. Per image the product adds the same terms in the same order as
for one image, and the softmax is elementwise, so each image gets the
bits of its own run. The reverse pass and the tape stay one image.

Inside both passes the per-site arrays are in step order, the multicolour
ordering of Gauss-Seidel: `compile_schedule` numbers the sites in the
order the steps update them, so a step's own sites are one slice of q,
the unary and their gradients, and only its read sites are gathered. The
unary is built in step order; the passes permute only q0 and the output
gradients into step order on entry, and their outputs back to site order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Tuple

import numpy as np

from .mrf import GraphTopology

if TYPE_CHECKING:
    from scipy.sparse import csr_array


@dataclass(frozen=True)
class Schedule:
    """An update order: the blocks are applied in turn, and every site of a
    block reads the q values from before the block. Coordinate (sequential)
    mean field is the case of one-site blocks, `sequential_schedule`."""

    blocks: Tuple[Tuple[int, ...], ...]

    @cached_property
    def _hash(self) -> int:
        return hash(self.blocks)

    def __hash__(self) -> int:
        # Hashed once: the schedule keys `compile_schedule`'s cache.
        return self._hash


def sequential_schedule(order: Iterable[int]) -> Schedule:
    """Update the sites one at a time, in the given order."""
    return Schedule(tuple((v,) for v in order))


@lru_cache(maxsize=8)
def raster_schedule(n_vertices: int) -> Schedule:
    """Sites in index order; cached per size, as `checkerboard_schedule` is."""
    return sequential_schedule(range(n_vertices))


@lru_cache(maxsize=8)
def checkerboard_schedule(height: int, width: int) -> Schedule:
    """Two-block parity schedule for a 4-connected height x width grid.

    Cached per size: schedules are immutable, and callers that build one
    per image then share the compiled form without comparing block tuples.
    """
    idx = np.arange(height * width)
    parity = (idx // width + idx % width) % 2
    black = tuple(int(v) for v in idx[parity == 0])
    white = tuple(int(v) for v in idx[parity == 1])
    return Schedule((black, white))


def validate_schedule(topology: GraphTopology, schedule: Schedule) -> np.ndarray:
    """Check that the schedule updates every vertex exactly once; returns
    the vertices in update order."""
    n = topology.n_vertices
    seen = np.fromiter(chain.from_iterable(schedule.blocks), dtype=np.int64)
    if len(seen) != n:
        raise ValueError("schedule must cover every vertex exactly once")
    if seen.min() < 0 or seen.max() >= n:
        raise ValueError("schedule vertex out of range")
    if np.bincount(seen, minlength=n).max() != 1:
        raise ValueError("schedule must cover every vertex exactly once")
    return seen


@dataclass(frozen=True, eq=False)
class BlockStep:
    """One dependency level of a sweep and the directed messages into it.

    `verts` holds the original ids of the sites of every schedule block on
    the level, in schedule order; no edge joins two of those blocks, and all
    sites of the step read the q values from before it. In the passes' step
    order those sites are the range `sites`, block position b at
    `sites.start + b`.

    Every edge carries one message into each endpoint. Message d of this step
    reads site `reads[read_idx[d]]` (in step order) through oriented table
    `[:, :, msgs.start + d]` of the `reduced_layer` tables and adds into block
    position `pos[d]`. `pos` is non-decreasing, so the messages are in CSR
    order: `pos` gives the row pointers and `read_idx` the columns.
    """

    verts: np.ndarray     # (B,) original ids of the sites updated in this step
    sites: slice          # the same sites, in step order
    # Edges whose lower / upper endpoint is updated here, in message order;
    # the kernels use the message fields below, perfbench/layers.py counts
    # messages from these.
    e_lo: np.ndarray
    e_hi: np.ndarray
    msgs: slice           # this step's messages, in compiled message order
    pos: np.ndarray       # (M,) block position each message adds into, ascending
    reads: np.ndarray     # (R,) distinct sites the messages read, in step order
    read_idx: np.ndarray  # (M,) index of each message's read site in reads


# `_table_inputs` stores a step's message sum as one CSR product, built from
# the step's own fields and its slice of the tables, from this many messages
# up. Per call (K = 2, 2-core Xeon guest) the two kernels break even at
# 400-700 messages; a 9,850-message checkerboard step takes 15 instead of
# 35 us. Below that the product's call overhead and its build per table set
# lose; raster steps on a 50x100 grid have at most 200 messages.
SPARSE_MIN_MESSAGES = 400


@dataclass(frozen=True, eq=False)
class CompiledSchedule:
    topology: GraphTopology
    steps: Tuple[BlockStep, ...]
    # (2, E) the one map between edges and messages: the position, in step
    # order, of the message into the lower (row 0) / upper (row 1) end of edge e.
    message_of: np.ndarray
    # (n,) the sites in step order, as the passes number them, and (n,) the
    # inverse: the position of each site in that order.
    order: np.ndarray
    rank: np.ndarray
    # (2, E) for the message into the lower (row 0) / upper (row 1) end of
    # edge e: that end's position in step order, and the position of the site
    # the message reads in every step's `reads` side by side, the order of a
    # layer's tape reads.
    targets: np.ndarray
    read_pos: np.ndarray
    _table_inputs: dict = field(default_factory=dict, repr=False)


def _block_levels(block_of: np.ndarray, edges: np.ndarray, n_blocks: int) -> np.ndarray:
    """Dependency level of each block: one more than the highest level of any
    earlier block it shares an edge with, 0 when there is none."""
    a, b = block_of[edges[:, 0]], block_of[edges[:, 1]]
    cross = a != b
    # Distinct (later block, earlier block) pairs, grouped by the later block.
    pairs = np.unique(np.maximum(a, b)[cross] * n_blocks + np.minimum(a, b)[cross])
    early = (pairs % n_blocks).tolist()
    bounds = np.searchsorted(pairs // n_blocks, np.arange(n_blocks + 1)).tolist()
    level = [0] * n_blocks
    for blk in range(n_blocks):
        lo, hi = bounds[blk], bounds[blk + 1]
        if lo < hi:
            level[blk] = 1 + max(map(level.__getitem__, early[lo:hi]))
    return np.array(level, dtype=np.int64)


@lru_cache(maxsize=64)
def compile_schedule(topology: GraphTopology, schedule: Schedule) -> CompiledSchedule:
    seen = validate_schedule(topology, schedule)
    n, E = topology.n_vertices, topology.n_edges
    sizes = np.fromiter(map(len, schedule.blocks), dtype=np.int64)
    block_of = np.empty(n, dtype=np.int64)
    block_of[seen] = np.repeat(np.arange(sizes.size), sizes)
    # One step per dependency level: every neighbour a site reads sits on a
    # lower level when the schedule updates it earlier, on a higher one when
    # later, and on the same one only inside the site's own block.
    step_of = _block_levels(block_of, topology.edges, sizes.size)[block_of]
    n_steps = int(step_of.max()) + 1
    verts = seen[np.argsort(step_of[seen], kind="stable")]
    counts = np.bincount(step_of, minlength=n_steps)
    v_start = np.concatenate([[0], np.cumsum(counts)])
    rank = np.empty(n, dtype=np.int64)
    rank[verts] = np.arange(n)

    # All 2E messages, sorted stably by the step-order rank of their target:
    # grouped by step, and in CSR order over each step's block positions.
    # Each target keeps its messages into lower endpoints first, in edge order.
    lo, hi = topology.edges[:, 0], topology.edges[:, 1]
    target, read = np.concatenate([lo, hi]), np.concatenate([hi, lo])
    order = np.argsort(rank[target], kind="stable")
    m_step = step_of[target[order]]
    m_start = np.searchsorted(m_step, np.arange(n_steps + 1))
    pos = rank[target[order]] - v_start[m_step]
    # Distinct read sites per step, from one sort of (step, read site) keys.
    keys, inverse = np.unique(m_step * n + read[order], return_inverse=True)
    r_start = np.searchsorted(keys // n, np.arange(n_steps + 1))
    reads = rank[keys % n]
    read_idx = inverse.reshape(-1) - r_start[m_step]

    v_start, m_start, r_start = (a.tolist() for a in (v_start, m_start, r_start))
    steps = tuple(
        BlockStep(
            verts=verts[v_start[i] : v_start[i + 1]],
            sites=slice(v_start[i], v_start[i + 1]),
            e_lo=order[m][order[m] < E],
            e_hi=order[m][order[m] >= E] - E,
            msgs=m,
            pos=pos[m],
            reads=reads[r_start[i] : r_start[i + 1]],
            read_idx=read_idx[m],
        )
        for i, m in enumerate(map(slice, m_start[:-1], m_start[1:]))
    )
    message_of = np.argsort(order).reshape(2, E)
    targets, read_pos = rank[topology.edges.T], inverse.reshape(-1)[message_of]
    for a in (verts, rank, targets, read_pos):
        a.flags.writeable = False
    return CompiledSchedule(topology, steps, message_of, verts, rank, targets, read_pos)


@lru_cache(maxsize=None)
def _table_map(K: int) -> np.ndarray:
    """((K-1)^2 + 2(K-1), K*K) map from a flat K x K edge table P to its
    flat reduced table R P R^T, then the message constants of its lower
    endpoint (R P[:, 0]) and of its upper endpoint (R P[0, :]), where R v =
    (v_k - v_0 for k >= 1). Its transpose pulls gradients on those back to P."""
    R, e0 = np.hstack([-np.ones((K - 1, 1)), np.eye(K - 1)]), np.eye(K)[:1]
    W = np.vstack([np.kron(R, R), np.kron(R, e0), np.kron(e0, R)])
    W.flags.writeable = False
    return W


TABLE_STORE_SIZE = 4  # per compiled schedule; an untied 3-layer network uses 3


def _step_operator(st: BlockStep, tables: np.ndarray) -> csr_array:
    """The message sum of a step, as a (K-1)B x (K-1)R matrix on label-major
    flattened q columns: row k*B + b holds, message by message in step
    order and then by read label l, the table entries T'[k, l] of every
    message into block position b. The step's messages are sorted by `pos`,
    so `pos` counts give the row pointers, `read_idx` the columns and its
    table slice the data: at K = 2 a view of the tables, which scipy keeps
    when the step holds at least half the messages (each checkerboard step)."""
    # Imported here: a run whose steps are all small never loads scipy.sparse.
    from scipy.sparse import csr_array

    K1, B, M = len(tables), st.sites.stop - st.sites.start, st.pos.size
    indptr = np.zeros(B + 1, dtype=np.int32)
    np.cumsum(np.bincount(st.pos, minlength=B), out=indptr[1:])
    cols = st.read_idx.astype(np.int32)
    data = tables[:, :, st.msgs].swapaxes(1, 2).reshape(-1)
    cols = np.tile((cols[:, None] + st.reads.size * np.arange(K1, dtype=np.int32)).ravel(), K1)
    ends = K1 * indptr[1:] + (K1 * M * np.arange(K1, dtype=np.int32))[:, None]
    indptr = np.concatenate([indptr[:1], ends.ravel()])
    return csr_array((data, cols, indptr), shape=(K1 * B, K1 * st.reads.size))


class StepOperators(tuple):
    """The stored operator of each step of a table set (`_step_operator`,
    None for steps with fewer than SPARSE_MIN_MESSAGES messages). Their
    transposes, `transposed`, are scipy's CSR ones, built on the table
    set's first reverse pass and kept with it, so forward-only runs build
    none."""

    @cached_property
    def transposed(self) -> tuple:
        return tuple(None if op is None else op.T.tocsr() for op in self)


def _table_inputs(compiled: CompiledSchedule, pairwise: np.ndarray) -> tuple:
    """The image-free part of `reduced_layer`: message constants summed into
    their targets (K-1, n) in step order, the reduced tables, and each
    step's operator (`StepOperators`). Stored for read-only arrays that own
    their data, holding each so its id is not reused; others are rebuilt."""
    store, key = compiled._table_inputs, id(pairwise)
    frozen = not pairwise.flags.writeable and pairwise.base is None
    if frozen and key in store:
        return store[key][1]
    n, E, K = compiled.topology.n_vertices, compiled.topology.n_edges, pairwise.shape[-1]
    K1 = K - 1
    parts = _table_map(K) @ np.reshape(pairwise, (E, K * K)).T
    # Per label row: the constants into each edge's lower endpoint, then its upper one.
    lower, upper = parts[K1 * K1 : K1 * K], parts[K1 * K :]
    targets = compiled.targets.ravel()
    const = np.empty((K1, n))
    for k in range(K1):
        const[k] = np.bincount(targets, np.concatenate([lower[k], upper[k]]), minlength=n)
    # The message into an edge's upper endpoint reads its table transposed.
    R = parts[: K1 * K1].reshape(K1, K1, E)
    tables = np.empty((K1, K1, 2 * E))
    tables[:, :, compiled.message_of.ravel()] = np.concatenate([R, R.swapaxes(0, 1)], axis=2)
    ops = StepOperators(_step_operator(st, tables) if st.pos.size >= SPARSE_MIN_MESSAGES
                        else None for st in compiled.steps)
    out = const, tables, ops
    if frozen:
        for a in (const, tables):
            a.flags.writeable = False
        if len(store) >= TABLE_STORE_SIZE:
            del store[next(iter(store))]
        store[key] = (pairwise, out)
    return out


def reduced_layer(
    compiled: CompiledSchedule, unary1: np.ndarray, pairwise: np.ndarray
) -> tuple:
    """One layer's engine input, label-major and in step order: (unary
    (K-1, n), tables (K-1, K-1, 2E), step operators), from its reduced
    unary `unary1` (K-1, n), u_k - u_0 for labels k >= 1 in site order,
    and its (E, K, K) pairwise array. A (K-1, n, N) `unary1`, one column
    per image, gives a (K-1, n, N) unary with the same tables.

    With q_0 = 1 - sum_{l>=1} q_l, a message through table T adds
    T[k,0] - T[0,0] + sum_{l>=1} T'[k,l] q_l to a_k - a_0, where
    T'[k,l] = T[k,l] - T[0,l] - T[k,0] + T[0,0]. The tables hold T' in
    `compiled.message_of` order, transposed for messages into an upper
    endpoint (the reduction commutes with transposition); the constants
    are summed into each message's target, on top of `unary1`. Only
    `unary1` depends on the image; `_table_inputs` reuses the rest, the
    tables' step operators included.
    """
    const, tables, ops = _table_inputs(compiled, pairwise)
    const = const.reshape(const.shape + (1,) * (np.ndim(unary1) - 2))
    return unary1.take(compiled.order, axis=1) + const, tables, ops


def layer_inputs(
    compiled: CompiledSchedule, layers: Sequence[Tuple[np.ndarray, np.ndarray]]
) -> list:
    """The `reduced_layer` of each (unary (n, K), pairwise (E, K, K)) pair;
    a unary of N images is (n, K, N)."""
    full = [(np.swapaxes(np.asarray(u, dtype=np.float64), 0, 1), p) for u, p in layers]
    return [reduced_layer(compiled, u[1:] - u[0], p) for u, p in full]


def block_activations(
    unary: np.ndarray,
    tables: np.ndarray,
    st: BlockStep,
    q_read: np.ndarray,
    op: Optional[csr_array] = None,
) -> np.ndarray:
    """Reduced activations (K-1, B) for the block's sites, given their rows
    of its layer's `reduced_layer` unary, (K-1, B), the layer's tables and
    step operator `op`, and the reduced q columns of the step's read sites,
    (K-1, R). With an operator the message sums are one product with the
    flattened q columns; without, each label row sums its messages into the
    block with one `bincount` over `st.pos`. Either way each activation is
    the unary plus its message sum, one addition.

    With an image axis, unary (K-1, B, N) and q_read (K-1, R, N), the
    product takes the N columns at once; the `bincount` kernel runs once
    per image."""
    if op is not None:
        q_cols = q_read.reshape(op.shape[1], *unary.shape[2:])
        return unary + (op @ q_cols).reshape(unary.shape)
    if unary.ndim == 3:
        cols = [
            block_activations(unary[..., i], tables, st, q_read[..., i])
            for i in range(unary.shape[2])
        ]
        return np.stack(cols, axis=2)
    tab, q_msg = tables[:, :, st.msgs], q_read.take(st.read_idx, axis=1)
    # At K = 2 a loop over the K-1 read labels beats einsum (9 vs 13 us for
    # a 9,850-message step).
    msg = tab[:, 0] * q_msg[0]
    for l in range(1, len(q_msg)):
        msg += tab[:, l] * q_msg[l]
    a = np.empty(unary.shape)
    for k in range(len(a)):
        np.add(unary[k], np.bincount(st.pos, msg[k], minlength=a.shape[1]), out=a[k])
    return a


def reduced_softmax(a: np.ndarray) -> np.ndarray:
    """Probabilities of labels 1..K-1 from reduced activations (K-1, B), the
    softmax with label 0's activation pinned at 0: q_k = 1 / (e^{-a_k} +
    sum_{l=1}^{K-1} e^{a_l - a_k}), summed in label order with the l = k
    term exactly 1.0. That is `mrf.row_softmax`'s form and order with a_0 =
    0, so the two agree bit for bit. Each sum is at least 1, so finite input
    gives no NaN; a term that overflows (a_k < -709) gives q_k = 0, its
    limit, and `run_unrolled` silences that overflow once per pass."""
    q = np.negative(a)
    np.exp(q, out=q)
    for k, a_k in enumerate(a):
        for l, a_l in enumerate(a):
            q[k] += 1.0 if l == k else np.exp(a_l - a_k)
    return np.divide(1.0, q, out=q)


@dataclass(frozen=True, eq=False)
class StepRecord:
    """One block step of a taped forward run: what the reverse pass reads.
    Rows are labels 1..K-1; label 0's probability is one minus their sum."""

    q_read_km: np.ndarray  # (K-1, R) q of the step's read sites
    q_out_km: np.ndarray   # (K-1, B) q the step wrote


def _full(first, rest: np.ndarray) -> np.ndarray:
    """(n, K) array, or (n, K, N) from a (K-1, n, N) `rest`: column 0 is
    `first`, columns 1.. the rows of `rest`."""
    out = np.empty((rest.shape[1], rest.shape[0] + 1, *rest.shape[2:]))
    out[:, 0] = first
    out[:, 1:] = np.swapaxes(rest, 0, 1)
    return out


def run_unrolled(
    layers: list,
    q0: np.ndarray,
    compiled: CompiledSchedule,
    tape: Optional[list] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Apply one sweep per layer, starting from q0 (n, K); returns the final
    q and the last layer's activations relative to label 0 (column 0 is
    all zeros), as contiguous (n, K) arrays (zeros when there are no
    layers). A q0 of N images, (n, K, N), runs them at once on layers
    whose unaries are (K-1, n, N), and returns (n, K, N) arrays; each
    image's columns are the bits of its own run.

    Only labels 1..K-1 of q0 are read: q0 is a distribution, so label 0 is
    one minus their sum, and so is column 0 of every q returned.

    `layers` holds the `reduced_layer` input of each sweep, (unary,
    tables, step operators) triples in step order; plain mean field
    passes the same triple M times.
    If `tape` is a list, one StepRecord per block step is appended for
    the reverse pass, which takes one image.

    A softmax term, or an activation before the last layer, that overflows
    is a limit, not an error, and raises no warning. Raises
    FloatingPointError when the final q or the last layer's activations
    are not finite.
    """
    q = np.swapaxes(np.asarray(q0, dtype=np.float64), 0, 1)[1:].take(compiled.order, axis=1)
    a_final = np.zeros_like(q)
    # Once per pass, not per step: entering errstate costs about 1 us.
    with np.errstate(over="ignore"):
        for m, (unary, tables, ops) in enumerate(layers):
            last = m == len(layers) - 1
            for st, op in zip(compiled.steps, ops):
                # `take` copies, so the tape can keep this read as it is.
                q_read = q.take(st.reads, axis=1)
                a = block_activations(unary[:, st.sites], tables, st, q_read, op)
                q_new = reduced_softmax(a)
                if tape is not None:
                    tape.append(StepRecord(q_read, q_new))
                q[:, st.sites] = q_new
                if last:
                    a_final[:, st.sites] = a
    if not np.all(np.isfinite(q)):
        raise FloatingPointError("mean field produced non-finite marginals")
    if not np.all(np.isfinite(a_final)):
        raise FloatingPointError("mean field produced non-finite activations")
    q, a_final = q.take(compiled.rank, axis=1), a_final.take(compiled.rank, axis=1)
    return _full(1.0 - q.sum(axis=0), q), _full(0.0, a_final)


def backward_unrolled(
    compiled: CompiledSchedule,
    tape: Sequence[StepRecord],
    inputs: list,
    gq_final: Optional[np.ndarray] = None,
    ga_final: Optional[np.ndarray] = None,
):
    """Reverse pass through a recorded forward run.

    `tape` and `inputs` (its StepRecords and `reduced_layer` inputs) are
    all it reads of the forward; they fix the layer count and K.
    `gq_final` (n, K) is the loss gradient with respect to the final q values;
    `ga_final` (n, K) is a loss gradient applied directly to each site's
    final activations (bypassing the closing softmax; column 0 is not
    read, as the forward pins it at 0). Either or both may be given.

    Returns the gradients with respect to the reduced inputs, label-major:
    (dunary_layers, dtables_layers, gq0), a (K-1, n) unary gradient and a
    (K-1, K-1, E) table gradient per layer in edge order (each edge's two
    message gradients summed, the one into its upper end transposed), and
    the (K-1, n) gradient with respect to labels 1..K-1 of q0 (label 0 is
    not read). `lift_gradients` pulls a layer's gradients back to its
    (n, K) unary and (E, K, K) pairwise arrays.
    """
    n_layers, n_steps = len(inputs), len(compiled.steps)
    if not inputs:
        raise ValueError("the reverse pass needs at least one layer")
    if len(tape) != n_layers * n_steps:
        raise ValueError("tape length does not match layers and schedule")
    n, order, K1 = compiled.topology.n_vertices, compiled.order, inputs[0][0].shape[0]
    # A sweep updates every site once, so each entry is written once per layer.
    dunary, dtables = [np.empty((K1, n)) for _ in range(n_layers)], [None] * n_layers
    # Column 0 of the output q is one minus the others.
    g = None if gq_final is None else np.transpose(np.asarray(gq_final, dtype=np.float64))
    gq = np.zeros((K1, n)) if g is None else (g[1:] - g[:1]).take(order, axis=1)
    ga = np.transpose(ga_final)[1:].take(order, axis=1) if ga_final is not None else None
    for m in range(n_layers - 1, -1, -1):
        _, tables, ops = inputs[m]
        records, du = tape[m * n_steps : (m + 1) * n_steps], dunary[m]
        ga_m = ga if m == n_layers - 1 else None
        for st, rec, op_t in zip(compiled.steps[::-1], records[::-1], ops.transposed[::-1]):
            g_b, qo = gq[:, st.sites], rec.q_out_km
            dot = g_b[0] * qo[0]
            for k in range(1, K1):
                dot += g_b[k] * qo[k]
            da = qo * (g_b - dot)
            if ga_m is not None:
                da += ga_m[:, st.sites]
            du[:, st.sites] = da
            gq[:, st.sites] = 0.0
            # The read sites' gradient, through the forward's kernel choice;
            # row by row, as one 2-D indexed add takes twice the time.
            if op_t is not None:
                g_read = (op_t @ da.reshape(-1)).reshape(K1, -1)
                for k in range(K1):
                    gq[k][st.reads] += g_read[k]
                continue
            da_msg, tab = da.take(st.pos, axis=1), tables[:, :, st.msgs]
            g_msg = tab[0] * da_msg[0]
            for k in range(1, K1):
                g_msg += tab[k] * da_msg[k]
            for k in range(K1):
                gq[k][st.reads] += np.bincount(st.read_idx, g_msg[k], minlength=st.reads.size)
        # Each message's table gradient is da[target] times the q it read; an
        # edge sums its two, the one into its upper end transposed.
        q_read = np.concatenate([rec.q_read_km for rec in records], axis=1)
        da_e = du.take(compiled.targets, axis=1)
        q_e = q_read.take(compiled.read_pos, axis=1)
        dtables[m] = da_e[:, None, 0] * q_e[None, :, 0]
        dtables[m] += q_e[:, None, 1] * da_e[None, :, 1]
    rank = compiled.rank
    return [d.take(rank, axis=1) for d in dunary], dtables, gq.take(rank, axis=1)


def lift_gradients(
    compiled: CompiledSchedule, dunary: np.ndarray, dtables: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """One layer's `backward_unrolled` gradients, pulled back through the
    transpose of the `reduced_layer` reduction to its (n, K) unary and
    (E, K, K) pairwise arrays.

    One label-major ((K-1)^2 + 2(K-1), E) array holds each edge's
    reduced-table gradient, the rows of the edge-ordered `dtables`, and the
    unary gradients at its endpoints; `_table_map(K).T` takes it to (K*K, E).
    """
    K1, E = len(dunary), compiled.topology.n_edges
    WT, ends, KK = _table_map(K1 + 1).T, compiled.topology.edges.T, K1 * K1
    g = np.empty((KK + 2 * K1, E))
    g[:KK] = dtables.reshape(KK, E)
    for s, k in np.ndindex(2, K1):  # one row at a time: no (2, E) temporaries
        np.take(dunary[k], ends[s], out=g[KK + s * K1 + k])
    dpair = (WT @ g).T.reshape(E, K1 + 1, K1 + 1)
    return _full(0.0 - dunary.sum(axis=0), dunary), dpair
