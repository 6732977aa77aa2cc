"""Compiled TM engine: packed states, interned views, memoized rows.

The naive explorer re-derives everything from tuples-of-frozensets on
every visit: each node is a deep composite ``(state, pending)`` tuple
that gets re-hashed at every dedup check, and ``tm.transitions`` is
re-run for every (node, command) pair even though nodes sharing a TM
state share all of their command transitions.  Explicit-state model
checkers win exactly here, with compact state encodings and cached
successor computation; this module applies both ideas to the paper's
TM algorithms:

* **interned thread views** — each per-thread view (e.g. DSTM's
  ``(status, rs, os)``) is bit-packed by a :class:`ViewCodec` (status
  index plus ``k``-bit masks for the read/write/ownership sets) and
  interned into a dense small id;
* **packed states** — a whole TM state is a single int with one
  fixed-width view-id digit per thread, and an explorer node adds the
  pending vector as base-``|C|+1`` digits, so every dict key on the hot
  path is a machine-word int;
* **memoized transition rows** — ``tm.transitions`` results are cached
  per ``(packed_state, thread, command)``, so nodes that differ only in
  their pending vectors share successor computations, and repeated runs
  (e.g. the two Table 2 properties of one TM) recompute nothing.

:class:`CompiledTM` keeps the ``initial_state``/``transitions`` contract
of :class:`~repro.tm.algorithm.TMAlgorithm` and adds the packed-node API
(``encode_node``/``decode_node``/``node_row``/``expand``) that
:mod:`repro.tm.explore` and the checking pipelines use.  Algorithms
without a registered codec (e.g. :class:`~repro.tm.compose.ManagedTM`,
whose state carries a manager component) fall back to interning whole
states — the row memoization and int-keyed BFS still apply.

The engine is exact: iteration orders are preserved everywhere, so the
compiled paths produce byte-identical verdicts, counterexamples, node
orders and edge lists to the naive paths (pinned by the differential
tests in ``tests/tm/test_compiled.py``).
"""

from __future__ import annotations

from array import array
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..automata.kernel import DenseAdjacency, DenseCSR
from ..cache import (
    is_int_vector,
    load_payload,
    narrow_int_vector,
    save_payload,
)
from ..core.statements import Command, Kind, Statement
from .algorithm import ABORT_EXT, Ext, Resp, TMAlgorithm, TMState, Transition

#: Stable integer codes for :class:`Resp` in persisted node rows.
_RESP_OF_CODE = (Resp.BOT, Resp.ABORT, Resp.DONE)
_RESP_CODE = {resp: code for code, resp in enumerate(_RESP_OF_CODE)}


# ----------------------------------------------------------------------
# View codecs: per-thread views <-> fixed-width packed ints
# ----------------------------------------------------------------------


class ViewCodec(NamedTuple):
    """Bijective packing of one thread view into a ``width``-bit int."""

    width: int
    pack: Callable[[Hashable], int]
    unpack: Callable[[int], Hashable]


def pack_varset(vars_: FrozenSet[int]) -> int:
    """A set of 1-based variables as a k-bit mask (variable v = bit v-1)."""
    mask = 0
    for v in vars_:
        mask |= 1 << (v - 1)
    return mask


def unpack_varset(mask: int) -> FrozenSet[int]:
    """Inverse of :func:`pack_varset`."""
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return frozenset(out)


def status_mask_codec(
    k: int, statuses: Optional[Sequence[Hashable]], num_sets: int
) -> ViewCodec:
    """Codec for the paper's view shape: optional status + variable sets.

    Packs a view ``(status, set_1, ..., set_m)`` — or just
    ``(set_1, ..., set_m)`` when ``statuses`` is ``None`` — as the status
    index in the low bits followed by one ``k``-bit mask per set.
    """
    if statuses:
        status_list = tuple(statuses)
        sbits = max(1, (len(status_list) - 1).bit_length())
        sindex = {s: i for i, s in enumerate(status_list)}
    else:
        status_list = ()
        sbits = 0
        sindex = {}
    width = sbits + num_sets * k
    kmask = (1 << k) - 1
    smask = (1 << sbits) - 1

    def pack(view: Hashable) -> int:
        if status_list:
            bits = sindex[view[0]]  # type: ignore[index]
            sets = view[1:]  # type: ignore[index]
        else:
            bits = 0
            sets = view
        shift = sbits
        for s in sets:
            bits |= pack_varset(s) << shift
            shift += k
        return bits

    def unpack(bits: int) -> Hashable:
        parts: List[Hashable] = []
        if status_list:
            parts.append(status_list[bits & smask])
            bits >>= sbits
        for _ in range(num_sets):
            parts.append(unpack_varset(bits & kmask))
            bits >>= k
        return tuple(parts)

    return ViewCodec(width, pack, unpack)


# ----------------------------------------------------------------------
# The compiled engine
# ----------------------------------------------------------------------

#: One explorer transition from a packed node:
#: ``(thread_index, command_index, ext, resp, packed_successor_node)``.
NodeTransition = Tuple[int, int, Ext, Resp, int]

#: Integer statement id marking an internal ε-move in all-int safety
#: rows (real statement ids are >= 0).
EPSILON_ID = -1


class CompiledTM:
    """A :class:`TMAlgorithm` compiled to packed-int states.

    Construct via :func:`compile_tm` to share one engine (and its memo
    tables) across every check on the same algorithm instance.
    """

    def __init__(self, tm: TMAlgorithm) -> None:
        self.tm = tm
        self.n = tm.n
        self.k = tm.k
        self.name = tm.name
        self._commands: Tuple[Command, ...] = tm.commands()
        self._ncmds = len(self._commands)
        self._cmd_index = {c: i for i, c in enumerate(self._commands)}
        self._pend_base = self._ncmds + 1
        self._pend_span = self._pend_base ** tm.n
        self._pend_pow = tuple(self._pend_base ** i for i in range(tm.n))
        self._all_cmd_indices = tuple(range(self._ncmds))

        self._codec = tm.view_codec()
        # Exclusive upper bound on packed states/nodes: with a codec the
        # digit widths bound every packed value a priori; the fallback
        # path interns dense state ids, bounded far beyond any feasible
        # exploration (guarded at intern time).  ``node_span`` lets
        # product checkers encode (node, spec) pairs as single ints; it
        # is rounded up to a power of two so pair decomposition is a
        # shift/mask instead of a divmod.
        if self._codec is None:
            self._state_span = 1 << 48
        else:
            self._state_span = 1 << (self._codec.width * tm.n)
        self.node_span = 1 << (
            (self._state_span * self._pend_span - 1).bit_length()
        )
        # View table: view -> dense id; dense id -> view.  On the
        # fallback path the "views" are whole TM states.
        self._view_ids: Dict[Hashable, int] = {}
        self._views: List[Hashable] = []
        # Parallel tables over the *codec bit-packing* of each view: the
        # process-stable encoding used to persist the intern table and
        # dense tables (dense ids are assigned in discovery order and so
        # differ across processes; codec bits do not).  Unused on the
        # fallback path.
        self._view_bits: List[int] = []
        self._bits_ids: Dict[int, int] = {}
        # ``transitions`` may be overridden (e.g. ManagedTM); only the
        # base implementation can be decomposed into progress/φ/abort
        # without allocating Transition wrappers.
        self._generic_transitions = (
            type(tm).transitions is TMAlgorithm.transitions
        )
        self._decoded_states: Dict[int, TMState] = {}
        self._decoded_nodes: Dict[int, Tuple[TMState, tuple]] = {}

        # Memo tables (the whole point of the engine).
        self._cmd_rows: Dict[int, Tuple[Tuple[Ext, Resp, int], ...]] = {}
        self._node_rows: Dict[int, Tuple[NodeTransition, ...]] = {}
        self._safety_rows: Dict[int, tuple] = {}
        self._safety_rows_ids: Dict[int, tuple] = {}
        self._live_labels: Dict[Tuple[int, Ext, Resp], object] = {}
        self._dirty = False
        # Safety rows restored by the last successful load_warm: the
        # delta against len(_safety_rows_ids) is the number of rows this
        # process actually *built* — the serve layer's resident-tier
        # hit signal (0 on a fully warm request).
        self._warm_safety_rows = 0

        # The dense layer: per-(side, property) product CSR tables
        # (:class:`repro.automata.kernel.DenseCSR`) and the liveness node
        # adjacency.
        self._dense: Dict[Tuple[str, str], DenseCSR] = {}
        self._dense_adj: Optional[DenseAdjacency] = None
        self._adj_dirty = False

        # Interned observable labels for the safety view, plus their
        # integer statement ids — the index into
        # ``statements(n, k, include_abort=True)``, shared with the
        # compiled spec oracle (:mod:`repro.spec.compiled`).
        self._done_stmt = tuple(
            tuple(Statement(c.kind, c.var, t) for c in self._commands)
            for t in range(1, tm.n + 1)
        )
        self._abort_stmt = tuple(
            Statement(Kind.ABORT, None, t) for t in range(1, tm.n + 1)
        )
        stride = self._ncmds + 1  # per-thread statement block incl. abort
        self._done_sym = tuple(
            tuple(ti * stride + ci for ci in range(self._ncmds))
            for ti in range(tm.n)
        )
        self._abort_sym = tuple(
            ti * stride + self._ncmds for ti in range(tm.n)
        )
        #: ``_symbols[sym_id]`` is the Statement with that id.
        self._symbols: Tuple[Statement, ...] = tuple(
            stmt
            for ti in range(tm.n)
            for stmt in (self._done_stmt[ti] + (self._abort_stmt[ti],))
        )

    @property
    def symbols(self) -> Tuple[Statement, ...]:
        """The canonical statement-id table: ``symbols[sym_id]`` is the
        Statement with that id (the id space of :meth:`safety_row_ids`,
        shared with the compiled spec layer)."""
        return self._symbols

    # ------------------------------------------------------------------
    # State packing
    # ------------------------------------------------------------------

    def _intern_view(self, view: Hashable) -> int:
        """Pack ``view`` to its k-bit-mask bits and assign a dense id.

        Dense ids stay below the number of distinct packed values, so
        ``width`` bits always suffice for a state digit — provided the
        codec really is a ``width``-bit bijection, which is checked here
        (once per distinct view) so a faulty custom codec fails loudly
        instead of silently corrupting packed states.
        """
        codec = self._codec
        bits = codec.pack(view)  # type: ignore[union-attr]
        if bits >> codec.width or codec.unpack(bits) != view:
            raise ValueError(
                f"{self.name}: view codec is not a {codec.width}-bit"
                f" bijection on {view!r} (packed to {bits:#x})"
            )
        vid = len(self._views)
        self._view_ids[view] = vid
        self._views.append(view)
        self._view_bits.append(bits)
        self._bits_ids[bits] = vid
        return vid

    def encode_state(self, state: TMState) -> int:
        """The packed int of a raw TM state (interning new views)."""
        codec = self._codec
        view_ids = self._view_ids
        if codec is None:
            packed = view_ids.get(state)
            if packed is None:
                packed = len(self._views)
                if packed >= self._state_span:
                    raise RuntimeError(
                        f"{self.name}: interned more than"
                        f" {self._state_span} states"
                    )
                view_ids[state] = packed
                self._views.append(state)
                self._decoded_states[packed] = state
            return packed
        width = codec.width
        packed = 0
        shift = 0
        for view in state:  # type: ignore[union-attr]
            vid = view_ids.get(view)
            if vid is None:
                vid = self._intern_view(view)
            packed |= vid << shift
            shift += width
        return packed

    def decode_state(self, packed: int) -> TMState:
        """Inverse of :func:`encode_state` (memoized)."""
        state = self._decoded_states.get(packed)
        if state is None:
            codec = self._codec
            assert codec is not None  # fallback path always pre-populates
            views = self._views
            mask = (1 << codec.width) - 1
            width = codec.width
            p = packed
            out = []
            for _ in range(self.n):
                out.append(views[p & mask])
                p >>= width
            state = tuple(out)
            self._decoded_states[packed] = state
        return state

    def _encode_successor(
        self, packed_pred: int, pred: TMState, succ: TMState
    ) -> int:
        """Packed int of ``succ``, re-packing only the changed digits.

        TM ``progress``/``abort_reset`` implementations build successor
        tuples by splicing new views into the predecessor tuple, so most
        per-thread views are the *same objects*; their digits are copied
        from ``packed_pred`` without any dict lookup.  Views that fail
        the identity test go through the normal intern table — new views
        are interned in thread order, exactly as a full
        :meth:`encode_state` would have, so dense ids (and therefore all
        packed values) are byte-identical to full re-encoding.
        """
        if succ is pred:
            return packed_pred
        codec = self._codec
        if codec is None:
            return self.encode_state(succ)
        width = codec.width
        digit_mask = (1 << width) - 1
        view_ids = self._view_ids
        packed = packed_pred
        shift = 0
        for i, view in enumerate(succ):  # type: ignore[union-attr]
            if view is not pred[i]:  # type: ignore[index]
                vid = view_ids.get(view)
                if vid is None:
                    vid = self._intern_view(view)
                packed = (packed & ~(digit_mask << shift)) | (vid << shift)
            shift += width
        return packed

    def encode_node(self, node: Tuple[TMState, tuple]) -> int:
        """Pack an explorer node ``(state, pending)`` into one int."""
        state, pending = node
        base = self._pend_base
        cmd_index = self._cmd_index
        packed_pending = 0
        for slot in reversed(pending):
            digit = 0 if slot is None else cmd_index[slot] + 1
            packed_pending = packed_pending * base + digit
        return self.encode_state(state) * self._pend_span + packed_pending

    def decode_node(self, packed: int) -> Tuple[TMState, tuple]:
        """Inverse of :func:`encode_node` (memoized)."""
        node = self._decoded_nodes.get(packed)
        if node is None:
            packed_state, packed_pending = divmod(packed, self._pend_span)
            base = self._pend_base
            commands = self._commands
            pending = []
            for _ in range(self.n):
                packed_pending, digit = divmod(packed_pending, base)
                pending.append(None if digit == 0 else commands[digit - 1])
            node = (self.decode_state(packed_state), tuple(pending))
            self._decoded_nodes[packed] = node
        return node

    def initial_node_packed(self) -> int:
        return self.encode_node((self.tm.initial_state(), (None,) * self.n))

    # ------------------------------------------------------------------
    # Memoized transition rows
    # ------------------------------------------------------------------

    def _cmd_row(
        self, packed_state: int, ti: int, ci: int
    ) -> Tuple[Tuple[Ext, Resp, int], ...]:
        """``tm.transitions`` for ``(state, thread ti+1, command ci)``,
        with packed successor states, computed once per engine."""
        key = (packed_state * self.n + ti) * self._ncmds + ci
        row = self._cmd_rows.get(key)
        if row is None:
            state = self.decode_state(packed_state)
            cmd = self._commands[ci]
            thread = ti + 1
            encode = self._encode_successor
            tm = self.tm
            if self._generic_transitions:
                # Inline TMAlgorithm.transitions without Transition
                # wrappers: progress entries plus the derived abort.
                prog = tm.progress(state, cmd, thread)
                entries = [
                    (ext, resp, encode(packed_state, state, succ))
                    for ext, resp, succ in prog
                ]
                if not prog or tm.conflict(state, cmd, thread):
                    entries.append(
                        (
                            ABORT_EXT,
                            Resp.ABORT,
                            encode(
                                packed_state,
                                state,
                                tm.abort_reset(state, thread),
                            ),
                        )
                    )
                row = tuple(entries)
            else:
                row = tuple(
                    (tr.ext, tr.resp, encode(packed_state, state, tr.state))
                    for tr in tm.transitions(state, cmd, thread)
                )
            self._cmd_rows[key] = row
            self._dirty = True
        return row

    def _pending_digits(self, packed_pending: int) -> List[int]:
        base = self._pend_base
        digits = []
        for _ in range(self.n):
            packed_pending, digit = divmod(packed_pending, base)
            digits.append(digit)
        return digits

    def node_row(self, packed_node: int) -> Tuple[NodeTransition, ...]:
        """All explorer transitions from a packed node, in the exact
        order of :func:`repro.tm.explore.iter_node_transitions`."""
        row = self._node_rows.get(packed_node)
        if row is None:
            packed_state, packed_pending = divmod(packed_node, self._pend_span)
            pend_pow = self._pend_pow
            cmd_row = self._cmd_row
            entries: List[NodeTransition] = []
            digits = self._pending_digits(packed_pending)
            for ti in range(self.n):
                digit = digits[ti]
                cmd_indices = (
                    (digit - 1,) if digit else self._all_cmd_indices
                )
                for ci in cmd_indices:
                    for ext, resp, succ_state in cmd_row(packed_state, ti, ci):
                        new_digit = ci + 1 if resp is Resp.BOT else 0
                        succ_pending = (
                            packed_pending
                            + (new_digit - digit) * pend_pow[ti]
                        )
                        entries.append(
                            (
                                ti,
                                ci,
                                ext,
                                resp,
                                succ_state * self._pend_span + succ_pending,
                            )
                        )
            row = tuple(entries)
            self._node_rows[packed_node] = row
            self._dirty = True
        return row

    def expand(
        self, frontier: Iterable[int]
    ) -> List[Tuple[int, Tuple[NodeTransition, ...]]]:
        """Batched successor computation: rows for a whole frontier."""
        node_row = self.node_row
        return [(node, node_row(node)) for node in frontier]

    # ------------------------------------------------------------------
    # Process-stable node encoding (persistence)
    # ------------------------------------------------------------------

    def stable_of_node(self, packed_node: int) -> int:
        """Re-digit a packed node over codec *bits* instead of dense ids.

        Dense view ids depend on this engine's discovery order; the
        codec bit-packing of a view does not.  Stable node ints are
        therefore meaningful across processes and runs (the warm cache
        and the persisted dense tables).
        Only available for codec-backed engines.
        """
        packed_state, packed_pending = divmod(packed_node, self._pend_span)
        width = self._codec.width  # type: ignore[union-attr]
        digit_mask = (1 << width) - 1
        view_bits = self._view_bits
        stable_state = 0
        for i in range(self.n):
            vid = (packed_state >> (width * i)) & digit_mask
            stable_state |= view_bits[vid] << (width * i)
        return stable_state * self._pend_span + packed_pending

    def node_of_stable(self, stable_node: int) -> int:
        """Inverse of :meth:`stable_of_node`, interning unseen views.

        New views are interned in thread-digit order, so translating a
        recorded node sequence interns views in exactly the order a
        fresh computation of the same rows would have.
        """
        stable_state, packed_pending = divmod(stable_node, self._pend_span)
        codec = self._codec
        assert codec is not None
        width = codec.width
        digit_mask = (1 << width) - 1
        bits_ids = self._bits_ids
        packed_state = 0
        for i in range(self.n):
            bits = (stable_state >> (width * i)) & digit_mask
            vid = bits_ids.get(bits)
            if vid is None:
                vid = self._intern_view(codec.unpack(bits))
            packed_state |= vid << (width * i)
        return packed_state * self._pend_span + packed_pending

    # ------------------------------------------------------------------
    # Checker-facing views
    # ------------------------------------------------------------------

    def safety_row_ids(self, packed_node: int) -> tuple:
        """The safety view of a node as a pre-grouped all-int kernel row.

        Returns ``((sym_id, succs), ...)`` where ``sym_id`` is the
        integer statement id (:data:`EPSILON_ID` for internal ⊥-moves)
        and ``succs`` is the bare packed successor int for singleton
        groups — ~90% of them, spared a tuple wrap and an inner loop on
        the product hot path — or a tuple of packed successors
        otherwise.  Symbols are grouped in first-occurrence order and
        multi-successor groups are deduplicated and ordered exactly as
        the naive lazy kernel would have produced (``repr``-sorted
        decoded nodes), so product BFS over these rows is byte-identical
        to the naive path.  This is the primitive row;
        :meth:`safety_row` derives the Statement-keyed view from it.
        """
        row = self._safety_rows_ids.get(packed_node)
        if row is None:
            # Assembled straight from the memoized command rows (not via
            # node_row) — the safety product is the hot path and skips
            # materializing per-node transition tuples.
            packed_state, packed_pending = divmod(packed_node, self._pend_span)
            pend_span = self._pend_span
            pend_pow = self._pend_pow
            cmd_row = self._cmd_row
            done_sym = self._done_sym
            abort_sym = self._abort_sym
            grouped: Dict[int, List[int]] = {}
            digits = self._pending_digits(packed_pending)
            for ti in range(self.n):
                digit = digits[ti]
                cmd_indices = (
                    (digit - 1,) if digit else self._all_cmd_indices
                )
                base_pending = packed_pending - digit * pend_pow[ti]
                for ci in cmd_indices:
                    for _ext, resp, succ_state in cmd_row(
                        packed_state, ti, ci
                    ):
                        if resp is Resp.BOT:
                            key = EPSILON_ID
                            succ_pending = base_pending + (ci + 1) * pend_pow[ti]
                        elif resp is Resp.DONE:
                            key = done_sym[ti][ci]
                            succ_pending = base_pending
                        else:
                            key = abort_sym[ti]
                            succ_pending = base_pending
                        grouped.setdefault(key, []).append(
                            succ_state * pend_span + succ_pending
                        )
            decode = self.decode_node
            out = []
            for symbol, succs in grouped.items():
                if len(succs) > 1:
                    succs = sorted(
                        set(succs), key=lambda p: repr(decode(p))
                    )
                out.append(
                    (symbol, succs[0])
                    if len(succs) == 1
                    else (symbol, tuple(succs))
                )
            row = tuple(out)
            self._safety_rows_ids[packed_node] = row
            self._dirty = True
        return row

    def safety_rows_map(self) -> Dict[int, tuple]:
        """The live memo dict behind :meth:`safety_row_ids` — checkers
        probe it directly to skip a call per BFS pop on warm rows."""
        return self._safety_rows_ids

    def safety_row(self, packed_node: int) -> tuple:
        """:meth:`safety_row_ids` with interned Statement symbols
        (``None`` for ε) — the view the DFA-sided product consumes."""
        row = self._safety_rows.get(packed_node)
        if row is None:
            symbols = self._symbols
            row = tuple(
                (
                    None if sym < 0 else symbols[sym],
                    (succs,) if type(succs) is int else succs,
                )
                for sym, succs in self.safety_row_ids(packed_node)
            )
            self._safety_rows[packed_node] = row
        return row

    def liveness_row(self, packed_node: int) -> tuple:
        """The liveness view of a node: ``(ExtStatement, packed_succ)``
        pairs in explorer order, with interned labels."""
        from .explore import ExtStatement

        labels = self._live_labels
        out = []
        for ti, _ci, ext, resp, succ in self.node_row(packed_node):
            key = (ti, ext, resp)
            label = labels.get(key)
            if label is None:
                label = labels[key] = ExtStatement(
                    ti + 1, ext.name, ext.var, resp
                )
            out.append((label, succ))
        return tuple(out)

    # ------------------------------------------------------------------
    # The dense layer
    # ------------------------------------------------------------------

    def dense_csr(self, side: str, prop) -> Optional[DenseCSR]:
        """The (lazily created) dense product table for one check
        configuration.

        ``side`` names the product flavour (``"oracle"`` for the
        lazy-spec packed product, ``"dfa"`` for the int-rows DFA-sided
        one — their pair spaces are numbered differently, so they keep
        separate tables) and ``prop`` the safety property.  Returns
        ``None`` for codec-less engines: without a process-stable node
        encoding the table could not be validated against — or persisted
        for — another process.  The table itself is recorded by the
        kernel on the first serial untraced pass (see
        :class:`repro.automata.kernel.DenseCSR`).
        """
        if self._codec is None:
            return None
        prop_value = getattr(prop, "value", str(prop))
        key = (side, prop_value)
        csr = self._dense.get(key)
        if csr is None:
            csr = self._dense[key] = DenseCSR(
                span_bits=self.node_span.bit_length() - 1,
                stable_of_node=self.stable_of_node,
                cache_key=(
                    "dense-csr",
                    type(self.tm).__name__,
                    self.name,
                    self.n,
                    self.k,
                    prop_value,
                    side,
                ),
            )
        return csr

    def dense_node_adjacency(self) -> DenseAdjacency:
        """The CSR adjacency of the full reachable node graph (liveness
        view), built once per engine from the memoized node rows.

        Nodes are interned in the exact BFS discovery order of
        :func:`repro.tm.explore.explore_packed`, successors per node in
        exact row order, so materializing a liveness graph from this
        adjacency is byte-identical to the row-by-row builder.  Shared
        by :func:`repro.tm.explore.build_liveness_graph` and (through
        it) the SCC-based liveness checks.
        """
        adj = self._dense_adj
        if adj is None:
            init = self.initial_node_packed()
            ids: Dict[int, int] = {init: 0}
            order: List[int] = [init]
            # Typed-width policy: dense node ids, edge offsets and label
            # ids are all counts of in-memory objects — int32 holds them
            # on anything this side of a 2**31-node graph.
            offsets = array("i", (0,))
            targets = array("i")
            labels = array("i")
            label_ids: Dict[Tuple[int, Ext, Resp], int] = {}
            label_table: List[Tuple[int, Ext, Resp]] = []
            node_row = self.node_row
            i = 0
            while i < len(order):
                for ti, _ci, ext, resp, succ in node_row(order[i]):
                    lkey = (ti, ext, resp)
                    lid = label_ids.get(lkey)
                    if lid is None:
                        lid = label_ids[lkey] = len(label_table)
                        label_table.append(lkey)
                    sid = ids.get(succ)
                    if sid is None:
                        sid = ids[succ] = len(order)
                        order.append(succ)
                    targets.append(sid)
                    labels.append(lid)
                offsets.append(len(targets))
                i += 1
            adj = self._dense_adj = DenseAdjacency(
                nodes=order,
                offsets=offsets,
                targets=targets,
                labels=labels,
                label_table=label_table,
            )
            self._adj_dirty = True
        return adj

    # ------------------------------------------------------------------
    # TMAlgorithm-compatible contract
    # ------------------------------------------------------------------

    def initial_state(self) -> TMState:
        return self.tm.initial_state()

    def transitions(
        self, state: TMState, cmd: Command, thread: int
    ) -> List[Transition]:
        """Same contract as :meth:`TMAlgorithm.transitions`, served from
        the memoized rows."""
        packed = self.encode_state(state)
        decode = self.decode_state
        return [
            Transition(ext, resp, decode(succ))
            for ext, resp, succ in self._cmd_row(
                packed, thread - 1, self._cmd_index[cmd]
            )
        ]

    def commands(self) -> Tuple[Command, ...]:
        """The cached command set ``C`` (same contract as
        :meth:`TMAlgorithm.commands`)."""
        return self._commands

    def threads(self) -> range:
        return range(1, self.n + 1)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Sizes of the intern/memo tables (for benchmarks and tests)."""
        return {
            "views": len(self._views),
            "decoded_states": len(self._decoded_states),
            "decoded_nodes": len(self._decoded_nodes),
            "cmd_rows": len(self._cmd_rows),
            "node_rows": len(self._node_rows),
            "safety_rows": len(self._safety_rows_ids),
            "warm_safety_rows": self._warm_safety_rows,
        }

    # ------------------------------------------------------------------
    # Warm-start persistence
    # ------------------------------------------------------------------

    def _cache_key(self) -> Optional[tuple]:
        if self._codec is None:
            return None  # fallback-interned states have no stable encoding
        return ("tm-engine", type(self.tm).__name__, self.name, self.n, self.k)

    def load_warm(self, cache_dir: str) -> bool:
        """Restore interned views, safety rows and node rows from
        ``cache_dir``.

        Only a *fresh* engine is restored (nothing interned yet) — the
        cached dense ids must become this engine's dense ids verbatim.
        Malformed payloads are rejected wholesale; returns True iff the
        engine was warmed.
        """
        key = self._cache_key()
        if key is None or self._views or self._dirty:
            return False
        data = load_payload(cache_dir, key)
        if not isinstance(data, dict):
            return False
        view_bits = data.get("view_bits")
        safety_rows = data.get("safety_rows")
        ext_table = data.get("ext_table")
        node_rows = data.get("node_rows")
        if (
            not isinstance(view_bits, list)
            or not isinstance(safety_rows, dict)
            or not isinstance(ext_table, list)
            or not isinstance(node_rows, dict)
        ):
            return False
        codec = self._codec
        try:
            views = []
            for bits in view_bits:
                if not isinstance(bits, int) or bits >> codec.width:
                    return False
                view = codec.unpack(bits)
                if codec.pack(view) != bits:
                    return False
                views.append(view)
            if len(set(view_bits)) != len(view_bits):
                return False
            nviews = len(views)
            width = codec.width
            digit_mask = (1 << width) - 1
            state_span = 1 << (width * self.n)
            pend_span = self._pend_span
            num_syms = len(self._symbols)

            def valid_node(packed: object) -> bool:
                if not isinstance(packed, int) or packed < 0:
                    return False
                state, _pending = divmod(packed, pend_span)
                if state >= state_span:
                    return False
                return all(
                    ((state >> (width * i)) & digit_mask) < nviews
                    for i in range(self.n)
                )

            for node, row in safety_rows.items():
                if not valid_node(node) or not isinstance(row, tuple):
                    return False
                for sym, succs in row:
                    if not isinstance(sym, int) or not -1 <= sym < num_syms:
                        return False
                    if type(succs) is int:
                        if not valid_node(succs):
                            return False
                    elif not isinstance(succs, tuple) or not all(
                        valid_node(s) for s in succs
                    ):
                        return False
            # Node rows (the liveness/explorer view) persist Ext/Resp in
            # a stable int encoding: ext_table indices and Resp codes.
            exts: List[Ext] = []
            for entry in ext_table:
                if not isinstance(entry, tuple) or len(entry) != 2:
                    return False
                ename, evar = entry
                if not isinstance(ename, str) or not (
                    evar is None or isinstance(evar, int)
                ):
                    return False
                exts.append(Ext(ename, evar))
            nexts = len(exts)
            decoded_rows: Dict[int, Tuple[NodeTransition, ...]] = {}
            for node, row in node_rows.items():
                if not valid_node(node) or not isinstance(row, tuple):
                    return False
                out = []
                for entry in row:
                    if not isinstance(entry, tuple) or len(entry) != 5:
                        return False
                    ti, ci, eid, rc, succ = entry
                    if not (
                        isinstance(ti, int)
                        and 0 <= ti < self.n
                        and isinstance(ci, int)
                        and 0 <= ci < self._ncmds
                        and isinstance(eid, int)
                        and 0 <= eid < nexts
                        and isinstance(rc, int)
                        and 0 <= rc < len(_RESP_OF_CODE)
                        and valid_node(succ)
                    ):
                        return False
                    out.append((ti, ci, exts[eid], _RESP_OF_CODE[rc], succ))
                decoded_rows[node] = tuple(out)
        except Exception:
            # Deliberately broad: the payload is untrusted cache bytes —
            # a malformed structure can raise anything mid-decode, and
            # the one correct response is always "reject wholesale and
            # recompile cold".
            return False
        self._views = views
        self._view_bits = list(view_bits)
        self._view_ids = {view: i for i, view in enumerate(views)}
        self._bits_ids = {bits: i for i, bits in enumerate(view_bits)}
        self._safety_rows_ids = dict(safety_rows)
        self._node_rows = decoded_rows
        self._dirty = False
        self._warm_safety_rows = len(safety_rows)
        return True

    def save_warm(self, cache_dir: str) -> bool:
        """Spill the intern table, safety rows and node rows to
        ``cache_dir`` (no-op unless new rows were computed since the
        last load/save)."""
        key = self._cache_key()
        if key is None or not self._dirty:
            return False
        ext_ids: Dict[Ext, int] = {}
        ext_table: List[Tuple[str, Optional[int]]] = []
        node_rows: Dict[int, tuple] = {}
        for node, row in self._node_rows.items():
            out = []
            for ti, ci, ext, resp, succ in row:
                eid = ext_ids.get(ext)
                if eid is None:
                    eid = ext_ids[ext] = len(ext_table)
                    ext_table.append((ext.name, ext.var))
                out.append((ti, ci, eid, _RESP_CODE[resp], succ))
            node_rows[node] = tuple(out)
        ok = save_payload(
            cache_dir,
            key,
            {
                "view_bits": list(self._view_bits),
                "safety_rows": dict(self._safety_rows_ids),
                "ext_table": ext_table,
                "node_rows": node_rows,
            },
        )
        if ok:
            self._dirty = False
        return ok

    def _adj_cache_key(self) -> Optional[tuple]:
        if self._codec is None:
            return None
        return ("dense-adj", type(self.tm).__name__, self.name, self.n, self.k)

    def load_dense_adj(self, cache_dir) -> bool:
        """Restore the liveness node adjacency CSR (the safety side's
        ``dense-csr`` symmetric): a warm liveness run then materializes
        its graph from arrays alone, never touching the node-row memos.

        Nodes persist in the stable codec-bits encoding and are
        translated back through :meth:`node_of_stable` (interning views
        in recorded discovery order — the same order a fresh build would
        have used, so the decoded graph is byte-identical).  Malformed
        payloads are rejected wholesale before anything is interned.
        """
        key = self._adj_cache_key()
        if key is None or self._dense_adj is not None or self._adj_dirty:
            return False
        data = load_payload(cache_dir, key)
        if not isinstance(data, dict):
            return False
        stable_nodes = data.get("nodes")
        offsets = data.get("offsets")
        targets = data.get("targets")
        labels = data.get("labels")
        label_entries = data.get("label_table")
        if not all(
            is_int_vector(v)
            for v in (stable_nodes, offsets, targets, labels)
        ) or not isinstance(label_entries, list):
            return False
        nnodes = len(stable_nodes)
        nedges = len(targets)
        if (
            not nnodes
            or len(offsets) != nnodes + 1
            or len(labels) != nedges
            or offsets[0] != 0
            or offsets[-1] != nedges
        ):
            return False
        if any(offsets[i] > offsets[i + 1] for i in range(nnodes)):
            return False
        if not all(0 <= t < nnodes for t in targets):
            return False
        nlabels = len(label_entries)
        if not all(0 <= l < nlabels for l in labels):
            return False
        label_table: List[Tuple[int, Ext, Resp]] = []
        for entry in label_entries:
            if not isinstance(entry, tuple) or len(entry) != 4:
                return False
            ti, ename, evar, rc = entry
            if not (
                isinstance(ti, int)
                and 0 <= ti < self.n
                and isinstance(ename, str)
                and (evar is None or isinstance(evar, int))
                and isinstance(rc, int)
                and 0 <= rc < len(_RESP_OF_CODE)
            ):
                return False
            label_table.append((ti, Ext(ename, evar), _RESP_OF_CODE[rc]))
        # Validate every stable node against the codec *before* any view
        # is interned, so a rejected payload leaves the engine untouched.
        codec = self._codec
        width = codec.width  # type: ignore[union-attr]
        digit_mask = (1 << width) - 1
        pend_span = self._pend_span
        known_bits = set(self._bits_ids)
        try:
            for s in stable_nodes:
                if s < 0:
                    return False
                state, _pending = divmod(s, pend_span)
                if state >> (width * self.n):
                    return False
                for i in range(self.n):
                    bits = (state >> (width * i)) & digit_mask
                    if bits not in known_bits:
                        view = codec.unpack(bits)
                        if codec.pack(view) != bits:
                            return False
                        known_bits.add(bits)
            if len(set(stable_nodes)) != nnodes:
                return False
            if stable_nodes[0] != self.stable_of_node(
                self.initial_node_packed()
            ):
                return False
            nodes = [self.node_of_stable(s) for s in stable_nodes]
        except Exception:
            # Deliberately broad, same as the safety-row warm load: an
            # untrusted CSR payload can fail anywhere, and rejecting it
            # wholesale (rebuild cold) is always the right move.
            return False
        self._dense_adj = DenseAdjacency(
            nodes=nodes,
            offsets=offsets,
            targets=targets,
            labels=labels,
            label_table=label_table,
        )
        self._adj_dirty = False
        return True

    def save_dense_adj(self, cache_dir) -> bool:
        """Spill the liveness node adjacency CSR (no-op unless newly
        built since the last load/save).  Nodes are re-digited to the
        stable encoding and narrowed; the CSR vectors persist at their
        recorded width."""
        key = self._adj_cache_key()
        adj = self._dense_adj
        if key is None or adj is None or not self._adj_dirty:
            return False
        stable = self.stable_of_node
        try:
            nodes = narrow_int_vector(stable(p) for p in adj.nodes)
        except OverflowError:  # pragma: no cover - beyond-int64 spans
            return False
        ok = save_payload(
            cache_dir,
            key,
            {
                "nodes": nodes,
                "offsets": adj.offsets,
                "targets": adj.targets,
                "labels": adj.labels,
                "label_table": [
                    (ti, ext.name, ext.var, _RESP_CODE[resp])
                    for ti, ext, resp in adj.label_table
                ],
            },
        )
        if ok:
            self._adj_dirty = False
        return ok


def compile_tm(tm: TMAlgorithm) -> CompiledTM:
    """The (cached) compiled engine for ``tm``.

    The engine is memoized on the algorithm instance, so every check on
    the same instance — both Table 2 properties, the liveness graph, the
    size column — shares one set of interned views and transition rows.
    """
    engine = tm.__dict__.get("_compiled_engine")
    if engine is None:
        engine = CompiledTM(tm)
        tm._compiled_engine = engine  # type: ignore[attr-defined]
    return engine
