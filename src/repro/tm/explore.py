"""Explicit-state exploration of TM algorithms (paper Section 3.2).

A TM algorithm interacts with a scheduler: at every step the scheduler
picks a thread, the thread's enabled command is executed for one atomic
extended command, and the TM responds ⊥ / 0 / 1.  Exploring *every* thread
and *every* enabled command from *every* state is exactly the paper's
"most general program": the resulting transition system's language is the
language of the TM algorithm.

The explorer's nodes pair the TM state with the *pending vector* γ — the
command each thread is in the middle of (rules R1–R4).  Two views are
produced:

* a **safety view** (:func:`build_safety_nfa`): an ε-NFA over statements —
  response 1 emits the command as a statement, response 0 emits ``abort``,
  response ⊥ is an internal ε-move;
* a **liveness view** (:func:`build_liveness_graph`): the same graph with
  *extended* statements on the edges, as required by Section 6's loop
  conditions.

By default exploration runs on the **compiled engine**
(:mod:`repro.tm.compiled`): packed-int nodes, interned thread views and
memoized transition rows.  Every entry point takes ``compiled=False`` to
force the naive tuple-of-frozensets path, which is kept as the
differential reference (the two paths produce identical node orders,
edges, sizes and verdicts — pinned by ``tests/tm/test_compiled.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, List, NamedTuple, Optional, Set, Tuple

from ..automata.nfa import EPSILON, NFA
from ..cache import CacheLike
from ..core.statements import Command, Kind, Statement
from .algorithm import Resp, TMAlgorithm, TMState, Transition
from .compiled import CompiledTM, compile_tm

PendingVec = Tuple[Optional[Command], ...]
Node = Tuple[TMState, PendingVec]


class ExtStatement(NamedTuple):
    """An extended statement ``(d, t)`` with its response — the edge label
    of the liveness view."""

    thread: int
    ext_name: str
    ext_var: Optional[int]
    resp: Resp

    @property
    def is_commit(self) -> bool:
        return self.ext_name == "commit" and self.resp is Resp.DONE

    @property
    def is_abort(self) -> bool:
        return self.resp is Resp.ABORT

    def __str__(self) -> str:
        var = "" if self.ext_var is None else f"({self.ext_var})"
        return f"{self.ext_name}{var}{self.thread}"


def initial_node(tm: TMAlgorithm) -> Node:
    return (tm.initial_state(), (None,) * tm.n)


def iter_node_transitions(
    tm: TMAlgorithm, node: Node
) -> Iterator[Tuple[int, Command, Transition, Node]]:
    """All (thread, command, TM transition, successor node) from ``node``.

    Respects the pending function: a thread with a pending command may
    only continue that command (rules R1–R4); responses 0/1 clear it.
    """
    state, pending = node
    for t in tm.threads():
        slot = pending[t - 1]
        cmds = (slot,) if slot is not None else tm.commands()
        for cmd in cmds:
            for tr in tm.transitions(state, cmd, t):
                new_pending = list(pending)
                new_pending[t - 1] = cmd if tr.resp is Resp.BOT else None
                yield t, cmd, tr, (tr.state, tuple(new_pending))


def explore_packed(
    engine: CompiledTM,
    *,
    max_states: Optional[int] = None,
) -> List[int]:
    """All reachable packed nodes, BFS order from the initial node.

    The BFS mirrors the naive :func:`explore_nodes` exactly — compiled
    rows preserve the explorer's transition order, so decoding this list
    reproduces the naive node order element for element.
    """
    init = engine.initial_node_packed()
    seen: Set[int] = {init}
    order: List[int] = [init]
    node_row = engine.node_row
    queue = deque([init])
    while queue:
        node = queue.popleft()
        for entry in node_row(node):
            succ = entry[4]
            if succ not in seen:
                if max_states is not None and len(seen) >= max_states:
                    raise RuntimeError(
                        f"exploration exceeded {max_states} nodes"
                        f" (at {len(seen) + 1})"
                    )
                seen.add(succ)
                order.append(succ)
                queue.append(succ)
    return order


def explore_nodes(
    tm: TMAlgorithm,
    *,
    max_states: Optional[int] = None,
    compiled: bool = True,
) -> List[Node]:
    """All reachable explorer nodes, BFS order from the initial node."""
    if compiled:
        engine = compile_tm(tm)
        decode = engine.decode_node
        return [
            decode(p)
            for p in explore_packed(engine, max_states=max_states)
        ]
    init = initial_node(tm)
    seen: Set[Node] = {init}
    order: List[Node] = [init]
    queue = deque([init])
    while queue:
        node = queue.popleft()
        for _, _, _, succ in iter_node_transitions(tm, node):
            if succ not in seen:
                if max_states is not None and len(seen) >= max_states:
                    raise RuntimeError(
                        f"exploration exceeded {max_states} nodes"
                        f" (at {len(seen) + 1})"
                    )
                seen.add(succ)
                order.append(succ)
                queue.append(succ)
    return order


def transition_system_size(tm: TMAlgorithm, *, compiled: bool = True) -> int:
    """Number of reachable nodes — the paper's Table 2 "Size" column."""
    if compiled:
        return len(explore_packed(compile_tm(tm)))
    return len(explore_nodes(tm, compiled=False))


def safety_step(tm: TMAlgorithm) -> Callable[[Node], Iterator]:
    """The safety-view step function of ``tm``.

    ``safety_step(tm)(node)`` yields ``(label, successor)`` pairs with
    :class:`~repro.core.statements.Statement` labels for completed
    commands (response 1) and aborts (response 0), and ``EPSILON`` for
    internal extended commands (response ⊥).  This is the contract of
    ``NFA.from_step`` — and of the lazy product kernel, which streams
    these successors straight into the inclusion check without ever
    materializing the NFA.
    """

    def step(node: Node):
        for t, cmd, tr, succ in iter_node_transitions(tm, node):
            if tr.resp is Resp.BOT:
                yield EPSILON, succ
            elif tr.resp is Resp.DONE:
                yield Statement(cmd.kind, cmd.var, t), succ
            else:
                yield Statement(Kind.ABORT, None, t), succ

    return step


def build_safety_nfa(
    tm: TMAlgorithm, *, max_states: Optional[int] = None
) -> NFA:
    """The TM's language automaton over statements (safety view).

    Materializes the full automaton; all states accept (the language of
    a TM algorithm is prefix-closed).  The safety pipeline defaults to
    the lazy path instead (see :func:`repro.checking.safety.check_safety`),
    which feeds :func:`safety_step` directly into the product kernel.
    """
    return NFA.from_step(
        [initial_node(tm)], safety_step(tm), max_states=max_states
    )


@dataclass(frozen=True)
class LivenessGraph:
    """The TM transition system with extended-statement edge labels."""

    initial: Node
    nodes: Tuple[Node, ...]
    edges: Tuple[Tuple[Node, ExtStatement, Node], ...]


def build_liveness_graph(
    tm: TMAlgorithm,
    *,
    max_states: Optional[int] = None,
    compiled: bool = True,
    cache_dir: "CacheLike" = None,
) -> LivenessGraph:
    """Explore the TM and label every edge with its extended statement.

    ``cache_dir`` warm-starts the compiled engine from the on-disk cache
    (:mod:`repro.cache`) and spills back after the build — node rows
    persist in a stable int encoding, so repeated liveness runs across
    processes recompute nothing.
    """
    if compiled:
        return _build_liveness_graph_compiled(
            compile_tm(tm),
            max_states=max_states,
            cache_dir=cache_dir,
        )
    init = initial_node(tm)
    seen: Set[Node] = {init}
    order: List[Node] = [init]
    edges: List[Tuple[Node, ExtStatement, Node]] = []
    queue = deque([init])
    while queue:
        node = queue.popleft()
        for t, _, tr, succ in iter_node_transitions(tm, node):
            label = ExtStatement(t, tr.ext.name, tr.ext.var, tr.resp)
            edges.append((node, label, succ))
            if succ not in seen:
                if max_states is not None and len(seen) >= max_states:
                    raise RuntimeError(
                        f"exploration exceeded {max_states} nodes"
                        f" (at {len(seen) + 1})"
                    )
                seen.add(succ)
                order.append(succ)
                queue.append(succ)
    return LivenessGraph(initial=init, nodes=tuple(order), edges=tuple(edges))


def _build_liveness_graph_compiled(
    engine: CompiledTM,
    *,
    max_states: Optional[int] = None,
    cache_dir: "CacheLike" = None,
) -> LivenessGraph:
    """Compiled :func:`build_liveness_graph`: BFS over packed nodes,
    decoded once per node for the (identical) output graph.

    Unbounded builds route through the engine's **dense node
    adjacency** (:meth:`repro.tm.compiled.CompiledTM.dense_node_adjacency`):
    the reachable graph is compiled once into CSR arrays over dense node
    ids — in the identical BFS/row order — and the rich
    :class:`LivenessGraph` is materialized from the arrays, so repeated
    liveness checks on one engine re-walk flat arrays instead of
    re-driving the row memos.  Bounded (``max_states``) builds keep the
    row-by-row loop so the guard raises at the identical point."""
    if cache_dir is not None:
        engine.load_warm(cache_dir)
    if max_states is None:
        # Warm runs restore the persisted adjacency CSR directly — the
        # graph then materializes from arrays alone, without driving a
        # single node row (the liveness twin of the dense-csr replay).
        if cache_dir is not None:
            engine.load_dense_adj(cache_dir)
        adj = engine.dense_node_adjacency()
        decode = engine.decode_node
        decoded = [decode(p) for p in adj.nodes]
        labels_rich = [
            ExtStatement(ti + 1, ext.name, ext.var, resp)
            for ti, ext, resp in adj.label_table
        ]
        offsets, targets, labels = adj.offsets, adj.targets, adj.labels
        edges = [
            (decoded[src], labels_rich[labels[e]], decoded[targets[e]])
            for src in range(len(decoded))
            for e in range(offsets[src], offsets[src + 1])
        ]
        if cache_dir is not None:
            engine.save_dense_adj(cache_dir)
            engine.save_warm(cache_dir)
        return LivenessGraph(
            initial=decoded[0], nodes=tuple(decoded), edges=tuple(edges)
        )
    init = engine.initial_node_packed()
    seen: Set[int] = {init}
    order: List[int] = [init]
    edges: List[Tuple[Node, ExtStatement, Node]] = []
    liveness_row = engine.liveness_row
    decode = engine.decode_node
    queue = deque([init])
    while queue:
        node = queue.popleft()
        node_decoded = decode(node)
        for label, succ in liveness_row(node):
            edges.append((node_decoded, label, decode(succ)))
            if succ not in seen:
                if len(seen) >= max_states:
                    raise RuntimeError(
                        f"exploration exceeded {max_states} nodes"
                        f" (at {len(seen) + 1})"
                    )
                seen.add(succ)
                order.append(succ)
                queue.append(succ)
    if cache_dir is not None:
        engine.save_warm(cache_dir)
    return LivenessGraph(
        initial=decode(init),
        nodes=tuple(decode(p) for p in order),
        edges=tuple(edges),
    )


def _epsilon_closure(engine: CompiledTM, nodes: Set[int]) -> Set[int]:
    """ε-closure of a packed-node set under the safety view's ⊥-moves."""
    closure = set(nodes)
    stack = list(nodes)
    safety_row = engine.safety_row
    while stack:
        node = stack.pop()
        for symbol, succs in safety_row(node):
            if symbol is None:
                for succ in succs:
                    if succ not in closure:
                        closure.add(succ)
                        stack.append(succ)
    return closure


def language_contains(
    tm: TMAlgorithm, word: Tuple[Statement, ...], *, compiled: bool = True
) -> bool:
    """Membership of a word in the TM algorithm's language.

    Runs the safety view's macro-simulation on the word: the word is
    producible by the TM under some scheduler iff a run exists.  The
    default runs *lazily* on the compiled engine — only the macrostates
    the word actually reaches are expanded, instead of materializing the
    entire safety NFA for a single membership query.  All explorer nodes
    accept (TM languages are prefix-closed), so membership is simply
    non-emptiness of the final macrostate.
    """
    if not compiled:
        return build_safety_nfa(tm).accepts(word)
    engine = compile_tm(tm)
    current = _epsilon_closure(engine, {engine.initial_node_packed()})
    safety_row = engine.safety_row
    for stmt in word:
        moved: Set[int] = set()
        for node in current:
            for symbol, succs in safety_row(node):
                if symbol == stmt:
                    moved.update(succs)
        if not moved:
            return False
        current = _epsilon_closure(engine, moved)
    return True
