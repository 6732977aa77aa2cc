"""Seeded TM mutants: named rule perturbations for the bug-hunt farm.

The paper's headline result is that the checker *finds bugs* — the
Section 5.4 TL2 validation-split flaw.  This module generalizes that
single hand-written mutant into a deterministic generator: each operator
below perturbs one rule of a framework TM — drop or weaken a validation
conjunct, reorder lock acquisition, skip a version bump, widen a commit
window — and the hunt layer (:mod:`repro.campaign.hunt`) sweeps every
mutant through the full safety matrix, verifying the checker catches
every seeded bug and kills no correct variant.

Identity
--------

A mutant id is ``<base>/<operator>`` with an optional ``@seed<N>``
suffix — ``tl2/drop-rvalidate``, ``tl2/skip-version-bump@seed3``.  The
seed feeds a :class:`random.Random` that draws the operator's parameter
(which variable's version bump to skip, which lock-acquisition
permutation); parameterless operators are seed-invariant but still
accept a seed so campaign specs can name replicates.  ``seed 0`` is the
default and renders without the suffix.  The id doubles as the TM's
``name``, which keys the compiled engine's warm cache — two mutants
never share cached tables.

Mutant classes are statically defined and override only
``progress``/``initial_state``/``view_codec`` — never ``transitions`` —
so they ride the compiled fast path like any framework TM.

Expected verdicts
-----------------

``expect_bug`` on each operator records the *verified* ground truth at
the hunt's swept sizes (see ``tests/tm/test_mutate.py``, which pins
every verdict at (2, 2)).  Three operators are deliberate true
negatives — mutant-shaped changes that are **not** bugs:

* ``tl2/shuffle-lock-order`` — commit-time lock acquisition order is
  safety-neutral because acquisition steals (aborting the holder);
  any permutation yields the same conflict resolution.
* ``dstm/drop-validate`` / ``dstm/own-no-steal`` — DSTM's validate-
  aborts-owners step and ownership stealing are each redundant with
  commit-time invalidation at the swept sizes: invalidation alone
  still kills every reader of a committed write.
* ``opt/drop-ws-validation`` — dropping the write-set conjunct from the
  optimistic TM's commit check is exactly NOrec-style value validation
  (:class:`repro.tm.norec.NOrecTM`), safe because buffered writes
  cannot be invalidated.

One operator is property-sensitive: ``opt/read-ignores-ms`` preserves
strict serializability at (2, 2) but breaks opacity — the reason hunts
sweep mutants × {SS, OP}, not SS alone.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple, Type

from ..core.statements import Kind
from .algorithm import Ext, Resp, TMAlgorithm, TMState
from .dstm import DSTM
from .dstm import (
    ABORTED as D_ABORTED,
    FINISHED as D_FINISHED,
    INVALID as D_INVALID,
    RESET as D_RESET,
    VALIDATED as D_VALIDATED,
)
from .optimistic import OptimisticTM
from .tl2 import (
    ABORTED as T_ABORTED,
    FINISHED as T_FINISHED,
    RESET as T_RESET,
    VALIDATED as T_VALIDATED,
    ModifiedTL2,
    TL2,
)
from .two_phase_locking import TwoPhaseLockingTM

EMPTY: frozenset = frozenset()


def format_mutant_id(operator: str, seed: int = 0) -> str:
    """``tl2/drop-rvalidate`` / ``tl2/drop-rvalidate@seed3``."""
    return operator if seed == 0 else f"{operator}@seed{seed}"


def parse_mutant_id(text: str) -> Tuple[str, int]:
    """Split a mutant id into ``(operator, seed)``.

    Raises ``ValueError`` for ids that are not ``<operator>`` or
    ``<operator>@seed<N>`` with a known operator — the CLI maps that to
    exit 2 and the campaign spec layer to a :class:`CampaignSpecError`.
    """
    operator, sep, suffix = text.partition("@")
    seed = 0
    if sep:
        if not suffix.startswith("seed") or not suffix[4:].isdigit():
            raise ValueError(
                f"bad mutant seed suffix {text!r}"
                " (expected <operator>@seed<N>)"
            )
        seed = int(suffix[4:])
    if operator not in OPERATORS:
        raise ValueError(
            f"unknown mutant operator {operator!r}"
            f" (choose from {sorted(OPERATORS)})"
        )
    return operator, seed


def is_mutant_id(text: str) -> bool:
    """Whether ``text`` names a known mutant (any seed)."""
    try:
        parse_mutant_id(text)
    except ValueError:
        return False
    return True


def make_mutant(text: str, n: int, k: int) -> TMAlgorithm:
    """Instantiate the mutant named by ``text`` at size ``(n, k)``."""
    operator, seed = parse_mutant_id(text)
    return OPERATORS[operator](n, k, seed=seed)


def mutant_expectation(text: str) -> bool:
    """``expect_bug`` for the mutant named by ``text``."""
    operator, _seed = parse_mutant_id(text)
    return OPERATORS[operator].expect_bug


class MutantTM:
    """Mixin carrying a mutant's identity over its base TM class.

    Subclasses set ``operator`` (the id stem), ``expect_bug`` (the
    verified ground truth) and ``summary`` (one line for reports), and
    may read ``self.seed`` / :meth:`_rng` in ``__init__`` to draw
    operator parameters deterministically.
    """

    operator: str
    expect_bug: bool
    summary: str

    def __init__(self, n: int, k: int, seed: int = 0) -> None:
        self.seed = int(seed)
        super().__init__(n, k)
        self.name = format_mutant_id(self.operator, self.seed)

    def _rng(self) -> random.Random:
        return random.Random(self.seed)


# ----------------------------------------------------------------------
# TL2 operators
# ----------------------------------------------------------------------


class TL2SplitValidation(MutantTM, ModifiedTL2):
    """The Section 5.4 bug itself: ``validate`` split into atomic
    ``rvalidate`` + ``chklock``, reintroduced as a farm mutant so the
    hunt rediscovers the paper's counterexample automatically."""

    operator = "tl2/split-validation"
    expect_bug = True
    summary = "split validate into rvalidate + chklock (Section 5.4)"


class TL2DropRvalidate(MutantTM, TL2):
    """Validation skips the version check ``rs ∩ ms = ∅``: a lost
    update — two writers of one variable both commit."""

    operator = "tl2/drop-rvalidate"
    expect_bug = True
    summary = "drop the version (read-set vs modified-set) check"

    def _validation_progress(self, views, thread, view):
        status, rs, ws, ls, ms = view
        if status != T_FINISHED:
            return []
        # version check (rs & ms) dropped
        if self._read_set_locked_by_other(views, thread, rs):
            return []
        new = self._with(views, thread, (T_VALIDATED, rs, ws, ls, ms))
        return [(Ext("validate"), Resp.BOT, new)]


class TL2DropChklock(MutantTM, TL2):
    """Validation skips the lock check ``∀u≠t: rs ∩ ls(u) = ∅``: a
    committer may validate over a read set another thread has locked."""

    operator = "tl2/drop-chklock"
    expect_bug = True
    summary = "drop the read-set lock (chklock) check"

    def _validation_progress(self, views, thread, view):
        status, rs, ws, ls, ms = view
        if status != T_FINISHED:
            return []
        if rs & ms:
            return []
        # lock check dropped
        new = self._with(views, thread, (T_VALIDATED, rs, ws, ls, ms))
        return [(Ext("validate"), Resp.BOT, new)]


class TL2SkipVersionBump(MutantTM, TL2):
    """Commit skips the version bump of one (seed-chosen) variable: its
    writes never land in anyone's modified set, so a double read of it
    straddling a commit goes unnoticed."""

    operator = "tl2/skip-version-bump"
    expect_bug = True
    summary = "commit skips one variable's version bump (seed-chosen)"

    def __init__(self, n: int, k: int, seed: int = 0) -> None:
        super().__init__(n, k, seed=seed)
        self._skip_var = 1 + self._rng().randrange(k)

    def progress(self, state, cmd, thread):
        views = state
        status, rs, ws, ls, ms = views[thread - 1]
        if cmd.kind is Kind.COMMIT and status == T_VALIDATED:
            published = ws - {self._skip_var}
            new = list(views)
            new[thread - 1] = T_RESET
            for u, (st_u, rs_u, ws_u, ls_u, ms_u) in enumerate(
                views, start=1
            ):
                if u != thread and (rs_u | ws_u):
                    new[u - 1] = (st_u, rs_u, ws_u, ls_u, ms_u | published)
            return [(Ext.of_command(cmd), Resp.DONE, tuple(new))]
        return super().progress(state, cmd, thread)


class TL2ShuffleLockOrder(MutantTM, TL2):
    """Commit acquires write locks in a seed-drawn permutation instead
    of sorted order — a **correct** variant: acquisition steals (and
    aborts the holder), so any deterministic order resolves conflicts
    identically.  The farm's TL2-shaped true negative."""

    operator = "tl2/shuffle-lock-order"
    expect_bug = False
    summary = "permute commit-time lock acquisition order (seed-chosen)"

    def __init__(self, n: int, k: int, seed: int = 0) -> None:
        super().__init__(n, k, seed=seed)
        order = list(range(1, k + 1))
        self._rng().shuffle(order)
        self._lock_rank = {v: i for i, v in enumerate(order)}

    def progress(self, state, cmd, thread):
        views = state
        status, rs, ws, ls, ms = views[thread - 1]
        if cmd.kind is Kind.COMMIT:
            unlocked = ws - ls
            if status == T_FINISHED and unlocked:
                v = min(unlocked, key=self._lock_rank.__getitem__)
                new = list(views)
                new[thread - 1] = (status, rs, ws, ls | {v}, ms)
                for u, (st_u, rs_u, ws_u, ls_u, ms_u) in enumerate(
                    views, start=1
                ):
                    if u != thread and v in ls_u:
                        new[u - 1] = (T_ABORTED, rs_u, ws_u, ls_u, ms_u)
                return [(Ext("lock", v), Resp.BOT, tuple(new))]
        return super().progress(state, cmd, thread)


# ----------------------------------------------------------------------
# 2PL operators
# ----------------------------------------------------------------------


class TPLNoRlock(MutantTM, TwoPhaseLockingTM):
    """Reads take no shared lock at all — not even the availability
    check — so a read slips under any foreign exclusive lock."""

    operator = "2pl/no-rlock"
    expect_bug = True
    summary = "reads take (and check) no shared lock"

    def progress(self, state, cmd, thread):
        if cmd.kind is Kind.READ:
            return [(Ext.of_command(cmd), Resp.DONE, state)]
        return super().progress(state, cmd, thread)


class TPLEarlyRelease(MutantTM, TwoPhaseLockingTM):
    """Reads respect foreign exclusive locks but release their shared
    lock immediately — two-phase discipline broken: a writer can slip
    between two reads of the same transaction."""

    operator = "2pl/early-release"
    expect_bug = True
    summary = "shared locks released at read completion, not commit"

    def progress(self, state, cmd, thread):
        if cmd.kind is Kind.READ:
            locks = state
            rs, ws = locks[thread - 1]
            v = cmd.var
            if v in ws or v in rs:
                return [(Ext.of_command(cmd), Resp.DONE, state)]
            blocked = any(
                v in ws_u
                for u, (_, ws_u) in enumerate(locks, start=1)
                if u != thread
            )
            if blocked:
                return []
            # lock held only for the read itself: rs never grows
            return [(Ext.of_command(cmd), Resp.DONE, state)]
        return super().progress(state, cmd, thread)


class TPLWlockIgnoresReaders(MutantTM, TwoPhaseLockingTM):
    """Exclusive-lock acquisition checks only foreign exclusive locks,
    ignoring shared ones: a writer commits over an active reader."""

    operator = "2pl/wlock-ignores-readers"
    expect_bug = True
    summary = "exclusive locks ignore foreign shared locks"

    def progress(self, state, cmd, thread):
        if cmd.kind is Kind.WRITE:
            locks = state
            rs, ws = locks[thread - 1]
            v = cmd.var
            if v in ws:
                return [(Ext.of_command(cmd), Resp.DONE, state)]
            blocked = any(
                v in ws_u  # foreign shared locks ignored
                for u, (_, ws_u) in enumerate(locks, start=1)
                if u != thread
            )
            if blocked:
                return []
            new = self._with(locks, thread, rs, ws | {v})
            return [(Ext("wlock", v), Resp.BOT, new)]
        return super().progress(state, cmd, thread)


# ----------------------------------------------------------------------
# DSTM operators
# ----------------------------------------------------------------------


class DSTMDropValidate(MutantTM, DSTM):
    """``validate`` no longer aborts the owners of the read set — a
    **correct** variant at the swept sizes: commit-proper invalidation
    still kills every reader a commit would have harmed."""

    operator = "dstm/drop-validate"
    expect_bug = False
    summary = "validate no longer aborts read-set owners"

    def progress(self, state, cmd, thread):
        views = state
        status, rs, os_ = views[thread - 1]
        if cmd.kind is Kind.COMMIT and status == D_FINISHED:
            new = list(views)
            new[thread - 1] = (D_VALIDATED, rs, os_)
            # read-set owners are NOT aborted
            return [(Ext("validate"), Resp.BOT, tuple(new))]
        return super().progress(state, cmd, thread)


class DSTMSkipInvalidate(MutantTM, DSTM):
    """Commit proper no longer invalidates readers of the committed
    ownership set: a double read straddles the commit unnoticed."""

    operator = "dstm/skip-invalidate"
    expect_bug = True
    summary = "commit proper skips reader invalidation"

    def progress(self, state, cmd, thread):
        views = state
        status, rs, os_ = views[thread - 1]
        if cmd.kind is Kind.COMMIT and status == D_VALIDATED:
            new = list(views)
            new[thread - 1] = D_RESET
            # readers of the committed ownership set stay valid
            return [(Ext.of_command(cmd), Resp.DONE, tuple(new))]
        return super().progress(state, cmd, thread)


class DSTMInvalidCanCommit(MutantTM, DSTM):
    """An invalidated thread may still validate and commit, re-entering
    the commit path as if its reads were never invalidated."""

    operator = "dstm/invalid-can-commit"
    expect_bug = True
    summary = "invalidated transactions may still commit"

    def progress(self, state, cmd, thread):
        views = state
        status, rs, os_ = views[thread - 1]
        if cmd.kind is Kind.COMMIT and status == D_INVALID:
            new = list(views)
            new[thread - 1] = (D_VALIDATED, rs, os_)
            for u, (st_u, _, os_u) in enumerate(views, start=1):
                if u != thread and rs & os_u:
                    new[u - 1] = (D_ABORTED, EMPTY, EMPTY)
            return [(Ext("validate"), Resp.BOT, tuple(new))]
        return super().progress(state, cmd, thread)


class DSTMOwnNoSteal(MutantTM, DSTM):
    """Ownership acquisition no longer steals (aborts the holder), so
    several threads can "own" one variable — **correct** at the swept
    sizes: commit-proper invalidation is again the real protection."""

    operator = "dstm/own-no-steal"
    expect_bug = False
    summary = "ownership acquisition no longer aborts the holder"

    def progress(self, state, cmd, thread):
        views = state
        status, rs, os_ = views[thread - 1]
        if (
            cmd.kind is Kind.WRITE
            and status != D_ABORTED
            and cmd.var not in os_
        ):
            v = cmd.var
            new = list(views)
            new[thread - 1] = (status, rs, os_ | {v})
            # the previous owner keeps its status (shared "ownership")
            return [(Ext("own", v), Resp.BOT, tuple(new))]
        return super().progress(state, cmd, thread)


# ----------------------------------------------------------------------
# Optimistic-TM operators
# ----------------------------------------------------------------------


class OptReadIgnoresMs(MutantTM, OptimisticTM):
    """Reads skip the staleness check against the modified set.  The
    commit-time check still enforces strict serializability at the
    default hunt sizes, but a transaction can *observe* inconsistent
    state before aborting — an opacity-only violation, and the reason
    hunts sweep both properties."""

    operator = "opt/read-ignores-ms"
    expect_bug = True
    summary = "reads skip the modified-set staleness check (OP-only)"

    def progress(self, state, cmd, thread):
        views = state
        rs, ws, ms = views[thread - 1]
        if cmd.kind is Kind.READ:
            v = cmd.var
            if v in ws:
                return [(Ext.of_command(cmd), Resp.DONE, state)]
            # staleness check dropped: stale reads proceed
            new = self._with(views, thread, (rs | {v}, ws, ms))
            return [(Ext.of_command(cmd), Resp.DONE, new)]
        return super().progress(state, cmd, thread)


class OptSplitCommit(MutantTM, OptimisticTM):
    """The commit window widened: validation and write-back become two
    atomic steps, and the publish step never re-checks — the same
    unsafe window shape as the Section 5.4 TL2 flaw."""

    operator = "opt/split-commit"
    expect_bug = True
    summary = "commit split into validate + publish (window widened)"

    _FIN = "fin"
    _VAL = "val"

    def initial_state(self) -> TMState:
        return ((self._FIN, EMPTY, EMPTY, EMPTY),) * self.n

    def progress(self, state, cmd, thread):
        views = state
        status, rs, ws, ms = views[thread - 1]
        if cmd.kind is Kind.READ:
            v = cmd.var
            if v in ws:
                return [(Ext.of_command(cmd), Resp.DONE, state)]
            if v in ms:
                return []
            new = self._with(views, thread, (status, rs | {v}, ws, ms))
            return [(Ext.of_command(cmd), Resp.DONE, new)]
        if cmd.kind is Kind.WRITE:
            v = cmd.var
            new = self._with(views, thread, (status, rs, ws | {v}, ms))
            return [(Ext.of_command(cmd), Resp.DONE, new)]
        if status == self._FIN:
            if (rs | ws) & ms:
                return []
            new = self._with(views, thread, (self._VAL, rs, ws, ms))
            return [(Ext("validate"), Resp.BOT, new)]
        # publish without re-validating: the widened window
        new = list(views)
        new[thread - 1] = (self._FIN, EMPTY, EMPTY, EMPTY)
        for u, (st_u, rs_u, ws_u, ms_u) in enumerate(views, start=1):
            if u != thread and (rs_u | ws_u):
                new[u - 1] = (st_u, rs_u, ws_u, ms_u | ws)
        return [(Ext.of_command(cmd), Resp.DONE, tuple(new))]

    def abort_reset(self, state, thread):
        views = state
        return self._with(views, thread, (self._FIN, EMPTY, EMPTY, EMPTY))

    def view_codec(self):
        from .compiled import status_mask_codec

        return status_mask_codec(
            self.k, (self._FIN, self._VAL), 3  # (rs, ws, ms)
        )


class OptDropWsValidation(MutantTM, OptimisticTM):
    """Commit drops the write-set conjunct, checking ``rs ∩ ms`` only —
    behaviourally :class:`repro.tm.norec.NOrecTM`, and **correct**: the
    farm's value-validation true negative."""

    operator = "opt/drop-ws-validation"
    expect_bug = False
    summary = "commit checks the read set only (NOrec value validation)"

    def progress(self, state, cmd, thread):
        views = state
        rs, ws, ms = views[thread - 1]
        if cmd.kind is Kind.COMMIT:
            if rs & ms:  # the write-set conjunct no longer blocks
                return []
            new = list(views)
            new[thread - 1] = (EMPTY, EMPTY, EMPTY)
            for u, (rs_u, ws_u, ms_u) in enumerate(views, start=1):
                if u != thread and (rs_u | ws_u):
                    new[u - 1] = (rs_u, ws_u, ms_u | ws)
            return [(Ext.of_command(cmd), Resp.DONE, tuple(new))]
        return super().progress(state, cmd, thread)


#: Every operator, keyed by id stem.  ``expect_bug`` on the class is the
#: verified ground truth pinned by ``tests/tm/test_mutate.py``.
OPERATORS: Dict[str, Type[MutantTM]] = {
    cls.operator: cls
    for cls in (
        TL2SplitValidation,
        TL2DropRvalidate,
        TL2DropChklock,
        TL2SkipVersionBump,
        TL2ShuffleLockOrder,
        TPLNoRlock,
        TPLEarlyRelease,
        TPLWlockIgnoresReaders,
        DSTMDropValidate,
        DSTMSkipInvalidate,
        DSTMInvalidCanCommit,
        DSTMOwnNoSteal,
        OptReadIgnoresMs,
        OptSplitCommit,
        OptDropWsValidation,
    )
}


def default_mutants() -> List[str]:
    """The shipped default mutant roster: every operator at seed 0 plus
    seeded replicates of the parameterized operators (so both variables
    of a (·, 2) instance get their version bump skipped and both lock
    orders are exercised)."""
    ids = [format_mutant_id(op) for op in OPERATORS]
    ids += [
        format_mutant_id("tl2/skip-version-bump", 1),
        format_mutant_id("tl2/shuffle-lock-order", 1),
    ]
    return ids
