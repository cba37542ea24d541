"""Job windows — Definition 3.1 and its k-maximality checker.

A *job window* ``W ⊆ J(t-1)`` for time step ``t`` satisfies

(a) contiguity: jobs of ``J(t-1)`` between two window members are members;
(b) ``r(W \\ {max W}) < R`` (all but the rightmost job fit fully into the
    resource budget ``R``; the paper uses ``R = 1``);
(c) at most one job of ``W`` is fractured;
(d) every started job of ``J(t-1)`` lies inside ``W``.

``W`` is *k-maximal* if additionally ``|W| ≤ k`` and

(e) ``|W| < k  ⇒  L_t(W) = ∅`` (size-deficient windows hug the left border);
(f) ``r(W) < R  ⇒  R_t(W) = ∅`` (resource-deficient windows hug the right
    border).

This module is the independent Definition-3.1 checker
(:func:`window_violations`, :func:`is_k_maximal`) the tests hold every
computed window to.  The Listing-2 procedures that *compute* windows live
in :mod:`repro.engine.policies` (``grow_window_left``,
``grow_window_right``, ``move_window_right``, ``compute_window``); this
checker deliberately shares no code with them.

Windows are represented as sorted lists of job ids; the universe is the
sorted list of eligible unfinished job ids.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import List, Optional, Sequence

from ..numeric import frac_sum
from .state import SchedulerState

Window = List[int]


def left_neighbors(universe: Sequence[int], window: Window) -> List[int]:
    """``L_t(W)`` relative to *universe*: eligible ids < min(W)."""
    if not window:
        return []
    idx = bisect_left(universe, window[0])
    return list(universe[:idx])


def right_neighbors(universe: Sequence[int], window: Window) -> List[int]:
    """``R_t(W)`` relative to *universe*: eligible ids > max(W).

    For an empty window this is the whole universe (paper convention
    ``R_t(∅) := J(t-1)``).
    """
    if not window:
        return list(universe)
    idx = bisect_right(universe, window[-1])
    return list(universe[idx:])


def window_requirement(state: SchedulerState, window: Window) -> Fraction:
    """``r(W) = Σ_{j∈W} r_j`` (full requirements, not remaining)."""
    return frac_sum(state.instance.requirement(j) for j in window)


def window_requirement_without_max(
    state: SchedulerState, window: Window
) -> Fraction:
    """``r(W \\ {max W})``."""
    return frac_sum(state.instance.requirement(j) for j in window[:-1])


# ---------------------------------------------------------------------------
# Property checking (used by the tests)
# ---------------------------------------------------------------------------


def window_violations(
    state: SchedulerState,
    window: Window,
    k: int,
    budget: Fraction,
    universe: Optional[Sequence[int]] = None,
) -> List[str]:
    """Return the Definition 3.1 properties violated by *window* (empty list
    if the window is a k-maximal job window for the current state).

    Property names: ``'a'`` contiguity, ``'b'`` resource-minus-max, ``'c'``
    at most one fractured, ``'d'`` started jobs inside, ``'size'`` |W| ≤ k,
    ``'e'`` left-maximality, ``'f'`` right-maximality.
    """
    if universe is None:
        universe = state.unfinished()
    violations: List[str] = []
    wset = set(window)
    if window:
        lo_i = bisect_left(universe, window[0])
        hi_i = bisect_right(universe, window[-1])
        if list(universe[lo_i:hi_i]) != sorted(window):
            violations.append("a")
    if window and window_requirement_without_max(state, sorted(window)) >= budget:
        violations.append("b")
    fractured_in_w = [j for j in window if state.is_fractured(j)]
    if len(fractured_in_w) > 1:
        violations.append("c")
    for j in universe:
        if j not in wset and state.is_started(j):
            violations.append("d")
            break
    if len(window) > k:
        violations.append("size")
    if len(window) < k and left_neighbors(universe, sorted(window)):
        violations.append("e")
    if (
        window_requirement(state, window) < budget
        and right_neighbors(universe, sorted(window))
    ):
        violations.append("f")
    return violations


def is_k_maximal(
    state: SchedulerState,
    window: Window,
    k: int,
    budget: Fraction,
    universe: Optional[Sequence[int]] = None,
) -> bool:
    """True iff *window* is a k-maximal job window (Definition 3.1)."""
    return not window_violations(state, window, k, budget, universe)
