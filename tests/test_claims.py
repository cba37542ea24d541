"""Direct tests of the paper's Claims 3.4-3.6 and Lemmas 3.7-3.8.

Each claim from the analysis of Section 3 gets its own property test that
replays the exact inductive situation the claim covers (with the
GrowWindowLeft repair documented in DESIGN.md §2).
"""

from fractions import Fraction

from hypothesis import given, settings

from repro.core.instance import Instance
from repro.core.state import SchedulerState
from repro.core.window import (
    is_k_maximal,
    window_requirement_without_max,
    window_violations,
)
from repro.engine.policies import (
    compute_assignment,
    compute_window,
    grow_window_left,
    grow_window_right,
    move_window_right,
)

from conftest import srj_instances

ONE = Fraction(1)


def _run_to_step(inst, steps):
    """Advance the algorithm *steps* steps; return (state, window)."""
    state = SchedulerState(inst)
    window = []
    size = max(inst.m - 1, 1)
    for _ in range(steps):
        if state.n_unfinished() == 0:
            break
        window = compute_window(state, window, size, ONE, state.unfinished())
        a = compute_assignment(state, window, ONE, state.unfinished())
        state.apply_step(a.shares)
        if a.extra_started is not None:
            window = sorted(set(window) | {a.extra_started})
    return state, window


@given(inst=srj_instances(min_m=3, max_m=7, max_n=9))
@settings(max_examples=50, deadline=None)
def test_claim_34_properties_a_to_d_preserved(inst):
    """Claim 3.4: if (a)-(d) hold before the auxiliary procedures, they
    hold after each of them."""
    size = inst.m - 1
    state, window = _run_to_step(inst, 3)
    if state.n_unfinished() == 0:
        return
    universe = state.unfinished()
    alive = set(universe)
    w = [j for j in window if j in alive]

    def no_abcd_violation(win):
        v = window_violations(state, win, size, ONE, universe)
        return not ({"a", "b", "c", "d"} & set(v))

    assert no_abcd_violation(w)
    w = grow_window_left(state, universe, w, size, ONE)
    assert no_abcd_violation(w), "after GrowWindowLeft"
    w = grow_window_right(state, universe, w, size, ONE)
    assert no_abcd_violation(w), "after GrowWindowRight"
    w = move_window_right(state, universe, w, ONE)
    assert no_abcd_violation(w), "after MoveWindowRight"


@given(inst=srj_instances(min_m=3, max_m=7, max_n=9))
@settings(max_examples=50, deadline=None)
def test_claim_35_empty_start_gives_maximal_window(inst):
    """Claim 3.5: from W = ∅ with no started jobs the procedures yield an
    (m-1)-maximal window."""
    state = SchedulerState(inst)
    size = inst.m - 1
    w = compute_window(state, [], size, ONE, state.unfinished())
    assert is_k_maximal(state, w, size, ONE)


@given(inst=srj_instances(min_m=3, max_m=7, max_n=9))
@settings(max_examples=50, deadline=None)
def test_claim_36_inductive_maximality(inst):
    """Claim 3.6 (repaired): from a maximal previous window, the next
    window is maximal again — tested over the first 6 steps."""
    size = inst.m - 1
    state = SchedulerState(inst)
    window = []
    for _ in range(6):
        if state.n_unfinished() == 0:
            return
        window = compute_window(state, window, size, ONE, state.unfinished())
        assert is_k_maximal(state, window, size, ONE), window_violations(
            state, window, size, ONE
        )
        a = compute_assignment(state, window, ONE, state.unfinished())
        state.apply_step(a.shares)
        if a.extra_started is not None:
            window = sorted(set(window) | {a.extra_started})


def test_lemma_37_counterexample_under_printed_pseudocode():
    """The instance from DESIGN.md §2 that breaks the *printed*
    GrowWindowLeft (gated on r(W) < R): our repaired version must re-admit
    job 0 after step 1 and keep property (e)."""
    inst = Instance.from_requirements(
        3, [Fraction(1, 8), Fraction(1, 8), Fraction(1)]
    )
    state = SchedulerState(inst)
    size = 2
    w = compute_window(state, [], size, ONE, state.unfinished())
    a = compute_assignment(state, w, ONE, state.unfinished())
    state.apply_step(a.shares)
    # job 2 (r = 1) is fractured with remaining 1/8; jobs 0/1: one finished
    w2 = compute_window(state, w, size, ONE, state.unfinished())
    assert is_k_maximal(state, w2, size, ONE), window_violations(
        state, w2, size, ONE
    )
    # the repair admits the small job; the printed code would leave {2}
    assert len(w2) == 2


@given(inst=srj_instances(min_m=3, max_m=7, max_n=9))
@settings(max_examples=40, deadline=None)
def test_grow_left_preserves_property_b_explicitly(inst):
    """The repaired GrowWindowLeft's defining invariant: after any number
    of adds, r(W \\ {max W}) < R."""
    state, window = _run_to_step(inst, 2)
    if state.n_unfinished() == 0:
        return
    universe = state.unfinished()
    alive = set(universe)
    w = [j for j in window if j in alive]
    w = grow_window_left(state, universe, w, inst.m - 1, ONE)
    if w:
        assert window_requirement_without_max(state, sorted(w)) < ONE


@given(inst=srj_instances(min_m=3, max_m=6, max_n=8))
@settings(max_examples=40, deadline=None)
def test_lemma_38_left_border_absorbing_stepwise(inst):
    """Lemma 3.8(a) step-local form: if the processed window touches the
    left border, the next one does too."""
    size = inst.m - 1
    state = SchedulerState(inst)
    window = []
    at_left = False
    for _ in range(30):
        if state.n_unfinished() == 0:
            return
        window = compute_window(state, window, size, ONE, state.unfinished())
        universe = state.unfinished()
        touches_left = not window or window[0] == universe[0]
        if at_left:
            assert touches_left, "left border lost"
        at_left = at_left or touches_left
        a = compute_assignment(state, window, ONE, state.unfinished())
        state.apply_step(a.shares)
        if a.extra_started is not None:
            window = sorted(set(window) | {a.extra_started})
