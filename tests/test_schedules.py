import re
from dataclasses import fields, replace
from typing import List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from hexmg import schedules
from hexmg.schedules import (
    DECODE,
    ENCODE,
    GENIE,
    MAX_ROUNDS,
    RECONSTRUCT,
    RX_CONF,
    TX_CONF,
    SchedulePlan,
    Step,
    mhat,
    q_msg,
    schedule_four_color,
    schedule_two_color,
    t_msg,
    validate_schedule,
    x,
    y,
)


def test_canonical_two_color_validates():
    plan = schedule_two_color(10, 10, 20)
    report = validate_schedule(plan)
    assert report.ok, report.violations


def test_canonical_four_color_validates():
    plan = schedule_four_color(1, 2, 3)
    report = validate_schedule(plan)
    assert report.ok, report.violations


@pytest.mark.parametrize("d", [3, 20])
def test_all_delay_splits_validate(d):
    for d_t in range(d + 1):
        d_r = d - d_t
        assert validate_schedule(schedule_two_color(d_t, d_r, d)).ok
        assert validate_schedule(schedule_four_color(d_t, d_r, d)).ok


def test_zero_rx_rounds_still_decodes():
    plan = schedule_two_color(4, 0, 4)
    assert validate_schedule(plan).ok


def test_swapped_phases_fail():
    plan = schedule_two_color(2, 2, 4)
    decode_i = next(i for i, s in enumerate(plan.steps) if s.kind == DECODE)
    steps = list(plan.steps)
    steps.insert(0, steps.pop(decode_i))  # decode before conferencing
    swapped = SchedulePlan(
        steps=tuple(steps),
        d_t=plan.d_t,
        d_r=plan.d_r,
        d=plan.d,
        initial=plan.initial,
        goals=plan.goals,
    )
    report = validate_schedule(swapped)
    assert not report.ok
    assert any("missing inputs" in v for v in report.violations)


@pytest.mark.parametrize("builder", [schedule_two_color, schedule_four_color])
def test_decode_and_reconstruct_deletions_always_violate(builder):
    plan = builder(2, 2, 4)
    for i, step in enumerate(plan.steps):
        if step.kind in (DECODE, RECONSTRUCT):
            assert not validate_schedule(plan.without_step(i)).ok, step.name


def test_every_single_deletion_violates_in_canonical_plan():
    # every step's products are consumed later, so no deletion goes unnoticed
    plan = schedule_two_color(2, 2, 4)
    for i in range(len(plan.steps)):
        assert not validate_schedule(plan.without_step(i)).ok


def test_genie_removal_breaks_reconstruct():
    for builder in (schedule_two_color, schedule_four_color):
        plan = builder(2, 2, 4)
        broken = SchedulePlan(
            steps=plan.steps,
            d_t=plan.d_t,
            d_r=plan.d_r,
            d=plan.d,
            initial=plan.initial - {GENIE},
            goals=plan.goals,
        )
        report = validate_schedule(broken)
        assert not report.ok
        assert any("reconstruct" in v for v in report.violations)


def test_budget_overflow_detected():
    plan = schedule_two_color(1, 1, 2)
    extra = Step(
        kind=RX_CONF,
        name="one round too many",
        consumes=frozenset({"Y[red]"}),
        produces=frozenset({"Q[red->red][2]"}),
        round_index=2,
    )
    overloaded = SchedulePlan(
        steps=plan.steps[:1] + (extra,) + plan.steps[1:],
        d_t=plan.d_t,
        d_r=plan.d_r,
        d=plan.d,
        initial=plan.initial,
        goals=plan.goals,
    )
    report = validate_schedule(overloaded)
    assert any("outside budget" in v for v in report.violations)


def test_delay_split_checked():
    plan = schedule_two_color(3, 3, 4)
    report = validate_schedule(plan)
    assert any("exceeds total budget" in v for v in report.violations)


def test_truncated_plan_misses_goal():
    plan = schedule_two_color(1, 1, 2)
    truncated = SchedulePlan(
        steps=plan.steps[:-1],
        d_t=plan.d_t,
        d_r=plan.d_r,
        d=plan.d,
        initial=plan.initial,
        goals=plan.goals,
    )
    report = validate_schedule(truncated)
    assert any("goals never produced" in v for v in report.violations)


def test_negative_budgets_rejected():
    with pytest.raises(ValueError):
        schedule_two_color(-1, 2)
    with pytest.raises(ValueError):
        schedule_four_color(1, -2)


@pytest.mark.parametrize("builder", [schedule_two_color, schedule_four_color])
@pytest.mark.parametrize("budgets,got", [
    ((1.5, 0), "(1.5, 0, None)"), ((1, 1, 2.5), "(1, 1, 2.5)"), ((1, "2"), "(1, '2', None)")],
    ids=["float-budget", "float-delay", "str-budget"])
def test_non_integer_budgets_are_refused(monkeypatch, builder, budgets, got):
    """A budget or delay that is not an int is refused with its values
    named, before any step is built and with no lattice."""
    from hexmg import lattice

    monkeypatch.setattr(lattice, "build_network", lambda *a: pytest.fail("a lattice was built"))
    monkeypatch.setattr(schedules, "_phase", lambda *a: pytest.fail("a phase was built"))
    with pytest.raises(ValueError, match=re.escape(f"budgets and delay must be integers, got {got}")):
        builder(*budgets)


def test_four_color_red_decode_uses_only_red_and_pink_to_red():
    plan = schedule_four_color(2, 3, 5)
    decode_red = next(s for s in plan.steps if s.kind == DECODE and "red" in s.name)
    assert decode_red.consumes == frozenset(
        {"Y[red]"} | {f"Q[pink->red][{j}]" for j in range(1, 4)}
    )


def test_canonical_plan_shapes():
    d_t, d_r = 3, 4
    plan = schedule_two_color(d_t, d_r, 7)
    kinds = [s.kind for s in plan.steps]
    assert kinds.count(RX_CONF) == 2 * d_r
    assert kinds.count("TX_CONF") == d_t
    assert kinds.count(DECODE) == 2
    assert kinds.count("ENCODE") == 1
    assert kinds.count(RECONSTRUCT) == 1
    plan4 = schedule_four_color(d_t, d_r, 7)
    kinds4 = [s.kind for s in plan4.steps]
    assert kinds4.count(RX_CONF) == 2 * d_r
    assert kinds4.count("TX_CONF") == d_t
    assert kinds4.count(DECODE) == 2
    assert kinds4.count(RECONSTRUCT) == 1


# ---------------------------------------------------------------------------
# Oracles: the hand-unrolled builders that preceded the single phase rule,
# kept verbatim apart from the partition argument they no longer take.

def _oracle_step(kind, name, consumes, produces, rnd=0):
    return Step(kind, name, frozenset(consumes), frozenset(produces), rnd)


def _oracle_budgets(d_t, d_r, d):
    if d_t < 0 or d_r < 0:
        raise ValueError("conferencing budgets must be non-negative")
    if d is None:
        d = d_t + d_r
    if d < 0:
        raise ValueError("total delay must be non-negative")
    return d


def oracle_two_color(d_t: int, d_r: int, d: Optional[int] = None) -> SchedulePlan:
    d = _oracle_budgets(d_t, d_r, d)
    initial = {y("red"), GENIE}
    initial.update(q_msg("white", "red", j) for j in range(1, d_r + 1))
    initial.update(t_msg("white", "red", j) for j in range(1, d_t + 1))

    steps: List[Step] = []
    for j in range(1, d_r + 1):
        prior = [q_msg("white", "red", i) for i in range(1, j)]
        prior += [q_msg("red", "red", i) for i in range(1, j)]
        steps.append(
            _oracle_step(
                RX_CONF,
                f"rx round {j}: red-side receiver messages",
                [y("red")] + prior,
                [q_msg("red", "red", j)],
                rnd=j,
            )
        )
    steps.append(
        _oracle_step(
            DECODE,
            "decode red messages",
            [y("red")]
            + [q_msg("white", "red", j) for j in range(1, d_r + 1)]
            + [q_msg("red", "red", j) for j in range(1, d_r + 1)],
            [mhat("red")],
        )
    )
    for j in range(1, d_t + 1):
        prior = [t_msg("white", "red", i) for i in range(1, j)]
        prior += [t_msg("red", "red", i) for i in range(1, j)]
        steps.append(
            _oracle_step(
                TX_CONF,
                f"tx round {j}: red-side transmitter messages",
                [mhat("red")] + prior,
                [t_msg("red", "red", j)],
                rnd=j,
            )
        )
    steps.append(
        _oracle_step(
            ENCODE,
            "re-encode red inputs",
            [mhat("red")]
            + [t_msg("white", "red", j) for j in range(1, d_t + 1)]
            + [t_msg("red", "red", j) for j in range(1, d_t + 1)],
            [x("red")],
        )
    )
    steps.append(
        _oracle_step(
            RECONSTRUCT,
            "reconstruct white outputs",
            [x("red"), y("red"), GENIE],
            [y("white")],
        )
    )
    for j in range(1, d_r + 1):
        prior = [q_msg("red", "white", i) for i in range(1, j)]
        prior += [q_msg("white", "white", i) for i in range(1, j)]
        steps.append(
            _oracle_step(
                RX_CONF,
                f"rx round {j}: white-side receiver messages",
                [y("white"), y("red")] + prior,
                [q_msg("red", "white", j), q_msg("white", "white", j)],
                rnd=j,
            )
        )
    steps.append(
        _oracle_step(
            DECODE,
            "decode white messages",
            [y("white")]
            + [q_msg("red", "white", j) for j in range(1, d_r + 1)]
            + [q_msg("white", "white", j) for j in range(1, d_r + 1)],
            [mhat("white")],
        )
    )
    return SchedulePlan(
        steps=tuple(steps),
        d_t=d_t,
        d_r=d_r,
        d=d,
        initial=frozenset(initial),
        goals=frozenset({mhat("red"), mhat("white")}),
    )


_ORACLE_PAIRS = (
    ("white", "pink"),
    ("pink", "white"),
    ("red", "pink"),
    ("pink", "red"),
    ("pink", "pink"),
    ("white", "white"),
)


def oracle_four_color(d_t: int, d_r: int, d: Optional[int] = None) -> SchedulePlan:
    d = _oracle_budgets(d_t, d_r, d)
    initial = {y("red"), y("pink"), y("white"), GENIE}

    steps: List[Step] = []
    pairs = _ORACLE_PAIRS
    for j in range(1, d_r + 1):
        prior = [q_msg(a, b, i) for i in range(1, j) for a, b in pairs]
        steps.append(
            _oracle_step(
                RX_CONF,
                f"rx round {j}: observed-colour receiver messages",
                [y("red"), y("pink"), y("white")] + prior,
                [q_msg(a, b, j) for a, b in pairs],
                rnd=j,
            )
        )
    steps.append(
        _oracle_step(
            DECODE,
            "decode red messages",
            [y("red")] + [q_msg("pink", "red", j) for j in range(1, d_r + 1)],
            [mhat("red")],
        )
    )
    for j in range(1, d_t + 1):
        prior = [t_msg(a, b, i) for i in range(1, j) for a, b in pairs]
        steps.append(
            _oracle_step(
                TX_CONF,
                f"tx round {j}: transmitter messages",
                [mhat("red")] + prior,
                [t_msg(a, b, j) for a, b in pairs],
                rnd=j,
            )
        )
    steps.append(
        _oracle_step(
            ENCODE,
            "re-encode red inputs",
            [mhat("red")] + [t_msg("pink", "red", j) for j in range(1, d_t + 1)],
            [x("red")],
        )
    )
    steps.append(
        _oracle_step(
            RECONSTRUCT,
            "reconstruct blue outputs",
            [x("red"), y("red"), y("pink"), y("white"), GENIE],
            [y("blue")],
        )
    )
    for j in range(1, d_r + 1):
        prior = [q_msg("all", "all", i) for i in range(1, j)]
        steps.append(
            _oracle_step(
                RX_CONF,
                f"rx round {j}: full receiver conferencing",
                [y("red"), y("pink"), y("white"), y("blue")] + prior,
                [q_msg("all", "all", j)],
                rnd=j,
            )
        )
    steps.append(
        _oracle_step(
            DECODE,
            "decode pink, white and blue messages",
            [y("pink"), y("white"), y("blue")]
            + [q_msg("all", "all", j) for j in range(1, d_r + 1)],
            [mhat("pink"), mhat("white"), mhat("blue")],
        )
    )
    return SchedulePlan(
        steps=tuple(steps),
        d_t=d_t,
        d_r=d_r,
        d=d,
        initial=frozenset(initial),
        goals=frozenset({mhat("red"), mhat("pink"), mhat("white"), mhat("blue")}),
    )


def oracle_validate(plan: SchedulePlan) -> List[str]:
    violations: List[str] = []
    if plan.d_t + plan.d_r > plan.d:
        violations.append(
            f"delay split {plan.d_t}+{plan.d_r} exceeds total budget {plan.d}"
        )

    available = set(plan.initial)
    for i, step in enumerate(plan.steps):
        missing = step.consumes - available
        if missing:
            violations.append(
                f"step {i} ({step.name}): missing inputs {sorted(missing)}"
            )
        available |= step.produces

    i = 0
    while i < len(plan.steps):
        kind = plan.steps[i].kind
        if kind not in (RX_CONF, TX_CONF):
            i += 1
            continue
        j = i
        seen = set()
        budget = plan.d_r if kind == RX_CONF else plan.d_t
        while j < len(plan.steps) and plan.steps[j].kind == kind:
            rnd = plan.steps[j].round_index
            if not 1 <= rnd <= budget:
                violations.append(
                    f"step {j} ({plan.steps[j].name}): round {rnd} outside budget "
                    f"[1, {budget}]"
                )
            elif rnd in seen:
                violations.append(
                    f"step {j} ({plan.steps[j].name}): round {rnd} repeated in phase"
                )
            seen.add(rnd)
            j += 1
        i = j

    unmet = plan.goals - available
    if unmet:
        violations.append(f"goals never produced: {sorted(unmet)}")
    return violations


def _variants(plan):
    """The plan, each single-step deletion, each single initial-resource
    removal, both budgets one round short (rounds outside budget), and the
    conferencing steps alone (adjacent phases merge, so rounds repeat)."""
    yield plan
    yield from (plan.without_step(i) for i in range(len(plan.steps)))
    yield from (replace(plan, initial=plan.initial - {r}) for r in sorted(plan.initial))
    yield replace(plan, d_r=plan.d_r - 1)
    yield replace(plan, d_t=plan.d_t - 1)
    yield replace(plan, steps=tuple(s for s in plan.steps if s.kind in (RX_CONF, TX_CONF)))


@pytest.mark.parametrize(
    "builder,oracle",
    [(schedule_two_color, oracle_two_color), (schedule_four_color, oracle_four_color)],
    ids=["two", "four"],
)
@pytest.mark.parametrize("d_t", range(9))
def test_builders_equal_the_unrolled_oracles(builder, oracle, d_t):
    for d_r in range(9):
        for d in (None, d_t + d_r, d_t + d_r + 3, d_t + d_r - 2):
            if d is not None and d < 0:
                for build in (builder, oracle):
                    with pytest.raises(ValueError):
                        build(d_t, d_r, d)
                continue
            got, want = builder(d_t, d_r, d), oracle(d_t, d_r, d)
            for f in ("d_t", "d_r", "d", "initial", "goals"):
                assert getattr(got, f) == getattr(want, f), (d_t, d_r, d, f)
            assert len(got.steps) == len(want.steps)
            for a, b in zip(got.steps, want.steps):
                for f in fields(Step):
                    assert getattr(a, f.name) == getattr(b, f.name), (d_t, d_r, d, b.name)
            for g, w in zip(_variants(got), _variants(want)):
                assert validate_schedule(g).violations == tuple(oracle_validate(w))


def oracle_phase(kind, name, budget, msg, heard, sent, inputs):
    """The per-round phase construction that preceded formatting each
    round's messages once: round j rebuilds and formats every heard message
    of rounds 1..j-1, and the closing step formats every round again."""
    def rounds(last):
        return [msg(src, dst, i) for i in range(1, last + 1) for src, dst in heard]

    steps = [
        Step(kind, name.format(j), frozenset(inputs + rounds(j - 1)),
             frozenset(msg(src, dst, j) for src, dst in sent), j)
        for j in range(1, budget + 1)
    ]
    return steps, rounds(budget)


@pytest.mark.parametrize("builder", [schedule_two_color, schedule_four_color], ids=["two", "four"])
@pytest.mark.parametrize("d", [0, 1, 2, 3, 4, 20])
def test_phases_equal_the_per_round_oracle(monkeypatch, builder, d):
    plans = [builder(d_t, d - d_t, d) for d_t in range(d + 1)]
    monkeypatch.setattr(schedules, "_phase", oracle_phase)
    for got in plans:
        want = builder(got.d_t, got.d_r, d)
        assert len(got.steps) == len(want.steps)
        for a, b in zip(got.steps, want.steps):
            assert (a.kind, a.name, a.consumes, a.produces, a.round_index) == (
                b.kind, b.name, b.consumes, b.produces, b.round_index)


def test_budgets_past_the_round_cap_are_refused_before_any_step():
    """A plan lists about 3(d_t + d_r)^2 names: budgets past MAX_ROUNDS are
    refused at once, with the cap named, for every split."""
    for builder in (schedule_two_color, schedule_four_color):
        for d_t in (0, MAX_ROUNDS // 2, MAX_ROUNDS + 1):
            d_r = MAX_ROUNDS + 1 - d_t
            with pytest.raises(ValueError, match=f"cap of {MAX_ROUNDS} rounds"):
                builder(d_t, d_r)
        with pytest.raises(ValueError, match="cap"):
            builder(10 ** 9, 10 ** 9, 1)


@settings(max_examples=60, deadline=None)
@given(d_t=st.integers(0, 12), d_r=st.integers(0, 12), slack=st.integers(0, 3))
def test_every_step_and_initial_resource_is_needed(d_t, d_r, slack):
    for builder in (schedule_two_color, schedule_four_color):
        plan = builder(d_t, d_r, d_t + d_r + slack)
        assert validate_schedule(plan).ok
        for i in range(len(plan.steps)):
            assert not validate_schedule(plan.without_step(i)).ok, plan.steps[i].name
        for r in plan.initial:
            assert not validate_schedule(replace(plan, initial=plan.initial - {r})).ok, r
