"""Dependency-checked decoding schedules for the virtual super receiver.

The outer-bound arguments claim that a super receiver observing one colour
class of base stations can replay the network's conferencing functions and
decode every message.  Each claim is a linear plan of steps, every step
consuming labelled resources produced earlier (or granted initially) and
producing new ones.  The validator checks resource availability, conferencing
round budgets, the total delay split, and the decoding goals.

Plans are symbolic: they name colour classes, not cells, so they need no
lattice and no partition.  Every conferencing phase follows one rule
(:func:`_phase`): round j reads the phase's inputs plus everything heard in
rounds 1..j-1, and the closing decode or encode step reads every round.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import groupby
from typing import Callable, FrozenSet, Iterable, List, Optional, Sequence, Tuple

RX_CONF = "RX_CONF"
TX_CONF = "TX_CONF"
DECODE = "DECODE"
ENCODE = "ENCODE"
RECONSTRUCT = "RECONSTRUCT"

GENIE = "G"


def y(color: str) -> str:
    return f"Y[{color}]"


def x(color: str) -> str:
    return f"X[{color}]"


def mhat(color: str) -> str:
    return f"Mhat[{color}]"


def q_msg(src: str, dst: str, rnd: int) -> str:
    return f"Q[{src}->{dst}][{rnd}]"


def t_msg(src: str, dst: str, rnd: int) -> str:
    return f"T[{src}->{dst}][{rnd}]"


@dataclass(frozen=True)
class Step:
    kind: str
    name: str
    consumes: FrozenSet[str]
    produces: FrozenSet[str]
    round_index: int = 0


@dataclass(frozen=True)
class SchedulePlan:
    steps: Tuple[Step, ...]
    d_t: int
    d_r: int
    d: int
    initial: FrozenSet[str]
    goals: FrozenSet[str]

    def without_step(self, index: int) -> "SchedulePlan":
        """Copy of the plan with one step removed (for robustness checks)."""
        steps = self.steps[:index] + self.steps[index + 1 :]
        return replace(self, steps=steps)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: Tuple[str, ...]


Message = Callable[[str, str, int], str]
Pairs = Sequence[Tuple[str, str]]


def _step(kind, name, consumes: Iterable[str], produces: Iterable[str], rnd: int = 0) -> Step:
    return Step(kind, name, frozenset(consumes), frozenset(produces), rnd)


def _rounds(msg: Message, pairs: Pairs, last: int) -> List[str]:
    """The messages ``pairs`` carry in rounds 1..last."""
    return [msg(src, dst, j) for j in range(1, last + 1) for src, dst in pairs]


def _phase(
    kind: str, name: str, budget: int, msg: Message, heard: Pairs, sent: Pairs, inputs: List[str]
) -> Tuple[List[Step], List[str]]:
    """Rounds 1..budget of one conferencing phase, and the messages heard in
    them: round j reads ``inputs`` and the ``heard`` messages of rounds
    1..j-1 and produces its ``sent`` messages, which are among the heard
    ones.  ``name`` is formatted with the round.  Each round's messages are
    formatted once; the heard ones grow one list, and the set each round
    reads grows from the previous round's."""
    at = [heard.index(pair) for pair in sent]
    steps: List[Step] = []
    read, heard_so_far = frozenset(inputs), []
    for j in range(1, budget + 1):
        now = [msg(src, dst, j) for src, dst in heard]
        steps.append(Step(kind, name.format(j), read, frozenset([now[i] for i in at]), j))
        read = read.union(now)
        heard_so_far += now
    return steps, heard_so_far


#: Largest accepted ``d_t + d_r``.  A plan lists about ``3·(d_t + d_r)²``
#: resource names; at the cap, about 3.5 M names, built in under a second in
#: about 230 MB.
MAX_ROUNDS = 1000


def _check_budgets(d_t: int, d_r: int, d: Optional[int]) -> int:
    if not all(isinstance(v, int) for v in (d_t, d_r, 0 if d is None else d)):
        raise ValueError(f"budgets and delay must be integers, got {(d_t, d_r, d)!r}")
    if d_t < 0 or d_r < 0:
        raise ValueError("conferencing budgets must be non-negative")
    if d_t + d_r > MAX_ROUNDS:
        raise ValueError(f"conferencing budgets d_t + d_r = {d_t + d_r} exceed the cap of "
                         f"{MAX_ROUNDS} rounds")
    if d is None:
        d = d_t + d_r
    if d < 0:
        raise ValueError("total delay must be non-negative")
    return d


def schedule_two_color(d_t: int, d_r: int, d: Optional[int] = None) -> SchedulePlan:
    """Super-receiver plan on the two-colour partition.

    Observed at the start: the red outputs, every conferencing message sent
    from white into red, and the genie term.  The plan replays red receiver
    conferencing, decodes red, replays red transmitter conferencing, rebuilds
    the red inputs, reconstructs the white outputs with the genie, replays
    the remaining receiver conferencing, and decodes white.
    """
    d = _check_budgets(d_t, d_r, d)
    into_red = [("white", "red"), ("red", "red")]
    into_white = [("red", "white"), ("white", "white")]
    red_rx, red_q = _phase(RX_CONF, "rx round {}: red-side receiver messages", d_r, q_msg,
                           into_red, [("red", "red")], [y("red")])
    red_tx, red_t = _phase(TX_CONF, "tx round {}: red-side transmitter messages", d_t, t_msg,
                           into_red, [("red", "red")], [mhat("red")])
    white_rx, white_q = _phase(RX_CONF, "rx round {}: white-side receiver messages", d_r, q_msg,
                               into_white, into_white, [y("white"), y("red")])
    steps = [
        *red_rx,
        _step(DECODE, "decode red messages", [y("red")] + red_q, [mhat("red")]),
        *red_tx,
        _step(ENCODE, "re-encode red inputs", [mhat("red")] + red_t, [x("red")]),
        _step(RECONSTRUCT, "reconstruct white outputs", [x("red"), y("red"), GENIE],
              [y("white")]),
        *white_rx,
        _step(DECODE, "decode white messages", [y("white")] + white_q, [mhat("white")]),
    ]
    from_white = [("white", "red")]
    initial = [y("red"), GENIE] + _rounds(q_msg, from_white, d_r) + _rounds(t_msg, from_white, d_t)
    return SchedulePlan(
        steps=tuple(steps),
        d_t=d_t,
        d_r=d_r,
        d=d,
        initial=frozenset(initial),
        goals=frozenset({mhat("red"), mhat("white")}),
    )


_FOUR_TX_PAIRS = (
    ("white", "pink"),
    ("pink", "white"),
    ("red", "pink"),
    ("pink", "red"),
    ("pink", "pink"),
    ("white", "white"),
)


def schedule_four_color(d_t: int, d_r: int, d: Optional[int] = None) -> SchedulePlan:
    """Super-receiver plan on the four-colour partition.

    Observed at the start: red, pink and white outputs plus the genie term.
    Red messages are decoded from the red outputs and pink-to-red receiver
    messages alone; the blue outputs are reconstructed, after which full
    conferencing is replayed and the remaining colours are decoded.
    """
    d = _check_budgets(d_t, d_r, d)
    pairs = _FOUR_TX_PAIRS
    to_red = [("pink", "red")]
    full = [("all", "all")]
    observed = [y("red"), y("pink"), y("white")]
    observed_rx, _ = _phase(RX_CONF, "rx round {}: observed-colour receiver messages", d_r, q_msg,
                            pairs, pairs, observed)
    tx, _ = _phase(TX_CONF, "tx round {}: transmitter messages", d_t, t_msg,
                   pairs, pairs, [mhat("red")])
    full_rx, full_q = _phase(RX_CONF, "rx round {}: full receiver conferencing", d_r, q_msg,
                             full, full, observed + [y("blue")])
    steps = [
        *observed_rx,
        _step(DECODE, "decode red messages", [y("red")] + _rounds(q_msg, to_red, d_r),
              [mhat("red")]),
        *tx,
        _step(ENCODE, "re-encode red inputs", [mhat("red")] + _rounds(t_msg, to_red, d_t),
              [x("red")]),
        _step(RECONSTRUCT, "reconstruct blue outputs", [x("red")] + observed + [GENIE],
              [y("blue")]),
        *full_rx,
        _step(DECODE, "decode pink, white and blue messages",
              [y("pink"), y("white"), y("blue")] + full_q,
              [mhat("pink"), mhat("white"), mhat("blue")]),
    ]
    return SchedulePlan(
        steps=tuple(steps),
        d_t=d_t,
        d_r=d_r,
        d=d,
        initial=frozenset(observed + [GENIE]),
        goals=frozenset({mhat("red"), mhat("pink"), mhat("white"), mhat("blue")}),
    )


def validate_schedule(plan: SchedulePlan) -> ValidationReport:
    """Machine-check a schedule: dependencies, round budgets, goals, delay."""
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

    # conferencing rounds: within budget, no repeats inside one phase
    # (a phase is a maximal run of steps of the same conferencing kind)
    budgets = {RX_CONF: plan.d_r, TX_CONF: plan.d_t}
    for kind, phase in groupby(enumerate(plan.steps), key=lambda e: e[1].kind):
        if kind not in budgets:
            continue
        budget = budgets[kind]
        seen = set()
        for i, step in phase:
            rnd = step.round_index
            if not 1 <= rnd <= budget:
                violations.append(
                    f"step {i} ({step.name}): round {rnd} outside budget [1, {budget}]"
                )
            elif rnd in seen:
                violations.append(f"step {i} ({step.name}): round {rnd} repeated in phase")
            seen.add(rnd)

    unmet = plan.goals - available
    if unmet:
        violations.append(f"goals never produced: {sorted(unmet)}")
    return ValidationReport(ok=not violations, violations=tuple(violations))
