"""Tests for the discrete-event simulation core."""

from __future__ import annotations

from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.network.simulator import _COMPACT_MIN, Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    log = []
    sim.schedule(2.0, log.append, "b")
    sim.schedule(1.0, log.append, "a")
    sim.schedule(3.0, log.append, "c")
    sim.run()
    assert log == ["a", "b", "c"]


def test_ties_break_by_scheduling_order():
    sim = Simulator()
    log = []
    sim.schedule(1.0, log.append, "first")
    sim.schedule(1.0, log.append, "second")
    sim.run()
    assert log == ["first", "second"]


def test_now_advances_with_events():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.0]


def test_run_until_stops_clock():
    sim = Simulator()
    log = []
    sim.schedule(1.0, log.append, 1)
    sim.schedule(10.0, log.append, 2)
    sim.run(until=5.0)
    assert log == [1]
    assert sim.now == 5.0
    assert sim.n_pending == 1


def test_events_can_schedule_events():
    sim = Simulator()
    log = []

    def chain(n):
        log.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert log == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_cancelled_events_skipped():
    sim = Simulator()
    log = []
    ev = sim.schedule(1.0, log.append, "x")
    ev.cancel()
    sim.run()
    assert log == []


def test_cancel_idempotent():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    ev.cancel()
    ev.cancel()
    assert sim.run() == 0


def test_step_single_event():
    sim = Simulator()
    log = []
    sim.schedule(1.0, log.append, 1)
    sim.schedule(2.0, log.append, 2)
    assert sim.step()
    assert log == [1]
    assert sim.step()
    assert not sim.step()


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule(-1.0, lambda: None)


def test_runaway_guard():
    sim = Simulator()

    def forever():
        sim.schedule(0.0, forever)

    sim.schedule(0.0, forever)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_reentrancy_rejected():
    sim = Simulator()

    def reenter():
        sim.run()

    sim.schedule(0.0, reenter)
    with pytest.raises(SimulationError):
        sim.run()


def test_processed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.n_processed == 5


def test_run_until_advances_to_until_when_idle():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


class TestHeapHygiene:
    def test_n_pending_excludes_cancelled(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        for ev in events[:4]:
            ev.cancel()
        assert sim.n_pending == 6
        assert sim.n_cancelled == 4

    def test_cancel_after_run_does_not_count(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.run()
        ev.cancel()
        assert sim.n_cancelled == 0
        assert sim.stats()["events_cancelled"] == 0

    def test_pop_reclaims_cancelled_slot(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        ev.cancel()
        assert sim.n_cancelled == 1
        sim.run()
        assert sim.n_cancelled == 0
        assert sim.n_pending == 0

    def test_threshold_compaction(self):
        sim = Simulator()
        keep = [sim.schedule(1e9, lambda: None) for _ in range(4)]
        doomed = [
            sim.schedule(float(i + 1), lambda: None)
            for i in range(2 * _COMPACT_MIN)
        ]
        for ev in doomed:
            ev.cancel()
        # The cancelled fraction crossed the threshold mid-way, so the
        # queue was reaped without waiting for pops; cancels after the
        # sweep accumulate again below the trigger.
        assert sim.stats()["compactions"] >= 1
        assert sim.n_cancelled < len(doomed)
        assert sim.n_pending == len(keep)
        sim.run()
        assert sim.n_processed == len(keep)

    def test_explicit_compact_preserves_order(self):
        sim = Simulator()
        log = []
        sim.schedule(3.0, log.append, "c")
        ev = sim.schedule(1.0, log.append, "dropped")
        sim.schedule(2.0, log.append, "b")
        ev.cancel()
        sim.compact()
        assert sim.n_cancelled == 0
        sim.run()
        assert log == ["b", "c"]

    def test_peak_queue_depth(self):
        sim = Simulator()
        for i in range(7):
            sim.schedule(float(i + 1), lambda: None)
        sim.run()
        assert sim.peak_queue_depth == 7
        assert sim.stats()["events_executed"] == 7


class TestSchedulePeriodic:
    def test_fires_on_accumulated_grid(self):
        sim = Simulator()
        times = []
        sim.schedule_periodic(
            0.5, lambda: times.append(sim.now), first=1.0, until=3.0
        )
        sim.run()
        assert times == [1.0, 1.5, 2.0, 2.5]

    def test_until_is_exclusive(self):
        sim = Simulator()
        times = []
        sim.schedule_periodic(
            1.0, lambda: times.append(sim.now), first=1.0, until=3.0
        )
        sim.run()
        assert times == [1.0, 2.0]

    def test_empty_train_is_inert(self):
        sim = Simulator()
        ev = sim.schedule_periodic(
            1.0, lambda: None, first=5.0, until=5.0
        )
        assert sim.n_pending == 0
        ev.cancel()
        assert sim.n_cancelled == 0
        assert sim.run() == 0

    def test_default_first_is_now_plus_interval(self):
        sim = Simulator()
        times = []
        sim.schedule_periodic(
            2.0, lambda: times.append(sim.now), until=7.0
        )
        sim.run()
        assert times == [2.0, 4.0, 6.0]

    def test_cancel_stops_the_train(self):
        sim = Simulator()
        fired = []
        handle = []

        def hit():
            fired.append(sim.now)
            if len(fired) == 2:
                handle[0].cancel()

        handle.append(sim.schedule_periodic(1.0, hit, first=1.0))
        sim.run()
        assert fired == [1.0, 2.0]

    def test_keeps_seq_against_later_events(self):
        # The train keeps its creation seq: a one-shot scheduled later
        # at a shared time fires after the train's member, exactly as
        # if the whole train had been pre-scheduled up front.
        sim = Simulator()
        log = []
        sim.schedule_periodic(
            1.0, lambda: log.append("train"), first=1.0, until=3.5
        )
        sim.schedule_at(2.0, log.append, "one-shot")
        sim.run()
        assert log == ["train", "train", "one-shot", "train"]

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_periodic(0.0, lambda: None)

    def test_first_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_periodic(1.0, lambda: None, first=1.0)

    def test_step_rearms_periodics(self):
        sim = Simulator()
        times = []
        sim.schedule_periodic(
            1.0, lambda: times.append(sim.now), first=1.0, until=2.5
        )
        assert sim.step()
        assert sim.step()
        assert not sim.step()
        assert times == [1.0, 2.0]


class _Harness:
    """One arm of the train-vs-eager comparison.

    Every callback is a method that logs itself through the probe;
    ``spawn`` members schedule a child (possibly at the same time) and
    the ``cancel_after``-th firing cancels the train.
    """

    def __init__(self, eager: bool, cancel_after: Optional[int]) -> None:
        self.sim = Simulator()
        self.sim.attach_probe(self)
        self.eager = eager
        self.cancel_after = cancel_after
        self.fired: list[tuple[float, int, str, tuple]] = []
        self.scheduled: list[int] = []
        self.handles: list = []

    # Probe protocol -------------------------------------------------
    def on_scheduled(self, event) -> None:
        self.scheduled.append(event.seq)

    def on_event_begin(self, time, event) -> None:
        self.fired.append((time, event.seq, event.fn.__name__, event.args))

    def on_event_end(self, event) -> None:
        pass

    # Callbacks ------------------------------------------------------
    def _after_fire(self) -> None:
        if len(self.fired) == self.cancel_after:
            for handle in self.handles:
                handle.cancel()

    def ping(self, label, spawn_delay=None) -> None:
        if spawn_delay is not None:
            self.sim.schedule(spawn_delay, self.pong, label)
        self._after_fire()

    def pong(self, label, spawn_delay=None) -> None:
        if spawn_delay is not None:
            self.sim.schedule(spawn_delay, self.ping, label)
        self._after_fire()

    # Setup ------------------------------------------------------------
    def install(self, before, members, after) -> None:
        for time, label in before:
            self.sim.schedule_at(time, self.ping, label)
        entries = [
            (time, self.pong if kind else self.ping, (label, spawn))
            for time, kind, label, spawn in members
        ]
        if self.eager:
            self.handles = [
                self.sim.schedule_at(time, fn, *args)
                for time, fn, args in entries
            ]
        else:
            self.handles = [self.sim.schedule_train(entries)]
        for time, label in after:
            self.sim.schedule_at(time, self.pong, label)


_times = st.integers(0, 6).map(float)
_one_shots = st.lists(st.tuples(_times, st.integers(0, 99)), max_size=6)


@given(
    before=_one_shots,
    members=st.lists(
        st.tuples(
            _times,
            st.booleans(),
            st.integers(100, 199),
            st.sampled_from([None, 0.0, 1.0]),
        ),
        max_size=12,
    ),
    after=_one_shots,
    cancel_after=st.one_of(st.none(), st.integers(1, 12)),
    mode=st.sampled_from(["run", "until", "step"]),
    until=_times,
)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_train_replays_eager_schedule(
    before, members, after, cancel_after, mode, until
):
    # Members arrive in scheduling order, not time order: the train
    # must sort them by (time, reserved seq) exactly as the heap would.
    arms = [_Harness(eager, cancel_after) for eager in (True, False)]
    for arm in arms:
        arm.install(before, members, after)
        if mode == "run":
            arm.sim.run()
        elif mode == "until":
            arm.sim.run(until=until)
            assert arm.sim.now == until
            arm.fired.append((until, -1, "stop", ()))
            arm.sim.run()
        else:
            while arm.sim.step():
                pass
    eager, train = arms
    assert train.fired == eager.fired
    assert sorted(train.scheduled) == sorted(eager.scheduled)
    assert train.sim.n_processed == eager.sim.n_processed
    assert train.sim.n_pending == eager.sim.n_pending == 0


class TestScheduleTrain:
    def test_one_queue_entry_for_the_whole_train(self):
        sim = Simulator()
        log = []
        sim.schedule_train(
            [(float(t), log.append, (t,)) for t in (3, 1, 2)]
        )
        assert sim.n_pending == 1
        sim.run()
        assert log == [1, 2, 3]
        assert sim.peak_queue_depth == 1
        assert sim.n_processed == 3

    def test_members_keep_reserved_seqs_against_later_events(self):
        sim = Simulator()
        log = []
        sim.schedule_train([(1.0, log.append, ("a",)), (2.0, log.append, ("b",))])
        sim.schedule_at(1.0, log.append, "one-shot")
        sim.run()
        assert log == ["a", "one-shot", "b"]

    def test_empty_train_is_inert(self):
        sim = Simulator()
        ev = sim.schedule_train([])
        assert sim.n_pending == 0
        ev.cancel()
        assert sim.n_cancelled == 0
        assert sim.run() == 0

    def test_member_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_train([(6.0, print, ()), (1.0, print, ())])

    def test_cancel_before_run_drops_every_member(self):
        sim = Simulator()
        log = []
        ev = sim.schedule_train([(1.0, log.append, (1,)), (2.0, log.append, (2,))])
        ev.cancel()
        assert sim.n_cancelled == 1
        assert sim.run() == 0
        assert log == []
