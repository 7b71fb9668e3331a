"""Discrete-event simulation core.

A minimal, deterministic event loop: events are ``(time, seq)``-ordered
callbacks in a binary heap; ties break by scheduling order, so repeated
runs with the same seeds replay identically.

The heap holds plain ``(time, seq, event)`` tuples, so ordering runs as
C-level tuple comparison (``seq`` is unique per event, so comparison
never reaches the non-orderable callback).  Cancellation is lazy — a
cancelled entry stays queued until popped — with threshold-triggered
compaction so a workload that cancels heavily (retransmit timers over a
long soak) cannot grow the heap without bound.

Trains keep a single queue entry for a whole time-ordered run of
callbacks.  ``schedule_train`` reserves one ``seq`` per entry up front,
exactly as eager ``schedule_at`` calls would have drawn them, and the
loop re-arms the entry with the next ``(time, seq, fn, args)`` after
each firing, so the ``(time, seq)`` replay order is that of the eager
schedule.  A periodic (``schedule_periodic``) is the train whose next
entry is ``time + interval`` under its creation ``seq``; both re-arm
through the same branch of the loop.
"""

from __future__ import annotations

import heapq
from itertools import accumulate, repeat, takewhile
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.errors import SimulationError

#: Compaction trigger: reap when more than this fraction of the queue
#: is cancelled entries (and at least ``_COMPACT_MIN`` of them).
_COMPACT_FRACTION = 0.5
_COMPACT_MIN = 64


def _noop() -> None:
    """Callback of an empty train's inert handle (never queued)."""


#: One train member: ``(time, seq, fn, args)``.
_Member = tuple[float, int, Callable[..., Any], tuple]


def _periodic_members(
    time: float,
    interval: float,
    until: Optional[float],
    seq: int,
    fn: Callable[..., Any],
    args: tuple,
) -> Iterator[_Member]:
    """The members of a periodic train after the one firing at ``time``.

    Times accumulate (``t = t + interval``) like a pre-scheduled
    ``while t < until`` loop; every member keeps the creation ``seq``.
    Built from C-level iterators, so a re-arm runs no Python frame.
    """
    times: Iterator[float] = accumulate(repeat(interval), initial=time)
    next(times)  # ``time`` itself: the member already queued
    if until is not None:
        times = takewhile(float(until).__gt__, times)  # while t < until
    return zip(times, repeat(seq), repeat(fn), repeat(args))


class Event:
    """Handle for a scheduled callback or train; supports cancellation.

    Cancelling a train's handle drops every member not yet fired.
    """

    __slots__ = (
        "time",
        "fn",
        "args",
        "cancelled",
        "seq",
        "_next",
        "_sim",
        "_queued",
    )

    def __init__(
        self,
        sim: "Simulator",
        time: float,
        fn: Callable[..., Any],
        args: tuple,
        seq: int,
        members: Optional[Iterator[_Member]] = None,
    ) -> None:
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.seq = seq
        #: The train members still to fire after this one; None for
        #: one-shots.  ``time``/``seq``/``fn``/``args`` always describe
        #: the member currently queued.
        self._next = members
        self._sim = sim
        self._queued = True

    def cancel(self) -> None:
        """Prevent the callback from firing (safe to call twice).

        Cancellation is lazy: the queue entry is reaped when popped, or
        earlier by threshold-triggered compaction.
        """
        if not self.cancelled:
            self.cancelled = True
            if self._queued:
                self._sim._note_cancel()


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        sim.schedule(1.5, node.on_timer)
        sim.run(until=600.0)

    Three ways in: ``schedule``/``schedule_at`` queue one callback,
    ``schedule_train`` queues a time-ordered run of callbacks behind one
    queue entry, and ``schedule_periodic`` queues an interval train.
    Every train member fires as its own event (its own ``seq``, ``fn``
    and ``args``, each counted in ``n_processed`` and each shown to an
    attached probe), in exactly the ``(time, seq)`` order eager
    ``schedule_at`` calls for the same members would have produced.
    Queue-depth counters (``n_pending``, ``peak_queue_depth``) count
    queue entries, so a train counts once.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = start_time
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._processed = 0
        self._running = False
        #: Cancelled entries still sitting in the queue.
        self._cancelled_in_queue = 0
        #: Lifetime counters (scheduler observability).
        self._cancelled_total = 0
        self._compactions = 0
        self._peak_depth = 0
        #: Recording probe (see ``repro.sanitize``); None = zero-cost.
        self._probe: Optional[Any] = None

    # ------------------------------------------------------------------
    # Probe (opt-in recording, e.g. the repro.sanitize sanitizer)
    # ------------------------------------------------------------------
    def attach_probe(self, probe: Any) -> None:
        """Install a recording probe around event execution.

        The probe must expose ``on_scheduled(event)``,
        ``on_event_begin(time, event)`` and ``on_event_end(event)``.
        With no probe attached the loop takes the original fast path —
        the only cost is one ``is None`` check per event.
        """
        if self._probe is not None:
            raise SimulationError("a probe is already attached")
        self._probe = probe

    def detach_probe(self) -> None:
        """Remove the recording probe (no-op when none is attached)."""
        self._probe = None

    @property
    def now(self) -> float:
        """Current simulation time [s]."""
        return self._now

    @property
    def n_pending(self) -> int:
        """Live (non-cancelled) queue entries; a train counts once."""
        return len(self._queue) - self._cancelled_in_queue

    @property
    def n_cancelled(self) -> int:
        """Cancelled entries still occupying queue slots."""
        return self._cancelled_in_queue

    @property
    def n_processed(self) -> int:
        """Events executed so far."""
        return self._processed

    @property
    def peak_queue_depth(self) -> int:
        """Largest queue length observed (cancelled entries included)."""
        return self._peak_depth

    def stats(self) -> dict[str, float]:
        """Scheduler counters for telemetry export."""
        return {
            "events_executed": self._processed,
            "events_cancelled": self._cancelled_total,
            "events_pending": self.n_pending,
            "peak_queue_depth": self._peak_depth,
            "compactions": self._compactions,
        }

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> Event:
        """Run ``fn(*args)`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(
        self, time: float, fn: Callable[..., Any], *args: Any
    ) -> Event:
        """Run ``fn(*args)`` at absolute simulation time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} < now ({self._now})"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(self, time, fn, args, seq)
        if self._probe is not None:
            self._probe.on_scheduled(event)
        # The one-shot hot path: ``_push`` inlined.
        queue = self._queue
        heapq.heappush(queue, (time, seq, event))
        if len(queue) > self._peak_depth:
            self._peak_depth = len(queue)
        return event

    def schedule_train(
        self, entries: Sequence[tuple[float, Callable[..., Any], tuple]]
    ) -> Event:
        """Run each ``fn(*args)`` of ``entries`` at its ``time``.

        ``entries`` lists ``(time, fn, args)`` in the order eager
        ``schedule_at(time, fn, *args)`` calls would have been made.  One
        ``seq`` per entry is reserved here, in list order, and the
        members fire in ``(time, seq)`` order behind a single queue
        entry — the same order, against every other event, as the eager
        calls give.  An attached probe sees every member scheduled now
        and every member begin as its own event.  Cancelling the
        returned handle drops the members not yet fired; an empty train
        returns an inert handle.
        """
        base = self._seq
        members = [
            (time, base + i, fn, args)
            for i, (time, fn, args) in enumerate(entries)
        ]
        members.sort()
        if members and members[0][0] < self._now:
            raise SimulationError(
                f"cannot schedule at {members[0][0]} < now ({self._now})"
            )
        self._seq = base + len(members)
        if not members:
            event = Event(self, self._now, _noop, (), base)
            event._queued = False
            return event
        rest = iter(members)
        time, seq, fn, args = next(rest)
        event = Event(self, time, fn, args, seq, rest)
        probe = self._probe
        if probe is not None:
            # Show the probe each member through the handle, as it will
            # see them fire, then load the first member back.
            for member in members:
                event.time, event.seq, event.fn, event.args = member
                probe.on_scheduled(event)
            event.time, event.seq, event.fn, event.args = members[0]
        self._push(event)
        return event

    def schedule_periodic(
        self,
        interval: float,
        fn: Callable[..., Any],
        *args: Any,
        first: Optional[float] = None,
        until: Optional[float] = None,
    ) -> Event:
        """Run ``fn(*args)`` every ``interval`` seconds.

        The first firing is at absolute time ``first`` (default
        ``now + interval``); re-arming continues while the next firing
        time stays strictly below ``until`` (exclusive; None =
        forever).  Firing times accumulate (``t += interval``), exactly
        like a pre-scheduled ``while t < until`` train, and every firing
        keeps the creation ``seq``, so same-time ordering against other
        events is identical to scheduling the whole train contiguously
        up front.  Cancelling the returned event stops the train.
        """
        if interval <= 0:
            raise SimulationError(
                f"periodic interval must be positive, got {interval}"
            )
        start = self._now + interval if first is None else first
        if start < self._now:
            raise SimulationError(
                f"cannot schedule at {start} < now ({self._now})"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(
            self,
            start,
            fn,
            args,
            seq,
            _periodic_members(start, interval, until, seq, fn, args),
        )
        if until is not None and start >= until:
            # Empty train: nothing to queue; hand back an inert handle.
            event._queued = False
            return event
        if self._probe is not None:
            self._probe.on_scheduled(event)
        self._push(event)
        return event

    def _push(self, event: Event) -> None:
        queue = self._queue
        heapq.heappush(queue, (event.time, event.seq, event))
        if len(queue) > self._peak_depth:
            self._peak_depth = len(queue)

    # ------------------------------------------------------------------
    # Heap hygiene
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        self._cancelled_total += 1
        self._cancelled_in_queue += 1
        if (
            self._cancelled_in_queue > _COMPACT_MIN
            and self._cancelled_in_queue
            > _COMPACT_FRACTION * len(self._queue)
        ):
            self.compact()

    def compact(self) -> None:
        """Reap cancelled entries and re-heapify in place.

        In-place (slice assignment) so a ``run`` loop holding a local
        binding to the queue keeps observing the compacted list.
        """
        queue = self._queue
        if self._cancelled_in_queue == 0:
            return
        queue[:] = [
            entry for entry in queue if not entry[2].cancelled
        ]
        heapq.heapify(queue)
        self._cancelled_in_queue = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 10_000_000,
    ) -> int:
        """Drain the queue; returns the number of events executed.

        ``until`` stops the clock at that time (events beyond it stay
        queued); ``max_events`` guards against runaway feedback loops.
        """
        executed = self._execute(until, max_events, strict=True)
        if until is not None and self._now < until:
            self._now = until
        return executed

    def step(self) -> bool:
        """Execute exactly one (non-cancelled) event; False when empty."""
        return self._execute(None, 1, strict=False) == 1

    def _execute(
        self, until: Optional[float], limit: int, strict: bool
    ) -> int:
        """The event loop behind ``run`` and ``step``.

        Pops and fires events in ``(time, seq)`` order until the queue
        empties, the next event lies beyond ``until``, or ``limit``
        events have fired (an error when ``strict``).  A fired train
        that was not cancelled re-arms here with its next member — the
        one re-arm path for trains and periodics alike.  The member
        keeps its reserved ``seq``, so the re-pushed entry sorts exactly
        where its eager counterpart would have.
        """
        if self._running:
            raise SimulationError("simulator re-entered from a callback")
        self._running = True
        executed = 0
        # Local bindings keep the hot loop free of repeated attribute
        # lookups; the queue list is mutated in place everywhere
        # (including compact), so the binding never goes stale.
        queue = self._queue
        heappop = heapq.heappop
        heappush = heapq.heappush
        probe = self._probe
        try:
            while queue:
                entry = queue[0]
                time = entry[0]
                if until is not None and time > until:
                    break
                if executed >= limit:
                    if not strict:
                        break
                    raise SimulationError(
                        f"exceeded max_events={limit}; runaway schedule?"
                    )
                heappop(queue)
                event = entry[2]
                event._queued = False
                if event.cancelled:
                    self._cancelled_in_queue -= 1
                    continue
                self._now = time
                if probe is None:
                    event.fn(*event.args)
                else:
                    probe.on_event_begin(time, event)
                    try:
                        event.fn(*event.args)
                    finally:
                        probe.on_event_end(event)
                executed += 1
                members = event._next
                if members is not None and not event.cancelled:
                    member = next(members, None)
                    if member is None:
                        event._next = None
                    else:
                        time, seq, event.fn, event.args = member
                        event.time = time
                        event.seq = seq
                        event._queued = True
                        heappush(queue, (time, seq, event))
        finally:
            self._processed += executed
            self._running = False
        return executed
