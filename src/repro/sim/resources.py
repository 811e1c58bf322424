"""Shared resources: counted resources (with priorities and preemption)
and FIFO stores (message channels).

These model contended hardware in the reproduction: a PCI bus segment is a
``Resource(capacity=1)`` (one transaction at a time, priority = arbitration),
a disk is a ``Resource(capacity=1)`` with FIFO request ordering, and I2O
message queues between host and NI are ``Store`` channels.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, Optional

from .errors import Preempted, SimulationError
from .events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .environment import Environment
    from .process import Process

__all__ = ["Request", "Resource", "PreemptiveResource", "Store", "StoreGet", "StorePut"]


class Request(Event):
    """A pending or granted claim on a :class:`Resource`.

    Usable as a context manager::

        with resource.request() as req:
            yield req
            ...  # resource held here
    """

    __slots__ = ("resource", "priority", "time", "process", "usage_since", "preempt")

    def __init__(
        self,
        resource: "Resource",
        priority: float = 0.0,
        preempt: bool = False,
    ) -> None:
        # Event.__init__ inlined: one Request per bus transaction / disk
        # command makes this constructor hot.
        env = resource.env
        self.env = env
        self.name = None
        self._state = 0  # PENDING
        self._value = None
        self._ok = True
        self.callbacks = []
        self.defused = False
        self.resource = resource
        self.priority = priority
        self.preempt = preempt
        self.time = env.now
        self.process: Optional["Process"] = env.active_process
        #: set when the request is granted
        self.usage_since: Optional[float] = None

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.resource.release(self)

    def _sort_key(self, seq: int) -> tuple[float, float, int]:
        return (self.priority, self.time, seq)


class Resource:
    """A counted resource granting up to ``capacity`` simultaneous claims.

    Waiters are served in ``(priority, request time, FIFO)`` order; lower
    priority values are served first (priority 0 beats priority 1), which
    matches both PCI arbitration rank and RTOS task priority conventions
    used elsewhere in this project.
    """

    def __init__(self, env: "Environment", capacity: int = 1, name: Optional[str] = None) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.users: list[Request] = []
        self._waiters: list[tuple[tuple[float, float, int], Request]] = []
        self._seq = 0
        #: cumulative busy integral for utilization accounting
        self._busy_time = 0.0
        self._busy_since: Optional[float] = None

    # -- public API ----------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of current users."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Number of waiting requests."""
        return len(self._waiters)

    def request(self, priority: float = 0.0, preempt: bool = False) -> Request:
        """Claim the resource; the returned event triggers when granted.

        A claim granted on the spot comes back already *processed* and
        schedules no kernel event: the claimant holds the resource from
        this instant, so a hot caller may skip the ``yield`` when
        ``req.processed`` is true (yielding it still works, through the
        process's zero-delay resume). Only a claim that has to queue is
        triggered later, by the release that grants it.
        """
        req = Request(self, priority=priority, preempt=preempt)
        self._seq += 1
        if len(self.users) < self.capacity or (preempt and self._try_preempt(req)):
            self._take(req)
            req._state = 2  # PROCESSED: nothing left to wait for
        else:
            heapq.heappush(self._waiters, (req._sort_key(self._seq), req))
        return req

    def release(self, request: Request) -> None:
        """Return a granted claim; wakes the best waiter if any.

        Releasing a still-queued request cancels it. Releasing twice is a
        no-op, so ``with`` blocks compose with explicit early release.
        """
        if request in self.users:
            self.users.remove(request)
            self._account_busy()
            self._wake()
        else:
            # Cancel if still waiting. Removing the tail leaves the heap
            # invariant intact, so only a mid-heap removal pays the O(n)
            # re-heapify (the common cancel — the most recently queued,
            # worst-priority waiter — sits at or near the tail).
            for i, (_key, waiter) in enumerate(self._waiters):
                if waiter is request:
                    if i == len(self._waiters) - 1:
                        self._waiters.pop()
                    else:
                        del self._waiters[i]
                        heapq.heapify(self._waiters)
                    break

    def utilization(self, since: float = 0.0) -> float:
        """Fraction of [since, now] the resource spent non-idle."""
        span = self.env.now - since
        if span <= 0:
            return 0.0
        busy = self._busy_time
        if self._busy_since is not None:
            busy += self.env.now - self._busy_since
        return min(1.0, busy / span)

    # -- internals -------------------------------------------------------------
    def _take(self, req: Request) -> None:
        self.users.append(req)
        req.usage_since = self.env.now
        if self._busy_since is None:
            self._busy_since = self.env.now

    def _account_busy(self) -> None:
        if not self.users and self._busy_since is not None:
            self._busy_time += self.env.now - self._busy_since
            self._busy_since = None

    def _wake(self) -> None:
        while self._waiters and len(self.users) < self.capacity:
            _key, req = heapq.heappop(self._waiters)
            self._take(req)
            req.succeed()

    def _try_preempt(self, req: Request) -> bool:
        """Evict the worst current user if *req* outranks it."""
        victim = max(self.users, key=lambda u: (u.priority, u.time))
        if (victim.priority, victim.time) <= (req.priority, req.time):
            return False
        self.users.remove(victim)
        self._account_busy()
        if victim.process is not None and victim.process.is_alive:
            victim.process.interrupt(
                Preempted(by=req.process, usage_since=victim.usage_since or 0.0, resource=self)
            )
        return True

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<{type(self).__name__}{label} {len(self.users)}/{self.capacity} "
            f"queued={len(self._waiters)}>"
        )


class PreemptiveResource(Resource):
    """Resource whose ``request(preempt=True)`` evicts lower-priority users."""

    def request(self, priority: float = 0.0, preempt: bool = True) -> Request:
        return super().request(priority=priority, preempt=preempt)


class StorePut(Event):
    """Pending put into a :class:`Store`."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        self.env = store.env
        self.name = None
        self._state = 0  # PENDING
        self._value = None
        self._ok = True
        self.callbacks = []
        self.defused = False
        self.item = item


class StoreGet(Event):
    """Pending get from a :class:`Store`; value is the retrieved item."""

    __slots__ = ("filter",)

    def __init__(self, store: "Store", filter: Optional[Callable[[Any], bool]] = None) -> None:
        self.env = store.env
        self.name = None
        self._state = 0  # PENDING
        self._value = None
        self._ok = True
        self.callbacks = []
        self.defused = False
        self.filter = filter


class Store:
    """A FIFO buffer of items with optional capacity.

    ``put`` blocks when full; ``get`` blocks when no (matching) item exists.
    Used as the message channel for I2O queues and frame hand-off between
    producers and the scheduler.
    """

    def __init__(
        self, env: "Environment", capacity: float = float("inf"), name: Optional[str] = None
    ) -> None:
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.items: list[Any] = []
        self._puts: list[StorePut] = []
        self._gets: list[StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        ev = StorePut(self, item)
        self._puts.append(ev)
        self._dispatch()
        return ev

    def put_nowait(self, item: Any) -> None:
        """Deposit *item* without a completion event.

        For fire-and-forget producers into effectively unbounded channels
        (network inboxes, reply queues): the evented :meth:`put` costs a
        kernel event per item that nobody ever waits on. Raises
        :class:`SimulationError` if the store is full — callers must only
        use this where capacity is not a constraint.
        """
        if len(self.items) >= self.capacity:
            raise SimulationError(
                f"put_nowait into full store {self.name!r} "
                f"({len(self.items)}/{self.capacity})"
            )
        self.items.append(item)
        if self._gets:
            self._dispatch()

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        ev = StoreGet(self, filter=filter)
        self._gets.append(ev)
        self._dispatch()
        return ev

    def cancel(self, event: Event) -> None:
        """Withdraw a pending put/get."""
        if isinstance(event, StorePut) and event in self._puts:
            self._puts.remove(event)
        elif isinstance(event, StoreGet) and event in self._gets:
            self._gets.remove(event)

    def _dispatch(self) -> None:
        items = self.items
        puts = self._puts
        gets = self._gets
        capacity = self.capacity
        progressed = True
        while progressed:
            progressed = False
            # Admit pending puts while capacity remains.
            while puts and len(items) < capacity:
                put = puts.pop(0)
                items.append(put.item)
                put.succeed()
                progressed = True
            # Serve pending gets with matching items.
            i = 0
            while i < len(gets):
                get = gets[i]
                matched = None
                for j, item in enumerate(items):
                    if get.filter is None or get.filter(item):
                        matched = j
                        break
                if matched is None:
                    i += 1
                    continue
                item = items.pop(matched)
                gets.pop(i)
                get.succeed(item)
                progressed = True

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Store{label} items={len(self.items)} gets={len(self._gets)}>"
