"""Shared-resource primitives for the simulation kernel.

Two primitives cover everything the network models need:

* :class:`Resource` — ``capacity`` interchangeable slots with a FIFO (or
  priority) wait queue.  Models radio scheduler grants, UPF worker cores,
  control-plane threads.
* :class:`Store` — an unbounded (or bounded) FIFO buffer of Python
  objects.  Models packet queues and message buses.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Generator, Optional

from .engine import Event, SimulationError, Simulator

__all__ = ["Request", "Resource", "PriorityResource", "Store"]


class Request(Event):
    """Pending claim on a :class:`Resource` slot.

    Fires when the slot is granted.  Must be released via
    :meth:`Resource.release` (or used through :meth:`Resource.acquire`,
    which packages request/release as a context-manager-ish generator).
    """

    __slots__ = ("resource", "priority", "order")

    def __init__(self, resource: "Resource", priority: float, order: int):
        super().__init__(resource.sim, name=f"request({resource.name})")
        self.resource = resource
        self.priority = priority
        self.order = order

    def __lt__(self, other: "Request") -> bool:
        return (self.priority, self.order) < (other.priority, other.order)


class Resource:
    """``capacity`` identical slots with a FIFO wait queue."""

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "resource"
        self._users: set[Request] = set()
        self._queue: list[Request] = []
        self._order = itertools.count()

    # -- introspection ------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    # -- operations ---------------------------------------------------------

    def request(self, priority: float = 0.0) -> Request:
        """Claim a slot; the returned event fires when granted.

        ``priority`` is only meaningful for :class:`PriorityResource`;
        the base class ignores it (pure FIFO).
        """
        req = Request(self, priority, next(self._order))
        if len(self._users) < self.capacity:
            self._users.add(req)
            req.succeed(req)
        else:
            self._enqueue(req)
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted slot and wake the next waiter."""
        if request in self._users:
            self._users.remove(request)
            nxt = self._dequeue()
            if nxt is not None:
                self._users.add(nxt)
                nxt.succeed(nxt)
        elif self._remove_queued(request):
            pass  # cancelled while waiting: nothing held, nothing to wake
        else:
            raise SimulationError(
                f"release() of a request not issued by {self.name!r}")

    def acquire(self, hold: float, priority: float = 0.0
                ) -> Generator[Event, Any, None]:
        """Generator helper: request, hold for ``hold`` seconds, release."""
        req = self.request(priority)
        try:
            yield req
            yield self.sim.timeout(hold)
        finally:
            self.release(req)

    # -- queue policy (FIFO base) ---------------------------------------

    def _enqueue(self, req: Request) -> None:
        self._queue.append(req)

    def _dequeue(self) -> Optional[Request]:
        return self._queue.pop(0) if self._queue else None

    def _remove_queued(self, req: Request) -> bool:
        try:
            self._queue.remove(req)
            return True
        except ValueError:
            return False


class PriorityResource(Resource):
    """Resource whose waiters are served lowest-``priority`` value first.

    Ties (equal priority) are FIFO by arrival order.  Used by the MAC
    scheduler (QoS classes) and the context-aware QoS rule engine.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        super().__init__(sim, capacity, name or "priority_resource")
        self._pqueue: list[Request] = []

    def _enqueue(self, req: Request) -> None:
        heapq.heappush(self._pqueue, req)

    def _dequeue(self) -> Optional[Request]:
        return heapq.heappop(self._pqueue) if self._pqueue else None

    def _remove_queued(self, req: Request) -> bool:
        try:
            self._pqueue.remove(req)
            heapq.heapify(self._pqueue)
            return True
        except ValueError:
            return False

    @property
    def queue_length(self) -> int:
        return len(self._pqueue)


class Store:
    """FIFO buffer of arbitrary items with optional capacity bound.

    ``put`` blocks (as an event) when full; ``get`` blocks when empty.
    """

    def __init__(self, sim: Simulator, capacity: float = float("inf"),
                 name: str = ""):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "store"
        self._items: list[Any] = []
        self._getters: list[Event] = []
        self._putters: list[tuple[Event, Any]] = []

    @property
    def size(self) -> int:
        """Number of items currently buffered."""
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Insert ``item``; event fires once the item is accepted."""
        ev = Event(self.sim, name=f"put({self.name})")
        if self._getters:
            # Hand directly to the longest-waiting getter.
            getter = self._getters.pop(0)
            getter.succeed(item)
            ev.succeed(None)
        elif len(self._items) < self.capacity:
            self._items.append(item)
            ev.succeed(None)
        else:
            self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        """Remove the oldest item; event fires with the item as value."""
        ev = Event(self.sim, name=f"get({self.name})")
        if self._items:
            item = self._items.pop(0)
            ev.succeed(item)
            if self._putters:
                pev, pitem = self._putters.pop(0)
                self._items.append(pitem)
                pev.succeed(None)
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            item = self._items.pop(0)
            if self._putters:
                pev, pitem = self._putters.pop(0)
                self._items.append(pitem)
                pev.succeed(None)
            return True, item
        return False, None
