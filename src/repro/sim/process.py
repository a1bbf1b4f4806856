"""Generator-based simulated processes.

Application logic (an FTP transfer, the Andrew benchmark, the ping
workload) is naturally sequential: *send, wait for the reply, compute,
send again*.  Writing that as callback chains is miserable, so the
substrate provides lightweight coroutines in the style of SimPy: a
process is a generator that ``yield``s *wait requests* and is resumed by
the engine when the request completes.

Supported yields
----------------
``Timeout(seconds)``
    Resume after simulated time passes.
``Signal``
    Resume when another process fires the signal; the value passed to
    :meth:`Signal.fire` becomes the value of the ``yield`` expression.
``Process``
    Resume when the child process finishes; its return value becomes the
    value of the ``yield`` expression.  Exceptions raised by the child
    propagate into the parent.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Tuple

from .engine import Event, Simulator


class Interrupt(Exception):
    """Thrown into a process that is interrupted while waiting."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Timeout:
    """Wait request: resume after ``delay`` simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise ValueError(f"negative timeout: {delay}")
        self.delay = delay

    def __repr__(self) -> str:  # pragma: no cover
        return f"Timeout({self.delay})"


class Signal:
    """A one-to-many wakeup primitive.

    Processes that ``yield`` a signal sleep until :meth:`fire` is called;
    all current waiters resume with the fired value.  A signal can be
    fired repeatedly; each firing wakes only the waiters registered at
    that moment.
    """

    __slots__ = ("_sim", "_waiters", "name")

    def __init__(self, sim: Simulator, name: str = ""):
        self._sim = sim
        self._waiters: List["Process"] = []
        self.name = name

    def fire(self, value: Any = None) -> int:
        """Wake all waiters with ``value``; returns the number woken."""
        waiters = self._waiters
        if not waiters:
            return 0
        self._waiters = []
        call_later = self._sim.call_later
        for proc in waiters:
            call_later(0.0, proc._resume, value)
        return len(waiters)

    def _add_waiter(self, proc: "Process") -> None:
        self._waiters.append(proc)

    def _remove_waiter(self, proc: "Process") -> None:
        if proc in self._waiters:
            self._waiters.remove(proc)

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)


class Process:
    """A running simulated process wrapping a generator.

    Create with :func:`spawn`.  The process starts on the next engine
    step (never synchronously), so a spawner may finish wiring state
    before the child runs.
    """

    def __init__(self, sim: Simulator, gen: Generator[Any, Any, Any], name: str = ""):
        self._sim = sim
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.alive = True
        self.value: Any = None
        self.error: Optional[BaseException] = None
        self._done_signal = Signal(sim, name=f"{self.name}.done")
        self._pending_event: Optional[Event] = None
        self._waiting_on: Optional[Signal] = None
        sim.call_later(0.0, self._resume, None)

    # ------------------------------------------------------------------
    def _resume(self, value: Any) -> None:
        if not self.alive:
            return
        self._pending_event = None
        self._waiting_on = None
        try:
            request = self._gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except Interrupt:
            self._finish(None, None)
            return
        except Exception as exc:  # application error: record and re-raise to waiters
            self._finish(None, exc)
            return
        # The two waits nearly every resume ends in are handled here;
        # _handle_request takes the rest.
        if isinstance(request, Signal):
            self._waiting_on = request
            request._waiters.append(self)
        elif isinstance(request, Timeout):
            self._pending_event = self._sim.schedule(request.delay, self._resume, None)
        else:
            self._handle_request(request)

    def _throw(self, exc: BaseException) -> None:
        if not self.alive:
            return
        self._pending_event = None
        self._waiting_on = None
        try:
            request = self._gen.throw(exc)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except Interrupt:
            self._finish(None, None)
            return
        except Exception as err:
            self._finish(None, err)
            return
        self._handle_request(request)

    def _handle_request(self, request: Any) -> None:
        if isinstance(request, Signal):
            self._waiting_on = request
            request._waiters.append(self)
        elif isinstance(request, Timeout):
            self._pending_event = self._sim.schedule(request.delay, self._resume, None)
        elif isinstance(request, Process):
            if not request.alive:
                # Child already finished: resume with its outcome immediately.
                if request.error is not None:
                    self._sim.call_later(0.0, self._throw, request.error)
                else:
                    self._sim.call_later(0.0, self._resume, request.value)
            else:
                request._done_signal._add_waiter(self)
                self._waiting_on = request._done_signal
        elif request is None:
            # Bare yield: reschedule immediately (cooperative yield point).
            self._pending_event = self._sim.schedule(0.0, self._resume, None)
        else:
            self._finish(
                None,
                TypeError(f"process {self.name!r} yielded unsupported value {request!r}"),
            )

    def _finish(self, value: Any, error: Optional[BaseException]) -> None:
        self.alive = False
        self.value = value
        self.error = error
        self._gen.close()
        if error is not None:
            waiters = self._done_signal._waiters
            if waiters:
                self._done_signal._waiters = []
                for proc in waiters:
                    self._sim.call_later(0.0, proc._throw, error)
            else:
                raise error
        else:
            self._done_signal.fire(value)

    # ------------------------------------------------------------------
    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point."""
        if not self.alive:
            return
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None
        if self._waiting_on is not None:
            self._waiting_on._remove_waiter(self)
            self._waiting_on = None
        self._sim.call_later(0.0, self._throw, Interrupt(cause))

    @property
    def done_signal(self) -> Signal:
        return self._done_signal

    def __repr__(self) -> str:  # pragma: no cover
        state = "alive" if self.alive else "done"
        return f"<Process {self.name!r} {state}>"


def spawn(sim: Simulator, gen: Generator[Any, Any, Any], name: str = "") -> Process:
    """Start ``gen`` as a simulated process and return its handle."""
    return Process(sim, gen, name=name)


def run_process(sim: Simulator, gen: Generator[Any, Any, Any], name: str = "",
                until: Optional[float] = None) -> Any:
    """Convenience: spawn ``gen``, run the simulator, return its value.

    Raises the process's error if it failed, and ``RuntimeError`` if the
    simulation drained without the process completing.
    """
    proc = spawn(sim, gen, name=name)
    sim.run(until=until)
    if proc.error is not None:
        raise proc.error
    if proc.alive:
        raise RuntimeError(f"process {proc.name!r} did not complete")
    return proc.value


def signal_or_timeout(sim: Simulator, signal: Signal, timeout: float) -> Signal:
    """A fresh signal that fires when ``signal`` fires or after ``timeout``.

    Useful for bounded waits::

        yield signal_or_timeout(sim, reply_signal, 0.9)

    The race signal fires exactly once; whichever source loses finds no
    waiters, which is harmless.
    """
    race = Signal(sim, name=f"race:{signal.name}")
    timer = sim.schedule(timeout, race.fire, None)
    signal._add_waiter(_SignalRelay(timer, race))  # type: ignore[arg-type]
    return race


class _SignalRelay:
    """Forwards a signal wakeup into a race signal, cancelling the timer."""

    __slots__ = ("_timer", "_race")

    def __init__(self, timer, race: Signal):
        self._timer = timer
        self._race = race

    def _resume(self, value: Any) -> None:
        self._timer.cancel()
        self._race.fire(value)


class Queue:
    """An unbounded FIFO for inter-process communication.

    ``get()`` returns a wait request usable from a process::

        item = yield queue.get()
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self._sim = sim
        self.name = name
        self._items: List[Any] = []
        self._signal = Signal(sim, name=f"{name}.nonempty")

    def put(self, item: Any) -> None:
        self._items.append(item)
        self._signal.fire()

    def get(self) -> Generator[Any, Any, Any]:
        """Generator to be delegated to with ``yield from``."""
        while not self._items:
            yield self._signal
        return self._items.pop(0)

    def __len__(self) -> int:
        return len(self._items)
