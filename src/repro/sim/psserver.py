"""Processor-sharing CPU model.

Each tier VM's CPU is modelled as a processor-sharing (PS) server with
``cores`` vCPUs and a time-varying ``speed`` factor.  Jobs submit an
amount of *work* (CPU-seconds at nominal speed); when ``n`` jobs are
active the total processing rate is ``speed * min(n, cores)`` and is
shared equally, exactly like a multi-core round-robin scheduler at a
fine quantum.

The ``speed`` factor is the hook for the paper's cross-resource
contention: a memory-bandwidth attack on the host does not steal vCPU
cycles (the hypervisor isolates those) but *stalls* them, which we model
as a reduced effective speed.  Crucially, stalled cycles still count as
*busy* to any guest-level utilization monitor — that is why the victim's
CPU "saturates" during a burst even though memory is the contended
resource.  The busy-time integrator therefore charges ``min(n, cores)``
core-seconds per second regardless of ``speed``.

Performance notes (byte-identity constrained).  Every job progresses at
the *same* per-job rate, so between submissions the job with the least
remaining work never changes: IEEE-754 subtraction of a shared progress
increment is monotone, so the argmin is stable under ``_advance`` and
the shortest job is tracked incrementally in O(1) on submission.  A
completion settles the table in one pass (``_settle``): it subtracts
the progress from each job in submission order, collects the finished
jobs and finds the next shortest on the way, so the decrement, the
completion scan and the argmin rescan are a single loop, and the
re-arm that follows is O(1).  A full virtual-work offset (store one
finish credit per job at submit, advance a single cumulative
attained-service counter) would drop the per-job decrement altogether,
but ``fl(credit - V)`` rounds differently from the sequential
``fl(fl(r - p1) - p2)`` the kernel has always performed, which shifts
completion times by ULPs and breaks the byte-identity contract of
``tests/test_determinism.py`` — so every job still takes one
``remaining - progress`` per advance, in the same order as before.
"""

from __future__ import annotations

from typing import Dict, Optional

from .core import Event, SimulationError, Simulator

__all__ = ["ProcessorSharingServer"]

#: Remaining work below this is considered complete (guards float drift).
_EPSILON = 1e-9


class _CompletionTimer:
    """Bare kernel timer for the next PS completion.

    Implements the kernel's bare-timer protocol (``callbacks = None`` +
    ``fire()``) so the dispatch loop calls it directly — no Event, no
    ``_Deferred`` wrapper, no closure cell per re-arm.  Superseded
    timers are discarded lazily via the generation check, exactly like
    the old closure-based timer.
    """

    __slots__ = ("server", "generation")

    #: Marks this entry as a bare timer for the dispatch loop.
    callbacks = None

    def __init__(self, server: "ProcessorSharingServer", generation: int):
        self.server = server
        self.generation = generation

    def fire(self) -> None:
        server = self.server
        if self.generation != server._generation:
            return  # State changed since scheduling; superseded.
        server._settle()


class ProcessorSharingServer:
    """A multi-core processor-sharing server with variable speed."""

    # Slotted: execute/_settle run on every job submit/completion and
    # are dominated by attribute traffic.
    __slots__ = (
        "sim",
        "cores",
        "name",
        "_speed",
        "_background",
        "_jobs",
        "_shortest_job",
        "_last_update",
        "_generation",
        "_busy_core_seconds",
        "_work_done",
        "jobs_completed",
        "jobs_submitted",
    )

    def __init__(
        self,
        sim: Simulator,
        cores: int = 1,
        speed: float = 1.0,
        name: str = "cpu",
    ):
        if cores < 1:
            raise SimulationError(f"cores must be >= 1, got {cores}")
        if speed < 0:
            raise SimulationError(f"speed must be >= 0, got {speed}")
        self.sim = sim
        self.cores = int(cores)
        self.name = name
        self._speed = float(speed)
        # Fluid background load (hybrid engine): a continuous number of
        # phantom PS jobs competing for the same cores.  0.0 keeps every
        # hot-path expression byte-identical to the pre-hybrid kernel.
        self._background = 0.0
        # Insertion-ordered job table: completion scans must visit jobs
        # in submission order (event succession order is observable).
        self._jobs: Dict[Event, float] = {}
        #: The job with the least remaining work (None = no jobs):
        #: tracked in O(1) by ``execute``, found again by each settle
        #: pass.  All jobs shrink by the same increment per advance, so
        #: the argmin is stable between submissions and settles.
        self._shortest_job: Optional[Event] = None
        self._last_update = sim.now
        self._generation = 0
        # Integrators (every advance brings these up to date).
        self._busy_core_seconds = 0.0
        self._work_done = 0.0
        self.jobs_completed = 0
        self.jobs_submitted = 0

    # -- public state ----------------------------------------------------

    @property
    def speed(self) -> float:
        """Current effective speed factor (1.0 = nominal)."""
        return self._speed

    @property
    def active_jobs(self) -> int:
        """Number of jobs currently in service."""
        return len(self._jobs)

    @property
    def background_load(self) -> float:
        """Fluid background jobs currently sharing the server (hybrid)."""
        return self._background

    @property
    def busy_core_seconds(self) -> float:
        """Accumulated busy core-seconds (stall time counts as busy)."""
        self._advance()
        return self._busy_core_seconds

    @property
    def work_done(self) -> float:
        """Accumulated nominal CPU-seconds of completed work."""
        self._advance()
        return self._work_done

    def utilization_between(self, busy_before: float, elapsed: float) -> float:
        """Utilization over an interval given a prior busy snapshot.

        ``busy_before`` is an earlier value of :attr:`busy_core_seconds`;
        ``elapsed`` the wall-clock (simulated) interval length.
        """
        if elapsed <= 0:
            return 0.0
        delta = self.busy_core_seconds - busy_before
        return min(1.0, delta / (elapsed * self.cores))

    # -- operations -------------------------------------------------------

    def execute(self, work: float) -> Event:
        """Submit ``work`` nominal CPU-seconds; event triggers when done."""
        if work < 0:
            raise SimulationError(f"work must be >= 0, got {work}")
        self.jobs_submitted += 1
        done = Event(self.sim)
        if work == 0:
            self.jobs_completed += 1
            done.succeed()
            return done
        # Advance (inline :meth:`_advance`: same rounding sequence).
        sim = self.sim
        now = sim._now
        dt = now - self._last_update
        self._last_update = now
        jobs = self._jobs
        n = len(jobs)
        cores = self.cores
        background = self._background
        if dt > 0:
            if n:
                if background == 0.0:
                    active_cores = n if n < cores else cores
                    self._busy_core_seconds += dt * active_cores
                    progress = self._speed * active_cores / n * dt
                else:
                    load = n + background
                    active_cores = load if load < cores else cores
                    self._busy_core_seconds += dt * active_cores
                    progress = self._speed * active_cores / load * dt
                if progress > 0:
                    self._work_done += progress * n
                    for job, remaining in jobs.items():
                        jobs[job] = remaining - progress
            elif background > 0.0:
                active = background if background < cores else cores
                self._busy_core_seconds += dt * active
        work = float(work)
        jobs[done] = work
        # O(1) shortest-job maintenance: the advance above brought every
        # remaining-work value up to now, so a single comparison decides
        # whether the newcomer is the next to finish.  (Ties keep the
        # incumbent — only the min *value* is observable, and it's equal.)
        shortest_job = self._shortest_job
        if shortest_job is None or work < jobs[shortest_job]:
            shortest_job = self._shortest_job = done
        shortest = jobs[shortest_job]
        if shortest <= _EPSILON:
            # A completion due at this very instant (or a newcomer
            # below _EPSILON): settle the table at now.
            self._settle()
            return done
        # O(1) re-arm (as in :meth:`_settle`).
        self._generation += 1
        n += 1
        if background == 0.0:
            rate = self._speed * (n if n < cores else cores) / n
        else:
            load = n + background
            rate = self._speed * (load if load < cores else cores) / load
        if rate <= 0:
            return done  # Fully stalled: no completion until speed changes.
        delay = shortest / rate
        if delay < 0.0:
            delay = 0.0
        sim._push_timed(now + delay, _CompletionTimer(self, self._generation))
        return done

    def set_speed(self, speed: float) -> None:
        """Change the effective speed factor (e.g. under attack)."""
        if speed < 0:
            raise SimulationError(f"speed must be >= 0, got {speed}")
        self._advance()
        self._speed = float(speed)
        self._settle()

    def set_background_load(self, background: float) -> None:
        """Set the fluid background load (hybrid fluid/DES coupling).

        ``background`` is the mean number of bulk-population jobs the
        fluid engine says are runnable on this CPU right now.  They
        share the PS server exactly like discrete jobs: with ``n``
        discrete and ``b`` fluid jobs the per-job rate becomes
        ``speed * min(n + b, cores) / (n + b)``, and busy-time
        accounting charges ``min(n + b, cores)`` core-seconds per
        second, so guest utilization monitors see the bulk load too.
        Setting 0.0 restores the exact pre-hybrid arithmetic.
        """
        if background < 0:
            raise SimulationError(
                f"background must be >= 0, got {background}"
            )
        background = float(background)
        if background == self._background:
            return
        self._advance()
        self._background = background
        self._settle()

    def cancel(self, job: Event) -> None:
        """Abort an in-service job without triggering its event."""
        self._advance()
        if self._jobs.pop(job, None) is not None:
            self._settle()

    # -- internals --------------------------------------------------------

    def _advance(self) -> None:
        """Bring job progress and integrators up to ``sim.now``."""
        now = self.sim._now
        dt = now - self._last_update
        if dt <= 0:
            self._last_update = now
            return
        jobs = self._jobs
        n = len(jobs)
        if n:
            background = self._background
            if background == 0.0:
                active_cores = n if n < self.cores else self.cores
                # Stalled-but-runnable vCPUs look busy to guest monitors.
                self._busy_core_seconds += dt * active_cores
                progress = self._speed * active_cores / n * dt
            else:
                # Hybrid: fluid bulk jobs share the PS discipline.  The
                # zero-background branch above keeps the exact original
                # rounding sequence (byte-identity contract).
                load = n + background
                active_cores = load if load < self.cores else self.cores
                self._busy_core_seconds += dt * active_cores
                progress = self._speed * active_cores / load * dt
            if progress > 0:
                self._work_done += progress * n
                # Identical fl(r - progress) per job as the original
                # per-job loop; only the container iteration changed.
                for job, remaining in jobs.items():
                    jobs[job] = remaining - progress
        else:
            background = self._background
            if background > 0.0:
                # Bulk-only load still looks busy to guest monitors.
                active = background if background < self.cores else self.cores
                self._busy_core_seconds += dt * active
        self._last_update = now

    def _settle(self) -> None:
        """Advance to now, complete the finished jobs and re-arm.

        The completion path, in one pass over the job table: each job
        takes the same ``remaining - progress`` as in :meth:`_advance`
        (in submission order), finished jobs are collected in that
        order and succeed in it, and the first strict minimum of the
        rest is the next shortest job.  The live completion timer calls
        it directly.  The other state changes (speed, background load,
        cancel, a submission that finds a completion due now) call it
        after their own advance, when ``progress`` is 0.0 and
        ``x - 0.0`` is ``x`` bit for bit.

        Superseded timers are discarded lazily: every re-arm bumps the
        generation, and a stale ``fire`` returns without touching the
        server, so the wheel never needs an O(n) deletion.
        """
        sim = self.sim
        now = sim._now
        dt = now - self._last_update
        self._last_update = now
        jobs = self._jobs
        n = len(jobs)
        cores = self.cores
        background = self._background
        progress = 0.0
        if dt > 0:
            if n:
                if background == 0.0:
                    active_cores = n if n < cores else cores
                    self._busy_core_seconds += dt * active_cores
                    progress = self._speed * active_cores / n * dt
                else:
                    load = n + background
                    active_cores = load if load < cores else cores
                    self._busy_core_seconds += dt * active_cores
                    progress = self._speed * active_cores / load * dt
                if progress > 0:
                    self._work_done += progress * n
            elif background > 0.0:
                active = background if background < cores else cores
                self._busy_core_seconds += dt * active
        self._generation += 1
        finished = []
        shortest_job = None
        shortest = 0.0
        for job, remaining in jobs.items():
            remaining -= progress
            if remaining <= _EPSILON:
                finished.append(job)
            else:
                jobs[job] = remaining
                if shortest_job is None or remaining < shortest:
                    shortest, shortest_job = remaining, job
        for job in finished:
            del jobs[job]
            self.jobs_completed += 1
            job.succeed()
        self._shortest_job = shortest_job
        if shortest_job is None:
            return
        # O(1) re-arm.
        n = len(jobs)
        if background == 0.0:
            rate = self._speed * (n if n < cores else cores) / n
        else:
            load = n + background
            rate = self._speed * (load if load < cores else cores) / load
        if rate <= 0:
            return  # Fully stalled: no completion until speed changes.
        delay = shortest / rate
        if delay < 0.0:
            delay = 0.0
        # Enqueue into the calendar wheel directly: same absolute time
        # and sequence-counter position as the old defer_in() path, so
        # dispatch order is byte-identical, minus two call frames and a
        # closure allocation per re-arm.
        sim._push_timed(now + delay, _CompletionTimer(self, self._generation))
