"""The queue chain as it was before its transfer was flattened.

:class:`ReferenceQueueChain` is :class:`~repro.net.queues.QueueChain`
with a verbatim copy of its former ``transfer``, which drove each
traversal through a nested ``_attempt`` generator (one extra generator
frame on every stage ``Timeout``).  Stages, counters and the bus
payloads are the run-time ones.  Nothing in ``src`` uses it: it is the
reference ``tests/test_reference_equivalence.py`` checks the run-time
chain against.
"""

from typing import Generator, Optional

from repro.net.queues import NetEvent, NetworkOverflowError, QueueChain
from repro.sim.core import Timeout

__all__ = ["ReferenceQueueChain"]


class ReferenceQueueChain(QueueChain):
    """A queue chain whose traversals run in a nested generator."""

    def transfer(self, trace=None, span: Optional[str] = None) -> Generator:
        """Send one message end to end, retransmitting on loss.

        Raises :class:`NetworkOverflowError` once the RTO schedule is
        exhausted — the client's TCP loop treats it as a request drop.
        """
        sim = self.sim
        bus = self.bus
        self.messages += 1
        start = sim._now
        rtos = None
        attempt = 0
        while True:
            attempt += 1
            self.attempts += 1
            sent = sim._now
            outcome = yield from self._attempt()
            if outcome is None:
                delivered = sim._now
                self.delivered += 1
                if trace is not None:
                    trace.add("net", span, sent, delivered)
                if bus is not None:
                    bus.publish(
                        "net.delivered",
                        NetEvent(
                            kind="delivered",
                            link=self.name,
                            t=delivered,
                            latency=delivered - start,
                            attempts=attempt,
                        ),
                    )
                return
            dropped_at, marked = outcome
            if bus is not None:
                bus.publish(
                    "net.dropped",
                    NetEvent(
                        kind="dropped",
                        link=self.name,
                        t=sim._now,
                        stage=dropped_at,
                        attempts=attempt,
                        marked=marked,
                    ),
                )
            if rtos is None:
                rtos = self.tcp.timeouts()
            try:
                rto = next(rtos)
            except StopIteration:
                self.failed += 1
                if bus is not None:
                    bus.publish(
                        "net.failed",
                        NetEvent(
                            kind="failed",
                            link=self.name,
                            t=sim._now,
                            attempts=attempt,
                        ),
                    )
                raise NetworkOverflowError(f"net:{self.name}") from None
            backoff_start = sim._now
            yield Timeout(sim, rto)
            if trace is not None:
                trace.backoff("net_rto", span, backoff_start, sim._now, rto)

    def _attempt(self) -> Generator:
        """One end-to-end traversal.

        Returns ``None`` on delivery, else ``(stage_name, marked)`` for
        the stage that dropped the message.
        """
        sim = self.sim
        marked = False
        for stage in self.stages:
            admitted = stage.admit(sim._now)
            if admitted is None:
                return stage.name, marked
            departure, stage_marked = admitted
            delay = departure - sim._now
            if delay > 0:
                yield Timeout(sim, delay)
            stage.depart()
            marked = marked or stage_marked
        if self.propagation > 0:
            yield Timeout(sim, self.propagation)
        if marked and self.ecn_penalty > 0:
            # The congestion response: one pacing delay per marked
            # traversal, the cwnd-halving analog.
            yield Timeout(sim, self.ecn_penalty)
        return None
