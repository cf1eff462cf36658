"""Tests for EventBus delivery semantics and lifecycle topics."""

import logging

import pytest

from repro.obs import EventBus, Tracer


class TestEventBusDelivery:
    def test_publish_returns_successful_deliveries(self):
        bus = EventBus()
        seen = []
        bus.subscribe("t", seen.append)
        bus.subscribe("t", seen.append)
        assert bus.publish("t", 1) == 2
        assert seen == [1, 1]

    def test_no_subscribers_is_zero(self):
        bus = EventBus()
        assert bus.publish("nobody-home", 1) == 0
        assert bus.published["nobody-home"] == 1

    def test_unheard_publishes_still_counted_exactly(self):
        # The no-listener fast return must not skip the tally: after an
        # unsubscribe, with an unrelated family pattern, and bare.
        bus = EventBus()
        unsubscribe = bus.subscribe("t", lambda p: None)
        unsubscribe()
        for _ in range(3):
            assert bus.publish("t", 1) == 0
        bus.subscribe("net.*", lambda p: None)
        assert bus.publish("t", 1) == 0
        assert bus.publish("net.delivered", 1) == 1
        assert bus.published == {"t": 4, "net.delivered": 1}

    def test_raising_subscriber_is_isolated(self, caplog):
        bus = EventBus()
        seen = []

        def broken(payload):
            raise RuntimeError("consumer bug")

        bus.subscribe("t", broken)
        bus.subscribe("t", seen.append)
        with caplog.at_level(logging.ERROR, logger="repro.obs.bus"):
            delivered = bus.publish("t", "payload")
        # The publisher survives, later subscribers still run, and the
        # failure is both logged and tallied.
        assert delivered == 1
        assert seen == ["payload"]
        assert bus.delivery_errors["t"] == 1
        assert any("consumer bug" in r.exc_text or "broken" in r.message
                   for r in caplog.records)

    def test_errors_accumulate_per_topic(self):
        bus = EventBus()
        bus.subscribe("t", lambda p: 1 / 0)
        bus.publish("t")
        bus.publish("t")
        assert bus.delivery_errors == {"t": 2}

    def test_unsubscribe_during_publish_uses_snapshot(self):
        bus = EventBus()
        seen = []
        unsub_holder = {}

        def first(payload):
            seen.append("first")
            unsub_holder["later"]()  # unsubscribe the *next* listener

        def later(payload):
            seen.append("later")

        bus.subscribe("t", first)
        unsub_holder["later"] = bus.subscribe("t", later)
        # The in-flight publish delivers to the snapshot; the removal
        # only affects the next publish.
        assert bus.publish("t") == 2
        assert seen == ["first", "later"]
        assert bus.publish("t") == 1
        assert seen == ["first", "later", "first"]

    def test_self_unsubscribe_during_publish(self):
        bus = EventBus()
        calls = []

        def once(payload):
            calls.append(payload)
            unsubscribe()

        unsubscribe = bus.subscribe("t", once)
        bus.publish("t", 1)
        bus.publish("t", 2)
        assert calls == [1]
        assert bus.publish("t", 3) == 0

    def test_unsubscribe_is_idempotent(self):
        bus = EventBus()
        unsubscribe = bus.subscribe("t", lambda p: None)
        unsubscribe()
        unsubscribe()  # second call is a harmless no-op
        assert bus.publish("t", 1) == 0

    def test_subscribe_after_publish_sees_only_later_events(self):
        # The bus is fire-and-forget: a late subscriber misses earlier
        # publishes (no replay) but receives everything from then on.
        bus = EventBus()
        bus.publish("t", "early")
        seen = []
        bus.subscribe("t", seen.append)
        bus.publish("t", "late")
        assert seen == ["late"]
        assert bus.published["t"] == 2


class TestTopicPatterns:
    def test_family_pattern_receives_all_members(self):
        bus = EventBus()
        seen = []
        bus.subscribe("net.*", seen.append)
        bus.publish("net.delivered", 1)
        bus.publish("net.dropped", 2)
        bus.publish("net.failed", 3)
        assert seen == [1, 2, 3]

    def test_pattern_matches_prefix_only(self):
        bus = EventBus()
        seen = []
        bus.subscribe("net.*", seen.append)
        # Neither the bare family name nor a lookalike prefix matches:
        # the pattern is the dotted prefix "net.".
        assert bus.publish("net", "bare") == 0
        assert bus.publish("network.up", "lookalike") == 0
        assert bus.publish("request.completed", "other") == 0
        assert seen == []

    def test_pattern_and_exact_both_delivered(self):
        bus = EventBus()
        exact, family = [], []
        bus.subscribe("net.dropped", exact.append)
        bus.subscribe("net.*", family.append)
        assert bus.publish("net.dropped", "x") == 2
        assert exact == ["x"]
        assert family == ["x"]

    def test_pattern_unsubscribe(self):
        bus = EventBus()
        seen = []
        unsubscribe = bus.subscribe("net.*", seen.append)
        bus.publish("net.delivered", 1)
        unsubscribe()
        bus.publish("net.delivered", 2)
        assert seen == [1]
        assert bus.publish("net.dropped", 3) == 0

    def test_nested_subtopics_match(self):
        bus = EventBus()
        seen = []
        bus.subscribe("net.*", seen.append)
        bus.publish("net.link.apache.dropped", "deep")
        assert seen == ["deep"]

    def test_raising_pattern_subscriber_is_isolated(self):
        bus = EventBus()
        seen = []
        bus.subscribe("net.*", lambda p: 1 / 0)
        bus.subscribe("net.dropped", seen.append)
        assert bus.publish("net.dropped", "p") == 1
        assert seen == ["p"]
        assert bus.delivery_errors["net.dropped"] == 1


class _Lifecycle:
    """Minimal request record for tracer lifecycle tests."""

    def __init__(self, rid, failed=False, attempts=1):
        self.rid = rid
        self.t_done = 0.5
        self.response_time = None if failed else 0.1
        self.failed = failed
        self.attempts = attempts
        self.trace = None


class TestTracerLifecycleTopics:
    def _tracer(self):
        bus = EventBus()
        return Tracer(bus=bus), bus

    def test_started_completed_published(self):
        tracer, bus = self._tracer()
        events = {}
        for topic in ("request.started", "request.completed"):
            events[topic] = []
            bus.subscribe(topic, events[topic].append)
        request = _Lifecycle(1)
        tracer.begin_trace(request)
        tracer.finish(request)
        assert events["request.started"] == [request]
        assert events["request.completed"] == [request]
        assert tracer.metrics.counter("requests.started").value == 1

    def test_dropped_published_per_attempt(self):
        tracer, bus = self._tracer()
        drops = []
        bus.subscribe("request.dropped", drops.append)
        request = _Lifecycle(1)
        tracer.begin_trace(request)
        tracer.dropped(request, "apache")
        tracer.dropped(request, "apache")
        assert drops == [request, request]
        assert tracer.metrics.counter("requests.dropped").value == 2

    def test_failed_topic_for_failed_requests(self):
        tracer, bus = self._tracer()
        failed = []
        bus.subscribe("request.failed", failed.append)
        request = _Lifecycle(1, failed=True)
        tracer.begin_trace(request)
        tracer.finish(request)
        assert failed == [request]

    def test_broken_consumer_does_not_break_finish(self):
        tracer, bus = self._tracer()
        bus.subscribe(
            "request.completed",
            lambda r: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        request = _Lifecycle(1)
        tracer.begin_trace(request)
        tracer.finish(request)  # must not raise
        assert bus.delivery_errors["request.completed"] == 1
