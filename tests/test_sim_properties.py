"""Property-based tests for the simulation kernel and resources."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine, Server, Signal, Store, observe, spawn


class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        engine = Engine()
        fired_times = []
        for delay in delays:
            engine.schedule(delay, lambda: fired_times.append(engine.now))
        engine.run()
        assert fired_times == sorted(fired_times)
        assert len(fired_times) == len(delays)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=60),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_cancellation_removes_exactly_the_cancelled(self, delays, data):
        engine = Engine()
        fired = []
        events = [
            engine.schedule(delay, fired.append, index)
            for index, delay in enumerate(delays)
        ]
        to_cancel = data.draw(st.sets(
            st.integers(0, len(events) - 1), max_size=len(events)
        ))
        for index in to_cancel:
            engine.cancel(events[index])
        engine.run()
        assert sorted(fired) == sorted(
            set(range(len(events))) - to_cancel
        )

    @given(st.lists(st.floats(min_value=0.1, max_value=1e4,
                              allow_nan=False), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_process_sleep_sums(self, sleeps):
        engine = Engine()
        done = []

        def sleeper():
            for gap in sleeps:
                yield gap
            done.append(engine.now)

        spawn(engine, sleeper())
        engine.run()
        assert done[0] == sum(sleeps)


class _ReferenceProcess:
    """Drives a generator the way :class:`~repro.sim.Process` does, but
    only through ``schedule`` callbacks and ``observe`` — never through
    the kernel's inline process path."""

    def __init__(self, engine, generator):
        self.engine = engine
        self.generator = generator
        engine.schedule(0.0, self.resume, None)

    def resume(self, value):
        try:
            yielded = self.generator.send(value)
        except StopIteration:
            return
        if isinstance(yielded, float):
            self.engine.schedule(yielded, self.resume, None)
        else:
            observe(yielded, self.resume)


def _run_programs(programs, fire_times, start):
    """Run worker programs and timed signal firers on a fresh engine,
    starting each generator with ``start``; returns the observable
    behaviour."""
    engine = Engine()
    signals = [Signal(engine, f"s{index}") for index in range(len(fire_times))]
    trace = []

    def worker(tag, ops):
        for op, arg in ops:
            if op == "sleep":
                value = yield arg
            else:
                value = yield signals[arg]
            trace.append((tag, op, engine.now, value))

    def firer(index, at):
        yield at
        trace.append((f"firer{index}", "fire", engine.now, None))
        signals[index].fire(("sig", index))

    for tag, ops in enumerate(programs):
        start(engine, worker(tag, ops))
    for index, at in enumerate(fire_times):
        start(engine, firer(index, at))
    engine.run()
    return trace, engine.events_executed, engine.now


_times = st.integers(0, 20).map(float)
_ops = st.one_of(st.tuples(st.just("sleep"), _times),
                 st.tuples(st.just("wait"), st.integers(0, 2)))


class TestProcessDifferential:
    @given(st.lists(st.lists(_ops, max_size=8), min_size=1, max_size=4),
           st.lists(st.integers(0, 60).map(float), min_size=3, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_inline_resume_matches_callback_reference(self, programs,
                                                      fire_times):
        # Small integer times force same-time ties, so the (time, seq)
        # order of process wake-ups is compared too, not just times.
        assert (_run_programs(programs, fire_times, spawn)
                == _run_programs(programs, fire_times, _ReferenceProcess))


class TestServerProperties:
    @given(st.integers(1, 4), st.lists(
        st.floats(min_value=1.0, max_value=100.0, allow_nan=False),
        min_size=1, max_size=20,
    ))
    @settings(max_examples=60, deadline=None)
    def test_server_conserves_work(self, capacity, service_times):
        """Total busy time equals the sum of services; finish time is at
        least the critical path and at most the serial sum."""
        engine = Engine()
        server = Server(engine, capacity)
        finish = []

        def client(duration):
            grant = server.acquire()
            if grant is not None:
                yield grant
            yield duration
            server.release()
            finish.append(engine.now)

        for duration in service_times:
            spawn(engine, client(duration))
        engine.run()
        makespan = max(finish)
        serial = sum(service_times)
        assert makespan <= serial + 1e-6
        assert makespan >= serial / capacity - 1e-6
        assert server.busy == 0

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=40),
           st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_store_is_fifo_and_lossless(self, items, capacity):
        engine = Engine()
        store = Store(engine, capacity=capacity)
        received = []

        def producer():
            for item in items:
                signal = store.put(item)
                if signal is not None:
                    yield signal
                yield 1.0

        def consumer():
            from repro.sim import Ready
            for _ in items:
                slot = store.get()
                if isinstance(slot, Ready):
                    received.append(slot.item)
                else:
                    received.append((yield slot))
                yield 0.5

        spawn(engine, producer())
        spawn(engine, consumer())
        engine.run()
        assert received == items
