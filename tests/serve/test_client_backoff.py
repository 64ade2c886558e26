"""ServeClient polling: jittered exponential backoff in ``wait``, and
refused ``wait_ready`` polls that leave no socket open."""

import gc
import itertools
import warnings

import pytest

from repro.serve.client import ServeClient, poll_delays, poll_jitter


class TestPollJitter:
    def test_bounded(self):
        for attempt in range(200):
            factor = poll_jitter("job-1", attempt)
            assert 0.75 <= factor <= 1.25

    def test_deterministic(self):
        assert poll_jitter("job-1", 3) == poll_jitter("job-1", 3)

    def test_tokens_desynchronise(self):
        # different jobs polling together must not tick in lockstep
        a = [poll_jitter("job-a", n) for n in range(8)]
        b = [poll_jitter("job-b", n) for n in range(8)]
        assert a != b

    def test_no_global_rng_touched(self):
        import random
        state = random.getstate()
        poll_jitter("job-1", 0)
        assert random.getstate() == state


class TestPollDelays:
    def test_doubles_up_to_the_cap(self):
        raw = [delay / poll_jitter("t", n) for n, delay in
               enumerate(itertools.islice(poll_delays("t", 0.1, 5.0),
                                          10))]
        assert raw[:6] == pytest.approx([0.1, 0.2, 0.4, 0.8, 1.6, 3.2])
        assert raw[6:] == pytest.approx([5.0] * 4)  # capped, stays put

    def test_huge_attempt_counts_do_not_overflow(self):
        delays = poll_delays("t", 0.1, 5.0)
        last = [next(delays) for _ in range(100)][-1]
        assert last <= 5.0 * 1.25

    def test_cap_bounds_poll_traffic(self):
        # a 600 s wait at cap 5 s costs ~ the backoff ramp + T/cap
        # polls — two orders of magnitude under fixed 0.1 s polling
        total, polls = 0.0, 0
        for delay in poll_delays("t", 0.1, 5.0):
            total += delay
            polls += 1
            if total >= 600.0:
                break
        assert polls <= 135


class FakeTransport(ServeClient):
    """ServeClient with a scripted status endpoint (no sockets)."""

    def __init__(self, states):
        super().__init__("unix:/nonexistent.sock")
        self.states = iter(states)
        self.polls = 0

    def status(self, job_id):
        self.polls += 1
        return {"state": next(self.states)}


class TestWaitBackoff:
    @pytest.fixture
    def clock(self, monkeypatch):
        """Virtual time: _sleep advances, _now reads."""
        state = {"now": 0.0, "slept": []}
        monkeypatch.setattr("repro.serve.client._now",
                            lambda: state["now"])

        def sleep(seconds):
            state["slept"].append(seconds)
            state["now"] += seconds
        monkeypatch.setattr("repro.serve.client._sleep", sleep)
        return state

    def test_returns_on_terminal_state(self, clock):
        client = FakeTransport(["queued", "running", "done"])
        document = client.wait("job-1", timeout_s=600.0)
        assert document["state"] == "done"
        assert client.polls == 3

    def test_sleeps_follow_the_backoff_schedule(self, clock):
        client = FakeTransport(["running"] * 10 + ["done"])
        client.wait("job-1", timeout_s=600.0, poll_s=0.1, max_poll_s=5.0)
        # the backoff schedule, each step capped at a jittered quarter
        # of the time waited so far (floored at poll_s)
        expected, waited = [], 0.0
        for attempt, delay in enumerate(itertools.islice(
                poll_delays("job-1", 0.1, 5.0), 10)):
            ceiling = max(0.1, waited / 4) * poll_jitter("job-1", attempt)
            expected.append(min(delay, ceiling))
            waited += expected[-1]
        assert clock["slept"] == pytest.approx(expected)

    @pytest.mark.parametrize("job_id", ["job-1", "job-2", "job-3",
                                        "job-4", "job-5", "job-6"])
    @pytest.mark.parametrize("finish_s", [0.5, 1.3, 2.95, 7.0, 18.0])
    def test_finished_job_is_seen_within_a_quarter_of_its_runtime(
            self, clock, job_id, finish_s):
        # a job that finishes between two polls must not wait out a
        # whole backoff step: 2.95 s jobs used to be seen at ~6.3 s
        client = FakeTransport(())
        client.status = lambda _: {
            "state": "done" if clock["now"] >= finish_s else "running"}
        client.wait(job_id, timeout_s=600.0, poll_s=0.1, max_poll_s=5.0)
        assert finish_s <= clock["now"] <= finish_s * (1 + 1.25 / 4)

    def test_poll_count_is_logarithmic_not_linear(self, clock):
        # a job finishing at t=600 s: fixed 0.1 s polling would issue
        # 6000 status calls; backoff must stay within ~ramp + T/cap
        client = FakeTransport(itertools.chain(
            itertools.repeat("running", 10_000)))
        with pytest.raises(TimeoutError):
            client.wait("job-1", timeout_s=600.0, poll_s=0.1,
                        max_poll_s=5.0)
        assert client.polls <= 140

    def test_timeout_is_honoured(self, clock):
        client = FakeTransport(itertools.repeat("running"))
        with pytest.raises(TimeoutError, match="not finished after"):
            client.wait("job-1", timeout_s=3.0)
        assert clock["now"] <= 3.0 + 5.0  # never sleeps past deadline

    def test_final_sleep_clamped_to_deadline(self, clock):
        client = FakeTransport(itertools.repeat("running"))
        with pytest.raises(TimeoutError):
            client.wait("job-1", timeout_s=2.0, poll_s=0.1,
                        max_poll_s=60.0)
        # no single sleep may overshoot the remaining budget
        assert all(s <= 2.0 for s in clock["slept"])


class TestWaitReady:
    def test_refused_polls_close_their_sockets(self, tmp_path):
        # every poll against a missing socket path is refused; each
        # must close the socket it opened
        client = ServeClient(f"unix:{tmp_path / 'missing.sock'}")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(TimeoutError, match="not ready after"):
                client.wait_ready(timeout_s=0.2)
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]
