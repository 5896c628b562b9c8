import pytest
from loadgen import closed_loop, open_loop


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_open_loop_latency_counts_from_due_time():
    clock = FakeClock()
    service_s = [0.5, 0.1, 0.1, 0.1]  # the first request stalls the sender

    def send(index):
        clock.now += service_s[index]
        return index

    samples = open_loop([0.0, 0.1, 0.2, 1.0], send, workers=1, clock=clock,
                        sleep=clock.sleep)
    assert [s.outcome for s in samples] == [0, 1, 2, 3]
    assert [s.latency for s in samples] == pytest.approx([0.5, 0.5, 0.5, 0.1])
    assert [s.lag for s in samples] == pytest.approx([0.0, 0.4, 0.4, 0.0])


def test_closed_loop_stops_starting_requests_after_the_window():
    clock = FakeClock()

    def send(index):
        clock.now += 0.25
        return index

    samples = closed_loop(send, 1.0, clients=1, clock=clock)
    assert [s.outcome for s in samples] == [0, 1, 2, 3]
    assert all(s.latency == pytest.approx(0.25) for s in samples)


def test_at_most_two_threads():
    with pytest.raises(ValueError):
        open_loop([0.0], lambda i: i, workers=3)
