# repro-lint-module: repro.serve.fixture_bad_stats
"""Metric names outside every declared namespace."""


def wire(registry, cache):
    registry.counter("bogus.requests")
    registry.gauge("queue.depth")
    registry.histogram("latency_ms", (1, 10, 100))
    registry.register("daemon", lambda: {"up": 1})
    cache.register_stats(registry, prefix="results.cache")
