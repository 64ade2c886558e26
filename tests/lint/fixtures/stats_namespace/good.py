# repro-lint-module: repro.serve.fixture_good_stats
"""Names under declared namespaces, including f-string shapes."""


def wire(registry, cache, subchannel, prefix):
    registry.counter("serve.jobs_submitted")
    registry.gauge(f"mc.{subchannel}.row_hits")
    registry.histogram("serve.job_latency_ms", (1, 10, 100))
    registry.register("serve", lambda: {"up": 1})
    cache.register_stats(registry, prefix="exec.cache")
    # dynamically-prefixed mount point: checked where the prefix is chosen
    registry.counter(f"{prefix}.latency_ps.count")
