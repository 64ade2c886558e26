"""The obs.top renderer is a pure function over /metrics documents."""

from repro.obs.top import eta_s, render, sparkline


def doc(stats=None, series=None):
    wrapped = {name: {"samples": len(values), "values": values}
               for name, values in (series or {}).items()}
    return {"stats": stats or {},
            "series": {"interval_s": 1.0, "capacity": 600,
                       "series": wrapped}}


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat_series_renders_low_blocks(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_scales_to_extremes(self):
        strip = sparkline([0, 10])
        assert strip[0] == "▁"
        assert strip[-1] == "█"

    def test_window_clips_to_width(self):
        assert len(sparkline(list(range(100)), width=10)) == 10


class TestEta:
    def test_drained_queue_is_zero(self):
        assert eta_s(doc(stats={"serve.queue_depth": 0,
                                "serve.jobs_running": 0})) == 0.0

    def test_no_rate_history_is_unknown(self):
        assert eta_s(doc(stats={"serve.queue_depth": 4})) is None

    def test_extrapolates_from_recent_rate(self):
        document = doc(stats={"serve.queue_depth": 6,
                              "serve.jobs_running": 2},
                       series={"serve.jobs_per_s": [0.0, 2.0, 2.0]})
        assert eta_s(document) == 4.0


class TestRender:
    def test_renders_all_sections(self):
        document = doc(
            stats={"serve.queue_depth": 2, "serve.jobs_running": 1,
                   "serve.jobs_completed": 7, "serve.jobs_failed": 0,
                   "serve.jobs_known": 10,
                   "serve.pool.inflight_points": 3,
                   "serve.pool.workers": 4, "exec.resolve.dedup_hits": 5,
                   "serve.job_latency_ms.p50": 100,
                   "serve.job_latency_ms.p99": 500},
            series={"serve.pool.cache_hit_rate": [0.5],
                    "serve.jobs_per_s": [1.0],
                    "serve.pool.points_per_s": [8.0],
                    "serve.queue_depth": [3, 2, 2]})
        frame = render(document, address="unix:/tmp/s.sock")
        assert "unix:/tmp/s.sock" in frame
        assert "queued 2" in frame
        assert "done 7" in frame
        assert "cache-hit 50%" in frame
        assert "p50 100ms p99 500ms" in frame
        assert "7/10 jobs terminal" in frame
        assert "ETA" in frame

    def test_empty_document_renders_without_crashing(self):
        frame = render(doc())
        assert "jobs" in frame
        assert "ETA 0s" in frame  # nothing outstanding: drained

    def test_unknown_eta_renders_dashes(self):
        frame = render(doc(stats={"serve.queue_depth": 4}))
        assert "ETA --" in frame
