"""Span self-time arithmetic and wrapper install/restore."""

import pytest

import spans
from spans import Tracer, covered_length, self_times


def span(id_, parent, start, end, name="x"):
    return (id_, parent, name, start, end, 0)


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0, 10) == 0
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5)
    # clipped to the parent window; a child outside it covers nothing
    assert covered_length([(-2, 1), (9, 12), (20, 30)], 0, 10) == pytest.approx(2)
    # a child nested in another adds nothing
    assert covered_length([(1, 9), (2, 3)], 0, 10) == pytest.approx(8)


def test_self_time_nested_children():
    recorded = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 4.0),
        span(3, 2, 2.0, 3.0),  # grandchild: counts against 2, not 1
        span(4, 1, 6.0, 7.0),
    ]
    own = self_times(recorded)
    assert own[1] == pytest.approx(10 - 3 - 1)
    assert own[2] == pytest.approx(3 - 1)
    assert own[3] == pytest.approx(1)
    assert own[4] == pytest.approx(1)
    # self times partition the root's wall time exactly
    assert sum(own.values()) == pytest.approx(10)


def test_self_time_overlapping_children_counted_once():
    recorded = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 5.0),
        span(3, 1, 3.0, 8.0),  # overlaps 2 on [3, 5]
        span(4, 1, 9.0, 12.0),  # runs past the parent's end
    ]
    own = self_times(recorded)
    assert own[1] == pytest.approx(10 - 7 - 1)


def test_tracer_nests_through_the_context_stack():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
        with tracer.span("sibling"):
            pass
    by_name = {s[spans.NAME]: s for s in tracer.spans}
    assert by_name["outer"][spans.PARENT] is None
    assert by_name["inner"][spans.PARENT] == outer
    assert by_name["sibling"][spans.PARENT] == outer
    assert by_name["inner"][spans.ID] == inner
    cover = spans.coverage(tracer.spans, "outer")
    assert 0.0 <= cover <= 1.0


def test_layer_metrics_skip_the_benchmarks_own_checks():
    tracer = Tracer()
    tracer.spans += [
        span(1, None, 0.0, 4.0, "perf.fingerprint_table"),
        span(2, None, 10.0, 20.0, "phase.verify"),
        span(3, 2, 11.0, 19.0, "perf.fingerprint_table"),
    ]
    assert spans.layer_metrics(tracer)["perf.fingerprint_s"] == pytest.approx(4.0)


def test_instrument_wraps_and_restores_every_target():
    import repro.core.engine as engine
    from repro.perf.spill import SpillError, SpillFile

    original_dbscan = engine.dbscan
    original_open = vars(SpillFile)["open"]
    tracer = Tracer()
    with spans.instrument(tracer):
        assert spans.is_wrapped(engine.dbscan)
        assert len(spans.wrapped_targets()) == len(spans.TARGETS)
        # a wrapped classmethod still binds to the class
        with pytest.raises(SpillError):
            SpillFile.open("/nonexistent/spill")
    assert spans.wrapped_targets() == []
    assert engine.dbscan is original_dbscan
    assert vars(SpillFile)["open"] is original_open
    # the failed open is a span but not a read
    assert [s[spans.NAME] for s in tracer.spans] == ["perf.SpillFile.open"]
    assert tracer.counters == {}


def test_instrument_restores_after_an_error():
    import repro.core.engine as engine

    original = engine.kmeans_auto
    with pytest.raises(RuntimeError):
        with spans.instrument(Tracer()):
            raise RuntimeError("boom")
    assert engine.kmeans_auto is original


def test_wrapper_counts_failed_calls_when_asked():
    import numpy as np

    from repro.dataset import SyntheticConfig, generate_epc_collection
    from repro.preprocessing.geocoder import SimulatedGeocoder

    street_map = generate_epc_collection(
        SyntheticConfig(n_certificates=50, seed=1)
    ).street_map
    geocoder = SimulatedGeocoder(street_map, quota=1)
    tracer = Tracer()
    with spans.instrument(tracer):
        geocoder.geocode("via roma 1")
        with pytest.raises(Exception):
            geocoder.geocode("via roma 2")  # quota spent
    assert tracer.counters["preprocessing.geocoder_calls"] == 2
    assert tracer.counters["preprocessing.geocoder_failed"] >= 1
    assert np.isfinite(spans.layer_metrics(tracer)["preprocessing.geocoder_s"])
