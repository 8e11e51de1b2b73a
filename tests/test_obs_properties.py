"""Property-based tests of the tracing invariants.

Randomly generated span programs and tracers must satisfy:

* spans are well-nested per track (parents precede and contain their
  children, sibling order follows close order);
* the Chrome trace export round-trips through JSON and always passes
  the schema validator (``ph:"X"`` records carry ``ts`` + ``dur``).
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Tracer, chrome_trace, validate_chrome_trace

# -- strategies --------------------------------------------------------
names = st.sampled_from(["online", "dls", "stretch", "check", "stretch.sweep"])
tracks = st.sampled_from(["runtime", "pe:0", "pe:1"])
times = st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False)

# a span program: a forest of nested (name, children) nodes
span_trees = st.recursive(
    st.tuples(names, st.just(())),
    lambda children: st.tuples(names, st.lists(children, max_size=3)),
    max_leaves=12,
)
span_forests = st.lists(span_trees, min_size=1, max_size=4)


def _execute(tracer, node, track):
    name, children = node
    with tracer.span(name, track=track):
        for child in children:
            _execute(tracer, child, track)


@st.composite
def tracers(draw):
    """A tracer with nested wall-clock spans, sim spans and events."""
    tracer = Tracer()
    for track, forest in draw(
        st.dictionaries(tracks, span_forests, min_size=1, max_size=3)
    ).items():
        for tree in forest:
            _execute(tracer, tree, track)
    for name, start, length in draw(
        st.lists(st.tuples(names, times, times), max_size=5)
    ):
        tracer.add_span(name, start, start + length, category="sim.task", track="pe:0")
    for name, ts in draw(st.lists(st.tuples(names, times), max_size=5)):
        tracer.event(name, ts=ts, category="sim.event", track="pe:0")
    return tracer


# -- well-nestedness ---------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(forest=span_forests, track=tracks)
def test_spans_are_well_nested_per_track(forest, track):
    tracer = Tracer()
    for tree in forest:
        _execute(tracer, tree, track)
    for index, span in enumerate(tracer.spans):
        assert span.parent < index  # parents are recorded first
        if span.parent >= 0:
            parent = tracer.spans[span.parent]
            assert parent.track == span.track
            assert parent.start <= span.start
            assert span.end <= parent.end


@settings(max_examples=50, deadline=None)
@given(forest=span_forests)
def test_span_count_matches_program_size(forest):
    tracer = Tracer()
    for tree in forest:
        _execute(tracer, tree, "runtime")

    def size(node):
        return 1 + sum(size(child) for child in node[1])

    assert len(tracer.spans) == sum(size(tree) for tree in forest)


# -- Chrome trace export ----------------------------------------------
@settings(max_examples=30, deadline=None)
@given(tracer=tracers())
def test_chrome_trace_round_trips_and_validates(tracer):
    payload = json.loads(json.dumps(chrome_trace(tracer)))
    assert validate_chrome_trace(payload) == []
    records = payload["traceEvents"]
    complete = [r for r in records if r["ph"] == "X"]
    instants = [r for r in records if r["ph"] == "i"]
    assert len(complete) == len(tracer.spans)
    assert len(instants) == len(tracer.events)
    for record in complete:
        assert record["dur"] >= 0
        assert isinstance(record["ts"], (int, float))
    for record in instants:
        assert record["s"] == "t"


@settings(max_examples=30, deadline=None)
@given(tracer=tracers())
def test_every_track_gets_exactly_one_process_name(tracer):
    payload = chrome_trace(tracer)
    metadata = [
        r for r in payload["traceEvents"]
        if r["ph"] == "M" and r["name"] == "process_name"
    ]
    tracks = {s.track for s in tracer.spans} | {e.track for e in tracer.events}
    assert {r["args"]["name"] for r in metadata} == tracks
    assert len(metadata) == len(tracks)
