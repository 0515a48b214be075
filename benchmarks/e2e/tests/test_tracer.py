import pytest

from benchmarks.e2e.tracer import SpanIndex, Tracer, covered, self_times


def span(id, name, start, end, parent=None):
    return {"id": id, "name": name, "start": start, "end": end, "parent": parent, "run": "t"}


# step [0, 10]
#   exec [1, 7]
#     load [1, 2]   local [2, 6]
#   sync [7, 9]
#     reduce [7.5, 8]  reduce [8, 8.5]
TREE = [
    span(0, "step", 0.0, 10.0),
    span(1, "exec", 1.0, 7.0, 0),
    span(2, "load", 1.0, 2.0, 1),
    span(3, "local", 2.0, 6.0, 1),
    span(4, "sync", 7.0, 9.0, 0),
    span(5, "reduce", 7.5, 8.0, 4),
    span(6, "reduce", 8.0, 8.5, 4),
]


def test_self_time_is_duration_minus_covered_child_time():
    assert self_times(TREE) == {0: 2.0, 1: 1.0, 2: 1.0, 3: 4.0, 4: 1.0, 5: 0.5, 6: 0.5}


def test_self_times_sum_to_the_root():
    assert sum(self_times(TREE).values()) == pytest.approx(10.0)


def test_overlapping_children_are_covered_once():
    assert covered([(0, 4), (2, 6), (8, 9)]) == 7
    tree = [span(0, "p", 0, 10), span(1, "c", 0, 6, 0), span(2, "c", 4, 8, 0)]
    assert self_times(tree)[0] == 2


def test_index_restricts_to_the_timed_window_and_counts_outermost():
    index = SpanIndex(TREE, since=1.5)
    assert index.calls("load") == 0  # started in set-up
    assert index.total_ms("local") == 4000.0
    nested = TREE + [span(7, "sync", 7.1, 7.4, 4)]
    index = SpanIndex(nested)
    assert index.calls("sync") == 2
    assert index.calls("sync", outermost=True) == 1
    assert index.self_ms("step") == 2000.0


class Layer:
    def work(self, n):
        return self.helper(n) + 1

    def helper(self, n):
        return n * 2

    @classmethod
    def build(cls, n):
        return cls().work(n)


def test_wrappers_record_parent_links_and_counts():
    tracer = Tracer("t")
    tracer.wrap(Layer, "work", "layer.work", count=lambda args, result: result)
    tracer.wrap(Layer, "helper", "layer.helper")
    tracer.wrap(Layer, "build", "layer.build")
    try:
        assert Layer.build(3) == 7
        assert Layer().build(3) == 7  # classmethod still callable on an instance
    finally:
        for attr in ("work", "helper"):
            setattr(Layer, attr, getattr(Layer, attr).__wrapped__)
        Layer.build = classmethod(Layer.__dict__["build"].__func__.__wrapped__.__func__)
    spans = tracer.spans()
    assert [s["name"] for s in spans[:3]] == ["layer.build", "layer.work", "layer.helper"]
    assert [s["parent"] for s in spans[:3]] == [None, 0, 1]
    assert all(s["end"] >= s["start"] and s["run"] == "t" for s in spans)
    assert tracer.counters["layer.work.bytes"] == 14


def test_instance_wrapper_leaves_the_class_alone():
    tracer = Tracer("t")
    one, other = Layer(), Layer()
    tracer.wrap(one, "helper", "layer.helper")
    assert one.work(1) == 3 and other.work(1) == 3
    assert len(tracer.spans()) == 1
