"""Tests for message stores and combiners."""

from oracles.messages import (
    MessageStore,
    MinCombiner,
    SumCombiner,
    make_message_router,
)


def test_messages_grouped_by_target():
    store = MessageStore()
    store.send(1, "a")
    store.send(2, "b")
    store.send(1, "c")
    assert store.messages_for(1) == ["a", "c"]
    assert store.messages_for(2) == ["b"]
    assert store.messages_for(3) == []
    assert store.targets() == {1, 2}
    assert len(store) == 3


def test_sum_combiner_merges_messages():
    store = MessageStore(SumCombiner())
    store.send(1, 2)
    store.send(1, 3)
    assert store.messages_for(1) == [5]
    assert store.messages_enqueued == 2


def test_min_combiner():
    store = MessageStore(MinCombiner())
    store.send(0, 9)
    store.send(0, 4)
    store.send(0, 7)
    assert store.messages_for(0) == [4]


def test_is_empty():
    store = MessageStore()
    assert store.is_empty()
    store.send(0, 1)
    assert not store.is_empty()


def test_router_invokes_callback():
    store = MessageStore()
    seen = []
    send = make_message_router(store, on_send=seen.append)
    send(3, "x")
    send(4, "y")
    assert seen == [3, 4]
    assert store.messages_for(3) == ["x"]
