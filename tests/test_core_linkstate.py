"""Shared-state replicas: topology database, group database, dedup."""

from repro.core.linkstate import DedupCache, GroupDatabase, TopologyDatabase, symmetric_view


def test_topology_update_accepts_newer_seq():
    db = TopologyDatabase()
    assert db.update("a", 1, {"b": 0.01})
    assert db.update("a", 2, {"b": 0.02})
    assert db.record("a") == {"b": 0.02}


def test_topology_rejects_stale_and_duplicate():
    db = TopologyDatabase()
    db.update("a", 5, {"b": 0.01})
    assert not db.update("a", 5, {"b": 0.09})
    assert not db.update("a", 4, {"b": 0.09})
    assert db.record("a") == {"b": 0.01}


def test_topology_version_bumps_only_on_change():
    db = TopologyDatabase()
    v0 = db.version
    db.update("a", 1, {})
    assert db.version == v0 + 1
    db.update("a", 1, {})
    assert db.version == v0 + 1


def test_adjacency_excludes_down_links():
    db = TopologyDatabase()
    db.update("a", 1, {"b": 0.01, "c": None})
    adj = db.adjacency()
    assert adj["a"] == {"b": 0.01}


def test_adjacency_is_sorted_and_deterministic():
    db1 = TopologyDatabase()
    db1.update("b", 1, {"a": 1.0})
    db1.update("a", 1, {"b": 1.0})
    db2 = TopologyDatabase()
    db2.update("a", 1, {"b": 1.0})
    db2.update("b", 1, {"a": 1.0})
    assert list(db1.adjacency()) == list(db2.adjacency())
    assert db1.adjacency() == db2.adjacency()


def test_symmetric_adjacency_requires_both_ends():
    db = TopologyDatabase()
    db.update("a", 1, {"b": 1.0})
    db.update("b", 1, {})  # b does not confirm the link
    assert symmetric_view(db.adjacency())["a"] == {}
    db.update("b", 2, {"a": 1.0})
    assert symmetric_view(db.adjacency())["a"] == {"b": 1.0}


def test_group_membership():
    db = GroupDatabase()
    db.update("a", 1, ["g1", "g2"])
    db.update("b", 1, ["g1"])
    assert db.members("g1") == ["a", "b"]
    assert db.members("g2") == ["a"]
    assert db.members("none") == []


def test_group_update_replaces_set():
    db = GroupDatabase()
    db.update("a", 1, ["g1"])
    db.update("a", 2, ["g2"])
    assert db.members("g1") == []
    assert db.members("g2") == ["a"]


def test_group_stale_rejected():
    db = GroupDatabase()
    db.update("a", 2, ["g1"])
    assert not db.update("a", 1, ["g2"])
    assert db.groups_of("a") == frozenset({"g1"})


def test_dedup_delivery_once():
    cache = DedupCache(100)
    assert not cache.already_delivered(("f", 1))
    assert cache.already_delivered(("f", 1))
    assert not cache.already_delivered(("f", 2))


def test_dedup_tracks_links_sent():
    cache = DedupCache(100)
    assert cache.links_sent(("f", 1)) == 0
    cache.mark_sent(("f", 1), 0b0101)
    cache.mark_sent(("f", 1), 0b0010)
    assert cache.links_sent(("f", 1)) == 0b0111


def test_dedup_eviction_bounds_memory():
    cache = DedupCache(10)
    for i in range(50):
        cache.already_delivered(("f", i))
        cache.mark_sent(("f", i), 1)
    assert len(cache._delivered) <= 11
    assert len(cache._sent) <= 11


def test_dedup_capacity_validation():
    import pytest

    with pytest.raises(ValueError):
        DedupCache(0)
