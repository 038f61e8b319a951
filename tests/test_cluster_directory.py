"""Unit tests for the page-location directory."""

from repro.cluster.directory import PageDirectory


def test_register_and_holders():
    directory = PageDirectory()
    directory.register(5, 0)
    directory.register(5, 2)
    assert directory.holders(5) == {0, 2}
    assert directory.cached_anywhere(5)
    assert not directory.cached_anywhere(6)


def test_register_idempotent():
    directory = PageDirectory()
    directory.register(1, 0)
    directory.register(1, 0)
    assert directory.holders(1) == {0}


def test_unregister_removes_holder():
    directory = PageDirectory()
    directory.register(1, 0)
    directory.register(1, 1)
    directory.unregister(1, 0)
    assert directory.holders(1) == {1}
    directory.unregister(1, 1)
    assert not directory.cached_anywhere(1)


def test_unregister_unknown_is_noop():
    directory = PageDirectory()
    directory.unregister(99, 3)  # must not raise
    assert directory.holders(99) == set()


def test_remote_holder_excludes_requester():
    directory = PageDirectory()
    directory.register(7, 1)
    assert directory.remote_holder(7, requester=1) is None
    assert directory.remote_holder(7, requester=0) == 1


def test_remote_holder_deterministic_lowest_id():
    directory = PageDirectory()
    directory.register(7, 2)
    directory.register(7, 1)
    assert directory.remote_holder(7, requester=0) == 1


def test_last_copy_detection():
    directory = PageDirectory()
    directory.register(3, 0)
    assert directory.is_last_copy(3, 0)
    directory.register(3, 1)
    assert not directory.is_last_copy(3, 0)
    directory.unregister(3, 1)
    assert directory.is_last_copy(3, 0)


def test_last_copy_false_for_noncached():
    directory = PageDirectory()
    assert not directory.is_last_copy(3, 0)


def test_directory_accounts_updates_on_network():
    class FakeNetwork:
        def __init__(self):
            self.calls = 0

        def account_only(self, kind):
            self.calls += 1

    network = FakeNetwork()
    directory = PageDirectory(network)
    directory.register(1, 0)
    directory.register(1, 0)  # no change, no message
    directory.unregister(1, 0)
    directory.unregister(1, 0)  # no change, no message
    assert network.calls == 2


def test_remote_holder_stays_lowest_under_churn():
    """The incremental lowest-id holder survives register/unregister."""
    directory = PageDirectory()
    for node in (5, 3, 8):
        directory.register(1, node)
    assert directory.remote_holder(1, requester=9) == 3
    directory.unregister(1, 3)       # drop the current lowest
    assert directory.remote_holder(1, requester=9) == 5
    directory.register(1, 2)         # a new lowest arrives
    assert directory.remote_holder(1, requester=9) == 2
    directory.unregister(1, 8)       # dropping a non-lowest is inert
    assert directory.remote_holder(1, requester=9) == 2
    directory.unregister(1, 2)
    assert directory.remote_holder(1, requester=9) == 5
    assert directory.remote_holder(1, requester=5) is None
    directory.unregister(1, 5)
    assert not directory.cached_anywhere(1)


def test_unregister_many_matches_per_page_unregister():
    batched, looped = PageDirectory(), PageDirectory()
    pages = [1, 2, 3, 4]
    for directory in (batched, looped):
        for page in pages:
            directory.register(page, 0)
            directory.register(page, page)
    batched.unregister_many([1, 2, 99, 3], node_id=0)  # 99: no-op
    for page in (1, 2, 99, 3):
        looped.unregister(page, 0)
    for page in pages:
        assert batched.holders(page) == looped.holders(page)
        assert (batched.remote_holder(page, requester=7)
                == looped.remote_holder(page, requester=7))


def test_unregister_many_accounts_batched_updates():
    class FakeNetwork:
        def __init__(self):
            self.messages = 0

        def account_only(self, kind):
            self.messages += 1

        def account_many(self, kind, count):
            self.messages += count

    network = FakeNetwork()
    directory = PageDirectory(network)
    for page in (1, 2, 3):
        directory.register(page, 0)
    registered = network.messages
    directory.unregister_many([1, 2, 3, 77], node_id=0)  # 77: no-op
    assert network.messages - registered == 3
