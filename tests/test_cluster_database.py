"""Unit tests for the database home mapping."""

import pytest

from repro.cluster.database import Database


def pages_homed_at(db, node_id):
    return [p for p in range(db.num_pages) if db.home(p) == node_id]


def test_round_robin_homes():
    db = Database(num_pages=10, page_size=4096, num_nodes=3)
    assert [db.home(p) for p in range(6)] == [0, 1, 2, 0, 1, 2]


def test_every_page_has_exactly_one_home():
    db = Database(num_pages=100, page_size=4096, num_nodes=4)
    owned = [pages_homed_at(db, n) for n in range(4)]
    flat = sorted(p for pages in owned for p in pages)
    assert flat == list(range(100))


def test_round_robin_is_balanced():
    db = Database(num_pages=99, page_size=4096, num_nodes=3)
    counts = [len(pages_homed_at(db, n)) for n in range(3)]
    assert counts == [33, 33, 33]


def test_page_out_of_range_rejected():
    db = Database(num_pages=10, page_size=4096, num_nodes=2)
    with pytest.raises(ValueError):
        db.home(10)
    with pytest.raises(ValueError):
        db.home(-1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_pages": 0, "page_size": 4096, "num_nodes": 1},
        {"num_pages": 10, "page_size": 4096, "num_nodes": 0},
    ],
)
def test_invalid_database_rejected(kwargs):
    with pytest.raises(ValueError):
        Database(**kwargs)
