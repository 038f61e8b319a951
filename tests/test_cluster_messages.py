"""Unit tests for message sizes and traffic accounting."""

from repro.cluster.messages import (
    CONTROL_KINDS,
    MessageKind,
    TrafficAccounting,
    message_size,
)


def test_page_ship_size_includes_payload():
    assert message_size(MessageKind.PAGE_SHIP, 4096) == 4096 + 64


def test_control_messages_are_small():
    """§7.5 relies on control messages being tiny relative to pages."""
    for kind in CONTROL_KINDS:
        assert message_size(kind) <= 64


def test_control_kinds_are_exactly_the_control_path():
    assert MessageKind.AGENT_REPORT in CONTROL_KINDS
    assert MessageKind.ALLOCATION in CONTROL_KINDS
    assert MessageKind.ALLOCATION_ACK in CONTROL_KINDS
    assert MessageKind.PAGE_SHIP not in CONTROL_KINDS
    assert MessageKind.DIRECTORY_UPDATE not in CONTROL_KINDS


def test_accounting_totals():
    acc = TrafficAccounting()
    acc.record(MessageKind.PAGE_SHIP, 4160)
    acc.record(MessageKind.PAGE_SHIP, 4160)
    acc.record(MessageKind.AGENT_REPORT, 64)
    assert acc.total_bytes == 8384
    assert acc.control_bytes == 64
    assert acc.messages_by_kind[MessageKind.PAGE_SHIP] == 2

