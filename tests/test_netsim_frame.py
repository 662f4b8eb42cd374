"""Tests for the Frame value class."""

import pytest

from repro.netsim.frame import DEFAULT_HEAD_BYTES, Frame


class TestFrame:
    def test_basic_construction(self):
        f = Frame(wire_len=1514, head=b"\x01" * 256)
        assert f.wire_len == 1514
        assert len(f.head) == 256

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            Frame(wire_len=0, head=b"")

    def test_rejects_head_longer_than_wire(self):
        with pytest.raises(ValueError):
            Frame(wire_len=10, head=b"\x00" * 20)

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            Frame(wire_len=-60, head=b"")

    def test_head_may_fill_the_whole_frame(self):
        assert Frame(wire_len=60, head=b"\x00" * 60).wire_len == 60

    def test_equal_content_frames_are_distinct_objects(self):
        # Frames have no id field: identity is the object, and equality
        # is identity, so two same-content frames never compare equal.
        a = Frame(wire_len=60, head=b"\x00" * 60)
        b = Frame(wire_len=60, head=b"\x00" * 60)
        assert a is not b
        assert a != b
        assert a == a

    def test_clone_is_distinct_copy_same_content(self):
        original = Frame(wire_len=100, head=b"\x07" * 80, flow_id=5, site="STAR")
        clone = original.clone()
        assert clone is not original
        assert clone.wire_len == original.wire_len
        assert clone.head == original.head
        assert clone.flow_id == 5
        assert clone.site == "STAR"

    def test_slotted_without_identity(self):
        frame = Frame(wire_len=100, head=b"\x00" * 14)
        assert not hasattr(frame, "__dict__")
        assert not hasattr(frame, "frame_id")
        with pytest.raises(AttributeError):
            frame.tag = "x"


class TestCapturedBytes:
    def test_truncation_below_head(self):
        f = Frame(wire_len=1514, head=bytes(range(200)))
        assert f.captured_bytes(64) == bytes(range(64))

    def test_exact_head(self):
        f = Frame(wire_len=1514, head=bytes(range(200)))
        assert f.captured_bytes(200) == bytes(range(200))

    def test_padding_beyond_head(self):
        f = Frame(wire_len=1514, head=bytes(range(100)))
        captured = f.captured_bytes(150)
        assert len(captured) == 150
        assert captured[:100] == bytes(range(100))
        assert captured[100:] == b"\x00" * 50

    def test_never_exceeds_wire_len(self):
        f = Frame(wire_len=80, head=bytes(range(80)))
        assert len(f.captured_bytes(500)) == 80

    def test_default_head_covers_deepest_stack_plus_truncation(self):
        # Paper: deepest stacks are 12 headers; captures truncate at 200 B.
        assert DEFAULT_HEAD_BYTES >= 200
