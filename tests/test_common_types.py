"""Vocabulary types: Access and error paths."""

import pytest

from repro.common.types import Access, AccessType


class TestAccessType:
    def test_write_flag(self):
        assert AccessType.WRITE.is_write
        assert not AccessType.READ.is_write
        assert not AccessType.IFETCH.is_write


class TestAccess:
    def test_block_address_alignment(self):
        a = Access(address=0x1234)
        assert a.block_address(64) == 0x1200
        assert a.block_address(4096) == 0x1000

    def test_block_address_already_aligned(self):
        assert Access(address=0x2000).block_address(128) == 0x2000

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            Access(address=-1)

    def test_defaults(self):
        a = Access(address=8)
        assert a.kind is AccessType.READ
        assert a.pc == 0

    def test_frozen(self):
        a = Access(address=8)
        with pytest.raises(AttributeError):
            a.address = 9

