"""Tests for IPv4 addressing and PTR naming."""

import pytest
from hypothesis import given, strategies as st

from repro.net import IPv4Address, IPv4Prefix, ptr_name


# ---------------------------------------------------------------------------
# IPv4Address
# ---------------------------------------------------------------------------

def test_parse_and_render():
    addr = IPv4Address.parse("37.19.223.61")
    assert addr.dotted == "37.19.223.61"
    assert addr.octets == (37, 19, 223, 61)
    assert str(addr) == "37.19.223.61"


def test_dashed_forms():
    addr = IPv4Address.parse("37.19.223.61")
    assert addr.dashed == "37-19-223-61"
    assert addr.reverse_dashed == "061-223-019-037"


def test_parse_rejects_malformed():
    for bad in ("1.2.3", "1.2.3.4.5", "a.b.c.d", "256.0.0.1", "1..2.3"):
        with pytest.raises(ValueError):
            IPv4Address.parse(bad)


def test_value_range_enforced():
    with pytest.raises(ValueError):
        IPv4Address(-1)
    with pytest.raises(ValueError):
        IPv4Address(2 ** 32)


def test_private_detection():
    assert IPv4Address.parse("10.12.128.1").is_private()
    assert IPv4Address.parse("172.16.0.1").is_private()
    assert IPv4Address.parse("172.32.0.1").is_private() is False
    assert IPv4Address.parse("192.168.1.1").is_private()
    assert IPv4Address.parse("185.156.45.138").is_private() is False


def test_ordering_is_numeric():
    assert IPv4Address.parse("1.0.0.2") < IPv4Address.parse("2.0.0.1")


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_parse_render_round_trip(value):
    addr = IPv4Address(value)
    assert IPv4Address.parse(addr.dotted) == addr


# ---------------------------------------------------------------------------
# IPv4Prefix
# ---------------------------------------------------------------------------

def test_prefix_parse_and_contains():
    pfx = IPv4Prefix.parse("185.156.45.0/24")
    assert IPv4Address.parse("185.156.45.138") in pfx
    assert IPv4Address.parse("185.156.46.1") not in pfx
    assert pfx.host_count == 256


def test_prefix_rejects_host_bits():
    with pytest.raises(ValueError):
        IPv4Prefix.parse("185.156.45.1/24")


def test_prefix_rejects_bad_length():
    with pytest.raises(ValueError):
        IPv4Prefix(IPv4Address.parse("10.0.0.0"), 33)


def test_prefix_host_indexing():
    pfx = IPv4Prefix.parse("10.0.0.0/30")
    assert pfx.host(1).dotted == "10.0.0.1"
    with pytest.raises(IndexError):
        pfx.host(4)


def test_prefix_subnets():
    pfx = IPv4Prefix.parse("10.0.0.0/24")
    subs = list(pfx.subnets(26))
    assert len(subs) == 4
    assert subs[0].network.dotted == "10.0.0.0"
    assert subs[-1].network.dotted == "10.0.0.192"


def test_subnets_rejects_shorter_length():
    pfx = IPv4Prefix.parse("10.0.0.0/24")
    with pytest.raises(ValueError):
        list(pfx.subnets(16))


# ---------------------------------------------------------------------------
# ptr_name
# ---------------------------------------------------------------------------

def test_ptr_name_matches_table1_style():
    addr = IPv4Address.parse("37.19.223.61")
    assert ptr_name("unn-{dashed}.datapacket.com", addr) == \
        "unn-37-19-223-61.datapacket.com"


def test_ptr_name_reverse_style():
    addr = IPv4Address.parse("195.16.228.3")
    assert ptr_name("{reverse}.ascus.at", addr) == "003-228-016-195.ascus.at"


def test_ptr_name_extra_fields():
    addr = IPv4Address.parse("185.156.45.138")
    assert ptr_name("vl204.{pop}-core-2.cdn77.com", addr, pop="vie-itx1") == \
        "vl204.vie-itx1-core-2.cdn77.com"
