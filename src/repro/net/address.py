"""IPv4 addressing and reverse-DNS naming.

Table I of the paper reports hops by reverse-DNS name and address
(``unn-37-19-223-61.datapacket.com [37.19.223.61]``).  To regenerate that
table faithfully the simulated routers need plausible addresses and
PTR-style names.  This module provides:

* :class:`IPv4Address` / :class:`IPv4Prefix` — minimal, validating value
  types (the stdlib ``ipaddress`` module would do, but these stay in
  plain-int land for speed inside tight loops and add the dashed-quad
  helper the naming templates need).
* :func:`ptr_name` — operator-style PTR names from templates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = ["IPv4Address", "IPv4Prefix", "ptr_name"]


@dataclass(frozen=True, slots=True, order=True)
class IPv4Address:
    """A single IPv4 address, stored as a 32-bit integer."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 0xFFFFFFFF:
            raise ValueError(f"address value {self.value!r} outside 32-bit range")

    @classmethod
    def parse(cls, text: str) -> "IPv4Address":
        parts = text.strip().split(".")
        if len(parts) != 4:
            raise ValueError(f"malformed IPv4 address {text!r}")
        value = 0
        for part in parts:
            if not part.isdigit():
                raise ValueError(f"malformed IPv4 address {text!r}")
            octet = int(part)
            if octet > 255:
                raise ValueError(f"octet {octet} > 255 in {text!r}")
            value = (value << 8) | octet
        return cls(value)

    @property
    def octets(self) -> tuple[int, int, int, int]:
        v = self.value
        return ((v >> 24) & 0xFF, (v >> 16) & 0xFF, (v >> 8) & 0xFF, v & 0xFF)

    @property
    def dotted(self) -> str:
        return ".".join(str(o) for o in self.octets)

    @property
    def dashed(self) -> str:
        """Dashed form used in PTR templates: ``37-19-223-61``."""
        return "-".join(str(o) for o in self.octets)

    @property
    def reverse_dashed(self) -> str:
        """Reversed dashed form (some operators: ``061-223-019-037``)."""
        return "-".join(f"{o:03d}" for o in reversed(self.octets))

    def is_private(self) -> bool:
        """RFC 1918 check (Table I hop 1 is a private gateway)."""
        o = self.octets
        return (o[0] == 10
                or (o[0] == 172 and 16 <= o[1] <= 31)
                or (o[0] == 192 and o[1] == 168))

    def __str__(self) -> str:
        return self.dotted


@dataclass(frozen=True, slots=True)
class IPv4Prefix:
    """A CIDR prefix such as ``185.156.45.0/24``."""

    network: IPv4Address
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError(f"prefix length {self.length} outside [0, 32]")
        if self.network.value & (self.host_count - 1):
            raise ValueError(
                f"{self.network}/{self.length} has host bits set")

    @classmethod
    def parse(cls, text: str) -> "IPv4Prefix":
        try:
            net, length = text.strip().split("/")
        except ValueError:
            raise ValueError(f"malformed prefix {text!r}") from None
        return cls(IPv4Address.parse(net), int(length))

    @property
    def host_count(self) -> int:
        return 1 << (32 - self.length)

    def __contains__(self, addr: IPv4Address) -> bool:
        return (addr.value & ~(self.host_count - 1)) == self.network.value

    def host(self, index: int) -> IPv4Address:
        """The ``index``-th address inside the prefix (0 = network)."""
        if not 0 <= index < self.host_count:
            raise IndexError(
                f"host index {index} outside /{self.length} "
                f"({self.host_count} addresses)")
        return IPv4Address(self.network.value + index)

    def subnets(self, new_length: int) -> Iterator["IPv4Prefix"]:
        """Enumerate sub-prefixes of the given longer length."""
        if new_length < self.length or new_length > 32:
            raise ValueError(
                f"cannot split /{self.length} into /{new_length}")
        step = 1 << (32 - new_length)
        for base in range(self.network.value,
                          self.network.value + self.host_count, step):
            yield IPv4Prefix(IPv4Address(base), new_length)

    def __str__(self) -> str:
        return f"{self.network}/{self.length}"


def ptr_name(template: str, addr: IPv4Address, **fields: str) -> str:
    """Render an operator PTR-style name.

    Supported placeholders: ``{dashed}``, ``{reverse}``, ``{dotted}``
    plus arbitrary keyword fields (``{pop}``, ``{role}``, ...).

    >>> ptr_name("unn-{dashed}.datapacket.com", IPv4Address.parse("37.19.223.61"))
    'unn-37-19-223-61.datapacket.com'
    """
    return template.format(dashed=addr.dashed, reverse=addr.reverse_dashed,
                           dotted=addr.dotted, **fields)
