"""Physical units, constants and conversion helpers.

All simulator-internal quantities use SI base units:

* time        -> seconds (float)
* distance    -> metres (float)
* data size   -> bits (float; fractional bits never escape public APIs)
* data rate   -> bits per second
* frequency   -> hertz

The paper mixes milliseconds (RTL measurements), microseconds (6G air
interface targets), kilometres (grid cells, route detours), terabits per
second (6G capacity) and terabytes per day (vehicle data volumes).  Keeping
a single canonical unit internally and converting only at the API boundary
avoids an entire class of unit bugs; these helpers make the boundary
conversions explicit and greppable.
"""

from __future__ import annotations

# --------------------------------------------------------------------------
# Time
# --------------------------------------------------------------------------

#: One second, in seconds (identity; exists for symmetry in tables).
SECOND: float = 1.0
#: One millisecond, in seconds.
MS: float = 1e-3
#: One microsecond, in seconds.
US: float = 1e-6
#: One nanosecond, in seconds.
NS: float = 1e-9
#: One minute, in seconds.
MINUTE: float = 60.0
#: One hour, in seconds.
HOUR: float = 3600.0
#: One day, in seconds.
DAY: float = 86400.0


def ms(value: float) -> float:
    """Convert a value in milliseconds to seconds."""
    return value * MS


def us(value: float) -> float:
    """Convert a value in microseconds to seconds."""
    return value * US


def to_ms(seconds: float) -> float:
    """Convert a value in seconds to milliseconds."""
    return seconds / MS


def to_us(seconds: float) -> float:
    """Convert a value in seconds to microseconds."""
    return seconds / US


# --------------------------------------------------------------------------
# Distance
# --------------------------------------------------------------------------

#: One metre (identity).
METRE: float = 1.0
#: One kilometre, in metres.
KM: float = 1e3


def km(value: float) -> float:
    """Convert a value in kilometres to metres."""
    return value * KM


def to_km(metres: float) -> float:
    """Convert a value in metres to kilometres."""
    return metres / KM


# --------------------------------------------------------------------------
# Data sizes (bits) and rates (bits/second)
# --------------------------------------------------------------------------

#: One bit (identity).
BIT: float = 1.0
#: One byte, in bits.
BYTE: float = 8.0
#: Decimal kilo/mega/giga/tera-bit.
KBIT: float = 1e3
MBIT: float = 1e6
GBIT: float = 1e9
TBIT: float = 1e12
#: Decimal kilo/mega/giga/tera-byte, in bits.
KB: float = 8e3
MB: float = 8e6
GB: float = 8e9
TB: float = 8e12

#: Data-rate aliases (bits per second).  ``RATE_*`` names exist so call
#: sites read as rates rather than sizes.
RATE_KBPS: float = 1e3
RATE_MBPS: float = 1e6
RATE_GBPS: float = 1e9
RATE_TBPS: float = 1e12


def mbps(value: float) -> float:
    """Convert a value in megabits/second to bits/second."""
    return value * RATE_MBPS


def gbps(value: float) -> float:
    """Convert a value in gigabits/second to bits/second."""
    return value * RATE_GBPS


def tbps(value: float) -> float:
    """Convert a value in terabits/second to bits/second."""
    return value * RATE_TBPS


def bytes_(value: float) -> float:
    """Convert a value in bytes to bits."""
    return value * BYTE


def to_mbps(bits_per_second: float) -> float:
    """Convert bits/second to megabits/second."""
    return bits_per_second / RATE_MBPS


def to_tb(bits: float) -> float:
    """Convert bits to decimal terabytes."""
    return bits / TB


# --------------------------------------------------------------------------
# Propagation constants
# --------------------------------------------------------------------------

#: Speed of light in vacuum, m/s.
SPEED_OF_LIGHT: float = 299_792_458.0

#: Effective propagation speed in optical fibre, m/s.  The effective group
#: index of deployed silica fibre is ~1.47-1.5; we use 1.5 (2/3 c), which
#: reproduces the widely used rule of thumb of ~5 microseconds per
#: kilometre (1 km / 2.0e8 m/s = 5.0 us).
FIBRE_PROPAGATION_SPEED: float = SPEED_OF_LIGHT / 1.5

#: Radio propagation is line-of-sight at c.
RADIO_PROPAGATION_SPEED: float = SPEED_OF_LIGHT


def fibre_delay(distance_m: float) -> float:
    """One-way propagation delay (seconds) over ``distance_m`` of fibre."""
    return distance_m / FIBRE_PROPAGATION_SPEED


def radio_delay(distance_m: float) -> float:
    """One-way propagation delay (seconds) over an air interface."""
    return distance_m / RADIO_PROPAGATION_SPEED


def transmission_delay(size_bits: float, rate_bps: float) -> float:
    """Serialization delay (seconds) of ``size_bits`` at ``rate_bps``.

    Raises :class:`ValueError` for non-positive rates; a zero rate is a
    configuration error, not an infinitely slow link.
    """
    if rate_bps <= 0.0:
        raise ValueError(f"link rate must be positive, got {rate_bps!r}")
    if size_bits < 0.0:
        raise ValueError(f"size must be non-negative, got {size_bits!r}")
    return size_bits / rate_bps
