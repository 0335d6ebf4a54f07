"""Radio channel model: path loss, shadowing, SINR, BLER.

A deliberately compact link-budget chain, sufficient to make *where the
UE stands* matter the way it does in the drive test:

* 3GPP TR 38.901 urban-macro (UMa) path loss,
* log-normal shadowing with a per-location deterministic draw (the same
  spot always sees the same shadowing — spatially consistent fading),
* SINR from a fixed noise floor plus an interference margin that grows
  with network load,
* a logistic SINR->BLER curve anchored at the link-adaptation operating
  point.

The output feeds HARQ statistics in :mod:`repro.ran.phy`: low SINR means
more retransmissions, which means latency tails in exactly the cells far
from a gNB — one of the two drivers (with load) of the Fig. 2/3 spatial
structure.
"""

from __future__ import annotations

import math
import threading
from typing import Sequence

import numpy as np

from ..geo.coords import GeoPoint
from ..sim.rng import pcg64_many, stable_seed
from ..sim.sync import guarded_by

__all__ = ["ChannelModel"]


class ChannelModel:
    """Link-budget model for one carrier frequency.

    The shadowing-tile memo is shared whenever one compiled scenario
    is sampled by several threads (a caller sharing one compiled-
    scenario cache across threads), so it is ``guarded_by`` a plain
    :class:`threading.RLock` — plain rather than a
    :class:`~repro.sim.sync.WatchedLock` because this sits on the
    sampling hot path (~2k lookups per evaluation) and the stdlib
    lock's C fast path matters here.  The draw itself is a pure
    function of ``(seed, sigma, tile)``, so locking is observationally
    invisible to the golden digests.

    A batch (:meth:`shadowing_db_many`, the serving-matrix path) takes
    the lock once, seeds the generators of every tile the memo lacks
    in one bulk call (:func:`~repro.sim.rng.pcg64_many`, about a third
    of ``PCG64(seed)``'s cost each), and then replays the per-call
    memo walk with the values looked up, so the memo's tiles, values,
    recency order and evictions are exactly the per-call loop's.
    """

    #: memoised tile -> shadowing value, LRU in dict order
    _shadow_cache: dict[tuple[int, int], float] = \
        guarded_by("_shadow_lock")
    #: the (seed, sigma) the memo was filled under
    _shadow_inputs: tuple[int, float] = guarded_by("_shadow_lock")

    #: Upper bound on memoised shadowing tiles.  ~10 m tiles over a
    #: city-scale grid stay far below this, but a long-lived process
    #: sweeping many large scenarios must not grow the memo without
    #: bound.  Eviction is least-recently-used and only ever forces a
    #: re-derivation — the draw is a pure function of
    #: ``(seed, sigma, tile)``, so values never change.
    SHADOW_CACHE_CAPACITY = 65536

    def __init__(self, carrier_frequency_hz: float, *,
                 tx_power_dbm: float = 44.0,
                 antenna_gain_db: float = 8.0,
                 noise_figure_db: float = 9.0,
                 bandwidth_hz: float = 100e6,
                 shadowing_sigma_db: float = 6.0,
                 seed: int = 0):
        if carrier_frequency_hz <= 0:
            raise ValueError("carrier frequency must be positive")
        if bandwidth_hz <= 0:
            raise ValueError("bandwidth must be positive")
        if shadowing_sigma_db < 0:
            raise ValueError("shadowing sigma must be non-negative")
        self.fc_hz = carrier_frequency_hz
        self.tx_power_dbm = tx_power_dbm
        self.antenna_gain_db = antenna_gain_db
        self.noise_figure_db = noise_figure_db
        self.bandwidth_hz = bandwidth_hz
        self.shadowing_sigma_db = shadowing_sigma_db
        self.seed = seed
        #: tile -> shadowing memo in recency order, bounded at
        #: ``SHADOW_CACHE_CAPACITY`` entries (LRU); the draw is a pure
        #: function of (seed, sigma, quantized tile), so caching it is
        #: observationally invisible.  ``_shadow_inputs`` guards the
        #: memo against post-hoc mutation of the public attributes.
        self._shadow_lock = threading.RLock()
        self._shadow_cache = {}
        self._shadow_inputs = (seed, shadowing_sigma_db)

    def __getstate__(self) -> dict[str, object]:
        # Locks do not pickle/deepcopy; the memo is derived state and
        # rebuilds lazily on the other side.
        state = dict(self.__dict__)
        state.pop("_shadow_lock", None)
        state["_shadow_cache"] = {}
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        self.__dict__["_shadow_lock"] = threading.RLock()
        self.__dict__.update(state)

    # -- link budget ----------------------------------------------------

    def pathloss_db(self, distance_m: float) -> float:
        """TR 38.901 UMa NLOS-style path loss.

        ``PL = 13.54 + 39.08 log10(d) + 20 log10(fc_GHz)`` with a 10 m
        close-in floor (the model is not defined below that).
        """
        if distance_m < 0:
            raise ValueError("distance must be non-negative")
        d = max(distance_m, 10.0)
        fc_ghz = self.fc_hz / 1e9
        return 13.54 + 39.08 * math.log10(d) + 20.0 * math.log10(fc_ghz)

    def pathloss_db_many(self, distances_m: np.ndarray) -> np.ndarray:
        """Batch path loss, element-wise bitwise-equal to ``pathloss_db``.

        ``log10`` runs through :func:`math.log10` per element (NumPy's
        SIMD ``log10`` may differ from libm in the last ulp); the
        surrounding arithmetic keeps the scalar's operation order.
        """
        d = np.asarray(distances_m, dtype=np.float64)
        if np.any(d < 0):
            raise ValueError("distance must be non-negative")
        d = np.maximum(d, 10.0)
        logs = np.fromiter(map(math.log10, d.ravel().tolist()),
                           dtype=np.float64, count=d.size).reshape(d.shape)
        fc_ghz = self.fc_hz / 1e9
        return (13.54 + 39.08 * logs) + 20.0 * math.log10(fc_ghz)

    def shadowing_db(self, location: GeoPoint) -> float:
        """Spatially consistent shadowing: a deterministic draw per spot.

        Quantising the location to ~10 m tiles gives nearby points the
        same shadowing value, approximating the de-correlation distance
        of urban log-normal shadowing.
        """
        tile = self._tile(location)
        with self._shadow_lock:
            value = self._memo().get(tile)
            if value is None:
                value = self._draw(np.random.PCG64(
                    stable_seed(self.seed, "shadow", *tile)))
            self._touch(tile, value)
        return value

    def shadowing_db_many(self, locations: Sequence[GeoPoint]) -> np.ndarray:
        """Shadowing for a batch of locations (populates the tile memo).

        Element ``i`` equals ``shadowing_db(locations[i])`` bitwise, and
        the memo ends as ``[self.shadowing_db(p) for p in locations]``
        leaves it: same tiles, same recency order, same evictions.  The
        tiles the memo lacks at the start are seeded in one bulk call
        (:func:`~repro.sim.rng.pcg64_many`) before the memo is touched;
        the per-location walk then only looks values up.
        """
        tiles = [self._tile(p) for p in locations]
        with self._shadow_lock:
            cache = self._memo()
            known = {tile: cache[tile] for tile in tiles if tile in cache}
            new = [tile for tile in dict.fromkeys(tiles) if tile not in known]
            bit_generators = pcg64_many(
                [stable_seed(self.seed, "shadow", *tile) for tile in new])
            for tile, bit_generator in zip(new, bit_generators):
                known[tile] = self._draw(bit_generator)
            for tile in tiles:
                self._touch(tile, known[tile])
        return np.array([known[tile] for tile in tiles], dtype=np.float64)

    @staticmethod
    def _tile(location: GeoPoint) -> tuple[int, int]:
        return (round(location.lat * 1e4), round(location.lon * 1e4))

    def _draw(self, bit_generator: np.random.PCG64) -> float:
        """A tile's shadowing value from its freshly seeded generator."""
        return float(np.random.Generator(bit_generator)
                     .normal(0.0, self.shadowing_sigma_db))

    def _memo(self  # lint: holds(_shadow_lock)
              ) -> dict[tuple[int, int], float]:
        """The tile memo, emptied if seed or sigma changed since it
        was filled."""
        inputs = (self.seed, self.shadowing_sigma_db)
        if inputs != self._shadow_inputs:
            self._shadow_cache.clear()
            self._shadow_inputs = inputs
        return self._shadow_cache

    def _touch(self, tile: tuple[int, int],  # lint: holds(_shadow_lock)
               value: float) -> None:
        """(Re-)insert ``tile`` at the back of the memo: dict order is
        recency order, so evicting from the front drops the least
        recently used tile."""
        cache = self._shadow_cache
        if cache.pop(tile, None) is None:
            while len(cache) >= self.SHADOW_CACHE_CAPACITY:
                del cache[next(iter(cache))]
        cache[tile] = value

    @property
    def noise_dbm(self) -> float:
        """Thermal noise over the carrier bandwidth plus noise figure."""
        return (-174.0 + 10.0 * math.log10(self.bandwidth_hz)
                + self.noise_figure_db)

    def sinr_db(self, distance_m: float, location: GeoPoint,
                load: float = 0.0) -> float:
        """SINR at ``distance_m`` from the serving gNB.

        ``load`` in [0, 1] adds an interference margin up to 6 dB: a
        fully loaded neighbour layer costs roughly one MCS step, the
        standard rule of thumb for inter-cell interference.
        """
        if not 0.0 <= load <= 1.0:
            raise ValueError("load must be in [0, 1]")
        rx_dbm = (self.tx_power_dbm + self.antenna_gain_db
                  - self.pathloss_db(distance_m)
                  - self.shadowing_db(location))
        interference_margin = 6.0 * load
        return rx_dbm - self.noise_dbm - interference_margin

    def sinr_db_grid(self, distances_m: np.ndarray,
                     locations: Sequence[GeoPoint],
                     loads: Sequence[float]) -> np.ndarray:
        """SINR matrix over sites x positions, bitwise-equal to scalars.

        ``distances_m`` is the ``(sites, positions)`` great-circle
        matrix, ``locations`` the positions (for shadowing), ``loads``
        the per-site scheduler loads.  Element ``[i, j]`` equals
        ``sinr_db(distances_m[i, j], locations[j], loads[i])`` bitwise —
        the guarantee that lets serving-cell selection become an argmax
        over this matrix.
        """
        loads_arr = np.asarray(loads, dtype=np.float64)
        if loads_arr.size and (loads_arr.min() < 0.0
                               or loads_arr.max() > 1.0):
            raise ValueError("load must be in [0, 1]")
        pl = self.pathloss_db_many(distances_m)
        shadow = self.shadowing_db_many(locations)
        rx = ((self.tx_power_dbm + self.antenna_gain_db) - pl) - shadow
        margins = 6.0 * loads_arr
        return (rx - self.noise_dbm) - margins[:, None]

    # -- error performance -----------------------------------------------

    @staticmethod
    def bler(sinr_db: float, *, operating_sinr_db: float = 8.0,
             target_bler: float = 0.1, slope: float = 0.7) -> float:
        """Initial-transmission block error rate at ``sinr_db``.

        Logistic curve anchored so that BLER equals ``target_bler`` at
        the link-adaptation operating point: above it, errors vanish
        quickly; below it, they saturate towards 1 — the familiar
        waterfall shape of coded block error curves.
        """
        if not 0.0 < target_bler < 1.0:
            raise ValueError("target BLER must be in (0, 1)")
        if slope <= 0:
            raise ValueError("slope must be positive")
        # logit(target) fixes the curve's anchor at the operating point.
        logit_target = math.log(target_bler / (1.0 - target_bler))
        x = logit_target - slope * (sinr_db - operating_sinr_db)
        return 1.0 / (1.0 + math.exp(-x))

    def spectral_efficiency(self, sinr_db: float,
                            max_bps_hz: float = 7.4) -> float:
        """Shannon-bounded spectral efficiency, capped at 256-QAM rates."""
        sinr = 10.0 ** (sinr_db / 10.0)
        return min(math.log2(1.0 + sinr), max_bps_hz)

    def achievable_rate_bps(self, sinr_db: float,
                            bandwidth_share: float = 1.0) -> float:
        """Achievable PHY rate given a share of the carrier bandwidth."""
        if not 0.0 < bandwidth_share <= 1.0:
            raise ValueError("bandwidth share must be in (0, 1]")
        return (self.spectral_efficiency(sinr_db)
                * self.bandwidth_hz * bandwidth_share)
