"""Compiled path-latency sampler: the deterministic part, precomputed.

:meth:`Topology.path_latency` re-walks a path link by link on every
call, rebuilding :class:`~repro.net.latency.LatencyBreakdown` objects
for components that never change — propagation, serialization and
forwarding are pure functions of ``(path, size_bits)``.  A
:class:`CompiledPath` folds those once at compile time and keeps only
the *stochastic* per-link queueing draws in the sampling loop, in the
exact order (forward links, then reverse links) the scalar walk makes
them, so the named-stream RNG consumption — and therefore every
downstream bit — is unchanged.

Bit-identity notes (load-bearing, do not "simplify"):

* the deterministic components are folded left-to-right in link order,
  matching the ``LatencyBreakdown`` accumulation of the scalar walk —
  float addition is not associative;
* links with zero utilisation or zero service time draw nothing in
  :func:`~repro.net.queueing.sample_mm1_wait`, so they are excluded
  from the stochastic list rather than drawn-and-discarded;
* each stochastic link consumes exactly one uniform and one
  exponential (scalar draws are stream-equivalent to the ``size=1``
  array draws the scalar path makes);
* a compiled path snapshots link utilisations — recompile after
  mutating the topology.
"""

from __future__ import annotations

import numpy as np

from .link import REFERENCE_PACKET_BITS

__all__ = ["CompiledPath"]


class CompiledPath:
    """One direction-pair of a path, compiled for repeated RTT sampling.

    ``sample_round_trip(rng)`` returns a float bitwise-equal to
    ``topology.round_trip(path, size_bits, rng).total`` while consuming
    the generator identically.
    """

    __slots__ = ("path", "size_bits", "_det_prop", "_det_trans",
                 "_det_proc", "_fwd_det", "_back_det",
                 "_stoch_fwd", "_stoch_back")

    def __init__(self, topology, path, size_bits=REFERENCE_PACKET_BITS):
        if len(path) < 2:
            raise ValueError("path must contain at least two nodes")
        self.path = tuple(path)
        self.size_bits = float(size_bits)
        fwd = self._compile(topology, list(self.path))
        back = self._compile(topology, list(self.path)[::-1])
        self._det_prop = fwd[0] + back[0]
        self._det_trans = fwd[1] + back[1]
        self._det_proc = fwd[2] + back[2]
        #: per-direction (prop, trans, proc) for echo-style totals,
        #: which sum each direction's breakdown before combining.
        self._fwd_det = (fwd[0], fwd[1], fwd[2])
        self._back_det = (back[0], back[1], back[2])
        #: (rho, exponential scale) per stochastic link in walk order.
        #: Kept per direction: the scalar walk folds each direction's
        #: queueing from zero and then adds the two partial sums, and
        #: float addition is not associative.
        self._stoch_fwd: tuple[tuple[float, float], ...] = fwd[3]
        self._stoch_back: tuple[tuple[float, float], ...] = back[3]

    def _compile(self, topology, path):
        prop = 0.0
        trans = 0.0
        stochastic: list[tuple[float, float]] = []
        for a, b in zip(path, path[1:]):
            link = topology.link(a, b)
            prop = prop + link.propagation_delay()
            service = link.transmission_delay(self.size_bits)
            trans = trans + service
            rho = link.utilisation
            if rho > 0.0 and service > 0.0:
                # Mirrors sample_mm1_wait's arithmetic exactly.
                mu = 1.0 / service
                lam = rho * mu
                stochastic.append((rho, 1.0 / (mu - lam)))
        proc = sum(topology.node(n).forwarding_delay_s for n in path[1:-1])
        return prop, trans, proc, tuple(stochastic)

    @property
    def deterministic_total(self) -> float:
        """Round-trip total with all queueing draws at zero."""
        return ((self._det_prop + self._det_trans) + 0.0) + self._det_proc

    @property
    def stochastic_link_count(self) -> int:
        """Queue draws (uniform+exponential pairs) per round trip."""
        return len(self._stoch_fwd) + len(self._stoch_back)

    @property
    def queue_links(self) -> tuple[tuple[tuple[float, float], ...], ...]:
        """``(rho, exponential scale)`` per stochastic link: the forward
        links, then the reverse links, each in walk (= draw) order."""
        return self._stoch_fwd, self._stoch_back

    def round_trip_of(self, qf, qb):
        """The round-trip total given each direction's queueing sum.

        Floats or float64 arrays: an array folds element-wise in the
        same op order, so it equals :meth:`sample_round_trip` bit for
        bit given the same per-direction sums.
        """
        return ((self._det_prop + self._det_trans) + (qf + qb)) \
            + self._det_proc

    @staticmethod
    def _sample_direction(stochastic, random, exponential) -> float:
        queueing = 0.0
        for rho, scale in stochastic:
            busy = random() < rho
            wait = exponential(scale)
            if busy:
                queueing = queueing + float(wait)
        return queueing

    def sample_round_trip(self, rng: np.random.Generator) -> float:
        """One sampled RTT total over the compiled path."""
        random = rng.random
        exponential = rng.exponential
        qf = self._sample_direction(self._stoch_fwd, random, exponential)
        qb = self._sample_direction(self._stoch_back, random, exponential)
        return self.round_trip_of(qf, qb)

    def sample_echo(self, rng: np.random.Generator) -> float:
        """One echo RTT: each direction's total summed *before* adding.

        Matches ``path_latency(path).total + path_latency(path[::-1])
        .total`` — the composition :func:`repro.probes.ping.ping` uses,
        which associates differently from :meth:`sample_round_trip`.
        """
        random = rng.random
        exponential = rng.exponential
        pf, tf, prf = self._fwd_det
        qf = self._sample_direction(self._stoch_fwd, random, exponential)
        pb, tb, prb = self._back_det
        qb = self._sample_direction(self._stoch_back, random, exponential)
        return (((pf + tf) + qf) + prf) + (((pb + tb) + qb) + prb)
