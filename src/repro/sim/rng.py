"""Deterministic random-number streams.

Every stochastic model component (radio channel, scheduler jitter, router
queueing, mobility, ...) draws from its *own named stream*, derived from a
single root seed via :class:`numpy.random.SeedSequence` spawning.  This
gives two properties the evaluation depends on:

* **Bit-reproducibility** — the same root seed reproduces the entire
  measurement campaign exactly (required to assert on Fig. 2/3 values in
  tests).
* **Insensitivity to call ordering across components** — adding an extra
  draw in the mobility model does not shift the channel model's stream,
  so calibrated per-cell anchors stay put while unrelated code evolves.

**Bulk seeding.**  ``PCG64(seed)`` spends most of its ~11 µs in
:class:`~numpy.random.SeedSequence`: a Python-level entropy coercion
and two small hash loops per generator.  Those loops do the same
uint32 arithmetic for every seed, so :func:`pcg64_many` runs them once
over a whole array of seeds (O'Neill's mixing as numpy implements it:
``hashmix``/``mix`` over a four-word pool, then ``generate_state(4,
uint64)``) and hands each ``PCG64`` its four state words through
:class:`_SeedWords`, a fixed ``ISeedSequence``.  A seed below
2**32 mixes exactly like one with a zero high word (the pool pads with
zero words either way), so every ``stable_seed`` value takes the same
path.  :meth:`RngRegistry.streams` and the shadowing memo of
:class:`~repro.ran.channel.ChannelModel` seed through it.

The first bulk call in a process (never the import) compares a fixed
handful of seeds against ``PCG64(seed).state``; should numpy's seeding
ever change, every later bulk call builds one ``PCG64(seed)`` per seed
instead, so streams stay numpy's own either way.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from numpy.typing import DTypeLike

__all__ = ["RngRegistry", "pcg64_many", "stable_seed"]


def stable_seed(*parts: object) -> int:
    """Derive a 64-bit seed from arbitrary labelled parts, stably.

    Python's ``hash`` is salted per-process for strings, so it cannot be
    used for reproducible seeding; this uses blake2b instead.
    """
    digest = hashlib.blake2b(
        "\x1f".join(map(str, parts)).encode("utf-8"),
        digest_size=8,
    ).digest()
    return int.from_bytes(digest, "big")


# numpy's SeedSequence constants (``numpy/random/bit_generator.pyx``).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL = 4


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The ``count + 1`` values a hash constant takes, as a column."""
    values = [init]
    for _ in range(count):
        values.append(values[-1] * mult & 0xFFFFFFFF)
    return np.array(values, dtype=np.uint32)[:, None]


#: ``hashmix`` call ``k`` xors with ``_HASH_A[k]`` and multiplies by
#: ``_HASH_A[k + 1]``: four calls fill the pool, twelve mix it.
_HASH_A = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL)
#: likewise for ``generate_state``'s eight output words
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)


def _hashmix(values: np.ndarray, consts: np.ndarray, k: int) -> np.ndarray:
    """Rows of ``values`` hashed by consecutive calls from call ``k``."""
    rows = len(values)
    mixed = (values ^ consts[k:k + rows]) * consts[k + 1:k + rows + 1]
    return mixed ^ (mixed >> _XSHIFT)


def _state_words(seeds: Sequence[int]) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for every
    seed in ``[0, 2**64)``, as one ``(len(seeds), 4)`` uint64 array.

    One row per pool word, one column per seed: uint32 arrays wrap like
    the C code, and the hash constants are the same for every seed.  A
    source word's hashes for its three destinations come from three
    consecutive calls, so each mixing round is one array step.
    """
    seed = np.array(seeds, dtype=np.uint64)
    pool = np.zeros((_POOL, len(seed)), dtype=np.uint32)
    pool[0] = seed & np.uint64(0xFFFFFFFF)
    pool[1] = seed >> np.uint64(32)
    pool = _hashmix(pool, _HASH_A, 0)
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        hashed = _hashmix(np.broadcast_to(pool[src], pool[dst].shape),
                          _HASH_A, _POOL + (_POOL - 1) * src)
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
        pool[dst] = mixed ^ (mixed >> _XSHIFT)
    words = _hashmix(pool[np.arange(2 * _POOL) % _POOL], _HASH_B,
                     0).astype(np.uint64)
    # generate_state's uint64 words: little-endian pairs of uint32s.
    state = words[0::2] | (words[1::2] << np.uint64(32))
    return np.ascontiguousarray(state.T)


class _SeedWords:
    """A seed sequence that hands a bit generator precomputed state
    words: ``PCG64(_SeedWords(row))`` is ``PCG64(seed)`` when ``row``
    is that seed's ``generate_state(4, np.uint64)``.  Module-level so
    a generator seeded through it pickles.  The self-check registers
    it as a numpy ``ISeedSequence``, which bit generators require: a
    subclass would import ``numpy.random`` with this module, and that
    alone raised a pooled fleet's peak RSS by about 1 MB."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int,
                       dtype: DTypeLike = np.uint32) -> np.ndarray:
        if np.dtype(dtype) != np.dtype(np.uint64) \
                or n_words != len(self.words):
            raise ValueError("only the precomputed uint64 state words "
                             "are available")
        return self.words


#: Seeds of the bulk-seeding self-check: both halves of the word
#: boundary and both ends of the range.
_CHECK_SEEDS = (0, 1, 2, 2**32 - 1, 2**32, 2**63 + 12345, 2**64 - 1)

#: None until the first bulk call; then whether bulk-seeded generators
#: equal ``PCG64(seed)``.  When they do not, bulk calls seed one by one.
_BULK_OK: Optional[bool] = None


def _bulk_matches_numpy() -> bool:
    try:
        from numpy.random.bit_generator import ISeedSequence

        ISeedSequence.register(_SeedWords)
        made = [np.random.PCG64(_SeedWords(words))  # type: ignore[arg-type]
                for words in _state_words(_CHECK_SEEDS)]
        return all(gen.state == np.random.PCG64(seed).state
                   for gen, seed in zip(made, _CHECK_SEEDS))
    except Exception:   # a changed bit-generator API is a mismatch too
        return False


def _bulk_ok() -> bool:
    global _BULK_OK
    if _BULK_OK is None:
        _BULK_OK = _bulk_matches_numpy()
    return _BULK_OK


def pcg64_many(seeds: Sequence[int]) -> list[np.random.PCG64]:
    """``[np.random.PCG64(seed) for seed in seeds]``, state for state,
    with the seeding of all of them done at once (see the module
    docstring).  Every seed must lie in ``[0, 2**64)``."""
    if not seeds:
        return []
    if not _bulk_ok():
        return [np.random.PCG64(seed) for seed in seeds]
    return [np.random.PCG64(_SeedWords(words))  # type: ignore[arg-type]
            for words in _state_words(seeds)]


class RngRegistry:
    """Factory of named, independent :class:`numpy.random.Generator` streams.

    >>> rng = RngRegistry(seed=42)
    >>> chan = rng.stream("ran.channel", "cell", "C1")
    >>> chan.normal()  # doctest: +SKIP

    The same ``(root seed, name parts)`` pair always yields a generator
    producing the same sequence, independent of creation order.
    """

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = seed
        self._streams: Dict[tuple[str, ...], np.random.Generator] = {}

    def stream(self, *name_parts: object) -> np.random.Generator:
        """Return the (cached) generator for the given hierarchical name."""
        if not name_parts:
            raise ValueError("stream name must be non-empty")
        key = tuple(str(p) for p in name_parts)
        gen = self._streams.get(key)
        if gen is None:
            child_seed = stable_seed(self.seed, *key)
            gen = np.random.Generator(np.random.PCG64(child_seed))
            self._streams[key] = gen
        return gen

    def streams(self, names: Sequence[Sequence[object]]
                ) -> list[np.random.Generator]:
        """``[self.stream(*name) for name in names]``, with every stream
        not cached yet seeded in one bulk call (:func:`pcg64_many`)."""
        keys = [tuple(str(p) for p in name) for name in names]
        if not all(keys):
            raise ValueError("stream name must be non-empty")
        cache = self._streams
        new = list(dict.fromkeys(key for key in keys if key not in cache))
        bit_generators = pcg64_many([stable_seed(self.seed, *key)
                                     for key in new])
        for key, bit_generator in zip(new, bit_generators):
            cache[key] = np.random.Generator(bit_generator)
        return [cache[key] for key in keys]

    def fresh(self, *name_parts: object) -> np.random.Generator:
        """Like :meth:`stream` but always returns a *rewound* generator.

        Useful in tests to compare two identical sequences.
        """
        key = tuple(str(p) for p in name_parts)
        child_seed = stable_seed(self.seed, *key)
        return np.random.Generator(np.random.PCG64(child_seed))

    def spawn(self, *name_parts: object) -> "RngRegistry":
        """Derive a child registry with an independent seed namespace."""
        return RngRegistry(stable_seed(self.seed, "spawn", *name_parts))

    def __iter__(self) -> Iterator[tuple[str, ...]]:
        return iter(sorted(self._streams))

    def __len__(self) -> int:
        return len(self._streams)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngRegistry(seed={self.seed}, streams={len(self)})"
