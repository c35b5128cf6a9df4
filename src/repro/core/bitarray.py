"""Packed bit arrays and small-counter arrays.

Two storage primitives back the summary data structures:

- :class:`BitArray` -- the bit vector a Bloom filter summary ships to its
  peers (Section V-C).
- :class:`CounterArray` -- the per-bit counters a proxy keeps locally so
  its own filter supports deletions.  The paper argues 4-bit counters
  suffice ("4 bits per count would be amply sufficient") and that a
  saturated counter should simply stick at its maximum; both behaviours
  are implemented here.

Both classes pack their payload densely (``CounterArray`` packs two 4-bit
counters per byte) because the memory analysis of Table III depends on
the real footprint of each representation.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.errors import (
    BitIndexError,
    ConfigurationError,
    SummaryStateError,
)

try:
    _bit_count = int.bit_count  # Python >= 3.10: one CPython opcode
except AttributeError:  # pragma: no cover - exercised on 3.9 only
    def _bit_count(value: int) -> int:
        return bin(value).count("1")


def _out_of_range(what: str, index: int, size: int) -> BitIndexError:
    return BitIndexError(f"{what} index {index} out of range [0, {size})")


def _check_indices(indices: Iterable[int], size: int, what: str) -> None:
    """Raise :class:`BitIndexError` for the first index outside ``[0, size)``."""
    for index in indices:
        if not 0 <= index < size:
            raise _out_of_range(what, index, size)


class BitArray:
    """A fixed-size array of bits packed into a :class:`bytearray`."""

    __slots__ = ("_size", "_buf", "_popcount")

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ConfigurationError(f"BitArray size must be >= 1, got {size}")
        self._size = size
        self._buf = bytearray((size + 7) // 8)
        self._popcount = 0

    @property
    def size(self) -> int:
        """Number of bits in the array."""
        return self._size

    @property
    def popcount(self) -> int:
        """Number of bits currently set to 1 (maintained incrementally)."""
        return self._popcount

    @property
    def fill_ratio(self) -> float:
        """Fraction of bits set to 1."""
        return self._popcount / self._size

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self._size:
            raise _out_of_range("bit", index, self._size)

    def get(self, index: int) -> bool:
        """Return the value of bit *index*."""
        self._check_index(index)
        return bool(self._buf[index >> 3] & (1 << (index & 7)))

    def set(self, index: int, value: bool = True) -> bool:
        """Set bit *index* to *value*; return ``True`` if the bit changed."""
        self._check_index(index)
        byte_index = index >> 3
        mask = 1 << (index & 7)
        old = bool(self._buf[byte_index] & mask)
        if old == bool(value):
            return False
        if value:
            self._buf[byte_index] |= mask
            self._popcount += 1
        else:
            self._buf[byte_index] &= ~mask & 0xFF
            self._popcount -= 1
        return True

    def clear(self, index: int) -> bool:
        """Clear bit *index*; return ``True`` if the bit changed."""
        return self.set(index, False)

    def set_many(self, indices: Iterable[int], value: bool = True) -> List[int]:
        """Set every bit in *indices* to *value*; return the changed ones.

        The batch form of :meth:`set`: popcount bookkeeping is settled
        once at the end instead of per bit, which is what a Bloom filter
        insert (k probes per key) spends most of its time on.
        """
        buf = self._buf
        size = self._size
        value = bool(value)
        changed: List[int] = []
        for index in indices:
            if not 0 <= index < size:
                for done in changed:  # undo, so a bad batch changes nothing
                    buf[done >> 3] ^= 1 << (done & 7)
                raise _out_of_range("bit", index, size)
            byte_index = index >> 3
            mask = 1 << (index & 7)
            if (buf[byte_index] & mask == 0) == value:
                buf[byte_index] ^= mask
                changed.append(index)
        self._popcount += len(changed) if value else -len(changed)
        return changed

    def contains_all(self, indices: Iterable[int]) -> bool:
        """Return ``True`` when every bit in *indices* is set: a Bloom
        probe over a precomputed position tuple, read straight from the
        buffer.  Same answer and same :class:`BitIndexError` as
        ``all(get(i) for i in indices)``, which also stops at the first
        clear bit.
        """
        buf = self._buf
        size = self._size
        for index in indices:
            if not 0 <= index < size:
                raise _out_of_range("bit", index, size)
            if not buf[index >> 3] & (1 << (index & 7)):
                return False
        return True

    def apply_records(self, records: Iterable[Tuple[int, bool]]) -> int:
        """Apply absolute ``(index, value)`` update records (Section
        VI-A) as :meth:`set` would in order; return how many bits
        changed.  Every index is validated before any bit changes.
        """
        records = list(records)
        _check_indices((index for index, _value in records), self._size, "bit")
        buf = self._buf
        rose = fell = 0
        for index, value in records:
            byte_index = index >> 3
            mask = 1 << (index & 7)
            if (buf[byte_index] & mask == 0) == bool(value):
                buf[byte_index] ^= mask
                if value:
                    rose += 1
                else:
                    fell += 1
        self._popcount += rose - fell
        return rose + fell

    def flipped_indices(self, other: "BitArray") -> List[Tuple[int, bool]]:
        """Positions where this array differs from *other*, as
        ``(index, value-in-self)`` records.

        One big-int XOR finds all differing bytes at C speed; only those
        are walked bit by bit.  This is the delta a summary owner ships
        when reconciling a peer copy against the live filter.
        """
        if self._size != other._size:
            raise ConfigurationError(
                f"cannot diff BitArrays of {self._size} and "
                f"{other._size} bits"
            )
        diff = int.from_bytes(self._buf, "little") ^ int.from_bytes(
            other._buf, "little"
        )
        mine = self._buf
        flips: List[Tuple[int, bool]] = []
        while diff:
            low = diff & -diff
            index = low.bit_length() - 1
            flips.append(
                (index, bool(mine[index >> 3] & (1 << (index & 7))))
            )
            diff ^= low
        return flips

    def reset(self) -> None:
        """Clear every bit."""
        self._buf = bytearray(len(self._buf))
        self._popcount = 0

    def iter_set_bits(self) -> Iterator[int]:
        """Yield the indices of all set bits in increasing order."""
        for byte_index, byte in enumerate(self._buf):
            if not byte:
                continue
            base = byte_index << 3
            while byte:
                low = byte & -byte
                yield base + low.bit_length() - 1
                byte ^= low

    def to_bytes(self) -> bytes:
        """Return the packed bit payload (little-endian bit order per byte)."""
        return bytes(self._buf)

    @classmethod
    def from_bytes(cls, size: int, payload: bytes) -> "BitArray":
        """Rebuild an array of *size* bits from :meth:`to_bytes` output."""
        array = cls(size)
        expected = (size + 7) // 8
        if len(payload) != expected:
            raise ConfigurationError(
                f"payload of {len(payload)} bytes does not match "
                f"{size} bits ({expected} bytes expected)"
            )
        array._buf = bytearray(payload)
        # Mask stray bits beyond `size` in the final byte so popcount and
        # equality are well defined.
        tail_bits = size & 7
        if tail_bits:
            array._buf[-1] &= (1 << tail_bits) - 1
        array._popcount = _bit_count(int.from_bytes(array._buf, "little"))
        return array

    def copy(self) -> "BitArray":
        """Return an independent copy of this array."""
        clone = BitArray(self._size)
        clone._buf = bytearray(self._buf)
        clone._popcount = self._popcount
        return clone

    def size_bytes(self) -> int:
        """Memory footprint of the packed payload, in bytes."""
        return len(self._buf)

    def __len__(self) -> int:
        return self._size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitArray):
            return NotImplemented
        return self._size == other._size and self._buf == other._buf

    def __repr__(self) -> str:
        return f"BitArray(size={self._size}, popcount={self._popcount})"


class CounterArray:
    """A fixed-size array of saturating counters packed *width* bits wide.

    The paper's counting Bloom filter keeps one counter per bit position.
    A counter that reaches its maximum value sticks there: "if the count
    ever exceeds 15, we can simply let it stay at 15".  Decrementing a
    saturated counter is therefore a no-op, trading an astronomically
    unlikely false negative for bounded memory.
    """

    __slots__ = ("_size", "_width", "_max", "_buf", "_saturated")

    #: Widths that pack evenly into bytes; arbitrary widths would
    #: complicate indexing for no experimental benefit.
    SUPPORTED_WIDTHS = (1, 2, 4, 8)

    def __init__(self, size: int, width: int = 4) -> None:
        if size < 1:
            raise ConfigurationError(f"CounterArray size must be >= 1, got {size}")
        if width not in self.SUPPORTED_WIDTHS:
            raise ConfigurationError(
                f"counter width must be one of {self.SUPPORTED_WIDTHS}, got {width}"
            )
        self._size = size
        self._width = width
        self._max = (1 << width) - 1
        per_byte = 8 // width
        self._buf = bytearray((size + per_byte - 1) // per_byte)
        self._saturated = 0

    @property
    def size(self) -> int:
        """Number of counters."""
        return self._size

    @property
    def width(self) -> int:
        """Width of each counter in bits."""
        return self._width

    @property
    def max_value(self) -> int:
        """Saturation value (``2**width - 1``)."""
        return self._max

    @property
    def saturation_events(self) -> int:
        """How many increments have hit the saturation ceiling.

        A nonzero value means the filter may eventually admit a false
        negative after enough deletions; the paper argues the probability
        is negligible for 4-bit counters, and this counter lets tests and
        benchmarks check that claim empirically.
        """
        return self._saturated

    def _locate(self, index: int) -> Tuple[int, int]:
        if not 0 <= index < self._size:
            raise _out_of_range("counter", index, self._size)
        per_byte = 8 // self._width
        byte_index = index // per_byte
        shift = (index % per_byte) * self._width
        return byte_index, shift

    def get(self, index: int) -> int:
        """Return the value of counter *index*."""
        byte_index, shift = self._locate(index)
        return (self._buf[byte_index] >> shift) & self._max

    def _put(self, index: int, value: int) -> None:
        byte_index, shift = self._locate(index)
        cleared = self._buf[byte_index] & ~(self._max << shift) & 0xFF
        self._buf[byte_index] = cleared | (value << shift)

    def increment(self, index: int) -> int:
        """Increment counter *index*, saturating at :attr:`max_value`.

        Returns the new counter value.
        """
        value = self.get(index)
        if value >= self._max:
            self._saturated += 1
            return value
        self._put(index, value + 1)
        return value + 1

    def decrement(self, index: int) -> int:
        """Decrement counter *index*.

        A saturated counter is left untouched (the paper's stick-at-max
        rule); a zero counter raises
        :class:`~repro.errors.SummaryStateError` because the
        caller tried to delete a key that was never inserted.

        Returns the new counter value.
        """
        value = self.get(index)
        if value == self._max:
            return value
        if value == 0:
            raise SummaryStateError(
                f"counter {index} underflow: decrement of a zero counter"
            )
        self._put(index, value - 1)
        return value - 1

    def increment_many(self, indices: Sequence[int]) -> List[int]:
        """:meth:`increment` every position of *indices* in order (with
        the same saturation rule and events), after range-checking them
        all.  Returns the positions whose counter rose from 0 to 1.
        """
        _check_indices(indices, self._size, "counter")
        buf = self._buf
        width = self._width
        top = self._max
        per_byte = 8 // width
        risen: List[int] = []
        for index in indices:
            byte_index = index // per_byte
            shift = (index % per_byte) * width
            byte = buf[byte_index]
            value = (byte >> shift) & top
            if value == top:
                self._saturated += 1
            else:
                # value < top: adding one cannot carry out of the field.
                buf[byte_index] = byte + (1 << shift)
                if not value:
                    risen.append(index)
        return risen

    def decrement_many(self, indices: Sequence[int]) -> List[int]:
        """:meth:`decrement` every position of *indices* in order (with
        the same stick-at-max rule); return the positions whose counter
        fell from 1 to 0.  Nothing changes unless every index is in
        range and every non-saturated counter holds at least as many
        counts as its position occurs in *indices*; otherwise
        :class:`~repro.errors.SummaryStateError` is raised.
        """
        _check_indices(indices, self._size, "counter")
        buf = self._buf
        width = self._width
        top = self._max
        per_byte = 8 // width
        # Validate every position, planning the writes, before any write.
        plan: List[Tuple[int, int, int]] = []
        for index in indices:
            byte_index = index // per_byte
            shift = (index % per_byte) * width
            value = (buf[byte_index] >> shift) & top
            if value != top:
                if value < indices.count(index):
                    raise SummaryStateError(
                        f"counter {index} underflow: {indices.count(index)} "
                        f"decrement(s) of a counter at {value}"
                    )
                plan.append((index, byte_index, shift))
        fallen: List[int] = []
        for index, byte_index, shift in plan:
            byte = buf[byte_index]
            buf[byte_index] = byte - (1 << shift)
            if (byte >> shift) & top == 1:
                fallen.append(index)
        return fallen

    def nonzero_indices(self) -> List[int]:
        """Return indices of all counters with nonzero value."""
        return [i for i in range(self._size) if self.get(i) != 0]

    def load_from(self, values: Iterable[int]) -> None:
        """Bulk-load counter values (used when rebuilding after restart)."""
        for i, value in enumerate(values):
            if not 0 <= value <= self._max:
                raise ConfigurationError(
                    f"counter value {value} out of range [0, {self._max}]"
                )
            self._put(i, value)

    def size_bytes(self) -> int:
        """Memory footprint of the packed counters, in bytes."""
        return len(self._buf)

    def to_bytes(self) -> bytes:
        """Return the packed counter payload."""
        return bytes(self._buf)

    def load_bytes(self, payload: bytes) -> None:
        """Replace all counters with a packed payload from :meth:`to_bytes`.

        Saturation-event history is not part of the payload and resets
        to zero.
        """
        if len(payload) != len(self._buf):
            raise ConfigurationError(
                f"counter payload is {len(payload)} bytes, "
                f"expected {len(self._buf)}"
            )
        self._buf = bytearray(payload)
        self._saturated = 0

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return (
            f"CounterArray(size={self._size}, width={self._width}, "
            f"saturation_events={self._saturated})"
        )
