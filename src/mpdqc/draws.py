"""A run's randomness as one block of raw PCG64 words, decoded bit for bit.

A Schedule lists a fixed sequence of generator calls: (bound, count) for
rng.integers(bound, size=count) and a bare count for rng.random(count).
`draw` returns every integer of the schedule in call order, every
uniform in call order, and the generator's state before the first call.
The values and the generator's final state are those of the calls
themselves, which `draw_by_calls` makes.

For a PCG64 generator `draw` takes the whole schedule as one
rng.bit_generator.random_raw(K) call and decodes the words as numpy does
(O'Neill 2014; Lemire 2019):

- a bounded integer takes one 32-bit half. A word's low half comes
  first; its high half waits in the bit generator's `has_uint32` and
  `uinteger` for the next one;
- integers(b) is (x b) >> 32 on that half x, and Lemire's method draws
  again when (x b) mod 2^32 < 2^32 mod b, which only a bound that is not
  a power of two can do;
- random() is (w >> 11) 2^-53 on one whole word w, and leaves the waiting
  half alone.

Then it restores that buffer, so the state equals the calls' state. That
includes `uinteger` when `has_uint32` is 0: numpy keeps the high half of
the last word it split. Any other bit generator, and a draw that Lemire's
method rejects (probability (2^32 mod b) / 2^32 per draw, 1.4e-9 at
b = 10), goes back to the saved state and through `draw_by_calls`.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

Call = tuple[int, int] | int
LOW32 = 0xFFFFFFFF


class Draws(NamedTuple):
    """A drawn schedule: integers and uniforms in call order, and the state the draw started from."""

    ints: np.ndarray
    uniforms: np.ndarray
    start: dict


class _Layout(NamedTuple):
    """Where each value of a schedule sits in its block, for one buffer state at the start.

    halves[i] is integer draw i's 32-bit half: 2 w for word w's low half,
    2 w + 1 for its high half, -1 for the half waiting before the block.
    """

    words: int
    halves: np.ndarray
    bounds: np.ndarray
    thresholds: np.ndarray  # 2^32 mod bound: 0 for a power of two, which never rejects
    uniform_words: np.ndarray
    has_uint32: int
    last_high: int  # the half left in `uinteger` afterwards, indexed as in halves


class Schedule:
    """A fixed sequence of generator calls, with its block layouts built on first use."""

    def __init__(self, calls: Sequence[Call]):
        for call in calls:
            if isinstance(call, tuple) and not 2 <= call[0] <= 2 ** 32:
                raise ValueError(f"bound {call[0]} is not in 2..2^32")
        self.calls = tuple(calls)
        self._layouts: dict[int, _Layout] = {}

    def layout(self, has_uint32: int) -> _Layout:
        if has_uint32 not in self._layouts:
            self._layouts[has_uint32] = _lay_out(self.calls, has_uint32)
        return self._layouts[has_uint32]


def _lay_out(calls: tuple[Call, ...], has_uint32: int) -> _Layout:
    halves: list[int] = []
    bounds: list[int] = []
    uniform_words: list[int] = []
    words = 0
    waiting = -1 if has_uint32 else None
    last_high = -1
    for call in calls:
        if isinstance(call, int):
            uniform_words.extend(range(words, words + call))
            words += call
            continue
        bound, count = call
        bounds.extend([bound] * count)
        for _ in range(count):
            if waiting is None:
                halves.append(2 * words)
                waiting = last_high = 2 * words + 1
                words += 1
            else:
                halves.append(waiting)
                waiting = None
    bound_array = np.array(bounds, dtype=np.uint64)
    return _Layout(
        words,
        np.array(halves, dtype=np.intp),
        bound_array,
        2 ** 32 % bound_array,
        np.array(uniform_words, dtype=np.intp),
        int(waiting is not None),
        last_high,
    )


def draw(rng: np.random.Generator, schedule: Schedule) -> Draws:
    """Every value of the schedule, as its calls would draw them, leaving rng where they leave it."""
    bitgen = rng.bit_generator
    start = bitgen.state
    if type(bitgen) is np.random.PCG64:
        decoded = _decode(bitgen, start, schedule.layout(start["has_uint32"]))
        if decoded is not None:
            return Draws(*decoded, start)
        bitgen.state = start
    return Draws(*draw_by_calls(rng, schedule.calls), start)


def _decode(bitgen: np.random.PCG64, start: dict, layout: _Layout) -> tuple[np.ndarray, np.ndarray] | None:
    """The block's values, or None if Lemire's method rejects a draw."""
    raw = bitgen.random_raw(layout.words)
    split = np.empty(2 * layout.words + 1, dtype=np.uint64)
    split[0:-1:2] = raw & LOW32
    split[1:-1:2] = raw >> 32
    split[-1] = start["uinteger"]
    scaled = split[layout.halves] * layout.bounds
    if np.any((scaled & LOW32) < layout.thresholds):
        return None
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = layout.has_uint32, int(split[layout.last_high])
    bitgen.state = state
    return (scaled >> 32).astype(np.int64), (raw[layout.uniform_words] >> 11) * 2.0 ** -53


def draw_by_calls(rng: np.random.Generator, calls: Sequence[Call]) -> tuple[np.ndarray, np.ndarray]:
    """The calls made one by one: their integers in order, their uniforms in order."""
    ints, uniforms = [np.zeros(0, np.int64)], [np.zeros(0)]
    for call in calls:
        if isinstance(call, int):
            uniforms.append(rng.random(call))
        else:
            ints.append(rng.integers(call[0], size=call[1]))
    return np.concatenate(ints), np.concatenate(uniforms)


def rewind(rng: np.random.Generator, drawn: Draws, schedule: Schedule, stop: int) -> None:
    """Leave rng where the schedule's first `stop` calls leave it, from the state the draw started at."""
    rng.bit_generator.state = drawn.start
    draw_by_calls(rng, schedule.calls[:stop])
