"""Exhaustive enumerators over permutations, signed permutations and lattice
paths.  These are the ground truth that the closed forms, recurrences and
grammar outputs get certified against, so each one is a real enumeration:
a depth-first walk that extends a prefix one step at a time, prunes only
prefixes that can no longer be counted, and visits every counted element
exactly once.  No formula, recurrence or table shortcut stands in for the
walk.  The alternating count has a walk of its own that keeps no
histogram and fills its last two indices in nested loops, still with one
increment per counted window.  Each enumerator has a hard size guard;
asking beyond it raises with the bound named rather than silently
truncating.
"""

from __future__ import annotations

__all__ = [
    "MAX_PLAIN_N",
    "MAX_SIGNED_N",
    "count_alternating",
    "descent_b_distribution",
    "descent_distribution",
    "left_factor_h_histogram",
    "motzkin_up_histogram",
]

# Largest n the permutation walks accept: n! plain and 2^n n! signed windows.
MAX_PLAIN_N = 9
MAX_SIGNED_N = 7


def _guard(what: str, n: int, lo: int, hi: int) -> None:
    if not lo <= n <= hi:
        raise ValueError(f"{what} supports {lo} <= n <= {hi}, got {n}")


def _descent_walk(n: int, signed: bool) -> list[int]:
    """Descent histogram, read with pi(0) = 0, over the windows of [n].

    The windows are all n! permutations, or all 2^n n! signed permutations
    when ``signed``.  A prefix grows by one unused value (of either sign
    when signed) at a time and its descents are counted on the way.  The
    histogram has n + 1 slots.
    """
    hist = [0] * (n + 1)

    def extend(last: int, free: tuple, descents: int) -> None:
        # The last index has one value left; filling it here rather than by
        # another call halves the calls of a full walk.
        for i, candidates in enumerate(free):
            rest = free[:i] + free[i + 1:]
            for x in candidates:
                count = descents + (last > x)
                if len(rest) > 1:
                    extend(x, rest, count)
                elif not rest:
                    hist[count] += 1
                else:
                    for y in rest[0]:
                        hist[count + (x > y)] += 1

    extend(0, tuple((v, -v) if signed else (v,) for v in range(1, n + 1)), 0)
    return hist


def _alternating_walk(n: int, signed: bool) -> int:
    """Number of down-up windows (w1 > w2 < w3 > ...) of [n], signed or not.

    A prefix grows by one unused value at a time, and a step that breaks
    the pattern is cut before anything below it is visited.  A sentinel
    below every value stands in front of the window, so index 0 always
    steps the right way.  The last two indices are filled by nested loops
    in the caller, one ``+= 1`` per counted window, so the bottom two
    levels make no calls.
    """

    def extend(last: int, free: tuple, odd: bool) -> int:
        # Places each candidate of ``free`` (three or more values left) at
        # an index of parity ``odd``, where the step from ``last`` goes down
        # exactly when the index is odd.
        count = 0
        for i, candidates in enumerate(free):
            rest = None
            for x in candidates:
                if (last > x) != odd:
                    continue
                if rest is None:  # built once a value of this pair steps right
                    rest = free[:i] + free[i + 1:]
                if len(rest) > 2:
                    count += extend(x, rest, not odd)
                    continue
                a, b = rest
                for first, second in ((a, b), (b, a)):
                    for y in first:
                        if (x > y) != odd:
                            for z in second:
                                if (y > z) == odd:
                                    count += 1
        return count

    free = tuple((v, -v) if signed else (v,) for v in range(1, n + 1))
    if n > 2:
        return extend(-n - 1, free, False)
    # One or two indices: each value is a window, and so is each ordered
    # pair of distinct values that steps down.
    if n == 1:
        return sum(1 for x in free[0])
    a, b = free
    return sum(x > y for first, second in ((a, b), (b, a)) for x in first for y in second)


def descent_distribution(n: int) -> tuple[int, ...]:
    """Histogram of descent counts over all n! permutations of [n]."""
    _guard("descent_distribution", n, 1, MAX_PLAIN_N)
    return tuple(_descent_walk(n, False)[:n])


def descent_b_distribution(n: int) -> tuple[int, ...]:
    """Histogram of descents over signed permutations, window read with pi(0) = 0."""
    _guard("descent_b_distribution", n, 1, MAX_SIGNED_N)
    return tuple(_descent_walk(n, True))


def count_alternating(n: int, family: str) -> int:
    """Number of down-up elements: family 'A' (plain) or 'B' (signed)."""
    family = family.upper()
    if family == "A":
        _guard("count_alternating family A", n, 1, MAX_PLAIN_N)
        return _alternating_walk(n, False)
    if family == "B":
        _guard("count_alternating family B", n, 1, MAX_SIGNED_N)
        return _alternating_walk(n, True)
    raise ValueError(f"family must be 'A' or 'B', got {family!r}")


def motzkin_up_histogram(length: int) -> tuple[int, ...]:
    """Counts of Motzkin paths of a given length, split by number of up steps.

    Depth-first walk over {U, D, H}; prefixes that dip below the axis or can
    no longer return to it are pruned immediately.
    """
    _guard("motzkin_up_histogram", length, 0, 18)
    counts = [0] * (length // 2 + 1)

    def walk(remaining: int, height: int, ups: int) -> None:
        if height > remaining:
            return
        if remaining == 1:
            # Height 0 or 1 is left: the one step that returns is H or D.
            # Counting it here rather than by another call saves the calls
            # of the last level.
            counts[ups] += 1
            return
        walk(remaining - 1, height + 1, ups + 1)
        if height:
            walk(remaining - 1, height - 1, ups)
        walk(remaining - 1, height, ups)

    if length:
        walk(length, 0, 0)
    else:
        counts[0] += 1  # the empty path
    return tuple(counts)


def left_factor_h_histogram(length: int) -> tuple[int, ...]:
    """Counts of nonnegative {U, D, H} prefixes of a given length, by H steps."""
    _guard("left_factor_h_histogram", length, 0, 18)
    counts = [0] * (length + 1)

    def walk(remaining: int, height: int, flats: int) -> None:
        if remaining == 1:
            # The last step is counted here rather than by another call.
            counts[flats] += 1  # U
            if height:
                counts[flats] += 1  # D
            counts[flats + 1] += 1  # H
            return
        walk(remaining - 1, height + 1, flats)
        if height:
            walk(remaining - 1, height - 1, flats)
        walk(remaining - 1, height, flats + 1)

    if length:
        walk(length, 0, 0)
    else:
        counts[0] += 1  # the empty path
    return tuple(counts)
