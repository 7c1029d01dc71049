"""The vectorised `.17e` kernel against Python's `format`, the oracle.

`csvfmt.format_rows` must give exactly the bytes of format(v, ".17e") for
every float64: random bit patterns, powers of ten and their neighbours,
signed zeros and non-finite values, exact decimal ties, values that round
up into the next decade, the widest (25-character) outputs, and tables
that cross the kernel's chunk boundaries.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from toruskam import csvfmt
from toruskam.csvfmt import CHUNK, format_rows


def reference(table) -> str:
    """One `format` per value: the oracle."""
    return "".join(",".join(format(v, ".17e") for v in row) + "\n"
                   for row in np.asarray(table, dtype=float).tolist())


def mismatches(values) -> list:
    """(value, kernel text, format text) for each value the kernel writes
    differently from format(v, ".17e")."""
    v = np.asarray(values, dtype=float).ravel()
    got = format_rows(v[:, None]).split("\n")
    assert got.pop() == "" and len(got) == v.size
    return [(x, g, format(x, ".17e"))
            for x, g in zip(v.tolist(), got) if g != format(x, ".17e")]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=40))
def test_hypothesis_floats(values):
    assert mismatches(values) == []


def test_random_bit_patterns():
    # 10^6 uniformly random 64-bit patterns: every exponent, nan and inf
    # included; checked in slices to keep the oracle's strings small
    bits = np.random.default_rng(2024).integers(0, 2 ** 64, size=10 ** 6,
                                                dtype=np.uint64)
    values = bits.view(np.float64)
    for start in range(0, values.size, 10 ** 5):
        assert mismatches(values[start:start + 10 ** 5]) == []


def test_powers_of_ten_and_neighbours():
    p10 = np.array([float(f"1e{k}") for k in range(-320, 309)])
    p10 = p10[p10 > 0]
    near = np.concatenate([p10, np.nextafter(p10, 0),
                           np.nextafter(p10, np.inf)])
    assert mismatches(np.concatenate([near, -near])) == []


def test_zeros_and_non_finite():
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]
    assert mismatches(specials) == []
    assert format_rows([specials]) == reference([specials])


def exact_ties() -> list:
    """Doubles M 2^-m whose exact decimal has 19 significant digits, the
    last a 5: each lies exactly half-way between two 18-digit values."""
    ties = []
    for m in range(5, 28):
        lo = -(-10 ** 18 // 5 ** m) | 1          # the first odd M >= bound
        hi = 10 ** 19 // 5 ** m
        for M in np.linspace(lo, hi - 1, 22).astype(np.int64).tolist():
            M |= 1
            digits = str(M * 5 ** m)
            if M < 2 ** 53 and len(digits) == 19:
                assert digits.endswith("5")
                ties.append(M / 2 ** m)
    return ties


def test_exact_ties_round_half_even():
    ties = exact_ties()
    assert len(ties) > 400
    values = np.array(ties)
    assert mismatches(np.concatenate([values, -values])) == []


def test_round_up_into_next_decade():
    # the double nearest 10^153 lies below it, within half an 18th digit:
    # it prints as 1.00000000000000000e+153, one decade up
    v = 1e153
    a, b = v.as_integer_ratio()
    assert a < b * 10 ** 153
    assert format(v, ".17e") == "1.00000000000000000e+153"
    nines = [math.nextafter(float(f"1e{k}"), 0) for k in range(-300, 300)]
    assert mismatches([v, -v] + nines) == []


def test_widest_outputs():
    # a sign and a three-digit exponent: 25 characters, on the kernel's
    # own range and past it
    values = -np.logspace(-320, 307, 2000)
    values = np.concatenate([values, [-1e-300, -1.7976931348623157e308]])
    assert mismatches(values) == []
    wide = [format(x, ".17e") for x in values.tolist()
            if abs(x) >= 1e100 or 0 < abs(x) < 1e-99]
    assert wide and {len(s) for s in wide} == {25}


def test_tables_across_chunk_boundaries():
    rng = np.random.default_rng(7)
    for cols in (1, 3, 6, 7):
        step = CHUNK // cols
        for rows in (step - 1, step, step + 1, 2 * step + 3):
            table = rng.standard_normal((rows, cols)) \
                * 10.0 ** rng.integers(-300, 300, size=(rows, cols))
            # values that take `format` placed on each side of a boundary
            for r in {min(step, rows) - 1, min(step, rows - 1)}:
                table[r, 0] = math.inf if r % 2 else 0.0
                table[r, -1] = -1e-300
            assert format_rows(table) == reference(table)
    assert format_rows(np.empty((0, 4))) == format_rows([]) == ""


def test_format_takes_few_values(monkeypatch):
    # the double-double path writes all but a handful of ordinary values;
    # `format` is for the cases it cannot decide
    calls = []

    def counting(value, spec):
        calls.append(value)
        return format(value, spec)
    monkeypatch.setattr(csvfmt, "format", counting, raising=False)
    values = np.random.default_rng(3).uniform(-1e3, 1e3, 10 ** 5)
    assert mismatches(values) == []
    assert len(calls) <= 2
