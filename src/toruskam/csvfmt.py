"""Exact `format(v, ".17e")` text for float64 tables, vectorised.

Every CSV sidecar writes its floats as `{:.17e}`: 18 significant digits,
correctly rounded, round-half-even.  `format_rows` produces exactly those
bytes without one Python conversion per value.  For |v| in [1e-280, 1e280]
it estimates p = floor(log10 |v|) and forms V = |v| 10^(17 - p) as a
double-double: 10^(17 - p) is a (hi, lo) pair taken from exact integer
arithmetic, and the product with hi is exact by Dekker's split (Dekker,
Numer. Math. 18, 1971).  V is within about 1e-13 of its exact value, so its
integer part, rounded on the remainder, is the 18-digit significand D.
The digits, sign and exponent go into a byte matrix, one row per value,
and one mask selects each row's bytes.  Zeros are written directly.
Python's `format` writes the rest, one value at a time: non-finite values,
nonzero |v| outside [1e-280, 1e280], remainders within 1e-6 of a tie, and
floor(V) outside [10^17 + 2, 10^18 - 1), where the double-double error
could decide the rounding or the exponent.  That range also catches every
misjudged p: log10 can round across an integer only within about 1e-13
(relative) of a power of ten, and there floor(V) leaves [10^17, 10^18).
"""

from __future__ import annotations

from functools import cache

import numpy as np

# values formatted per pass: bounds the int64 and byte temporaries
CHUNK = 4096

# |v| written by the kernel; past these the split below could overflow
FAST_MIN, FAST_MAX = 1e-280, 1e280

# scale exponents k = 17 - p of the power table, a margin past FAST_*
K_MIN, K_MAX = -270, 300

# Dekker's splitter 2^27 + 1: a double's high 26 bits and the rest
SPLIT = 134217729.0

# bytes of a row: sign, d.ddddddddddddddddd, 'e', exponent sign, three
# exponent digits, separator
WIDTH = 26
POINT, E, EXP_SIGN, HUNDREDS = 2, 20, 21, 22


@cache
def _tables():
    """The powers 10^k, k = K_MIN .. K_MAX, as hi + lo with hi's halves
    split, so 10^k = hh + hl + lo to about 2^-106 relative; and the ASCII
    digits of 0 .. 9999, four bytes each, as uint32."""
    hi, lo = [], []
    for k in range(K_MIN, K_MAX + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        h = num / den                   # int division is correctly rounded
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))      # 10^k - h, rounded
    hi = np.array(hi)
    c = SPLIT * hi
    hh = c - (c - hi)
    q = np.arange(10000, dtype=np.uint16)
    digits = np.empty((10000, 4), dtype=np.uint8)
    for j, place in enumerate((1000, 100, 10, 1)):
        digits[:, j] = q // place % 10 + ord("0")
    return hh, hi - hh, np.array(lo), hi, digits.view(np.uint32).ravel()


def _scaled(x: np.ndarray, p: np.ndarray) -> tuple:
    """floor(V) as int64 and V - floor(V), V = x 10^(17 - p) summed as a
    double-double: Dekker's exact product x * hi plus x * lo."""
    hh, hl, lo, hi, _ = _tables()
    i = 17 - K_MIN - p
    bh, bl, ph = hh[i], hl[i], x * hi[i]
    c = SPLIT * x
    ah = c - (c - x)
    al = x - ah
    pl = ((ah * bh - ph) + ah * bl + al * bh) + al * bl + x * lo[i]
    f = np.floor(pl)
    return ph.astype(np.int64) + f.astype(np.int64), pl - f


def _render(v: np.ndarray) -> tuple:
    """Byte matrix (v.size, WIDTH) and the mask of its bytes that spell
    format(v_i, ".17e"); the separator column is left to the caller."""
    n = v.size
    a = np.abs(v)
    fast = (a >= FAST_MIN) & (a <= FAST_MAX)
    x = np.where(fast, a, 1.0)
    p = np.floor(np.log10(x)).astype(np.int64)
    whole, frac = _scaled(x, p)
    D = whole + (frac > 0.5)
    zero = a == 0.0
    D[zero] = 0
    p[zero] = 0
    edge = (whole <= 10 ** 17 + 1) | (whole >= 10 ** 18 - 1)
    slow = np.flatnonzero(~(fast | zero) | (fast & edge)
                          | (np.abs(frac - 0.5) < 1e-6))
    quads = _tables()[4]
    # D = top 10^16 + mid 10^8 + bottom: base-10^4 groups, top first
    mid, bottom = np.divmod(D, 10 ** 8)
    top, mid = np.divmod(mid, 10 ** 8)
    groups = np.stack([top, mid // 10 ** 4, mid % 10 ** 4,
                       bottom // 10 ** 4, bottom % 10 ** 4], 1)
    digits = quads[groups].view(np.uint8)          # (n, 20), two leading 0s
    ae = np.abs(p)
    exp = quads[ae, None].view(np.uint8)            # (n, 4), one leading 0
    mat = np.empty((n, WIDTH), dtype=np.uint8)
    mat[:, 0] = ord("-")
    mat[:, 1] = digits[:, 2]
    mat[:, POINT] = ord(".")
    mat[:, POINT + 1:E] = digits[:, 3:]
    mat[:, E] = ord("e")
    mat[:, EXP_SIGN] = np.where(p < 0, ord("-"), ord("+"))
    mat[:, HUNDREDS:WIDTH - 1] = exp[:, 1:]
    keep = np.ones((n, WIDTH), dtype=bool)
    keep[:, 0] = np.signbit(v)
    keep[:, HUNDREDS] = ae >= 100
    for i in slow.tolist():
        text = format(float(v[i]), ".17e").encode("ascii")
        at = WIDTH - 1 - len(text)
        mat[i, at:WIDTH - 1] = np.frombuffer(text, dtype=np.uint8)
        keep[i, :WIDTH - 1] = False
        keep[i, at:WIDTH - 1] = True
    return mat, keep


def format_parts(table):
    """The text of `format_rows(table)` in parts, one per pass of at most
    CHUNK values, each made as it is read."""
    if not len(table):
        return
    table = np.asarray(table, dtype=np.float64)
    rows, cols = table.shape
    sep = np.full(cols, ord(","), dtype=np.uint8)
    sep[-1] = ord("\n")
    step = max(1, CHUNK // cols)
    for start in range(0, rows, step):
        block = table[start:start + step]
        mat, keep = _render(block.ravel())
        mat[:, -1] = np.tile(sep, len(block))
        yield mat[keep].tobytes().decode("ascii")


def format_rows(table) -> str:
    """A 2-D float table as text: each row's values as format(v, ".17e"),
    joined by commas, the row ended by a newline.  Byte-identical to
    "".join(",".join(format(v, ".17e") for v in row) + "\\n" for row in
    table); an empty table gives the empty string."""
    return "".join(format_parts(table))


def labelled_rows(columns, labels, table) -> str:
    """Header line `columns`, then per row its integer label and `format_rows`
    floats, each line ended by a newline (an empty table: the header alone)."""
    return "".join([",".join(columns) + "\n"] + [
        f"{int(k)},{line}\n"
        for k, line in zip(labels, format_rows(table).splitlines())])
