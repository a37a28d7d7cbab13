"""CSV text of float arrays, computed by numpy, with the bytes Python writes.

csv_text gives the lines of a 2-D array. Every entry x is written as
format(x, ".17g"): 17 significant digits, so the text of a double is
reproducible and reads back to the same double.

For finite x with 1e-4 <= |x| < 1e16, "%.17g" is fixed notation. Its
exponent k = floor(log10 |x|) lies in [-4, 15], and its 17 digits are D,
|x| 10^(16-k) rounded half to even (Gay 1990, Correctly rounded
binary-decimal and decimal-binary conversions). 10^(16-k) is an exact
double, so Dekker's exact product (Numer. Math. 18, 1971) gives the scaled
value exactly as p + e. D = p + rint(e): p >= 10^16 > 2^53 is an even
integer, so rint's half to even is D's. k is taken from numpy's log10 and
then checked on the exact pair, so no output depends on the last bit of
log10. The digits become text through a table of 4-digit groups, on one
byte canvas per call whose empty bytes are then dropped. Every other value
(±0, |x| < 1e-4, |x| >= 1e16, inf, nan) is formatted by Python itself.

The tables are built once at import, by numpy arithmetic, and a call uses
no numpy function that imports a module on its first call: a forked pool
worker formats its first block at full speed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["csv_text"]

_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split into two 26-bit halves
_POW10 = np.concatenate([[1.0], np.cumprod(np.full(22, 10.0))])  # 10^0 .. 10^22, exact


def _digit_groups() -> np.ndarray:
    """Entry n < 10^4 holds n's four ASCII digits, as the bytes of a uint32."""
    table = np.empty((10, 10, 10, 10, 4), np.uint8)  # digit j of n varies along axis j
    for j in range(4):
        table[..., j] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - j))
    return table.view(np.uint32).ravel()


_GROUPS = _digit_groups()
_DIGIT_COLUMNS = np.arange(20)


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = a * _SPLIT
    high = t - (t - a)
    return high, a - high


_POW10_HIGH, _POW10_LOW = _halves(_POW10)


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, e) with p = fl(a 10^(16-k)) and p + e = a 10^(16-k) exactly."""
    b = 16 - k
    p = a * _POW10[b]
    a_high, a_low = _halves(a)
    b_high, b_low = _POW10_HIGH[b], _POW10_LOW[b]
    return p, ((a_high * b_high - p) + a_high * b_low + a_low * b_high) + a_low * b_low


def _misplaced(p: np.ndarray, e: np.ndarray) -> np.ndarray:
    """+1 where p + e >= 10^17, -1 where p + e < 10^16, else 0."""
    up = (p > 1e17) | ((p == 1e17) & (e >= 0.0))
    return up.astype(np.intp) - ((p < 1e16) | ((p == 1e16) & (e < 0.0)))


def _exponents_and_digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, D) of each a in [1e-4, 1e16): a rounded to 17 significant digits
    is D 10^(k-16), with D in [10^16, 10^17)."""
    k = np.clip(np.floor(np.log10(a)), -4, 15).astype(np.int8)
    p, e = _scaled(a, k)
    # log10 may be one off next to a power of ten: move k until the exact
    # scaled value lies in [10^16, 10^17)
    step, moved = _misplaced(p, e), np.arange(a.size)
    while (off := np.flatnonzero(step)).size:
        moved = moved[off]
        k[moved] += step[off]
        p[moved], e[moved] = scaled = _scaled(a[moved], k[moved])
        step = _misplaced(*scaled)
    # D < 10^17: rounding up to 10^17 would need a double within 5e-18 of a
    # power of ten below it, and the doubles nearest 10^-1 .. 10^-3 lie above
    digits = p.astype(np.int64)
    digits += np.rint(e).astype(np.int64)
    return k, digits


def _ascii_digits(n: np.ndarray) -> np.ndarray:
    """The 20 decimal digits of each n in [0, 10^20), zero-padded: (size, 20) bytes."""
    groups = np.empty((n.size, 5), np.uint32)
    for j in range(4, 0, -1):
        high = n // 10000  # libdivide's quotient; "%" would be four times slower
        groups[:, j] = _GROUPS[n - high * 10000]
        n = high
    groups[:, 0] = _GROUPS[n]
    return groups.view(np.uint8)


def _cells(fast: np.ndarray, at: np.ndarray, texts: list[str], slow: np.ndarray) -> np.ndarray:
    """Rows of bytes, padded with empty bytes: fast[i] at row at[i], and
    texts[i] at row slow[i]."""
    width = max([fast.shape[1], *map(len, texts)])
    cells = np.zeros((at.size + slow.size, width), np.uint8)
    cells[at, : fast.shape[1]] = fast
    if texts:
        padded = "".join(text.ljust(width, "\0") for text in texts).encode("ascii")
        cells[slow] = np.frombuffer(padded, np.uint8).reshape(slow.size, width)
    return cells


def _float_cells(x: np.ndarray) -> np.ndarray:
    """format(u, ".17g") of each u in the 1-D x, one per row."""
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    at, slow = np.flatnonzero(fast), np.flatnonzero(~fast)
    texts = [format(u, ".17g") for u in x[slow].tolist()]  # ±0, tiny, huge, inf, nan
    k, digits = _exponents_and_digits(a[at])
    # sorted by exponent, the cells of each exponent are one static slice
    order = np.argsort(k, kind="stable")  # a radix sort, on int8
    at, k = at[order], k[order]
    d = _ascii_digits(digits[order])[:, 3:]  # the 17 digits
    # the fraction's trailing zeros go, and so does a point with nothing after it
    zeros = np.flatnonzero(d[:, 16] == 48)
    cut = np.maximum(17 - np.argmax(d[zeros, ::-1] != 48, axis=1), k[zeros] + 1)
    d[zeros] *= _DIGIT_COLUMNS[:17] < cut[:, None]
    bare = zeros[cut == k[zeros] + 1]
    # a sign, 17 digits and a point, and "0" and -k - 1 zeros ahead of them when k < 0
    out = np.zeros((at.size, 19 - min(int(k.min(initial=0)), 0)), np.uint8)
    out[:, 0] = x[at] < 0.0
    out[:, 0] *= 45  # "-"
    ends = np.bincount(k + 4, minlength=20).cumsum().tolist()
    for exponent, lo, hi in zip(range(-4, 16), [0, *ends], ends):
        if lo == hi:
            continue
        cell, digit = out[lo:hi], d[lo:hi]
        if exponent >= 0:  # the point after the first k + 1 digits
            cell[:, 1 : exponent + 2] = digit[:, : exponent + 1]
            cell[:, exponent + 2] = 46
            cell[:, exponent + 3 : 19] = digit[:, exponent + 1 :]
        else:  # "0.", -k - 1 zeros and the 17 digits
            cell[:, 1 : 2 - exponent] = 48
            cell[:, 2] = 46
            cell[:, 2 - exponent : 19 - exponent] = digit
    out[bare, k[bare] + 2] = 0
    return _cells(out, at, texts, slow)


def _label_cells(v: np.ndarray, label: str) -> np.ndarray:
    """label % u of each u in the 1-D v, one per row; label is a prefix and "%d,"."""
    prefix = label[:-3].encode("ascii")
    fast = (v >= 0.0) & (v < 2.0**63)  # int(u) has at most 19 digits
    at, slow = np.flatnonzero(fast), np.flatnonzero(~fast)
    texts = [label % u for u in v[slow].tolist()]  # raises on nan and inf, as "%d" does
    v = v[at]
    n_digits = _POW10[1:20].searchsorted(v, side="right") + 1
    width = int(n_digits.max(initial=1))
    digits = _ascii_digits(v.astype(np.int64))[:, 20 - width :]
    digits *= _DIGIT_COLUMNS[:width] >= (width - n_digits)[:, None]  # no leading zeros
    out = np.empty((at.size, len(prefix) + width + 1), np.uint8)
    out[:, : len(prefix)] = np.frombuffer(prefix, np.uint8)
    out[:, len(prefix) : -1] = digits
    out[:, -1] = 44  # ","
    return _cells(out, at, texts, slow)


def csv_text(block: np.ndarray, label: str = "") -> str:
    """The CSV lines of a 2-D array, one line per row: the bytes of
    format(x, ".17g") for each entry, joined by commas.

    With a label, a prefix and "%d," such as "x%d,", a row starts with
    label % its first entry instead, as "%"-formatting writes it.
    """
    rows, cols = block.shape[0], block.shape[1] - bool(label)
    head = _label_cells(block[:, 0], label) if label else np.zeros((rows, 0), np.uint8)
    floats = _float_cells(block[:, bool(label) :].ravel())
    width = floats.shape[1] + 1  # and a separator
    canvas = np.zeros((rows, head.shape[1] + cols * width + 1), np.uint8)
    canvas[:, : head.shape[1]] = head
    body = canvas[:, head.shape[1] : -1].reshape(rows, cols, width)
    body[:, :, :-1] = floats.reshape(rows, cols, width - 1)
    body[:, :-1, -1] = 44  # ","
    canvas[:, -1] = 10  # "\n"
    return canvas.tobytes().translate(None, b"\0").decode("ascii")
