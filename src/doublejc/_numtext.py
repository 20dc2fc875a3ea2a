"""Float arrays as exactly the text ``'%.17g' %`` and ``float.__repr__`` write, a chunk per numpy pass: each
1e-6 < |x| < 1e17 scaled by a power of ten with Dekker's error-free product (Numer. Math. 18, 1971), so that
x * 10**(16 - k) = V + frac is known exactly and rounds half-even; ``repr`` takes the shortest of 15, 16 and 17
digits that reads back to x in one correctly rounded operation (Clinger, PLDI 1990); a zero is written as 1 with
the leading digit 0.  Python's formatter writes the rest: other magnitudes, NaN and infinities (for ``repr`` also
|x| >= 1e15)."""

import functools

import numpy as np

#: numbers formatted per pass; the writers stream one chunk at a time, which bounds their memory
CHUNK = 2048

_WIDTH = 44  # sign, "0.000", 17 digits each with a point column after it, "e+dd"; Python's longest text is 24


@functools.cache
def _tables():
    """Built on first use: 10**j (j <= 22) with its Dekker halves; the doubles nearest 10**-7 .. 10**16; the trailing
    zeros of 0..9999 and their words ANDed onto a row (ASCII digits, each before an all-ones point column), then the
    words of a leading digit (all ones over sign and prefix) and an all-ones word; and the fixed columns per (repr,
    negative, k + 6, digits to the last nonzero) for k = -6..16: sign, "0.000", digits (0xFF where shown), "e+dd"."""
    pow10 = np.array([float(10**j) for j in range(23)])
    high = 134217729.0 * pow10 - (134217729.0 * pow10 - pow10)  # 2**27 + 1 splits off the upper 26 bits
    places = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, 10000)
    words = np.full((10011, 8), 0xFF, dtype=np.uint8)
    words[:10000, 0::2] = places.T + np.uint8(48)
    words[10000:10010, 6] = np.arange(48, 58, dtype=np.uint8)
    zeros = np.logical_and.accumulate(places[::-1] == 0).sum(axis=0).astype(np.uint8)
    shortest, negative, k, used = np.indices((2, 2, 23, 18)).reshape(4, -1)
    k -= 6
    sci = (k < -4) | (k >= 17 - shortest)
    lead = ~sci & (k < 0)  # "0." and -k - 1 zeros before the digits
    shown = np.maximum(used, np.where(sci | lead, 1, k + 1 + shortest))[:, None]  # the integer part, repr's ".0"
    point = np.where(sci, 0, k)[:, None]  # after this digit, if one follows it
    column = np.arange(17)
    exponent = np.frombuffer("".join(f"e{e:+03d}" for e in range(-6, 17)).encode(), np.uint8).reshape(23, 4)
    rows = np.zeros((k.size, _WIDTH), dtype=np.uint8)
    rows[:, 0] = negative * ord("-")
    rows[:, 1:6] = (lead[:, None] & (column[:5] <= -k[:, None])) * np.frombuffer(b"0.000", np.uint8)
    rows[:, 6:40:2] = (column < shown) * np.uint8(0xFF)
    rows[:, 7:40:2] = ((column == point) & (point + 1 < shown)) * np.uint8(ord("."))
    rows[:, 40:44] = sci[:, None] * exponent[k + 6]
    return (pow10, high, pow10 - high, np.concatenate([1.0 / pow10[7:0:-1], pow10[:17]]),
            words.view(np.uint64).ravel(), zeros, rows.reshape(2, -1, _WIDTH))


def _rounded(q, rest, err2, floor2, unit: int):
    """q + (rest + frac) / unit rounded half-even, frac = err - floor compared as 2 * err (``err2``) against 2 * floor
    (``floor2``) and integers, since it may be no double."""
    edge = unit - 2 * rest + floor2
    return q + ((err2 > edge) | ((err2 == edge) & ((q & 1) == 1)))


def _text(x, rows, ends, shortest: bool) -> bytes:
    """The numbers of ``x`` as ``repr`` (``shortest``) or ``'%.17g' %`` writes them, each followed by a separator
    from ``ends`` (NUL-padded uint8 rows) in turn; ``rows`` are the format's fixed columns with ``ends[0]`` after."""
    pow10, high, low, bounds, words, zeros = _tables()[:6]
    a = np.abs(x)
    fast, zero = (a > 1e-6) & (a < 1e17), a == 0
    a = np.where(fast, a, 1.0)
    # floor(log10(a)), exactly: the double nearest 10**j for -6 < j < 0 lies above 10**j
    k = np.searchsorted(bounds, a, side="right") - 8
    j = 16 - k
    p, ah = a * pow10[j], 134217729.0 * a - (134217729.0 * a - a)
    al = a - ah
    err = al * low[j] - (((p - ah * high[j]) - al * high[j]) - ah * low[j])  # a * 10**j - p, exactly
    floor = np.floor(err)
    v = p.astype(np.int64) + floor.astype(np.int64)
    err2, floor2 = 2 * err, 2 * floor
    r = _rounded(v, 0, err2, floor2, 1)
    if shortest:
        q15 = (q16 := v // 10) // 10
        r15, r16 = _rounded(q15, v - 100 * q15, err2, floor2, 100), _rounded(q16, v - 10 * q16, err2, floor2, 10)
        # below 1e15 a read-back is one division of exact doubles; above 2**53, where r16 may be no double, half an
        # ulp of x exceeds 5 units of the 17th digit, so the nearest 16 digits always read back
        r = np.where((r16 > 2**53) | (r16 / pow10[j - 1] == a), r16 * 10, r)
        r = np.where(r15 / pow10[j - 2] == a, r15 * 100, r)
        fast &= a < 1e15
    fast &= r < 10**17  # no double in range rounds up to 10**(k + 1), but Python would write one that did
    fast |= zero  # an exact zero is written as 1.0 is, with a leading digit 0
    groups = []  # four groups of four digits, the last first, by quotient and multiply-subtract
    for _ in range(4):
        r, rest = r // 10**4, r
        groups.insert(0, rest - 10**4 * r)
    count = 0  # trailing zeros: a group's own, and those after it where all four of its digits are zeros
    for z in (zeros[group] for group in groups):
        count = z + (z == 4) * count
    out = np.take(rows, (np.signbit(x) * 23 + k + 6) * 18 + (17 - count), axis=0, mode="clip")
    for column, group in enumerate([r + 10000 - zero, *groups]):  # r is the leading digit, whose words follow 9999's
        out.view(np.uint64)[:, column] &= words[group]
    for i in range(1, len(ends)):
        out[i::len(ends), _WIDTH:] = ends[i]
    texts = list(map(float.__repr__ if shortest else "%.17g".__mod__, x[~fast].tolist()))
    out[~fast, :_WIDTH] = np.array(texts, dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)
    return out.tobytes().translate(None, b"\0")


def chunks(values, seps, shortest: bool, end=None):
    """Yield the numbers of ``values`` as ``repr`` (``shortest``) or ``'%.17g' %`` writes them, each followed by a
    separator from ``seps`` in turn (the last by ``end`` if given), as text of at most about ``CHUNK`` numbers."""
    values = np.ravel(np.asarray(values, dtype=np.float64))
    width = -(-(_WIDTH + max(map(len, seps))) // 8) * 8 - _WIDTH  # rows of whole 8-byte words
    ends = np.array([sep.encode() for sep in seps], dtype=f"S{width}").view(np.uint8).reshape(len(seps), width)
    rows = np.concatenate([_tables()[6][int(shortest)], np.repeat(ends[:1], 2 * 23 * 18, axis=0)], axis=1)
    step = max(1, CHUNK // len(seps)) * len(seps)  # whole cycles, so each chunk starts with the first separator
    for start in range(0, values.size, step):
        text = _text(values[start:start + step], rows, ends, shortest).decode("ascii")
        yield text if end is None or start + step < values.size else text[:-len(seps[-1])] + end
