"""Float arrays as exactly the text ``'%.17g' %`` and ``float.__repr__`` write, a chunk per numpy pass: each
1e-6 < |x| < 1e17 scaled by a power of ten with Dekker's error-free product (Numer. Math. 18, 1971), so that
x * 10**(16 - k) = V + frac is known exactly and rounds half-even; ``repr`` takes the shortest of 15, 16 and 17
digits that reads back to x in one correctly rounded operation (Clinger, PLDI 1990).  Python's formatter writes
the rest: other magnitudes, zeros, NaN and infinities (and for ``repr`` |x| >= 1e15)."""

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


def _rounded(v, err, floor, drop: int):
    """(V + frac) / 10**drop rounded half-even, frac = err - floor compared as 2 * err, since it may be no double."""
    q, rest = np.divmod(v, 10**drop) if drop else (v, 0)
    edge = 10**drop - 2 * rest + 2 * floor
    return q + ((2 * err > edge) | ((2 * err == edge) & ((q & 1) == 1)))


def _text(x, rows, ends, shortest: bool) -> bytes:
    """The numbers of ``x`` as ``repr`` (``shortest``) or ``'%.17g' %`` writes them, each followed by a separator
    from ``ends`` (NUL-padded uint8 rows) in turn; ``rows`` are the format's fixed columns with ``ends[0]`` after."""
    pow10, high, low, bounds, words, zeros = _tables()[:6]
    a = np.abs(x)
    fast = (a > 1e-6) & (a < 1e17)
    a = np.where(fast, a, 1.0)
    # floor(log10(a)), exactly: the double nearest 10**j for -6 < j < 0 lies above 10**j
    k = np.searchsorted(bounds, a, side="right") - 8
    j = 16 - k
    p, ah = a * pow10[j], 134217729.0 * a - (134217729.0 * a - a)
    al = a - ah
    err = al * low[j] - (((p - ah * high[j]) - al * high[j]) - ah * low[j])  # a * 10**j - p, exactly
    floor = np.floor(err)
    v = p.astype(np.int64) + floor.astype(np.int64)
    r = _rounded(v, err, floor, 0)
    if shortest:
        r15, r16 = _rounded(v, err, floor, 2), _rounded(v, err, floor, 1)
        # below 1e15 a read-back is one division of exact doubles; above 2**53, where r16 may be no double, half an
        # ulp of x exceeds 5 units of the 17th digit, so the nearest 16 digits always read back
        r = np.where((r16 > 2**53) | (r16 / pow10[j - 1] == a), r16 * 10, r)
        r = np.where(r15 / pow10[j - 2] == a, r15 * 100, r)
        fast &= a < 1e15
    fast &= r < 10**17  # no double in range rounds up to 10**(k + 1), but Python would write one that did
    # word indices: the leading digit (offset to its words), four groups of four digits, then all-ones words
    groups = np.full((x.size, rows.shape[1] // 8), 10010, dtype=np.int64)
    head, tail = np.divmod(r, 10**8)
    (top, groups[:, 2]), (groups[:, 3], groups[:, 4]) = np.divmod(head, 10**4), np.divmod(tail, 10**4)
    groups[:, 0], groups[:, 1] = np.divmod(top + 10**8, 10**4)
    z, g = zeros[groups[:, 1:5]].T, (groups[:, 1:5] == 0).T
    used = 17 - (z[3] + g[3] * (z[2] + g[2] * (z[1] + g[1] * z[0])))
    out = np.take(rows, ((x < 0) * 23 + k + 6) * 18 + used, axis=0, mode="clip")
    out.view(np.uint64)[...] &= np.take(words, groups, mode="clip")
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
