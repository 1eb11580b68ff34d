"""Blocks of text records rendered from NumPy columns, byte for byte as
``%`` formatting renders them.

``records(template, columns)`` equals ``template * n % tuple(row-major
values)`` for a template whose conversions are ``%.17g`` (float64) and
``%d`` (integers); the block is built from arrays, with no Python object per
value.

Contract for ``%.17g``: every value gives exactly the bytes of ``'%.17g' % v``.
For 1e-30 <= |v| < 1e30 the 17 correctly rounded digits come from
|v| * 10**(16 - E) in double-double arithmetic (Dekker's exact product against
a 10**k table held as an unevaluated sum of two floats), whose error is below
2**-46 of the last digit. A value goes to ``'%.17g' % v`` itself when it is
non-finite, outside that range, or within 1e-6 of the last digit's half-way
point (where the 17-digit rounding could be an exact tie), so no digit is
ever guessed. Zeros are rendered directly, ``-0`` included. Contract for
``%d``: exactly ``'%d' % i`` for every int64.

Each character position is one row of a NUL-padded (width, n) uint8 matrix;
a block is one transpose of that matrix with the NULs dropped. A run of
bit-identical values in a float column (each ring's z in a mesh) is
formatted once. The records are rendered in pieces of a fixed number of rows,
which bounds the temporaries.
"""
from __future__ import annotations

import re
from functools import cache

import numpy as np

__all__ = ["records"]

_CONVERSION = re.compile(r"%\.17g|%d")
_CHUNK = 8192            # records rendered per piece
_LO, _HI = 1e-30, 1e30   # fast range of |v|
_TIE = 1e-6              # distance from a half-way point that takes the fallback
_K0, _K1 = -20, 50       # exponents of the 10**k table
_E0, _E1 = -32, 31       # decimal exponents the fast path can reach
_SPLIT = 134217729.0     # 2**27 + 1: Veltkamp's split into 26-bit halves
_D16, _D17 = 10 ** 16, 10 ** 17
_ROWS = np.arange(18)[:, None]


def _by_exponent(text) -> np.ndarray:
    """(width, E1 - E0 + 1) uint8: text(E) for E in [_E0, _E1], NUL-padded."""
    cols = [text(e).encode("ascii") for e in range(_E0, _E1 + 1)]
    out = np.zeros((max(map(len, cols)), len(cols)), dtype=np.uint8)
    for j, c in enumerate(cols):
        out[:len(c), j] = np.frombuffer(c, dtype=np.uint8)
    return out


_LEAD = _by_exponent(lambda e: "0." + "0" * (-e - 1) if -4 <= e < 0 else "")
_EXPONENT = _by_exponent(lambda e: "" if -4 <= e < 17 else "e%+03d" % e)
_POW10 = np.array([10 ** j for j in range(19)], dtype=np.uint64)


def records(template: str, columns) -> str:
    """``template * n % tuple(values)`` for the n rows of ``columns``, one
    1-D array per conversion of the template, in order; the conversions are
    ``%.17g`` and ``%d``, and other ``%`` directives are not allowed."""
    literals = _CONVERSION.split(template)
    if any("%" in lit for lit in literals):
        raise ValueError(f"unsupported directive in {template!r}")
    fields = [(_float_field, np.float64) if k == "%.17g" else (_int_rows, np.int64)
              for k in _CONVERSION.findall(template)]
    cols = [np.asarray(c) for c in columns]
    n = len(cols[0]) if cols else 0
    if len(cols) != len(fields) or any(c.shape != (n,) for c in cols):
        raise ValueError(f"{template!r} takes {len(fields)} 1-D columns of one "
                         f"length, got shapes {[c.shape for c in cols]}")
    text = [np.frombuffer(lit.encode("ascii"), dtype=np.uint8)[:, None]
            for lit in literals]
    pieces = []
    for lo in range(0, n, _CHUNK):
        m = min(_CHUNK, n - lo)
        blocks = [np.broadcast_to(text[0], (len(text[0]), m))]
        for (field, dtype), col, lit in zip(fields, cols, text[1:]):
            # copied piece by piece, not whole: a column may be a strided
            # view, and whole copies would raise the peak memory
            blocks.extend(field(np.ascontiguousarray(col[lo:lo + m], dtype=dtype)))
            blocks.append(np.broadcast_to(lit, (len(lit), m)))
        matrix = np.concatenate(blocks)
        pieces.append(matrix.T.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(pieces)


@cache
def _pow10_table() -> tuple[np.ndarray, ...]:
    """10**k for k in [_K0, _K1] as hi + lo, hi the nearest float and lo the
    nearest float to the remainder, with hi split for Dekker's product.
    Exact int arithmetic: float(int) and int / int are correctly rounded."""
    hi, lo = [], []
    for k in range(_K0, _K1 + 1):
        if k >= 0:
            h = float(10 ** k)
            r = float(10 ** k - int(h))
        else:
            p = 10 ** -k
            h = 1 / p
            a, b = h.as_integer_ratio()
            r = (b - a * p) / (b * p)
        hi.append(h)
        lo.append(r)
    hi, lo = np.array(hi), np.array(lo)
    hh, hl = _split(hi)
    return hi, lo, hh, hl


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLIT * a
    h = c - (c - a)
    return h, a - h


def _scaled(a: np.ndarray, E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S = a * 10**(16 - E) rounded to the nearest int64 N, and S - N. Exact
    for S in [1e16, 1e17]; outside it, good enough to tell which way E must
    move."""
    hi, lo, hh, hl = (t[16 - _K0 - E] for t in _pow10_table())
    p = a * hi
    ah, al = _split(a)
    t = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo
    r = np.rint(t)
    return p.astype(np.int64) + r.astype(np.int64), t - r


def _float_digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, E, slow) of a float64 array: |v| rounded to 17 significant digits
    is N * 10**(E - 16) with 10**16 <= N < 10**17 (N = E = 0 for zeros), and
    slow marks the values these are not valid for, rendered by Python."""
    a = np.abs(v)
    zero = a == 0.0
    fast = (a >= _LO) & (a < _HI)
    a[~fast] = 1.0
    E = np.floor(np.log10(a)).astype(np.int64)
    N, frac = _scaled(a, E)
    slow = ~(fast | zero) | _near_tie(frac)
    # E is |v|'s own exponent when 10**16 <= S < 10**17, S unrounded; log10
    # can miss it by one next to a power of ten: move E and scale again
    todo = np.arange(len(a))
    for attempt in range(3):
        n = N[todo]
        step = (((n > _D17) | (n == _D17) & (frac >= 0)).astype(np.int64)
                - ((n < _D16) | (n == _D16) & (frac < 0)))
        todo, step = todo[step != 0], step[step != 0]
        if attempt == 2 or not len(todo):
            break
        E[todo] += step
        N[todo], frac = _scaled(a[todo], E[todo])
        slow[todo] = _near_tie(frac)
    slow[todo] = True
    # S just under 10**17 rounds up to the next power of ten
    carry = N == _D17
    N[carry] = _D16
    E[carry] += 1
    N[zero] = 0
    return N, E, slow


def _near_tie(frac: np.ndarray) -> np.ndarray:
    return np.abs(np.abs(frac) - 0.5) < _TIE


def _float_field(v: np.ndarray) -> list[np.ndarray]:
    """_float_rows of v; when v has at most half as many runs of
    bit-identical values as values, each run is formatted once."""
    bits = v.view(np.int64)    # -0.0 and 0.0 differ, as they print
    first = np.empty(len(v), dtype=bool)
    first[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    if 2 * np.count_nonzero(first) <= len(v):
        at = np.cumsum(first) - 1
        return [b[:, at] for b in _float_rows(v[first])]
    return _float_rows(v)


def _float_rows(v: np.ndarray) -> list[np.ndarray]:
    """The characters of '%.17g' % v as NUL-padded (rows, n) uint8 blocks,
    one row per character position: the sign, the "0.000" lead, the digits
    with the point, the exponent. A block that no value uses is left out."""
    n = len(v)
    N, E, slow = _float_digits(v)
    sci = (E < -4) | (E >= 17)
    small = (E < 0) & ~sci    # 0.0001 <= |v| < 1: "0." and zeros lead
    full = slow.any()         # a fallback string may need every block

    # the ASCII digits of the first 9 and the last 8 digits of N, side by
    # side; // by a constant is a multiply and a shift in NumPy, divmod and
    # % are not
    head = N // 10 ** 8
    q = np.stack((head, N - head * 10 ** 8)).astype(np.uint32)
    nine = np.empty((9, 2, n), dtype=np.uint8)
    t = np.empty_like(q)
    for i in range(8, -1, -1):
        r = q // np.uint32(10)
        np.multiply(r, np.uint32(10), out=t)
        np.subtract(q, t, out=t)
        nine[i] = t
        q = r
    nine += np.uint8(48)
    digits = np.concatenate((nine[:, 0], nine[1:, 1]))
    # sig[i]: a nonzero digit at i or after it; trailing zeros are dropped
    sig = np.zeros((18, n), dtype=bool)
    for i in range(16, -1, -1):
        np.logical_or(sig[i + 1], digits[i] != 48, out=sig[i])
    point = np.where(sci | small, 1, E + 1)    # digits before the point
    # chars[i + 1]: digit i, or NUL where it is not shown
    chars = np.zeros((19, n), dtype=np.uint8)
    np.multiply(digits, sig[:17] | (_ROWS[:17] < point), out=chars[1:18])
    # row r is digit r before the point and digit r - 1 after it; the rows
    # past the last point are the shifted digits
    body = chars[:18].copy()
    for r in range(int(point.max()) + 1):
        dot = np.uint8(46) * (sig[r] & ~small)
        body[r] = np.where(r < point, chars[r + 1],
                           np.where(r == point, dot, chars[r]))

    blocks = []
    neg = np.signbit(v)
    if full or neg.any():
        blocks.append((np.uint8(45) * neg)[None])
    if full or small.any():
        blocks.append(np.take(_LEAD, E - _E0, axis=1, mode="clip"))
    blocks.append(body)
    if full or sci.any():
        blocks.append(np.take(_EXPONENT, E - _E0, axis=1, mode="clip"))
    if full:
        out = np.concatenate(blocks)
        for i in np.flatnonzero(slow).tolist():
            s = ("%.17g" % v[i]).encode("ascii")
            out[:, i] = 0
            out[:len(s), i] = np.frombuffer(s, dtype=np.uint8)
        blocks = [out]
    return blocks


def _int_rows(v: np.ndarray) -> list[np.ndarray]:
    """The characters of '%d' % i as NUL-padded (rows, n) uint8 blocks: the
    sign, when any value has one, and the digits."""
    neg = v < 0
    signed = neg.any()
    mag = (np.where(neg, -v, v) if signed else v).view(np.uint64)  # -(-2**63) wraps to 2**63
    width = len(str(int(mag.max()))) if len(v) else 1
    if width <= 9:
        mag = mag.astype(np.uint32)
    ten = mag.dtype.type(10)
    out = np.empty((width, len(v)), dtype=np.uint8)
    q, t = mag, np.empty_like(mag)
    for i in range(width - 1, -1, -1):
        r = q // ten
        np.multiply(r, ten, out=t)
        np.subtract(q, t, out=t)
        out[i] = t
        q = r
    out += np.uint8(48)
    # leading zeros, never the ones digit
    out[:-1] *= mag >= _POW10[width - 1:0:-1, None]
    return [(np.uint8(45) * neg)[None], out] if signed else [out]
