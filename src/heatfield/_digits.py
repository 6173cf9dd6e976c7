"""The bytes of ``"%.17g" % x`` for arrays of doubles, computed in numpy.

The CSV writer of :mod:`heatfield.cli` formats the distinct doubles of
each block of rows into a table of fixed-width byte rows: row i is
``"%-{width - 1}.17g," % values[i]`` with NUL for the padding spaces.
:func:`float_cells` fills such rows with exactly the bytes CPython gives.
Fewer than :data:`NUMPY_MIN` values take the one ``%`` call
(:func:`percent_cells`).  More take the fast path with exact fallback of
Loitsch (PLDI 2010) in numpy (:func:`numpy_cells`), :data:`NUMPY_MIN` to
:data:`NUMPY_CHUNK` values at a time, which bounds the temporaries:

* the decimal exponent k is ``floor(log10|x|)``, corrected once where
  the scaled value leaves [1e16, 1e17);
* ``|x| * 10**(16 - k)`` is an exact double-double product (Dekker,
  Numer. Math. 18, 1971) with a hi + lo table of ``10**p`` built from
  Python ints, plus ``|x| * lo``, off by less than 1e-14;
* it rounds half up to a 17-digit int64, a carry to 1e17 moving to the
  next decade, and is cut into four-digit groups looked up as ASCII;
* trailing zeros are dropped as ``%g`` does, and one gather from 22
  layout templates (k = 0..16, k = -4..-1 after "0.", and scientific)
  places every byte.

Values the fast path cannot decide take the ``%`` call: 0, subnormals,
infinities, NaN, magnitudes outside [1e-280, 1e280] (where 10**(16 - k)
or a product of Dekker's split would leave the double range) and those
whose scaled fraction lies within 1e-6 of 1/2, where the error bound
cannot decide the rounding (exact ties round half to even in ``%``).

The module is kept apart from :mod:`heatfield.cli` because, without a
bytecode cache, the process's heap keeps the peak of its largest
compile, and cli.py with these lines would compile larger than any other
module.
"""

from __future__ import annotations

import functools

import numpy as np

# Below 1024 values the one % call is about as fast (the crossover is near 500), and the
# one-byte-per-value masks would be freed into numpy's cache of blocks under 1 KiB, which
# keeps up to seven blocks of every size it sees.  Parts of NUMPY_MIN to NUMPY_CHUNK values
# keep every mask above that size.
NUMPY_MIN = 1024
NUMPY_CHUNK = 2 * NUMPY_MIN
DIGITS_RANGE = (1e-280, 1e280)
_POWERS = range(-266, 300)  # 10**(16 - k) for every k of DIGITS_RANGE, corrected by one
_TEXT = 24  # the longest text of the fast path: sign, 17 digits, point and e-281
_GATHER = 512  # rows per gather, so that its index array stays small


@functools.cache
def _tables():
    # 10**p = hi + lo for p in _POWERS, each part the double nearest its exact value (true
    # division of Python ints rounds correctly); the ASCII of 0000..9999 and of e-300..e+300
    # (NUL-padded to 5); and, for each layout, digit count and sign, the source column of
    # each text byte.  Source columns (numpy_cells): 0 '0', 3-19 the 17 digits, 20-24 the
    # exponent, 25 '.', 26 '-', 27 NUL.  Layouts 0-16 are fixed with layout + 1 whole
    # digits, 17-20 fixed as "0." and 20 - layout zeros, 21 scientific.  Built in place,
    # so that few Python objects are alive at once.
    hi, lo = np.empty(len(_POWERS)), np.empty(len(_POWERS))
    for i, p in enumerate(_POWERS):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        hi[i] = num / den
        m, d = hi[i].as_integer_ratio()
        lo[i] = (num * d - m * den) / (den * d)
    quads = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0"))
    exponents = np.frombuffer(b"".join(b"e%+03d" % e + b"\0" * (abs(e) < 100) for e in range(-300, 301)), "V5")
    digit = list(range(3, 20))
    templates = np.full((22, 17, 2, _TEXT), 27, np.uint8)
    for layout in range(22):
        for nd in range(1, 18):
            if layout <= 16:
                whole, frac, suffix = digit[: layout + 1], digit[layout + 1 : nd], []
            elif layout <= 20:
                whole, frac, suffix = [0], [0] * (20 - layout) + digit[:nd], []
            else:
                whole, frac, suffix = digit[:1], digit[1:nd], [20, 21, 22, 23, 24]
            text = whole + [25] * bool(frac) + frac + suffix
            templates[layout, nd - 1, 0, : len(text)] = text
            templates[layout, nd - 1, 1, : len(text) + 1] = [26] + text
    return hi, lo, quads.view("V4").ravel(), exponents, templates.view(f"V{_TEXT}").ravel()


def _split(a):
    # Dekker's split: a = high + low, each with at most 26 significant bits.
    c = 134217729.0 * a
    high = c - (c - a)
    return high, a - high


def _scaled(x, k, hi, lo):
    # floor(x * 10**(16 - k)) as int64 and the fraction above it: x*hi is exactly prod + the
    # first four terms of tail, and x*lo adds the rest of 10**(16 - k).
    p = 16 - k - _POWERS.start
    h, l = hi[p], lo[p]
    prod = x * h
    (xh, xl), (hh, hl) = _split(x), _split(h)
    tail = (((xh * hh - prod) + xh * hl) + xl * hh) + xl * hl + x * l
    down = np.floor(tail)
    return prod.astype(np.int64) + down.astype(np.int64), tail - down


def percent_cells(values, width: int):
    """Rows of CPython's own ``"%-{width - 1}.17g,"``, NUL for the padding spaces."""
    text = (f"%-{width - 1}.17g," * values.size) % tuple(values.tolist())
    return np.frombuffer(text.replace(" ", "\0").encode("ascii"), np.uint8).reshape(values.size, width)


def float_cells(values, out):
    """Fill ``out`` (uint8, one row per value, width >= 25) with the bytes of percent_cells."""
    if values.size < NUMPY_MIN:
        out[:] = percent_cells(values, out.shape[1])
        return
    parts = -(-values.size // NUMPY_CHUNK)
    bounds = [values.size * i // parts for i in range(parts + 1)]
    for start, stop in zip(bounds, bounds[1:]):
        numpy_cells(values[start:stop], out[start:stop])


def numpy_cells(values, out):
    """The fast path of float_cells, for any number of values."""
    hi, lo, quads, exponents, templates = _tables()
    x = np.abs(values)
    fast = (x >= DIGITS_RANGE[0]) & (x <= DIGITS_RANGE[1])
    x[~fast] = 1.0
    k = np.floor(np.log10(x)).astype(np.intp)
    n, frac = _scaled(x, k, hi, lo)
    step = (n >= 10**17).astype(np.intp) - (n < 10**16)
    fix = np.flatnonzero(step)
    if fix.size:  # log10 rounds across a power of ten within an ulp of it
        k[fix] += step[fix]
        n[fix], frac[fix] = _scaled(x[fix], k[fix], hi, lo)
    slow = ~fast | (np.abs(frac - 0.5) < 1e-6) | (n < 10**16) | (n >= 10**17)
    n += frac > 0.5
    carry = n == 10**17
    n[carry] = 10**16
    k += carry
    groups = np.empty((values.size, 5), np.intp)
    for j, scale in enumerate((10**16, 10**12, 10**8, 10**4)):
        groups[:, j], n = np.divmod(n, scale)
    groups[:, 4] = n
    source = np.empty((values.size, 28), np.uint8)
    source[:, :20].view("V4")[:] = quads[groups]
    source[:, 20:25].view("V5")[:, 0] = exponents[k + 300]
    source[:, 25:] = np.frombuffer(b".-\0", np.uint8)
    digits = 17 - np.argmax(source[:, 19:2:-1] != ord("0"), axis=1)
    layout = np.where((k >= -4) & (k <= 16), k % 21, 21)
    key = (layout * 17 + digits - 1) * 2 + np.signbit(values)
    rows = np.arange(0, source.size, 28)[:, None]
    for start in range(0, values.size, _GATHER):
        text = np.take(templates, key[start : start + _GATHER]).view(np.uint8).reshape(-1, _TEXT)
        out[start : start + _GATHER, :_TEXT] = source.ravel()[text + rows[start : start + _GATHER]]
    out[:, _TEXT:] = 0
    out[:, -1] = ord(",")
    slow = np.flatnonzero(slow)
    if slow.size:
        out[slow] = percent_cells(values[slow], out.shape[1])
