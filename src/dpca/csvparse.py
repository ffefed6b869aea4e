"""The numpy kernel that parses the numbers of CSV text.

:func:`read_rows` reads the data rows of a file about 128 KB at a time and
:func:`parse_block` parses each block of whole rows, once, in the grammar
the package writes: ASCII cells
``-?(digits[.digits*]|.digits)([eE][+-]?digits)?``, commas, and row ends. A
row ends at a run of LF and CR bytes, so CRLF, a lone CR and blank lines
anywhere are all row ends of the grammar: :func:`_row_blocks` turns each CR
into LF in its buffer and the kernel reads a run of LFs as one row end.
Every value is the double that ``float()`` gives for its cell, but no step
runs per cell in Python: the mantissa digits become a 64-bit integer eight
at a time (SWAR) and ``w * 10**q`` is rounded to the nearest double in
integer arithmetic with the Eisel-Lemire algorithm (Lemire, "Number Parsing
at a Gigabyte per Second", Software: Practice and Experience, 2021). A
block outside the grammar is left to the caller; ``dpca.fileio`` then reads
the whole file with ``np.loadtxt``. Both routes settle a label column by
:func:`exact_labels`.
"""

from __future__ import annotations

import functools
import math
import os
import re
from types import SimpleNamespace

import numpy as np

PAD = 32  # bytes ahead of a block: a cell's digit window starts up to 24 bytes before its end
_READ_BLOCK = 1 << 17  # bytes of whole rows parsed at once; TestCsvMemory bounds the peak this sets
_S, _M, _PL, _P, _E, _X = range(6)  # tokens: separator, minus, plus, point, exponent, other
_INTEGER = re.compile(r"-?[0-9]+")


def label_value(cell: str) -> tuple[bool, int | float]:
    """Whether a label cell holds a 64-bit integer, and the number it holds.

    A plain integer (``-?digits``) is read exactly; any other number, such
    as ``2.0`` or ``1e3``, must be an integral double below ``2**63`` in
    magnitude.
    """
    cell = cell.strip()
    if _INTEGER.fullmatch(cell):
        value = int(cell)
        return -2**63 <= value < 2**63, value
    value = float(cell)
    return abs(value) < 2.0**63 and value == math.floor(value), value


def exact_labels(x: np.ndarray, texts):
    """The label column whose cells parsed to the doubles ``x``, as int64.

    A double that is an integer below ``2**53`` in magnitude is that
    integer: doubles are exact there. Any other cell is decided from its
    own text by :func:`label_value`; ``texts(rows)`` gives the texts of the
    cells at ``rows``. Returns ``(labels, bad)``, ``bad`` being ``(row,
    value)`` of the first cell that is not a 64-bit integer (or None).
    """
    exact = (np.abs(x) < 2.0**53) & (x == np.floor(x))
    labels = np.where(exact, x, 0).astype(np.int64)
    rows = np.flatnonzero(~exact)
    for row, cell in zip(rows.tolist(), texts(rows) if rows.size else ()):
        ok, value = label_value(cell)
        if not ok:
            return labels, (row, value)
        labels[row] = value
    return labels, None


def read_rows(fh, width: int, label: bool):
    """The rows of ``fh`` from its position to the end, parsed a block at a time.

    Each row has ``width`` cells, the last a label when ``label`` is set.
    Each block of :func:`_row_blocks` goes to :func:`parse_block` once.
    Returns ``(values, labels, bad)`` as :func:`parse_block` does, for the
    whole file and in arrays of its size, or None when a block is outside
    the grammar (quoted or padded cells, numbers outside it) or there are
    no rows.
    """
    separators = np.full(width, ord(","), np.uint8)
    separators[-1] = ord("\n")
    total = os.fstat(fh.fileno()).st_size - fh.tell()
    values = labels = bad_label = None
    row = done = 0
    for raw, size in _row_blocks(fh):
        parsed = parse_block(raw, size, separators, label)
        if parsed is None:
            return None
        block, block_labels, bad = parsed
        stop = row + len(block)
        done += size
        if values is None or stop > len(values):
            # room for the rest of the file at the rows per byte seen so far,
            # and a block more: growing copies, shrinking at the end does not
            rows = stop + -(-stop * max(total - done, 0) // done) + len(block)
            rows = max(rows, row + row // 8)
            if values is None:
                values = np.empty((rows, width - label))
                labels = np.empty(rows, np.int64) if label else None
            else:
                values.resize((rows, width - label), refcheck=False)
                if label:
                    labels.resize(rows, refcheck=False)
        values[row:stop] = block
        if label:
            labels[row:stop] = block_labels
            if bad is not None and bad_label is None:
                bad_label = (row + bad[0], bad[1])
        row = stop
    if not row:
        return None
    values.resize((row, width - label), refcheck=False)
    if label:
        labels.resize(row, refcheck=False)
    return values, labels, bad_label


def _row_blocks(fh):
    """The rest of ``fh`` in blocks of whole lines, read into one reused buffer.

    Yields ``(raw, size)``: the lines are ``raw[PAD:PAD + size]`` and end
    in a row end (a newline is added after a last line without), and
    newlines fill at least ``PAD`` bytes before them and 16 after. Each CR
    becomes LF in place as it is read, so a CRLF is a row end and a blank
    line, both of which the kernel's grammar reads; the bytes are not
    otherwise changed. A block is cut after its last LF. A line longer
    than the buffer grows it.
    """
    raw = bytearray(b"\n" * (PAD + _READ_BLOCK + 17))
    held = 0  # bytes of a line begun in the previous block
    while True:
        with memoryview(raw) as view:
            got = fh.readinto(view[PAD + held:len(raw) - 17])  # room for a last newline
        filled = PAD + held + got
        if raw.find(b"\r", PAD + held, filled) >= 0:  # each CR becomes LF as it is read
            lines = np.frombuffer(raw, np.uint8, got, PAD + held)
            lines[lines == ord("\r")] = ord("\n")
            del lines  # a view would keep the buffer from growing
        if not got:
            if not held:
                return
            raw[filled] = ord("\n")
            filled += 1
        cut = raw.rfind(b"\n", PAD, filled) + 1
        if not cut:
            held = filled - PAD
            raw.extend(b"\n" * (len(raw) - PAD))
            continue
        rest = raw[cut:filled]
        raw[cut:cut + 16] = b"\n" * 16
        yield raw, cut - PAD
        if not got:
            return
        raw[PAD:PAD + len(rest)] = rest
        held = len(rest)


@functools.cache
def _parse_tables() -> SimpleNamespace:
    """Lookup tables of the CSV number kernel, built on first use.

    ``token`` maps each byte that is not a digit to its token. A token's
    code is twice the token plus one when digits come before it, and
    ``pairs`` says which two consecutive codes the grammar allows (indexed
    by ``12 * first + second``). A cell's mantissa digits, the point
    dropped, are put into a 24-byte window of three words: the ``from_a``
    digits after the point from the text as it lies, the others from the
    text moved one byte on. ``masks`` holds, for ``24 * from_a + digits``,
    the masks that keep those bytes as digit values: three words for each
    of the two. ``top[k]`` keeps the last ``k`` bytes of one word likewise.
    ``pow5`` holds ``5**q`` for q in -342..308 with 128 significant bits,
    as Eisel and Lemire's algorithm uses it (built as fast_float builds its
    table): rows for the high word's halves and for the low word.
    ``power`` is ``floor(q * log2(10)) + 63 + 1023 - 1``: the biased binary
    exponent that goes with a normalized ``w`` times ``10**q``, less the one
    that the mantissa's leading bit adds back, plus 4096 so that it is never
    negative.
    """
    token = np.full(256, _X, np.uint8)
    token[list(b"\n,")] = _S
    token[ord("-")] = _M
    token[ord("+")] = _PL
    token[ord(".")] = _P
    token[list(b"eE")] = _E
    pairs = np.zeros((6, 2, 6, 2), bool)  # first token, digits before it, second, digits
    for first, second, digits in [(_S, _S, 1), (_S, _M, 0), (_S, _E, 1), (_M, _S, 1),
                                  (_M, _E, 1), (_PL, _S, 1), (_E, _M, 0), (_E, _PL, 0),
                                  (_E, _S, 1)]:
        pairs[first, :, second, digits] = True
    pairs[_S, :, _P, :] = pairs[_M, :, _P, :] = True
    pairs[_P, 1, _S, :] = pairs[_P, 1, _E, :] = True  # a point has a digit before
    pairs[_P, 0, _S, 1] = pairs[_P, 0, _E, 1] = True  # or after it

    byte = np.arange(24)
    from_a, digits = np.divmod(np.arange(24 * 24), 24)
    in_a = byte >= 24 - from_a[:, None]
    in_b = (byte >= 24 - digits[:, None]) & ~in_a
    masks = [(m * 0x0F).astype(np.uint8).view("<u8").T for m in (in_a, in_b)]
    top = [int.from_bytes(bytes(8 - k) + b"\x0f" * k, "little") for k in range(9)]
    pow5 = []
    for q in range(-342, 309):
        if q >= 0:
            v = 5**q
            v = v << max(128 - v.bit_length(), 0) >> max(v.bit_length() - 128, 0)
        else:
            p = 5**-q
            z = (p - 1).bit_length()  # the least z with 2**z >= p
            v = (1 << (z + 127 if q >= -27 else 2 * z + 128)) // p + 1
            v >>= max(v.bit_length() - 128, 0)
        pow5.append([v >> 96, v >> 64 & 0xFFFFFFFF, v & (2**64 - 1)])
    q = np.arange(-342, 309)
    return SimpleNamespace(
        token=token, pairs=pairs.ravel(), masks=np.concatenate(masks), top=np.array(top, np.uint64),
        pow5=np.array(pow5, np.uint64).T.copy(),
        power=((217706 * q >> 16) + 1085 + 4096).astype(np.uint64))


def _words(buf: np.ndarray, at: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` little-endian words of ``buf`` from each byte offset ``at``.

    Returns shape ``(count, at.size)``. Each unaligned word is put together
    from two aligned ones; ``at`` is overwritten.
    """
    aligned = buf[:buf.size & -8].view("<u8")
    shift = (at & 7).astype(np.uint8)
    shift <<= 3
    at >>= 3
    x = np.empty((count + 1, at.size), np.uint64)
    for k in range(count + 1):
        aligned[k:].take(at, out=x[k], mode="clip")
    back = 64 - shift  # a shift by 64 gives 0
    for k in range(count):
        x[k] >>= shift
        x[k] |= x[k + 1] << back
    return x[:-1]


def _eight_digits(v: np.ndarray) -> np.ndarray:
    """The numbers spelt by words of eight digit values, the first in the low byte.

    Pairs, then fours, then all eight digits are joined by one multiply each
    (SWAR); ``v`` is overwritten.
    """
    v *= 10 << 8 | 1
    v >>= 8
    v &= 0x00FF00FF00FF00FF
    v *= 100 << 16 | 1
    v >>= 16
    v &= 0x0000FFFF0000FFFF
    v *= 10000 << 32 | 1
    v >>= 32
    return v


def _product(a: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray):
    """High and low words of the 128-bit products of ``a`` and ``b_hi * 2**32 + b_lo``.

    ``b_hi`` and ``b_lo`` are 32-bit halves held in uint64 and are overwritten.
    """
    a_lo, a_hi = a.view(np.uint32).reshape(-1, 2).T  # little-endian halves
    low = a_lo * b_lo
    b_lo *= a_hi
    a_hi = a_hi * b_hi
    b_hi *= a_lo  # the four 64-bit partial products: low, b_lo, b_hi, a_hi
    high = low >> 32
    high += b_lo & 0xFFFFFFFF
    high += b_hi & 0xFFFFFFFF
    low &= 0xFFFFFFFF
    low |= high << 32
    high >>= 32
    high += a_hi
    high += b_lo >> 32
    high += b_hi >> 32
    return high, low


def _nearest_doubles(w: np.ndarray, q: np.ndarray, dtoa: np.ndarray) -> np.ndarray:
    """IEEE bits of the doubles nearest ``w * 10**q``, ties to even (Eisel-Lemire).

    ``w`` holds at most 19 digits and ``q`` lies in -342..308; both are
    overwritten. A cell whose double would be subnormal or infinite is
    marked in ``dtoa`` instead; its bits, and those of a zero ``w``, are not
    its value.
    """
    t = _parse_tables()
    index = q
    index += 342
    # w shifted up until its top bit is set; the double of w with the bit
    # below its top one cleared cannot round up to the next power of two
    lz = (w & ~(w >> 1)).astype(np.float64).view(np.uint64)
    lz >>= 52
    lz = (1086 - lz).astype(np.uint16)
    w <<= lz
    hi, lo = _product(w, t.pow5[0].take(index, mode="clip"), t.pow5[1].take(index, mode="clip"))
    # the low word of 5**q counts only when it can carry into the 55 bits
    # that decide the rounding, and so into the low 9 bits of hi
    close = (hi & 0x1FF == 0x1FF).nonzero()[0]
    if close.size:
        low5 = t.pow5[2].take(index[close])
        more = _product(w[close], low5 >> 32, low5 & 0xFFFFFFFF)[0]
        low = lo[close] + more
        hi[close] += low < more
        lo[close] = low
    upper = hi >> 63
    mantissa = hi >> upper + 9  # the 53 kept bits and one to round on
    # a product exactly half-way between two doubles rounds to the even one;
    # only 5**q with q in -4..23 makes one
    tie = (lo <= 1).nonzero()[0]
    if tie.size:
        qt = index[tie] - 342
        tie = tie[(qt >= -4) & (qt <= 23) & (mantissa[tie] & 3 == 1)
                  & (mantissa[tie] << upper[tie] + 9 == hi[tie])]
        mantissa[tie] ^= 1
    del hi, lo
    mantissa += mantissa & 1
    mantissa >>= 1  # 2**52..2**53: a carry to 2**53 moves to the next exponent
    bits = t.power.take(index, mode="clip")
    bits += upper
    bits -= lz
    bits <<= 52  # the 4096 added to power falls off here
    bits += mantissa
    dtoa |= (bits >> 52) - 1 >= 2046  # subnormal or infinite
    return bits


def parse_block(raw: bytearray, size: int, separators: np.ndarray, label: bool):
    """Parse whole CSV rows in the kernel's grammar.

    ``raw`` holds the rows at ``PAD`` as :func:`_row_blocks` lays them
    out, and ``separators`` the bytes that end a row's cells (commas,
    then a newline). A run of newlines is one row end, so blank lines
    anywhere are skipped as the rows are tokenized. Returns ``(values,
    labels, bad)``: the value columns as a ``(rows, width - label)`` view,
    and the labels and first bad label that :func:`exact_labels` gives for
    the label column's doubles (None, None without labels); a label cell's
    text is looked at only when its double does not settle it. Returns
    None when a byte, cell or row is outside the grammar.

    Only the bytes that are not digits are looked at one by one, as tokens;
    the grammar is checked on each two consecutive ones and whether digits
    lie between them. Runs of newlines are searched for only in a block
    that fails that check. A cell's mantissa gives ``w``, its digits as an
    integer, and its point and exponent give ``q``; its value ``w * 10**q``
    is rounded to a double in integer arithmetic by
    :func:`_nearest_doubles`. A cell with more than 19 significant digits,
    an exponent of more than 8 digits or a value that algorithm leaves out
    is parsed by ``float()`` on its own text.
    """
    t = _parse_tables()
    width = separators.size
    buf = np.frombuffer(raw, np.uint8)
    text = buf[PAD - 1:PAD + size]  # from the newline ahead of the first row
    spec = (text - 48 > 9).nonzero()[0]
    byte = text[spec]
    tok = t.token.take(byte)
    code = tok << 1
    code[1:] |= spec[1:] - spec[:-1] > 1
    pair = t.pairs.take(code[:-1] * 12 + code[1:])
    tail = None if pair.all() else (~pair).nonzero()[0] + 1
    if tail is not None:
        # outside the grammar, a block may hold only two newlines with
        # nothing between, the second a tail of a run of them; what may
        # follow a newline does not depend on digits before it, so the
        # pairs checked hold for the run read as one row end
        if not ((byte[tail - 1] == 10) & (byte[tail] == 10)).all():
            return None
        tok[tail] = _X  # the run's later newlines separate no cells
    del code, pair
    seps = (tok == _S).nonzero()[0]
    cells = seps.size - 1
    if cells % width or not (byte[seps[1:]].reshape(-1, width) == separators).all():
        return None
    bounds = spec[seps]
    end = bounds[1:] if tail is None else bounds[1:].copy()
    if tail is not None:
        # a run of newlines is one row end, at its first byte: the cell
        # before it ends there, and the cell after it starts after its last
        np.maximum.at(bounds, seps.searchsorted(tail) - 1, spec[tail])
    start = bounds[:-1]
    negative = text[start + 1] == ord("-")
    # a point is its cell's last token, or the one before the exponent
    last = seps[1:] - 1
    p_cell = (tok.take(last) == _P).nonzero()[0]
    point = spec.take(last[p_cell])
    del last
    man_end = end
    expo = (tok == _E).nonzero()[0]
    if expo.size:
        after = tok[expo + 1]
        signed = (after == _M) | (after == _PL)
        if (tok[expo + 1 + signed] != _S).any():
            return None  # after an exponent and its sign come only digits
        e_cell = seps.searchsorted(expo) - 1
        e_point = tok[expo - 1] == _P
        p_cell = np.concatenate([p_cell, e_cell[e_point]])
        point = np.concatenate([point, spec[expo[e_point] - 1]])
        man_end = end.copy()
        man_end[e_cell] = spec[expo]
        e_end = end[e_cell]
        length = e_end - man_end[e_cell] - 1 - signed
        exponent = _eight_digits(_words(buf, e_end + (PAD - 9), 1)[0]
                                 & t.top.take(length, mode="clip")).view(np.int64)
        exponent[byte[expo + 1] == ord("-")] *= -1
    del spec, byte, tok, seps
    digits = man_end - start
    digits -= negative
    digits -= 1
    digits[p_cell] -= 1
    fraction = man_end[p_cell] - point
    fraction -= 1
    from_a = digits.copy()  # the digits after the point, or all of them
    from_a[p_cell] = fraction
    q = np.zeros(cells, np.int64)
    q[p_cell] = -fraction
    dtoa = digits > 23
    if expo.size:
        exponent += q[e_cell]
        dtoa[e_cell[(length > 8) | (exponent < -342) | (exponent > 308)]] = True
        q[e_cell] = exponent.clip(-342, 308)  # outside the table of powers of five
    del point, fraction, p_cell

    mask = from_a * 24
    mask += digits
    del from_a, digits
    window = _words(buf, man_end + (PAD - 25), 3)
    del man_end
    for k in (2, 1, 0):  # the point dropped: the digits before it move one byte on
        moved = window[k] << 8
        if k:
            moved |= window[k - 1] >> 56
        moved &= t.masks[k + 3].take(mask, mode="clip")
        window[k] &= t.masks[k].take(mask, mode="clip")
        window[k] |= moved
    del moved, mask
    d = _eight_digits(window)
    dtoa |= d[0] >= 1000
    w = d[0] * 10**8
    w += d[1]
    w *= 10**8
    w += d[2]
    del window, d
    zero = ((w == 0) & ~dtoa).nonzero()[0]
    bits = _nearest_doubles(w, q, dtoa)
    del w
    bits[zero] = 0
    dtoa[zero] = False
    bits |= negative.astype(np.uint64) << 63
    values = bits.view(np.float64)
    for i in dtoa.nonzero()[0].tolist():
        values[i] = float(text[start[i] + 1:end[i]].tobytes())
    values = values.reshape(-1, width)
    if not label:
        return values, None, None

    def texts(rows):
        cells = rows * width + width - 1
        return [text[start[i] + 1:end[i]].tobytes().decode("ascii") for i in cells.tolist()]

    labels, bad = exact_labels(values[:, -1], texts)
    return values[:, :-1], labels, bad
