"""The one place that writes data files: CSV tables and JSON documents.

A CSV table is a mapping of column name to column.  A column is a float
array, any sequence of cells, or an :class:`Indexed` pair that repeats a
few cells by index.  :func:`fmt` defines a cell: a string as given (blank
cells, flags, pre-formatted values), a Python int exactly with ``str`` (so
seeds of any size survive), anything else with ``%.17g``, which round-trips
every double bit for bit (NaN reads "nan").  JSON relies on Python's
shortest round-trip repr, which is equally lossless.

The writer pays no Python call per cell of a float array (bar the values
left to ``fmt``, below), of a sequence of plain ``str``, ``int`` and
``bool`` cells, or of an :class:`Indexed` column.  Each chunk of rows
becomes one byte matrix, a row per CSV row: each column gives a block whose
row ``i`` holds cell ``i``'s UTF-8 bytes, placed by their length (so a cell
may hold NUL bytes, commas or newlines) and padded with 0xFF, a byte UTF-8
never uses; the blocks are laid side by side with the separators, and the
chunk is written as one ``bytes`` without the padding.

A float array is formatted in numpy with the digits of ``%.17g``, bit for
bit.  For a finite double v with X = floor(log10|v|) in [-6, 16], the scale
10**k, k = 16 - X in [0, 22], is an exact double, and Dekker's TwoProduct
(Veltkamp's split, no fused multiply-add) gives |v|*10**k = p + e exactly.
When that exact product lies in [1e16, 1e17), p is an even integer above
2**53, so D = p + rint(e) is the product rounded half to even: the 17
significant digits that ``%.17g`` prints.  A value is kept only when the
exact product p + e is at least 1e16 (``log10`` may have rounded X up) and D
is below 1e17 (no carry to an 18th digit); ``%g``'s layout then follows from
the sign, X and D's trailing zeros.  Every other value (0, -0.0, NaN,
infinities, subnormals, |v| outside about [1e-6, 1e17), or a rejected X)
goes through :func:`fmt` one cell at a time.
"""

from __future__ import annotations

import json

import numpy as np

#: Rows formatted and written at a time: a large table never sits in memory
#: as one string.
CHUNK_ROWS = 8192


def fmt(x) -> str:
    """One CSV cell: strings as given, Python ints exactly, floats %.17g."""
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    return "%.17g" % x


def dump_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


class Indexed:
    """A column whose row ``i`` is ``cells[index[i]]``: ``cells`` is any
    other column form, formatted once, and ``index`` an integer array (a
    bool array picks cell 0 or 1), read a chunk at a time."""

    __slots__ = ("cells", "index")

    def __init__(self, cells, index):
        self.cells, self.index = cells, index


# --- exact %.17g of float64 arrays ---------------------------------------------

_PAD = 0xFF
_LOWEST, _HIGHEST = -6, 16  # the decimal exponents X formatted in numpy
_SCALE = np.array([float(10**k) for k in range(_HIGHEST - _LOWEST + 1)])
_SCALE_HI = 134217729.0 * _SCALE - (134217729.0 * _SCALE - _SCALE)
_SCALE_LO = _SCALE - _SCALE_HI


def _quads():
    """ASCII digits of 0..9999 four to a 32-bit word, the same with trailing
    zeros as padding, and the number of trailing zeros (four for 0000)."""
    digits = np.arange(10, dtype=np.uint8)
    quads = np.empty((10, 10, 10, 10, 4), np.uint8)
    stripped = np.empty((10, 10, 10, 10, 4), np.uint8)
    tail = np.ones((10, 10, 10, 10), bool)
    zeros = np.zeros((10, 10, 10, 10), np.uint8)
    for place in (3, 2, 1, 0):
        digit = digits.reshape((10,) + (1,) * (3 - place))
        quads[..., place] = digit + 48
        tail = tail & (digit == 0)
        stripped[..., place] = np.where(tail, _PAD, quads[..., place])
        zeros += tail
    words = np.concatenate([stripped, quads]).view(np.uint32).ravel()
    return words, zeros.ravel()


#: A value's 44 bytes: "000" and the 17 digits of D, its digits 1..16 again
#: with trailing zeros as padding, the literals of %g's layout, the point
#: (padding when no fraction digit is left) and padding.
_LITERALS = b"-.0e56"
_WORDS = np.frombuffer(_LITERALS + bytes([_PAD, _PAD]), np.uint32)
_POINT, _PADDING = 42, 43
_POINT_OR_PAD = np.array([_PAD, ord(".")], np.uint8)


def _layout(negative: bool, x: int) -> list:
    """Byte offsets within a value's bytes of %g's characters at decimal
    exponent ``x``: an integer part takes D's digits, a fraction the
    stripped ones."""
    digit, stripped = range(3, 20), range(19, 36)  # stripped[0] is unused
    literal = {c: 36 + i for i, c in enumerate(_LITERALS.decode())}
    if x < -4:
        body = [digit[0], _POINT, *stripped[1:]] + [literal[c] for c in "e-%02d" % -x]
    elif x < 0:
        body = [literal[c] for c in "0." + "0" * (-1 - x)] + [digit[0], *stripped[1:]]
    else:
        body = [*digit[: x + 1], _POINT, *stripped[x + 1 :]]
    return [literal["-"]] * negative + body


def _layouts() -> np.ndarray:
    """Every layout's offsets, padded; row negative * 23 + X + 6."""
    rows = [
        _layout(negative, x)
        for negative in (False, True)
        for x in range(_LOWEST, _HIGHEST + 1)
    ]
    table = np.full((len(rows), max(map(len, rows))), _PADDING)
    for row, offsets in zip(table, rows):
        row[: len(offsets)] = offsets
    return table


#: 0..9999 as stripped words and then as words (at 10_000 + i), their
#: trailing zeros, and every layout's offsets.
_QUADS, _ZEROS = _quads()
_GATHER = _layouts()


def _floats(values: np.ndarray) -> np.ndarray:
    """``%.17g`` of each double, as a padded block."""
    a = np.abs(values)
    x = np.floor(np.log10(np.maximum(a, 5e-324)))  # 0 falls out of the domain
    ok = (x >= _LOWEST) & (x <= _HIGHEST)
    a[~ok], x[~ok] = 1.0, 0.0
    exponent = x.astype(np.intp)
    k = _HIGHEST - exponent
    # TwoProduct: a * 10**k == p + e exactly
    p = a * _SCALE.take(k)
    c = 134217729.0 * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    s_hi, s_lo = _SCALE_HI.take(k), _SCALE_LO.take(k)
    e = ((a_hi * s_hi - p) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    d = p.astype(np.int64) + np.rint(e).astype(np.int64)
    ok &= ((p > 1e16) | ((p == 1e16) & (e >= 0))) & (d < 10**17)
    d[~ok] = 10**16
    # D's 17 digits: one, then four groups of four (int32 divides faster,
    # and a remainder as a difference is faster than %)
    lead = d // 10**16
    rest = d - lead * 10**16
    high = rest // 10**8
    low = rest - high * 10**8
    groups = []
    for half in (high.astype(np.int32), low.astype(np.int32)):
        quotient = half // 10**4
        groups += [quotient, half - quotient * 10**4]
    words = np.empty((len(d), 11), np.uint32)
    words[:, 0] = _QUADS.take(lead + 10_000)
    words[:, 9:] = _WORDS
    later = np.zeros(len(d), bool)  # a non-zero digit follows the group
    zeros = np.zeros(len(d), np.intp)  # D's trailing zeros
    for j in (3, 2, 1, 0):
        words[:, 1 + j] = _QUADS.take(groups[j] + 10_000)
        words[:, 5 + j] = _QUADS.take(groups[j] + later * 10_000)
        zeros += ~later * _ZEROS.take(groups[j])
        later |= groups[j] != 0
    chars = words.view(np.uint8)
    # the point stays when a non-zero digit follows the integer part
    fraction = zeros < _HIGHEST - np.maximum(exponent, 0)
    chars[:, _POINT] = _POINT_OR_PAD.take(fraction)
    layout = np.signbit(values) * 23 + exponent - _LOWEST
    offsets = _GATHER.take(layout, axis=0)
    offsets += np.arange(0, chars.size, chars.shape[1])[:, None]
    block = chars.ravel().take(offsets)
    (left,) = (~ok).nonzero()
    if not left.size:
        return block
    extra = _strings(list(map(fmt, values[left].tolist())))
    if extra.shape[1] > block.shape[1]:
        block = _widen(block, extra.shape[1])
    block[left] = _widen(extra, block.shape[1])
    return block


# --- CSV tables -----------------------------------------------------------------


def _widen(block: np.ndarray, width: int) -> np.ndarray:
    """``block`` padded to ``width`` bytes a row."""
    wide = np.empty((len(block), width), np.uint8)
    wide.fill(_PAD)
    wide[:, : block.shape[1]] = block
    return wide


def _strings(cells: list) -> np.ndarray:
    """UTF-8 bytes of ``str`` cells, as a padded block."""
    encoded = list(map(str.encode, cells))
    lengths = np.fromiter(map(len, encoded), np.intp, len(encoded))
    block = np.empty((len(cells), np.maximum.reduce(lengths, initial=0)), np.uint8)
    block.fill(_PAD)
    block[np.arange(block.shape[1]) < lengths[:, None]] = np.frombuffer(
        b"".join(encoded), np.uint8
    )
    return block


def _encode(part) -> np.ndarray:
    """Cells of one column as :func:`fmt` has them, as a padded block."""
    if len(part) > CHUNK_ROWS:  # an Indexed column's cells: a chunk at a time
        starts = range(0, len(part), CHUNK_ROWS)
        parts = [_encode(part[at : at + CHUNK_ROWS]) for at in starts]
        block = np.full((len(part), max(b.shape[1] for b in parts)), _PAD, np.uint8)
        for at, b in zip(starts, parts):
            block[at : at + len(b), : b.shape[1]] = b
        return block
    if isinstance(part, np.ndarray):
        if part.dtype.kind == "f":
            return _floats(part.astype(np.float64, copy=False))
        part = part.tolist()
    # exact types: a str or int subclass may print otherwise
    if set(map(type, part)) <= {str, int, bool}:
        return _strings(list(map(str, part)))
    return _strings(list(map(fmt, part)))


def write_csv(path, columns: dict, comments=()) -> None:
    """Write named, equal-length columns with '# ...' comment lines on top.

    Raises ValueError before the file is opened when the lengths differ.
    """
    lengths = {
        name: len(c.index if isinstance(c, Indexed) else c)
        for name, c in columns.items()
    }
    if len(set(lengths.values())) > 1:
        raise ValueError(f"CSV columns differ in length: {lengths}")
    n_rows = min(lengths.values(), default=0)
    # an Indexed column's cells are formatted once, then taken per chunk
    blocks = {
        name: _encode(c.cells) for name, c in columns.items() if isinstance(c, Indexed)
    }
    head = [f"# {c}\n" for c in comments] + [",".join(columns) + "\n"]
    with open(path, "wb") as fh:
        fh.write("".join(head).encode("utf-8"))
        for start in range(0, n_rows, CHUNK_ROWS):
            stop = min(start + CHUNK_ROWS, n_rows)
            parts, width = [], 0
            for name, c in columns.items():
                if name in blocks:
                    index = np.asarray(c.index[start:stop], np.intp)
                    parts.append(blocks[name].take(index, axis=0))
                else:
                    parts.append(_encode(c[start:stop]))
                width += parts[-1].shape[1] + 1
            row = np.empty((stop - start, width), np.uint8)
            at = 0
            for block in parts:
                end = at + block.shape[1]
                row[:, at:end] = block
                row[:, end] = ord(",")
                at = end + 1
            row[:, -1] = ord("\n")
            fh.write(row.tobytes().translate(None, bytes([_PAD])))
