"""File formats used by the CLI: CSV tables and JSON model files.

CSV tables are UTF-8, with or without a leading byte-order mark, and
comma-separated with an optional single header row; a final integer column
named ``label`` (by header name) is read as labels, a plain integer label
exactly. The first non-empty line is the header when fewer than half of its
cells parse with ``float()``; otherwise it is the first data row, and a bad
cell there is an error like one in any other row. :func:`read_csv` finds
this layout once, from the first lines (the header, where the first data
row starts, its number of cells and whether the last column is labels), and
both parsers start from it. No step runs per cell in Python. Data rows in
the grammar the writers produce (ASCII numbers and commas, rows ending at
LF, CR or CRLF; blank lines are row ends of that grammar too) are parsed by
a numpy kernel a block of rows at a time, each block once and each value
the double ``float()`` gives (see :mod:`dpca.csvparse`), whatever mark,
blank lines or header come before them. Any other file goes through
numpy's C parser (``np.loadtxt``) from the same row, in one pass: cells
may be quoted with ``"`` and padded with spaces, row ends and blank lines
are read as the kernel reads them, and there are no comment lines (``#``
is a non-numeric cell). Both parsers settle labels by the one
rule of :func:`dpca.csvparse.exact_labels`. Every error names the file and
the 1-based data row.
Numbers are written as ``'%.17g' % v`` (17 significant digits, so values
survive a round trip exactly) and labels as ``'%d'``. Those bytes are formed
by a numpy kernel, a block of cells at a time, with exact integer digits;
numbers outside ``10**-6 <= |v| < 10**17`` are formatted by ``%`` itself
(see :func:`_write_table`).

Model files are JSON, written by :func:`write_json` as the CLI's other JSON
files are; Python's float repr in JSON is already shortest-round-trip, so
numeric fields reload bit-exact.
"""

from __future__ import annotations

import codecs
import csv
import functools
import json
import re
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .csvparse import exact_labels, read_rows
from .datamodel import DataMatrix
from .errors import DimensionError, InvalidInputError
from .methods import ComponentModel

MODEL_FORMAT_VERSION = 1


def _next_row(fh, offset: int):
    """Read text handle ``fh`` on to its next non-blank line, from byte ``offset``.

    Returns that line's start and end byte offsets and its cells, or
    ``None`` at end of file. ``fh`` keeps line endings (``newline=""``), so
    a line's bytes are its text encoded again. A byte-order mark at offset 0
    is cut from the first line, which then starts at byte 3. A line is blank
    when it holds nothing but its line ending, as with :func:`csv.reader`.
    """
    while True:
        line = fh.readline()
        if not line:
            return None
        start, offset = offset, offset + len(line.encode("utf-8"))
        if not start and line.startswith("\ufeff"):
            start, line = len(codecs.BOM_UTF8), line[1:]
        cells = next(csv.reader([line]), [])
        if cells:
            return start, offset, cells


def _parses_as_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _header(cells: list[str]) -> list[str] | None:
    """The stripped names of a header row, or None when ``cells`` is data.

    A row is a header when fewer than half of its cells parse with ``float()``.
    """
    if 2 * sum(_parses_as_float(c) for c in cells) < len(cells):
        return [c.strip() for c in cells]
    return None


def _has_label(header: list[str] | None, width: int) -> bool:
    return header is not None and width >= 2 and header[-1].lower() == "label"


_RAGGED = re.compile(r"number of columns changed from (\d+) to (\d+) at row (\d+)")
_NOT_NUMERIC = re.compile(r"could not convert string (.*) to \w+ at row (\d+), column (\d+)",
                          re.DOTALL)


def _parse_error(path, exc: ValueError) -> InvalidInputError:
    """Turn numpy's parser error into a message with the 1-based data row."""
    text = str(exc)
    ragged = _RAGGED.search(text)
    if ragged:  # numpy counts this row from 1
        expected, got, row = ragged.groups()
        return InvalidInputError(f"{path}: row {row} has {got} cells, expected {expected}")
    cell = _NOT_NUMERIC.search(text)
    if cell:  # numpy counts this row from 0
        value, row, column = cell.groups()
        return InvalidInputError(
            f"{path}: row {int(row) + 1}: column {column} holds {value}, not a number")
    return InvalidInputError(f"{path}: {text}")


def _check_header_width(path, header: list[str] | None, width: int) -> None:
    if header is not None and len(header) != width:
        raise InvalidInputError(
            f"{path}: header has {len(header)} columns, the first data row has {width}")


def read_csv(path) -> DataMatrix:
    """Read a data table; returns values and, when present, labels.

    The table's layout is found once, from a text handle: the header (or
    None), the byte offset where the first data row starts, that row's
    number of cells and whether the last column is labels; a header of
    another width is an error here. From that byte on, rows in the grammar
    the writers produce (ASCII numbers
    ``-?(digits[.digits*]|.digits)([eE][+-]?digits)?``, commas and row ends)
    are parsed by the numpy kernel of :mod:`dpca.csvparse` into the values
    and labels arrays themselves, every value the double that ``float()``
    gives for its cell. When the kernel declines a block, the same rows go
    through ``np.loadtxt``, which keeps the whole dialect of the module
    docstring and its error messages. Labels are settled on both routes by
    :func:`dpca.csvparse.exact_labels`, so a label cell that is a plain
    integer is read exactly. The returned DataMatrix adopts the arrays.
    """
    try:
        # newline="" keeps every line end, so _next_row can count the bytes
        with open(path, "r", encoding="utf-8", newline="") as fh:
            first = _next_row(fh, 0)
            if first is None:
                raise InvalidInputError(f"{path}: file contains no data")
            header = _header(first[2])
            if header is not None:
                first = _next_row(fh, first[1])
                if first is None:
                    raise InvalidInputError(f"{path}: header but no data rows")
                _check_header_width(path, header, len(first[2]))
            start, width = first[0], len(first[2])
            label = _has_label(header, width)
            fh.buffer.seek(start)
            table = read_rows(fh.buffer, width, label)
            if table is None:
                table = _read_dialect(fh, path, start, label)
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not UTF-8 text: {exc}") from exc
    values, labels, bad = table
    if bad is not None:
        row, value = bad
        raise InvalidInputError(f"{path}: row {row + 1}: label {value!r} is not a 64-bit integer")
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise InvalidInputError(f"{path}: row {bad[0] + 1} contains a non-finite value")
    return DataMatrix._adopt(values, labels, finite_checked=True)


_DIALECT = dict(delimiter=",", comments=None, quotechar='"', ndmin=2)


def _read_dialect(fh, path, start, label: bool):
    """The rows of text handle ``fh`` from ``start``, through ``np.loadtxt``.

    Returns ``(values, labels, bad)`` as :func:`dpca.csvparse.read_rows`
    does, from one ``np.loadtxt`` pass. Labels come from the parsed label
    column by :func:`dpca.csvparse.exact_labels`; the column is read again,
    as text, only when it holds a cell that the doubles do not settle.
    """
    fh.seek(start)
    try:
        table = np.loadtxt(fh, dtype=np.float64, **_DIALECT)
    except UnicodeDecodeError:
        raise
    except ValueError as exc:
        raise _parse_error(path, exc) from exc
    if not label:
        return table, None, None

    def texts(rows):
        fh.seek(start)
        return np.loadtxt(fh, dtype=object, usecols=-1, **_DIALECT)[rows, 0]

    labels, bad = exact_labels(table[:, -1], texts)
    return np.ascontiguousarray(table[:, :-1]), labels, bad


_BLOCK_CELLS = 8192  # cells formatted at once; TestCsvMemory bounds the peak this sets
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's constant for splitting a double in halves


@functools.cache
def _cell_tables() -> SimpleNamespace:
    """Lookup tables of the ``%.17g`` kernel, built on first use.

    A cell's layout depends on its pattern: the decimal exponent ``X`` in
    -6..16, the index ``last`` (0..16) of its last nonzero digit, its sign and
    whether it ends the row. The body tables are indexed by
    ``(X + 6) * 17 + last``, the affix tables by four times that plus
    ``2 * negative + row_end``. A text of up to 24 bytes is held as three
    little-endian 64-bit words, byte ``j`` in bits ``8 * (j % 8)`` of word
    ``j // 8``, so a table entry is three words, one table row per word.
    """
    group = np.arange(10000)
    digits = (group[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    digit4 = digits.view("<u4").ravel().astype(np.uint64)  # "0000".."9999"
    zeros4 = sum(group % 10**k == 0 for k in range(1, 5)).astype(np.intp)  # trailing zeros

    # Body: the digits up to ``last``, but at least the integer digits, with
    # the point after ``point`` digits when a fraction remains. It is cut out
    # of the digits at bytes 0..16 (``from_digits``) and of the same digits
    # one byte on (``from_moved``); the point itself sits in the affixes.
    # Affixes: the sign and "0.000" before the body, which shift it by
    # ``shift`` bytes, and "e-0X" plus the delimiter after it.
    last = np.arange(17)
    byte = np.arange(24)
    from_digits = np.zeros((23, 17, 24), np.uint8)
    from_moved = np.zeros((23, 17, 24), np.uint8)
    affix = np.zeros((23, 17, 2, 2, 24), np.uint8)
    shift = np.zeros((23, 17, 2, 2), np.uint64)
    for row, exp10 in enumerate(range(-6, 17)):
        if -4 <= exp10 < 0:  # fixed notation: "0.", -X - 1 zeros and the digits
            lead, point, body = b"0." + b"0" * (-1 - exp10), 17, last + 1
        else:  # X + 1 integer digits in fixed notation, one in exponent notation
            lead, point = b"", max(exp10, 0) + 1
            body = np.where(last >= point, last + 2, point)
        exponent = b"e-0%d" % -exp10 if exp10 < -4 else b""
        end = body[:, None]
        from_digits[row] = (byte < np.minimum(point, end)) * 0xFF
        from_moved[row] = ((byte > point) & (byte < end)) * 0xFF
        for negative, sign in enumerate((b"", b"-")):
            prefix = np.frombuffer(sign + lead, np.uint8)
            for row_end, delimiter in enumerate((b",", b"\n")):
                suffix = np.frombuffer(exponent + delimiter, np.uint8)
                cells = affix[row, :, negative, row_end]
                cells[:, :prefix.size] = prefix
                cells[last[:, None], prefix.size + end + np.arange(suffix.size)] = suffix
                cells[body > point, prefix.size + point] = ord(".")
                shift[row, :, negative, row_end] = 8 * prefix.size

    def words(table):
        return np.moveaxis(table.view("<u8"), -1, 0).reshape(3, -1).astype(np.uint64)

    pow10 = np.array([float(10**k) for k in range(23)])  # exact doubles
    big = pow10 * _SPLIT
    pow10_hi = big - (big - pow10)
    return SimpleNamespace(
        digit4=digit4, digit4_hi=digit4 << np.uint64(32), zeros4=zeros4,
        from_digits=words(from_digits), from_moved=words(from_moved), affix=words(affix),
        shift=shift.ravel(), pow10=pow10, pow10_hi=pow10_hi, pow10_lo=pow10 - pow10_hi)


def _scaled(a, s, tables):
    """``(p, e)`` with ``p + e == a * 10**s`` exactly (Dekker's TwoProduct).

    ``10**s`` and its halves come from the tables, so only ``a`` is split.
    """
    big = a * _SPLIT
    a_hi = big - (big - a)
    a_lo = a - a_hi
    t_hi, t_lo = tables.pow10_hi[s], tables.pow10_lo[s]
    p = a * tables.pow10[s]
    e = ((a_hi * t_hi - p) + a_hi * t_lo + a_lo * t_hi) + a_lo * t_lo
    return p, e


def _format_cells(x, row_end, words) -> np.ndarray:
    """Write ``'%.17g' % v`` plus its delimiter into ``words`` for each ``v`` of ``x``.

    ``x`` is flat; ``row_end`` is 1 where a cell ends its row (a newline
    follows) and 0 elsewhere (a comma follows); ``words[..., :3]`` receives
    each text as three NUL-padded little-endian words. Returns the flat
    indices of the cells outside the kernel's window ``10**-6 <= |v| <
    10**17`` other than zeros (nan and inf among them); what the kernel wrote
    there is not their text.
    """
    t = _cell_tables()
    a = np.abs(x)
    # 10**-6 <= |v| < 10**17; the double nearest 1e-6 lies just below 10**-6
    inside = (a > 1e-6) & (a < 1e17)
    np.copyto(a, 1.0, where=~inside)  # a placeholder, overwritten at the end
    # 17 significant digits: N = round(|v| * 10**s) with 10**16 <= N < 10**17,
    # where s in 0..22 keeps 10**s an exact double
    s = (16 - np.floor(np.log10(a))).astype(np.intp)
    np.clip(s, 0, 22, out=s)
    p, e = _scaled(a, s, t)
    # log10 can miss by one next to a power of ten; p + e is on the same side
    # of 1e16 (1e17) as p unless p is that bound, as |e| is at most 1 (8) there
    below = (p < 1e16) | ((p == 1e16) & (e < 0))
    above = (p > 1e17) | ((p == 1e17) & (e >= 0))
    fix = np.flatnonzero(below | above)
    if fix.size:
        s[fix] += below[fix]
        s[fix] -= above[fix]
        p[fix], e[fix] = _scaled(a[fix], s[fix], t)
    # p is an even integer, so rint's ties-to-even on e rounds p + e half-even.
    # N stays below 10**17: the double in the window closest under a power of
    # ten, the one nearest 1e-6, is 4.5e-17 under it, ten times too far to round up.
    n = p.astype(np.int64) + np.rint(e).astype(np.int64)
    n *= inside  # zeros and fallback cells print as "0"
    pattern = 22 - s  # X + 6
    # N is one digit and four groups of four: lo spells groups 1-2, hi 3-4
    q = n // 10**4
    g = n - q * 10**4
    last = 16 - t.zeros4[g]  # index of the last nonzero digit
    more = np.flatnonzero(g == 0)
    if more.size:
        last[more] -= sum(q[more] % 10**k == 0 for k in range(1, 13))
    hi = t.digit4_hi[g]
    n = q // 10**4
    hi |= t.digit4[q - n * 10**4]
    q = n // 10**4
    lo = t.digit4_hi[n - q * 10**4]
    n = q // 10**4
    lo |= t.digit4[q - n * 10**4]
    first = n.astype(np.uint64) + np.uint64(ord("0"))
    b8, b56 = np.uint64(8), np.uint64(56)
    digits = (first | (lo << b8), (lo >> b56) | (hi << b8), hi >> b56)
    moved = (digits[0] << b8, (digits[1] << b8) | (digits[0] >> b56),
             (digits[2] << b8) | (digits[1] >> b56))
    pattern *= 17
    pattern += last
    body = [(d & fd[pattern]) | (m & fm[pattern])
            for d, m, fd, fm in zip(digits, moved, t.from_digits, t.from_moved)]
    pattern *= 4
    pattern += 2 * np.signbit(x) + row_end
    left = t.shift[pattern]
    right = np.uint64(64) - left  # a shift by 64 gives 0
    shape = words.shape[:-1]
    words[..., 0] = (t.affix[0][pattern] | (body[0] << left)).reshape(shape)
    words[..., 1] = (t.affix[1][pattern] | (body[1] << left) | (body[0] >> right)).reshape(shape)
    words[..., 2] = (t.affix[2][pattern] | (body[2] << left) | (body[1] >> right)).reshape(shape)
    return np.flatnonzero(~inside & (x != 0))


def _format_block(values: np.ndarray, labels: np.ndarray | None) -> np.ndarray:
    """The rows of ``values`` (``labels`` last) as CSV text, in a uint8 array."""
    rows, cols = values.shape
    width = cols + (labels is not None)
    x = np.empty((rows, width))
    x[:, :cols] = values
    if labels is not None:
        # '%.17g' of an integer up to 2**53 is its '%d'; larger ones fall back
        x[:, cols] = np.where((labels >= -2**53) & (labels <= 2**53), labels, np.nan)
    row_end = np.zeros((rows, width), np.intp)
    row_end[:, -1] = 1
    words = np.zeros((rows, width, 4), np.uint64)  # a fallback text takes up to 25 bytes
    fallback = _format_cells(x.ravel(), row_end.ravel(), words[..., :3])
    if fallback.size:
        texts = []
        for cell in fallback.tolist():
            row, col = divmod(cell, width)
            text = "%d" % labels[row] if col == cols else "%.17g" % values[row, col]
            texts.append(text.encode("ascii") + (b"\n" if col == width - 1 else b","))
        words.reshape(-1, 4)[fallback] = np.array(texts, "S32").view("<u8").reshape(-1, 4)
    chars = words.astype("<u8", copy=False).view(np.uint8).ravel()
    return chars[chars != 0]


def _write_table(path, values: np.ndarray, labels, header: list[str]) -> None:
    """Write a header line, then one ``%.17g`` row per sample (``%d`` label last).

    The bytes are those of ``'%.17g' % v`` per value and ``'%d' % label``,
    joined by commas and newlines, but numpy forms them a block of about
    8k cells at a time (the bound of ``TestCsvMemory``):

    - the 17 significant digits are ``N = round(|v| * 10**s)`` with
      ``s = 16 - floor(log10 |v|)``; ``|v| * 10**s`` is formed exactly as
      ``p + e`` by Dekker's TwoProduct, so N is rounded half-even as
      CPython's ``dtoa`` does, and a 4-digit table spells it out;
    - ``%g`` layout: fixed notation for decimal exponents -4..16, ``e-05``
      and ``e-06`` below, trailing zeros and a bare point dropped; ``-0.0``
      writes ``-0``;
    - a value outside ``10**-6 <= |v| < 10**17`` (nan and inf too) and a
      label beyond ``2**53`` are formatted per cell by ``%`` itself.
    """
    if values.shape[1] == 0:
        raise DimensionError(f"cannot write a table with no value columns: {path}")
    labels = None if labels is None else np.asarray(labels, dtype=np.int64)
    block = max(1, _BLOCK_CELLS // (values.shape[1] + (labels is not None)))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for lo in range(0, values.shape[0], block):
            fh.write(_format_block(values[lo:lo + block],
                                   None if labels is None else labels[lo:lo + block]))


def write_data_csv(path, data: DataMatrix) -> None:
    """Write a dataset with generic feature headers (and a label column if any)."""
    header = [f"f{j + 1}" for j in range(data.n_features)]
    if data.labels is not None:
        header.append("label")
    _write_table(path, data.values, data.labels, header)


def write_embedding_csv(path, coordinates: np.ndarray, labels=None) -> None:
    """Write projected coordinates with component_i headers."""
    coords = np.asarray(coordinates, dtype=np.float64)
    header = [f"component_{j + 1}" for j in range(coords.shape[1])]
    if labels is not None:
        header.append("label")
    _write_table(path, coords, labels, header)


@dataclass(frozen=True)
class ModelFile:
    """A serialized fit: the model plus CLI-level context.

    ``feature_scale`` is the per-feature divisor applied before fitting when
    z-scoring was requested (None otherwise); transform must re-apply it.
    ``provenance`` records input file names, the seed, and a timestamp, and
    carries no numeric content.
    """

    model: ComponentModel
    feature_scale: np.ndarray | None = None
    provenance: dict | None = None


def save_model(path, model: ComponentModel, feature_scale=None, provenance=None) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "method": model.method,
        "n_features": model.n_features,
        "n_components": model.n_components,
        "alpha": model.alpha,
        "target_mean": model.target_mean.tolist(),
        "background_mean": None if model.background_mean is None else model.background_mean.tolist(),
        "feature_scale": None if feature_scale is None else np.asarray(feature_scale, dtype=np.float64).tolist(),
        "components": model.components.tolist(),
        "eigenvalues": model.eigenvalues.tolist(),
        "regularization": {
            "ridge_target": model.ridge_target,
            "ridge_background": model.ridge_background,
            "floor_rel": model.floor_rel,
        },
        "provenance": provenance or {},
    }
    write_json(path, doc)


def write_json(path, doc) -> None:
    """Write ``doc`` as UTF-8 JSON, indented by two spaces, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_model(path) -> ModelFile:
    """Read a model file written by :func:`save_model`.

    Anything that is not such a file is an :class:`InvalidInputError` naming
    ``path``: text that is not JSON, a document that is not an object, a
    missing field, and values the model would reject (non-finite components,
    eigenvalues or means, or an ``alpha`` or ridge that is not a finite
    nonnegative number, for one), an ``n_features`` or ``n_components``
    other than the shape of ``components``, or a ``feature_scale`` that is
    not a finite positive vector of length ``n_features``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}: not a valid model file: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidInputError(
            f"{path}: malformed model file: expected a JSON object, got {type(doc).__name__}")
    version = doc.get("format_version")
    if type(version) is not int or version != MODEL_FORMAT_VERSION:  # JSON true == 1.0 == 1
        raise InvalidInputError(
            f"{path}: unsupported model format version {version!r}")
    try:
        reg = doc.get("regularization", {})
        model = ComponentModel(
            method=doc["method"],
            components=np.asarray(doc["components"], dtype=np.float64),
            eigenvalues=np.asarray(doc["eigenvalues"], dtype=np.float64),
            target_mean=np.asarray(doc["target_mean"], dtype=np.float64),
            alpha=doc.get("alpha"),
            background_mean=None if doc.get("background_mean") is None
            else np.asarray(doc["background_mean"], dtype=np.float64),
            ridge_target=reg.get("ridge_target", 0.0),
            ridge_background=reg.get("ridge_background"),
            floor_rel=reg.get("floor_rel"),
        )
        for name, size in (("n_features", model.n_features), ("n_components", model.n_components)):
            if type(doc[name]) is not int or doc[name] != size:  # JSON true == 1
                raise InvalidInputError(f"{name} is {doc[name]!r}, but components are "
                                        f"{model.n_features} x {model.n_components}")
        scale = doc.get("feature_scale")
        if scale is not None:
            scale = np.asarray(scale, dtype=np.float64)
            if scale.shape != (model.n_features,):
                raise InvalidInputError(f"feature_scale has shape {scale.shape}, "
                                        f"expected ({model.n_features},)")
            if not np.all((scale > 0) & (scale < np.inf)):  # nan fails both
                raise InvalidInputError("feature_scale must be finite and positive")
    except KeyError as exc:
        raise InvalidInputError(f"{path}: model file is missing field {exc}") from exc
    except (TypeError, ValueError, AttributeError, InvalidInputError) as exc:
        raise InvalidInputError(f"{path}: malformed model file: {exc}") from exc
    return ModelFile(model=model, feature_scale=scale, provenance=doc.get("provenance") or {})


def ensure_parent(path) -> Path:
    """Create the parent directory of an output path if needed."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    return p
