"""File formats used by the CLI: CSV tables and JSON model files.

CSV tables are UTF-8, with or without a leading byte-order mark, and
comma-separated with an optional single header row; a final integer column
named ``label`` (by header name) is read as labels. The first non-empty line
is the header when fewer than half of its cells parse with ``float()``;
otherwise it is the first data row, and a bad cell there is an error like one
in any other row. The data rows go
through numpy's C parser in one call, so no step runs per cell in Python:
cells may be quoted with ``"`` and padded with spaces, empty lines are
skipped, CRLF and CR endings are read as LF (universal newlines), and there
are no comment lines (``#`` is a non-numeric cell). Every error names the file
and the 1-based data row.
Numbers are written with ``%.17g`` (17 significant digits) so values survive
a round trip exactly.

Model files are JSON; Python's float repr in JSON is already
shortest-round-trip, so numeric fields reload bit-exact.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datamodel import DataMatrix
from .errors import InvalidInputError
from .methods import ComponentModel

MODEL_FORMAT_VERSION = 1


def _next_row(fh):
    """Advance ``fh`` to the next non-blank line; return its start and cells.

    Returns ``None`` at end of file. A line is blank when it holds nothing
    but its line ending, as with :func:`csv.reader`.
    """
    while True:
        start = fh.tell()
        line = fh.readline()
        if not line:
            return None
        cells = next(csv.reader([line]), [])
        if cells:
            return start, cells


def _parses_as_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


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


def read_csv(path) -> DataMatrix:
    """Read a data table; returns values and, when present, labels.

    The returned DataMatrix adopts the parsed table, so an unlabelled file
    is held once. A labelled one gets one C-contiguous copy of its value
    columns, the layout every later product expects.
    """
    # utf-8-sig drops a leading byte-order mark, which would otherwise make
    # the first cell non-numeric and turn a data row into a header
    with open(path, "r", encoding="utf-8-sig") as fh:
        first = _next_row(fh)
        if first is None:
            raise InvalidInputError(f"{path}: file contains no data")
        start, cells = first
        header = None
        if 2 * sum(_parses_as_float(c) for c in cells) < len(cells):
            header = [c.strip() for c in cells]
            first_data = _next_row(fh)
            if first_data is None:
                raise InvalidInputError(f"{path}: header but no data rows")
            start = first_data[0]
        fh.seek(start)
        try:
            table = np.loadtxt(fh, dtype=np.float64, delimiter=",", comments=None,
                               quotechar='"', ndmin=2)
        except ValueError as exc:
            raise _parse_error(path, exc) from exc

    has_label = (header is not None and table.shape[1] >= 2
                 and header[-1].lower() == "label")
    labels = None
    if has_label:
        column = table[:, -1]
        # the range test is False for nan and inf too
        bad = np.flatnonzero(~(np.abs(column) < 2.0**63) | (column != np.floor(column)))
        if bad.size:
            raise InvalidInputError(f"{path}: row {bad[0] + 1}: label "
                                    f"{float(column[bad[0]])!r} is not a 64-bit integer")
        labels = column.astype(np.int64)
        table = np.ascontiguousarray(table[:, :-1])
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad.size:
        raise InvalidInputError(f"{path}: row {bad[0] + 1} contains a non-finite value")
    return DataMatrix._adopt(table, labels, finite_checked=True)


def _write_table(path, values: np.ndarray, labels, header: list[str]) -> None:
    """Write a header line, then one ``%.17g`` row per sample (``%d`` label last).

    Rows are formatted a block of about 64k cells at a time, so the Python
    floats behind the text never outgrow a small fixed buffer; the bytes are
    the same as formatting the whole table at once.
    """
    fmt = ",".join(["%.17g"] * values.shape[1])
    if labels is not None:
        fmt += ",%d"
        labels = np.asarray(labels)
    fmt += "\n"
    block = max(1, 65536 // (values.shape[1] + (labels is not None)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        # each block's rows are freed by the time the next block's are built
        for lo in range(0, values.shape[0], block):
            hi = lo + block
            if labels is None:
                fh.writelines(fmt % tuple(row) for row in values[lo:hi].tolist())
            else:
                fh.writelines(fmt % (*row, label) for row, label
                              in zip(values[lo:hi].tolist(), labels[lo:hi].tolist()))


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_model(path) -> ModelFile:
    """Read a model file written by :func:`save_model`.

    Anything that is not such a file is an :class:`InvalidInputError` naming
    ``path``: text that is not JSON, a document that is not an object, a
    missing field, and values the model would reject (non-finite components,
    eigenvalues or means, for one) or a ``feature_scale`` that is not a
    finite positive vector of length ``n_features``.
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
    if version != MODEL_FORMAT_VERSION:
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
    if p.parent and not p.parent.exists():
        p.parent.mkdir(parents=True, exist_ok=True)
    return p
