import dataclasses
import io
import json
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dpca import csvparse, fileio, methods
from dpca.datamodel import CovarianceEstimate, DataMatrix
from dpca.errors import DimensionError, InvalidInputError

from conftest import assert_same_model, random_spd, reference_read, reference_table


class TestCsvRoundTrip:
    def test_values_exact(self, tmp_path, rng):
        data = DataMatrix(rng.standard_normal((25, 4)) * np.pi)
        path = tmp_path / "data.csv"
        fileio.write_data_csv(path, data)
        back = fileio.read_csv(path)
        assert np.array_equal(back.values, data.values)
        assert back.labels is None

    def test_labels_exact(self, tmp_path, rng):
        data = DataMatrix(rng.standard_normal((10, 3)),
                          labels=rng.integers(0, 5, size=10))
        path = tmp_path / "data.csv"
        fileio.write_data_csv(path, data)
        back = fileio.read_csv(path)
        assert np.array_equal(back.values, data.values)
        assert np.array_equal(back.labels, data.labels)

    def test_embedding_round_trip(self, tmp_path, rng):
        coords = rng.standard_normal((7, 2)) / 3.0
        path = tmp_path / "emb.csv"
        fileio.write_embedding_csv(path, coords, labels=[0, 1, 0, 1, 0, 1, 0])
        back = fileio.read_csv(path)
        assert np.array_equal(back.values, coords)
        assert np.array_equal(back.labels, [0, 1, 0, 1, 0, 1, 0])

    def test_headerless_input(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("1.5,2\n3,4.25\n")
        back = fileio.read_csv(path)
        np.testing.assert_allclose(back.values, [[1.5, 2.0], [3.0, 4.25]])
        assert back.labels is None

    def test_label_requires_header_name(self, tmp_path):
        # trailing integer column without a 'label' header stays a feature
        path = tmp_path / "raw.csv"
        path.write_text("a,b\n1,0\n2,1\n")
        back = fileio.read_csv(path)
        assert back.n_features == 2
        assert back.labels is None


class TestCsvErrors:
    def test_ragged(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(InvalidInputError, match=r"bad\.csv: row 2 has 1 cells, expected 2"):
            fileio.read_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,oops\n")
        with pytest.raises(InvalidInputError, match=r"bad\.csv: row 1: column 2 holds 'oops'"):
            fileio.read_csv(path)

    def test_non_finite(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,nan\n")
        with pytest.raises(InvalidInputError, match=r"bad\.csv: row 1 contains a non-finite"):
            fileio.read_csv(path)

    def test_non_integer_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f1,label\n1.0,0.5\n")
        with pytest.raises(InvalidInputError,
                           match=r"bad\.csv: row 1: label 0\.5 is not a 64-bit integer"):
            fileio.read_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("")
        with pytest.raises(InvalidInputError):
            fileio.read_csv(path)

    def test_header_without_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f1,f2\n")
        with pytest.raises(InvalidInputError):
            fileio.read_csv(path)

    def test_other_parser_message_kept_whole(self):
        # a numpy message that names neither a ragged row nor a cell
        err = fileio._parse_error("in.csv", ValueError("the parser gave up"))
        assert isinstance(err, InvalidInputError)
        assert str(err) == "in.csv: the parser gave up"


def read_text(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    return fileio.read_csv(path)


class TestCsvDialect:
    """The accepted dialect: quoting, line endings, empty lines, padding."""

    def test_crlf_line_endings(self, tmp_path):
        back = read_text(tmp_path, "f1,label\r\n1.5,0\r\n2,1\r\n")
        assert back.values.tolist() == [[1.5], [2.0]]
        assert back.labels.tolist() == [0, 1]

    def test_cr_line_endings(self, tmp_path):
        back = read_text(tmp_path, "f1,f2\r1,2\r3,4\r")
        assert back.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_blank_lines_skipped_even_before_header(self, tmp_path):
        back = read_text(tmp_path, "\n\r\nf1,label\n\n1,0\r\n\n2.5,1\n\n")
        assert back.values.tolist() == [[1.0], [2.5]]
        assert back.labels.tolist() == [0, 1]

    def test_blank_line_before_headerless_data(self, tmp_path):
        back = read_text(tmp_path, "\n1,2\n\n3,4\n")
        assert back.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_quoted_cells(self, tmp_path):
        back = read_text(tmp_path, '"f1","label"\n"1.5","1"\n')
        assert back.values.tolist() == [[1.5]]
        assert back.labels.tolist() == [1]

    def test_spaces_around_cells(self, tmp_path):
        back = read_text(tmp_path, " f1 , label \n 1.5 , 2 \n3,4\n")
        assert back.values.tolist() == [[1.5], [3.0]]
        assert back.labels.tolist() == [2, 4]

    def test_byte_order_mark_headerless(self, tmp_path):
        # the mark must not make the first data row look like a header
        back = read_text(tmp_path, "\ufeff1.5,2\n3,4\n")
        assert back.values.tolist() == [[1.5, 2.0], [3.0, 4.0]]
        assert back.labels is None

    def test_byte_order_mark_with_label_header(self, tmp_path):
        back = read_text(tmp_path, "\ufefff1,label\n1.5,0\n2,1\n")
        assert back.values.tolist() == [[1.5], [2.0]]
        assert back.labels.tolist() == [0, 1]

    def test_one_row(self, tmp_path):
        back = read_text(tmp_path, "1,2,3")
        assert back.values.tolist() == [[1.0, 2.0, 3.0]]

    def test_one_column(self, tmp_path):
        back = read_text(tmp_path, "x\n1\n-2e3\n")
        assert back.values.tolist() == [[1.0], [-2000.0]]
        assert back.labels is None

    def test_label_written_as_float(self, tmp_path):
        back = read_text(tmp_path, "f1,label\n0.5,1.0\n0.25,-2.0\n")
        assert back.labels.dtype == np.int64
        assert back.labels.tolist() == [1, -2]

    def test_hash_is_a_cell_not_a_comment(self, tmp_path):
        with pytest.raises(InvalidInputError, match=r"in\.csv: row 2: column 1 holds '#'"):
            read_text(tmp_path, "f1,f2\n1,2\n#,4\n")

    @pytest.mark.parametrize("first,column,cell", [("1,x", 2, "x"), ("1.5,2,x", 3, "x"),
                                                   ("x,1", 1, "x")])
    def test_mostly_numeric_first_row_is_data(self, tmp_path, first, column, cell):
        # at least half of the cells are numbers: a typo, not a header
        width = first.count(",") + 1
        rest = "\n".join(",".join(["3"] * width) for _ in range(2))
        with pytest.raises(InvalidInputError,
                           match=rf"in\.csv: row 1: column {column} holds '{cell}', not a number"):
            read_text(tmp_path, f"{first}\n{rest}\n")

    @pytest.mark.parametrize("header", ["f1,f2,label", "f1,2,label", "a", " f1 , f2 , f3 , label "])
    def test_mostly_text_first_row_is_header(self, tmp_path, header):
        width = header.count(",") + 1
        back = read_text(tmp_path, header + "\n" + ",".join(["1"] * width) + "\n")
        assert back.m == 1
        assert (back.labels is not None) == header.strip().endswith("label")

    def test_underscore_digits_rejected(self, tmp_path):
        # float() accepts "1_0"; the CSV dialect does not
        with pytest.raises(InvalidInputError, match=r"row 1: column 1 holds '1_0'"):
            read_text(tmp_path, "1_0,2\n")


def loadtxt_refused(*args, **kwargs):
    raise AssertionError("np.loadtxt was called")


def cells_rewritten(text, cell):
    """``text`` with each cell of each line passed through ``cell``."""
    return "".join(",".join(map(cell, line.split(","))) + "\n" for line in text.splitlines())


DIALECT_FORMS = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "cr": lambda text: text.replace("\n", "\r"),
    # a lone CR ends the header only
    "cr_header_only": lambda text: text.replace("\n", "\r", 1),
    "quoted": lambda text: cells_rewritten(text, lambda c: f'"{c}"'),
    "padded": lambda text: cells_rewritten(text, lambda c: f" {c}  "),
    "inner_blank_lines": lambda text: text.replace("\n", "\n\n"),
    "mark": lambda text: "\ufeff" + text,
    "mark_crlf": lambda text: "\ufeff" + text.replace("\n", "\r\n"),
}


class TestOneFrontEnd:
    """The layout is found once; both parsers read the same rows from it."""

    @pytest.mark.parametrize("writer", ["data", "embedding"])
    @pytest.mark.parametrize("labelled", [False, True], ids=["unlabelled", "labelled"])
    @pytest.mark.parametrize("before,headerless,ending,after", [
        ("", False, "\n", ""), ("\ufeff", False, "\n", ""), ("\n", False, "\n", ""),
        ("", True, "\n", ""), ("\ufeff", True, "\n", ""), ("\ufeff\n\n", True, "\n", ""),
        ("", False, "\r\n", ""), ("", False, "\n", "\n"),
        ("\ufeff\r\n", True, "\r\n", "\r\n\n\r\n"), ("", False, "\r", ""),
        ("", False, ("\r", "\n"), "")],
        ids=["plain", "mark", "blank_line", "headerless", "mark_headerless",
             "mark_blank_headerless", "crlf", "trailing_blank_line",
             "mark_blank_headerless_crlf_trailing_blank_lines", "cr", "cr_header_only"])
    def test_written_tables_take_the_kernel(self, tmp_path, rng, monkeypatch, writer, labelled,
                                            before, headerless, ending, after):
        values = rng.standard_normal((30, 4))
        labels = rng.integers(0, 3, 30) if labelled else None
        path = tmp_path / "t.csv"
        if writer == "data":
            fileio.write_data_csv(path, DataMatrix(values, labels=labels))
        else:
            fileio.write_embedding_csv(path, values, labels)
        text = path.read_text()
        if headerless:  # without its header, a label column is a value column
            text = text.split("\n", 1)[1]
            if labelled:
                values, labels = np.column_stack([values, labels]), None
        if isinstance(ending, tuple):  # the header's line ending, then the rows'
            header_ending, ending = ending
            text = text.replace("\n", header_ending, 1)
        path.write_bytes((before + text.replace("\n", ending) + after).encode("utf-8"))
        monkeypatch.setattr(np, "loadtxt", loadtxt_refused)
        back = fileio.read_csv(path)
        assert back.values.tobytes() == np.ascontiguousarray(values).tobytes()
        assert (back.labels is None) == (labels is None)
        if labels is not None:
            assert back.labels.tolist() == labels.tolist()

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_non_ascii_header_takes_the_kernel(self, tmp_path, monkeypatch, ending):
        # the first data row starts at a byte offset, not at a count of characters
        path = tmp_path / "in.csv"
        text = "\ufeffGröße,Länge €,label\n1.5,-2,3\n4,5e-1,-6\n".replace("\n", ending)
        path.write_bytes(text.encode("utf-8"))
        monkeypatch.setattr(np, "loadtxt", loadtxt_refused)
        back = fileio.read_csv(path)
        assert back.values.tolist() == [[1.5, -2.0], [4.0, 0.5]]
        assert back.labels.tolist() == [3, -6]

    @pytest.mark.parametrize("labelled", [False, True], ids=["unlabelled", "labelled"])
    @pytest.mark.parametrize("form", DIALECT_FORMS)
    def test_dialect_forms_read_as_the_lf_form(self, tmp_path, rng, labelled, form):
        values = rng.standard_normal((40, 3)) * 10.0 ** rng.integers(-5, 5, (40, 3))
        lf, other = tmp_path / "lf.csv", tmp_path / "form.csv"
        fileio.write_data_csv(lf, DataMatrix(values, labels=rng.integers(-3, 4, 40)
                                             if labelled else None))
        other.write_bytes(DIALECT_FORMS[form](lf.read_text()).encode("utf-8"))
        want, got = fileio.read_csv(lf), fileio.read_csv(other)
        assert got.values.tobytes() == want.values.tobytes()
        assert (got.labels is None) == (want.labels is None)
        if want.labels is not None:
            assert got.labels.tolist() == want.labels.tolist()

    @pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_blank_lines_at_block_ends_take_the_kernel(self, tmp_path, monkeypatch, ending):
        # blocks of one row and the blank line after it: every blank line ends a block
        rows = [f"{k}.5,-{k}" for k in range(1, 10)]
        monkeypatch.setattr(csvparse, "_READ_BLOCK", len(rows[0] + 2 * ending))
        path = tmp_path / "in.csv"
        path.write_bytes(("f1,label" + ending + "".join(r + 2 * ending for r in rows)).encode())
        monkeypatch.setattr(np, "loadtxt", loadtxt_refused)
        back = fileio.read_csv(path)
        assert back.values.ravel().tolist() == [k + 0.5 for k in range(1, 10)]
        assert back.labels.tolist() == [-k for k in range(1, 10)]

    @pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("blank", [1, 3])
    def test_blank_lines_inside_a_later_block_take_the_kernel(self, tmp_path, monkeypatch,
                                                              ending, blank):
        # blocks of 5-8 rows; blank lines after rows 36-38, so at least one
        # lies inside a block, and after earlier blocks have parsed
        rows = [f"{k}.25,{k % 5 - 2}" for k in range(60)]
        monkeypatch.setattr(csvparse, "_READ_BLOCK", 64)
        body = "".join(r + ending + (blank * ending if 36 <= k <= 38 else "")
                       for k, r in enumerate(rows)).encode()
        path = tmp_path / "in.csv"
        path.write_bytes(("f1,label" + ending).encode() + body)
        blocks = kernel_blocks(monkeypatch)
        monkeypatch.setattr(np, "loadtxt", loadtxt_refused)
        back = fileio.read_csv(path)
        assert back.values.ravel().tolist() == [k + 0.25 for k in range(60)]
        assert back.labels.tolist() == [k % 5 - 2 for k in range(60)]
        # each block reaches the kernel once, its CRs made LFs and nothing else changed
        assert b"".join(blocks) == body.replace(b"\r", b"\n")

    @pytest.mark.parametrize("block", [8, 13, 21, 34])
    def test_cr_line_ends_across_blocks_take_the_kernel(self, tmp_path, monkeypatch, block):
        # LF, CRLF, lone CR and blank CR lines mixed; small blocks also cut
        # between a CR and its LF
        rng = np.random.default_rng(block)
        lines = [f"{k}.5,{k % 7}" for k in range(300)]
        text = "f1,label" + "".join(rng.choice(["\n", "\r\n", "\r", "\r\r"]) + line
                                    for line in lines)
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode())
        monkeypatch.setattr(csvparse, "_READ_BLOCK", block)
        monkeypatch.setattr(np, "loadtxt", loadtxt_refused)
        back = fileio.read_csv(path)
        assert back.values.ravel().tolist() == [k + 0.5 for k in range(300)]
        assert back.labels.tolist() == [k % 7 for k in range(300)]

    @pytest.mark.parametrize("block", [8, 13, 21, 34])
    def test_blocks_change_only_by_cr_to_lf(self, monkeypatch, block):
        rng = np.random.default_rng(block)
        lines = [f"{k},{k % 7}" for k in range(300)]
        text = ("".join(line + "".join(rng.choice(["\n", "\r\n", "\r"], rng.integers(1, 4)))
                        for line in lines) + "300,6").encode()
        monkeypatch.setattr(csvparse, "_READ_BLOCK", block)
        blocks = []
        for raw, size in csvparse._row_blocks(io.BytesIO(text)):
            lines_at = csvparse.PAD + size
            assert raw[:csvparse.PAD] + raw[lines_at:lines_at + 16] == b"\n" * (csvparse.PAD + 16)
            blocks.append(bytes(raw[csvparse.PAD:lines_at]))
        # a newline ends the last line, which had none
        assert b"".join(blocks) == text.replace(b"\r", b"\n") + b"\n"

    @pytest.mark.parametrize("block", [8, 13, 21, 34, 55])
    def test_row_end_forms_read_as_the_lf_form(self, tmp_path, monkeypatch, block):
        rng = np.random.default_rng(block)
        # short rows, so that blocks cut them in many places; subnormal
        # values and labels beyond 2**53 are read from their own text
        values = rng.integers(-99, 99, (300, 2)) / 4
        values[::37, 1] = 5e-324
        labels = rng.integers(-3, 4, 300)
        labels[::41] += 2**60
        lf = tmp_path / "lf.csv"
        fileio.write_data_csv(lf, DataMatrix(values, labels=labels))
        want = fileio.read_csv(lf)
        text = lf.read_bytes()
        runs = iter(rng.integers(1, 100, text.count(b"\n")).tolist())
        forms = {"lf": text, "crlf": text.replace(b"\n", b"\r\n"),
                 "cr": text.replace(b"\n", b"\r"),
                 "blank_runs": re.sub(b"\n", lambda _: b"\n" * next(runs), text)}
        monkeypatch.setattr(csvparse, "_READ_BLOCK", block)
        monkeypatch.setattr(np, "loadtxt", loadtxt_refused)
        blocks = kernel_blocks(monkeypatch)
        cut_crlf = only_blank = False
        for form, data in forms.items():
            path = tmp_path / f"{form}.csv"
            path.write_bytes(data)
            blocks.clear()
            got = fileio.read_csv(path)
            assert got.values.tobytes() == want.values.tobytes(), form
            assert got.labels.tolist() == want.labels.tolist(), form
            cut_crlf |= form == "crlf" and any(b.startswith(b"\n") for b in blocks)
            only_blank |= any(not b.strip(b"\n") for b in blocks)
        # the cases the forms are here for: a CRLF cut between its bytes, a
        # block of nothing but blank lines
        assert cut_crlf and only_blank


def kernel_blocks(monkeypatch):
    """The blocks ``csvparse.parse_block`` is given from now on, as it gets them.

    Each must be in the kernel's grammar: a declined block fails the test.
    """
    blocks = []
    real = csvparse.parse_block

    def parse(raw, size, *args):
        blocks.append(bytes(raw[csvparse.PAD:csvparse.PAD + size]))
        parsed = real(raw, size, *args)
        assert parsed is not None, "the kernel declined a block"
        return parsed

    monkeypatch.setattr(csvparse, "parse_block", parse)
    return blocks


class TestCsvErrorRows:
    """Errors name the file and the 1-based data row, blank lines not counted."""

    def test_ragged(self, tmp_path):
        with pytest.raises(InvalidInputError,
                           match=r"in\.csv: row 3 has 1 cells, expected 2"):
            read_text(tmp_path, "a,b\n1,2\n\n3,4\n5\n")

    def test_ragged_wide(self, tmp_path):
        with pytest.raises(InvalidInputError,
                           match=r"in\.csv: row 2 has 3 cells, expected 2"):
            read_text(tmp_path, "1,2\n3,4,5\n")

    def test_non_numeric(self, tmp_path):
        with pytest.raises(InvalidInputError,
                           match=r"in\.csv: row 2: column 2 holds 'oops', not a number"):
            read_text(tmp_path, "x,y\n1,2\n\n3,oops\n")

    def test_empty_cell(self, tmp_path):
        with pytest.raises(InvalidInputError, match=r"in\.csv: row 1: column 3 holds ''"):
            read_text(tmp_path, "a,b,c\n1,2,\n")

    def test_non_finite(self, tmp_path):
        with pytest.raises(InvalidInputError,
                           match=r"in\.csv: row 3 contains a non-finite value"):
            read_text(tmp_path, "1,2\n3,4\n\n5,inf\n")

    @pytest.mark.parametrize("cell", ["0.5", "nan", "inf", "1e300"])
    def test_non_integer_label(self, tmp_path, cell):
        with pytest.raises(InvalidInputError,
                           match=r"in\.csv: row 2: label .* is not a 64-bit integer"):
            read_text(tmp_path, f"f1,label\n1,0\n2,{cell}\n")

    def test_blank_only_file(self, tmp_path):
        with pytest.raises(InvalidInputError, match=r"in\.csv: file contains no data"):
            read_text(tmp_path, "\n\r\n\n")

    def test_header_then_blank_lines(self, tmp_path):
        with pytest.raises(InvalidInputError, match=r"in\.csv: header but no data rows"):
            read_text(tmp_path, "f1,f2\n\n\n")


EDGE_VALUES = np.array([[-0.0, 5e-324, 1.7976931348623157e308],
                        [3.0, -2.0, 1e16],
                        [0.1, -1.7976931348623157e308, -5e-324],
                        [2.0**53, 1 / 3, -123456789.0]])


class TestCsvWriterBytes:
    def test_data_csv_matches_reference(self, tmp_path):
        labels = np.array([-3, 0, 7, -1])
        path = tmp_path / "data.csv"
        fileio.write_data_csv(path, DataMatrix(EDGE_VALUES, labels=labels))
        expected = reference_table(EDGE_VALUES, labels, ["f1", "f2", "f3", "label"])
        assert path.read_bytes() == expected.encode("utf-8")

    def test_data_csv_without_labels(self, tmp_path):
        path = tmp_path / "data.csv"
        fileio.write_data_csv(path, DataMatrix(EDGE_VALUES))
        expected = reference_table(EDGE_VALUES, None, ["f1", "f2", "f3"])
        assert path.read_bytes() == expected.encode("utf-8")

    def test_embedding_csv_matches_reference(self, tmp_path):
        labels = [-1, -2, 0, 5]
        path = tmp_path / "emb.csv"
        fileio.write_embedding_csv(path, EDGE_VALUES, labels=labels)
        expected = reference_table(EDGE_VALUES, labels,
                                   ["component_1", "component_2", "component_3", "label"])
        assert path.read_bytes() == expected.encode("utf-8")

    def test_edge_values_read_back_bit_exact(self, tmp_path):
        path = tmp_path / "data.csv"
        fileio.write_data_csv(path, DataMatrix(EDGE_VALUES))
        assert fileio.read_csv(path).values.tobytes() == EDGE_VALUES.tobytes()

    @pytest.mark.parametrize("labels", [None, [1, 2]])
    def test_no_value_columns_rejected(self, tmp_path, labels):
        # a labels-only table would read back with the labels as its values
        path = tmp_path / "emb.csv"
        with pytest.raises(DimensionError, match="no value columns"):
            fileio.write_embedding_csv(path, np.zeros((2, 0)), labels=labels)
        assert not path.exists()


def whole_table(path, values, labels, header):
    """The writer as it was before row blocks: every row formatted in one pass."""
    rows = values.tolist()
    fmt = ",".join(["%.17g"] * values.shape[1])
    if labels is not None:
        fmt += ",%d"
        rows = [row + [label] for row, label in zip(rows, np.asarray(labels).tolist())]
    fmt += "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(fmt % tuple(row) for row in rows)


class TestRowBlocks:
    @pytest.mark.parametrize("labelled", [False, True])
    def test_many_blocks_match_whole_table(self, tmp_path, rng, labelled):
        # 40 columns: blocks of 1638 rows (1598 with a label), 2 blocks and a part
        values = rng.standard_normal((4500, 40)) * 10.0 ** rng.integers(-300, 300, (4500, 40))
        values[::97, 3] = -0.0
        values[5::89, 7] = 5e-324
        values[11::83, 11] = 1e300
        values[17::79, 19] = 0.1
        labels = rng.integers(-2**40, 2**40, 4500) if labelled else None
        header = [f"f{j + 1}" for j in range(40)] + (["label"] if labelled else [])
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        fileio.write_data_csv(got, DataMatrix(values, labels=labels))
        whole_table(want, values, labels, header)
        assert got.read_bytes() == want.read_bytes()

    def test_row_wider_than_a_block(self, tmp_path, rng):
        values = rng.standard_normal((3, 70000))
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        fileio.write_embedding_csv(got, values, labels=[4, -5, 6])
        whole_table(want, values, [4, -5, 6],
                    [f"component_{j + 1}" for j in range(70000)] + ["label"])
        assert got.read_bytes() == want.read_bytes()


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCsvMemory:
    """Peak traced memory around a 10000 x 50 table (3.8 MB of float64)."""

    def test_write_holds_one_block(self, tmp_path, rng):
        # one block of Python floats: 2.1 MiB measured, where formatting the
        # whole table at once took 5.4x the data (20 MiB)
        data = DataMatrix(rng.standard_normal((10000, 50)), labels=rng.integers(0, 3, 10000))
        peak = traced_peak(lambda: fileio.write_data_csv(tmp_path / "d.csv", data))
        assert peak < 3 * 2**20

    def test_unlabelled_read_is_adopted(self, tmp_path, rng):
        # the parsed table plus the finiteness scan's mask: 1.16x measured
        data = DataMatrix(rng.standard_normal((10000, 50)))
        fileio.write_data_csv(tmp_path / "d.csv", data)
        peak = traced_peak(lambda: fileio.read_csv(tmp_path / "d.csv"))
        assert peak < 1.25 * data.values.nbytes

    def test_labelled_read_fills_its_own_arrays(self, tmp_path, rng):
        # values and labels are written straight into their own arrays, with
        # no table of all the columns to copy the values out of
        data = DataMatrix(rng.standard_normal((10000, 50)), labels=rng.integers(0, 3, 10000))
        fileio.write_data_csv(tmp_path / "d.csv", data)
        peak = traced_peak(lambda: fileio.read_csv(tmp_path / "d.csv"))
        assert peak < 1.25 * (data.values.nbytes + data.labels.nbytes)

    @pytest.mark.parametrize("ending", [b"\r\n", b"\n\n"], ids=["crlf", "blank_lines"])
    def test_row_end_runs_keep_the_read_peak(self, tmp_path, rng, ending):
        # every block of these holds runs of row ends, which the kernel
        # skips as it tokenizes; that must not raise the peak
        data = DataMatrix(rng.standard_normal((10000, 50)), labels=rng.integers(0, 3, 10000))
        path = tmp_path / "d.csv"
        fileio.write_data_csv(path, data)
        path.write_bytes(path.read_bytes().replace(b"\n", ending))
        peak = traced_peak(lambda: fileio.read_csv(path))
        assert peak < 1.25 * (data.values.nbytes + data.labels.nbytes)


finite_tables = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
    elements=st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=60, deadline=None)
@given(values=finite_tables, data=st.data())
def test_write_read_round_trip(tmp_path_factory, values, data):
    # labels stay within the integers a float64 holds exactly
    labels = data.draw(hnp.arrays(np.int64, values.shape[0],
                                  elements=st.integers(-2**53, 2**53)))
    path = tmp_path_factory.mktemp("rt") / "data.csv"
    fileio.write_data_csv(path, DataMatrix(values, labels=labels))
    back = fileio.read_csv(path)
    assert back.values.tobytes() == np.ascontiguousarray(values).tobytes()
    assert np.array_equal(back.labels, labels)


def written_and_reference(path, values, labels=None):
    """Write ``values`` as an embedding; return its lines and the reference's."""
    values = np.asarray(values, dtype=np.float64)
    fileio.write_embedding_csv(path, values, labels=labels)
    header = [f"component_{j + 1}" for j in range(values.shape[1])]
    if labels is not None:
        header.append("label")
    want = reference_table(values, labels, header).encode()
    return path.read_bytes().split(b"\n"), want.split(b"\n")


# any double, nan and inf included (a projection can overflow), and doubles
# inside the vectorised writer's window 1e-6 <= |v| < 1e17, of either sign
table_floats = st.one_of(st.floats(), st.floats(1e-6, 1e17), st.floats(-1e17, -1e-6))


@settings(max_examples=200, deadline=None)
@given(values=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
                         elements=table_floats),
       data=st.data())
def test_embedding_bytes_match_reference(tmp_path_factory, values, data):
    labels = data.draw(st.none() | hnp.arrays(np.int64, values.shape[0]))
    got, want = written_and_reference(tmp_path_factory.mktemp("emb") / "emb.csv", values, labels)
    assert got == want


POWERS_OF_TEN = np.array([float(f"1e{k}") for k in range(-8, 19)])


def with_neighbours(values, k):
    """``values`` and the ``k`` nearest doubles on either side of each."""
    cells, lower, upper = [values], values, values
    for _ in range(k):
        lower, upper = np.nextafter(lower, -np.inf), np.nextafter(upper, np.inf)
        cells += [lower, upper]
    return np.concatenate(cells)


def signed(cells):
    """``cells`` and their negatives as the two columns of a table."""
    cells = np.asarray(cells, dtype=np.float64)
    return np.stack([cells, -cells], axis=1)


class TestCellKernel:
    """The writer's edge cases, each against ``format(v, '.17g')``."""

    def test_signed_zeros(self, tmp_path):
        fileio.write_embedding_csv(tmp_path / "z.csv", [[0.0, -0.0], [-0.0, 0.0]])
        assert (tmp_path / "z.csv").read_bytes() == b"component_1,component_2\n0,-0\n-0,0\n"

    def test_powers_of_ten_and_neighbours(self, tmp_path):
        # 1e-8 to 1e18 and 8 doubles either side: just under a power of ten
        # the 17-digit rounding comes closest to carrying into an 18th digit
        cells = signed(with_neighbours(POWERS_OF_TEN, 8))
        got, want = written_and_reference(tmp_path / "e.csv", cells)
        assert got == want

    def test_window_edges_and_neighbours(self, tmp_path):
        got, want = written_and_reference(tmp_path / "e.csv",
                                          signed(with_neighbours(np.array([1e-6, 1e17]), 3)))
        assert got == want

    def test_half_way_cases_round_to_even(self, tmp_path):
        # 18 significant digits, the last a 5: exact ties at 17 digits
        odd = np.arange(1, 2**12, 2)
        ties = np.concatenate([1 + odd * 2.0**-17, 123 + odd * 2.0**-15])
        got, want = written_and_reference(tmp_path / "e.csv", signed(ties))
        assert got == want
        assert got[1] == b"1.0000076293945312,-1.0000076293945312"  # ...3125 to even

    def test_labels_at_the_int64_extremes(self, tmp_path):
        labels = np.array([-2**63, 2**63 - 1, -2**53 - 1, 2**53 + 1, -2**53, 2**53, 0, -1])
        got, want = written_and_reference(tmp_path / "e.csv", np.ones((labels.size, 1)), labels)
        assert got == want
        assert [line.split(b",")[-1] for line in got[1:-1]] == [b"%d" % v for v in labels]

    def test_fallback_cells_are_those_outside_the_window(self):
        # what the kernel leaves to '%.17g': exactly the cells outside
        # 10**-6 <= |v| < 10**17, zeros aside; so is 1e-6, a double under 10**-6
        x = np.concatenate([with_neighbours(np.array([1e-6, 1e17]), 3),
                            [0.0, 5e-324, 1e-300, 1e300, np.nan, np.inf, 1.5]])
        x = np.concatenate([x, -x])
        window = (Fraction(1, 10**6), 10**17)
        outside = [not (np.isfinite(v) and (v == 0 or window[0] <= abs(Fraction(v)) < window[1]))
                   for v in x]
        words = np.zeros((x.size, 4), np.uint64)
        fallback = fileio._format_cells(x, np.zeros(x.size, np.intp), words[:, :3])
        assert fallback.tolist() == np.flatnonzero(outside).tolist()
        assert x[fallback[0]] == 1e-6


def kernel_read(path):
    """The values the kernel gives for the headerless rows at ``path``, in one flat array."""
    with open(path, "rb") as fh:
        width = fh.readline().count(b",") + 1
        fh.seek(0)
        table = csvparse.read_rows(fh, width, False)
    assert table is not None, "the file left the kernel's route"
    return table[0].ravel()


def assert_reads_as_float(tmp_path, cells, width=1):
    """Read ``cells`` as headerless rows of ``width``; each must be ``float()`` bit for bit."""
    path = tmp_path / "cells.csv"
    rows = [",".join(cells[i:i + width]) for i in range(0, len(cells), width)]
    path.write_text("\n".join(rows) + "\n")
    got = kernel_read(path)
    want = reference_read(path).ravel()
    assert want.tolist() == [float(cell) for cell in cells]
    wrong = [(cell, g, w) for cell, g, w in zip(cells, got.tolist(), want.tolist())
             if np.float64(g).tobytes() != np.float64(w).tobytes()]
    assert wrong == []


@st.composite
def digit_cells(draw):
    """A cell of the grammar from random digits: leading zeros, any point, any exponent."""
    digits = draw(st.text("0", max_size=4)) + draw(st.text("0123456789", min_size=1,
                                                           max_size=25))
    digits = digits[:25]
    point = draw(st.none() | st.integers(0, len(digits)))
    text = digits if point is None else digits[:point] + "." + digits[point:]
    text = draw(st.sampled_from(["", "-"])) + text
    exponent = draw(st.none() | st.integers(-400, 400))
    if exponent is not None:
        sign = "+" if exponent >= 0 and draw(st.booleans()) else ""
        text += draw(st.sampled_from("eE")) + sign + str(exponent).zfill(draw(st.integers(1, 4)))
    return text


any_double = st.floats(allow_nan=False, allow_infinity=False)
grammar_cells = st.one_of(
    any_double.map(lambda v: "%.17g" % v),
    any_double.map(repr),
    st.tuples(st.integers(0, 20), any_double).map(lambda a: "%.*e" % a),
    digit_cells(),
)


@settings(max_examples=300, deadline=None)
@given(cells=st.lists(grammar_cells, min_size=1, max_size=40), width=st.sampled_from([1, 2, 5]))
def test_kernel_reads_every_cell_as_float(tmp_path_factory, cells, width):
    cells = cells[:len(cells) // width * width] or cells[:1] * width
    assert_reads_as_float(tmp_path_factory.mktemp("cells"), cells, width)


def exact_text(value: Fraction) -> str:
    """``value`` in positional decimal notation, every digit exact."""
    digits = 0
    while (value * 10**digits).denominator != 1:
        digits += 1
    whole, part = divmod(abs(value.numerator) * 10**digits // value.denominator, 10**digits)
    text = str(whole) + (f".{part:0{digits}d}" if digits else "")
    return "-" + text if value < 0 else text


class TestReadKernel:
    """The reader's kernel on its edge cases, each against ``float()``."""

    @pytest.mark.parametrize("text", [b"", b"\n\r\n\r\n\n"], ids=["empty", "blank_lines"])
    def test_no_rows_give_none(self, tmp_path, text):
        # read_csv always starts it at a data row; on its own it may see none
        path = tmp_path / "in.csv"
        path.write_bytes(text)
        with open(path, "rb") as fh:
            assert csvparse.read_rows(fh, 2, False) is None

    def test_signed_zeros(self, tmp_path):
        cells = ["0", "-0", "0.0", "-0.0", "-.0", "0.", "0e400", "-0e-400", "0000", "-000.000e-5"]
        assert_reads_as_float(tmp_path, cells, 2)
        assert np.signbit(kernel_read(tmp_path / "cells.csv")).tolist() == [
            c.startswith("-") for c in cells]

    def test_powers_of_ten_and_neighbours(self, tmp_path):
        # 1e-30 to 1e30 and 3 doubles either side, as %.17g, as repr and with 20 digits
        values = with_neighbours(np.array([float(f"1e{k}") for k in range(-30, 31)]), 3)
        cells = [f % v for v in values.tolist() for f in ("%.17g", "%r", "%.19e")]
        assert_reads_as_float(tmp_path, cells + ["-" + c for c in cells], 6)

    def test_every_power_of_ten_in_and_beyond_the_table(self, tmp_path):
        # the table of powers of five covers 1e-342..1e308; past it, and for
        # subnormal or infinite results, the cell goes to float()
        assert_reads_as_float(tmp_path, [f"1e{k}" for k in range(-346, 312)], 2)

    def test_half_way_cases_round_to_even(self, tmp_path):
        # decimals exactly half-way between two doubles: odd multiples of half
        # the spacing at 2**52..2**62, and 2**53 + 1 as in the issue
        cells = ["9007199254740993", "9007199254740995", "-9007199254740993"]
        for spacing in range(-2, 11):
            base = Fraction(2) ** (52 + spacing)
            for odd in (1, 3, 5, 7, 2**20 + 1):
                cells.append(exact_text(base + odd * Fraction(2) ** spacing / 2))
        assert_reads_as_float(tmp_path, cells, 1)
        assert kernel_read(tmp_path / "cells.csv")[:2].tolist() == [2.0**53, 2.0**53 + 4]

    def test_window_edges(self, tmp_path):
        # 19 digits fit the 64-bit mantissa, 20 do not; leading zeros do not
        # count, but a cell has at most 23 mantissa digits; exponents have at
        # most 8 digits; the smallest normal double and its neighbours
        cells = ["9999999999999999999", "10000000000000000000", "1234567890123456789",
                 "12345678901234567890", "0.1234567890123456789", "0.12345678901234567891",
                 "123456789012345678901234", "00000000000000000000001",
                 "000000000000000000000001", "0000000000000000000000.1", "1" + "0" * 24,
                 "0." + "0" * 30 + "1", "18446744073709551615", "18446744073709551616",
                 "1e00000005", "1e000000005", "1e-00000005", "1e100000000", "1e-100000000",
                 "1e00000308", "1e-0000400", "1.7976931348623157e308",
                 "1.7976931348623159e308", "2.2250738585072014e-308",
                 "2.2250738585072011e-308", "4.9406564584124654e-324", "2.4703282292062328e-324"]
        assert_reads_as_float(tmp_path, cells + ["-" + c for c in cells], 2)

    def test_products_that_need_the_low_word(self, tmp_path):
        # mantissas whose product with the high word of 5**q ends in nine
        # one bits, and whose double is off by one without the low word
        cells = ["5.1500732148666214e238", "8.830485767220008334e103", "6.5228426066864580e-198",
                 "4.458507885468484486e-69", "5.3908525236264381e-109", "9.9954756621679206e-134",
                 "1.537602439221021511e143", "1.03241336089554387e145", "2.62050547177916126e124",
                 "5.5511517529263950e96", "8.322090532278530810e-283", "5.72867937265040252e103"]
        assert_reads_as_float(tmp_path, cells, 3)

    def test_rows_longer_than_a_block(self, tmp_path, rng):
        values = rng.standard_normal((3, 20000)) * 10.0 ** rng.integers(-30, 30, (3, 20000))
        fileio.write_embedding_csv(tmp_path / "wide.csv", values, labels=[4, -5, 6])
        back = fileio.read_csv(tmp_path / "wide.csv")
        assert back.values.tobytes() == values.tobytes()
        assert back.labels.tolist() == [4, -5, 6]

    def test_exponent_without_digits_declined(self, tmp_path):
        # '1e-.5' passes the token-pair check; only the exponent guard stops
        # the kernel reading it as 0.0
        path = tmp_path / "in.csv"
        path.write_text("x\n1\n1e-.5\n")
        with open(path, "rb") as fh:
            fh.readline()
            assert csvparse.read_rows(fh, 1, False) is None
        with pytest.raises(InvalidInputError,
                           match=r"in\.csv: row 2: column 1 holds '1e-\.5', not a number"):
            fileio.read_csv(path)

    @pytest.mark.parametrize("label", [False, True], ids=["unlabelled", "labelled"])
    def test_rows_beyond_the_estimate_grow_the_arrays(self, tmp_path, rng, label):
        # long rows first, then short ones: the first block's rows per byte
        # undershoot, so the values (and labels) arrays are resized
        rows = [",".join("%.17g" % v for v in row) for row in rng.standard_normal((3000, 8))]
        rows += ["0,0,0,0,0,0,0,0"] * 40000
        header = ",".join(f"f{j}" for j in range(1, 9))
        if label:
            header += ",label"
            rows = [f"{row},{i % 3}" for i, row in enumerate(rows)]
        path = tmp_path / "grow.csv"
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        data = fileio.read_csv(path)
        got = data.values if not label else np.column_stack([data.values, data.labels])
        assert got.tolist() == reference_read(path).tolist()
        assert (data.labels is not None) == label


INT64_EXTREMES = [-2**63, 2**63 - 1, -2**53 - 1, 2**53 + 1, -2**53, 2**53, 0, -1, 2**62 + 1,
                  -2**63 + 1]


LABEL_CELLS = {  # a label cell and its integer, or the error it gives
    "0": 0, "-0": 0, "2.0": 2, "1e3": 1000, "9007199254740993": 2**53 + 1,
    "-9007199254740993": -2**53 - 1, "9223372036854775807": 2**63 - 1,
    "-9223372036854775808": -2**63, "00000000000000000000001": 1,
    "0.5": "label 0.5 is", "9223372036854775808": "label 9223372036854775808 is",
    "1e19": "label 1e+19 is", "nan": "label nan is",
}


class TestLabelsExact:
    """A plain integer label is read as the integer it spells, on both routes."""

    # a lone CR takes the kernel as LF does; a space before each line end,
    # a padded last cell, sends the table to np.loadtxt
    @pytest.mark.parametrize("ending", ["\n", "\r", " \n", "\r\n", "\n\n"],
                             ids=["kernel", "loadtxt", "padded", "crlf", "blank_lines"])
    def test_labels_at_the_int64_extremes(self, tmp_path, ending):
        path = tmp_path / "emb.csv"
        fileio.write_embedding_csv(path, np.ones((len(INT64_EXTREMES), 1)), INT64_EXTREMES)
        path.write_bytes(path.read_bytes().replace(b"\n", ending.encode()))
        assert fileio.read_csv(path).labels.tolist() == INT64_EXTREMES

    # a lone CR takes the kernel as LF does; a space before each line end,
    # a padded last cell, sends the table to np.loadtxt
    @pytest.mark.parametrize("ending", ["\n", "\r", " \n", "\r\n", "\n\n"],
                             ids=["kernel", "loadtxt", "padded", "crlf", "blank_lines"])
    @pytest.mark.parametrize("cell", ["9223372036854775808", "-9223372036854775809",
                                      "99999999999999999999999"])
    def test_integers_beyond_int64_rejected(self, tmp_path, ending, cell):
        path = tmp_path / "in.csv"
        path.write_bytes(f"f1,label\n1,0\n2,{cell}\n".replace("\n", ending).encode())
        with pytest.raises(InvalidInputError,
                           match=rf"in\.csv: row 2: label {cell} is not a 64-bit integer"):
            fileio.read_csv(path)

    @pytest.mark.parametrize("route,cell", [(route, cell) for route in ("kernel", "loadtxt")
                                            for cell in LABEL_CELLS
                                            if route == "loadtxt" or cell != "nan"])
    def test_label_cells_on_both_routes(self, tmp_path, monkeypatch, route, cell):
        # the kernel declines "nan", which leaves it to np.loadtxt
        rows = [["f1", "label"], ["1", "0"], ["2", cell]]
        if route == "kernel":
            monkeypatch.setattr(np, "loadtxt", loadtxt_refused)
        else:
            rows = [[f'"{c}"' for c in row] for row in rows]
        path = tmp_path / "in.csv"
        path.write_text("".join(",".join(row) + "\n" for row in rows))
        want = LABEL_CELLS[cell]
        if isinstance(want, int):
            assert fileio.read_csv(path).labels.tolist() == [0, want]
        else:
            with pytest.raises(InvalidInputError) as err:
                fileio.read_csv(path)
            assert str(err.value) == f"{path}: row 2: {want} not a 64-bit integer"


class TestHeaderWidth:
    """A header must have as many names as the first data row has cells, on both routes."""

    # a lone CR takes the kernel as LF does; a space before each line end,
    # a padded last cell, sends the table to np.loadtxt
    @pytest.mark.parametrize("ending", ["\n", "\r", " \n"], ids=["kernel", "loadtxt", "padded"])
    @pytest.mark.parametrize("text, header, row", [
        ("f1,f2,label\n1.5,2\n3,4\n", 3, 2),  # would read the second column as labels
        ("a,b,c,d\n1,2\n3,4\n", 4, 2),
        ("a\n1,2\n3,4\n", 1, 2),
    ], ids=["label_over_2", "4_over_2", "1_over_2"])
    def test_width_mismatch_rejected(self, tmp_path, ending, text, header, row):
        path = tmp_path / "in.csv"
        path.write_bytes(text.replace("\n", ending).encode())
        with pytest.raises(InvalidInputError,
                           match=rf"in\.csv: header has {header} columns, "
                                 rf"the first data row has {row}"):
            fileio.read_csv(path)

    def test_quoted_first_row_counted_as_cells(self, tmp_path):
        # the comma inside the quotes is not a separator; the row has 2 cells
        path = tmp_path / "in.csv"
        path.write_text('f1,f2,f3\n"1,5",2\n')
        with pytest.raises(InvalidInputError, match="header has 3 columns, the first data row has 2"):
            fileio.read_csv(path)


def make_models(rng):
    cov_a = CovarianceEstimate(random_spd(rng, 5), 10, 0.1)
    cov_b = CovarianceEstimate(random_spd(rng, 5), 20, 0.0)
    mean = rng.standard_normal(5)
    return [
        methods.pca_fit(cov_a, 2, target_mean=mean),
        methods.cpca_fit(cov_a, cov_b, 3.25, 2, target_mean=mean, background_mean=-mean),
        methods.dpca_fit(cov_a, cov_b, 3, target_mean=mean, background_mean=-mean),
    ]


class TestModelRoundTrip:
    def test_numeric_fields_exact(self, tmp_path, rng):
        for i, model in enumerate(make_models(rng)):
            path = tmp_path / f"model{i}.json"
            fileio.save_model(path, model, provenance={"seed": 0})
            stored = fileio.load_model(path)
            back = stored.model
            assert back.method == model.method
            assert np.array_equal(back.components, model.components)
            assert np.array_equal(back.eigenvalues, model.eigenvalues)
            assert np.array_equal(back.target_mean, model.target_mean)
            assert back.alpha == model.alpha
            if model.background_mean is None:
                assert back.background_mean is None
            else:
                assert np.array_equal(back.background_mean, model.background_mean)
            assert back.ridge_target == model.ridge_target
            assert back.ridge_background == model.ridge_background
            assert back.floor_rel == model.floor_rel

    def test_feature_scale_round_trip(self, tmp_path, rng):
        for i, model in enumerate(make_models(rng)):
            model = dataclasses.replace(model, feature_scale=rng.uniform(0.5, 2.0, size=5))
            path = tmp_path / f"model{i}.json"
            fileio.save_model(path, model)
            back = fileio.load_model(path).model
            assert back.feature_scale.tobytes() == model.feature_scale.tobytes()
            # the file does not carry the fit's diagnostics
            assert_same_model(back, dataclasses.replace(model, diagnostics=None))

    def test_provenance_preserved(self, tmp_path, rng):
        model = make_models(rng)[0]
        prov = {"target_file": "t.csv", "seed": 42, "created_utc": "2026-01-01T00:00:00+00:00"}
        path = tmp_path / "model.json"
        fileio.save_model(path, model, provenance=prov)
        assert fileio.load_model(path).provenance == prov

    def test_bad_version_rejected(self, tmp_path, rng):
        path = tmp_path / "model.json"
        fileio.save_model(path, make_models(rng)[0])
        doc = path.read_text().replace('"format_version": 1', '"format_version": 99')
        path.write_text(doc)
        with pytest.raises(InvalidInputError):
            fileio.load_model(path)

    @pytest.mark.parametrize("version,loaded", [("true", "True"), ("1.0", "1.0")])
    def test_version_of_another_type_rejected(self, tmp_path, rng, version, loaded):
        # both equal 1 in Python, but neither is the integer the writer stores
        path = tmp_path / "model.json"
        fileio.save_model(path, make_models(rng)[0])
        path.write_text(path.read_text().replace('"format_version": 1',
                                                 f'"format_version": {version}'))
        with pytest.raises(InvalidInputError, match=f"unsupported model format version {loaded}$"):
            fileio.load_model(path)

    @pytest.mark.parametrize("field,value", [("n_features", 7), ("n_components", 9),
                                             ("n_features", 5.0), ("n_components", True)])
    def test_shape_fields_must_match_components(self, tmp_path, rng, field, value):
        # the model is 5 features by 2 components; 5.0 and true compare equal to ints
        path = tmp_path / "model.json"
        model = make_models(rng)[0]
        fileio.save_model(path, model)
        doc = json.loads(path.read_text())
        assert (doc["n_features"], doc["n_components"]) == (5, 2)
        fileio.write_json(path, {**doc, field: value})
        with pytest.raises(InvalidInputError, match=f"malformed model file: {field} is"):
            fileio.load_model(path)
        del doc[field]
        fileio.write_json(path, doc)
        with pytest.raises(InvalidInputError, match=f"missing field '{field}'"):
            fileio.load_model(path)

    @pytest.mark.parametrize("field,value", [("alpha", "abc"), ("alpha", -2.0),
                                             ("ridge_target", "zz"), ("ridge_background", -1.0),
                                             ("floor_rel", True)])
    def test_bad_scalar_rejected(self, tmp_path, rng, field, value):
        path = tmp_path / "model.json"
        fileio.save_model(path, make_models(rng)[1])  # the cPCA model
        doc = json.loads(path.read_text())
        if field == "alpha":
            doc["alpha"] = value
        else:
            doc["regularization"][field] = value
        fileio.write_json(path, doc)
        with pytest.raises(InvalidInputError, match=f"malformed model file: {field} must be"):
            fileio.load_model(path)

    @pytest.mark.parametrize("scale", [[1.0] * 4, [1.0] * 6, [[1.0] * 5]])
    def test_feature_scale_of_wrong_shape_rejected(self, tmp_path, rng, scale):
        # the model refuses such a scale, so the file is written by hand
        path = tmp_path / "model.json"
        fileio.save_model(path, make_models(rng)[0])
        fileio.write_json(path, {**json.loads(path.read_text()), "feature_scale": scale})
        with pytest.raises(InvalidInputError, match="malformed model file: feature_scale"):
            fileio.load_model(path)

    @pytest.mark.parametrize("mean", [[1.0] * 7, [[1.0] * 5], [1.0] * 4])
    def test_background_mean_of_wrong_shape_rejected(self, tmp_path, rng, mean):
        path = tmp_path / "model.json"
        fileio.save_model(path, make_models(rng)[2])  # the dPCA model, 5 features
        fileio.write_json(path, {**json.loads(path.read_text()), "background_mean": mean})
        with pytest.raises(InvalidInputError,
                           match=re.escape(f"{path}: malformed model file: background_mean "
                                           "must have length 5")):
            fileio.load_model(path)

    @pytest.mark.parametrize("section", ["abc", [1], None, 0])
    def test_regularization_not_an_object_rejected(self, tmp_path, rng, section):
        path = tmp_path / "model.json"
        fileio.save_model(path, make_models(rng)[2])
        fileio.write_json(path, {**json.loads(path.read_text()), "regularization": section})
        with pytest.raises(InvalidInputError, match=re.escape(f"{path}: malformed model file: ")):
            fileio.load_model(path)

    @pytest.mark.parametrize("key", ["method", "n_features", "n_components", "alpha",
                                     "target_mean", "background_mean", "feature_scale",
                                     "components", "eigenvalues", "regularization",
                                     "ridge_target", "ridge_background", "floor_rel"])
    def test_key_required_exactly_without_a_default(self, tmp_path, rng, key):
        # a key the file leaves out takes the model's default; one without a default
        # (n_features and n_components are the shape of components) must be present
        path = tmp_path / "model.json"
        model = dataclasses.replace(make_models(rng)[2], feature_scale=np.full(5, 2.0))
        fileio.save_model(path, model)
        doc = json.loads(path.read_text())
        del (doc["regularization"] if key in doc["regularization"] else doc)[key]
        fileio.write_json(path, doc)
        if key in ("method", "n_features", "n_components", "target_mean", "components",
                   "eigenvalues"):
            with pytest.raises(InvalidInputError, match=f"missing field '{key}'"):
                fileio.load_model(path)
            return
        defaults = {"alpha": None, "background_mean": None, "feature_scale": None,
                    "ridge_target": 0.0, "ridge_background": None, "floor_rel": None}
        names = ("ridge_target", "ridge_background", "floor_rel") if key == "regularization" \
            else (key,)
        expected = dataclasses.replace(model, diagnostics=None,
                                       **{name: defaults[name] for name in names})
        assert_same_model(fileio.load_model(path).model, expected)

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("definitely not json{")
        with pytest.raises(InvalidInputError):
            fileio.load_model(path)


GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", ["model_dpca.json", "model_pca_zscore.json",
                                  "model_cpca_ridge.json"])
class TestGoldenModelFiles:
    """Format-1 model files as the CLI wrote them, kept under ``tests/data``.

    Written from ``dpca synth --features 5 -m 20 -n 30 --seed 1`` by ``fit
    dpca``, ``fit pca --zscore`` (sets ``feature_scale``) and ``fit cpca
    --alpha 2.5 --ridge 0.5`` (sets ``alpha`` and both ridges).
    """

    def test_loads_to_the_stored_values(self, name):
        # the expected model is read off the JSON here, key by key, not by the layout
        doc = json.loads((GOLDEN / name).read_text())
        stored = fileio.load_model(GOLDEN / name)
        model = stored.model
        assert model.method == doc["method"]
        assert (model.n_features, model.n_components) == (doc["n_features"], doc["n_components"])
        for field in ("target_mean", "background_mean", "feature_scale", "components",
                      "eigenvalues"):
            value = getattr(model, field)
            if doc[field] is None:
                assert value is None, field
            else:
                expected = np.array(doc[field], dtype=np.float64)
                assert value.shape == expected.shape, field
                assert value.tobytes() == expected.tobytes(), field
        for field, value in (("alpha", doc["alpha"]), *doc["regularization"].items()):
            assert getattr(model, field) == value and type(getattr(model, field)) is type(value)
        assert stored.provenance == doc["provenance"]

    def test_saves_back_byte_for_byte(self, tmp_path, name):
        stored = fileio.load_model(GOLDEN / name)
        fileio.save_model(tmp_path / name, stored.model, stored.provenance)
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
