import builtins
import io
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import gssl.data
from gssl.data import (FeatureMatrix, LabeledDataset, Split, load_dataset, load_splits,
                       make_splits, read_edge_list, row_normalize_features, save_splits)
from gssl.errors import InputError
from gssl.graph import degrees, from_edge_list

from conftest import reference_parse, require_dataset, save_dataset, two_blob_dataset


def write_toy_dir(tmp_path, sparse=False):
    d = tmp_path / "toy"
    d.mkdir(parents=True)
    (d / "graph.edges").write_text("# toy\n0 1\n1 2\n2 3\n", encoding="ascii")
    if sparse:
        (d / "features.csv").write_text(
            "#sparse d=3\n0:1.5\n1:2.0 2:0.5\n\n0:1.0 1:1.0 2:1.0\n", encoding="ascii")
    else:
        (d / "features.csv").write_text(
            "1.5,0,0\n0,2.0,0.5\n0,0,0\n1.0,1.0,1.0\n", encoding="ascii")
    (d / "labels.txt").write_text("0\n1\n1\n0\n", encoding="ascii")
    return d


def test_load_dataset_dense(tmp_path):
    ds = load_dataset(write_toy_dir(tmp_path))
    assert ds.n_nodes == 4
    assert ds.n_features == 3
    assert ds.n_classes == 2
    assert ds.name == "toy"
    assert degrees(ds.graph).tolist() == [1.0, 2.0, 2.0, 1.0]


def same_csr(a, b) -> bool:
    """Equal shape and equal stored arrays, entry for entry."""
    return a.shape == b.shape and all(np.array_equal(getattr(a, k), getattr(b, k))
                                      for k in ("indptr", "indices", "data"))


def test_sparse_and_dense_features_agree(tmp_path):
    dense = load_dataset(write_toy_dir(tmp_path / "a"))
    sparse = load_dataset(write_toy_dir(tmp_path / "b", sparse=True))
    assert isinstance(dense.features, FeatureMatrix) and isinstance(sparse.features, FeatureMatrix)
    assert same_csr(dense.features, sparse.features)
    assert dense.features.nnz == 6  # the zeros of the dense file are not stored


def test_sparse_parse_matches_a_per_token_reference(tmp_path):
    rng = np.random.default_rng(3)
    d = write_toy_dir(tmp_path, sparse=True)
    rows = []
    for i in range(4):
        cols = np.sort(rng.choice(40, size=i * 5, replace=False))
        vals = rng.gamma(2.0, 0.05, size=cols.size) * 10.0 ** rng.integers(-6, 6, cols.size)
        rows.append(" ".join(f"{c}:{float(v)!r}" if c % 2 else f"{c}:{v:g}"
                                for c, v in zip(cols, vals)))
    path = d / "features.csv"
    path.write_text("#sparse d=40\n" + "\n".join(rows) + "\n", encoding="ascii")
    assert np.array_equal(load_dataset(d).features.toarray(), reference_parse(path, 40))


def sparse_word(col, value, zeros, form, plus):
    """``col:value`` with ``zeros`` leading zeros on the index and the value
    written in ``form`` (repr or a printf format; a value given as text is
    written as it is), non-negative values with a ``+`` when ``plus``."""
    text = value if isinstance(value, str) else repr(value) if form == "repr" else form % value
    return f"{col:0{zeros + len(str(col))}d}:" + ("+" if plus and text[0] != "-" else "") + text


# 1 to 15 digits with at most one point, anywhere among them: the values
# the loader reads without np.fromstring
plain_decimals = st.text("0123456789", min_size=1, max_size=15).flatmap(
    lambda digits: st.sampled_from(
        [digits] + [digits[:k] + "." + digits[k:] for k in range(len(digits) + 1)]))


@st.composite
def sparse_files(draw):
    """A ``#sparse`` feature file: its text and dimension.  Rows list distinct
    columns in any order, values in several forms and signs (every finite
    double, subnormals and -0.0 among them; fixed-point ``%.kf`` forms with
    k from 0 to 15), indices with leading zeros (up to 25, past what int64
    holds), words split by blank and tab runs that may also lead and trail
    a row, empty rows and a line end of LF, CRLF or CR, with or without one
    after the last row.  In some files every value is a plain decimal."""
    d = draw(st.integers(1, 40))
    plain = draw(st.booleans())
    values = plain_decimals if plain else st.floats(-1e308, 1e308)  # finite in every form
    forms = st.one_of(st.sampled_from(["repr", "%g", "%.17g", "%.3e"]),
                      st.integers(0, 15).map("%.{}f".format))
    seps = st.sampled_from([" ", "\t", "  ", " \t ", "\t\t"])
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        cols = draw(st.lists(st.integers(0, d - 1), unique=True, max_size=8))
        words = [sparse_word(c, draw(values), draw(st.sampled_from([0, 0, 0, 1, 3, 25])),
                             draw(forms), draw(st.booleans()) and not plain) for c in cols]
        rows.append(draw(st.sampled_from(["", " ", "\t"])) + "".join(
            w + (draw(seps) if k + 1 < len(words) else "") for k, w in enumerate(words))
            + draw(st.sampled_from(["", " ", "\t "])))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    last = end if draw(st.booleans()) or not rows[-1].strip() else ""
    return f"#sparse d={d}" + end + end.join(rows) + last, d


@settings(max_examples=60, deadline=None)
@given(file=sparse_files(), block_lines=st.integers(1, 5))
def test_sparse_files_load_as_the_per_token_reference(tmp_path_factory, file, block_lines):
    text, d = file
    directory = tmp_path_factory.mktemp("sparse")
    (directory / "features.csv").write_bytes(text.encode("ascii"))
    expected = reference_parse(directory / "features.csv", d)
    (directory / "labels.txt").write_text("0\n" * expected.shape[0], encoding="ascii")
    (directory / "graph.edges").write_text("", encoding="ascii")
    with mock.patch.object(gssl.data, "_BLOCK_LINES", block_lines):  # blocks split mid-file
        features = load_dataset(directory).features
    loaded = np.zeros(features.shape)  # toarray would add -0.0 to 0.0
    loaded[np.repeat(np.arange(features.shape[0]), np.diff(features.indptr)),
           features.indices] = features.data
    assert loaded.tobytes() == expected.tobytes() and features.nnz == text.count(":")
    assert features.has_canonical_format and features.indices.dtype == np.int32


PUBMED_ROWS, PUBMED_PAIRS = 19717, 50  # Pubmed's node count and about its pairs per row


@pytest.fixture(scope="module")
def pubmed_sized(tmp_path_factory):
    """A dataset directory with Pubmed's row count and about its pairs per
    row, loaded under tracemalloc.  A row lists distinct columns of 0..99
    in random order, with values in repr and %g form; pairs are split by a
    blank, a tab or a run of both, every fifth row has trailing blanks and
    the last two rows are empty.  The edge list has comment lines, blank
    lines, tabs and trailing blanks.  Returns the directory, the dimension,
    the edge pairs, the loaded dataset and the peak traced memory."""
    n, d = PUBMED_ROWS, 100
    rng = np.random.default_rng(5)
    values = rng.gamma(2.0, 0.05, 64) * 10.0 ** rng.integers(-6, 6, 64)
    tokens = [f"{c}:{v!r}" if k % 2 else f"{c}:{v:g}"
              for c in range(d) for k, v in enumerate(values.tolist())]
    picks = (rng.random((n, d)).argsort(axis=1)[:, :PUBMED_PAIRS] * values.size
             + rng.integers(0, values.size, (n, PUBMED_PAIRS)))
    counts = rng.integers(PUBMED_PAIRS - 10, PUBMED_PAIRS + 1, n)
    counts[-2:] = 0
    rows = [(" ", "\t", " \t  ")[i % 3].join(map(tokens.__getitem__, picks[i, :k].tolist()))
            + "  " * (i % 5 == 0 and k > 0) for i, k in enumerate(counts.tolist())]
    directory = tmp_path_factory.mktemp("pubmed_sized")
    (directory / "features.csv").write_text(f"#sparse d={d}\n" + "\n".join(rows) + "\n",
                                            encoding="ascii")
    (directory / "labels.txt").write_text("".join(f"{i % 3}\n" for i in range(n)),
                                          encoding="ascii")
    pairs = rng.integers(0, n, (2 * n, 2))
    lines = [f"{u}{sep}{v}{' ' * (i % 3)}"
             for i, ((u, v), sep) in enumerate(zip(pairs.tolist(), [" ", "\t"] * n))]
    lines[n:n] = ["  # a comment between pairs", "", "\t"]
    (directory / "graph.edges").write_text("# pubmed-sized\n\n" + "\n".join(lines) + "\n",
                                           encoding="ascii")
    tracemalloc.start()
    try:
        ds = load_dataset(directory)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return directory, d, pairs, ds, peak


def test_pubmed_sized_sparse_file_matches_a_per_token_reference(pubmed_sized):
    directory, d, pairs, ds, _ = pubmed_sized
    expected = reference_parse(directory / "features.csv", d)
    assert ds.features.indices.dtype == ds.features.indptr.dtype == np.int32
    assert ds.features.shape == expected.shape
    assert ds.features.toarray().tobytes() == expected.tobytes()
    assert ds.features.nnz == np.count_nonzero(expected)
    assert np.array_equal(read_edge_list(directory / "graph.edges"), pairs)


def test_crlf_line_ends_without_a_final_newline_load_the_same(pubmed_sized, tmp_path):
    directory, _, pairs, ds, _ = pubmed_sized
    for name in ("features.csv", "labels.txt", "graph.edges"):
        text = (directory / name).read_text(encoding="ascii").rstrip("\n")
        if name == "features.csv":  # keep the two blank rows, the last without a newline
            text += "\n \n\t"
        (tmp_path / name).write_bytes(text.replace("\n", "\r\n").encode("ascii"))
    crlf = load_dataset(tmp_path)
    assert same_csr(crlf.features, ds.features) and crlf.features.dtype == ds.features.dtype
    assert np.array_equal(crlf.labels, ds.labels)
    assert same_csr(crlf.graph, ds.graph)
    assert np.array_equal(read_edge_list(tmp_path / "graph.edges"), pairs)


# Measured peaks: 2.2x the files' size for both tests below.  A parser that
# keeps a Python string per line and two arrays per row peaks at 3.9x (sparse)
# and 6.4x (dense).
PEAK_PER_FILE_BYTE = 3


def test_pubmed_sized_load_peaks_within_a_few_file_sizes(pubmed_sized):
    directory, _, _, _, peak = pubmed_sized
    size = sum((directory / name).stat().st_size
               for name in ("features.csv", "labels.txt", "graph.edges"))
    assert peak < PEAK_PER_FILE_BYTE * size, f"loading {size} bytes peaked at {peak} bytes"


def test_dense_features_load_in_row_blocks(tmp_path):
    n, d = 40000, 50
    rng = np.random.default_rng(6)
    text = np.full((n, 2 * d), ord(","), dtype=np.uint8)  # one digit and a comma per value
    text[:, 0::2] = np.where(rng.random((n, d)) < 0.05, rng.integers(1, 10, (n, d)), 0) + ord("0")
    text[:, -1] = ord("\n")
    (tmp_path / "features.csv").write_bytes(text.tobytes())
    (tmp_path / "labels.txt").write_text("".join(f"{i % 3}\n" for i in range(n)), encoding="ascii")
    (tmp_path / "graph.edges").write_text("0 1\n", encoding="ascii")
    tracemalloc.start()
    try:
        ds = load_dataset(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.features.toarray().tobytes() == (text[:, 0::2] - ord("0")).astype(float).tobytes()
    size = sum(f.stat().st_size for f in tmp_path.iterdir())
    # the n x d float64 array alone would take 4x the feature file
    assert peak < PEAK_PER_FILE_BYTE * size < n * d * 8, f"{size} bytes peaked at {peak} bytes"


def test_round_trip_is_bit_exact(tmp_path):
    ds = two_blob_dataset(n_per=10, seed=1)
    out = tmp_path / "rt"
    save_dataset(ds, out)
    loaded = load_dataset(out)
    assert same_csr(loaded.features, ds.features)
    assert np.array_equal(loaded.labels, ds.labels)
    assert np.array_equal(loaded.graph.indptr, ds.graph.indptr)
    assert np.array_equal(loaded.graph.indices, ds.graph.indices)
    assert np.array_equal(loaded.graph.data, ds.graph.data)


def test_row_count_mismatch_detected(tmp_path):
    d = write_toy_dir(tmp_path)
    (d / "labels.txt").write_text("0\n1\n1\n", encoding="ascii")
    with pytest.raises(InputError, match="rows"):
        load_dataset(d)


def test_classes_without_nodes_are_counted_and_the_first_few_named():
    labels = np.array([0] * 9 + [9])
    with pytest.raises(InputError, match=r"^classes \[1, 2, 3, 4, 5, \.\.\.\] have no nodes \(8 in all\)$"):
        LabeledDataset(from_edge_list([], 10), np.zeros((10, 2)), labels)


def test_label_file_errors_carry_line_numbers(tmp_path):
    d = write_toy_dir(tmp_path)
    (d / "labels.txt").write_text("0\nx\n1\n0\n", encoding="ascii")
    with pytest.raises(InputError, match="labels.txt:2"):
        load_dataset(d)


def test_feature_file_errors_carry_line_numbers(tmp_path):
    d = write_toy_dir(tmp_path)
    (d / "features.csv").write_text("1,2,3\n1,2\n0,0,0\n1,1,1\n", encoding="ascii")
    with pytest.raises(InputError, match="features.csv:2"):
        load_dataset(d)
    d2 = write_toy_dir(tmp_path / "s", sparse=True)
    (d2 / "features.csv").write_text("#sparse d=3\n0:1\n9:1\n\n0:1\n", encoding="ascii")
    with pytest.raises(InputError, match="features.csv:3"):
        load_dataset(d2)


@pytest.mark.parametrize("name, line", [("features.csv", 3), ("labels.txt", 2),
                                        ("graph.edges", 4)])
@pytest.mark.parametrize("byte", [b"\xff", b"\x00", b"\x0b"], ids=["0xff", "0x00", "0x0b"])
def test_a_byte_that_is_not_ascii_text_names_its_line(tmp_path, name, line, byte):
    d = write_toy_dir(tmp_path)
    lines = (d / name).read_bytes().split(b"\n")
    lines[line - 1] = lines[line - 1][:1] + byte + lines[line - 1][1:]
    (d / name).write_bytes(b"\n".join(lines))
    with pytest.raises(InputError, match=f"{name}:{line}: byte 0x{byte[0]:02x} is not printable"):
        load_dataset(d)


@pytest.mark.parametrize("body, named", [
    (b"#sparse d=\xff3\n0:1\n", "features.csv:1: byte 0xff"),
    (b"#sparse d=3\x00\n0:1\n", "features.csv:1: byte 0x00"),
    (b"#sparse d=x\n0:1\n\xff\n", "features.csv:3: byte 0xff"),
    (b"#sparse e=3\n0:1\n\xff\n", "features.csv:3: byte 0xff"),
    (b"#sparse d=0\n0:1\n\x7f\n", "features.csv:3: byte 0x7f"),
], ids=["in-dimension", "after-dimension", "bad-dimension", "no-dimension", "zero-dimension"])
def test_the_byte_check_precedes_the_sparse_header(tmp_path, body, named):
    # the whole file is checked as text before its header is read, so a
    # byte that is not text is named even where the header is also bad
    d = write_toy_dir(tmp_path, sparse=True)
    (d / "features.csv").write_bytes(body + b"\n0:1\n")
    with pytest.raises(InputError, match=f"{named} is not printable ASCII"):
        load_dataset(d)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_load_dataset_reads_each_file_once(tmp_path, monkeypatch, sparse):
    d = write_toy_dir(tmp_path, sparse=sparse)
    opened = []
    real_open = io.open

    def spy(file, *args, **kwargs):
        opened.append(os.path.basename(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", spy)  # what pathlib calls
    monkeypatch.setattr(builtins, "open", spy)
    load_dataset(d)
    assert sorted(opened) == ["features.csv", "graph.edges", "labels.txt"]


def test_a_bad_line_past_the_first_block_is_named(tmp_path):
    d = write_toy_dir(tmp_path, sparse=True)
    (d / "labels.txt").write_text("0\n" * 2499 + "x\n" + "1\n" * 500, encoding="ascii")
    with pytest.raises(InputError, match="labels.txt:2500: non-integer class id 'x'"):
        load_dataset(d)
    (d / "labels.txt").write_text("0\n1\n1\n0\n", encoding="ascii")
    (d / "features.csv").write_text("#sparse d=3\n" + "0:1\n" * 2500 + "1:x\n", encoding="ascii")
    with pytest.raises(InputError, match="features.csv:2502: non-numeric feature value"):
        load_dataset(d)
    (d / "graph.edges").write_text("0 1\n" * 2999 + "0 -1\n", encoding="ascii")
    with pytest.raises(InputError, match="graph.edges:3000: negative node id in '0 -1'"):
        read_edge_list(d / "graph.edges")


@pytest.mark.parametrize("body, named", [
    ("0:1\n1:1:1\n\n0:1\n", "features.csv:3: expected space-separated idx:value"),
    ("0:1\n1:1 2\n\n0:1\n", "features.csv:3: expected space-separated idx:value"),
    ("0:1\n1:1\n1.5:1\n0:1\n", "features.csv:4: expected space-separated idx:value"),
    ("0:1\n1:1\n\n0:1 2:x\n", "features.csv:5: non-numeric feature value"),
    ("0:1\n\n2:1 0:2 2:3\n0:1\n", "features.csv:4: feature index 2 listed twice"),
    ("0:1\n\n\n0:1 3:1\n", "features.csv:5: feature index 3 out of range"),
], ids=["two-colons", "bare-number", "fractional-index", "non-numeric", "repeated-index",
        "index-out-of-range"])
def test_malformed_sparse_row_names_its_line(tmp_path, body, named):
    d = write_toy_dir(tmp_path, sparse=True)
    (d / "features.csv").write_text("#sparse d=3\n" + body, encoding="ascii")
    with pytest.raises(InputError, match=named):
        load_dataset(d)


@pytest.mark.parametrize("word, message", [
    ("3:0x1p3", "non-numeric feature value"), ("3:1_0", "non-numeric feature value"),
    ("3:1,5", "non-numeric feature value"), ("3:1.5.2", "non-numeric feature value"),
    ("3:1e", "non-numeric feature value"), ("3:nan", "non-finite feature value"),
    ("3:inf", "non-finite feature value"), ("3:1e400", "non-finite feature value"),
    ("1::2", "expected space-separated idx:value pairs"),
    (":5", "expected space-separated idx:value pairs"),
    ("5:", "expected space-separated idx:value pairs"),
    ("a:1", "expected space-separated idx:value pairs"),
    ("2147483648:1", "feature index 2147483648 out of range"),
])
def test_a_rejected_sparse_word_names_its_line(tmp_path, word, message):
    d = write_toy_dir(tmp_path, sparse=True)
    (d / "features.csv").write_text(f"#sparse d=5\n0:1\n1:1 {word} 4:2\n\n2:1\n",
                                    encoding="ascii")
    with pytest.raises(InputError, match=f"features.csv:3: {message}$"):
        load_dataset(d)


@pytest.mark.parametrize("word", [
    "0", ".5", "5.", "00.250", "123456789012345", "1234567890123456", "9007199254740993",
    "0.123456789012345", "0.1234567890123456", "999999999999999", ".000000000000001",
    "0.00000000000000000000001", "96.48064786969077",  # m > 2**53: m / 10**14 rounds twice
])
@pytest.mark.parametrize("neighbour", ["2:1", "2:1e0"], ids=["plain-block", "exponent-block"])
def test_a_value_loads_with_the_bits_of_float(tmp_path, word, neighbour):
    # the words of 1 to 15 digits are read from their digits, the others and
    # every word of a block holding "1e0" by np.fromstring: all as float()
    d = write_toy_dir(tmp_path, sparse=True)
    (d / "features.csv").write_text(f"#sparse d=3\n0:{word}\n1:{word} {neighbour}\n\n0:1\n",
                                    encoding="ascii")
    data = load_dataset(d).features.data
    assert data[:2].tobytes() == np.array([float(word)] * 2).tobytes()


@pytest.mark.parametrize("word, message", [
    ("1.5.5", "non-numeric"), (".", "non-numeric"), ("1e", "non-numeric"),
    ("e1", "non-numeric"), ("0x1", "non-numeric"), ("1_0", "non-numeric"),
    ("1,5", "non-numeric"), ("--1", "non-numeric"), ("0.1f", "non-numeric"),
    ("inf", "non-finite"), ("nan", "non-finite"), ("infinity", "non-finite"),
])
@pytest.mark.parametrize("line", ["3:{}", "0:0.5 3:{} 4:.25", "3:1e0 4:{}"],
                         ids=["alone", "between-plain-words", "after-an-exponent-word"])
def test_a_value_that_is_not_a_number_names_its_line_in_a_block_of_plain_values(
        tmp_path, word, message, line):
    d = write_toy_dir(tmp_path, sparse=True)
    (d / "features.csv").write_text(
        f"#sparse d=5\n0:0.5 2:1.25\n{line.format(word)}\n\n2:00.5\n", encoding="ascii")
    with pytest.raises(InputError, match=f"features.csv:3: {message} feature value$"):
        load_dataset(d)


@pytest.fixture
def float_parses(monkeypatch):
    """The dtypes of the np.fromstring calls made while the test runs."""
    dtypes, real = [], np.fromstring

    def spy(text, dtype=float, **kwargs):
        dtypes.append(np.dtype(dtype))
        return real(text, dtype=dtype, **kwargs)

    monkeypatch.setattr(np, "fromstring", spy)
    return dtypes


def test_a_block_of_plain_values_never_reaches_np_fromstring(tmp_path, float_parses):
    d = write_toy_dir(tmp_path, sparse=True)
    (d / "features.csv").write_text("#sparse d=3\n0:1.5\n1:2 2:.5\n\n0:00.10 1:7. 2:3\n",
                                    encoding="ascii")
    assert load_dataset(d).features.data.tolist() == [1.5, 2, 0.5, 0.1, 7, 3]
    # the labels and the edges still reach it, as int64
    assert float_parses and np.dtype(np.float64) not in float_parses


def test_a_block_with_an_exponent_still_reaches_np_fromstring(tmp_path, float_parses):
    d = write_toy_dir(tmp_path, sparse=True)
    (d / "features.csv").write_text("#sparse d=3\n0:1.5\n1:2 2:5e-1\n\n0:00.10 1:7. 2:3\n",
                                    encoding="ascii")
    assert load_dataset(d).features.data.tolist() == [1.5, 2, 0.5, 0.1, 7, 3]
    assert float_parses.count(np.dtype(np.float64)) == 1


@pytest.mark.parametrize("dimension", [2 ** 63, 10 ** 20])
def test_a_sparse_dimension_past_int64_names_the_header(tmp_path, dimension):
    d = write_toy_dir(tmp_path, sparse=True)
    (d / "features.csv").write_text(f"#sparse d={dimension}\n0:1\n1:1\n\n0:1\n",
                                    encoding="ascii")
    with pytest.raises(InputError, match=f"features.csv:1: sparse dimension must be "
                                         f"<= {2 ** 63 - 1}, got {dimension}$"):
        load_dataset(d)
    (d / "features.csv").write_text(f"#sparse d={2 ** 63 - 1}\n0:1\n1:1\n\n0:1\n",
                                    encoding="ascii")
    assert load_dataset(d).features.shape == (4, 2 ** 63 - 1)


def test_a_dimension_past_int32_keeps_int64_column_ids(tmp_path):
    d = write_toy_dir(tmp_path, sparse=True)
    (d / "features.csv").write_text(
        "#sparse d=3000000000\n0:1\n2999999999:2 0002147483648:3\n\n1:1\n", encoding="ascii")
    features = load_dataset(d).features
    assert features.indices.dtype == np.int64
    assert features.indices.tolist() == [0, 2147483648, 2999999999, 1]
    assert features.data.tolist() == [1, 3, 2, 1]


def test_dense_row_with_trailing_comma_names_its_line(tmp_path):
    d = write_toy_dir(tmp_path)
    (d / "features.csv").write_text("1,2,3\n1,2,\n0,0,0\n1,1,1\n", encoding="ascii")
    with pytest.raises(InputError, match="features.csv:2: non-numeric"):
        load_dataset(d)


@pytest.mark.parametrize("row", ["1, ,3", "1,2,\t", "\t ,2,3"], ids=["blank", "tab", "first"])
def test_dense_row_with_a_blank_field_names_its_line(tmp_path, row):
    # np.fromstring would read the blank field as -1
    d = write_toy_dir(tmp_path)
    (d / "features.csv").write_text(f"1,2,3\n0,0,0\n{row}\n1,1,1\n", encoding="ascii")
    with pytest.raises(InputError, match="features.csv:3: blank feature value"):
        load_dataset(d)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_a_file_of_whole_blocks_loads_as_in_one_block(tmp_path, monkeypatch, sparse):
    # each toy file has four lines, so a file of k * _BLOCK_LINES lines
    # ending in a line end leaves an empty last block
    whole = load_dataset(write_toy_dir(tmp_path / "one", sparse=sparse))
    monkeypatch.setattr(gssl.data, "_BLOCK_LINES", 2)
    d = write_toy_dir(tmp_path / "two", sparse=sparse)
    blocked = load_dataset(d)
    assert same_csr(blocked.features, whole.features)
    assert np.array_equal(blocked.labels, whole.labels)
    assert np.array_equal(blocked.graph.indices, whole.graph.indices)


def test_sparse_row_may_list_its_indices_out_of_order(tmp_path):
    d = write_toy_dir(tmp_path, sparse=True)
    (d / "features.csv").write_text(
        "#sparse d=3\n0:1.5\n2:0.5 1:2.0\n  \n2:1.0 0:1.0 1:1.0\n", encoding="ascii")
    assert same_csr(load_dataset(d).features, load_dataset(write_toy_dir(tmp_path / "b")).features)


def test_an_index_of_the_row_before_is_no_repeat(tmp_path):
    # out-of-order rows are sorted within their rows only: a row may start
    # with the index its previous (or an earlier, past a blank row) one ended with
    d = write_toy_dir(tmp_path, sparse=True)
    (d / "features.csv").write_text("#sparse d=3\n2:1 1:3\n2:2 0:1\n\n2:4 1:5 0:6\n",
                                    encoding="ascii")
    features = load_dataset(d).features
    assert features.indices.tolist() == [1, 2, 0, 2, 0, 1, 2]
    assert features.data.tolist() == [3, 1, 1, 2, 6, 5, 4]
    assert features.has_canonical_format


@pytest.mark.parametrize("body, named", [
    ("0:1\n0:1 0:2\n\n0:1 3:1\n", "features.csv:3: feature index 0 listed twice"),
    ("0:1\n0:inf\n\n0:1 3:1\n", "features.csv:3: non-finite feature value"),
    ("0:1\n1:1 0:1 1:2\n\n0:nan\n", "features.csv:3: feature index 1 listed twice"),
], ids=["repeat-then-range", "non-finite-then-range", "repeat-then-non-finite"])
def test_the_first_bad_feature_line_is_named(tmp_path, body, named):
    d = write_toy_dir(tmp_path, sparse=True)
    (d / "features.csv").write_text("#sparse d=3\n" + body, encoding="ascii")
    with pytest.raises(InputError, match=named):
        load_dataset(d)


def test_dataset_built_in_memory_rejects_non_finite_features():
    ds = two_blob_dataset(n_per=4, seed=7)
    features = np.ones((ds.n_nodes, 2))
    features[3, 1] = np.inf
    with pytest.raises(InputError, match="non-finite"):
        LabeledDataset(ds.graph, features, ds.labels)


def test_a_dataset_freezes_its_own_copy_of_the_labels():
    ds = two_blob_dataset(n_per=4, seed=7)
    labels = np.array(ds.labels)
    built = LabeledDataset(ds.graph, ds.features, labels)
    assert labels.flags.writeable and not built.labels.flags.writeable
    assert built.labels.dtype == np.int64 and np.array_equal(built.labels, labels)
    labels[0] = 1 - labels[0]
    assert built.labels[0] != labels[0]


@pytest.mark.parametrize("labels", [np.array([0.0, 1.0, 1.5]), np.array(["a", "b", "b"])],
                         ids=["float", "str"])
def test_labels_that_are_not_integers_are_an_input_error_naming_the_dtype(labels):
    with pytest.raises(InputError, match=str(labels.dtype)):
        LabeledDataset(from_edge_list([(0, 1), (1, 2)], 3), np.eye(3), labels)


def test_edge_ids_must_fit_node_count(tmp_path):
    d = write_toy_dir(tmp_path)
    (d / "graph.edges").write_text("0 1\n" * 1500 + "1 2\n3 4\n", encoding="ascii")
    with pytest.raises(InputError, match=r"graph.edges:1502: node id 4 out of range \[0, 4\)"):
        load_dataset(d)


@pytest.mark.parametrize("name, body, named", [
    ("graph.edges", "0 1\n-99999999999999999999 1\n",
     r"graph.edges:2: node id -99999999999999999999 out of range \[0, 4\)"),
    ("features.csv", "#sparse d=3\n0:1\n99999999999999999999:1\n\n0:1\n",
     "features.csv:3: feature index 99999999999999999999 out of range"),
    ("labels.txt", "0\n-99999999999999999999\n1\n0\n",
     "labels.txt:2: class id -99999999999999999999 out of range"),
], ids=["edges", "features", "labels"])
def test_an_integer_past_int64_is_named_as_written(tmp_path, name, body, named):
    # np.fromstring reads every one of them as 9223372036854775807
    d = write_toy_dir(tmp_path, sparse=True)
    (d / name).write_text(body, encoding="ascii")
    with pytest.raises(InputError, match=f"{named}$"):
        load_dataset(d)


def test_read_edge_list_rejects_an_id_past_int64(tmp_path):
    (tmp_path / "graph.edges").write_text("0 1\n1 99999999999999999999\n", encoding="ascii")
    with pytest.raises(InputError, match="graph.edges:2: node id 99999999999999999999 out of"):
        read_edge_list(tmp_path / "graph.edges")


def test_a_class_id_beyond_the_label_count_names_its_line(tmp_path):
    d = write_toy_dir(tmp_path)
    (d / "labels.txt").write_text("0\n1\n5\n0\n", encoding="ascii")
    with pytest.raises(InputError,
                       match="labels.txt:3: class id 5 needs 6 classes, more than 4 nodes can hold$"):
        load_dataset(d)


def test_missing_file_reported(tmp_path):
    d = write_toy_dir(tmp_path)
    (d / "features.csv").unlink()
    with pytest.raises(InputError, match="missing features.csv"):
        load_dataset(d)


def test_gap_in_class_ids_rejected(tmp_path):
    d = write_toy_dir(tmp_path)
    (d / "labels.txt").write_text("0\n2\n2\n0\n", encoding="ascii")
    with pytest.raises(InputError, match="classes \\[1\\]"):
        load_dataset(d)


# ------------------------------------------------------------------ splits

def test_make_splits_protocol_sizes():
    ds = two_blob_dataset(n_per=40, seed=2)
    splits = make_splits(ds, ell=5, n_splits=3, base_seed=100, val_size=20, test_size=30)
    assert len(splits) == 3
    for k, s in enumerate(splits):
        assert s.seed == 100 + k
        assert len(s.train) == 10 and len(s.val) == 20 and len(s.test) == 30
        assert not (set(s.train) & set(s.val)) and not (set(s.train) & set(s.test))
        assert not (set(s.val) & set(s.test))
        for c in range(ds.n_classes):
            assert np.sum(ds.labels[s.train] == c) == 5


def test_make_splits_deterministic_per_seed():
    ds = two_blob_dataset(n_per=40, seed=3)
    a = make_splits(ds, 4, 2, base_seed=7, val_size=10, test_size=10)
    b = make_splits(ds, 4, 2, base_seed=7, val_size=10, test_size=10)
    for s1, s2 in zip(a, b):
        assert np.array_equal(s1.train, s2.train)
        assert np.array_equal(s1.val, s2.val)
        assert np.array_equal(s1.test, s2.test)
    c = make_splits(ds, 4, 1, base_seed=8, val_size=10, test_size=10)
    assert not np.array_equal(a[0].train, c[0].train)


def test_make_splits_train_size_scales_with_classes():
    ds = two_blob_dataset(n_per=30, seed=4)
    s = make_splits(ds, ell=3, n_splits=1, base_seed=0, val_size=5, test_size=5)[0]
    assert len(s.train) == 3 * ds.n_classes


def test_make_splits_requires_enough_members():
    ds = two_blob_dataset(n_per=6, seed=5)
    with pytest.raises(InputError, match="class"):
        make_splits(ds, ell=7, n_splits=1, base_seed=0, val_size=1, test_size=1)
    with pytest.raises(InputError, match="protocol"):
        make_splits(ds, ell=2, n_splits=1, base_seed=0, val_size=500, test_size=1000)


def test_split_overlap_rejected():
    with pytest.raises(InputError, match="overlap"):
        Split(np.array([0, 1]), np.array([1]), np.array([2]), seed=0, ell=1)


def test_split_json_round_trip(tmp_path):
    ds = two_blob_dataset(n_per=20, seed=6)
    splits = make_splits(ds, 3, 2, base_seed=11, val_size=8, test_size=8)
    path = tmp_path / "splits.json"
    save_splits(splits, path)
    loaded = load_splits(path)
    for s1, s2 in zip(splits, loaded):
        assert s1.to_dict() == s2.to_dict()


_SPLIT = '"seed": 0, "ell": 1, "val": [2], "test": [3]'


@pytest.mark.parametrize("text, named", [
    ('[{%s, "train": [9223372036854775808]}]' % _SPLIT, 'split 0: "train" holds 9223372036854775808'),
    ('[{"seed": 0, "train": [1], "val": [2], "test": [3]}]', 'split 0: no "ell"'),
    ('{"seed": 0}', "expected a list of splits, got dict"),
    ('[{"seed": 0,', "not a JSON splits file"),
    ('[{%s, "train": [-5]}]' % _SPLIT, 'split 0: "train" holds -5'),
    ('[{%s, "train": [1.7]}]' % _SPLIT, 'split 0: "train" holds 1.7'),
    ('[{%s, "train": [true]}]' % _SPLIT, 'split 0: "train" holds True'),
    ('[{%s, "train": 1}]' % _SPLIT, 'split 0: "train" is int, not a list'),
    ('[{%s, "train": [1]}, {%s, "train": [2]}]' % (_SPLIT, _SPLIT), "split 1: train/val/test sets overlap"),
    ('[{"seed": 1.5, "ell": 1, "train": [1], "val": [2], "test": [3]}]', 'split 0: "seed" is 1.5'),
    ('[{"seed": 0, "ell": "1", "train": [1], "val": [2], "test": [3]}]', "split 0: \"ell\" is '1'"),
    ('[7]', "split 0: expected an object, got int"),
], ids=["past-int64", "no-ell", "object", "bad-json", "negative", "float", "bool", "not-a-list",
        "overlap", "float-seed", "string-ell", "not-an-object"])
def test_load_splits_names_file_split_and_key(tmp_path, text, named):
    path = tmp_path / "splits.json"
    path.write_text(text, encoding="ascii")
    with pytest.raises(InputError) as err:
        load_splits(path)
    assert str(err.value).startswith(f"{path}: ")
    assert named in str(err.value)


# ------------------------------------------------------------- normalize

def test_row_normalize_examples():
    ds = two_blob_dataset(n_per=4, seed=7)
    features = np.array([[2.0, 2.0], [0.0, 0.0], [1.0, 3.0]] + [[1.0, 0.0]] * 5)
    raw = LabeledDataset(ds.graph, features, ds.labels, name="raw")
    normed = row_normalize_features(raw).features.toarray()
    assert np.allclose(normed[0], [0.5, 0.5])
    assert np.array_equal(normed[1], [0.0, 0.0])
    sums = normed.sum(axis=1)
    assert set(np.round(sums, 12).tolist()) <= {0.0, 1.0}


@pytest.mark.parametrize("zero_rows", [[0, 3], [5, 9], [9]],
                         ids=["leading-and-inner", "inner-and-trailing", "trailing"])
def test_row_normalize_matches_dense_formula(zero_rows):
    rng = np.random.default_rng(8)
    dense = rng.normal(size=(10, 6)) * (rng.random((10, 6)) < 0.4)
    dense[1, 2] = 0.0 if dense[1].any() else 1.0  # keep row 1 nonzero
    dense[zero_rows] = 0.0
    ds = two_blob_dataset(n_per=5, seed=9)
    stored = sp.csr_matrix(dense)
    rows, cols = stored.nonzero()
    stored.data[0] = dense[rows[0], cols[0]] = 0.0  # a stored zero must stay zero
    normed = row_normalize_features(LabeledDataset(ds.graph, stored, ds.labels)).features
    norms = np.abs(dense).sum(axis=1, keepdims=True)
    expected = np.divide(dense, norms, out=dense.copy(), where=norms > 0)
    assert np.allclose(normed.toarray(), expected, rtol=1e-15, atol=0)
    assert normed.nnz == stored.nnz and np.isfinite(normed.data).all()


# ------------------------------------------------- real datasets (gated)

@pytest.mark.parametrize("name,expected", [
    ("cora", (2708, 5429, 7, 1433)),
    ("citeseer", (3327, 4732, 6, 3703)),
    ("pubmed", (19717, 44338, 3, 500)),
])
def test_known_dataset_profiles(name, expected):
    ds = load_dataset(require_dataset(name))
    n, m, c, d = expected
    assert ds.n_nodes == n
    assert ds.graph.n_undirected_edges == m
    assert ds.n_classes == c
    assert ds.n_features == d
    loops = int(np.sum(ds.graph.indices == ds.graph.row_index_per_entry()))
    assert loops == 0
    assert degrees(ds.graph).sum() == 2 * m
