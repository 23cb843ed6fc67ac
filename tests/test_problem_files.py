"""The problem-file grammar of ``mgdeform bvp``.

A problem file is ``key value`` header lines, then ``begin <name>`` ...
``end`` blocks with one row per sample (``re im`` for a complex sample);
comments and blank lines may stand anywhere and rows and markers may carry
surrounding whitespace.  Every variant of a clean file below either loads to
the clean file's arrays or raises a ``FormatError`` that names the block.
"""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import manufactured_problem
from mgdeform.errors import FormatError
from mgdeform.grid import DiskGrid
from mgdeform.vekua import BoundaryProblem, load_problem, save_problem

FIELDS = ("lam", "phi", "A", "B", "e0_point", "e0_weight", "psi")


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """A saved 8x16 problem with every block, its text and its loaded arrays."""
    path = tmp_path_factory.mktemp("clean") / "problem.txt"
    save_problem(path, manufactured_problem(DiskGrid(8, 16))[0])
    text = path.read_text()
    return text, load_problem(path)


def _first_row(text, block):
    start = text.index(f"begin {block}\n") + len(f"begin {block}\n")
    return start, text.index("\n", start) + 1


def _with_inside_comments(text):
    start, stop = _first_row(text, "A")
    return text[:stop] + "# a comment inside A\n\n   \n\t\n" + text[stop:]


def _with_surrounding_whitespace(text):
    return "".join(f"  {line} \t\n" for line in text.splitlines())


def _between_blocks(text):
    return "\n# first\n\n" + text.replace("end\n", "end\n\n  # between\n\n").rstrip("\n")


def _drop_end(text, block):
    head, _, tail = text.partition(f"begin {block}\n")
    body, _, rest = tail.partition("end\n")
    return head + f"begin {block}\n" + body + rest


def _short_row(text, block):
    start, stop = _first_row(text, block)
    return text[:start] + text[start:stop].split()[0] + "\n" + text[stop:]


def _extra_row(text, block):
    start, stop = _first_row(text, block)
    return text[:stop] + text[start:stop] + text[stop:]


def _sample(text, block, value):
    start, stop = _first_row(text, block)
    rest = text[start:stop].split()[1:]
    return text[:start] + " ".join([value] + rest) + "\n" + text[stop:]


def _separators(text, sep):
    # a marker is "begin" and its name parted by one space
    return "\n".join(line if line.startswith("begin ") else line.replace(" ", sep)
                     for line in text.split("\n"))


def _three_then_one(text, block):
    # as many rows, lines and values as the clean block, but rows of 3 and 1
    start, stop = _first_row(text, block)
    second = text.index("\n", stop) + 1
    first, last = text[start:stop].split(), text[stop:second].split()
    return (text[:start] + " ".join(first + last[:1]) + "\n" + last[1] + "\n"
            + text[second:])


def _value_comment(text, block):
    start, stop = _first_row(text, block)
    return text[:stop - 1] + " # note\n" + text[stop:]


def _empty_block(text, block):
    head, _, tail = text.partition(f"begin {block}\n")
    _, _, rest = tail.partition("end\n")
    return head + f"begin {block}\nend\n" + rest


SAME = {
    "comments and blank lines inside a block": _with_inside_comments,
    "comments and blank lines before and between blocks": _between_blocks,
    "whitespace around rows and markers": _with_surrounding_whitespace,
    "tab separators": lambda text: _separators(text, "\t"),
    "form-feed separators": lambda text: _separators(text, "\f"),
    "vertical-tab separators": lambda text: _separators(text, "\v"),
    "no final newline": lambda text: text.rstrip("\n"),
}

# (variant, words its FormatError message must hold)
REJECTED = {
    "missing end of A": (lambda text: _drop_end(text, "A"), ["'A'"]),
    "missing end of the last block": (lambda text: _drop_end(text, "psi"), ["'psi'"]),
    "header line after a block": (
        lambda text: text.replace("begin B\n", "n_r 8\nbegin B\n"), ["'n_r 8'"]),
    "short row in lambda": (
        lambda text: _short_row(text, "lambda"), ["'lambda'", "line 7 holds 1 value"]),
    "extra row in B": (lambda text: _extra_row(text, "B"), ["'B'"]),
    "extra row in phi": (lambda text: _extra_row(text, "phi"), ["'phi'"]),
    "nan sample in psi": (lambda text: _sample(text, "psi", "nan"), ["'psi'", "non-finite"]),
    "inf sample in e0_point": (
        lambda text: _sample(text, "e0_point", "-inf"), ["'e0_point'", "non-finite"]),
    "zero rows in A": (lambda text: _empty_block(text, "A"), ["'A'"]),
    "zero rows in phi": (lambda text: _empty_block(text, "phi"), ["'phi'"]),
    "a row split over two lines": (lambda text: _split_row(text, "A"), ["'A'"]),
    "a blank line standing in for a row": (
        lambda text: _two_rows_on_one_line(text, "A", " ", ""), ["'A'"]),
    "a tab-only line standing in for a row": (
        lambda text: _two_rows_on_one_line(text, "B", "\t", "\t"), ["'B'"]),
    # the clean file's first A row is its line 43
    "rows of 3 and then 1 values in A": (
        lambda text: _three_then_one(text, "A"), ["'A'", "line 43 holds 3 values"]),
    "a comment after the values of a row in B": (
        lambda text: _value_comment(text, "B"), ["'B'", "'#'"]),
    # the clean file's first phi row is its line 25 and its second A row line 44
    "an underscore in a literal": (
        lambda text: _sample(text, "phi", "1_0"), ["'phi'", "line 25 holds '1_0'"]),
    "a word in a row": (
        lambda text: _second_row(text, "A", "0.5 zz"), ["'A'", "line 44 holds 'zz'"]),
}


def _second_row(text, block, row):
    _, start = _first_row(text, block)
    return text[:start] + row + "\n" + text[text.index("\n", start) + 1:]


def _split_row(text, block):
    start, stop = _first_row(text, block)
    return text[:start] + "\n".join(text[start:stop].split()) + "\n" + text[stop:]


def _two_rows_on_one_line(text, block, joint, blank):
    # as many lines, values and spaces as the clean block, one line blank
    start, stop = _first_row(text, block)
    second = text.index("\n", stop) + 1
    return (text[:start] + text[start:stop - 1] + joint + text[stop:second] + blank + "\n"
            + text[second:])


def _assert_same_problem(loaded, expect):
    assert (loaded.grid.n_r, loaded.grid.n_theta) == (expect.grid.n_r, expect.grid.n_theta)
    assert loaded.e_swap == expect.e_swap
    for name in FIELDS:
        assert np.array_equal(getattr(loaded, name), getattr(expect, name)), name


@pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
@pytest.mark.parametrize("case", sorted(SAME))
def test_layout_variants_load_the_clean_arrays(tmp_path, clean, case, crlf):
    text, expect = clean
    variant = SAME[case](text)
    if crlf:
        variant = variant.replace("\n", "\r\n")
    path = tmp_path / "problem.txt"
    path.write_bytes(variant.encode())
    _assert_same_problem(load_problem(path), expect)


@pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
@pytest.mark.parametrize("case", sorted(REJECTED))
def test_malformed_variants_name_their_block(tmp_path, clean, case, crlf):
    text, _ = clean
    make, words = REJECTED[case]
    variant = make(text)
    assert variant != text
    if crlf:
        variant = variant.replace("\n", "\r\n")
    path = tmp_path / "problem.txt"
    path.write_bytes(variant.encode())
    with pytest.raises(FormatError) as exc:
        load_problem(path)
    assert all(word in str(exc.value) for word in words), str(exc.value)
    # no advice about reader options the format does not have, and no row
    # counted from the block's first value row
    assert "usecols" not in str(exc.value)
    assert not re.search(r"\brow \d", str(exc.value)), str(exc.value)


@pytest.mark.parametrize("body", ["", "# no rows\n\n"], ids=["empty", "comment only"])
def test_empty_block_is_a_format_error_without_a_warning(tmp_path, clean, body):
    text, _ = clean
    path = tmp_path / "problem.txt"
    path.write_text(_empty_block(text, "B").replace("begin B\nend\n", f"begin B\n{body}end\n"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match="'B' must have"):
            load_problem(path)


def test_loading_a_128x256_problem_peaks_under_15_mb(tmp_path):
    # each block is parsed on its own from one buffer of its text, so the
    # peak is the file's text, the grid, one block's buffer and the arrays
    path = tmp_path / "problem.txt"
    save_problem(path, manufactured_problem(DiskGrid(128, 256))[0])
    load_problem(path)
    tracemalloc.start()
    try:
        load_problem(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 15e6, f"{peak / 1e6:.1f} MB"


def test_clean_file_round_trips_byte_for_byte(tmp_path, clean):
    text, expect = clean
    path = tmp_path / "again.txt"
    save_problem(path, expect)
    assert path.read_text() == text


@pytest.mark.parametrize("edit, words", [
    (lambda text: text.replace("begin psi\n", "begin psy\n"), ["unknown block", "'psy'"]),
    (lambda text: text.replace("e_swap 0\n", "e_swap 0\ntol 1e-10\n"),
     ["unknown header key", "'tol'"]),
    (lambda text: text + "begin phi\n" + _block_text(text, "phi") + "end\n",
     ["repeated block", "'phi'"]),
    (lambda text: text.replace("n_r 8\n", "n_r 8\nn_r 16\n"), ["repeated header key", "'n_r'"]),
], ids=["misspelled block", "unknown header key", "repeated block", "repeated header key"])
def test_unknown_and_repeated_names_are_rejected(tmp_path, clean, edit, words):
    text, _ = clean
    path = tmp_path / "problem.txt"
    path.write_text(edit(text))
    with pytest.raises(FormatError) as exc:
        load_problem(path)
    assert all(word in str(exc.value) for word in words), str(exc.value)


def _block_text(text, block):
    start = text.index(f"begin {block}\n") + len(f"begin {block}\n")
    return text[start : text.index("end\n", start)]


EXTREMES = [-0.0, 5e-324, 1e-300, 1.7976931348623157e308, -1.7976931348623157e308]


def test_writer_prints_extreme_values_as_17_digit_rows(tmp_path):
    grid = DiskGrid(8, 16)
    phi = np.cos(grid.boundary_theta)
    phi[: len(EXTREMES)] = EXTREMES
    lam = np.exp(1j * grid.boundary_theta)
    psi = np.zeros(grid.n_nodes, dtype=complex)
    psi[: len(EXTREMES)] = np.array(EXTREMES) + 1j * np.array(EXTREMES[::-1])
    psi[len(EXTREMES)] = complex(-0.0, -0.0)
    prob = BoundaryProblem(grid=grid, lam=lam, phi=phi, psi=psi)
    path = tmp_path / "problem.txt"
    save_problem(path, prob)
    expect = ["# mgdeform vekua problem v1", "n_r 8", "n_theta 16", "x0_node 0", "e_swap 0"]
    expect += ["begin lambda"] + [f"{v.real:.17g} {v.imag:.17g}" for v in lam] + ["end"]
    expect += ["begin phi"] + [f"{v:.17g}" for v in phi.tolist()] + ["end"]
    expect += ["begin psi"] + [f"{v.real:.17g} {v.imag:.17g}" for v in psi.tolist()] + ["end"]
    assert path.read_bytes() == ("\n".join(expect) + "\n").encode()
    for row in ("\n-0\n", "\n4.9406564584124654e-324\n", "\n-0 -0\n"):
        assert row in path.read_text()
    loaded = load_problem(path)
    assert loaded.phi.tobytes() == phi.tobytes()


@pytest.mark.parametrize("case", ["n=-1", "signed zeros"])
def test_save_load_save_keeps_every_byte(tmp_path, case):
    # a loaded complex block keeps the sign of each zero part, so resaving
    # a file reproduces it byte for byte
    grid = DiskGrid(16, 32)
    if case == "n=-1":
        prob = manufactured_problem(grid, n=-1)[0]   # lambda's theta = 0 row is "1 -0"
    else:
        zeros = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 0j]
        psi = np.exp(grid.z)
        psi[: len(zeros)] = zeros
        A = np.full(grid.n_nodes, complex(0.5, -0.0))
        prob = BoundaryProblem(grid=grid, lam=np.exp(1j * grid.boundary_theta),
                               phi=np.cos(grid.boundary_theta), A=A, psi=psi)
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    save_problem(first, prob)
    if case == "n=-1":
        assert "\n1 -0\n" in first.read_text()
    loaded = load_problem(first)
    save_problem(second, loaded)
    assert second.read_bytes() == first.read_bytes()
    for name in ("lam", "psi", "A"):
        if getattr(prob, name) is not None:
            assert getattr(loaded, name).tobytes() == getattr(prob, name).tobytes(), name
