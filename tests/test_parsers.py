"""Text parsers either return a result or raise ValidationError.

Whatever bytes an instance file, a grid spec or a report CSV holds,
the parser must not escape with any other exception: the CLI maps
ValidationError to exit code 3, anything else to a traceback.  Inputs
mix arbitrary bytes with line-structured text and with valid files
that have a few tokens replaced.  Integer tokens stay small, so a
drawn size never asks for a huge matrix.
"""

import math
import os
import tempfile
from dataclasses import replace

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from plantbench import (
    Instance,
    ValidationError,
    build_couplings,
    catalogue_pattern_set,
    generate_orthogonal_patterns,
    load_instance,
    perturb_patterns,
    save_instance,
)
from plantbench import cli

SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# free text without decimal digits: sizes only come from small integers
_WORDS = st.text(st.characters(blacklist_categories=("Cs", "Nd")), max_size=4)
TOKENS = st.one_of(
    st.sampled_from(["1", "-1", "+1", "0", "2", "300", "0.5", "-0.25", "1_0",
                     "nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "x",
                     "hadamard", "log", ""]),
    st.integers(-3, 20).map(str),
    _WORDS,
)
KEYS = ("format_version", "label", "n", "k", "seed", "w0", "dw", "weights",
        "generator", "pattern", "perturbation", "coarse_grain", "coupling")
ROW = st.lists(TOKENS, max_size=9).map(" ".join)
LINE = st.one_of(
    st.builds("{}: {}".format, st.sampled_from(KEYS), ROW),
    ROW,
    _WORDS,
)


def _saved(inst) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.txt")
        save_instance(inst, path)
        with open(path, encoding="utf-8") as fh:
            return fh.read()


_C = build_couplings(catalogue_pattern_set("c"))
# n = 128 is past the dense export limit: the file holds only a generator line
_ORTHO = build_couplings(generate_orthogonal_patterns(128, 3, seed=5, dw=0.01))
VALID_INSTANCES = (
    _saved(_C),
    _saved(_ORTHO),
    _saved(build_couplings(
        perturb_patterns(catalogue_pattern_set("c"), [(0, 1, -0.7)]))),
)
# a bare coupling matrix: an external instance, saved with its dense block only
VALID_DENSE = (_saved(replace(_C, pattern_set=None)),)


@st.composite
def mutated(draw, texts):
    """A valid file with one to three tokens replaced."""
    lines = draw(st.sampled_from(texts)).split("\n")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split(" ")
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(TOKENS)
        lines[i] = " ".join(tokens)
    return "\n".join(lines)


def _file_bytes(texts, lines=LINE):
    return st.one_of(
        st.binary(max_size=64),
        st.lists(lines, max_size=14).map("\n".join).map(str.encode),
        mutated(texts).map(str.encode),
    )


@SETTINGS
@given(data=_file_bytes(VALID_INSTANCES))
@example(data=b"format_version: 1\nn: abc\n")
@example(data=b"format_version: 1\nn: 2\nk: 1\npattern: 1 x\n")
@example(data=b"format_version: 1\nn: 2\nk: 1\npattern: 1 1\npattern: 1\n")
@example(data=b"format_version: 1\nn: 2\ncoupling:\n0 1\n1\n")
@example(data=b"format_version: 1\nn: 2\nk: 1\ngenerator: hadamard -1\n")
@example(data=b"format_version: 1\nn: 2\n\xff\n")
def test_load_instance_returns_or_raises_validation_error(tmp_path, data):
    _load_or_validation_error(tmp_path, data)


@SETTINGS
@given(data=_file_bytes(VALID_DENSE, lines=ROW))
@example(data=b"format_version: 1\nn: 2\ncoupling:\n0 x\nx 0\n")
@example(data=b"format_version: 1\nn: 2\ncoupling:\n0 nan\nnan 0\n")
@example(data=b"format_version: 1\nn: 2\ncoupling:\n0 1\n1\n")
@example(data=b"\xff\n")
def test_load_dense_returns_or_raises_validation_error(tmp_path, data):
    """Bare coupling-matrix files, mutated row by row, read through load_instance."""
    _load_or_validation_error(tmp_path, data)


def _load_or_validation_error(tmp_path, data: bytes) -> None:
    path = tmp_path / "inst.txt"
    path.write_bytes(data)
    try:
        inst = load_instance(path)
    except ValidationError:
        return
    assert isinstance(inst, Instance)
    assert inst.n >= 1 and inst.coupling.shape == (inst.n, inst.n)


GRID_SPECS = st.one_of(
    st.lists(TOKENS, min_size=2, max_size=4).map(":".join),
    st.lists(TOKENS, max_size=5).map(",".join),
    st.text(st.characters(blacklist_categories=("Cs", "Nd")), max_size=12),
)


@SETTINGS
@given(text=GRID_SPECS)
@example(text="1e308:-1e308:3")
@example(text="-1.7e308:1.7e308:3")
@example(text=" , ")
@example(text="0:1:200000")
def test_parse_grid_returns_finite_points_or_raises(text):
    try:
        values = cli._parse_grid(text)
    except ValidationError:
        return
    assert 1 <= len(values) <= cli.MAX_GRID_POINTS
    assert all(isinstance(v, float) and math.isfinite(v) for v in values)


@SETTINGS
@given(data=_file_bytes(("k,sr\n1,0.5\n",), lines=st.lists(TOKENS, max_size=4).map(",".join)))
@example(data=b"alpha,sr\n\xff,1\n")
def test_read_csv_returns_rows_or_raises(tmp_path, data):
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    try:
        header, rows = cli._read_csv(str(path))
    except ValidationError:
        return
    assert rows and all(isinstance(cell, str) for row in [header] + rows for cell in row)
