"""Text files and plain tables: the part of the package that needs no numpy.

Every text file goes through _read_text and _write_text (UTF-8, "\\n"
line ends, a ValidationError naming an unreadable or unwritable path).
CATALOGUE is plain tuples, each entry's distances and the flip sets that
realise them, so the command-line parser can list catalogue ids without
importing the numeric modules.  _int, _finite and _positive
parse one number, raising a ValidationError that names it, for file
fields and command-line flags alike, and _check_int, _check_real (on
_is_real) and _check_finite (on _is_finite) check a value the library
is given; _no_repeats rejects a list whose entries must be distinct.
Messages show a value the library is given through _shown.  Every
table of numbers goes out through _write_csv; solve's CSV, whose label
and true/false cells are not numbers, goes out through _write_text.
"""

from __future__ import annotations

import math
import numbers
import os
from collections import Counter

from .errors import ValidationError

# Hand-picked n = 8 catalogue: pairwise Hamming distance matrix, the
# nominal weight increment, and the coordinate flip sets that realise
# the distances.  Pattern m is all +1 with the coordinates in S_m
# flipped, so pattern 1 (S_1 = ()) is gauge-fixed to all +1 and the
# distance of patterns i and j is |S_i symdiff S_j|; each S_m is the
# lowest-lexicographic set meeting its distances to the sets before it.
# Entry (e) lists dw = -0.13 but plants the last pattern as the
# heaviest, so its default ladder is the reversed formula ladder (see
# instance.catalogue_pattern_set).
_IntRows = tuple[tuple[int, ...], ...]
CATALOGUE: dict[str, tuple[_IntRows, float, _IntRows]] = {
    "a": (((0, 1, 4), (1, 0, 3), (4, 3, 0)), 0.1, ((), (0,), (0, 1, 2, 3))),
    "b": (((0, 4, 3), (4, 0, 3), (3, 3, 0)), 0.1, ((), (0, 1, 2, 3), (0, 1, 4))),
    "b*": (((0, 2, 2), (2, 0, 4), (2, 4, 0)), 0.3, ((), (0, 1), (2, 3))),
    "c": (((0, 3, 4), (3, 0, 3), (4, 3, 0)), 0.1, ((), (0, 1, 2), (0, 1, 3, 4))),
    "d": (((0, 4, 2), (4, 0, 4), (2, 4, 0)), 0.1, ((), (0, 1, 2, 3), (0, 4))),
    "e": (((0, 4, 3), (4, 0, 1), (3, 1, 0)), -0.13, ((), (0, 1, 2, 3), (0, 1, 2))),
    "f": (
        ((0, 4, 4, 4), (4, 0, 4, 4), (4, 4, 0, 4), (4, 4, 4, 0)),
        0.1,
        ((), (0, 1, 2, 3), (0, 1, 4, 5), (0, 1, 6, 7)),
    ),
}


def _fmt(x: float) -> str:
    return repr(float(x))


def _read_text(path: str | os.PathLike) -> str:
    """The UTF-8 text of path; every text file the package reads comes here."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise ValidationError(f"{os.fspath(path)} is not UTF-8 text") from None
    except OSError as exc:
        raise ValidationError(f"cannot read {os.fspath(path)}: {exc.strerror}") from None


def _cannot_write(path: str | os.PathLike, exc: OSError) -> ValidationError:
    return ValidationError(f"cannot write {os.fspath(path)}: {exc.strerror}")


def _utf8(path: str | os.PathLike, text: str) -> bytes:
    """text as UTF-8, or the error of writing it to path."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError:
        raise ValidationError(f"cannot write {os.fspath(path)}: text is not UTF-8") from None


def _write_text(path: str | os.PathLike, text: str) -> None:
    """Write text as UTF-8, byte for byte; every text file goes out here.

    The text is encoded before the file is opened, so a manifest that
    records a non-UTF-8 argument fails without leaving an empty file.
    """
    data = _utf8(path, text)
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise _cannot_write(path, exc) from None


def _write_csv(path: str | os.PathLike, rows) -> None:
    """Write dict rows as a CSV table; the header is the first row's keys.

    Integers (numpy's too) are written with str, every other cell as
    repr(float(cell)), so each value reads back exactly.
    """
    if not rows:
        raise ValidationError(f"no rows to write to {os.fspath(path)}")
    lines = [",".join(rows[0])]
    for row in rows:
        lines.append(",".join(
            str(v) if isinstance(v, numbers.Integral) else _fmt(v) for v in row.values()
        ))
    _write_text(path, "\n".join(lines) + "\n")


def _check_writable(*paths: str | os.PathLike) -> None:
    """Raise the error _write_text would raise on any of paths, now.

    Each path is opened for appending, which leaves an existing file as
    it is; a file that this check creates is removed again.
    """
    for path in paths:
        existed = os.path.lexists(path)
        try:
            with open(path, "ab"):
                pass
        except OSError as exc:
            raise _cannot_write(path, exc) from None
        if not existed:
            os.remove(path)


def _int(text: str, what: str, least: int | None = None) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValidationError(f"{what} must be an integer, got {text!r}") from None
    _check_int(value, what, least)
    return value


def _number(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"{what} must be a number, got {text!r}") from None


def _finite(text: str, what: str) -> float:
    value = _number(text, what)
    if not math.isfinite(value):
        raise ValidationError(f"{what} must be finite, got {text!r}")
    return value


def _positive(text: str, what: str) -> float:
    """A step or width: a number > 0 and finite."""
    value = _number(text, what)
    if not (value > 0 and math.isfinite(value)):
        raise ValidationError(f"{what} must be positive and finite, got {text!r}")
    return value


def _check_int(value, what: str, least: int | None = None) -> None:
    """Raise unless value is an integer (numpy's too, not a bool) >= least."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or (least is not None and value < least)):
        at_least = "" if least is None else f" >= {least}"
        raise ValidationError(f"{what} must be an integer{at_least}, got {_shown(value)}")


def _shown(value) -> str:
    """repr(value), or the size of an int too long for repr (Python's digit limit)."""
    try:
        return repr(value)
    except ValueError:
        return f"an integer of {value.bit_length()} bits"


def _is_real(value) -> bool:
    """Whether value is a real number a float can hold, inf and nan included
    (an int past float range is not, nor is a bool)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _is_finite(value) -> bool:
    """Whether value is a real number, finite as a float (see _is_real)."""
    return _is_real(value) and math.isfinite(value)


def _check_real(value, what: str) -> None:
    """Raise unless value is a real number (see _is_real)."""
    if not _is_real(value):
        raise ValidationError(f"{what} must be a real number, got {_shown(value)}")


def _check_finite(value, what: str) -> None:
    """Raise unless value is a finite real number (see _is_finite)."""
    if not _is_finite(value):
        raise ValidationError(f"{what} must be finite, got {_shown(value)}")


def _no_repeats(keys, what: str) -> None:
    repeated = sorted(k for k, times in Counter(keys).items() if times > 1)
    if repeated:
        raise ValidationError(f"{what} repeat: {repeated}")
