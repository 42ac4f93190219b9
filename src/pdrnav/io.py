"""File formats for the batch pipeline.

Plain text throughout: IMU logs and trajectories are CSV, calibration
and configuration are JSON.  Every float is written in text that reads
back to the same bits, which is what makes byte-identical reruns a
meaningful promise: CSV floats with 17 significant digits, except the
log's time column, which like JSON gets its shortest round-trip text
(`repr`), so a 100 Hz grid reads ``4.98`` rather than
``4.9800000000000004``.  Log counts are integer literals, and stance
flags 0 or 1.

Every JSON document goes through one codec: `_to_doc` writes a
dataclass as an object with one key per field, in field order, arrays
as lists; `_from_doc` reads it back.  Readers are strict.  A missing key
is an error and so is an unknown one; silently defaulted configuration
is how two runs quietly diverge.  What each field admits is stated
once, in `_fields`, and the classes check it when constructed, so a
file and a Python caller get the same refusal.

CSV files stream in both directions, so a million-row log costs about
its parsed array in memory, not several copies of its text.  Readers
scan to the first data row, reading the log's header on the way, so an
empty body reads as no rows, then hand the path and the number of lines
before that row to `np.loadtxt`, which reads the file in chunks, skips
those lines, then blank lines and ``#`` comments, and parses each row
into one record of the format's row dtype (a log row is a float64 time
and six int16 counts, 20 bytes, so a count outside the 16-bit ADC range
is a parse error).  A parse error names the file and the file line of
the refused row, and so does the refusal of a NaN or an infinity in a
trajectory or truth file, which evaluation would otherwise score.
Writers format `_BLOCK_ROWS` rows at a time into a sibling temporary
file and move it onto the target only once the whole file is written,
so a refused or failed write leaves no partial file under the target
name, and an existing target keeps its bytes.

Every CSV block is one matrix of NUL-padded 4-byte groups, a row per
CSV row, and one emitter (`_emit`) writes it with no Python string per
value.  Counts come from a table of ",<count>" for the whole ADC range
(a count outside it is refused), stance flags from a two-entry table (1
where nonzero, as the readers take it), and floats from one layout
(`_layout`) of 17 digits D and a decimal exponent X, which gives
``%.17g`` and, with one rule, the log time column's `repr`.  D is the
exact product of a value in (1e-6, 1e17) and a power of ten (Dekker),
or a log time's exact decimal where `_decimal_times` proves one; the
rest take one ``%`` into the same matrix.  The float writers lay out
each run of equal float64 bits in a column once and repeat its groups.
A NaN or an infinity is refused as the readers refuse it, naming the
file and line.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import re
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from ._fields import _decode, _field_types, check_fields
from .calibration import SensorCalibration
from .ekf import FilterConfig
from .gait import GaitParams, GroundTruth, NoiseParams
from .constants import ADC_MAX, ADC_MIN
from .tracker import ImuLog, Trajectory, _check_counts
from .zupt import StanceConfig

__all__ = [
    "PipelineConfig",
    "read_log",
    "write_log",
    "read_truth",
    "write_truth",
    "read_trajectory",
    "write_trajectory",
    "read_calibration",
    "write_calibration",
    "read_config",
    "write_config",
    "read_gait_params",
    "write_gait_params",
    "write_allan_curve",
    "write_json",
]

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# Rows per block in the writers: large enough to amortise the numpy
# calls, small enough that a million-row log never exists as Python
# objects all at once.
_BLOCK_ROWS = 1024


@contextlib.contextmanager
def _replacing(path, mode: str = "w"):
    """Open a sibling temporary file in ``mode`` and `os.replace` it onto
    ``path`` once the ``with`` body finishes; if anything raises, the
    temporary file is removed and ``path`` is left as it was."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


# One record per CSV row; each field is one column, or with a shape,
# that many side by side.  `np.loadtxt` refuses a row with any other
# column count, and a count text that is not an integer literal or lies
# outside int16, whose range is the ADC range [ADC_MIN, ADC_MAX].  The
# log record is packed, 20 bytes: an aligned 24-byte one left more of
# the parse's growth resident.
_LOG_ROW = np.dtype([("t", np.float64), ("counts", np.int16, (6,))])
_TRUTH_ROW = np.dtype([("t", np.float64), ("p", np.float64, (3,)),
                       ("v", np.float64, (3,)), ("q_nb", np.float64, (4,)),
                       ("stance", np.float64)])
_TRAJ_ROW = np.dtype([("t", np.float64), ("p", np.float64, (3,)),
                      ("q_nb", np.float64, (4,)), ("sfs", np.float64),
                      ("stance", np.float64)])


def _is_body_start(line: str) -> bool:
    return bool(line.strip()) and not line.startswith("#")


# The data-row index in a loadtxt parse error.  It counts only the rows
# loadtxt parses, from the first data row, and is 0-based for a value
# that does not convert but 1-based for a wrong column count.
_LOADTXT_ROW = re.compile(r" at row (\d+)")


def _data_lines(fh, head: int):
    """The file line (1-based) and text of each line loadtxt parses as
    a data row: the first data row, index ``head``, then the lines not
    empty once ``#`` comments go."""
    lines = islice(enumerate(fh, 1), head, None)
    first = next(lines)
    return chain([first], ((n, text) for n, text in lines
                           if text.split("#", 1)[0].rstrip("\n")))


def _refused_line(path, row: np.dtype, reported: int,
                  head: int) -> int | None:
    """File line (1-based) of the data row that loadtxt refused, given
    the row index in its message and the index of the first data row:
    the first of the two rows the index can name that fails to parse
    alone, or None if neither does."""
    with open(path) as fh:
        for number, text in islice(_data_lines(fh, head),
                                   max(reported - 1, 0), reported + 1):
            try:
                np.loadtxt([text], dtype=row, delimiter=",", ndmin=1)
            except ValueError:
                return number
    return None


def _scan_head(path) -> tuple[str, int | None]:
    """The first line of a comment-headed CSV (empty for an empty file)
    and the index of its first data row, None if it has none, read in
    one pass from one `open`."""
    with open(path) as fh:
        first = fh.readline()
        head = next((k for k, line in enumerate(chain([first], fh))
                     if _is_body_start(line)), None)
    return first, head


def _read_rows(path, row: np.dtype, label: str, head: int | None) -> np.ndarray:
    """Parse a comment-headed CSV into ``row`` records, tolerating no data.

    ``head`` is the index of the first data row as `_scan_head` finds
    it, so a body without one (None) gives no records rather than
    loadtxt's "no data" warning.  loadtxt skips the lines before it by
    count, so a whitespace-only line among them, which it would refuse
    as a row, goes with them.  It gets the path, which it reads in
    chunks; from a line iterator it would pull one Python string per
    row.  A parse error names the file and, found again only on that
    error, the file line of the refused row.
    """
    if head is None:
        return np.empty(0, row)
    try:
        return np.loadtxt(path, dtype=row, delimiter=",", ndmin=1,
                          skiprows=head)
    except ValueError as exc:
        message, where = str(exc), ""
        found = _LOADTXT_ROW.search(message)
        number = found and _refused_line(path, row, int(found[1]), head)
        if number:
            message, where = _LOADTXT_ROW.sub("", message, 1), f", line {number}"
        raise ValueError(f"{label} {path}{where}: {message}") from None


def _read_finite_rows(path, row: np.dtype, label: str) -> np.ndarray:
    """`_read_rows` for an all-float64 ``row``, refusing a NaN or an
    infinity with the file line of the first row that holds one:
    loadtxt parses ``nan`` and ``inf``, which evaluation would score."""
    head = _scan_head(path)[1]
    rows = _read_rows(path, row, label, head)
    values = rows.view(np.float64).reshape(rows.size, rows.itemsize // 8)
    if np.isfinite(values).all():
        return rows
    index = int(np.flatnonzero(~np.isfinite(values).all(axis=1))[0])
    bad = values[index][~np.isfinite(values[index])][0]
    raise ValueError(f"{label} {path}, line {_row_line(path, head, index)}: "
                     f"value {bad} is not finite")


def _row_line(path, head: int, index: int) -> int:
    """File line (1-based) of the data row ``index`` of a CSV whose first
    data row is line index ``head``."""
    with open(path) as fh:
        return next(islice(_data_lines(fh, head), index, None))[0]


def _check_increasing(path, label: str, t: np.ndarray) -> None:
    """Refuse times that do not strictly increase, naming the file line
    of the first row whose time does not follow the one before it."""
    steps = np.diff(t)
    if np.all(steps > 0.0):
        return
    index = int(np.argmin(steps > 0.0)) + 1
    line = _row_line(path, _scan_head(path)[1], index)
    raise ValueError(f"{label} {path}, line {line}: "
                     f"time {float(t[index])!r} does not follow "
                     f"{float(t[index - 1])!r}; times must be strictly "
                     "increasing")


# The writers' tables of texts, as NUL-padded 4-byte groups (see the
# module docstring), are built here, not in the first write, so that no
# write's memory peak holds their temporaries.
def _group(text: str) -> int:
    return int(np.frombuffer(text.encode().ljust(4, b"\0"), np.uint32)[0])


def _count_table() -> np.ndarray:
    """",<count>" for each count of the ADC range in 8 bytes, one uint64
    each (0.5 MiB), so a block's count texts are one gather: the comma,
    a minus sign or NUL, then five digits, leading zeros NUL."""
    text = np.zeros((ADC_MAX - ADC_MIN + 1, 8), np.uint8)
    text[:, 0] = ord(",")
    text[:-ADC_MIN, 1] = ord("-")
    rest = np.abs(np.arange(ADC_MIN, ADC_MAX + 1, dtype=np.int32))
    for column in range(6, 1, -1):
        text[:, column] = rest % 10 + ord("0")
        if column < 6:
            text[rest == 0, column] = 0
        rest //= 10
    return text.view(np.uint64).ravel()


_COUNT_TEXTS = _count_table()
# A stance flag's text by whether it is nonzero, as the readers take it.
_FLAG_GROUPS = np.array([_group(",0"), _group(",1")], np.uint32)
_NEWLINES = np.full((_BLOCK_ROWS, 1), _group("\n"), np.uint32)
# Clears the first byte of a group: the comma of a row's first cell,
# before its cells drop their groups that are NUL on every row.
_UNLED = np.frombuffer(b"\0\xff\xff\xff", np.uint32)[0]


# Groups per `_emit` pass, 128 KiB: a truth block's 300 KiB strings
# went back to the system and were paged in again by the next block,
# which made its writes 30-75% slower.
_EMIT_GROUPS = 32_768


def _emit(fh, cells: list) -> None:
    """Write one block of rows to the binary file ``fh``: the
    side-by-side group matrices ``cells``, each led by its comma but the
    first, with each row ended by a newline and the NULs stripped."""
    rows = np.concatenate([*cells, _NEWLINES[:len(cells[0])]], axis=1)
    step = max(1, _EMIT_GROUPS // rows.shape[1])
    for lo in range(0, len(rows), step):
        fh.write(rows[lo:lo + step].tobytes().translate(None, b"\0"))


_POW10 = 10 ** np.arange(18, dtype=np.int64)


# "%04d" of each k below 10,000 in 4 bytes, one uint32 each.
_DIGIT_GROUPS = ((np.arange(10_000)[:, None] // _POW10[3::-1] % 10 + ord("0"))
                 .astype(np.uint8).view(np.uint32).ravel())


def _split_groups(values: np.ndarray, groups: np.ndarray) -> None:
    """Write ``values`` into the columns of ``groups`` as base-10,000
    digits, the last column the least significant."""
    for j in range(groups.shape[1] - 1, 0, -1):
        high = values // 10_000
        groups[:, j] = values - high * 10_000
        values = high
    groups[:, 0] = values


# A float's text is a column of `_FLOAT_WIDTH` groups (`_layout`): a
# sign group, the integer part in five groups of "%04d", the point, the
# fraction in five groups of four digits and an exponent group; X is
# the decimal exponent.  The 17 digits D split into the integer part,
# the first X + 1 of them, and the fraction, the rest after -X - 1
# leading zeros when X < 0, each right-aligned in its groups, so that
# both take whole groups and a mask per X keeps their digits.  The
# tables below have a row for each X in [-6, 16], row X + 6, and a last
# row for a zero.
_ZERO_ROW = 23
_FLOAT_WIDTH = 13


def _float_rows() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each row: the number of D's digits in the fraction, the
    integer part's digits, and the slot of twenty at which the fraction
    starts.  Fixed notation, X in [-4, 16], has X + 1 integer digits, or
    none below 0 (the sign group then holds the "0"), and a fraction of
    16 - X slots; scientific, X in [-6, -5], one digit and sixteen."""
    x = np.arange(-6, 18)
    zero, fixed = x == 17, x >= -4
    fraction = np.select([zero, x >= 0, fixed], [17, 16 - x, 17], 16)
    integer = np.select([zero, x >= 0, fixed], [0, x + 1, 0], 1)
    start = np.select([zero, fixed], [20, x + 4], 4)
    return fraction, integer, start


_FRACTION_DIGITS, _INTEGER_DIGITS, _FRACTION_START = _float_rows()

def _float_masks() -> np.ndarray:
    """``[:, row]``: the mask of the five integer groups, the point and
    the five fraction groups, as uint32 groups of 0xFF or 0 bytes, that
    keeps the row's integer digits, the point and its fraction from
    where it starts; a text uses the last integer groups."""
    at = np.arange(44)
    keep = ((at >= 20 - _INTEGER_DIGITS[:, None]) & (at < 24)
            | (at >= 24 + _FRACTION_START[:, None]))
    return np.ascontiguousarray((keep * np.uint8(0xFF)).view(np.uint32).T)


_FLOAT_MASKS = _float_masks()


def _tail_groups() -> np.ndarray:
    """At 2k, "%04d" of each k below 10,000, and at 2k + 1 the same with
    its trailing zeros NUL, so a fraction's last digits drop theirs."""
    text = np.repeat(_DIGIT_GROUPS, 2).view(np.uint8).reshape(-1, 4)
    k = np.arange(20_000) // 2
    for slot in range(4):
        text[1::2][k[1::2] % 10 ** (4 - slot) == 0, slot] = 0
    return text.view(np.uint32).ravel()


_TAIL_GROUPS = _tail_groups()

# By 2 * row + sign bit: the comma, the sign, and the "0" of a text
# with no integer digits in fixed notation, or of a zero.
_SIGN_GROUPS = np.array([
    _group("," + sign + ("0" if integer == 0 else ""))
    for integer in _INTEGER_DIGITS for sign in ("", "-")], np.uint32)
_EXPONENT_GROUPS = np.array([_group("e-06"), _group("e-05")] + [0] * 22,
                            np.uint32)
# By [shortest, fraction kept]: the point, dropped with an empty
# fraction in "%.17g" and followed by a "0" there in `repr`.
_POINT_GROUPS = np.array([[0, _group(".")], [_group(".0"), _group(".")]],
                         np.uint32)


def _layout(digits: np.ndarray, row: np.ndarray, negative, shortest: bool,
            out: np.ndarray, tall: int = 5) -> None:
    """Lay out the texts of 17 digits D (``digits``, which this
    consumes; 0 for a zero) at their rows, with ``negative`` their sign
    bits, as the `_FLOAT_WIDTH` groups of each column of ``out``: fixed
    notation for X in [-4, 16], with trailing zeros and a bare point
    dropped, and scientific for X in [-6, -5].  That is "%.17g"; with
    ``shortest`` an empty fraction keeps its point and a "0", as `repr`
    writes a number in [1e-4, 1e16).  Only the first ``tall`` fraction
    groups may hold a nonzero digit; the rest are left NUL unworked."""
    shift = _POW10[_FRACTION_DIGITS[row]]
    whole = digits // shift
    digits -= whole * shift
    if tall < 5:
        digits //= _POW10[4 * (5 - tall)]
    wide = -(-len(str(whole.max())) // 4)
    groups = np.empty((wide + tall, digits.size), np.int64)
    _split_groups(whole, groups[:wide].T)
    _split_groups(digits, groups[wide:].T)
    # A fraction group takes its text without trailing zeros when every
    # group after it is zero.
    fraction = groups[wide:]
    bare = np.empty(fraction.shape, bool)
    bare[-1] = True
    for j in range(tall - 1, 0, -1):
        np.logical_and(bare[j], fraction[j] == 0, out=bare[j - 1])
    fraction <<= 1
    fraction |= bare
    out[0] = _SIGN_GROUPS[2 * row + negative]
    out[1:6 - wide] = 0
    np.take(_DIGIT_GROUPS, groups[:wide], out=out[6 - wide:6], mode="clip")
    out[6] = _POINT_GROUPS[int(shortest)][(digits != 0).view(np.uint8)]
    np.take(_TAIL_GROUPS, fraction, out=out[7:7 + tall], mode="clip")
    out[6 - wide:7 + tall] &= np.take(_FLOAT_MASKS[5 - wide:6 + tall], row,
                                      axis=1, mode="clip")
    out[7 + tall:12] = 0
    out[12] = _EXPONENT_GROUPS[row]


def _halves(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of each ``x`` into two halves of at most 26
    significant bits whose sum is ``x``."""
    t = x * 134217729.0  # 2**27 + 1
    high = t - (t - x)
    return high, x - high


# 10**k for k <= 22 is an exact double; its two halves for `_scaled`.
_POW10_FLOAT = 10.0 ** np.arange(23)
_POW10_HIGH, _POW10_LOW = _halves(_POW10_FLOAT)


def _scaled(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D = round-half-even(a * 10**(16 - x)) of the exact product, and
    whether x is off: the product is below 10**16 or D reaches 10**17.

    The product is hi + lo exactly (Dekker 1971).  If it is at least
    10**16 > 2**53, hi is an even integer, so D = hi + rint(lo)."""
    k = 16 - x
    hi = a * _POW10_FLOAT[k]
    a_high, a_low = _halves(a)
    b_high, b_low = _POW10_HIGH[k], _POW10_LOW[k]
    lo = a_high * b_high
    lo -= hi
    lo += a_high * b_low
    lo += a_low * b_high
    lo += a_low * b_low
    digits = hi.astype(np.int64)
    digits += np.rint(lo, out=lo).astype(np.int64)
    off = hi < 1e16
    off |= (hi == 1e16) & (lo < 0)
    off |= digits >= 10 ** 17
    return digits, off


def _digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 significant digits D of each ``a`` in (1e-6, 1e17) as an
    integer, and its decimal exponent X, so that D * 10**(X - 16) is
    ``a`` rounded to 17 digits.

    X starts from log10, which can be one off beside a power of ten;
    those lanes are worked out once more with X one nearer."""
    x = np.floor(np.log10(a)).astype(np.int64)
    np.clip(x, -6, 16, out=x)
    digits, off = _scaled(a, x)
    if off.any():
        lanes = np.flatnonzero(off)
        x[lanes] += np.where(digits[lanes] >= 10 ** 17, 1, -1)
        digits[lanes] = _scaled(a[lanes], x[lanes])[0]
    return digits, x


_FALLBACK_WIDTH = 7     # ",-1.7976931348623157e+308" in 4-byte groups


def _fallback_groups(values: np.ndarray, spec: str) -> np.ndarray:
    """``"," + spec % v`` of each of the (one or more) ``values`` as a
    column of `_FALLBACK_WIDTH` NUL-padded groups, from one ``%``."""
    texts = ("\n".join(["," + spec] * values.size)
             % tuple(values.tolist())).split("\n")
    return (np.array(texts, dtype=f"S{4 * _FALLBACK_WIDTH}")
            .view(np.uint32).reshape(-1, _FALLBACK_WIDTH).T)


# Values per `_layout` call in `_float_groups`.  Its temporaries take
# about 300 bytes a value, and megabytes of them, handed back to the
# system and paged in again, doubled the cost of a 4,000-value call.
_TEXT_CHUNK = 2048


def _float_groups(values: np.ndarray) -> np.ndarray:
    """``"," + "%.17g" % v`` of each finite float64 as a column of
    `_FLOAT_WIDTH` NUL-padded groups, worked out `_TEXT_CHUNK` values at
    a time.  A value in (1e-6, 1e17) or a zero is laid out from its
    digits (`_digits`); the rest (smaller, larger or subnormal) take
    one ``%`` for all of them."""
    groups = np.empty((_FLOAT_WIDTH, values.size), np.uint32)
    a = np.abs(values)
    fast = (a > 1e-6) & (a < 1e17)
    for lo in range(0, values.size, _TEXT_CHUNK):
        hi = lo + _TEXT_CHUNK
        digits, row = _digits(np.where(fast[lo:hi], a[lo:hi], 1.0))
        digits *= fast[lo:hi]
        row += 6
        row[~fast[lo:hi]] = _ZERO_ROW
        _layout(digits, row, np.signbit(values[lo:hi]), False,
                groups[:, lo:hi])
    rest = np.flatnonzero(~fast & (a != 0.0))
    if rest.size:
        groups[:_FALLBACK_WIDTH, rest] = _fallback_groups(values[rest],
                                                          "%.17g")
        groups[_FALLBACK_WIDTH:, rest] = 0
    return groups


def _write_table(path, label: str, header: str, columns, flags=None) -> None:
    """Write a headed CSV of the side-by-side float ``columns`` and, if
    given, a last column of ``flags``: each float as ``%.17g`` gives it,
    each flag as 1 where it is nonzero and 0 elsewhere.  ``label`` names
    the file in a refusal."""
    columns = [*columns] if flags is None else [*columns, flags]
    with _replacing(path, "wb") as fh:
        fh.write(f"{header}\n".encode())
        for lo in range(0, len(columns[0]), _BLOCK_ROWS):
            block = np.concatenate(
                [np.atleast_2d(np.transpose(c[lo:lo + _BLOCK_ROWS]))
                 for c in columns], dtype=np.float64)
            _emit(fh, _column_cells(block, flags is not None,
                                    f"{label} {path}", lo + 2))


def _column_cells(block: np.ndarray, flagged: bool, name: str,
                  line: int) -> list:
    """The cells of the columns of a block, the rows of ``block``, for
    `_emit`: each float column keeps the groups its runs use, and each
    run's groups are repeated by its length.  A run is a stretch of one
    column whose values have the same float64 bits, so -0.0 beside 0.0
    are two runs.  ``flagged`` texts the last column as flags.  A
    non-finite value is refused with ``name`` and the file line of the
    first row that holds one, the block's first row being ``line``."""
    width, m = block.shape
    values = block.ravel()
    bits = values.view(np.int64)
    new = np.empty(values.size, dtype=bool)
    new[0] = True
    np.not_equal(bits[1:], bits[:-1], out=new[1:])
    new[::m] = True
    starts = np.flatnonzero(new)
    runs = values[starts]
    if not np.isfinite(runs).all():
        row = int((starts[~np.isfinite(runs)] % m).min())
        bad = block[:, row][~np.isfinite(block[:, row])][0]
        raise ValueError(f"{name}, line {line + row}: value {bad} is not finite")
    firsts = np.searchsorted(starts, np.arange(width + 1) * m).tolist()
    floats = width - flagged
    groups = _float_groups(runs[:firsts[floats]])
    groups[0, :firsts[1]] &= _UNLED
    used = np.bitwise_or.reduceat(groups, firsts[:floats], axis=1) != 0
    # Each row's run, counted from its column's first run.
    run = np.cumsum(new, dtype=np.intp).reshape(width, m)
    run -= np.array(firsts[:width])[:, None] + 1
    cells = []
    for j in range(floats):
        column = groups[used[:, j], firsts[j]:firsts[j + 1]]
        if column.shape[1] < m:
            column = np.take(column, run[j], axis=1)
        cells.append(column.T)
    if flagged:
        cells.append(_FLAG_GROUPS[(block[-1] != 0.0).view(np.uint8), None])
    return cells


def _decimal_times(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, int] | None:
    """Each time's 17 digits D and `_layout` row, and the block's number
    of fraction groups, for their `repr`; None if the block's `repr`
    texts are not known from exact decimals.

    The times must be +0.0 or lie in [1e-4, 1e15), and for the smallest
    d <= 9 at which ``rint(t * 10**d) / 10**d == t`` holds on every row,
    each m = rint(t * 10**d) must stay below 10**15.  Then t is the
    double nearest m / 10**d, the correctly rounded quotient of two
    exact doubles (Clinger, PLDI 1990).  `repr(t)` has at most the 15
    significant digits of m, and two decimals of at most 15 significant
    digits never read back to the same double, so `repr(t)` is m / 10**d.
    For m of k digits, D is m * 10**(17 - k) and X = k - 1 - d, and its
    last nonzero fraction digit falls in slot k + 2 of twenty.
    """
    if not (np.all((t >= 1e-4) | (t.view(np.uint64) == 0))
            and t.max() < 1e15):
        return None
    for d in range(10):
        scaled = np.rint(t * 10.0 ** d)
        if np.array_equal(scaled / 10.0 ** d, t):
            break
    else:
        return None
    if not scaled.max() < 1e15:
        return None
    m = scaled.astype(np.int64)
    k = np.searchsorted(_POW10[1:], m, side="right") + 1
    row = np.where(m == 0, _ZERO_ROW, k + 5 - d)
    return m * _POW10[17 - k], row, (int(k.max()) + 2) // 4 + 1


def write_log(path, log: ImuLog) -> None:
    """Write an IMU log: one header line, then `t,ax,ay,az,gx,gy,gz`.

    Each block's counts go through `ImuLog`'s check, `_check_counts`,
    which costs nothing for the int16 counts a log holds, so counts
    replaced after the log was built are refused as `ImuLog` refuses
    them, naming the file: float counts (round and cast them first, as
    in ``np.rint(x).astype(np.int32)``) or one outside the ADC range.
    Each time is its `repr`, laid out from an exact decimal where
    `_decimal_times` finds one and by one ``%r`` for the block otherwise.
    """
    with _replacing(path, "wb") as fh:
        fh.write(f"# fs={_fmt(log.fs)} lsb_a={_fmt(log.lsb_accel)} "
                 f"lsb_w={_fmt(log.lsb_gyro)}\n".encode())
        for lo in range(0, log.t.size, _BLOCK_ROWS):
            hi = lo + _BLOCK_ROWS
            try:
                counts = np.concatenate(
                    (_check_counts("accel", log.accel[lo:hi]),
                     _check_counts("gyro", log.gyro[lo:hi])), axis=1)
            except ValueError as exc:
                raise ValueError(f"log {path}: {exc}") from None
            t = log.t[lo:hi]
            decimal = _decimal_times(t)
            if decimal is None:
                times = _fallback_groups(t, "%r")
            else:
                digits, row, tall = decimal
                times = np.empty((_FLOAT_WIDTH, t.size), np.uint32)
                _layout(digits, row, 0, True, times, tall)
            times[0] &= _UNLED
            _emit(fh, [times[np.bitwise_or.reduce(times, axis=1) != 0].T,
                       _COUNT_TEXTS[counts.astype(np.intp) - ADC_MIN]
                       .view(np.uint32)])


_LOG_FIELDS = ("fs", "lsb_a", "lsb_w")


def read_log(path) -> ImuLog:
    """Parse an IMU log written by `write_log` (or the simulator).

    The header is the first line, read in the scan for the first data
    row, so the file is opened once here and once by numpy's parse.  It
    must declare each of fs, lsb_a and lsb_w once.  The counts come back
    as int16, whose range is the ADC range: the parse refuses a count
    outside it, naming its line.  Cast them before arithmetic that can
    leave that range, such as squaring.
    """
    first, head = _scan_head(path)
    header = first.strip()
    fields = {}
    if header.startswith("#"):
        for token in header[1:].split():
            if "=" in token:
                key, _, value = token.partition("=")
                if key in fields and key in _LOG_FIELDS:
                    raise ValueError(f"log {path}: header declares {key} "
                                     "more than once")
                fields[key] = value
    missing = set(_LOG_FIELDS) - fields.keys()
    if missing:
        raise ValueError(
            f"log {path}: header must declare fs, lsb_a, lsb_w; "
            f"missing {sorted(missing)}"
        )
    rows = _read_rows(path, _LOG_ROW, "log", head)
    for key in _LOG_FIELDS:
        try:
            fields[key] = float(fields[key])
        except ValueError:
            raise ValueError(f"log {path}: header field {key}="
                             f"{fields[key]!r} is not a number") from None
    counts = rows["counts"]
    try:
        return ImuLog(t=rows["t"], accel=counts[:, :3], gyro=counts[:, 3:],
                      fs=fields["fs"], lsb_accel=fields["lsb_a"],
                      lsb_gyro=fields["lsb_w"])
    except ValueError as exc:
        # Only a refused log pays for the search of the offending line.
        _check_increasing(path, "log", rows["t"])
        raise ValueError(f"log {path}: {exc}") from None


_TRUTH_HEADER = "# t,px,py,pz,vx,vy,vz,qw,qx,qy,qz,stance"


def write_truth(path, truth: GroundTruth) -> None:
    """Write the ground-truth sidecar: `t, p, v, q, stance` per row."""
    _write_table(path, "truth", _TRUTH_HEADER,
                 [truth.t, truth.p, truth.v, truth.q_nb], truth.stance)


def read_truth(path) -> GroundTruth:
    """Read a truth sidecar.

    The sidecar stores the kinematics evaluation needs; acceleration
    and angular rate are not part of the format and come back as zeros.
    Its times must strictly increase, as a trajectory's must: the rate
    is worked out from their steps, and evaluation matches on them.  A
    time that does not is refused with the file line of its row.
    """
    rows = _read_finite_rows(path, _TRUTH_ROW, "truth")
    n = rows.size
    t = rows["t"]
    _check_increasing(path, "truth", t)
    fs = 1.0 / float(np.median(np.diff(t))) if n > 1 else 0.0
    return GroundTruth(
        t=t,
        p=rows["p"],
        v=rows["v"],
        a=np.zeros((n, 3)),
        q_nb=rows["q_nb"],
        omega=np.zeros((n, 3)),
        stance=rows["stance"] != 0.0,
        fs=fs,
    )


_TRAJ_HEADER = "# t,px,py,pz,qw,qx,qy,qz,sfs,stance"


def write_trajectory(path, traj: Trajectory) -> None:
    """Write an estimated trajectory, floats at full precision."""
    _write_table(path, "trajectory", _TRAJ_HEADER,
                 [traj.t, traj.p, traj.q_nb, traj.sfs], traj.stance)


def read_trajectory(path) -> Trajectory:
    """Read a trajectory written by `write_trajectory`.  A time that does
    not strictly increase is refused with the file line of its row."""
    rows = _read_finite_rows(path, _TRAJ_ROW, "trajectory")
    try:
        return Trajectory(t=rows["t"], p=rows["p"], q_nb=rows["q_nb"],
                          sfs=rows["sfs"], stance=rows["stance"] != 0.0)
    except ValueError:
        # Only a refused trajectory pays for the search of its line.
        _check_increasing(path, "trajectory", rows["t"])
        raise


def write_allan_curve(path, taus, adev) -> None:
    """Write an Allan deviation curve as `tau,adev` rows."""
    _write_table(path, "Allan curve", "# tau,adev", [taus, adev])


def _to_doc(obj):
    """``obj`` as a JSON value: a dataclass is an object with one key per
    field, in field order, and arrays are (nested) lists."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _to_doc(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {key: _to_doc(value) for key, value in obj.items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def _from_doc(cls, doc, label: str):
    """The dataclass ``cls`` from a JSON object with exactly its fields.

    Values go to the class as they are, except that a field holding a
    dataclass is read from its own object first; the class checks each
    value (see `_fields`), and its error is prefixed with ``label``.
    """
    names = [f.name for f in dataclasses.fields(cls)]
    _require_keys(doc, set(names), label)
    types = _field_types(cls)
    values = {n: _from_doc(types[n], doc[n], f"{label} key {n!r}")
              if dataclasses.is_dataclass(types[n]) else doc[n] for n in names}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from exc


def _require_keys(d: dict, expected: set, label: str) -> None:
    if not isinstance(d, dict):
        raise ValueError(f"{label} must be a JSON object")
    missing = expected - d.keys()
    unknown = d.keys() - expected
    if missing or unknown:
        raise ValueError(
            f"{label} must have exactly keys {sorted(expected)}; "
            f"missing {sorted(missing)}, unknown {sorted(unknown)}"
        )


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_json(path, doc) -> None:
    """Write a JSON document with a trailing newline; dataclasses and
    arrays inside ``doc`` are written as `_to_doc` gives them.  A NaN or
    an infinity is refused, as standard JSON has no text for it, and no
    file is left."""
    with _replacing(path) as fh:
        try:
            json.dump(_to_doc(doc), fh, indent=2, allow_nan=False)
        except ValueError as exc:
            raise ValueError(f"JSON {path}: {exc}") from None
        fh.write("\n")


def _cal_doc(cal: SensorCalibration) -> dict:
    # The file keeps the gain as 9 numbers, row-major.
    return dict(_to_doc(cal), gain=cal.gain.ravel().tolist())


def write_calibration(path, accel: SensorCalibration, gyro: SensorCalibration) -> None:
    """Persist both sensor calibrations to one JSON document."""
    write_json(path, {"accel": _cal_doc(accel), "gyro": _cal_doc(gyro)})


def read_calibration(path) -> tuple[SensorCalibration, SensorCalibration]:
    doc = _read_json(path)
    _require_keys(doc, {"accel", "gyro"}, "calibration file")
    return (
        _from_doc(SensorCalibration, doc["accel"], "accel calibration"),
        _from_doc(SensorCalibration, doc["gyro"], "gyro calibration"),
    )


@dataclass
class PipelineConfig:
    """Everything the tracker needs beyond the log itself."""

    filter: FilterConfig
    stance: StanceConfig
    calibration_paths: dict[str, str]

    def __post_init__(self) -> None:
        check_fields(self)
        _require_keys(self.calibration_paths, {"accel", "gyro"},
                      "calibration_paths")


def write_config(path, config: PipelineConfig) -> None:
    """Write the pipeline configuration, every parameter explicit."""
    write_json(path, config)


def read_config(path) -> PipelineConfig:
    return _from_doc(PipelineConfig, _read_json(path), "config file")


def write_gait_params(path, params: GaitParams, fs: float, noise: NoiseParams,
                      lsb_accel: float, lsb_gyro: float) -> None:
    """Persist a simulation scenario: walk, rate, noise, ADC scales."""
    write_json(path, {"gait": params, "fs": fs, "noise": noise,
                      "lsb_accel": lsb_accel, "lsb_gyro": lsb_gyro})


def read_gait_params(path) -> tuple[GaitParams, float, NoiseParams, float, float]:
    doc = _read_json(path)
    label = "simulation parameter file"
    _require_keys(doc, {"gait", "fs", "noise", "lsb_accel", "lsb_gyro"}, label)
    return (
        _from_doc(GaitParams, doc["gait"], "gait section"),
        _decode(float, doc["fs"], f"{label} key 'fs'"),
        _from_doc(NoiseParams, doc["noise"], "noise section"),
        _decode(float, doc["lsb_accel"], f"{label} key 'lsb_accel'"),
        _decode(float, doc["lsb_gyro"], f"{label} key 'lsb_gyro'"),
    )
