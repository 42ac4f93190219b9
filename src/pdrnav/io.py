"""File formats for the batch pipeline.

Plain text throughout: IMU logs and trajectories are CSV, calibration
and configuration are JSON.  Every float is written in text that reads
back to the same bits, which is what makes byte-identical reruns a
meaningful promise: CSV floats with 17 significant digits, except the
log's time column, which like JSON gets its shortest round-trip text
(`repr`), so a 100 Hz grid reads ``4.98`` rather than
``4.9800000000000004``.  Log counts are integer literals.

Every JSON document goes through one codec: `_to_doc` writes a
dataclass as an object with one key per field, in field order, arrays
as lists; `_from_doc` reads it back.  Readers are strict.  A missing key
is an error and so is an unknown one; silently defaulted configuration
is how two runs quietly diverge.  What each field admits is stated
once, in `_fields`, and the classes check it when constructed, so a
file and a Python caller get the same refusal.

CSV files stream in both directions, so a million-row log costs about
its parsed array in memory, not several copies of its text.  Readers
scan to the first data row, reading the first line (the log's header)
on the way, so an empty body reads as no rows, then hand the path and
the number of lines before that row to `np.loadtxt`, which reads the
file in chunks, skips those lines and, after them, blank lines and
``#`` comments itself, and parses each row into one record of the
format's row dtype: a log row is a float64 time and six int32 counts,
32 bytes.  A parse error names the file and the file line of the
refused row, and so does the refusal of a NaN or an infinity in a
trajectory or truth file, which evaluation would otherwise score.
Writers format `_BLOCK_ROWS` rows at a time into a sibling temporary
file and move it onto the target only once the whole file is written,
so a refused or failed write leaves no partial file under the target
name, and an existing target keeps its bytes.
The log writer keeps the counts integers and refuses a count outside
the 16-bit ADC range rather than writing it.  It builds each block as
one matrix of NUL-padded text and strips the NULs in one pass, with no
Python string per value: each count's text is gathered from a table of
",<count>" for the whole ADC range, and each time's `repr` is worked out
from its exact decimal when the block's times have one of at most 15
digits (`_decimal_times`), as a recorder's grid does, and taken from
`float.__repr__` otherwise.

The float writers (truth, trajectory, Allan curve) text each column of
a block by runs of equal float64 bits: a planted foot holds position
and zero velocity for its whole stance and a straight leg one attitude,
so a walk's truth has a third to a fifth as many runs as values.
Each run is texted once and repeated.  Runs, not distinct values: a run
costs one comparison per value, where sorting each column for its
distinct values would slow the trajectory, whose values hardly repeat.
The runs' texts are worked out in whole-array passes, with no Python
float formatting (`_float_texts`): each value's 17 digits are the
rounded exact product of the value and a power of ten (Dekker's
product), laid out in the log writer's digit groups under masks per
decimal exponent, and the NULs stripped in one pass.  Values outside
(1e-6, 1e17), zeros apart, take one ``%`` for the block.
A NaN or an infinity is refused as the readers refuse it, naming the
file and line, and checking only the runs' values.
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
from .tracker import ImuLog, Trajectory
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
def _replacing(path):
    """Open a sibling temporary file for text and `os.replace` it onto
    ``path`` once the ``with`` body finishes; if anything raises, the
    temporary file is removed and ``path`` is left as it was."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_table(path, label: str, header: str, columns, flags=None) -> None:
    """Write a headed CSV of the side-by-side float ``columns`` and, if
    given, a last column of ``flags``: each float as ``%.17g`` gives it,
    each flag as ``%d`` does.  ``label`` names the file in a refusal."""
    columns = [*columns] if flags is None else [*columns, flags]
    with _replacing(path) as fh:
        fh.write(header + "\n")
        for lo in range(0, len(columns[0]), _BLOCK_ROWS):
            block = np.concatenate(
                [np.atleast_2d(np.transpose(c[lo:lo + _BLOCK_ROWS]))
                 for c in columns], dtype=np.float64)
            cells = _column_texts(block, flags is not None,
                                  f"{label} {path}", lo + 2)
            fh.write("\n".join(map(",".join, zip(*cells))))
            fh.write("\n")


def _column_texts(block: np.ndarray, flagged: bool, name: str,
                  line: int) -> list:
    """The texts of each column of a block, which are the rows of
    ``block``, formatted run by run.

    A run is a stretch of one column whose values have the same float64
    bits, so -0.0 beside 0.0, or two NaN payloads, are two runs.  All
    the block's float runs are texted in one `_float_texts` call, each
    text is repeated by its run's length, and a column of runs of one
    keeps its texts as they are.  ``flagged`` texts the last column's
    runs with ``%d``.  A non-finite value is refused, with ``name`` and
    the file line of the first row that holds one, the block's first
    row being ``line``.
    """
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
    n_float = firsts[-2] if flagged else firsts[-1]
    texts = _float_texts(runs[:n_float])
    texts += ["%d" % flag for flag in runs[n_float:].tolist()]
    lengths = np.diff(starts, append=values.size)
    return [texts[a:b] if b - a == m else
            np.repeat(np.array(texts[a:b], dtype=object), lengths[a:b]).tolist()
            for a, b in zip(firsts, firsts[1:])]


# One record per CSV row; each field is one column, or with a shape,
# that many side by side.  `np.loadtxt` refuses a row with any other
# column count, and a count text that is not an integer literal.
_LOG_ROW = np.dtype([("t", np.float64), ("counts", np.int32, (6,))])
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


# The log writer's texts are NUL-padded bytes, stripped of their NULs
# once per block, so a NUL may sit anywhere in a text.  Its tables are
# built here, not in the first write, so that no write's memory peak
# holds their temporaries.
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

# A decimal time text is a row of 4-byte groups: the integer part in
# groups of "%04d", a group holding the point, and the fraction in
# groups of four digits, as many of each as the block needs.
_POW10 = 10 ** np.arange(18, dtype=np.int64)


def _digit_groups() -> np.ndarray:
    """"%04d" of each k below 10,000 in 4 bytes, one uint32 each, and at
    index 10,000 the point."""
    k = np.arange(10_000)[:, None]
    digits = k // _POW10[3::-1] % 10 + ord("0")
    return (np.vstack([digits, [ord("."), 0, 0, 0]]).astype(np.uint8)
            .view(np.uint32).ravel())


_DIGIT_GROUPS = _digit_groups()
_POINT = 10_000


def _keep(start, stop, width: int) -> np.ndarray:
    """The masks that keep bytes [start, stop) of ``width`` bytes, for
    each pair of the broadcast ``start`` and ``stop``, as uint32 groups
    of 0xFF or 0 bytes."""
    at = np.arange(width)
    keep = ((np.asarray(start)[..., None] <= at)
            & (at < np.asarray(stop)[..., None]))
    return (keep * np.uint8(0xFF)).view(np.uint32)


def _time_masks() -> np.ndarray:
    """``[i, f]``: the mask that keeps the last ``i`` digits of four
    integer groups, the point and the first ``f`` digits of three
    fraction groups, as eight uint32 groups of 0xFF or 0 bytes."""
    i = np.arange(16)[:, None]
    f = np.arange(13)[None, :]
    return _keep(16 - i, 16, 32) | _keep(16, 17, 32) | _keep(20, 20 + f, 32)


_TIME_MASKS = _time_masks()


def _split_groups(values: np.ndarray, groups: np.ndarray) -> None:
    """Write ``values`` into the columns of ``groups`` as base-10,000
    digits, the last column the least significant."""
    for j in range(groups.shape[1] - 1, 0, -1):
        high = values // 10_000
        groups[:, j] = values - high * 10_000
        values = high
    groups[:, 0] = values


# A float's "%.17g" text is a column of 4-byte groups: a sign group,
# the integer part in groups of "%04d", the point, the fraction in five
# groups of four digits and an exponent group; X is the decimal
# exponent.  The 17 digits D split into the integer part, the first
# X + 1 of them, and the fraction, the rest after -X - 1 leading zeros
# when X < 0, each right-aligned in its groups, so that both take whole
# groups and a mask per X keeps their digits.  The tables below have a
# row for each X in [-6, 16], row X + 6, and a last row for a zero.
_ZERO_ROW = 23


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

# ``[:, row]``: the mask of the five integer groups, the point and the
# five fraction groups, of which a text uses the last integer groups.
_FLOAT_MASKS = np.ascontiguousarray((
    _keep(20 - _INTEGER_DIGITS, 20, 44) | _keep(20, 24, 44)
    | _keep(24 + _FRACTION_START, 44, 44)).T)


def _tail_groups() -> np.ndarray:
    """At 2k, "%04d" of each k below 10,000, and at 2k + 1 the same with
    its trailing zeros NUL, so a fraction's last digits drop theirs."""
    text = np.repeat(_DIGIT_GROUPS[:10_000], 2).view(np.uint8).reshape(-1, 4)
    k = np.arange(20_000) // 2
    for slot in range(4):
        text[1::2][k[1::2] % 10 ** (4 - slot) == 0, slot] = 0
    return text.view(np.uint32).ravel()


_TAIL_GROUPS = _tail_groups()


def _group(text: str) -> int:
    return int(np.frombuffer(text.encode().ljust(4, b"\0"), np.uint32)[0])


# By 2 * row + sign bit: the newline that ends the text before, the
# sign, and the "0" of a text with no integer digits in fixed notation,
# or of a zero.
_SIGN_GROUPS = np.array([
    _group("\n" + sign + ("0" if integer == 0 else ""))
    for integer in _INTEGER_DIGITS for sign in ("", "-")], np.uint32)
_EXPONENT_GROUPS = np.array([_group("e-06"), _group("e-05")] + [0] * 22,
                            np.uint32)

# 10**k for k <= 22 is an exact double; its two halves for `_scaled`.
_POW10_FLOAT = 10.0 ** np.arange(23)


def _halves(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of each ``x`` into two halves of at most 26
    significant bits whose sum is ``x``."""
    t = x * 134217729.0  # 2**27 + 1
    high = t - (t - x)
    return high, x - high


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


# Values per `_float_text_chunk` call.  Its temporaries take about 300
# bytes a value; the C allocator keeps a few hundred KB of them freed
# for the next call, but hands megabytes back to the system, which then
# pages them in again, and that doubled the cost of a 4,000-value call.
_TEXT_CHUNK = 2048


def _float_texts(values: np.ndarray) -> list:
    """``"%.17g" % v`` of each finite float64, `_TEXT_CHUNK` at a time."""
    texts = []
    for lo in range(0, values.size, _TEXT_CHUNK):
        texts += _float_text_chunk(values[lo:lo + _TEXT_CHUNK])
    return texts


def _float_text_chunk(values: np.ndarray) -> list:
    """``"%.17g" % v`` of each finite float64, worked out in whole-array
    passes as a column of NUL-padded 4-byte groups per value, one uint32
    each.  Each column opens with a newline, so once the NULs go in one
    pass, one split gives the texts.

    A value in (1e-6, 1e17) or a zero is texted here: fixed notation for
    X in [-4, 16], with trailing zeros and a bare point dropped, and
    scientific for X in [-6, -5].  The rest (smaller, larger or
    subnormal) take one ``%`` for all of them."""
    a = np.abs(values)
    fast = (a > 1e-6) & (a < 1e17)
    digits, row = _digits(np.where(fast, a, 1.0))
    row += 6
    row[~fast] = _ZERO_ROW
    shift = _POW10[_FRACTION_DIGITS[row]]
    whole = digits // shift
    digits -= whole * shift
    wide = -(-len(str(whole.max())) // 4)
    groups = np.empty((wide + 5, values.size), np.int64)
    _split_groups(whole, groups[:wide].T)
    _split_groups(digits, groups[wide:].T)
    # A fraction group takes its text without trailing zeros when every
    # group after it is zero.
    fraction = groups[wide:]
    bare = np.empty(fraction.shape, bool)
    bare[4] = True
    np.equal(fraction[4], 0, out=bare[3])
    for j in (3, 2, 1):
        np.logical_and(bare[j], fraction[j] == 0, out=bare[j - 1])
    fraction <<= 1
    fraction |= bare
    text = np.empty((wide + 8, values.size), np.uint32)
    text[0] = _SIGN_GROUPS[2 * row + np.signbit(values)]
    np.take(_DIGIT_GROUPS, groups[:wide], out=text[1:wide + 1], mode="clip")
    text[wide + 1] = _DIGIT_GROUPS[_POINT]
    np.take(_TAIL_GROUPS, fraction, out=text[wide + 2:-1], mode="clip")
    text[1:-1] &= np.take(_FLOAT_MASKS[5 - wide:], row, axis=1, mode="clip")
    text[wide + 1] *= text[wide + 2:-1].any(axis=0)
    text[-1] = _EXPONENT_GROUPS[row]
    used = text.any(axis=1)
    if not used.all():
        text = text[used]
    texts = text.T.tobytes().translate(None, b"\0").decode("ascii").split("\n")
    del texts[0]
    rest = np.flatnonzero(~fast & (a != 0)).tolist()
    if rest:
        fallback = ("\n".join(["%.17g"] * len(rest))
                    % tuple(values[rest].tolist())).split("\n")
        for lane, fallback_text in zip(rest, fallback):
            texts[lane] = fallback_text
    return texts


def _decimal_times(t: np.ndarray) -> np.ndarray | None:
    """`repr` of each time as a row of NUL-padded 4-byte groups, one
    uint32 each, worked out in whole-block passes; None if the block is
    not one this can text exactly, which then takes `float.__repr__`.

    The block's times must be +0.0 or lie in [1e-4, 1e15), and for the
    smallest d <= 9 at which ``rint(t * 10**d) / 10**d == t`` holds on
    every row, each m = rint(t * 10**d) must stay below 10**15.  Then t
    is the double nearest the decimal m / 10**d, being the correctly
    rounded quotient of two exact doubles (Clinger, PLDI 1990).
    `repr(t)` is the shortest decimal that reads back to t, so it has at
    most the 15 significant digits of m, and two decimals of at most 15
    significant digits never read back to the same double: the two are
    one number.  `repr` writes a number in [1e-4, 1e16) in fixed point,
    with the fraction's trailing zeros stripped but one digit kept, as
    this does.  Without the bound on m, a 16- or 17-digit decimal can
    read back to t and not be its `repr`.
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
    whole, fraction = np.divmod(scaled.astype(np.int64), _POW10[d])
    digits = np.searchsorted(_POW10[1:], whole, side="right") + 1
    decimals = np.full(t.size, max(d, 1))
    for s in range(1, d):
        decimals -= fraction % _POW10[s] == 0
    wide = -(-int(digits.max()) // 4)
    tall = max(1, -(-d // 4))
    groups = np.empty((t.size, wide + 1 + tall), np.int64)
    _split_groups(whole, groups[:, :wide])
    groups[:, wide] = _POINT
    _split_groups(fraction * _POW10[4 * tall - d], groups[:, wide + 1:])
    text = _DIGIT_GROUPS[groups]
    text &= _TIME_MASKS[digits, decimals, 4 - wide:5 + tall]
    return text


def write_log(path, log: ImuLog) -> None:
    """Write an IMU log: one header line, then `t,ax,ay,az,gx,gy,gz`.

    Float counts are rounded to the nearest integer, as `ImuLog` holds
    them whole; a count outside the ADC range (NaN and infinities
    among them) is an error rather than a text.
    """
    with _replacing(path) as fh:
        fh.write(
            f"# fs={_fmt(log.fs)} lsb_a={_fmt(log.lsb_accel)} "
            f"lsb_w={_fmt(log.lsb_gyro)}\n"
        )
        for lo in range(0, log.t.size, _BLOCK_ROWS):
            hi = lo + _BLOCK_ROWS
            counts = np.concatenate((log.accel[lo:hi], log.gyro[lo:hi]),
                                    axis=1)
            if counts.dtype.kind == "f":
                counts = np.rint(counts)
            low, high = counts.min(), counts.max()
            if not (ADC_MIN <= low and high <= ADC_MAX):
                bad = high if ADC_MIN <= low else low
                raise ValueError(f"log {path}: count {bad} is outside the "
                                 f"16-bit ADC range [{ADC_MIN}, {ADC_MAX}]")
            t = log.t[lo:hi]
            times = _decimal_times(t)
            if times is None:
                times = np.array(list(map(float.__repr__, t.tolist())),
                                 dtype="S32").view(np.uint32).reshape(-1, 8)
            # A row of 4-byte groups: the time, six counts of two groups
            # each and the newline.
            width = times.shape[1]
            rows = np.empty((t.size, width + 13), np.uint32)
            rows[:, :width] = times
            rows[:, width:-1] = _COUNT_TEXTS[
                counts.astype(np.intp) - ADC_MIN].view(np.uint32)
            rows[:, -1] = ord("\n")
            fh.write(rows.tobytes().translate(None, b"\0").decode("ascii"))


def read_log(path) -> ImuLog:
    """Parse an IMU log written by `write_log` (or the simulator).

    The header is the first line, read in the scan for the first data
    row, so the file is opened once here and once by numpy's parse.
    """
    first, head = _scan_head(path)
    header = first.strip()
    fields = {}
    if header.startswith("#"):
        for token in header[1:].split():
            if "=" in token:
                key, _, value = token.partition("=")
                fields[key] = value
    missing = {"fs", "lsb_a", "lsb_w"} - fields.keys()
    if missing:
        raise ValueError(
            f"log {path}: header must declare fs, lsb_a, lsb_w; "
            f"missing {sorted(missing)}"
        )
    rows = _read_rows(path, _LOG_ROW, "log", head)
    for key in ("fs", "lsb_a", "lsb_w"):
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
    _check_increasing(path, "trajectory", rows["t"])
    return Trajectory(
        t=rows["t"],
        p=rows["p"],
        q_nb=rows["q_nb"],
        sfs=rows["sfs"],
        stance=rows["stance"] != 0.0,
    )


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
