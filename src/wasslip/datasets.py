"""Deterministic dataset generators and the dataset CSV format.

CSV layout: header ``label,x0,x1,...`` then one row per sample; labels are
integers in [0, k).  All generators are pure functions of their arguments.
A generated dataset's rows are rendered in blocks of ``CSV_BLOCK_ROWS``, and
each block is written or hashed before the next is made, so neither
``save_dataset_csv`` nor ``dataset_fingerprint`` holds the whole text.

A dataset's ``dataset_sha256`` is the sha256 of its CSV text without the final
newline.  For a generated dataset that text is the canonical rendering
(``dataset_fingerprint``: 17-digit floats, LF line ends).  For a file it is the
text as read, with CRLF and CR line ends normalised to LF: every file
``gen-data`` writes hashes the same either way, while a hand-written file that
spells a float another way (``0.50``) hashes as its own text.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from typing import Iterator, NoReturn

import numpy as np

from wasslip import io
from wasslip.measures import PointSet
from wasslip.numerics import NumericalError, ensure_addressable, lattice
from wasslip.seeding import derive_rng

GENERATORS = ("gaussian-blobs", "two-moons", "grid")
_CENTER_BOX = 3.0


def _generated(kind: str, xs: np.ndarray, ys: np.ndarray, k: int) -> PointSet:
    """A generator's points.  Finite parameters whose coordinates overflow
    (a `std` of 1e308) are a numerical failure, not bad input."""
    bad = np.flatnonzero(~np.all(np.isfinite(xs), axis=1))
    if bad.size:
        raise NumericalError(f"{kind} coordinates overflow: row {bad[0]} is not finite")
    return PointSet(xs, ys, k)


def gaussian_blobs(n: int, k: int, dim: int, seed: int, std: float = 0.6) -> PointSet:
    """k isotropic Gaussian clusters at seeded centers in the box
    [-_CENTER_BOX, _CENTER_BOX]^dim; class-major order."""
    rng = derive_rng(seed, "gen/gaussian-blobs")
    centers = rng.uniform(-_CENTER_BOX, _CENTER_BOX, (k, dim))
    ys = np.repeat(np.arange(k), [n // k + (1 if c < n % k else 0) for c in range(k)])
    xs = rng.standard_normal((n, dim))  # scaled and shifted in place: no full-size temporaries
    xs *= std
    xs += centers[ys]
    return _generated("gaussian-blobs", xs, ys, k)


def two_moons(n: int, seed: int, noise: float = 0.15) -> PointSet:
    """The standard interleaved half-circles in 2-D; classes split n//2 / n - n//2."""
    rng = derive_rng(seed, "gen/two-moons")
    n_in = n // 2
    n_out = n - n_in
    t_out = np.linspace(0.0, math.pi, n_out)
    t_in = np.linspace(0.0, math.pi, n_in)
    base = [[math.cos(t), math.sin(t)] for t in t_out] + [[1.0 - math.cos(t), 0.5 - math.sin(t)] for t in t_in]
    return _generated("two-moons", np.array(base) + noise * rng.standard_normal((n, 2)), np.repeat([0, 1], [n_out, n_in]), 2)


def grid_side(n: int, dim: int) -> int | None:
    """The lattice side with side**dim == n, or None when n is no such power."""
    side = round(n ** (1.0 / dim))
    return side if side**dim == n else None


def grid(n: int, k: int, dim: int, lo: float = -1.0, hi: float = 1.0) -> PointSet:
    """A lattice of n = side**dim points; labels cycle through [0, k)."""
    side = grid_side(n, dim)
    if side is None:
        raise ValueError(f"grid size {n} is not a perfect {dim}-th power")
    return _generated("grid", lattice([np.linspace(lo, hi, side)] * dim), np.arange(n) % k, k)


def gen_data(kind: str, n: int, k: int, dim: int, seed: int, **params) -> PointSet:
    if kind not in GENERATORS:
        raise ValueError(f"unknown generator {kind!r}; choose one of {GENERATORS}")
    if n < k or k < 2:
        raise ValueError("need n >= k >= 2")
    ensure_addressable((n, dim), "the coordinates")  # k <= n, so the centres and labels fit too
    if kind == "gaussian-blobs":
        return gaussian_blobs(n, k, dim, seed, **params)
    if kind == "two-moons":
        if dim != 2 or k != 2:
            raise ValueError("two-moons requires dim=2 and k=2")
        return two_moons(n, seed, **params)
    return grid(n, k, dim, **params)


CSV_BLOCK_ROWS = 512


def _csv_blocks(points: PointSet) -> Iterator[str]:
    """The dataset CSV without its final newline, in pieces: the header, then
    blocks of at most CSV_BLOCK_ROWS rows, each row a newline and then
    ``label,x0,x1,...`` with 17-digit floats."""
    yield "label," + ",".join(f"x{i}" for i in range(points.dim))
    row = "\n%d," + ",".join(["%.17g"] * points.dim)
    for start in range(0, len(points), CSV_BLOCK_ROWS):
        block = slice(start, start + CSV_BLOCK_ROWS)
        yield "".join([row % (y, *x) for y, x in zip(points.ys[block].tolist(), points.xs[block].tolist())])


def save_dataset_csv(points: PointSet, path) -> None:
    io.write_blocks(path, itertools.chain(_csv_blocks(points), ["\n"]))


# Labels are stored as int64, so the inferred label count must fit one.
_LABEL_LIMIT = int(np.iinfo(np.int64).max)


def load_dataset_csv(path) -> tuple[PointSet, str]:
    """Parse a dataset CSV strictly: every row has one integer label and as
    many finite coordinates as the header names; the label count is the
    largest label plus one.  Lines end at '\n' only, so line numbers match
    an editor's.  A data row may hold ASCII characters only and no '_';
    ASCII whitespace around a field is accepted.  Anything else raises
    io.InputFileError naming the file and line.

    Returns the points and the sha256 of the text read (line ends
    normalised to LF) without its final newline."""
    text = io.read_text(path)
    digest = io.sha256_hex(text.removesuffix("\n").encode("utf-8"))
    rows = [ln.split(",") for ln in text.split("\n") if ln.strip()]
    if len(rows) < 2 or rows[0][0] != "label" or len(rows[0]) < 2:
        raise io.InputFileError(path, None, "expected a 'label,x0,x1,...' header and at least one data row")
    width = len(rows[0])
    rows = rows[1:]
    try:
        if any(len(cells) != width for cells in rows):
            raise ValueError("ragged rows")
        # one scan of the whole text; only when it flags, find out whether a
        # data row (not the header) is at fault
        if not io.plain_number_text(text) and not all(io.plain_number_text(c) for cells in rows for c in cells):
            raise ValueError("characters outside the number grammar")
        labels = [int(cells[0]) for cells in rows]
        xs = np.array([c for cells in rows for c in cells[1:]], dtype=float).reshape(len(rows), width - 1)
    except ValueError:
        _raise_first_bad_row(path, text, width)
    k = min(max(labels) + 1, _LABEL_LIMIT)
    bad = ~np.all(np.isfinite(xs), axis=1) | np.array([not 0 <= y < k for y in labels])
    if bad.any():
        r = int(np.argmax(bad))
        what = f"label {labels[r]} outside [0, {k})" if np.all(np.isfinite(xs[r])) else "non-finite coordinate"
        raise io.InputFileError(path, _row_lines(text)[r], what)
    return PointSet(xs, np.array(labels), k), digest


def _row_lines(text: str) -> list:
    """The 1-based line number of each data row (blank lines skipped)."""
    return [i + 1 for i, ln in enumerate(text.split("\n")) if ln.strip()][1:]


def _raise_first_bad_row(path, text: str, width: int) -> NoReturn:
    """The per-row scan that names the first row the whole-file parse
    rejected: a wrong field count, a '_' or non-ASCII character, a label
    that is not an integer or a coordinate that is not a number."""
    lines = text.split("\n")
    for line in _row_lines(text):
        cells = lines[line - 1].split(",")
        if len(cells) != width:
            raise io.InputFileError(path, line, f"expected {width} fields, got {len(cells)}")
        if not io.plain_number_text(lines[line - 1]):
            raise io.InputFileError(path, line, io.NOT_PLAIN_NUMBER)
        try:
            int(cells[0])
        except ValueError:
            raise io.InputFileError(path, line, f"label {cells[0]!r} is not an integer") from None
        try:
            [float(c) for c in cells[1:]]
        except ValueError:
            raise io.InputFileError(path, line, "coordinate is not a number") from None
    raise AssertionError(f"{path}: the per-row scan accepts every row the whole-file parse rejected")


def dataset_fingerprint(points: PointSet) -> str:
    """sha256 of the dataset's CSV text without its final newline."""
    digest = hashlib.sha256()
    for block in _csv_blocks(points):
        digest.update(block.encode("utf-8"))
    return digest.hexdigest()
