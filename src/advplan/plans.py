"""Per-agent plan sets: file ingestion, synthetic generation, target signals.

Plan files are UTF-8 text named ``agent_<id>.plans``, one plan per line in the
form ``<discomfort>:<v1>,<v2>,...,<vd>``. A directory of them keeps its
parsed plans in a cache file beside them (``load_plan_sets``). A
target-signal file is a single line of comma-separated reals.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import math
import os
import re
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    InvalidInputError,
    InvalidSizeError,
    NoDataError,
    ParseError,
)

_PLAN_FILE_RE = re.compile(r"^agent_(\d+)\.plans$")
# A directory's cache file, named for the sha256 of its plan files; the tag
# starts that digest and changes whenever the cache's layout does.
_CACHE_FILE_RE = re.compile(r"^\.advplan-plans-[0-9a-f]{64}\.npy$")
_CACHE_TAG = b"advplan plan cache 1\n"
# Plan files are read through a raw descriptor, in chunks small enough that a
# short file never gets a large buffer.
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)
_READ_CHUNK = 1 << 16


class PlanSet:
    """Ordered candidate plans of one agent; the order is the tie-break order.

    The plans live in one read-only ``(k, d)`` value array and one ``(k,)``
    discomfort array.
    """

    def __init__(self, agent_id: int, values, discomforts) -> None:
        self.agent_id = agent_id
        self._values = np.array(values, dtype=float)
        self._discomforts = np.array(discomforts, dtype=float)
        if self._values.ndim != 2 or 0 in self._values.shape:
            raise InvalidSizeError(f"agent {agent_id} needs a non-empty (k, d) plan array")
        if self._discomforts.shape != self._values.shape[:1]:
            raise InvalidSizeError(f"agent {agent_id} needs one discomfort per plan")
        if (self._discomforts < 0).any():
            raise InvalidInputError(f"agent {agent_id} has a negative discomfort")
        self._values.flags.writeable = self._discomforts.flags.writeable = False

    @classmethod
    def _view(cls, agent_id: int, values: np.ndarray, discomforts: np.ndarray) -> PlanSet:
        """Checked, read-only ``(k, d)`` values and ``(k,)`` discomforts held as
        given: no copy and no re-check."""
        plan_set = cls.__new__(cls)
        plan_set.agent_id = agent_id
        plan_set._values, plan_set._discomforts = values, discomforts
        return plan_set

    def __reduce__(self):
        return PlanSet, (self.agent_id, self._values, self._discomforts)

    @property
    def k(self) -> int:
        return self._values.shape[0]

    @property
    def dimension(self) -> int:
        return self._values.shape[1]

    def value_matrix(self) -> np.ndarray:
        """Plans stacked as a read-only (k, d) array."""
        return self._values

    def discomforts(self) -> np.ndarray:
        return self._discomforts


def check_finite(plan_sets: list[PlanSet]) -> None:
    """Raise ``InvalidInputError`` naming the first agent and plan that hold
    NaN or an infinity, which the loader parses as Python's ``float`` does."""
    for ps in plan_sets:
        if np.isfinite(ps.value_matrix()).all() and np.isfinite(ps.discomforts()).all():
            continue
        bad = ~np.isfinite(ps.value_matrix()).all(axis=1) | ~np.isfinite(ps.discomforts())
        raise InvalidInputError(f"agent {ps.agent_id} plan {bad.argmax()} holds NaN or an infinity")


def _read_bytes(path: str) -> bytes:
    """The bytes of the file at ``path``, read without a file object; an
    ``OSError`` names the path, as ``open`` does."""
    fd = os.open(path, _READ_FLAGS)
    chunks = []
    try:
        while chunk := os.read(fd, _READ_CHUNK):
            chunks.append(chunk)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        os.close(fd)
    return b"".join(chunks)


def _plan_table(lines: list[str]) -> np.ndarray | None:
    """Non-blank plan lines as one ``(k, 1 + d)`` array of discomfort and values.

    Every token goes through Python's ``float``; None means some line is
    malformed, and ``_raise_at_bad_line`` then says which.
    """
    rows = [[head, *tail.split(",")] for head, _, tail in (line.partition(":") for line in lines)]
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        return None
    try:
        table = np.fromiter(map(float, itertools.chain.from_iterable(rows)), float)
    except ValueError:
        return None
    table = table.reshape(len(rows), width)
    return None if (table[:, 0] < 0).any() else table


def _plan_file_table(path: str, data: bytes) -> np.ndarray:
    """The ``_plan_table`` of the plan file at ``path``, from its bytes; a
    malformed file raises the error that names its first bad line."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    if "\r" in text:  # split as text mode would: "\r\n" and a lone "\r" end a line too
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    all_lines = text.split("\n")
    lines = [line for line in map(str.strip, all_lines) if line]
    if not lines:
        raise NoDataError(f"{path}: no plans found")
    table = _plan_table(lines)
    if table is None:
        _raise_at_bad_line(path, all_lines)
    return table


def _raise_at_bad_line(path: str, lines: list[str]) -> NoReturn:
    """Raise the error of a malformed plan file, naming its first bad line."""
    width = None
    for lineno, line in enumerate(map(str.strip, lines), start=1):
        if not line:
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            raise ParseError(f"{path}:{lineno}: missing ':' separator")
        try:
            discomfort = float(head)
            values = [float(tok) for tok in tail.split(",")]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        if discomfort < 0:
            raise ParseError(f"{path}:{lineno}: negative discomfort {discomfort}")
        if width is not None and len(values) != width:
            raise DimensionMismatchError(
                f"{path}:{lineno}: plan has {len(values)} values, expected {width}"
            )
        width = len(values)
    raise ParseError(f"{path}: malformed plan file")


def _read_text(path: Path | str) -> str:
    """A data file's text; bytes that are not UTF-8 raise ``ParseError``."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def _feed(digest, agent_id: int, data: bytes) -> None:
    """Add one plan file's id, length and bytes to a directory's cache key."""
    digest.update(b"%d %d\n" % (agent_id, len(data)))
    digest.update(data)


def _cache_name(digest) -> str:
    return f".advplan-plans-{digest.hexdigest()}.npy"


def _checksum(name: str, values: np.ndarray, discomforts: np.ndarray) -> bytes:
    """The sha256 that binds a cache file's blocks to its name, and so to the
    plan files' bytes."""
    checksum = hashlib.sha256(name.encode())
    checksum.update(values)
    checksum.update(discomforts)
    return checksum.digest()


def _read_record(handle, size: int) -> np.ndarray:
    """The C-order float64 ``.npy`` 1.0 record at the handle's position, read
    without a copy; any other record, or one the ``size``-byte file cannot
    hold, raises ``ValueError`` before its data is read."""
    if np.lib.format.read_magic(handle) != (1, 0):
        raise ValueError("not a version 1.0 .npy record")
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(handle)
    count = math.prod(shape)
    if fortran_order or dtype != np.float64 or not 0 <= 8 * count <= size - handle.tell():
        raise ValueError("not a C-order float64 record that the file holds")
    block = np.empty(shape)
    handle.readinto(block)
    return block


def _read_cache(directory: Path, name: str, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The value and discomfort blocks in the cache file ``name``; None unless
    it holds a finite ``(n, k, d)`` and a finite non-negative ``(n, k)``
    record, k and d positive, followed by nothing but their checksum."""
    try:
        with open(directory / name, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            values, discomforts = _read_record(handle, size), _read_record(handle, size)
            checksum = handle.read()
    except (OSError, ValueError):
        return None
    if (values.ndim != 3 or 0 in values.shape or values.shape[0] != n
            or discomforts.shape != values.shape[:2]
            or checksum != _checksum(name, values, discomforts)
            or not (np.isfinite(values).all() and np.isfinite(discomforts).all())
            or (discomforts < 0).any()):
        return None
    return values, discomforts


def _write_cache(directory: Path, name: str, values, discomforts, stale: list[str]) -> None:
    """Write the blocks to the cache file ``name`` in ``directory`` and then
    remove the ``stale`` cache files, on a best-effort basis: the file appears
    whole or not at all, and an ``OSError`` leaves the load as it is."""
    temp = directory / f"{name}.{os.getpid()}.tmp"
    try:
        with open(temp, "wb") as handle:
            for block in (values, discomforts):
                np.lib.format.write_array(handle, block, version=(1, 0), allow_pickle=False)
            handle.write(_checksum(name, values, discomforts))
        os.replace(temp, directory / name)
        for old in stale:
            if old != name:
                os.remove(directory / old)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(temp)


def load_plan_sets(path: Path | str) -> list[PlanSet]:
    """Load every ``agent_<id>.plans`` file in a directory, sorted by agent id.

    The ids of n files must be 1..n, and all agents must agree on plan
    dimension and count, as the engine expects; every value must be finite.
    Files are parsed one at a time into one ``(n, k, d)`` value block and one
    ``(n, k)`` discomfort block, whose rows are the agents' read-only arrays,
    so only one file's tokens are held.

    The blocks of a directory that passed every check are cached in it as
    ``.advplan-plans-<key>.npy``, where the key is the sha256 of the files'
    ids, lengths and bytes. A later load of the same bytes reads the blocks
    back from that file instead of parsing, unless its checks fail; writing
    and removing cache files is best effort, and an older one is removed.
    """
    path = Path(path)
    if not path.is_dir():
        raise NoDataError(f"{path} is not a directory")
    # str(path / name) for every name, from a single Path join.
    prefix = str(path / "_")[:-1]
    files, caches = [], []
    with os.scandir(path) as entries:
        for entry in entries:
            if m := _PLAN_FILE_RE.match(entry.name):
                files.append((int(m.group(1)), prefix + entry.name))
            elif _CACHE_FILE_RE.match(entry.name):
                caches.append(entry.name)
    if not files:
        raise NoDataError(f"{path} contains no agent_<id>.plans files")
    files.sort()
    n = len(files)
    missing = set(range(1, n + 1)).difference(aid for aid, _ in files)
    if missing:
        raise ConfigError(f"{path}: agent ids must be 1..{n}, and agent {min(missing)} has none")
    if caches:
        digest = hashlib.sha256(_CACHE_TAG)
        for aid, file in files:
            _feed(digest, aid, _read_bytes(file))
        name = _cache_name(digest)
        if name in caches and (blocks := _read_cache(path, name, n)) is not None:
            return _plan_sets(*blocks)

    digest = hashlib.sha256(_CACHE_TAG)
    dims, counts = set(), set()
    for row, (aid, file) in enumerate(files):
        data = _read_bytes(file)
        _feed(digest, aid, data)
        table = _plan_file_table(file, data)
        k, width = table.shape
        if not row:
            values, discomforts = np.empty((n, k, width - 1)), np.empty((n, k))
        dims.add(width - 1)
        counts.add(k)
        if table.shape == (values.shape[1], values.shape[2] + 1):
            values[row], discomforts[row] = table[:, 1:], table[:, 0]
    if len(dims) != 1:
        raise DimensionMismatchError(f"plan dimension differs across agents: {sorted(dims)}")
    if len(counts) != 1:
        raise DimensionMismatchError(f"plan count differs across agents: {sorted(counts)}")
    plan_sets = _plan_sets(values, discomforts)
    if not (np.isfinite(values).all() and np.isfinite(discomforts).all()):
        check_finite(plan_sets)  # names the first agent and plan at fault
    _write_cache(path, _cache_name(digest), values, discomforts, caches)
    return plan_sets


def _plan_sets(values: np.ndarray, discomforts: np.ndarray) -> list[PlanSet]:
    """Agents 1..n with the rows of an ``(n, k, d)`` and an ``(n, k)`` block,
    both made read-only here, so that every row is a read-only view."""
    values.flags.writeable = discomforts.flags.writeable = False
    return [PlanSet._view(aid, *rows) for aid, rows in enumerate(zip(values, discomforts), 1)]


def _format_real(x: float) -> str:
    return repr(float(x))


def save_plan_set(plan_set: PlanSet, directory: Path | str) -> Path:
    """Write one agent's plans in the canonical text format; returns the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"agent_{plan_set.agent_id}.plans"
    lines = [
        _format_real(disc) + ":" + ",".join(map(_format_real, row))
        for disc, row in zip(plan_set.discomforts().tolist(), plan_set.value_matrix().tolist())
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def save_plan_sets(plan_sets: list[PlanSet], directory: Path | str) -> list[Path]:
    return [save_plan_set(ps, directory) for ps in plan_sets]


def generate_gaussian_plans(
    n_agents: int, k_plans: int, d: int, seed: int = 0
) -> list[PlanSet]:
    """Synthesize standard-normal plan sets with rank-based discomfort.

    Every plan value is an i.i.d. N(0, 1) draw from the seeded generator.
    Within an agent, plan ``i`` (zero-based) gets discomfort ``i``, so the
    first plan is the most preferred one at cost 0.
    """
    if n_agents < 1 or k_plans < 1 or d < 1:
        raise InvalidSizeError(
            f"n_agents, k_plans and d must be positive, got ({n_agents}, {k_plans}, {d})"
        )
    rng = np.random.default_rng(seed)
    plan_sets = []
    for agent_id in range(1, n_agents + 1):
        values = rng.standard_normal((k_plans, d))
        plan_sets.append(PlanSet(agent_id, values=values, discomforts=np.arange(k_plans)))
    return plan_sets


def generate_voting_targets(levels: list[float], d: int) -> list[np.ndarray]:
    """All orderings of the level values, one target vector per permutation."""
    if len(set(levels)) != len(levels):
        raise InvalidInputError(f"levels must be distinct, got {levels}")
    if d != len(levels):
        raise InvalidInputError(f"d={d} must equal the number of levels ({len(levels)})")
    return [np.array(perm, dtype=float) for perm in itertools.permutations(levels)]


def load_target_signal(path: Path | str) -> np.ndarray:
    """Read a one-line comma-separated target-signal file as a float vector;
    NaN or an infinity raises ``InvalidInputError`` naming the file."""
    path = Path(path)
    text = _read_text(path).strip()
    if not text:
        raise NoDataError(f"{path}: empty target file")
    try:
        target = np.array([float(tok) for tok in text.split(",")])
    except ValueError as exc:
        raise ParseError(f"{path}:1: {exc}") from None
    if not np.isfinite(target).all():
        raise InvalidInputError(f"target signal {path} holds NaN or an infinity")
    return target


def save_target_signal(target: np.ndarray, path: Path | str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(",".join(map(_format_real, target)) + "\n", encoding="utf-8")
    return path
