"""Per-agent plan sets: file ingestion, synthetic generation, target signals.

Plan files are UTF-8 text named ``agent_<id>.plans``, one plan per line in the
form ``<discomfort>:<v1>,<v2>,...,<vd>``. A target-signal file is a single
line of comma-separated reals.
"""

from __future__ import annotations

import itertools
import re
from pathlib import Path

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
        bad = ~np.isfinite(ps.value_matrix()).all(axis=1) | ~np.isfinite(ps.discomforts())
        if bad.any():
            plan = bad.argmax()
            raise InvalidInputError(f"agent {ps.agent_id} plan {plan} holds NaN or an infinity")


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


def _raise_at_bad_line(path: Path) -> None:
    """Raise the error of a malformed plan file, naming its first bad line."""
    width = None
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(map(str.strip, handle), start=1):
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


def _read_text(path: Path) -> str:
    """A data file's text; bytes that are not UTF-8 raise ``ParseError``."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def load_plan_set(path: Path | str, agent_id: int | None = None) -> PlanSet:
    """Read one plan file; the agent id defaults to the one in the file name."""
    path = Path(path)
    if agent_id is None:
        match = _PLAN_FILE_RE.match(path.name)
        if not match:
            raise ParseError(f"{path}: file name does not look like agent_<id>.plans")
        agent_id = int(match.group(1))
    lines = [line for line in map(str.strip, _read_text(path).split("\n")) if line]
    if not lines:
        raise NoDataError(f"{path}: no plans found")
    table = _plan_table(lines)
    if table is None:
        _raise_at_bad_line(path)
    return PlanSet(agent_id, values=table[:, 1:], discomforts=table[:, 0])


def load_plan_sets(path: Path | str) -> list[PlanSet]:
    """Load every ``agent_<id>.plans`` file in a directory, sorted by agent id.

    The ids of n files must be 1..n, and all agents must agree on plan
    dimension and count, as the engine expects; every value must be finite.
    """
    path = Path(path)
    files = sorted(
        (int(m.group(1)), p)
        for p in path.iterdir()
        if (m := _PLAN_FILE_RE.match(p.name))
    ) if path.is_dir() else None
    if files is None:
        raise NoDataError(f"{path} is not a directory")
    if not files:
        raise NoDataError(f"{path} contains no agent_<id>.plans files")
    n = len(files)
    missing = set(range(1, n + 1)).difference(aid for aid, _ in files)
    if missing:
        raise ConfigError(f"{path}: agent ids must be 1..{n}, and agent {min(missing)} has none")
    plan_sets = [load_plan_set(p, agent_id=aid) for aid, p in files]
    dims = {ps.dimension for ps in plan_sets}
    if len(dims) != 1:
        raise DimensionMismatchError(f"plan dimension differs across agents: {sorted(dims)}")
    counts = {ps.k for ps in plan_sets}
    if len(counts) != 1:
        raise DimensionMismatchError(f"plan count differs across agents: {sorted(counts)}")
    check_finite(plan_sets)
    return plan_sets


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
