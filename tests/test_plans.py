import hashlib
import os
import pickle
import re
import tracemalloc

import numpy as np
import pytest

import advplan.plans as plans_mod
from advplan.errors import (
    ConfigError,
    DimensionMismatchError,
    InvalidInputError,
    InvalidSizeError,
    NoDataError,
    ParseError,
)
from advplan.plans import (
    PlanSet,
    generate_gaussian_plans,
    generate_voting_targets,
    load_plan_sets,
    load_target_signal,
    save_plan_sets,
    save_target_signal,
)


def load_alone(path):
    """The plan file at ``path`` loaded as ``agent_1.plans``, the only plan
    file of a directory beside it."""
    directory = path.with_suffix(".alone")
    directory.mkdir(exist_ok=True)
    (directory / "agent_1.plans").write_bytes(path.read_bytes())
    return load_plan_sets(directory)[0]


def test_plan_line_round_trip(tmp_path):
    (tmp_path / "agent_1.plans").write_text("0.25:1.0,2.0\n")
    ps = load_plan_sets(tmp_path)[0]
    assert ps.agent_id == 1
    assert ps.k == 1
    assert ps.discomforts()[0] == 0.25
    assert np.array_equal(ps.value_matrix()[0], [1.0, 2.0])


def test_energy_style_file_shape(tmp_path):
    rng = np.random.default_rng(0)
    lines = ["0.5:" + ",".join(repr(float(v)) for v in rng.random(144)) for _ in range(10)]
    (tmp_path / "agent_1.plans").write_text("\n".join(lines) + "\n")
    ps = load_plan_sets(tmp_path)[0]
    assert ps.k == 10
    assert ps.dimension == 144


@pytest.mark.parametrize(
    "line",
    ["0.25:1.0,x", "nope:1,2", "0.25,1.0,2.0", "-1.0:1,2"],
)
def test_malformed_lines(tmp_path, line):
    path = tmp_path / "agent_1.plans"
    path.write_text(line + "\n")
    with pytest.raises(ParseError) as err:
        load_plan_sets(tmp_path)
    assert "agent_1.plans:1" in str(err.value)


def test_inconsistent_dimension_within_file(tmp_path):
    (tmp_path / "agent_1.plans").write_text("0.1:1,2\n0.2:1,2,3\n")
    with pytest.raises(DimensionMismatchError):
        load_plan_sets(tmp_path)


def test_inconsistent_dimension_across_agents(tmp_path):
    (tmp_path / "agent_1.plans").write_text("0.1:1,2\n")
    (tmp_path / "agent_2.plans").write_text("0.1:1,2,3\n")
    with pytest.raises(DimensionMismatchError):
        load_plan_sets(tmp_path)


@pytest.mark.parametrize(
    "names", [["agent_1", "agent_3"], ["agent_0", "agent_1"], ["agent_1", "agent_01"]]
)
def test_agent_ids_must_be_1_to_n(tmp_path, names):
    """n plan files hold agents 1..n: a gap, an agent 0 or an id named twice
    is refused, naming the directory, before any file is parsed."""
    for name in names:
        (tmp_path / f"{name}.plans").write_text("not a plan\n")
    message = rf"^{re.escape(str(tmp_path))}: agent ids must be 1\.\.2, and agent 2 has none$"
    with pytest.raises(ConfigError, match=message):
        load_plan_sets(tmp_path)


def test_empty_directory(tmp_path):
    with pytest.raises(NoDataError):
        load_plan_sets(tmp_path)


def test_save_load_save_is_stable(tmp_path):
    plan_sets = generate_gaussian_plans(5, 4, 7, seed=13)
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert save_plan_sets(plan_sets, first) == [first / f"agent_{i}.plans" for i in range(1, 6)]
    reloaded = load_plan_sets(first)
    save_plan_sets(reloaded, second)
    for i in range(1, 6):
        a = (first / f"agent_{i}.plans").read_bytes()
        b = (second / f"agent_{i}.plans").read_bytes()
        assert a == b


def test_gaussian_rank_discomfort():
    plan_sets = generate_gaussian_plans(10, 2, 2, seed=7)
    assert len(plan_sets) == 10
    for ps in plan_sets:
        assert list(ps.discomforts()) == [0.0, 1.0]


def test_gaussian_determinism_and_seed_sensitivity():
    a = generate_gaussian_plans(4, 3, 5, seed=42)
    b = generate_gaussian_plans(4, 3, 5, seed=42)
    c = generate_gaussian_plans(4, 3, 5, seed=43)
    for x, y in zip(a, b):
        assert np.array_equal(x.value_matrix(), y.value_matrix())
    assert not np.array_equal(a[0].value_matrix(), c[0].value_matrix())


def test_gaussian_plans_are_rows_of_one_read_only_block():
    """One (n, k, d) draw holds the values that n draws of (k, d) from the same
    generator held, and the plan sets are read-only rows of it and of one
    (n, k) discomfort block, as the loader's are."""
    plan_sets = generate_gaussian_plans(30, 7, 5, seed=11)
    rng = np.random.default_rng(11)
    blocks = plan_sets[0].value_matrix().base, plan_sets[0].discomforts().base
    assert [block.shape for block in blocks] == [(30, 7, 5), (30, 7)]
    assert not any(block.flags.writeable for block in blocks)
    for aid, ps in enumerate(plan_sets, 1):
        assert ps.agent_id == aid
        assert (ps.value_matrix().base, ps.discomforts().base) == blocks
        assert ps.value_matrix().tobytes() == rng.standard_normal((7, 5)).tobytes()
        assert ps.discomforts().tobytes() == np.arange(7, dtype=float).tobytes()


def test_gaussian_sample_mean_near_zero():
    # Law-of-large-numbers check over 100k draws.
    plan_sets = generate_gaussian_plans(100, 10, 100, seed=1)
    values = np.concatenate([ps.value_matrix().ravel() for ps in plan_sets])
    assert abs(values.mean()) < 0.02


@pytest.mark.parametrize("bad", [(0, 2, 2), (3, 0, 2), (3, 2, 0)])
def test_gaussian_rejects_bad_sizes(bad):
    with pytest.raises(InvalidSizeError):
        generate_gaussian_plans(*bad)


def test_voting_targets_five_levels():
    targets = generate_voting_targets([0, 0.25, 0.5, 0.75, 1])
    assert len(targets) == 120
    as_tuples = {tuple(t) for t in targets}
    assert len(as_tuples) == 120


def test_voting_targets_small_cases():
    two = generate_voting_targets([0, 1])
    assert [t.tolist() for t in two] == [[0, 1], [1, 0]]
    assert all(t.dtype == float for t in two)
    assert len(generate_voting_targets([0, 0.5, 1])) == 6


def test_voting_targets_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        generate_voting_targets([0, 0, 1])


def test_target_signal_file_round_trip(tmp_path):
    target = np.array([0.25, 0.5, 1.0])
    path = save_target_signal(target, tmp_path / "t.target")
    back = load_target_signal(path)
    assert back.dtype == float and np.array_equal(back, target)


def test_plan_set_validations():
    with pytest.raises(InvalidSizeError):
        PlanSet(agent_id=1, values=np.zeros((0, 1)), discomforts=())
    with pytest.raises(InvalidInputError):
        PlanSet(agent_id=1, values=[[1.0]], discomforts=[-0.5])


def test_loader_arrays_match_python_float(tmp_path):
    rows = [
        ("0", ["1e-3", "2.5E+10", "-7.25e-310", "1_000.5"]),
        (" +0.5 ", ["  -0.0", "+0.0 ", "inf", "-INF"]),
        ("2_0", ["+1.5", " 3 ", "1E3", "-Infinity"]),
        ("-0.0", ["0.1", "nan", "12345678901234567890", ".5"]),
    ]
    body = "\r\n\r\n".join(head + ":" + ",".join(tail) for head, tail in rows)
    path = tmp_path / "agent_1.plans"
    path.write_bytes(("\n  \n" + body + "\r\n\n").encode())
    # The directory loader refuses the non-finite tokens after parsing them.
    table = plans_mod._plan_file_table(str(path), path.read_bytes())
    values = np.array([[float(tok) for tok in tail] for _, tail in rows])
    discomforts = np.array([float(head) for head, _ in rows])
    assert table.shape == (4, 1 + 4)
    assert table[:, 1:].tobytes() == values.tobytes()
    assert table[:, 0].tobytes() == discomforts.tobytes()


def test_plan_set_arrays_are_read_only_copies():
    values = np.arange(6.0).reshape(3, 2)
    ps = PlanSet(2, values=values, discomforts=[0.0, 1.0, 2.0])
    values[0, 0] = 99.0
    assert ps.value_matrix()[0, 0] == 0.0
    with pytest.raises(ValueError):
        ps.value_matrix()[0, 0] = 5.0
    with pytest.raises(ValueError):
        ps.discomforts()[0] = 5.0
    with pytest.raises(InvalidSizeError):
        PlanSet(1, values=np.zeros((2, 3)), discomforts=[0.0])
    with pytest.raises(InvalidInputError):
        PlanSet(1, values=np.zeros((1, 3)), discomforts=[-1.0])


@pytest.mark.parametrize(
    "text,error,where",
    [
        ("0.1:1,2\n\n0.2:1,x\n", ParseError, ":3"),
        ("0.1:1,2\r\n0.2 1,2\r\n", ParseError, ":2"),
        ("0.1:1,2\n0.2:1,2\n\n-0.5:1,2\n", ParseError, ":4"),
        ("0.1:1,2\n0.2:1,2,3\n", DimensionMismatchError, ":2"),
        ("\n0.1:1\n0.2:1,2\n0.3:1,y\n", DimensionMismatchError, ":3"),
        ("0.1,0.2:1,2\n", ParseError, ":1"),
        ("0.1:1:2\n", ParseError, ":1"),
        ("0.1:\n", ParseError, ":1"),
        ("\n \r\n\n", NoDataError, ""),
    ],
)
def test_malformed_files_name_their_line(tmp_path, text, error, where):
    path = tmp_path / "agent_1.plans"
    path.write_bytes(text.encode())
    with pytest.raises(error) as err:
        load_plan_sets(tmp_path)
    assert f"agent_1.plans{where}:" in str(err.value)


def test_plan_set_pickles_read_only():
    ps = generate_gaussian_plans(1, 3, 2, seed=5)[0]
    back = pickle.loads(pickle.dumps(ps))
    assert back.agent_id == ps.agent_id
    assert back.value_matrix().tobytes() == ps.value_matrix().tobytes()
    assert back.discomforts().tobytes() == ps.discomforts().tobytes()
    assert not back.value_matrix().flags.writeable
    assert not back.discomforts().flags.writeable


# Each agent's file spells the same 4 x 4 table in its own syntax: every
# token form of test_loader_arrays_match_python_float, CRLF and lone CR line
# ends, and blank or whitespace-only lines anywhere.
SYNTAX_ROWS = [
    ("0", ["1e-3", "2.5E+10", "-7.25e-310", "1_000.5"]),
    (" +0.5 ", ["  -0.0", "+0.0 ", "inf", "-INF"]),
    ("2_0", ["+1.5", " 3 ", "1E3", "-Infinity"]),
    ("-0.0", ["0.1", "nan", "12345678901234567890", ".5"]),
]
SYNTAX_FILES = {
    1: "\n".join(h + ":" + ",".join(t) for h, t in SYNTAX_ROWS) + "\n",
    2: "\r\n".join(h + ":" + ",".join(t) for h, t in SYNTAX_ROWS),
    3: "\n  \n" + "\r\n\r\n".join(h + ":" + ",".join(t) for h, t in SYNTAX_ROWS) + "\r\n\n",
    4: "\t\n" + "\r".join(h + ":" + ",".join(t) for h, t in SYNTAX_ROWS) + "\r \r",
    5: "\n\n".join(" " + h + ":" + ",".join(t) + " \t" for h, t in SYNTAX_ROWS),
}


def caches(directory):
    """The plan cache files, and any temporary file of one, in ``directory``."""
    return sorted(path.name for path in directory.glob(".advplan-plans-*"))


def test_directory_load_equals_each_file_alone(tmp_path, monkeypatch):
    """Every agent of a directory gets the arrays of its file loaded alone,
    bit for bit and read-only, which are ``float`` of each token: from a
    load that parses the files, and from the next, which reads the cache
    that the first one wrote and parses none."""
    for agent, text in SYNTAX_FILES.items():
        (tmp_path / f"agent_{agent}.plans").write_bytes(text.encode())
    (tmp_path / "notes.txt").write_text("not a plan file\n")
    values = np.array([[float(tok) for tok in tail] for _, tail in SYNTAX_ROWS])
    discomforts = np.array([float(head) for head, _ in SYNTAX_ROWS])
    paths = [tmp_path / f"agent_{agent}.plans" for agent in SYNTAX_FILES]
    singles = [plans_mod._plan_file_table(str(path), path.read_bytes()) for path in paths]
    with pytest.raises(InvalidInputError, match="^agent 1 plan 1 holds NaN or an infinity$"):
        load_plan_sets(tmp_path)
    assert caches(tmp_path) == []
    for table in singles:
        assert table[:, 1:].tobytes() == values.tobytes()
        assert table[:, 0].tobytes() == discomforts.tobytes()

    # The same tokens, finite, through the directory loader.
    finite = {"inf": "1e308", "-INF": "-2_5", "-Infinity": "-7", "nan": "0.0"}
    rows = [(h, [finite.get(tok, tok) for tok in t]) for h, t in SYNTAX_ROWS]
    for agent, text in SYNTAX_FILES.items():
        for (_, tail), (_, clean) in zip(SYNTAX_ROWS, rows):
            text = text.replace(",".join(tail), ",".join(clean))
        (tmp_path / f"agent_{agent}.plans").write_bytes(text.encode())
    values = np.array([[float(tok) for tok in tail] for _, tail in rows])
    cold = load_plan_sets(tmp_path)
    assert len(caches(tmp_path)) == 1
    monkeypatch.setattr(plans_mod, "_plan_file_table", None)
    warm = load_plan_sets(tmp_path)
    monkeypatch.undo()
    assert [ps.agent_id for ps in cold] == [ps.agent_id for ps in warm] == list(SYNTAX_FILES)
    for ps in [*cold, *warm]:
        alone = load_alone(tmp_path / f"agent_{ps.agent_id}.plans")
        for got, want in ((ps.value_matrix(), alone.value_matrix()),
                          (ps.discomforts(), alone.discomforts())):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 1.0
        assert ps.value_matrix().tobytes() == values.tobytes()
        assert ps.discomforts().tobytes() == discomforts.tobytes()
        back = pickle.loads(pickle.dumps(ps))
        assert back.value_matrix().tobytes() == values.tobytes()


def write_agents(directory, texts):
    for agent, text in texts.items():
        (directory / f"agent_{agent}.plans").write_bytes(text.encode())


def test_directory_errors_name_the_first_bad_file(tmp_path):
    """A file that does not parse is reported before any other fault, and
    the first such file by agent id wins."""
    write_agents(tmp_path, {1: "0:1,2\n", 2: "0:1,2\n1:1,x\n", 3: "\n \n", 4: "0:1\n"})
    with pytest.raises(ParseError) as err:
        load_plan_sets(tmp_path)
    assert str(err.value) == (
        f"{tmp_path / 'agent_2.plans'}:2: could not convert string to float: 'x'"
    )
    (tmp_path / "agent_2.plans").write_text("0:1,2\n1:1,2\n")
    with pytest.raises(NoDataError, match=r"agent_3\.plans: no plans found$"):
        load_plan_sets(tmp_path)


def test_directory_checks_dimension_then_count_then_finiteness(tmp_path):
    """Across agents, a dimension mismatch is reported before a count
    mismatch, and both before a non-finite value."""
    write_agents(tmp_path, {1: "0:nan,1\n1:1,2\n", 2: "0:1,2,3\n", 3: "0:1,2\n"})
    with pytest.raises(DimensionMismatchError) as err:
        load_plan_sets(tmp_path)
    assert str(err.value) == "plan dimension differs across agents: [2, 3]"
    (tmp_path / "agent_2.plans").write_text("0:1,2\n")
    with pytest.raises(DimensionMismatchError) as err:
        load_plan_sets(tmp_path)
    assert str(err.value) == "plan count differs across agents: [1, 2]"
    write_agents(tmp_path, {1: "0:0,1\n", 2: "0:1,2\n1:inf,2\n", 3: "0:1,2\n1:1,nan\n"})
    (tmp_path / "agent_1.plans").write_text("0:0,1\n1:1,2\n")
    with pytest.raises(InvalidInputError) as err:
        load_plan_sets(tmp_path)
    assert str(err.value) == "agent 2 plan 1 holds NaN or an infinity"
    write_agents(tmp_path, {2: "0:1,2\n1:1,2\n", 3: "nan:1,2\n1:1,2\n"})
    with pytest.raises(InvalidInputError, match="^agent 3 plan 0 holds NaN or an infinity$"):
        load_plan_sets(tmp_path)


def test_directory_load_holds_one_files_tokens_at_a_time(tmp_path):
    """Beyond the arrays it returns, a load holds about one file's text and
    tokens: 200 files of 10 x 24 plans hold 400 kB of arrays, and their
    tokens as strings would take more than 3 MB at once. That holds for a
    load that parses the files and writes the cache, and for one that reads
    the cache; both return rows of one value block and one discomfort block."""
    save_plan_sets(generate_gaussian_plans(200, 10, 24, seed=3), tmp_path)
    load_plan_sets(tmp_path)  # first calls allocate once, whatever the size
    for load in ("cold", "warm"):
        for name in caches(tmp_path) if load == "cold" else ():
            (tmp_path / name).unlink()
        tracemalloc.start()
        try:
            plan_sets = load_plan_sets(tmp_path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(caches(tmp_path)) == 1
        assert sum(ps.value_matrix().nbytes + ps.discomforts().nbytes for ps in plan_sets) == 400_000
        assert peak - held < 200_000, load
        blocks = plan_sets[0].value_matrix().base, plan_sets[0].discomforts().base
        assert [block.shape for block in blocks] == [(200, 10, 24), (200, 10)]
        assert not any(block.flags.writeable for block in blocks)
        for ps in plan_sets:
            assert (ps.value_matrix().base, ps.discomforts().base) == blocks


def cold_and_cache(directory):
    """A load that parses ``directory`` and writes its cache, the cache file's
    name and its bytes."""
    for name in caches(directory):
        (directory / name).unlink()
    plan_sets = load_plan_sets(directory)
    (name,) = caches(directory)
    return plan_sets, name, (directory / name).read_bytes()


def assert_same_plans(got, want):
    assert [ps.agent_id for ps in got] == [ps.agent_id for ps in want]
    for a, b in zip(got, want):
        assert a.value_matrix().tobytes() == b.value_matrix().tobytes()
        assert a.discomforts().tobytes() == b.discomforts().tobytes()
        assert a.value_matrix().shape == b.value_matrix().shape
        assert not (a.value_matrix().flags.writeable or a.discomforts().flags.writeable)


def counting_parses(monkeypatch):
    """A list that gets one entry per plan file the loader parses."""
    parsed = []
    parse = plans_mod._plan_file_table
    monkeypatch.setattr(plans_mod, "_plan_file_table",
                        lambda path, data: parsed.append(path) or parse(path, data))
    return parsed


def test_a_same_size_edit_misses_the_cache_even_with_its_mtime_put_back(tmp_path, monkeypatch):
    """The cache is keyed on the files' bytes, not their sizes or times: one
    digit changed in place is parsed, and the new cache replaces the old."""
    save_plan_sets(generate_gaussian_plans(4, 3, 2, seed=8), tmp_path)
    _, old_name, _ = cold_and_cache(tmp_path)
    path = tmp_path / "agent_3.plans"
    text, stat = path.read_text(), path.stat()
    end = text.index(",")  # the last digit of the first value
    edited = text[:end - 1] + str((int(text[end - 1]) + 1) % 10) + text[end:]
    assert len(edited) == len(text) and edited != text
    path.write_text(edited)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_size == stat.st_size and path.stat().st_mtime_ns == stat.st_mtime_ns
    parsed = counting_parses(monkeypatch)
    loaded = load_plan_sets(tmp_path)
    assert len(parsed) == 4
    assert loaded[2].value_matrix().tobytes() == load_alone(path).value_matrix().tobytes()
    assert loaded[2].value_matrix()[0, 0] != generate_gaussian_plans(4, 3, 2, seed=8)[2].value_matrix()[0, 0]
    assert len(caches(tmp_path)) == 1 and caches(tmp_path) != [old_name]
    parsed.clear()
    assert_same_plans(load_plan_sets(tmp_path), loaded)
    assert parsed == []


def test_an_added_or_removed_agent_file_misses_the_cache(tmp_path, monkeypatch):
    """A cache names the agents it holds: a new agent file is parsed with the
    rest, and a removed one that leaves a gap gets the usual id error."""
    save_plan_sets(generate_gaussian_plans(4, 3, 2, seed=8), tmp_path)
    cold_and_cache(tmp_path)
    save_plan_sets(generate_gaussian_plans(5, 3, 2, seed=9)[4:], tmp_path)
    parsed = counting_parses(monkeypatch)
    five = load_plan_sets(tmp_path)
    assert len(five) == 5 and len(parsed) == 5 and len(caches(tmp_path)) == 1
    (tmp_path / "agent_5.plans").unlink()
    parsed.clear()
    assert_same_plans(load_plan_sets(tmp_path), five[:4])
    assert len(parsed) == 4
    # Agent 1's last plan moved to the start of agent 2's file: the files'
    # bytes, read one after the other, are those the cache was made from.
    first, second = (tmp_path / "agent_1.plans").read_text(), (tmp_path / "agent_2.plans").read_text()
    cut = first.rstrip("\n").rindex("\n") + 1
    (tmp_path / "agent_1.plans").write_text(first[:cut])
    (tmp_path / "agent_2.plans").write_text(first[cut:] + second)
    with pytest.raises(DimensionMismatchError, match=r"^plan count differs across agents: \[2, 3, 4\]$"):
        load_plan_sets(tmp_path)
    (tmp_path / "agent_2.plans").unlink()
    message = rf"^{re.escape(str(tmp_path))}: agent ids must be 1\.\.3, and agent 2 has none$"
    with pytest.raises(ConfigError, match=message):
        load_plan_sets(tmp_path)


UNPICKLED = []


class Unpickles:
    """An object that records being unpickled."""

    def __reduce__(self):
        return UNPICKLED.append, ("unpickled",)


def write_cache(path, name, *blocks):
    """Blocks as ``.npy`` records, then the checksum binding them to ``name``."""
    with open(path, "wb") as handle:
        for block in blocks:
            np.lib.format.write_array(handle, block, allow_pickle=True)
        checksum = hashlib.sha256(name.encode())
        for block in blocks:
            checksum.update(block.tobytes(order="A"))  # in the order the file holds them
        handle.write(checksum.digest())


def damaged_caches(name, values, discomforts):
    """Cache files that hold something other than the plans of cache ``name``:
    each a function of the cache's good bytes and the file's path that writes
    it."""

    def write_blocks(*blocks, key=name):
        return lambda good, path: write_cache(path, key, *blocks)

    def huge(good, path):
        """A header claiming far more values than the file or memory holds."""
        with open(path, "wb") as handle:
            header = {"descr": "<f8", "fortran_order": False, "shape": (4, 3, 10**15)}
            np.lib.format.write_array_header_1_0(handle, header)
            handle.write(good[128:])

    nan = values.copy()
    nan[1, 2, 0] = np.nan
    negative = discomforts.copy()
    negative[0, 1] = -1.0
    other = f".advplan-plans-{'0' * 64}.npy"
    return {
        "empty": lambda good, path: path.write_bytes(b""),
        "truncated": lambda good, path: path.write_bytes(good[: len(good) // 2]),
        "no checksum": lambda good, path: path.write_bytes(good[:-32]),
        "trailing byte": lambda good, path: path.write_bytes(good + b"\0"),
        "one flipped bit": lambda good, path: path.write_bytes(
            good[:200] + bytes([good[200] ^ 1]) + good[201:]),
        "random bytes": lambda good, path: path.write_bytes(
            np.random.default_rng(0).bytes(len(good))),
        "pickled": lambda good, path: path.write_bytes(pickle.dumps(Unpickles())),
        "object array": write_blocks(np.array([Unpickles()], dtype=object), discomforts),
        "huge shape": huge,
        "version 2.0 records": lambda good, path: path.write_bytes(b"".join(
            np.lib.format.magic(2, 0) + len(part).to_bytes(4, "little") + part[10:]
            for part in (good[:128 + values.nbytes], good[128 + values.nbytes:-32])) + good[-32:]),
        "one block": write_blocks(values),
        "another directory's plans": write_blocks(values[:, 1:].copy(), discomforts[:, 1:].copy(),
                                                  key=other),
        "two-dimensional values": write_blocks(values[:, :, 0].copy(), discomforts),
        "one agent too many": write_blocks(np.concatenate([values, values[:1]]),
                                           np.concatenate([discomforts, discomforts[:1]])),
        "mismatched blocks": write_blocks(values, discomforts[:, 1:].copy()),
        "no plans": write_blocks(values[:, :0].copy(), discomforts[:, :0].copy()),
        "float32": write_blocks(values.astype(np.float32), discomforts.astype(np.float32)),
        "big-endian": write_blocks(values.astype(">f8"), discomforts.astype(">f8")),
        "Fortran order": write_blocks(np.asfortranarray(values), discomforts),
        "NaN": write_blocks(nan, discomforts),
        "negative discomfort": write_blocks(values, negative),
    }


DAMAGE = list(damaged_caches("", np.zeros((4, 3, 2)), np.zeros((4, 3))))


@pytest.mark.parametrize("damage", DAMAGE)
def test_a_damaged_cache_is_ignored_then_rewritten(tmp_path, monkeypatch, damage):
    """A cache file that is not the directory's checked plans, whether cut
    short, garbled, pickled, of another shape or holding values the loader
    refuses, is never unpickled or trusted: the files are parsed, and the
    good cache is written over it."""
    save_plan_sets(generate_gaussian_plans(4, 3, 2, seed=8), tmp_path)
    plan_sets, name, good = cold_and_cache(tmp_path)
    values = np.stack([ps.value_matrix() for ps in plan_sets])
    discomforts = np.stack([ps.discomforts() for ps in plan_sets])
    write_cache(tmp_path / "undamaged", name, values, discomforts)
    assert (tmp_path / "undamaged").read_bytes() == good
    damaged_caches(name, values, discomforts)[damage](good, tmp_path / name)
    assert (tmp_path / name).read_bytes() != good
    parsed = counting_parses(monkeypatch)
    assert_same_plans(load_plan_sets(tmp_path), plan_sets)
    assert len(parsed) == 4 and UNPICKLED == []
    assert caches(tmp_path) == [name] and (tmp_path / name).read_bytes() == good


@pytest.mark.parametrize("step", ["write", "replace", "remove"])
def test_a_failing_cache_write_leaves_the_load_correct_and_silent(
    tmp_path, monkeypatch, capsys, caplog, recwarn, step
):
    """A cache that cannot be written, moved into place or stripped of its
    stale predecessor changes nothing but the next load's speed: the plans
    are the same, nothing is printed, logged or warned, and no temporary file
    stays. (A directory that refuses writes behaves the same way.)"""
    save_plan_sets(generate_gaussian_plans(4, 3, 2, seed=8), tmp_path)
    plan_sets, old_name, _ = cold_and_cache(tmp_path)
    save_plan_sets(generate_gaussian_plans(4, 3, 2, seed=9), tmp_path)
    alone = [load_alone(tmp_path / f"agent_{a}.plans") for a in range(1, 5)]
    fresh = [PlanSet(a, values=ps.value_matrix(), discomforts=ps.discomforts())
             for a, ps in enumerate(alone, 1)]

    def fail(*args, **kwargs):
        raise OSError(28, "No space left on device")

    owner, attr = {"write": (np.lib.format, "write_array"), "replace": (os, "replace"),
                   "remove": (os, "remove")}[step]
    monkeypatch.setattr(owner, attr, fail)
    for _ in range(2):
        assert_same_plans(load_plan_sets(tmp_path), fresh)
    monkeypatch.undo()
    assert capsys.readouterr() == ("", "") and caplog.records == [] and len(recwarn) == 0
    left = caches(tmp_path)
    if step == "remove":
        assert len(left) == 2 and old_name in left
    else:
        assert left == [old_name]


@pytest.mark.parametrize("texts,error", [
    ({2: "0:1,x\n"}, ParseError),
    ({2: ""}, NoDataError),
    ({2: "0:1,2,3\n1:1,2,3\n"}, DimensionMismatchError),
    ({2: "0:1,2\n"}, DimensionMismatchError),
    ({2: "0:1,2\n1:1,nan\n"}, InvalidInputError),
])
def test_a_malformed_directory_raises_its_error_and_writes_no_cache(tmp_path, texts, error):
    """A directory the loader refuses raises what it raised before the cache
    existed, cached or not, and leaves no cache file of its bytes."""
    write_agents(tmp_path, {1: "0:1,2\n1:3,4\n", 2: "0:5,6\n1:7,8\n", 3: "0:1,1\n1:2,2\n"})
    _, name, _ = cold_and_cache(tmp_path)
    write_agents(tmp_path, texts)
    for _ in range(2):
        with pytest.raises(error):
            load_plan_sets(tmp_path)
        assert caches(tmp_path) == [name]
    (tmp_path / name).unlink()
    with pytest.raises(error):
        load_plan_sets(tmp_path)
    assert caches(tmp_path) == []


def test_a_plan_file_that_is_a_directory_raises_what_open_raises(tmp_path):
    """A directory named like a plan file raises the ``OSError`` that opening
    it raises, naming its path, with a cache present (the hash pass reads it)
    and without one; an empty plan file still raises ``NoDataError``."""
    write_agents(tmp_path, {1: "0:1,2\n", 2: "0:3,4\n"})
    _, name, good = cold_and_cache(tmp_path)
    path = tmp_path / "agent_2.plans"
    path.unlink()
    path.mkdir()
    with pytest.raises(OSError) as opened:
        open(path, "rb")
    for cached in ([name], []):
        with pytest.raises(IsADirectoryError) as err:
            load_plan_sets(tmp_path)
        assert type(err.value) is type(opened.value)
        assert str(err.value) == str(opened.value)
        assert err.value.filename == str(path)
        assert caches(tmp_path) == cached
        for stale in cached:
            (tmp_path / stale).unlink()
    path.rmdir()
    path.write_bytes(b"")
    for cached in ([], [name]):
        if cached:
            (tmp_path / name).write_bytes(good)
        with pytest.raises(NoDataError) as err:
            load_plan_sets(tmp_path)
        assert str(err.value) == f"{path}: no plans found"
        assert caches(tmp_path) == cached


def test_a_plan_file_of_several_read_chunks_loads_as_its_bytes_parse(tmp_path, monkeypatch):
    """A plan file longer than one read chunk loads, from its files and then
    from the cache, bit for bit as ``_plan_file_table`` of its bytes."""
    save_plan_sets(generate_gaussian_plans(2, 1_500, 8, seed=21), tmp_path)
    path = tmp_path / "agent_2.plans"
    data = path.read_bytes()
    assert len(data) > 3 * plans_mod._READ_CHUNK
    assert plans_mod._read_bytes(str(path)) == data
    table = plans_mod._plan_file_table(str(path), data)
    cold = load_plan_sets(tmp_path)
    parsed = counting_parses(monkeypatch)
    warm = load_plan_sets(tmp_path)
    assert parsed == []
    for plan_sets in (cold, warm):
        assert plan_sets[1].value_matrix().tobytes() == table[:, 1:].tobytes()
        assert plan_sets[1].discomforts().tobytes() == table[:, 0].tobytes()
        assert plan_sets[1].value_matrix().shape == (1_500, 8)


def test_a_warm_load_reads_each_file_once_from_the_documented_cache(tmp_path, monkeypatch):
    """The cache's name is the sha256 of the format tag and, per file in id
    order, ``b"%d %d\\n" % (id, len)`` and its bytes, so a cache written by an
    earlier version stays a hit. A hit reads each plan file once, parses none,
    and returns read-only rows of the cache's two blocks."""
    save_plan_sets(generate_gaussian_plans(12, 3, 5, seed=4), tmp_path)
    digest = hashlib.sha256(b"advplan plan cache 1\n")
    for agent in range(1, 13):
        data = (tmp_path / f"agent_{agent}.plans").read_bytes()
        digest.update(b"%d %d\n" % (agent, len(data)))
        digest.update(data)
    name = f".advplan-plans-{digest.hexdigest()}.npy"
    plan_sets, written, good = cold_and_cache(tmp_path)
    assert written == name
    write_cache(tmp_path / "expected", name, np.stack([ps.value_matrix() for ps in plan_sets]),
                np.stack([ps.discomforts() for ps in plan_sets]))
    assert (tmp_path / "expected").read_bytes() == good
    read = []
    read_bytes = plans_mod._read_bytes
    monkeypatch.setattr(plans_mod, "_read_bytes", lambda path: read.append(path) or read_bytes(path))
    parsed = counting_parses(monkeypatch)
    warm = load_plan_sets(tmp_path)
    assert parsed == []
    assert read == [str(tmp_path / f"agent_{agent}.plans") for agent in range(1, 13)]
    assert_same_plans(warm, plan_sets)
    blocks = warm[0].value_matrix().base, warm[0].discomforts().base
    assert [block.shape for block in blocks] == [(12, 3, 5), (12, 3)]
    assert not any(block.flags.writeable for block in blocks)
    for ps in warm:
        assert (ps.value_matrix().base, ps.discomforts().base) == blocks
