import pickle
import re
import tracemalloc

import numpy as np
import pytest

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
    load_plan_set,
    load_plan_sets,
    load_target_signal,
    save_plan_sets,
    save_target_signal,
)


def test_plan_line_round_trip(tmp_path):
    (tmp_path / "agent_3.plans").write_text("0.25:1.0,2.0\n")
    ps = load_plan_set(tmp_path / "agent_3.plans")
    assert ps.agent_id == 3
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
        load_plan_set(path)
    assert "agent_1.plans:1" in str(err.value)


def test_inconsistent_dimension_within_file(tmp_path):
    (tmp_path / "agent_1.plans").write_text("0.1:1,2\n0.2:1,2,3\n")
    with pytest.raises(DimensionMismatchError):
        load_plan_set(tmp_path / "agent_1.plans")


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
    save_plan_sets(plan_sets, first)
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
    targets = generate_voting_targets([0, 0.25, 0.5, 0.75, 1], d=5)
    assert len(targets) == 120
    as_tuples = {tuple(t) for t in targets}
    assert len(as_tuples) == 120


def test_voting_targets_small_cases():
    two = generate_voting_targets([0, 1], d=2)
    assert [t.tolist() for t in two] == [[0, 1], [1, 0]]
    assert all(t.dtype == float for t in two)
    assert len(generate_voting_targets([0, 0.5, 1], d=3)) == 6


def test_voting_targets_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        generate_voting_targets([0, 0, 1], d=3)
    with pytest.raises(InvalidInputError):
        generate_voting_targets([0, 1], d=3)


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
    path = tmp_path / "agent_4.plans"
    path.write_bytes(("\n  \n" + body + "\r\n\n").encode())
    ps = load_plan_set(path)
    values = np.array([[float(tok) for tok in tail] for _, tail in rows])
    discomforts = np.array([float(head) for head, _ in rows])
    assert ps.agent_id == 4 and ps.k == 4 and ps.dimension == 4
    assert ps.value_matrix().tobytes() == values.tobytes()
    assert ps.discomforts().tobytes() == discomforts.tobytes()


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
        load_plan_set(path)
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


def test_directory_load_equals_each_file_alone(tmp_path):
    """Every agent of a directory gets the arrays of its file loaded alone,
    bit for bit and read-only, which are ``float`` of each token."""
    for agent, text in SYNTAX_FILES.items():
        (tmp_path / f"agent_{agent}.plans").write_bytes(text.encode())
    (tmp_path / "notes.txt").write_text("not a plan file\n")
    values = np.array([[float(tok) for tok in tail] for _, tail in SYNTAX_ROWS])
    discomforts = np.array([float(head) for head, _ in SYNTAX_ROWS])
    singles = [load_plan_set(tmp_path / f"agent_{agent}.plans") for agent in SYNTAX_FILES]
    with pytest.raises(InvalidInputError, match="^agent 1 plan 1 holds NaN or an infinity$"):
        load_plan_sets(tmp_path)
    for ps in singles:
        assert ps.value_matrix().tobytes() == values.tobytes()
        assert ps.discomforts().tobytes() == discomforts.tobytes()

    # The same tokens, finite, through the directory loader.
    finite = {"inf": "1e308", "-INF": "-2_5", "-Infinity": "-7", "nan": "0.0"}
    rows = [(h, [finite.get(tok, tok) for tok in t]) for h, t in SYNTAX_ROWS]
    for agent, text in SYNTAX_FILES.items():
        for (_, tail), (_, clean) in zip(SYNTAX_ROWS, rows):
            text = text.replace(",".join(tail), ",".join(clean))
        (tmp_path / f"agent_{agent}.plans").write_bytes(text.encode())
    values = np.array([[float(tok) for tok in tail] for _, tail in rows])
    loaded = load_plan_sets(tmp_path)
    assert [ps.agent_id for ps in loaded] == list(SYNTAX_FILES)
    for ps in loaded:
        alone = load_plan_set(tmp_path / f"agent_{ps.agent_id}.plans")
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
    tokens as strings would take more than 3 MB at once."""
    save_plan_sets(generate_gaussian_plans(200, 10, 24, seed=3), tmp_path)
    load_plan_sets(tmp_path)  # first calls allocate once, whatever the size
    tracemalloc.start()
    try:
        plan_sets = load_plan_sets(tmp_path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(ps.value_matrix().nbytes + ps.discomforts().nbytes for ps in plan_sets) == 400_000
    assert peak - held < 200_000
