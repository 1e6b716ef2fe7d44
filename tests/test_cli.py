"""Command line behavior: exit codes, formats, config precedence."""

import contextlib
import csv
import errno
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qglue
import qglue.cli
from qglue.cli import run
from qglue.entry import EX_SOFTWARE, load_config_file
from qglue.errors import DimensionMismatch
from qglue.params import PARAM_MIN, WINDOW_MAX
from qglue.report import CSV_COLUMNS
from qglue.suites import SUITES


def test_missing_subcommand_is_usage_error(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_unknown_flag_is_usage_error(capsys):
    assert run(["verify", "--frobnicate"]) == 2
    capsys.readouterr()


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    capsys.readouterr()


def test_version_flag_prints_package_version(capsys):
    assert run(["--version"]) == 0
    assert capsys.readouterr().out == f"qglue {qglue.__version__}\n"


def test_unknown_suite_is_exit_2(capsys):
    assert run(["verify", "--suite", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "bogus" in err and err.startswith("qglue:")


def test_empty_suite_flag_is_exit_2(capsys):
    # a selection that names no suite would report nothing and exit 0
    assert run(["verify", "--suite", ","]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("qglue:") and "no suite" in captured.err
    assert captured.out == ""


def test_empty_suite_config_line_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("suites =\n")
    assert run(["verify", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"qglue: {cfg}:1: suites needs at least one suite name\n"
    assert captured.out == ""
    # like every other bad config value, it fails whatever flags follow
    assert run(["verify", "--config", str(cfg), "--suite", "su2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"qglue: {cfg}:1: suites needs at least one suite name\n"
    assert captured.out == ""


def test_bad_parameter_is_exit_2(capsys):
    assert run(["verify", "--suite", "chi", "--q", "1.5"]) == 2
    assert "q" in capsys.readouterr().err


def test_a_parameter_whose_square_underflows_is_exit_2(capsys):
    # q**2 = 0.0 would end the podles suite in a ZeroDivisionError
    code = run(["verify", "--q", "1e-300", "--p", "1e-300"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("qglue:")
    assert "q must lie in" in captured.err
    assert captured.out == ""


def test_missing_config_is_exit_2(tmp_path, capsys):
    assert run(["verify", "--config", str(tmp_path / "nope.cfg")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf-8"])
def test_a_config_file_that_cannot_be_read_names_itself(tmp_path, capsys, kind):
    # the message has the form --out uses: qglue: <path>: <reason>
    cfg = tmp_path / "run.cfg"
    reason = {
        "missing": os.strerror(errno.ENOENT),
        "directory": os.strerror(errno.EISDIR),
        "not-utf-8": "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    }[kind]
    if kind == "directory":
        cfg.mkdir()
    elif kind == "not-utf-8":
        cfg.write_bytes(b"\xff = 1\n")
    assert run(["verify", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"qglue: {cfg}: {reason}\n"
    assert captured.out == ""


def test_malformed_config_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("unknown_key = 3\n")
    assert run(["verify", "--config", str(cfg)]) == 2
    assert "unknown_key" in capsys.readouterr().err


def test_an_empty_out_config_line_is_exit_2(tmp_path, capsys):
    # an empty value would otherwise write to stdout instead of a file
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suites = su2\nout =\n")
    assert run(["verify", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"qglue: {cfg}:2: out needs a file name\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "line, message",
    [("q = abc", "q must be a number, got 'abc'"), ("nmax =", "nmax must be an integer, got ''")],
)
def test_a_config_number_that_does_not_parse_names_its_line(tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# a sweep\n{line}\n")
    assert run(["verify", "--suite", "su2", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"qglue: {cfg}:2: {message}\n"
    assert captured.out == ""


def test_a_repeated_config_key_is_exit_2(tmp_path, capsys):
    # the second value would otherwise win silently
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q = 0.5\n# a second sweep\nq = 0.6\n")
    assert run(["verify", "--suite", "su2", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"qglue: {cfg}:3: duplicate key 'q' (first set on line 1)\n"
    assert captured.out == ""


@pytest.mark.parametrize("value", ["chi", "bogus"])
def test_a_suites_config_line_under_index_is_exit_2(tmp_path, capsys, monkeypatch, value):
    # index takes no suite selection, as --suite is no index flag; the line
    # is refused whatever it names, not ignored or checked as unused
    def no_run(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(qglue.cli, "run_suites", no_run)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"nmax = 2\nsuites = {value}\n")
    assert run(["index", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"qglue: {cfg}:2: key 'suites' applies to verify, not index\n"
    assert captured.out == ""
    assert run(["index", "--suite", "chi"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("target", ["", "missing/report.csv"], ids=["directory", "no-directory"])
def test_an_unwritable_out_is_exit_2_before_any_suite_runs(tmp_path, capsys, monkeypatch, target):
    # a directory, or a file in a directory that does not exist
    def no_run(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(qglue.cli, "run_suites", no_run)
    path = tmp_path / target
    assert run(["verify", "--suite", "su2", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"qglue: {path}: ")
    assert captured.out == ""


def test_bad_config_format_is_exit_2(tmp_path, capsys):
    # a config value gets the same choices as the --format flag
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("format = xml\n")
    code = run(["verify", "--suite", "su2", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("qglue:")
    assert "xml" in captured.err
    assert captured.out == ""


def test_tiny_tolerance_forces_exit_1(capsys):
    code = run(["verify", "--suite", "disc", "--d", "16", "--tol", "1e-30"])
    captured = capsys.readouterr()
    assert code == 1
    assert " fail" in captured.err


def test_infinite_tolerance_is_exit_2(capsys):
    # tol = inf would let every residual check pass whatever its residual
    code = run(["verify", "--suite", "disc", "--d", "16", "--tol", "inf"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("qglue:")
    assert "tol" in captured.err
    assert captured.out == ""


def test_negative_nmax_is_exit_2(tmp_path, capsys):
    # a negative nmax would silently drop every per-degree record
    cfg = tmp_path / "neg.cfg"
    cfg.write_text("nmax = -1\n")
    for argv in (
        ["verify", "--suite", "chi", "--nmax", "-1"],
        ["index", "--nmax", "-1"],
        ["verify", "--suite", "chi", "--config", str(cfg)],
    ):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.err.startswith("qglue:")
        assert "nmax" in captured.err
        assert captured.out == ""


def test_csv_verify_run(capsys):
    code = run(["verify", "--suite", "disc,su2", "--d", "16", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0
    rows = list(csv.reader(io.StringIO(captured.out)))
    assert rows[0] == list(CSV_COLUMNS)
    suites = {row[0] for row in rows[1:]}
    assert suites == {"disc", "su2"}
    statuses = {row[2] for row in rows[1:]}
    assert statuses <= {"pass", "warn"}
    assert captured.err.startswith("qglue verify:")
    assert " 0 fail" in captured.err


def test_json_runs_are_deterministic_modulo_timestamp(capsys):
    argv = ["verify", "--suite", "hopf", "--d", "16", "--seed", "2", "--format", "json"]
    code1 = run(argv)
    out1 = capsys.readouterr().out
    code2 = run(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    a["meta"].pop("timestamp")
    b["meta"].pop("timestamp")
    assert a == b
    assert a["meta"]["seed"] == 2
    assert a["meta"]["suites"] == ["hopf"]
    assert a["summary"]["fail"] == 0


def test_repeated_runs_in_one_process_write_identical_reports(tmp_path, capsys):
    # the second run reduces against normal-form caches the first one filled
    cache = qglue.sphere3_presentation()._nf_cache
    paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
    filled = []
    for path in paths:
        argv = ["verify", "--suite", "en-symbolic", "--format", "csv", "--out", str(path)]
        assert run(argv) == 0
        filled.append(dict(cache))
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()
    # every normal form and pbw step of the second run is a hit: it adds no
    # entry (a miss stores a new result, even where it evicts the same key)
    first, second = filled
    assert second.keys() == first.keys()
    assert all(second[key][1] is first[key][1] for key in second)


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# defaults for a small sweep\n"
        "q = 0.5\n"
        "d = 16\n"
        "suites = su2\n"
    )
    code = run(
        ["verify", "--config", str(cfg), "--d", "24", "--format", "json"]
    )
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["params"]["q"] == 0.5  # from the file
    assert payload["meta"]["params"]["d"] == 24  # flag wins over file
    assert payload["meta"]["suites"] == ["su2"]


def test_load_config_file_parsing(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("q = 0.45 # inline comment\nsuites = disc, chi\nseed = 7\n\n")
    values = load_config_file(str(cfg))
    assert values == {"q": 0.45, "suites": ("disc", "chi"), "seed": 7}


def test_out_writes_file_instead_of_stdout(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code = run(
        [
            "verify",
            "--suite",
            "su2",
            "--d",
            "16",
            "--format",
            "csv",
            "--out",
            str(target),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    text = target.read_text()
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)


def test_verify_help_lists_the_suites_in_registry_order(capsys, monkeypatch):
    # the front names the suites without importing them; the list it shows
    # is the registry's
    monkeypatch.setenv("COLUMNS", "1000")  # one help line per option
    assert run(["verify", "--help"]) == 0
    assert f"Known: {', '.join(SUITES)}\n" in capsys.readouterr().out


def test_suite_flags_accumulate_in_registry_order(capsys):
    code = run(
        [
            "verify",
            "--suite",
            "su2",
            "--suite",
            "disc,hopf",
            "--d",
            "16",
            "--format",
            "json",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["suites"] == ["disc", "su2", "hopf"]


def test_index_subcommand(capsys):
    code = run(["index", "--nmax", "1", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0
    rows = list(csv.reader(io.StringIO(captured.out)))
    body = rows[1:]
    assert len(body) == 12  # 3 twists x 2 modules for chi and for en
    assert {row[0] for row in body} == {"index"}
    assert {row[2] for row in body} == {"pass"}
    assert captured.err.startswith("qglue index:")


def test_index_subcommand_matches_verify_index_suite(capsys):
    assert run(["index", "--format", "csv"]) == 0
    index_out = capsys.readouterr().out
    assert run(["verify", "--suite", "index", "--format", "csv"]) == 0
    verify_out = capsys.readouterr().out
    assert index_out == verify_out


def test_uncertifiable_pairing_is_a_fail_record(capsys):
    # at d = 32 the tail of one E_N trace exceeds the tail guard: that
    # pairing is a fail record carrying the reason, and the other 11
    # pairings of the table still certify
    code = run(["index", "--d", "32", "--nmax", "1", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 1
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    assert len(rows) == 12
    failed = [row for row in rows if row["status"] == "fail"]
    assert [row["check"] for row in failed] == ["en N=-1 [pr]"]
    assert failed[0]["value"].startswith("operator is not finite-rank within the window: tail")
    assert failed[0]["residual"] == ""
    assert "11 pass, 1 fail" in captured.err


def test_untwisting_round_trip_without_a_trusted_block_is_a_fail_record(capsys):
    # at d = 16 the round trips at N = +4 and +5 leave no common trusted
    # block: each is a fail record carrying the reason, and every other chi
    # check still reports
    code = run(["verify", "--suite", "chi", "--d", "16", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 1
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    failed = [row for row in rows if row["status"] == "fail"]
    assert [row["check"] for row in failed] == [
        "untwisting round trip N=+4",
        "untwisting round trip N=+5",
    ]
    for row in failed:
        assert row["value"].startswith("no common trusted block: d=16")
        assert row["residual"] == ""


def test_multiplicative_checks_past_the_shift_window_are_fail_records(capsys):
    # at w = 3 the product f g of the same-sign checks reaches U^4, past the
    # shift window; the mixed-sign product f2 g2 fits it, but leaves no
    # trusted block at guard 1. Each check is a fail record carrying its own
    # reason, and every other chi check still reports
    code = run(["verify", "--suite", "chi", "--w", "3", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 1
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    failed = [row for row in rows if row["status"] == "fail"]
    assert [row["check"] for row in failed] == [
        "same-sign multiplicative [+]",
        "mixed-sign multiplicative [+]",
        "same-sign multiplicative [-]",
        "mixed-sign multiplicative [-]",
    ]
    reasons = {
        "same": "monomial exponent 4 does not fit in window radius 3",
        "mixed": "no common trusted block: d=7, bandwidth=3 vs d=7, bandwidth=3 at guard 1",
    }
    for row in failed:
        kind = row["check"].split("-")[0]
        assert row["value"] == reasons[kind]
        assert row["residual"] == ""
        where = "whole window" if kind == "same" else "interior"
        assert row["anchor"].endswith(f"g) on the {where}")


def test_window_without_a_trusted_block_names_its_operands(capsys):
    # d = 4 leaves no common trusted block for the podles polar part: both
    # legs are fail records naming the operands, and every check reports
    code = run(["verify", "--d", "4", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 1
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    assert len(rows) == 235  # as many records as at the default window
    polar = [row for row in rows if row["check"].startswith("polar part")]
    assert [(row["suite"], row["check"]) for row in polar] == [
        ("podles", "polar part [leg 0]"),
        ("podles", "polar part [leg 1]"),
    ]
    for row in polar:
        assert row["status"] == "fail"
        assert row["value"].startswith("no common trusted block:")
        assert "d=4, bandwidth=" in row["value"] and "guard 1" in row["value"]
        assert row["residual"] == ""


@pytest.mark.parametrize("window", [("--d", "4"), ("--w", "1")], ids=["d4", "w1"])
@pytest.mark.parametrize("suite", list(SUITES))
def test_each_suite_reports_at_the_smallest_windows(suite, window, capsys):
    code = run(["verify", "--suite", suite, *window, "--format", "csv"])
    captured = capsys.readouterr()
    assert code in (0, 1)
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    assert rows and {row["suite"] for row in rows} == {suite}
    assert captured.err.startswith("qglue verify:")


def test_an_error_outside_every_check_is_a_bug_not_exit_2(monkeypatch):
    # a suite's own setup is not a check: what it raises reaches the caller
    def broken(params, nmax, rng, pairings):
        raise DimensionMismatch("raised outside every check")

    monkeypatch.setitem(SUITES, "su2", broken)
    with pytest.raises(DimensionMismatch, match="outside every check"):
        run(["verify", "--suite", "su2"])


@pytest.mark.parametrize("s", ["1e-7", repr(PARAM_MIN)])
def test_the_polar_part_holds_at_a_tiny_family_parameter(s, capsys):
    # the entries of eta* eta are of order s^2; only the exact zero the
    # truncation leaves at the boundary is pseudo-inverted as zero
    code = run(["verify", "--suite", "podles", "--s", s, "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == "qglue verify: 16 pass, 0 fail, 0 warn\n"


NEAR_ONE = math.nextafter(1.0, 0.0)
FLAG_VALUES = {
    "q": st.one_of(st.sampled_from([PARAM_MIN, NEAR_ONE]), st.floats(PARAM_MIN, NEAR_ONE)),
    "p": st.one_of(st.sampled_from([PARAM_MIN, NEAR_ONE]), st.floats(PARAM_MIN, NEAR_ONE)),
    "s": st.one_of(st.sampled_from([PARAM_MIN, 1.0]), st.floats(PARAM_MIN, 1.0)),
    "d": st.one_of(st.sampled_from([4, WINDOW_MAX]), st.integers(4, WINDOW_MAX)),
    "w": st.one_of(st.sampled_from([1, WINDOW_MAX]), st.integers(1, WINDOW_MAX)),
    "nmax": st.integers(0, 1),
}


@settings(max_examples=15, deadline=None)
@given(st.fixed_dictionaries({}, optional=FLAG_VALUES))
@example({"q": PARAM_MIN, "p": PARAM_MIN, "s": PARAM_MIN, "nmax": 1})
@example({"q": NEAR_ONE, "nmax": 1})
@example({"q": NEAR_ONE, "p": NEAR_ONE, "d": WINDOW_MAX, "nmax": 1})
@example({"w": 1, "nmax": 1})
@example({"d": 4, "nmax": 1})
@example({"d": WINDOW_MAX, "w": WINDOW_MAX, "nmax": 1})
def test_every_valid_flag_set_exits_0_or_1_with_a_whole_report(flags):
    argv = ["verify", "--format", "csv"]
    for key, value in flags.items():
        argv += [f"--{key}", repr(value)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    statuses = [row["status"] for row in rows]
    assert out.getvalue().startswith(",".join(CSV_COLUMNS)) and out.getvalue().endswith("\n")
    assert err.getvalue() == (
        f"qglue verify: {statuses.count('pass')} pass, {statuses.count('fail')} fail, "
        f"{statuses.count('warn')} warn\n"
    )
    assert len(rows) == statuses.count("pass") + statuses.count("fail") + statuses.count("warn")
    assert code == (1 if "fail" in statuses else 0)


# -- the process entry point: python -m qglue runs entry.main -------------------

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"


def python(*args) -> subprocess.CompletedProcess:
    """Run the interpreter in a fresh process on this checkout's sources."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)  # buffered output, as a plain launch has
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)


def launch(*args) -> subprocess.CompletedProcess:
    """Run python -m qglue in a fresh process on this checkout's sources."""
    return python("-m", "qglue", *args)


@pytest.mark.parametrize(
    "name, flags, exit_code",
    [
        ("verify_default.csv", [], 0),
        ("verify_q0.95_p0.9.csv", ["--q", "0.95", "--p", "0.9"], 1),
    ],
)
def test_the_process_writes_the_whole_report_to_a_pipe(name, flags, exit_code):
    # the report goes to a pipe, not --out: a tail left unflushed when the
    # process exits would be missing here
    done = launch("verify", "--format", "csv", *flags)
    assert done.returncode == exit_code
    assert done.stdout == (GOLDEN / name).read_bytes()
    assert done.stderr.startswith(b"qglue verify: ")


def test_the_process_prints_its_version():
    done = launch("--version")
    assert done.returncode == 0
    assert done.stdout.decode() == f"qglue {qglue.__version__}\n"


def test_the_process_exits_2_on_an_unknown_flag():
    done = launch("verify", "--frobnicate")
    assert done.returncode == 2
    assert done.stdout == b""
    assert done.stderr.startswith(b"usage: qglue")
    assert b"unrecognized arguments: --frobnicate" in done.stderr


def test_a_bug_exits_ex_software_with_its_traceback():
    # an exception that escapes a run is a qglue bug, not a fail record
    done = python(
        "-c",
        "import sys, qglue.entry, qglue.suites\n"
        "def broken(*args):\n"
        "    raise RuntimeError('a bug in a suite')\n"
        "qglue.suites.SUITES['su2'] = broken\n"
        "sys.argv = ['qglue', 'verify', '--suite', 'su2']\n"
        "qglue.entry.main()\n",
    )
    assert done.returncode == EX_SOFTWARE == 70
    assert done.stdout == b""
    assert done.stderr.startswith(b"Traceback (most recent call last):")
    assert done.stderr.endswith(b"RuntimeError: a bug in a suite\n")


# prints, after whatever the front prints, the heavy modules the process loaded
LOADED_AT_EXIT = (
    "import sys\n"
    "from qglue.entry import main\n"
    "sys.argv[0] = 'qglue'\n"
    "try:\n"
    "    main()\n"
    "finally:\n"
    "    print('loaded:', *sorted({'numpy', 'qglue.cli', 'qglue.suites'} & set(sys.modules)))\n"
)


# each path that ends before a suite runs, with its exit status
NO_RUN = [
    (["--version"], 0),
    (["--help"], 0),
    (["verify", "--help"], 0),
    (["index", "--help"], 0),
    (["verify", "--frobnicate"], 2),
    (["verify", "--suite", "nope"], 2),
    (["verify", "--suite", ","], 2),
    (["verify", "--nmax", "-1"], 2),
    (["verify", "--q", "2"], 2),
    (["verify", "--config", "bad line"], 2),
]


@pytest.mark.parametrize("args, exit_code", NO_RUN, ids=[" ".join(a) for a, _ in NO_RUN])
def test_an_invocation_without_a_run_exits_before_numpy(tmp_path, args, exit_code):
    if "--config" in args:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q = 0.5\nno equals sign\n")
        args = [*args[:-1], str(cfg)]
    done = python("-c", LOADED_AT_EXIT, *args)
    assert done.returncode == exit_code
    assert done.stdout.splitlines()[-1] == b"loaded:"
