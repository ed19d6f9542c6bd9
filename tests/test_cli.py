"""Command-line interface: output formats, exit codes, guard overrides."""

import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10; pytest depends on tomli there.
    import tomli as tomllib

import wordpat
from wordpat.cli import main
from wordpat.construction import build
from wordpat.words import parse_word


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_std(capsys):
    code, out, _ = run(capsys, "std", "296893")
    assert code == 0
    assert out == "042341\n"


def test_repeats(capsys):
    code, out, _ = run(capsys, "repeats", "00110")
    assert code == 0
    assert out == "3\n"


def test_contains_hit_and_miss(capsys):
    code, out, _ = run(capsys, "contains", "13043134", "1101")
    assert (code, out) == (0, "yes\n")
    code, out, _ = run(capsys, "contains", "13043134", "1101", "--occurrence")
    assert (code, out) == (0, "yes [2,5,6,7]\n")
    code, out, _ = run(capsys, "contains", "012", "00")
    assert (code, out) == (1, "no\n")


def test_contains_standardises_the_pattern(capsys):
    # 2212 standardises to 1101 before matching.
    code, out, _ = run(capsys, "contains", "13043134", "2212", "--occurrence")
    assert (code, out) == (0, "yes [2,5,6,7]\n")


def test_algebra_ops(capsys):
    assert run(capsys, "algebra", "concat", "1", "11")[1] == "111\n"
    # A lone letter of two digits keeps a separator, so the output reads back.
    assert run(capsys, "algebra", "concat", "12,", "")[1] == "12,\n"
    assert run(capsys, "algebra", "dsum", "31422", "4132")[1] == "314228576\n"
    assert run(capsys, "algebra", "ssum", "2413", "121")[1] == "4635121\n"
    assert run(capsys, "algebra", "dpow", "21", "3")[1] == "214365\n"
    assert run(capsys, "algebra", "spow", "12", "3")[1] == "563412\n"


def test_algebra_errors(capsys):
    code, _, err = run(capsys, "algebra", "dpow", "21", "x")
    assert code == 2
    assert "error:" in err
    # Structurally valid words can still violate the operand domain.
    code, _, err = run(capsys, "algebra", "dsum", "01", "1")
    assert code == 1
    assert "error:" in err
    # A power's operand is checked even when no sum runs.
    for m in ("1", "2"):
        code, out, err = run(capsys, "algebra", "dpow", "0", m)
        assert (code, out) == (1, "")
        assert "must not contain the value 0" in err


def test_construct_parts(capsys):
    assert run(capsys, "construct", "--n", "2", "--part", "r")[1] == "3 4 1 2\n"
    assert run(capsys, "construct", "--n", "1", "--part", "q")[1] == "1 1\n"
    # --k defaults to 1 and --part defaults to s.
    code, out, _ = run(capsys, "construct", "--n", "1")
    assert (code, out) == (0, "1 1\n")


def test_construct_output_round_trips(capsys):
    parts = build(2, 1)
    for name, want in [("p", parts.p), ("rprime", parts.r_prime), ("s", parts.s)]:
        _, out, _ = run(capsys, "construct", "--n", "2", "--part", name)
        assert parse_word(out.strip()) == want


def test_verify_human_output(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2")
    assert code == 0
    assert out.startswith("length=128 repeats=64 multiplicity_ok=True avoided=all")
    assert "elapsed_ms=" in out


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "--n", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"length", "repeats", "multiplicity_ok", "avoided", "elapsed_ms"}
    assert doc["length"] == 2
    assert doc["repeats"] == 1
    assert doc["multiplicity_ok"] is True
    assert all(doc["avoided"].values())


def test_verify_failure_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--k", "2")
    assert code == 1
    assert "avoided=DoubleRun(id,rev),DoubleRun(rev,id)" in out


def test_witness(capsys):
    code, out, _ = run(capsys, "witness", "000", "--n", "1")
    assert (code, out) == (0, "Constant [1,2,3]\n")
    code, out, _ = run(capsys, "witness", "0101", "--n", "1", "--k", "1")
    assert (code, out) == (0, "DoubleRun(id,id) [1,2,3,4]\n")


def test_witness_trace(capsys):
    code, out, _ = run(capsys, "witness", "0101", "--n", "1", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "DoubleRun(id,id) [1,2,3,4]"
    doc = json.loads(lines[1])
    assert doc["occurrence"] == [1, 2, 3, 4]
    assert doc["family"] == "DoubleRun(id,id)"
    assert doc["branch"] == "double_run"


def test_witness_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("0110\n"))
    code, out, _ = run(capsys, "witness", "-", "--n", "1")
    assert (code, out) == (0, "DoubleRun(id,rev) [1,2,3,4]\n")


def test_witness_insufficient_repeats(capsys):
    code, _, err = run(capsys, "witness", "012", "--n", "1")
    assert code == 1
    assert "error:" in err


def test_oracle_cayley(capsys):
    code, out, _ = run(capsys, "oracle", "cayley", "--len", "2")
    assert (code, out) == (0, "00\n01\n10\n")


def test_oracle_balanced(capsys):
    code, out, _ = run(capsys, "oracle", "balanced", "--values", "2", "--mult", "1")
    assert (code, out) == (0, "12\n21\n")


_COUNTING_WORD = " ".join(map(str, range(1200)))


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["contains", _COUNTING_WORD, _COUNTING_WORD], "yes\n"),
        (["oracle", "balanced", "--values", "1", "--mult", "1500", "--guard", "2000"], "1" * 1500 + "\n"),
    ],
    ids=["contains", "oracle balanced"],
)
def test_searches_run_past_the_recursion_limit(capsys, argv, expected):
    assert run(capsys, *argv)[:2] == (0, expected)


def test_oracle_max_repeats(capsys):
    code, out, _ = run(capsys, "oracle", "max-repeats", "--n", "1", "--k", "1", "--max-values", "3")
    assert (code, out) == (0, "max_repeats=1 witness=00\n")


def test_oracle_balanced_check(capsys):
    code, out, _ = run(capsys, "oracle", "balanced-check", "--n", "1", "--k", "1")
    assert (code, out) == (0, "unavoidable=True\n")


def test_guard_flag_and_env(capsys):
    code, _, err = run(capsys, "oracle", "cayley", "--len", "4", "--guard", "3")
    assert code == 1
    assert "guard" in err
    code, out, _ = run(capsys, "oracle", "cayley", "--len", "4", "--guard", "100")
    assert code == 0
    assert len(out.splitlines()) == 75


GUARDED = [
    ("build", ["construct", "--n", "1"]),
    ("verify", ["verify", "--n", "1"]),
    ("enumerate_cayley", ["oracle", "cayley", "--len", "2"]),
    ("enumerate_balanced", ["oracle", "balanced", "--values", "2", "--mult", "1"]),
    ("max_repeats_avoiding", ["oracle", "max-repeats", "--n", "1", "--k", "1", "--max-values", "2"]),
    ("check_unavoidability_balanced", ["oracle", "balanced-check", "--n", "1", "--k", "1"]),
]


@pytest.mark.parametrize("name, argv", GUARDED, ids=[g[0] for g in GUARDED])
def test_guard_is_passed_only_when_set(capsys, monkeypatch, name, argv):
    # The library's default is the only copy of each guard.
    real = getattr(wordpat.cli, name)
    seen = []

    def spy(*args, **kwargs):
        seen.append(kwargs.get("guard", "unset"))
        return real(*args, **kwargs)

    monkeypatch.setattr(wordpat.cli, name, spy)
    run(capsys, *argv)
    run(capsys, *argv, "--guard", "1000")
    assert seen == ["unset", 1000]


def test_verify_guard_exceeded(capsys):
    code, _, err = run(capsys, "verify", "--n", "2", "--guard", "10")
    assert code == 1
    assert err == (
        "error: construction word for n=2, k=1 has size 128, above the guard 10; "
        "pass a larger guard to override\n"
    )


def test_usage_errors(capsys):
    assert run(capsys, "std", "xy")[0] == 2
    # A digit outside ASCII is malformed input, not a failed int().
    assert run(capsys, "std", "\u00b2") == (2, "", "error: not a valid word: '\u00b2'\n")
    assert run(capsys, "contains", "0101", "ab")[0] == 2
    assert run(capsys, "nosuchcommand")[0] == 2
    assert run(capsys)[0] == 2
    # The algebra power is a positive integer, the guard a non-negative one.
    for argv, message in (
        (["algebra", "dpow", "12", "0"], "power must be a positive integer, got '0'"),
        (["algebra", "spow", "12", "-2"], "power must be a positive integer, got '-2'"),
        (["algebra", "dpow", "12", "+2"], "power must be a positive integer, got '+2'"),
        (["verify", "--n", "2", "--guard", "-1"], "must be a non-negative integer, got '-1'"),
        (["oracle", "cayley", "--len", "2", "--guard", "x"], "must be a non-negative integer"),
        (["oracle", "cayley", "--len", "3", "--guard", "\uff15"], "must be a non-negative integer"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert message in err
    # A guard of 0 is in the domain: the run is refused, not misused.
    assert run(capsys, "verify", "--n", "2", "--guard", "0")[0] == 1


@pytest.mark.parametrize("bad", ["0", "-1", "x", "\u0662", "1_0", "+2"])
@pytest.mark.parametrize(
    "command", [["verify"], ["construct"], ["witness", "0101"], ["oracle", "balanced-check"]]
)
def test_nonpositive_parameters_are_usage_errors(capsys, command, bad):
    for flag, argv in (("--n", ["--n", bad, "--k", "1"]), ("--k", ["--n", "1", "--k", bad])):
        code, out, err = run(capsys, *command, *argv)
        assert (code, out) == (2, "")
        assert f"argument {flag}: must be a positive integer, got '{bad}'" in err


# Each oracle option with the domain of the library argument it feeds;
# "{}" marks the value under test.
ORACLE_OPTIONS = [
    (["cayley", "--len", "{}"], "--len", "non-negative"),
    (["balanced", "--values", "{}", "--mult", "1"], "--values", "non-negative"),
    (["balanced", "--values", "2", "--mult", "{}"], "--mult", "positive"),
    (["max-repeats", "--n", "{}", "--k", "1", "--max-values", "2"], "--n", "non-negative"),
    (["max-repeats", "--n", "1", "--k", "{}", "--max-values", "2"], "--k", "positive"),
    (["max-repeats", "--n", "1", "--k", "1", "--max-values", "{}"], "--max-values", "non-negative"),
]


@pytest.mark.parametrize(
    "argv, flag, kind", ORACLE_OPTIONS, ids=[f"{a[0]} {f}" for a, f, _ in ORACLE_OPTIONS]
)
def test_oracle_parameters_out_of_domain_are_usage_errors(capsys, argv, flag, kind):
    bad_values = ["-1", "x", "\u0662", "1_0", "+2"] + (["0"] if kind == "positive" else [])
    for bad in bad_values:
        code, out, err = run(capsys, "oracle", *(a.format(bad) for a in argv))
        assert (code, out) == (2, "")
        assert f"argument {flag}: must be a {kind} integer, got '{bad}'" in err
    # The domain's lower end itself is accepted.
    low = "0" if kind == "non-negative" else "1"
    assert run(capsys, "oracle", *(a.format(low) for a in argv))[0] == 0


def test_construct_guard(capsys):
    # (k+1) n^6 letters: 2 * 10^12 at n = 100, 235298 at n = 7.
    for argv in (["--n", "100"], ["--n", "7"], ["--n", "2", "--guard", "127"]):
        code, out, err = run(capsys, "construct", *argv)
        assert (code, out) == (1, "")
        assert "guard" in err
    code, out, _ = run(capsys, "construct", "--n", "2", "--guard", "128")
    assert (code, out) == (0, " ".join(str(v) for v in build(2, 1).s) + "\n")
    code, out, _ = run(capsys, "construct", "--n", "7", "--part", "p", "--guard", "235298")
    assert (code, out) == (0, " ".join(str(v) for v in range(1, 50)) + "\n")


def test_python_dash_m(tmp_path):
    package_root = str(Path(wordpat.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "wordpat", "std", "3412"],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2301\n"


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def _write_console_script(bin_dir, name, target):
    """Write the wrapper an installer generates for ``name = "mod:attr"``."""
    module, _, attr = target.partition(":")
    script = bin_dir / name
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n"
    )
    script.chmod(0o755)


def _check_entry_point(env=None):
    proc = subprocess.run(
        ["wordpat", "std", "3412"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "2301\n"


def test_installed_entry_point(tmp_path):
    # Where an installer has put the script on PATH, check that script.
    if shutil.which("wordpat"):
        _check_entry_point()
    # In any checkout, run the script that [project.scripts] declares,
    # written the way an installer writes it.
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    _write_console_script(bin_dir, "wordpat", scripts["wordpat"])
    package_root = str(Path(wordpat.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    _check_entry_point(env)
