import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import slcob
from slcob import cli


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "slcob.cli", *args],
                          capture_output=True, text=True)


def test_usage_error_exit_code():
    out = run_cli("msl")
    assert out.returncode == 2
    out = run_cli("nonsense")
    assert out.returncode == 2


def test_degree_out_of_range():
    out = run_cli("msl", "group", "--field", "c", "--n", "99")
    assert out.returncode == 2
    assert "error" in out.stderr


def test_msl_group_json():
    out = run_cli("msl", "group", "--field", "r", "--n", "8", "--json")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["group"]["free_rank"] == 9
    assert data["group"]["invariant_factors"] == []


def test_msl_table_deterministic():
    a = run_cli("msl", "table", "--field", "c", "--json")
    b = run_cli("msl", "table", "--field", "c", "--json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    rows = json.loads(a.stdout)
    assert [r["normal_form"] for r in rows] == [
        "Z", "Z/2", "Z", "Z", "Z^2", "Z^2 + Z/2", "Z^4", "Z^4", "Z^7",
        "Z^8 + (Z/2)^2"]


def test_msl_table_csv():
    out = run_cli("--format", "csv", "msl", "table", "--field", "fq3")
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0].startswith("n,symbolic")
    assert len(lines) == 11


def test_op_apply(tmp_path):
    out = run_cli("--truncation", "6", "op", "apply", "--name", "partial",
                  "--class", "cp1", "--json")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["result"]["hurewicz"] == {"1": 2}
    out = run_cli("--truncation", "6", "op", "apply", "--name", "delta",
                  "--class", "cp1*cp1", "--json")
    data = json.loads(out.stdout)
    assert data["result"]["hurewicz"] == {"1": -8}


def test_witt_and_kq_tables():
    out = run_cli("witt", "table", "--field", "fq1", "--json")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["W"]["invariant_factors"] == [2, 2]
    out = run_cli("kq", "table", "--field", "c", "--max-degree", "4", "--json")
    rows = json.loads(out.stdout)
    assert [r["group"] for r in rows] == ["Z", "Z/2", "Z", "0", "Z"]


def test_charnum_hypersurface():
    out = run_cli("--truncation", "6", "charnum", "hypersurface",
                  "--ambient", "3", "--degree", "4", "--json")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["tangent_chern_numbers"]["2"] == 24
    assert data["calabi_yau_symbolic"] is True
    assert data["generator_verdict"] is True


def _gate_failures(monkeypatch, selected):
    """The commands of the benchmark's CLI mix that `selected` picks, each
    run in-process, and the messages of the benchmark's own gate against
    its reference answers (perfbench/expected_cli.json)."""
    monkeypatch.syspath_prepend(os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "perfbench"))
    import workloads

    expected = workloads.load_expected()
    commands = [cmd for cmd in workloads.all_cli_commands() if selected(cmd)]
    failures = []
    for cmd in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(cmd.argv)
        failures += workloads.gate_command(cmd, rc, out.getvalue(),
                                           expected)[2]
    return commands, failures


def test_hypersurface_answers_match_benchmark_reference(monkeypatch):
    """Every `charnum` command of the benchmark's CLI mix, and every
    operation it applies to a `hyp` class, passes the benchmark's gate."""
    commands, failures = _gate_failures(
        monkeypatch, lambda cmd: cmd.kind == "charnum" or "hyp" in cmd.key)
    assert len(commands) == 45
    assert failures == []


def test_light_answers_match_benchmark_reference(monkeypatch):
    """Every light command of the mix (msl table, group and off-diagonal,
    witt table, kq table, each field) passes the benchmark's gate."""
    commands, failures = _gate_failures(monkeypatch, lambda cmd: not cmd.heavy)
    assert len(commands) == 408
    assert failures == []


def test_verify_witt_suite():
    out = run_cli("verify", "--suite", "witt-oracle")
    assert out.returncode == 0
    assert "0 failures" in out.stdout


def test_verify_kq_single_field():
    out = run_cli("verify", "--suite", "kq", "--field", "fq3")
    assert out.returncode == 0


def test_verify_leibniz_under_optimize():
    """The Leibniz suite's memo and pair count rest on no `assert`: under
    `python -O` it prints the same three lines."""
    argv = ["-m", "slcob.cli", "--truncation", "8", "verify", "--suite",
            "leibniz"]
    plain, optimized = (subprocess.run([sys.executable, *flags, *argv],
                                       capture_output=True, text=True)
                        for flags in ([], ["-O"]))
    assert plain.returncode == optimized.returncode == 0, optimized.stderr
    assert optimized.stdout == plain.stdout
    assert plain.stdout.splitlines() == [
        "PASS twisted Leibniz for the boundary operation (121 Wall pairs)",
        "PASS product law for the shift-2 operation (121 Wall pairs)",
        "2 checks, 0 failures"]


def test_verify_shares_one_chain_per_truncation(monkeypatch):
    """In one process the verify suites that read the chain reuse the CLI's
    chain at their truncation, and the others build none."""
    built = []
    real = cli.ConnerFloyd
    monkeypatch.setattr(cli, "ConnerFloyd", lambda t: built.append(t) or real(t))
    cli.fixtures.cache_clear()
    for suite in ("table", "subring", "table", "kq", "witt-oracle"):
        assert exit_code(["verify", "--suite", suite, "--max-degree", "4"]) == 0
    assert exit_code(["--truncation", "5", "verify", "--suite", "table"]) == 0
    assert built == [4, 5]


def test_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("truncation = 6\nformat = json\n")
    out = run_cli("--config", str(cfg), "op", "apply", "--name", "s1",
                  "--class", "cp1")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["result"]["hurewicz"] == {"1": -2}


def test_cf_homology_and_dump(tmp_path):
    out = run_cli("--truncation", "6", "cf", "homology", "--max-degree", "5",
                  "--json")
    assert out.returncode == 0
    rows = json.loads(out.stdout)
    assert [r["H_normal_form"] for r in rows] == \
        ["Z/2", "0", "Z/2", "0", "Z/2", "0"]
    outdir = tmp_path / "dump"
    out = run_cli("--truncation", "6", "cf", "dump", "--max-degree", "5",
                  "--out", str(outdir))
    assert out.returncode == 0
    assert (outdir / "homology.csv").exists()
    assert (outdir / "delta_matrix_1.csv").read_text().strip() == "-2"


def test_cf_dump_homology_matches_cf_homology_csv(tmp_path):
    """The dump's homology.csv has the rows 0..D that `cf homology
    --max-degree D` prints, H_D included."""
    outdir = tmp_path / "dump"
    out = run_cli("--truncation", "6", "cf", "dump", "--max-degree", "5",
                  "--out", str(outdir))
    assert out.returncode == 0
    table = run_cli("--truncation", "6", "--format", "csv", "cf", "homology",
                    "--max-degree", "5")
    assert table.returncode == 0
    assert (outdir / "homology.csv").read_text() == table.stdout
    assert table.stdout.splitlines()[-1] == "5,2,6,0"


BAD_INPUTS = [
    ("witt", "table", "--field", "fq1", "--q", "7"),
    ("witt", "table", "--field", "fq3", "--q", "15"),
    ("witt", "table", "--field", "zz"),
    ("msl", "group", "--field", "fq1", "--q", "4", "--n", "1"),
    ("--truncation", "4", "op", "apply", "--name", "s0", "--class", "cp1"),
    ("--truncation", "4", "op", "apply", "--name", "s-1", "--class", "cp1"),
    ("--truncation", "4", "cf", "homology", "--max-degree", "-1"),
    ("--truncation", "4", "cf", "dump", "--max-degree", "-1", "--out", "DIR"),
    ("kq", "table", "--field", "c", "--max-degree", "-1"),
    ("kq", "table", "--field", "c", "--max-degree", "17"),
    ("--truncation", "0", "cf", "homology"),
    ("witt", "table", "--field", "fq1", "--q", "0"),
    ("witt", "table", "--field", "fq1", "--q", "3317044064679887385961981"),
    ("verify", "--max-degree", "0"),
    ("verify", "--suite", "leibniz", "--max-degree", "-1"),
    ("op", "apply", "--name", "s1", "--class", "h1"),
    ("op", "apply", "--name", "s1,,2", "--class", "cp3"),
    ("op", "apply", "--name", "s1,", "--class", "cp1"),
    ("op", "apply", "--name", "s,1", "--class", "cp1"),
    ("op", "apply", "--name", "s", "--class", "cp1"),
    ("op", "apply", "--name", "s1", "--class", "x13"),
    ("op", "apply", "--name", "s1", "--class", "x0"),
    ("op", "apply", "--name", "s1", "--class", "hyp20_2"),
    ("op", "apply", "--name", "s1", "--class", "hyp3_0"),
    ("op", "apply", "--name", "partial", "--class", "cp8*cp8"),
    ("charnum", "hypersurface", "--ambient", "3", "--degree", "0"),
    ("charnum", "hypersurface", "--ambient", "0", "--degree", "2"),
    ("witt", "table", "--field", "r", "--q", "5"),
    ("msl", "group", "--field", "c", "--q", "7", "--n", "2"),
    ("--config", "CFG:q = 5", "witt", "table", "--field", "c"),
    ("--format", "csv", "op", "apply", "--name", "s1", "--class", "cp1"),
    ("--format", "csv", "witt", "table", "--field", "c"),
    ("--format", "csv", "msl", "group", "--field", "r", "--n", "4"),
    ("--format", "csv", "charnum", "hypersurface", "--ambient", "4",
     "--degree", "2"),
    ("--config", "CFG:format = xml", "msl", "table", "--field", "c"),
    ("msl", "table", "--field", ""),
    ("witt", "table", "--field", ""),
    ("kq", "table", "--field", ""),
    ("verify", "--suite", "kq", "--field", ""),
    ("--config", "CFG:field =", "verify", "--suite", "kq"),
    ("verify", "--suite", "leibniz", "--field", "zz"),
    ("verify", "--suite", "witt-oracle", "--field", "c", "--q", "9"),
    ("verify", "--suite", "kq", "--q", "7"),
]


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize("argv", BAD_INPUTS, ids=" ".join)
def test_bad_input_exits_2_with_message(argv, optimize, tmp_path):
    """Bad input is a usage error (exit 2) with a message, also under
    python -O, where assert statements are skipped.  The message is a
    sentence, not the bare key of a failed lookup (`error: 13`).  DIR
    stands for a fresh directory, CFG:line for a config file holding it."""

    def path(arg):
        if arg == "DIR":
            return str(tmp_path / "out")
        if arg.startswith("CFG:"):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(arg[len("CFG:"):] + "\n")
            return str(cfg)
        return arg

    argv = [path(a) for a in argv]
    flags = ["-O"] if optimize else []
    out = subprocess.run([sys.executable, *flags, "-m", "slcob.cli", *argv],
                         capture_output=True, text=True)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error: ")
    assert len(out.stderr[len("error: "):].split()) >= 3, out.stderr
    assert out.stdout == ""


def no_fixtures(truncation):
    raise AssertionError("fixtures built for bad input")


@pytest.mark.parametrize("name,label", [
    ("s0", "cp1"), ("t1", "cp1"), ("s1", "cq1"), ("partial", "hyp3"),
    ("s1", "x13"), ("partial", "cp8*cp8"), ("s1,,2", "cp3"), ("s", "cp1")])
def test_op_apply_rejects_before_fixtures(name, label, monkeypatch):
    """A bad operation name or class label is rejected before the
    coefficient ring is built."""
    monkeypatch.setattr(cli, "fixtures", no_fixtures)
    assert cli.main(["op", "apply", "--name", name, "--class", label]) == 2


@pytest.mark.parametrize("argv", [
    ("op", "apply", "--name", "s2,1", "--class", "x12"),
    ("op", "apply", "--name", "delta", "--class", "cp1*x11"),
    ("charnum", "hypersurface", "--ambient", "13", "--degree", "3")])
def test_csv_is_refused_before_fixtures(argv, monkeypatch, capsys):
    """--format csv on a command that builds the chain but has no CSV form
    is refused before the chain is built, with emit's message."""
    monkeypatch.setattr(cli, "fixtures", no_fixtures)
    assert cli.main(("--format", "csv") + argv) == 2
    assert capsys.readouterr() == (
        "", "error: this command has no CSV form; use text or json\n")


def test_fixtures_build_the_chain_once():
    """Every command of a process shares the one chain per truncation."""
    cf = cli.fixtures(4)
    assert cli.fixtures(4) is cf
    assert cf.ctx.bound == 4 and cf.basis.ctx is cf.ctx


def test_main_leaves_the_heap_unfrozen():
    """main, which in-process callers use, freezes nothing; only the
    console entry point `run` freezes the heap, after main returns, and
    exits with main's code."""
    import gc
    before = gc.get_freeze_count()
    assert exit_code(["--truncation", "4", "cf", "homology"]) == 0
    assert exit_code(["witt", "table", "--field", ""]) == 2
    assert gc.get_freeze_count() == before
    code = ("import gc, sys; from slcob import cli; sys.argv[1:] = %r; "
            "sys.exit = lambda rc: print(rc, gc.get_freeze_count() > 0); "
            "cli.run()")
    for argv, rc in ((["witt", "table", "--field", "c"], 0),
                     (["witt", "table", "--field", ""], 2)):
        out = subprocess.run([sys.executable, "-c", code % argv],
                             capture_output=True, text=True)
        assert out.stdout.splitlines()[-1] == "%d True" % rc, out.stderr


def test_cli_imports_no_rational_engine():
    """The package computes with integers only: importing the command line
    loads neither `fractions` nor a GradedPoly module."""
    code = ("import sys, slcob.cli; print(sorted(m for m in sys.modules "
            "if m == 'fractions' or m.startswith('slcob.gradedpoly')))")
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# -- fuzzing the command line in-process -----------------------------------

FUZZ_VALUES = ["0", "1", "2", "3", "4", "5", "6", "-1", "x"]
FUZZ_COMMANDS = [
    ["msl", "group", "--field", "FIELD", "--n", "V", "--m", "V"],
    ["msl", "table", "--field", "FIELD", "--q", "Q"],
    ["cf", "homology", "--max-degree", "V"],
    ["cf", "dump", "--max-degree", "V", "--out", "DIR"],
    ["op", "apply", "--name", "OP", "--class", "CLASS"],
    ["witt", "table", "--field", "FIELD", "--q", "Q"],
    ["kq", "table", "--field", "FIELD", "--max-degree", "V"],
    ["charnum", "hypersurface", "--ambient", "V", "--degree", "V"],
    ["verify", "--suite", "SUITE", "--max-degree", "V"],
    ["dump", "--out", "DIR"],
]
FUZZ_SLOTS = {
    "FIELD": ["c", "r", "fq1", "fq3", "zz", ""],
    "Q": ["3", "5", "7", "9", "13", "25", "27", "4", "-3"],
    "V": FUZZ_VALUES,
    "OP": ["partial", "delta", "s1", "s2", "s1,1", "s2,1", "s0", "s1,"],
    "CLASS": ["cp1", "cp2*cp1", "h1_2", "hyp3_2", "x2", "x3*x1", "cp0",
              "x9", "cp3*cp3*cp3", "h2_1"],
    "SUITE": ["cf-pattern", "subring", "table", "kq", "leibniz", "bogus"],
    "DIR": ["out"],
}
FUZZ_EXTRA = ["--json", "--format", "csv", "json", "xml", "--q", "--n",
              "--help", "msl", "-1", "cp1"] + FUZZ_VALUES


def fuzz_argv(choose):
    """A command line built from a template with drawn values, then
    possibly mangled: a token dropped or a stray token inserted.  The
    truncation is at most 6 and no value exceeds 6, so every command is
    light."""
    argv = ["--truncation", choose(["2", "3", "4", "5", "6", "0", "x"])]
    if choose([True, False, False]):
        argv += ["--format", choose(["text", "json", "csv", "xml"])]
    for token in choose(FUZZ_COMMANDS):
        argv.append(choose(FUZZ_SLOTS[token]) if token in FUZZ_SLOTS
                    else token)
    edit = choose(["keep", "keep", "drop", "insert"])
    if edit != "keep":
        at = choose(range(len(argv)))
        if edit == "drop":
            del argv[at]
        else:
            argv.insert(at, choose(FUZZ_EXTRA))
    return argv


def exit_code(argv):
    """What `slcob ARGV` exits with, run in this process with its output
    discarded; SystemExit (from argparse) counts as an exit."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    return rc or 0


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fuzzed_argv_exits_0_2_or_3(data):
    """No command line, however mangled, ends in an internal failure
    (exit 1) or an uncaught exception."""
    argv = fuzz_argv(lambda seq: data.draw(st.sampled_from(list(seq))))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            rc = exit_code(argv)
        finally:
            os.chdir(cwd)
    assert rc in (0, 2, 3), argv


def test_fuzzed_argv_under_optimize(tmp_path):
    """A fixed sample of fuzzed command lines under python -O, where
    assert statements are skipped."""
    rng = random.Random(8)
    sample = [fuzz_argv(rng.choice) for _ in range(60)]
    paths = [os.path.dirname(os.path.abspath(__file__)),
             os.path.dirname(os.path.dirname(os.path.abspath(slcob.__file__)))]
    code = ("import json, sys; sys.path[:0] = %r; "
            "from test_cli import exit_code; "
            "print(json.dumps([exit_code(a) for a in json.loads(sys.argv[1])]))"
            % paths)
    out = subprocess.run([sys.executable, "-O", "-c", code, json.dumps(sample)],
                         capture_output=True, text=True, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    codes = json.loads(out.stdout.strip().splitlines()[-1])
    assert [(a, c) for a, c in zip(sample, codes) if c not in (0, 2, 3)] == []
