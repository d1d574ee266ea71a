"""Byte-for-byte guard on the command line.

Each command of a fixed corpus runs in-process through `cli.main`, and the
SHA-256 of its exit code, stdout and stderr, and of the files it writes
under DIR, must match the digest in tests/cli_digests.json.  The corpus:

  * the benchmark's CLI mix (perfbench/workloads.all_cli_commands), in
    JSON and in text;
  * test_cli.BAD_INPUTS, DIR standing for a fresh directory and CFG:line
    for a config file holding that line;
  * `--format csv` on commands that print no table;
  * `verify` at truncations 8 and 12, the witt-oracle suite, and the
    chain at truncation 16 through `cf homology`, `cf dump` and two
    `op apply` samples;
  * the chain at the default truncation 12 through `cf homology` in JSON
    and in text, `cf dump` and `dump`;
  * the generator step and the low-degree routes: `op apply` on Milnor
    and hypersurface classes and `charnum hypersurface` at truncation
    16, and `cf homology` and `cf dump` at truncations 6 and 7;
  * every --help screen and the usage error of each bare command group;
  * test_cli.BAD_INPUTS again under `python -O`, all run in-process in
    one subprocess, so a check that is an assert statement shows.

argparse lays out help and usage differently from one Python version to
the next, so those digests are compared only on the version that wrote the
file.  When an output changes on purpose, rewrite the file with

    PYTHONPATH=src python tests/test_cli_digests.py

which first prints, per part of the file, the commands whose digest
changed, appeared or disappeared; name them.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile

from slcob import cli
from test_cli import BAD_INPUTS

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "cli_digests.json")
_spec = importlib.util.spec_from_file_location(
    "workloads", os.path.join(os.path.dirname(HERE), "perfbench",
                              "workloads.py"))
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

GROUPS = ("msl", "cf", "op", "witt", "kq", "charnum")
LEAVES = (("msl", "group"), ("msl", "table"), ("cf", "homology"),
          ("cf", "dump"), ("op", "apply"), ("witt", "table"),
          ("kq", "table"), ("charnum", "hypersurface"))
CSV_WITHOUT_TABLE = (
    ("--format", "csv", "verify", "--suite", "kq", "--field", "c"),
    ("--format", "csv", "--truncation", "4", "cf", "dump", "--out", "DIR"),
    ("--format", "csv", "--truncation", "4", "dump", "--out", "DIR"),
    ("--format", "csv", "witt", "table", "--field", "zz"),
)
CHAIN_RUNS = (
    ("--truncation", "8", "verify"),
    ("--truncation", "12", "verify"),
    ("verify", "--suite", "witt-oracle"),
    ("--truncation", "16", "cf", "homology", "--json"),
    ("--truncation", "16", "cf", "dump", "--out", "DIR"),
    ("--truncation", "16", "op", "apply", "--name", "s2,1", "--class", "x16"),
    ("--truncation", "16", "op", "apply", "--name", "delta",
     "--class", "cp1*x15"),
    ("cf", "homology", "--json"),
    ("cf", "homology"),
    ("cf", "dump", "--out", "DIR"),
    ("dump", "--out", "DIR"),
    ("--truncation", "16", "op", "apply", "--name", "s1", "--class", "h8_9"),
    ("--truncation", "16", "op", "apply", "--name", "s2,1",
     "--class", "h2_3*x11"),
    ("--truncation", "16", "op", "apply", "--name", "partial",
     "--class", "hyp6_2*x3"),
    ("--truncation", "16", "charnum", "hypersurface", "--ambient", "7",
     "--degree", "8"),
    ("--truncation", "16", "charnum", "hypersurface", "--ambient", "17",
     "--degree", "3"),
    ("--truncation", "6", "cf", "homology", "--json"),
    ("--truncation", "7", "cf", "dump", "--out", "DIR"),
)


def corpus():
    """(outputs, screens): the argv tuples whose digests hold on every
    Python version, and the help and usage screens, which argparse lays
    out per version."""
    outputs = []
    for cmd in workloads.all_cli_commands():
        outputs.append(tuple(cmd.argv))
        outputs.append(("--format", "text") + tuple(cmd.argv[2:]))
    outputs += BAD_INPUTS
    outputs += CSV_WITHOUT_TABLE
    outputs += CHAIN_RUNS
    screens = [("--help",)]
    screens += [(group, "--help") for group in GROUPS + ("verify", "dump")]
    screens += [leaf + ("--help",) for leaf in LEAVES]
    screens += [(group,) for group in GROUPS]
    return outputs, screens


def digest(argv):
    """The SHA-256 of what `slcob ARGV` exits with and prints, and of the
    files it writes under DIR, run in a fresh working directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            args = []
            for arg in argv:
                if arg.startswith("CFG:"):
                    with open("run.cfg", "w") as fh:
                        fh.write(arg[len("CFG:"):] + "\n")
                    arg = "run.cfg"
                args.append("out" if arg == "DIR" else arg)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(args)
                except SystemExit as exc:
                    rc = exc.code
            files = []
            for root, _, names in os.walk("out"):
                for name in names:
                    path = os.path.join(root, name)
                    with open(path) as fh:
                        files.append((path, fh.read()))
        finally:
            os.chdir(cwd)
    text = json.dumps([rc, out.getvalue(), err.getvalue(), sorted(files)])
    return hashlib.sha256(text.encode()).hexdigest()


def optimized_digests():
    """The digests of the BAD_INPUTS rows under `python -O`, from one
    subprocess that runs them in-process."""
    paths = [HERE, os.path.dirname(os.path.dirname(cli.__file__))]
    code = ("import json, sys; sys.path[:0] = %r; "
            "from test_cli_digests import BAD_INPUTS, digest; "
            "print(json.dumps({' '.join(a): digest(a) for a in BAD_INPUTS}))"
            % paths)
    out = subprocess.run([sys.executable, "-O", "-c", code], check=True,
                         capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def compute():
    os.environ["COLUMNS"] = "80"
    outputs, screens = corpus()
    return {
        "python": "%d.%d" % sys.version_info[:2],
        "outputs": {" ".join(a): digest(a) for a in outputs},
        "optimized": optimized_digests(),
        "screens": {" ".join(a): digest(a) for a in screens},
    }


def changed(expected, actual):
    """The commands whose digest differs, or that one side lacks."""
    return sorted(key for key in expected.keys() | actual.keys()
                  if expected.get(key) != actual.get(key))


def test_every_command_prints_what_the_digest_file_records(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with open(DIGESTS_PATH) as fh:
        expected = json.load(fh)
    outputs, screens = corpus()
    assert len(outputs) == 2 * 733 + 42 + 4 + 18 and len(screens) == 23
    actual = {" ".join(a): digest(a) for a in outputs}
    assert changed(expected["outputs"], actual) == []
    assert changed(expected["optimized"], optimized_digests()) == []
    if expected["python"] == "%d.%d" % sys.version_info[:2]:
        actual = {" ".join(a): digest(a) for a in screens}
        assert changed(expected["screens"], actual) == []


if __name__ == "__main__":
    digests = compute()
    with open(DIGESTS_PATH) as fh:
        old = json.load(fh)
    for part in ("outputs", "optimized", "screens"):
        for key in changed(old.get(part, {}), digests[part]):
            print("%s: %r" % (part, key))
    with open(DIGESTS_PATH, "w") as fh:
        json.dump(digests, fh, sort_keys=True, indent=1)
        fh.write("\n")
