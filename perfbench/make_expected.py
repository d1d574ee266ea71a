"""Write perfbench/expected_cli.json, the reference answers of every
command the cli-mix workload and the light probes can run.

    python3 perfbench/make_expected.py

Run it only at a commit whose answers are trusted: the gates compare every
later commit against this file.  The commands run in this process, so the
heavy fixtures are built once.
"""

import contextlib
import io
import json
import os
import sys

import harness
import workloads as wl


def main():
    sys.path.insert(0, harness.SRC)
    from slcob import cli
    answers = {}
    commands = wl.all_cli_commands()
    for i, cmd in enumerate(commands):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(cmd.argv)
        if rc != 0:
            raise SystemExit("%s: exit code %d" % (cmd.key, rc))
        answers[cmd.key] = wl.documented_fields(cmd.kind,
                                                json.loads(buf.getvalue()))
        print("%d/%d %s" % (i + 1, len(commands), cmd.key), file=sys.stderr)
    head = {"commit": harness.commit(),
            "source_sha256": harness.source_digest()}
    # One answer per line, so that a changed answer shows as one line.
    lines = ["%s: %s" % (json.dumps(k), json.dumps(answers[k], sort_keys=True))
             for k in sorted(answers)]
    with open(wl.EXPECTED_PATH, "w") as fh:
        fh.write(json.dumps(head, sort_keys=True)[:-1])
        fh.write(', "answers": {\n%s\n}}\n' % ",\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
