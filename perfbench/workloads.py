"""The benchmark's workloads: the commands each pass runs and the gates
that decide whether each answer is right.

A gate never compares whole outputs: it reads the documented fields only,
so a later change may add fields to the JSON.  Every gate returns
(attempted, failed, messages): the operations it checked, how many of them
were wrong, and why.

Workloads (see BENCHMARK.json for why each was chosen):

  cf-cold-t12   `slcob cf homology --json`, one cold process.
  leibniz-t12   `slcob verify --suite leibniz`, one cold process.
  cli-mix       8 light and 3 heavy commands drawn from the seed, each in
                its own cold process.
"""

import hashlib
import json
import os
import random

TRUNCATION = 12
WORKLOADS = ("cf-cold-t12", "leibniz-t12", "cli-mix")

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected_cli.json")

# -- the cli-mix input space ---------------------------------------------------

FIELDS = (("c", None), ("r", None), ("fq1", 5), ("fq1", 13), ("fq1", 25),
          ("fq3", 3), ("fq3", 7), ("fq3", 27))

# The light mix is fixed; the seed picks each command's parameters.
LIGHT_KINDS = ("msl-table", "msl-table", "msl-group", "msl-group",
               "msl-offdiag", "msl-offdiag", "witt-table", "kq-table")
# One operation on a low-degree class, one on a high-degree class and one
# hypersurface.  Splitting the operations by degree keeps the median heavy
# latency from depending on which degrees the seed happens to draw.
HEAVY_KINDS = ("op-low", "op-high", "charnum")

OPERATIONS = ("partial", "delta", "s1", "s2", "s1,1", "s2,1", "s3")
CLASSES = (
    ("cp1", 1), ("cp2", 2), ("cp3", 3), ("cp4", 4), ("cp5", 5), ("cp6", 6),
    ("x2", 2), ("x3", 3), ("x4", 4), ("x5", 5), ("h1_2", 2), ("h2_2", 3),
    ("h2_3", 4), ("h3_3", 5), ("hyp4_3", 3), ("hyp5_2", 4), ("cp1*cp1", 2),
    ("cp1*cp2", 3), ("cp2*cp2", 4), ("cp1*x4", 5), ("cp2*cp4", 6),
    ("x2*x3", 5),
    ("cp7", 7), ("cp8", 8), ("cp9", 9), ("cp10", 10), ("cp11", 11),
    ("cp12", 12), ("x7", 7), ("x8", 8), ("x9", 9), ("x10", 10), ("x11", 11),
    ("x12", 12), ("h4_4", 7), ("h4_6", 9), ("h5_6", 10), ("hyp9_3", 8),
    ("cp3*cp4", 7), ("cp2*x6", 8), ("cp5*cp5", 10), ("x2*x10", 12),
    ("cp1*cp1*cp10", 12),
)
HYPERSURFACES = tuple((a, d) for a in range(3, 7) for d in range(1, 7))

# Fixed light commands run by the t12 workloads, so that every workload
# reports light-command latency.
LIGHT_PROBES = (
    ("msl-table", ["msl", "table", "--field", "c"]),
    ("msl-group", ["msl", "group", "--field", "r", "--n", "8"]),
    ("msl-offdiag", ["msl", "group", "--field", "fq3", "--q", "7",
                     "--n", "8", "--m", "1"]),
    ("witt-table", ["witt", "table", "--field", "fq1", "--q", "5"]),
    ("kq-table", ["kq", "table", "--field", "c"]),
)


class Command:
    """One CLI invocation of the mix: `argv` is what the program receives,
    `key` names its reference answer (the truncation flag aside)."""

    def __init__(self, kind, heavy, argv, truncation=TRUNCATION):
        self.kind = kind
        self.heavy = heavy
        self.key = " ".join(argv)
        prefix = ["--format", "json"]
        if truncation != TRUNCATION:
            prefix += ["--truncation", str(truncation)]
        self.argv = prefix + argv


def _field_args(field):
    kind, q = field
    return ["--field", kind] + (["--q", str(q)] if q is not None else [])


def light_argv(kind, field, n=0, m=0):
    if kind == "msl-table":
        return ["msl", "table"] + _field_args(field)
    if kind == "msl-group":
        return ["msl", "group"] + _field_args(field) + ["--n", str(n)]
    if kind == "msl-offdiag":
        return (["msl", "group"] + _field_args(field)
                + ["--n", str(n), "--m", str(m)])
    if kind == "witt-table":
        return ["witt", "table"] + _field_args(field)
    if kind == "kq-table":
        return ["kq", "table"] + _field_args(field)
    raise ValueError(kind)


def op_argv(name, label):
    return ["op", "apply", "--name", name, "--class", label]


def charnum_argv(ambient, degree):
    return ["charnum", "hypersurface", "--ambient", str(ambient),
            "--degree", str(degree)]


def class_pool(kind, truncation):
    """Class labels an `op-low` or `op-high` command may draw."""
    half = truncation // 2
    if kind == "op-low":
        return [c for c, d in CLASSES if d <= half]
    return [c for c, d in CLASSES if half < d <= truncation]


def cli_mix_commands(seed, truncation=TRUNCATION):
    """The seed's command list: always 8 light and 3 heavy commands."""
    rng = random.Random(seed)
    out = []
    for kind in LIGHT_KINDS:
        field = rng.choice(FIELDS)
        n, m = rng.randrange(12), rng.randrange(1, 4)
        out.append(Command(kind, False, light_argv(kind, field, n, m)))
    for kind in HEAVY_KINDS:
        if kind == "charnum":
            ambient, degree = rng.choice(
                [h for h in HYPERSURFACES if h[0] - 1 <= truncation])
            argv = charnum_argv(ambient, degree)
        else:
            argv = op_argv(rng.choice(OPERATIONS),
                           rng.choice(class_pool(kind, truncation)))
        out.append(Command(kind, True, argv, truncation))
    rng.shuffle(out)
    return out


def light_probe_commands():
    return [Command(kind, False, argv) for kind, argv in LIGHT_PROBES]


def all_cli_commands():
    """Every command any seed, or a light probe, can produce at the full
    truncation; the reference file holds an answer for each."""
    out = []
    for field in FIELDS:
        for kind in ("msl-table", "witt-table", "kq-table"):
            out.append(Command(kind, False, light_argv(kind, field)))
        for n in range(12):
            out.append(Command("msl-group", False,
                               light_argv("msl-group", field, n)))
            for m in range(1, 4):
                out.append(Command("msl-offdiag", False,
                                   light_argv("msl-offdiag", field, n, m)))
    out += light_probe_commands()
    for name in OPERATIONS:
        for label, _ in CLASSES:
            out.append(Command("op-low", True, op_argv(name, label)))
    for ambient, degree in HYPERSURFACES:
        out.append(Command("charnum", True, charnum_argv(ambient, degree)))
    unique = {}
    for cmd in out:
        unique.setdefault(cmd.key, cmd)
    return list(unique.values())


# -- gates ----------------------------------------------------------------------


def digest(value):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def documented_fields(kind, data):
    """The fields of a command's JSON answer that the gate compares."""
    if kind == "msl-table":
        return [[r["n"], r["normal_form"], r["group"]] for r in data]
    if kind == "msl-group":
        return {"n": data["n"], "group": data["group"]}
    if kind == "msl-offdiag":
        return {"n": data["n"], "m": data["m"], "group": data["group"]}
    if kind == "witt-table":
        return {k: data[k] for k in ("GW", "W", "ideal_powers",
                                     "two_primary_torsion_of_I")}
    if kind == "kq-table":
        return [[r["n"], r["group"], r["witt_theory"]] for r in data]
    if kind in ("op-low", "op-high"):
        out = {}
        for side in ("input", "result"):
            rep = data[side]
            out[side] = {"degree": rep["degree"],
                         "s_number": rep.get("s_number"),
                         "chern_numbers": digest(
                             rep.get("tangent_chern_numbers"))}
        return out
    if kind == "charnum":
        return {"dimension": data["dimension"],
                "chern_numbers": digest(data["tangent_chern_numbers"]),
                "generator_verdict": data.get("generator_verdict")}
    raise ValueError(kind)


def load_expected(path=EXPECTED_PATH):
    with open(path) as fh:
        return json.load(fh)["answers"]


def gate_command(cmd, rc, stdout, expected):
    """One command is one operation: exit code 0 and the documented fields
    equal to the reference answer."""
    if rc != 0:
        return 1, 1, ["%s: exit code %d" % (cmd.key, rc)]
    if cmd.key not in expected:
        return 1, 1, ["%s: no reference answer" % cmd.key]
    try:
        got = documented_fields(cmd.kind, json.loads(stdout))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return 1, 1, ["%s: unreadable answer (%s)" % (cmd.key, exc)]
    # Round-trip through JSON so that tuples and lists compare equal.
    got = json.loads(json.dumps(got))
    if got != expected[cmd.key]:
        return 1, 1, ["%s: answer differs from the reference" % cmd.key]
    return 1, 0, []


def partition_count(n):
    """p(n), 0 for negative n.  Computed here rather than imported from
    slcob, so that the gates do not trust the code they check."""
    if n < 0:
        return 0
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for k in range(part, n + 1):
            p[k] += p[k - part]
    return p[n]


def homology_rank(n):
    """Rank of the 2-group H_n of the Conner-Floyd complex."""
    if n % 4 == 0:
        return partition_count(n // 4)
    if n % 4 == 2:
        return partition_count((n - 2) // 4)
    return 0


def expected_homology_row(n):
    """rank_Z = p(n) - p(n-1); rank_B counts the boundary generators, the
    Wall lattice rank p(n+1) - p(n-1) in degree n+1; H_n = (Z/2)^k."""
    return {"rank_Z": partition_count(n) - partition_count(n - 1),
            "rank_B": partition_count(n + 1) - partition_count(n - 1),
            "H": {"free_rank": 0, "invariant_factors": [2] * homology_rank(n)}}


def gate_cf_homology(rc, stdout, truncation, expected_row=expected_homology_row):
    """One operation per homology degree 0..truncation-1."""
    degrees = range(truncation)
    if rc != 0:
        return len(degrees), len(degrees), ["cf homology: exit code %d" % rc]
    try:
        rows = {r["n"]: r for r in json.loads(stdout)}
    except (ValueError, KeyError, TypeError) as exc:
        return (len(degrees), len(degrees),
                ["cf homology: unreadable answer (%s)" % exc])
    failures = []
    for n in degrees:
        want = expected_row(n)
        try:
            row = rows[n]
            got = {"rank_Z": row["rank_Z"], "rank_B": row["rank_B"],
                   "H": {k: row["H"][k] for k in want["H"]}}
        except (KeyError, TypeError):
            got = None
        if got != want:
            failures.append("cf homology: degree %d is %s, expected %s"
                            % (n, got, want))
    return len(degrees), len(failures), failures


def wall_pairs(truncation):
    """Ordered pairs of Wall-lattice basis classes the Leibniz suite
    checks: total degree at most the truncation."""
    rank = {n: partition_count(n) - partition_count(n - 2)
            for n in range(1, truncation)}
    return sum(rank[a] * rank[b] for a in range(1, truncation)
               for b in range(1, truncation - a + 1))


def gate_leibniz(rc, stdout, truncation):
    """One operation per verify check: exit code 0, "0 failures", and both
    laws checked over every Wall pair.  A malformed report fails every
    check."""
    lines = stdout.splitlines()
    checks = [ln for ln in lines if ln.startswith(("PASS ", "FAIL "))]
    attempted = max(len(checks), 2)
    if rc != 0:
        return attempted, attempted, ["leibniz: exit code %d" % rc]
    pairs = "(%d Wall pairs)" % wall_pairs(truncation)
    if len(checks) != 2 or not all(ln.endswith(pairs) for ln in checks):
        return attempted, attempted, [
            "leibniz: expected two checks over %s, got %r" % (pairs, checks)]
    failures = ["leibniz: %s" % ln for ln in checks if ln.startswith("FAIL")]
    if lines[-1] != "%d checks, %d failures" % (len(checks), len(failures)):
        return attempted, attempted, ["leibniz: summary line %r" % lines[-1]]
    return attempted, len(failures), failures
