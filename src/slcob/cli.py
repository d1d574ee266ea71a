"""Command-line interface.

Commands: msl {group,table}, cf {homology,dump}, op apply, witt table,
kq table, charnum hypersurface, verify, dump.  Each command is declared
once, as an entry of COMMANDS naming its handler and its flags, and FLAGS
holds each flag's spec; one loop builds the parser from the two tables.
Output is deterministic (fixed orderings, sorted JSON keys).  A command
has a CSV form exactly when it hands CSV rows to `emit`, which refuses
--format csv otherwise (a command with no CSV form that builds the chain
refuses it before the chain); `verify` and the dumps print their own
lines in every format.  Exit codes: 0 success, 1 internal or I/O failure,
2 usage, 3 verification failure.

Configuration: an optional key=value file (--config); command-line flags
win over file values.  Recognized keys: truncation, field, q, format.
`main` fills the settings into the parsed arguments before the handler
runs.
"""

import argparse
import gc
import os
import sys
from functools import lru_cache

from . import charnum, msl, mu
from .conner_floyd import ConnerFloyd
from .kq import KQPresentation
from .operations import (apply_operation, boundary_partial, delta_op,
                         landweber_novikov)
from .partitions import MAX_TRUNCATION, label, partitions_of
from .record import Record
from .verify import CHAIN_SUITES, run_suite
from .witt import SHORT_NAMES, field_descriptor, witt_data

FORMATS = ("text", "json", "csv")


def load_config(path):
    out = {}
    with open(path) as fh:
        for line in map(str.strip, fh):
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError("bad config line: %r" % line)
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def effective_settings(args):
    """Set args.truncation, format, field and q, each from its flag, else
    the --config file, else its default, and check each in that order."""
    cfg = load_config(args.config) if args.config else {}

    def setting(name, default=None, conv=str):
        value = getattr(args, name, None)
        if value is None and name in cfg:
            value = conv(cfg[name])
        setattr(args, name, default if value is None else value)
        return getattr(args, name)

    if not 2 <= setting("truncation", 12, int) <= MAX_TRUNCATION:
        raise ValueError("truncation must be between 2 and %d" % MAX_TRUNCATION)
    if setting("format", "text") not in FORMATS:
        raise ValueError("format must be one of %s, not %r"
                         % (", ".join(FORMATS), args.format))
    if setting("field") == "":
        raise ValueError("the field is empty: give one of %s"
                         % ", ".join(SHORT_NAMES))
    setting("q", None, int)


@lru_cache(maxsize=None)
def fixtures(truncation):
    """The chain at this truncation (it carries `ctx` and `basis`), built
    once per process."""
    return ConnerFloyd(truncation)


def refuse_csv(fmt):
    """Refuse --format csv for a command with no CSV form.  `emit` calls
    this; a command that builds the chain calls it before the chain."""
    if fmt == "csv":
        raise ValueError("this command has no CSV form; use text or json")


def emit(data, fmt, csv_rows=None):
    """Print data as text or JSON, or csv_rows as CSV; a command that hands
    over no csv_rows has no CSV form."""
    if csv_rows is None:
        refuse_csv(fmt)
    # json and csv are imported only where they are used, not by text output
    if fmt == "json":
        import json
        print(json.dumps(data, sort_keys=True, indent=2))
    elif fmt == "csv":
        import csv
        csv.writer(sys.stdout).writerows(csv_rows)
    else:
        _emit_text(data)


def _emit_text(data, indent=0):
    pad = "  " * indent
    if isinstance(data, dict):
        for key, value in data.items():
            if isinstance(value, (dict, list)):
                print("%s%s:" % (pad, key))
                _emit_text(value, indent + 1)
            else:
                print("%s%s: %s" % (pad, key, value))
    elif isinstance(data, list):
        for value in data:
            _emit_text(value, indent)
    else:
        print("%s%s" % (pad, data))


# -- class labels -------------------------------------------------------------


class ClassKind(Record):
    """One kind of class label: the number of integers after its name, the
    condition they meet given the truncation t, and its text (which may
    name {t}), the degree of the class and the class, built from the
    chain cf."""
    __slots__ = ("arity", "ok", "need", "degree", "build")


# "hyp" comes before "h": a label's kind is the first name it starts with.
CLASS_KINDS = {
    "cp": ClassKind(1, lambda t, n: n >= 0, "N >= 0", lambda n: n,
                    lambda cf, n: mu.cpn_class(cf.ctx, n)),
    "hyp": ClassKind(2, lambda t, n, d: n >= 1 and d >= 1, "N, D >= 1",
                     lambda n, d: n - 1,
                     lambda cf, n, d: mu.hypersurface_class(cf.ctx, n, d)),
    "h": ClassKind(2, lambda t, i, j: 1 <= i <= j, "1 <= I <= J",
                   lambda i, j: i + j - 1,
                   lambda cf, i, j: mu.milnor_hypersurface_class(cf.ctx, i, j)),
    "x": ClassKind(1, lambda t, i: 1 <= i <= t,
                   "1 <= I <= {t}, the truncation", lambda i: i,
                   lambda cf, i: cf.basis.generators[i]),
}


def class_factors(text, truncation):
    """The factors of a class label as (kind, integer arguments) pairs.
    Grammar: cpN | hI_J | hypN_D | products joined with '*' | xI monomials
    (basis generators).  Once every factor parses, each must name a class,
    and the product's degree must not exceed the truncation (the
    operations' classes are cut off there)."""
    factors = []
    for token in text.split("*"):
        token = token.strip()
        kind = next((k for k in CLASS_KINDS if token.startswith(k)), None)
        if kind is None:
            raise ValueError("unknown class label %r" % token)
        parts = token[len(kind):].split("_")
        if len(parts) != CLASS_KINDS[kind].arity:
            raise ValueError("class label %r needs %d integer(s) after %r"
                             % (token, CLASS_KINDS[kind].arity, kind))
        factors.append((kind, tuple(int(a) for a in parts)))
    degree = 0
    for kind, a in factors:
        spec = CLASS_KINDS[kind]
        if not spec.ok(truncation, *a):
            raise ValueError("class label %s%s needs %s" % (
                kind, "_".join(map(str, a)), spec.need.format(t=truncation)))
        degree += spec.degree(*a)
    if degree > truncation:
        raise ValueError("the class has degree %d, above the truncation %d"
                         % (degree, truncation))
    return factors


def build_class(factors, cf):
    """The product of the classes named by class_factors' factors."""
    cls = mu.MUClass.unit()
    for kind, a in factors:
        cls = cls * CLASS_KINDS[kind].build(cf, *a)
    return cls


def class_report(cls):
    out = {
        "degree": cls.degree,
        "hurewicz": {mu.monomial_label(p): c for p, c in cls.hb},
    }
    if cls.degree >= 1 and not cls.is_zero():
        out["s_number"] = mu.s_number(cls)
    if not cls.is_zero():
        tangent = mu.hurewicz_to_chern_numbers(cls)
        out["tangent_chern_numbers"] = {label(k): v for k, v in tangent.items()}
    return out


# -- commands ------------------------------------------------------------------
# Each handler reads the settings from args; returning None means exit 0.


def cmd_msl_group(args):
    fd = field_descriptor(args.field, args.q)
    n, top = args.n, args.truncation - 1
    if n < 0 or n > top:
        raise ValueError("degree out of range 0..%d" % top)
    if args.m:
        group = msl.msl_off_diagonal(fd, n, args.m)
        data = {"n": n, "m": args.m, "group": group.to_json()}
    else:
        data = msl.msl_diagonal(fd, n).to_json()
    emit(data, args.format)


def cmd_msl_table(args):
    rows = msl.intro_table_rows(field_descriptor(args.field, args.q))
    data = [{"n": r["n"], "symbolic": r["symbolic"],
             "group": r["group"].to_json(), "normal_form": str(r["group"])}
            for r in rows]
    csv_rows = [["n", "symbolic", "normal_form"]] + [
        [r["n"], r["symbolic"], r["normal_form"]] for r in data]
    emit(data, args.format, csv_rows)


def _cf_max_degree(args):
    top = args.truncation - 1
    max_n = top if args.max_degree is None else args.max_degree
    if not 0 <= max_n <= top:
        raise ValueError("--max-degree must be between 0 and %d (homology "
                         "needs degree + 1 within the truncation)" % top)
    return max_n


def cmd_cf_homology(args):
    max_n = _cf_max_degree(args)
    cf = fixtures(args.truncation)
    table = homology_table(cf, max_n)
    rows = [{"n": n, "rank_Z": z, "rank_B": b,
             "H": cf.homology(n).to_json(), "H_normal_form": h}
            for n, z, b, h in table[1:]]
    emit(rows, args.format, table)


def cmd_cf_dump(args):
    max_n = _cf_max_degree(args)
    dump_cf(args.out, fixtures(args.truncation), max_n)


def homology_table(cf, max_n):
    """The header row and the rows (n, rank_Z, rank_B, H) for degrees
    0..max_n, H in normal form."""
    return [["n", "rank_Z", "rank_B", "H"]] + [
        [n, cf.cycles(n).cols, cf.delta_matrix(n + 1).cols,
         str(cf.homology(n))] for n in range(max_n + 1)]


def _write_csv(path, rows):
    import csv
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def dump_cf(outdir, cf, max_n):
    os.makedirs(outdir, exist_ok=True)
    for n in range(1, max_n + 1):
        _write_csv(os.path.join(outdir, "delta_matrix_%d.csv" % n),
                   cf.delta_matrix(n).entries)
    _write_csv(os.path.join(outdir, "homology.csv"), homology_table(cf, max_n))


def cmd_op(args):
    name = args.name
    ctx_ops = {"partial": boundary_partial, "delta": delta_op}
    if name.startswith("s"):
        parts = name[1:].split(",")
        if not all(x.isdecimal() for x in parts):
            raise ValueError("operation %r must be s followed by comma-"
                             "separated positive integers, as in s2,1" % name)
        op = landweber_novikov(tuple(int(x) for x in parts))
    elif name not in ctx_ops:
        raise ValueError("unknown operation %r" % name)
    # reject bad input before fixtures
    factors = class_factors(args.cls, args.truncation)
    refuse_csv(args.format)
    cf = fixtures(args.truncation)
    if name in ctx_ops:
        op = ctx_ops[name](cf.ctx)
    cls = build_class(factors, cf)
    result = apply_operation(cf.ctx, op, cls)
    data = {
        "operation": name,
        "input": class_report(cls),
        "result": class_report(result),
    }
    emit(data, args.format)


def cmd_witt(args):
    fd = field_descriptor(args.field, args.q)
    wr = witt_data(fd)
    data = {
        "field": fd.kind,
        "GW": wr.gw.to_json(),
        "W": wr.w.to_json(),
        "ideal_powers": {str(m): wr.fundamental_ideal_power(m).to_json()
                         for m in range(0, 4)},
        "two_primary_torsion_of_I": wr.two_primary_torsion_of_ideal(1).to_json(),
    }
    emit(data, args.format)


def cmd_kq(args):
    max_n = MAX_TRUNCATION if args.max_degree is None else args.max_degree
    if not 0 <= max_n <= MAX_TRUNCATION:
        raise ValueError("--max-degree must be between 0 and %d"
                         % MAX_TRUNCATION)
    pres = KQPresentation(field_descriptor(args.field, args.q))
    rows = [{"n": n, "group": str(pres.kq_diagonal(n)),
             "witt_theory": str(pres.kw_diagonal(n))}
            for n in range(0, max_n + 1)]
    csv_rows = [["n", "group", "witt_theory"]] + [
        [r["n"], r["group"], r["witt_theory"]] for r in rows]
    emit(rows, args.format, csv_rows)


def cmd_charnum(args):
    if args.ambient - 1 > args.truncation:
        raise ValueError("dimension exceeds truncation")
    refuse_csv(args.format)
    cf = fixtures(args.truncation)
    v = charnum.hypersurface_class(cf.ctx, args.ambient, args.degree)
    data = v.to_json()
    if v.dimension >= 2:
        try:
            data["generator_verdict"] = charnum.generator_check_msu(v.mu_class, cf)
        except charnum.NotACycle:
            data["generator_verdict"] = "not in the cycle lattice"
    data["note"] = ("calabi_yau_symbolic certifies only the vanishing of the "
                    "degree-1 tangent class in the ambient model")
    emit(data, args.format)


def cmd_verify(args):
    field, q = args.field, args.q
    if field is not None:
        field_descriptor(field, q)  # every suite rejects a bad field
    elif q is not None:
        raise ValueError("a field size q needs a finite field: add --field "
                         "fq1 or fq3")
    max_degree = args.truncation if args.max_degree is None else args.max_degree
    if not 2 <= max_degree <= MAX_TRUNCATION:
        raise ValueError("--max-degree must be between 2 and %d (the suites "
                         "run at that truncation)" % MAX_TRUNCATION)
    cf = fixtures(max_degree) if args.suite in CHAIN_SUITES else None
    checks = run_suite(args.suite, cf, field, q, max_degree)
    failures = 0
    for name, ok, detail in checks:
        line = "%s %s" % ("PASS" if ok else "FAIL", name)
        if detail and not ok:
            line += " [%s]" % detail
        print(line)
        failures += 0 if ok else 1
    print("%d checks, %d failures" % (len(checks), failures))
    return 0 if failures == 0 else 3


def cmd_dump(args):
    import json
    trunc, outdir = args.truncation, args.out
    cf = fixtures(trunc)
    os.makedirs(outdir, exist_ok=True)
    # basis and tangent-number tables
    _write_csv(os.path.join(outdir, "mu_basis.csv"),
               [["degree", "partition", "hurewicz"]]
               + [[n, label(omega), str(cls)]
                  for n in range(trunc + 1) for omega, cls in cf.basis.basis(n)])
    from .symfun import e_to_m_matrix
    rows = [["degree", "basis_partition", "number_partition", "value"]]
    for n in range(1, trunc + 1):
        # column omega: mu.hurewicz_to_chern_numbers of the class x^omega
        numbers = (mu.reciprocal_class_matrix(n) * e_to_m_matrix(n)
                   * cf.basis.matrix(n)).entries
        parts = list(map(label, partitions_of(n)))
        rows += [[n, omega, p, numbers[i][j]] for j, omega in enumerate(parts)
                 for i, p in enumerate(parts)]
    _write_csv(os.path.join(outdir, "chern_numbers.csv"), rows)
    dump_cf(outdir, cf, trunc - 1)
    for kind in SHORT_NAMES:
        wr = witt_data(field_descriptor(kind))
        with open(os.path.join(outdir, "witt_%s.json" % kind), "w") as fh:
            json.dump({"GW": wr.gw.to_json(), "W": wr.w.to_json(),
                       "I": wr.fundamental_ideal_power(1).to_json()},
                      fh, sort_keys=True, indent=2)
    print("wrote tables to %s" % outdir)


# -- the parser -----------------------------------------------------------------

FLAGS = {
    "--config": dict(help="key=value configuration file"),
    "--truncation": dict(type=int, help="weight bound (2..16)"),
    "--format": dict(choices=FORMATS),
    # --json: the same as --format json, for this command only
    "--json": dict(dest="format", action="store_const", const="json",
                   default=argparse.SUPPRESS),
    "--field": dict(required=True),
    "--q": dict(type=int),
    "--n": dict(type=int, required=True),
    "--m": dict(type=int, default=0),
    "--max-degree": dict(type=int),
    "--out": dict(required=True),
    "--name": dict(required=True, help="partial | delta | s<i[,j,...]>"),
    "--class": dict(dest="cls", required=True),
    "--ambient": dict(type=int, required=True),
    "--degree": dict(type=int, required=True),
    "--suite": dict(default="all", choices=[
        "leibniz", "cf-pattern", "subring", "table", "kq", "witt-oracle",
        "all"]),
}

# Each command once: its group's help line, the name that usage errors give
# a missing sub-command, and per sub-command (None where the group is the
# command) the handler and flags.  A flag marked "?" is optional here
# although FLAGS requires it.
COMMANDS = {
    "msl": ("diagonal and off-diagonal groups", "msl_cmd", {
        "group": (cmd_msl_group, "--field --q --n --m --json"),
        "table": (cmd_msl_table, "--field --q --json")}),
    "cf": ("Conner-Floyd complex", "cf_cmd", {
        "homology": (cmd_cf_homology, "--max-degree --json"),
        "dump": (cmd_cf_dump, "--max-degree --out")}),
    "op": ("apply a cohomological operation", "op_cmd", {
        "apply": (cmd_op, "--name --class --json")}),
    "witt": ("Witt ring tables", "witt_cmd", {
        "table": (cmd_witt, "--field --q --json")}),
    "kq": ("Hermitian K-theory diagonal", "kq_cmd", {
        "table": (cmd_kq, "--field --q --max-degree --json")}),
    "charnum": ("characteristic numbers", "cn_cmd", {
        "hypersurface": (cmd_charnum, "--ambient --degree --json")}),
    "verify": ("verification suites", None, {
        None: (cmd_verify, "--suite --field? --q --max-degree")}),
    "dump": ("write all tables to a directory", None, {
        None: (cmd_dump, "--out")}),
}


def _add_flags(parser, flags):
    for flag in flags.split():
        spec = dict(FLAGS[flag.rstrip("?")])
        if flag.endswith("?"):
            del spec["required"]
        parser.add_argument(flag.rstrip("?"), **spec)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="slcob",
        description="Exact computation of the geometric diagonal of special "
                    "linear cobordism.")
    _add_flags(parser, "--config --truncation --format")
    groups = parser.add_subparsers(dest="command", required=True)
    for group, (help_text, dest, leaves) in COMMANDS.items():
        command = groups.add_parser(group, help=help_text)
        if dest:
            subs = command.add_subparsers(dest=dest, required=True)
        for leaf, (handler, flags) in leaves.items():
            sub = subs.add_parser(leaf) if leaf else command
            sub.set_defaults(func=handler)
            _add_flags(sub, flags)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        effective_settings(args)
        return args.func(args) or 0
    except (ValueError, KeyError, AssertionError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2 if isinstance(exc, (ValueError, KeyError)) else 1


def run():
    """The console entry point: main(), then the exit.  The heap is frozen
    first, so that the collections interpreter shutdown sets off do not
    walk the tables the command built (a freeze in main would leak into
    in-process callers)."""
    rc = main()
    gc.freeze()
    sys.exit(rc)


if __name__ == "__main__":
    run()
