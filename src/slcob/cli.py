"""Command-line interface.

Commands: msl {group,table}, cf {homology,dump}, op apply, witt table,
kq table, charnum hypersurface, verify, dump.  Output is deterministic
(fixed orderings, sorted JSON keys).  Exit codes: 0 success, 1 internal or
I/O failure, 2 usage, 3 verification failure.

Configuration: an optional key=value file (--config); command-line flags
win over file values.  Recognized keys: truncation, field, q, format.
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
from .partitions import MAX_TRUNCATION, partitions_of
from .verify import CHAIN_SUITES, run_suite
from .witt import SHORT_NAMES, field_descriptor, witt_data

FORMATS = ("text", "json", "csv")


def load_config(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError("bad config line: %r" % line)
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def effective_settings(args, csv_form=True):
    """(truncation, field, q, format); csv_form=False rejects csv."""
    cfg = {}
    if getattr(args, "config", None):
        cfg = load_config(args.config)

    def setting(name, default=None, conv=str):
        value = getattr(args, name, None)
        if value is None and name in cfg:
            value = conv(cfg[name])
        return default if value is None else value

    trunc = setting("truncation", 12, int)
    if not (2 <= trunc <= MAX_TRUNCATION):
        raise ValueError("truncation must be between 2 and %d" % MAX_TRUNCATION)
    fmt = setting("format", "text")
    if fmt not in FORMATS:
        raise ValueError("format must be one of %s, not %r"
                         % (", ".join(FORMATS), fmt))
    if fmt == "csv" and not csv_form:
        raise ValueError("this command has no CSV form; use text or json")
    field = setting("field")
    if field == "":
        raise ValueError("the field is empty: give one of %s"
                         % ", ".join(SHORT_NAMES))
    return trunc, field, setting("q", None, int), fmt


@lru_cache(maxsize=None)
def fixtures(truncation):
    """The chain at this truncation (it carries `ctx` and `basis`), built
    once per process."""
    return ConnerFloyd(truncation)


def emit(data, fmt, csv_rows=None):
    # json and csv are imported only where they are used, not by text output
    if fmt == "json":
        import json
        print(json.dumps(data, sort_keys=True, indent=2))
    elif fmt == "csv" and csv_rows is not None:
        import csv
        csv.writer(sys.stdout).writerows(csv_rows)
    else:
        _emit_text(data)


def _emit_text(data, indent=0):
    pad = "  " * indent
    if isinstance(data, dict):
        for key in data:
            value = data[key]
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


def parse_class_label(label):
    """Grammar: cpN | hI_J | hypN_D | products joined with '*' |
    xI monomials (basis generators).  Returns the factors as
    (kind, integer arguments) pairs."""
    factors = []
    for token in label.split("*"):
        token = token.strip()
        for kind, nargs in (("cp", 1), ("hyp", 2), ("h", 2), ("x", 1)):
            if token.startswith(kind):
                parts = token[len(kind):].split("_")
                if len(parts) != nargs:
                    raise ValueError("class label %r needs %d integer(s) "
                                     "after %r" % (token, nargs, kind))
                factors.append((kind, tuple(int(a) for a in parts)))
                break
        else:
            raise ValueError("unknown class label %r" % token)
    return factors


def check_class_range(factors, truncation):
    """Reject factors that name no class, and products of degree above the
    truncation (the operations' classes are cut off there)."""
    degree = 0
    for kind, a in factors:
        if kind == "cp":
            ok, n, need = a[0] >= 0, a[0], "N >= 0"
        elif kind == "hyp":
            ok, n, need = a[0] >= 1 and a[1] >= 1, a[0] - 1, "N, D >= 1"
        elif kind == "h":
            ok, n, need = 1 <= a[0] <= a[1], a[0] + a[1] - 1, "1 <= I <= J"
        else:
            ok, n, need = 1 <= a[0] <= truncation, a[0], \
                "1 <= I <= %d, the truncation" % truncation
        if not ok:
            raise ValueError("class label %s%s needs %s" % (
                kind, "_".join(map(str, a)), need))
        degree += n
    if degree > truncation:
        raise ValueError("the class has degree %d, above the truncation %d"
                         % (degree, truncation))


def build_class(factors, cf):
    """The product of the classes named by parse_class_label's factors."""
    ctx = cf.ctx
    cls = mu.MUClass.unit()
    for kind, a in factors:
        if kind == "cp":
            cls = cls * mu.cpn_class(ctx, a[0])
        elif kind == "hyp":
            cls = cls * mu.hypersurface_class(ctx, *a)
        elif kind == "h":
            cls = cls * mu.milnor_hypersurface_class(ctx, *a)
        else:
            cls = cls * cf.basis.generators[a[0]]
    return cls


def class_report(cls):
    coeffs = {"*".join("b%d" % i for i in p) or "1": c for p, c in cls.hb}
    out = {
        "degree": cls.degree,
        "hurewicz": coeffs,
    }
    if cls.degree >= 1 and not cls.is_zero():
        out["s_number"] = mu.s_number(cls)
    if not cls.is_zero():
        tangent = mu.hurewicz_to_chern_numbers(cls)
        out["tangent_chern_numbers"] = {
            "+".join(map(str, k)) if k else "()": v for k, v in tangent.items()}
    return out


# -- commands ------------------------------------------------------------------


def cmd_msl(args):
    trunc, field, q, fmt = effective_settings(
        args, csv_form=args.msl_cmd == "table")
    fd = field_descriptor(field, q)
    if args.msl_cmd == "group":
        n = args.n
        if n < 0 or n > trunc - 1:
            raise ValueError("degree out of range 0..%d" % (trunc - 1))
        if args.m:
            group = msl.msl_off_diagonal(fd, n, args.m)
            data = {"n": n, "m": args.m, "group": group.to_json()}
        else:
            data = msl.msl_diagonal(fd, n).to_json()
        emit(data, fmt)
    else:  # table
        rows = msl.intro_table_rows(fd)
        data = [{"n": r["n"], "symbolic": r["symbolic"],
                 "group": r["group"].to_json(), "normal_form": str(r["group"])}
                for r in rows]
        csv_rows = [["n", "symbolic", "normal_form"]] + [
            [r["n"], r["symbolic"], r["normal_form"]] for r in data]
        emit(data, fmt, csv_rows)
    return 0


def cmd_cf(args):
    trunc, _, _, fmt = effective_settings(args)
    cf = fixtures(trunc)
    max_n = args.max_degree if args.max_degree is not None else trunc - 1
    if not 0 <= max_n <= trunc - 1:
        raise ValueError("--max-degree must be between 0 and %d (homology "
                         "needs degree + 1 within the truncation)" % (trunc - 1))
    if args.cf_cmd == "homology":
        table = homology_table(cf, max_n)
        rows = [{"n": n, "rank_Z": z, "rank_B": b,
                 "H": cf.homology(n).to_json(), "H_normal_form": h}
                for n, z, b, h in table[1:]]
        emit(rows, fmt, table)
    else:  # dump
        return dump_cf(args.out, cf, max_n)
    return 0


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
    return 0


def cmd_op(args):
    trunc, _, _, fmt = effective_settings(args, csv_form=False)
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
    factors = parse_class_label(args.cls)  # reject bad input before fixtures
    check_class_range(factors, trunc)
    cf = fixtures(trunc)
    if name in ctx_ops:
        op = ctx_ops[name](cf.ctx)
    cls = build_class(factors, cf)
    result = apply_operation(cf.ctx, op, cls)
    data = {
        "operation": name,
        "input": class_report(cls),
        "result": class_report(result),
    }
    emit(data, fmt)
    return 0


def cmd_witt(args):
    _, field, q, fmt = effective_settings(args, csv_form=False)
    fd = field_descriptor(field, q)
    wr = witt_data(fd)
    data = {
        "field": fd.kind,
        "GW": wr.gw.to_json(),
        "W": wr.w.to_json(),
        "ideal_powers": {str(m): wr.fundamental_ideal_power(m).to_json()
                         for m in range(0, 4)},
        "two_primary_torsion_of_I": wr.two_primary_torsion_of_ideal(1).to_json(),
    }
    emit(data, fmt)
    return 0


def cmd_kq(args):
    _, field, q, fmt = effective_settings(args)
    if not 0 <= args.max_degree <= MAX_TRUNCATION:
        raise ValueError("--max-degree must be between 0 and %d"
                         % MAX_TRUNCATION)
    fd = field_descriptor(field, q)
    pres = KQPresentation(fd)
    rows = [{"n": n, "group": str(pres.kq_diagonal(n)),
             "witt_theory": str(pres.kw_diagonal(n))}
            for n in range(0, args.max_degree + 1)]
    csv_rows = [["n", "group", "witt_theory"]] + [
        [r["n"], r["group"], r["witt_theory"]] for r in rows]
    emit(rows, fmt, csv_rows)
    return 0


def cmd_charnum(args):
    trunc, _, _, fmt = effective_settings(args, csv_form=False)
    if args.ambient - 1 > trunc:
        raise ValueError("dimension exceeds truncation")
    cf = fixtures(trunc)
    v = charnum.hypersurface_class(cf.ctx, args.ambient, args.degree)
    data = v.to_json()
    if v.dimension >= 2:
        try:
            data["generator_verdict"] = charnum.generator_check_msu(v.mu_class, cf)
        except charnum.NotACycle:
            data["generator_verdict"] = "not in the cycle lattice"
    data["note"] = ("calabi_yau_symbolic certifies only the vanishing of the "
                    "degree-1 tangent class in the ambient model")
    emit(data, fmt)
    return 0


def cmd_verify(args):
    trunc, field, q, _ = effective_settings(args)
    if field is not None:
        field_descriptor(field, q)  # every suite rejects a bad field
    elif q is not None:
        raise ValueError("a field size q needs a finite field: add --field "
                         "fq1 or fq3")
    max_degree = trunc if args.max_degree is None else args.max_degree
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
    trunc, _, _, _ = effective_settings(args)
    cf = fixtures(trunc)
    basis = cf.basis
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    # basis and tangent-number tables
    _write_csv(os.path.join(outdir, "mu_basis.csv"),
              [["degree", "partition", "hurewicz"]]
              + [[n, "+".join(map(str, omega)) or "()", str(cls)]
                 for n in range(trunc + 1) for omega, cls in basis.basis(n)])
    rows = [["degree", "basis_partition", "number_partition", "value"]]
    for n in range(1, trunc + 1):
        for omega, cls in basis.basis(n):
            tangent = mu.hurewicz_to_chern_numbers(cls)
            rows += [[n, "+".join(map(str, omega)), "+".join(map(str, p)),
                      tangent[p]] for p in partitions_of(n)]
    _write_csv(os.path.join(outdir, "chern_numbers.csv"), rows)
    dump_cf(outdir, cf, trunc - 1)
    for kind in SHORT_NAMES:
        fd = field_descriptor(kind)
        wr = witt_data(fd)
        with open(os.path.join(outdir, "witt_%s.json" % kind), "w") as fh:
            json.dump({"GW": wr.gw.to_json(), "W": wr.w.to_json(),
                       "I": wr.fundamental_ideal_power(1).to_json()},
                      fh, sort_keys=True, indent=2)
    print("wrote tables to %s" % outdir)
    return 0


def _json_flag(parser):
    """--json: the same as --format json, for this command only."""
    parser.add_argument("--json", dest="format", action="store_const",
                        const="json", default=argparse.SUPPRESS)


def _field_flags(parser):
    parser.add_argument("--field", required=True)
    parser.add_argument("--q", type=int)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="slcob",
        description="Exact computation of the geometric diagonal of special "
                    "linear cobordism.")
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--truncation", type=int, help="weight bound (2..16)")
    parser.add_argument("--format", choices=FORMATS)
    sub = parser.add_subparsers(dest="command", required=True)

    p_msl = sub.add_parser("msl", help="diagonal and off-diagonal groups")
    p_msl.set_defaults(func=cmd_msl)
    msl_sub = p_msl.add_subparsers(dest="msl_cmd", required=True)
    p_group = msl_sub.add_parser("group")
    _field_flags(p_group)
    p_group.add_argument("--n", type=int, required=True)
    p_group.add_argument("--m", type=int, default=0)
    _json_flag(p_group)
    p_table = msl_sub.add_parser("table")
    _field_flags(p_table)
    _json_flag(p_table)

    p_cf = sub.add_parser("cf", help="Conner-Floyd complex")
    p_cf.set_defaults(func=cmd_cf)
    cf_sub = p_cf.add_subparsers(dest="cf_cmd", required=True)
    p_hom = cf_sub.add_parser("homology")
    p_hom.add_argument("--max-degree", type=int)
    _json_flag(p_hom)
    p_cfd = cf_sub.add_parser("dump")
    p_cfd.add_argument("--max-degree", type=int)
    p_cfd.add_argument("--out", required=True)

    p_op = sub.add_parser("op", help="apply a cohomological operation")
    op_sub = p_op.add_subparsers(dest="op_cmd", required=True)
    p_apply = op_sub.add_parser("apply")
    p_apply.add_argument("--name", required=True,
                         help="partial | delta | s<i[,j,...]>")
    p_apply.add_argument("--class", dest="cls", required=True)
    _json_flag(p_apply)
    p_apply.set_defaults(func=cmd_op)

    p_witt = sub.add_parser("witt", help="Witt ring tables")
    witt_sub = p_witt.add_subparsers(dest="witt_cmd", required=True)
    p_wt = witt_sub.add_parser("table")
    _field_flags(p_wt)
    _json_flag(p_wt)
    p_wt.set_defaults(func=cmd_witt)

    p_kq = sub.add_parser("kq", help="Hermitian K-theory diagonal")
    kq_sub = p_kq.add_subparsers(dest="kq_cmd", required=True)
    p_kt = kq_sub.add_parser("table")
    _field_flags(p_kt)
    p_kt.add_argument("--max-degree", type=int, default=MAX_TRUNCATION)
    _json_flag(p_kt)
    p_kt.set_defaults(func=cmd_kq)

    p_cn = sub.add_parser("charnum", help="characteristic numbers")
    cn_sub = p_cn.add_subparsers(dest="cn_cmd", required=True)
    p_hy = cn_sub.add_parser("hypersurface")
    p_hy.add_argument("--ambient", type=int, required=True)
    p_hy.add_argument("--degree", type=int, required=True)
    _json_flag(p_hy)
    p_hy.set_defaults(func=cmd_charnum)

    p_ver = sub.add_parser("verify", help="verification suites")
    p_ver.add_argument("--suite", default="all",
                       choices=["leibniz", "cf-pattern", "subring", "table",
                                "kq", "witt-oracle", "all"])
    p_ver.add_argument("--field")
    p_ver.add_argument("--q", type=int)
    p_ver.add_argument("--max-degree", type=int)
    p_ver.set_defaults(func=cmd_verify)

    p_dump = sub.add_parser("dump", help="write all tables to a directory")
    p_dump.add_argument("--out", required=True)
    p_dump.set_defaults(func=cmd_dump)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
