"""Command-line surface: list/show table rows, run verifications, sweep the
database, export it, and check a user-supplied generator triple.

Each command imports the modules it runs in its own body, so check-triple
loads no more than the group and field code, and the table and verification
modules load only for the commands that read the database.

Exit codes: 0 when nothing failed, 1 on any FAIL, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    DEFAULT_CAPS,
    DimensionMismatch,
    DomainOverflow,
    FactorLabError,
    FieldMismatch,
    NotSubgroup,
    UsageError,
)
from .gf import FieldSpec
from .linalg import GroupElem, SpaceFrame
from .perm import bsgs, enumerate_and_sift, nonzero_vectors


_OPTIONS = {
    "--table": dict(type=int, help="restrict to one table"),
    "--row": dict(type=int, help="restrict to one row"),
    "--sub": dict(help="restrict to one sub-row (a, b, ...)"),
    "--db": dict(help="path of the tables DB (default: bundled)"),
    "--seed": dict(type=int, help="ignored"),
    "--format": dict(choices=["text", "json"], default="text"),
    "--out": dict(help="write the report here instead of stdout"),
    "--max-order": dict(default=DEFAULT_CAPS["max_order"],
                        help="TIER-A cap on |G0| (default 1e40)"),
    "--max-group": dict(default=DEFAULT_CAPS["max_group"],
                        help="BSGS order cap for TIER-B (default 1e9)"),
    "--max-domain": dict(default=DEFAULT_CAPS["max_domain"],
                         help="size cap on a permutation domain"),
    "--max-enum": dict(default=DEFAULT_CAPS["max_enum"],
                       help="cap on the elements enumerated by enumerate-and-sift"),
    "--bind": dict(action="append", default=[], metavar="SYM=VAL"),
}
_SELECT = ("--table", "--row", "--sub", "--db")
_RUN = ("--format", "--out")
_CAPS = ("--max-order", "--max-group", "--max-domain", "--max-enum")
# each command: its help, and the arguments it reads (an option no command
# reads would be a cap or a filter that silently means nothing); the one
# exception is check-triple's --seed, which nothing reads but which
# perfbench/child.py still passes (ROADMAP item 16)
_COMMANDS = {
    "list": ("list the table rows in the database", (*_SELECT, "--out")),
    "show": ("print one row: shapes, constraints, reference", (*_SELECT, "--out")),
    "verify": ("verify one row at given bindings", (*_SELECT, *_RUN, *_CAPS, "--bind")),
    "sweep": ("verify every admissible binding of the rows", (*_SELECT, *_RUN, *_CAPS)),
    "export-db": ("dump the bundled database", ("--out", "--db")),
    "check-triple": ("check G = HK for generator files",
                     ("genfileG", "genfileH", "genfileK", "--seed", *_RUN, "--max-domain",
                      "--max-enum")),
}
_TIERS = {"verify": ["a", "b"], "sweep": ["a", "b", "both"]}


def parse_cap(text):
    """A positive integer cap, written as an integer or in exact scientific
    notation: "1e40" is 10**40, not the float nearest to it."""
    from decimal import Decimal, InvalidOperation  # only when a command runs

    try:
        val = Decimal(text)
    except InvalidOperation:
        val = None
    if val is None or not val.is_finite() or val != val.to_integral_value() or val < 1:
        raise UsageError(f"cap {text!r} is not a positive integer")
    return int(val)


def _caps_from(args):
    """The caps the command has options for, parsed."""
    return {k: parse_cap(v) for k, v in vars(args).items() if k in DEFAULT_CAPS}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="factorlab",
        description="verify factorizations G = HK of finite classical groups",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for arg in arguments:
            p.add_argument(arg, **_OPTIONS.get(arg, {}))
        if name in _TIERS:
            p.add_argument("--tier", choices=_TIERS[name], default="a")
    return ap


def _emit(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _reports_payload(reports, summary):
    return json.dumps(
        {"reports": [r.to_json() for r in reports], "summary": summary},
        indent=1, sort_keys=True,
    )


def _select(records, args):
    """The records that --table, --row and --sub let through."""
    return [
        r for r in records
        if (args.table is None or r.table == args.table)
        and (args.row is None or r.row == args.row)
        and (args.sub is None or r.sub == args.sub)
    ]


def cmd_list(args):
    from .tables import load_db

    records = _select(load_db(args.db), args)
    lines = []
    for r in records:
        lines.append(f"{r.id:10s} {r.shapes['G']:28s} = {r.shapes['H']} . {r.shapes['K']}")
    _emit(args, "\n".join(lines) if lines else "(no rows match)")
    return 0


def cmd_show(args):
    from .tables import DERIVED_DOC, load_db

    records = _select(load_db(args.db), args)
    if not records:
        print("no rows match", file=sys.stderr)
        return 2
    blocks = []
    for r in records:
        lines = [
            f"record   {r.id}  ({r.family})",
            f"  G0     {r.shapes['G']}",
            f"  H0     {r.shapes['H']}",
            f"  K0     {r.shapes['K']}",
            f"  H0^K0  {r.shapes['int']}",
        ]
        if r.params:
            spec = ", ".join(
                p["n"] + ("" if "fixed" not in p else f"={p['fixed']}")
                + (" (prime power)" if p.get("pp") else "")
                + (" even" if p.get("even") else "")
                + (" odd" if p.get("odd") else "")
                + (f" >= {p['min']}" if "min" in p else "")
                + (f" = {p['expr']}" if "expr" in p else "")
                for p in r.params
            )
            lines.append(f"  params {spec}")
        if r.where:
            lines.append(f"  where  {' and '.join(f'({w})' for w in r.where)}")
        for name, kind in r.derived.items():
            lines.append(f"  {name}      {DERIVED_DOC[kind]}")
        if r.ref:
            lines.append(f"  ref    {r.ref}")
        if r.remarks:
            lines.append(f"  note   {r.remarks}")
        if r.tier_b:
            lines.append(f"  tier-b bindings {r.tier_b['bindings']} route {r.tier_b['route']}")
        blocks.append("\n".join(lines))
    _emit(args, "\n\n".join(blocks))
    return 0


def _parse_bindings(pairs):
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise FactorLabError(f"--bind expects SYM=VAL, got {pair!r}")
        k, v = pair.split("=", 1)
        out[k.strip()] = int(v)
    return out


def cmd_verify(args):
    from .tables import admissible_bindings, load_db
    from .verify import summarize, tier_b_cases, verify_tier_a, verify_tier_b

    records = _select(load_db(args.db), args)
    if not records:
        print("no rows match", file=sys.stderr)
        return 2
    try:
        bound = _parse_bindings(args.bind)
    except (FactorLabError, ValueError) as e:
        print(str(e), file=sys.stderr)
        return 2
    caps = _caps_from(args)
    reports = []
    for rec in records:
        if args.tier == "b":
            cases = [c for c in tier_b_cases([rec])
                     if all(c.bindings.get(k) == v for k, v in bound.items())]
            for case in cases:
                reports.append(verify_tier_b(case, caps=caps))
        else:
            cases = [c for c in admissible_bindings(rec, caps["max_order"])
                     if all(c.bindings.get(k) == v for k, v in bound.items())]
            for case in cases:
                reports.append(verify_tier_a(case))
    if not reports:
        print("no admissible case matches the bindings", file=sys.stderr)
        return 2
    summary = summarize(reports)
    _render(args, reports, summary)
    return 1 if summary["fail"] else 0


def _render(args, reports, summary):
    from .verify import summary_line

    if args.format == "json":
        _emit(args, _reports_payload(reports, summary))
    else:
        lines = []
        for r in reports:
            fields = " ".join(f"{k}={v}" for k, v in sorted(r.computed.items()))
            extra = f" [{r.detail}]" if r.detail else ""
            lines.append(f"{r.status:18s} {r.case_id:42s} {fields}{extra} ({r.elapsed_ms} ms)")
        lines.append(summary_line(summary))
        _emit(args, "\n".join(lines))


def cmd_sweep(args):
    from .tables import load_db
    from .verify import sweep

    records = _select(load_db(args.db), args)
    reports, summary = sweep(records, tier=args.tier, caps=_caps_from(args))
    _render(args, reports, summary)
    return 1 if summary["fail"] else 0


def cmd_export_db(args):
    from .tables import export_db

    _emit(args, export_db(args.db))
    return 0


def _check_space(p, e, cap):
    """Refuse the p^e - 1 nonzero vectors of a genfile's space when they
    exceed cap, before its field is built: FieldSpec tests p for primality by
    trial division, about 1.5e9 steps for p = 2^61 - 1.  With p >= 2 the
    loop stops within log2(cap + 2) steps.  The size is named exactly, as
    nonzero_vectors names it, when it has at most 13000 bits (str() of an
    int stops at 4300 digits)."""
    size = 1
    for _ in range(e):
        size *= p
        if size - 1 > cap:
            size = p ** e - 1 if e * p.bit_length() <= 13000 else f"{p}^{e} - 1"
            raise DomainOverflow(f"domain size {size} exceeds cap {cap}")


def _load_genfile(path, max_domain):
    with open(path) as fh:
        try:
            doc = json.load(fh)
            p, f, n = doc["field"]["p"], doc["field"]["f"], doc["n"]
            if type(n) is not int or n < 1:
                raise UsageError(f"{path}: the generators are not {n!r} x {n!r} matrices")
            if type(p) is int and type(f) is int and p >= 2:  # FieldSpec refuses the rest
                _check_space(p, f * n, max_domain)
            field = FieldSpec.deserialize(doc["field"])
            gens = [GroupElem.deserialize(field, g) for g in doc["gens"]]
        except (ValueError, KeyError, TypeError, IndexError, DimensionMismatch) as e:
            # json.JSONDecodeError is a ValueError
            raise UsageError(f"{path}: not a generator file ({type(e).__name__}: {e})") from None
    if any(g.n != n for g in gens):
        raise UsageError(f"{path}: the generators are not {n!r} x {n!r} matrices")
    for k, g in enumerate(gens):
        if g.mat.det() == 0:
            raise UsageError(f"{path}: generator {k} is singular")
    return field, n, gens


def cmd_check_triple(args):
    caps = _caps_from(args)
    fG, nG, gG = _load_genfile(args.genfileG, caps["max_domain"])
    fH, nH, gH = _load_genfile(args.genfileH, caps["max_domain"])
    fK, nK, gK = _load_genfile(args.genfileK, caps["max_domain"])
    if not (fG == fH == fK) or not (nG == nH == nK):
        raise FieldMismatch("the three generator files must share a field and dimension")
    frame = SpaceFrame(fG, nG, None)
    dom = nonzero_vectors(frame, caps["max_domain"])
    chainG = bsgs(gG, dom)
    for g in gH + gK:
        if not chainG.contains(dom.perm_of(g)):
            raise NotSubgroup("H and K generators must sift into G")
    # only G's order is needed from here on; freeing its chain keeps it out
    # of the peak, which the chains of H and K and the enumeration set (on
    # the Sp_6(3) triple 1.13 MiB traced against 1.56 MiB when kept)
    order_g = chainG.order()
    del chainG
    chainH = bsgs(gH, dom)
    chainK = bsgs(gK, dom)
    n_int = len(enumerate_and_sift(chainH, chainK, caps["max_enum"]))
    holds = chainH.order() * chainK.order() == order_g * n_int
    payload = {
        "orderG": str(order_g),
        "orderH": str(chainH.order()),
        "orderK": str(chainK.order()),
        "orderInt": str(n_int),
        "factorization": holds,
    }
    if args.format == "json":
        _emit(args, json.dumps(payload, indent=1, sort_keys=True))
    else:
        _emit(args, "\n".join(f"{k} = {v}" for k, v in payload.items()))
    return 0 if holds else 1


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    handlers = {
        "list": cmd_list,
        "show": cmd_show,
        "verify": cmd_verify,
        "sweep": cmd_sweep,
        "export-db": cmd_export_db,
        "check-triple": cmd_check_triple,
    }
    try:
        return handlers[args.command](args)
    except FactorLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
