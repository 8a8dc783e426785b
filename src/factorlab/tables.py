"""The machine-readable database of classification-table rows: loader with a
manifest check, constraint evaluation, and enumeration of admissible bindings
(including the derived exponents c and d and their branch conventions).
Shapes, constraints and parameter expressions are parsed at load, each
distinct string once, by the grammar of `shapes`; a field that cannot be
read is named in the error.
"""

from __future__ import annotations

import itertools
import json
import math
import os

from .errors import DEFAULT_CAPS, FactorLabError, ManifestMismatch, NonIntegralQuotient
from .gf import is_prime_power
from .shapes import arith_eval, arith_symbols, order_of, parse_condition, parse_shape

DEFAULT_ORDER_CAP = DEFAULT_CAPS["max_order"]

_DB_ENV = "FACTORLAB_DB"


class FactorizationRecord:
    """One table row as load_db reads it."""

    def __init__(self, id, table, row, sub, family, shapes, asts, params, where,
                 where_asts, expr_asts, derived, ref, tier_b, remarks):
        self.id = id
        self.table = table
        self.row = row
        self.sub = sub                  # str or None
        self.family = family
        self.shapes = shapes            # raw strings for G, H, K, int
        self.asts = asts                # parsed shapes
        self.params = params
        self.where = where              # raw constraint strings
        self.where_asts = where_asts    # parsed constraints
        self.expr_asts = expr_asts      # (param name, parsed expr) pairs
        self.derived = derived
        self.ref = ref
        self.tier_b = tier_b            # dict or None
        self.remarks = remarks

    def shape(self, key):
        return self.asts[key]


class ConcreteCase:
    """A record at one binding; orders, when known, maps G, H, K and int to
    their exact orders."""

    def __init__(self, record, bindings, orders=None):
        self.record = record
        self.bindings = bindings
        self.orders = {} if orders is None else orders

    @property
    def id(self):
        binding_str = ",".join(f"{k}={v}" for k, v in sorted(self.bindings.items()))
        return f"{self.record.id}[{binding_str}]" if binding_str else self.record.id


def default_db_path():
    env = os.environ.get(_DB_ENV)
    if env:
        return env
    return os.path.join(os.path.dirname(__file__), "data", "tables_db.json")


def load_db(path=None):
    """Load and manifest-check the DB; returns the record list.  Each distinct
    string is parsed once, and records that repeat it share its node."""
    path = path or default_db_path()
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as e:  # not JSON, or not UTF-8
            raise FactorLabError(f"{path}: not a JSON file: {e}") from None
    if not (type(doc) is dict and type(doc.get("records")) is list
            and type(doc.get("manifest", {})) is dict):
        raise FactorLabError(f"{path}: needs an object with a records array "
                             "and a manifest object")
    records = []
    seen = set()
    parsed = {}
    for raw in doc["records"]:
        rec = _parse_record(raw, parsed)
        if rec.id in seen:
            raise ManifestMismatch(f"duplicate record id {rec.id}")
        seen.add(rec.id)
        records.append(rec)
    man = doc.get("manifest", {})
    if man.get("records") != len(records):
        raise ManifestMismatch(
            f"manifest count {man.get('records')} != {len(records)} records")
    per_table = {str(t): sum(1 for r in records if r.table == t) for t in range(1, 10)}
    if man.get("per_table") != per_table:
        raise ManifestMismatch("per-table record counts differ from the manifest")
    refs = sorted({r.ref for r in records if r.ref})
    if man.get("refs") != refs:
        raise ManifestMismatch("reference-label set differs from the manifest")
    return records


_JSON_TYPES = {int: "an integer", str: "a string", bool: "a boolean", list: "an array",
               dict: "an object"}
_PARAM_TYPES = {"min": int, "fixed": int, "pp": bool, "even": bool, "odd": bool, "expr": str}


def _parse_record(raw, parsed):
    """One record, checked against docs/tables_db.schema.json, its shapes,
    constraints and parameter expressions parsed through the memo `parsed`.
    A field of the wrong JSON type, a field that does not parse, a shape,
    constraint or expression over an undeclared symbol, a param with no
    values and an unknown derived kind each raise a FactorLabError that
    starts with the record id and field."""
    rid = raw.get("id") if type(raw) is dict else None
    if type(rid) is not str:
        raise FactorLabError(f"record {rid!r}: needs a string id")

    def check(label, value, kind, optional=False):
        # json.load gives exact types, and true is not an integer
        if type(value) is not kind and not (optional and value is None):
            raise FactorLabError(f"{rid} {label}: needs {_JSON_TYPES[kind]}")
        return value

    for key, kind in (("table", int), ("row", int), ("family", str)):
        check(key, raw.get(key), kind)
    shapes = check("shapes", raw.get("shapes"), dict)
    for key in ("G", "H", "K", "int", *shapes):
        check(f"shapes.{key}", shapes.get(key), str)
    params = check("params", raw.get("params", []), list)
    where = check("where", raw.get("where", []), list)
    derived = check("derived", raw.get("derived", {}), dict)
    for key in ("sub", "ref", "remarks"):
        check(key, raw.get(key), str, optional=True)
    for i, p in enumerate(params):
        check(f"params[{i}]", p, dict)
        check(f"params[{i}].n", p.get("n"), str)
        for key, value in p.items():
            if key in _PARAM_TYPES:
                check(f"params[{i}].{key}", value, _PARAM_TYPES[key])
        if not ("fixed" in p or p.get("pp") or "min" in p or "expr" in p):
            raise FactorLabError(f"{rid} params[{i}]: needs one of fixed, pp, min or expr")
    for i, w in enumerate(where):
        check(f"where[{i}]", w, str)
    for name, kind in derived.items():
        if check(f"derived.{name}", kind, str) not in DERIVED_DOC:
            raise FactorLabError(f"{rid} derived.{name}: unknown derived kind {kind!r}")
    tier_b = check("tier_b", raw.get("tier_b"), dict, optional=True)
    if tier_b is not None:
        check("tier_b.route", tier_b.get("route"), str)
        for i, b in enumerate(check("tier_b.bindings", tier_b.get("bindings"), list)):
            check(f"tier_b.bindings[{i}]", b, dict)
        # a recipe is [kind, *args]; ambient may be left out, and so may K
        # off the sift route, the one that reads it
        required = ("H", "domain", "K") if tier_b["route"] == "sift" else ("H", "domain")
        for key in ("H", "domain", "K", "ambient"):
            if key in required or key in tier_b:
                recipe = check(f"tier_b.{key}", tier_b.get(key), list)
                check(f"tier_b.{key}[0]", recipe[0] if recipe else None, str)
        if "residual_int" in tier_b:
            check("tier_b.residual_int", tier_b["residual_int"], int)
    names = {p["n"] for p in params} | set(derived)

    def parse(label, parser, text):
        try:
            if (parser, text) not in parsed:
                node = parser(text)
                parsed[parser, text] = node, arith_symbols(node)
            node, symbols = parsed[parser, text]
            unknown = symbols - names
            if unknown:
                raise FactorLabError(f"unknown symbol {min(unknown)!r}")
            return node
        except FactorLabError as e:
            raise FactorLabError(f"{rid} {label}: {e}") from None

    return FactorizationRecord(
        id=rid, table=raw["table"], row=raw["row"], sub=raw.get("sub"),
        family=raw["family"], shapes=shapes,
        asts={k: parse(f"shapes.{k}", parse_shape, s) for k, s in shapes.items()},
        params=params, where=where,
        where_asts=tuple(parse(f"where[{i}]", parse_condition, w) for i, w in enumerate(where)),
        expr_asts=tuple((p["n"], parse(f"params[{i}].expr", parse_condition, p["expr"]))
                        for i, p in enumerate(params) if "expr" in p),
        derived=derived, ref=raw.get("ref", ""),
        tier_b=raw.get("tier_b"), remarks=raw.get("remarks", ""),
    )


def export_db(path=None):
    with open(path or default_db_path()) as fh:
        return fh.read()


# -- constraint evaluation ----------------------------------------------------


def eval_constraint(cond, bindings: dict) -> bool:
    """Evaluate a constraint, parsed or as a string; division is exact and an
    inexact division makes the whole constraint False."""
    if isinstance(cond, str):
        cond = parse_condition(cond)
    try:
        return bool(arith_eval(cond, bindings))
    except NonIntegralQuotient:
        return False


# -- derived-symbol machinery --------------------------------------------------

DERIVED_DOC = {
    "linear_c": "c = ab - b, except c = 2 at (q,a,b) = (2,4,1)",
    "sp_d": "d = 2ab - b, except d = 2 at (a,b,q) = (1,3,2)",
    "two_part_b": "b2 = the 2-part of b",
    "unitary_cI": "c = (2|I|-1)a^2 b if (b+1)/2 in I else 2|I| a^2 b, over "
                  "nonempty I in {1..ceil(b/2)} with gcd(2I-1, b) = 1",
    "unitary_cI_a6": "as unitary_cI with a = 6",
    "plus_cIE:1": "c = log_q|E| + ((2|I|-1)a^2 b/2 if b/2 in I else |I| a^2 b), "
                  "E in {0, full wedge part}, I in {1..floor(b/2)} with gcd(I, b) = 1",
    "plus_cIE:2": "as plus_cIE:1 with gcd(I, b) = 2 (b even)",
    "plus_cIE_a6:1": "as plus_cIE:1 with a = 6",
    "plus_cIE_a6:2": "as plus_cIE:2 with a = 6",
    "sp_cE_full_I": "c = ba(a+1)/2 + ((2|I|-1)a^2 b/2 if b/2 in I else |I| a^2 b), "
                    "I free in {1..floor(b/2)}",
    "sp_cE_full_I_a6": "as sp_cE_full_I with a = 6",
    "sp_cIE_prop:1": "c = log_q|E| + dim of the I-part, E in {0, wedge part}, "
                     "gcd(I, b) = 1",
    "sp_cIE_prop:2": "as sp_cIE_prop:1 with gcd(I, b) = 2 (b even)",
    "sp_cIE_prop_a6:1": "as sp_cIE_prop:1 with a = 6",
    "sp_cIE_prop_a6:2": "as sp_cIE_prop:2 with a = 6",
}


def two_part(b):
    out = 1
    while b % 2 == 0:
        out *= 2
        b //= 2
    return out


def _unitary_c_values(a, b):
    """Eq-(4.4)-style exponents: I in {1..ceil(b/2)}, nonempty,
    gcd(2I-1, b) = 1; c = (2|I|-1) a^2 b or 2|I| a^2 b."""
    out = []
    ceil_half = (b + 1) // 2
    special = (b + 1) // 2 if b % 2 else None  # i with 2i-1 = b requires b odd
    for k in range(1, ceil_half + 1):
        for I in itertools.combinations(range(1, ceil_half + 1), k):
            if math.gcd(*[2 * i - 1 for i in I], b) != 1:
                continue
            has_special = b % 2 == 1 and special in I
            c = (2 * k - 1) * a * a * b if has_special else 2 * k * a * a * b
            if c not in out:
                out.append(c)
    return out


def _sp_c_values(a, b, g=None, full_radical=True):
    """Eq-(7.4)- and Eq-(8.2)-style exponents.  full_radical: E is the whole
    symmetric part and I is free; otherwise E in {0, wedge part} and
    gcd(I, b) = g."""
    out = []
    half = b // 2
    if full_radical:
        e_options = [b * a * (a + 1) // 2]
    else:
        e_options = [0, b * a * (a - 1) // 2]
    for k in range(0, half + 1):
        for I in itertools.combinations(range(1, half + 1), k):
            if not full_radical:
                got = math.gcd(*I, b) if I else b
                if got != g:
                    continue
            if b % 2 == 0 and b // 2 in I:
                dim = (2 * k - 1) * a * a * b // 2
            else:
                dim = k * a * a * b
            for e in e_options:
                c = e + dim
                if c not in out:
                    out.append(c)
    return sorted(out)


def _derived_expansions(record, base):
    """List of dicts of derived symbols for one base binding.  A kind may
    carry an "_a6" suffix (a = 6 in place of the bound a) and a ":g" suffix
    (the required gcd of I and b); load_db admits only DERIVED_DOC's kinds."""
    singles = {}
    c_lists = None
    for name, kind in record.derived.items():
        head, _, g = kind.partition(":")
        stem = head.removesuffix("_a6")
        a = 6 if stem != head else base.get("a")
        if kind == "linear_c":
            b, q = base["b"], base["q"]
            singles[name] = 2 if (q, a, b) == (2, 4, 1) else a * b - b
        elif kind == "sp_d":
            b, q = base["b"], base["q"]
            singles[name] = 2 if (a, b, q) == (1, 3, 2) else 2 * a * b - b
        elif kind == "two_part_b":
            singles[name] = two_part(base["b"])
        elif stem == "unitary_cI":
            c_lists = _unitary_c_values(a, base["b"])
        elif stem == "sp_cE_full_I":
            c_lists = _sp_c_values(a, base["b"], full_radical=True)
        else:  # plus_cIE or sp_cIE_prop, with ":g"
            c_lists = _sp_c_values(a, base["b"], g=int(g), full_radical=False)
    if c_lists is None:
        return [singles]
    return [{**singles, "c": c} for c in c_lists]


# -- binding enumeration --------------------------------------------------------


def _prime_powers(limit=2 ** 40):
    q = 2
    while q <= limit:
        if is_prime_power(q):
            yield q
        q += 1


def _param_values(p):
    if "fixed" in p:
        yield p["fixed"]
        return
    if p.get("pp"):
        for q in _prime_powers():
            if p.get("even") and q % 2:
                continue
            if p.get("odd") and q % 2 == 0:
                continue
            if q < p.get("min", 2):
                continue
            yield q
        return
    v = p["min"]
    step = 2 if (p.get("even") or p.get("odd")) else 1
    while True:
        yield v
        v += step


def _min_value(p):
    if "fixed" in p:
        return p["fixed"]
    if p.get("pp"):
        if p.get("odd"):
            return max(3, p.get("min", 2))
        return p.get("min", 2)
    return p["min"]


def iter_admissible_bindings(record, cap=DEFAULT_ORDER_CAP):
    """Yield bindings satisfying the record's constraints with |G0| <= cap,
    in deterministic order (ascending parameters); derived structural
    parameters are expanded over their legal ranges."""
    if cap is None:
        cap = math.inf
    params = record.params
    g_shape = record.shape("G")
    exprs = dict(record.expr_asts)
    wheres = [(w, arith_symbols(w)) for w in record.where_asts]

    def complete_min(partial, start):
        filled = dict(partial)
        for p in params[start:]:
            filled[p["n"]] = arith_eval(exprs[p["n"]], filled) if "expr" in p else _min_value(p)
        return filled

    def g_order(bnd):
        return order_of(g_shape, bnd)

    def rec_enum(i, partial):
        if i == len(params):
            yield from finalize(dict(partial))
            return
        p = params[i]
        if "expr" in p:
            partial[p["n"]] = arith_eval(exprs[p["n"]], partial)
            yield from rec_enum(i + 1, partial)
            del partial[p["n"]]
            return
        for v in _param_values(p):
            partial[p["n"]] = v
            if g_order(complete_min(partial, i + 1)) > cap:
                del partial[p["n"]]
                break
            # constraints already decidable from the bound prefix prune the
            # deeper loops (otherwise a dead branch scans prime powers up to
            # the order cap)
            bound = set(partial)
            if all(eval_constraint(w, partial)
                   for w, syms in wheres if syms <= bound):
                yield from rec_enum(i + 1, partial)
        partial.pop(p["n"], None)

    def finalize(base):
        if g_order(base) > cap:
            return
        for extra in _derived_expansions(record, base):
            bnd = {**base, **extra}
            if not all(eval_constraint(w, bnd) for w in record.where_asts):
                continue
            try:
                orders = {
                    "G": order_of(record.shape("G"), bnd),
                    "H": order_of(record.shape("H"), bnd),
                    "K": order_of(record.shape("K"), bnd),
                    "int": order_of(record.shape("int"), bnd),
                }
            except NonIntegralQuotient:
                continue
            if orders["G"] > cap:
                continue
            yield ConcreteCase(record, bnd, orders)

    yield from rec_enum(0, {})


def admissible_bindings(record, cap=DEFAULT_ORDER_CAP):
    return list(iter_admissible_bindings(record, cap))
