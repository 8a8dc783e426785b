"""Timing spans around factorlab's public functions, installed from outside
the package.

`install` replaces each target function with a wrapper that records one span:
its name, start, end and the span that was open when it began (its parent).
The wrapper is put on the defining module and on every factorlab module that
bound the same function by name (`verify` imports `bsgs`, `orbit` and the
domain constructors that way), so calls through either path are seen.
Functions imported inside a function body (`ordered_vector_pairs` in
`verify`) are looked up at call time and pick up the wrapper too.

Spans live in flat arrays, because the TIER-B sweep opens about 1.5 million
of them.  A span's self time is its duration minus the durations of its
direct children; every `_s` layer metric below is a self time, except the
two verify metrics, which are inclusive.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter

PACKAGE_MODULES = ("gf", "linalg", "shapes", "tables", "perm", "construct", "verify", "cli")

# the recipe builders verify and the benchmark call
CONSTRUCT_BUILDERS = (
    "gens_classical", "classical_frame", "sp_in_su", "su_in_omega",
    "ext_field_subgroup", "pm_residual", "parabolic_p1_sp_residual",
    "blowup_elem", "frobenius_elem", "twisted_frobenius",
)
DOMAIN_BUILDERS = (
    "nonzero_vectors", "norm_level_set", "singular_vectors",
    "refined_antiflags", "form_orbit", "ordered_vector_pairs",
)

_EMPTY_ROW = {"calls": 0, "top_calls": 0, "self_s": 0.0, "total_s": 0.0, "max_s": 0.0}


class Tracer:
    """Span store plus counters taken from the traced functions' results."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self._open = [-1]

    def _nid(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name, fn, on_return=None):
        """Wrap fn so that each call records a span called name.

        on_return(tracer, span_index, args, result) runs after the span closes.
        """
        nid = self._nid(name)
        name_id, parent, start, end, open_ = (
            self.name_id, self.parent, self.start, self.end, self._open)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(open_[-1])
            end.append(0.0)
            open_.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                open_.pop()
            if on_return is not None:
                on_return(tracer, i, args, result)
            return result

        return wrapper

    def counting(self, counter, gen_fn):
        """Wrap a generator function so that counter counts the items it yields."""
        counts = self.counts

        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                counts[counter] += 1
                yield item

        return wrapper

    def parent_name(self, i):
        p = self.parent[i]
        return None if p < 0 else self.names[self.name_id[p]]

    def summary(self):
        """Per span name: calls, top-level calls (those whose parent span has
        another name), self seconds, inclusive seconds and the longest span."""
        n = len(self.start)
        dur = array("d", (self.end[i] - self.start[i] for i in range(n)))
        child = array("d", bytes(8 * n))
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: dict(_EMPTY_ROW) for name in self.names}
        name_id = self.name_id
        for i in range(n):
            nid = name_id[i]
            row = out[self.names[nid]]
            row["calls"] += 1
            p = parent[i]
            if p < 0 or name_id[p] != nid:
                row["top_calls"] += 1
            row["self_s"] += dur[i] - child[i]
            row["total_s"] += dur[i]
            if dur[i] > row["max_s"]:
                row["max_s"] = dur[i]
        return out


# -- counters fed from results ------------------------------------------------


def _count_bindings(tracer, i, args, cases):
    tracer.counts["bindings"] += len(cases)


def _count_prime_power_hit(tracer, i, args, is_pp):
    tracer.counts["prime_power_hits"] += bool(is_pp)


def _count_domain_points(tracer, i, args, dom):
    # singular_vectors builds its domain through norm_level_set: count once
    if tracer.parent_name(i) != "perm.domain":
        tracer.counts["domain_points"] += dom.size


def _count_chain(tracer, i, args, _):
    chain = args[0]
    tracer.counts["base_len"] += len(chain.levels)
    # every strong generator is recorded on level 0 and on some deeper levels
    tracer.counts["strong_gens"] += len(chain.levels[0].gens) if chain.levels else 0


def _count_sift_hit(tracer, i, args, member):
    tracer.counts["sift_hits"] += bool(member)


# (module, attribute, span name, on_return); "Class.method" patches a method
TARGETS = (
    ("tables", "load_db", "tables.load_db", None),
    ("tables", "admissible_bindings", "tables.enum", _count_bindings),
    ("tables", "eval_constraint", "tables.eval_constraint", None),
    ("shapes", "order_of", "shapes.order_of", None),
    ("gf", "is_prime_power", "gf.is_prime_power", _count_prime_power_hit),
    ("linalg", "GroupElem.act", "linalg.act", None),
    *(("construct", f, "construct.build", None) for f in CONSTRUCT_BUILDERS),
    *(("perm", f, "perm.domain", _count_domain_points) for f in DOMAIN_BUILDERS),
    ("perm", "Domain.perm_of", "perm.perm_of", None),
    ("perm", "orbit", "perm.orbit", None),
    ("perm", "solvable_residual", "perm.residual", None),
    ("perm", "bsgs", "perm.bsgs", None),
    ("perm", "StabChain.__init__", "perm.stabchain", _count_chain),
    ("perm", "StabChain.contains", "perm.sift", _count_sift_hit),
    ("perm", "enumerate_and_sift", "perm.enumerate_sift", None),
    ("verify", "verify_tier_a", "verify.tier_a_case", None),
    ("verify", "verify_tier_b", "verify.tier_b_case", None),
    ("cli", "main", "cli.main", None),
)


def install(tracer):
    """Import every factorlab module and wrap the TARGETS."""
    mods = {m: importlib.import_module(f"factorlab.{m}") for m in PACKAGE_MODULES}
    for mod, attr, name, on_return in TARGETS:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mods[mod], cls_name)
            setattr(cls, meth, tracer.span(name, vars(cls)[meth], on_return))
            continue
        orig = getattr(mods[mod], attr)
        wrapped = tracer.span(name, orig, on_return)
        for m in mods.values():
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)
    StabChain = mods["perm"].StabChain
    StabChain.elements = tracer.counting("elements", StabChain.elements)


# -- layer metrics ----------------------------------------------------------------

# name -> (unit, better); perfbench/README.md says what each measures and
# which end-to-end metric and workload it should move.  run.py computes
# trace.overhead_s, layer_metrics the rest.
LAYER_METRICS = {
    "tables.load_db_s": ("s", "lower"),
    "tables.enum_s": ("s", "lower"),
    "tables.bindings": ("count", "lower"),
    "tables.eval_constraint_calls": ("count", "lower"),
    "tables.eval_constraint_s": ("s", "lower"),
    "shapes.order_of_calls": ("count", "lower"),
    "shapes.order_of_s": ("s", "lower"),
    "gf.is_prime_power_calls": ("count", "lower"),
    "gf.is_prime_power_hits": ("count", "lower"),
    "gf.is_prime_power_s": ("s", "lower"),
    "linalg.act_calls": ("count", "lower"),
    "linalg.act_s": ("s", "lower"),
    "construct.build_s": ("s", "lower"),
    "perm.domain_build_s": ("s", "lower"),
    "perm.domain_points": ("count", "lower"),
    "perm.perm_of_calls": ("count", "lower"),
    "perm.perm_of_s": ("s", "lower"),
    "perm.orbit_s": ("s", "lower"),
    "perm.residual_s": ("s", "lower"),
    "perm.stabchain_s": ("s", "lower"),
    "perm.stabchain_builds": ("count", "lower"),
    "perm.base_len": ("count", "lower"),
    "perm.strong_gens": ("count", "lower"),
    "perm.sift_calls": ("count", "lower"),
    "perm.sift_hit_ratio": ("ratio", "higher"),
    "perm.sift_s": ("s", "lower"),
    "perm.elements_enumerated": ("count", "lower"),
    "verify.tier_a_case_s": ("s", "lower"),
    "verify.tier_b_case_max_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(tracer):
    """Values of LAYER_METRICS for one traced process."""
    spans = tracer.summary()

    def s(name, key="self_s"):
        return spans.get(name, _EMPTY_ROW)[key]

    c = tracer.counts
    sift_calls = s("perm.sift", "calls")
    return {
        "tables.load_db_s": s("tables.load_db"),
        "tables.enum_s": s("tables.enum"),
        "tables.bindings": c["bindings"],
        "tables.eval_constraint_calls": s("tables.eval_constraint", "calls"),
        "tables.eval_constraint_s": s("tables.eval_constraint"),
        "shapes.order_of_calls": s("shapes.order_of", "top_calls"),
        "shapes.order_of_s": s("shapes.order_of"),
        "gf.is_prime_power_calls": s("gf.is_prime_power", "calls"),
        "gf.is_prime_power_hits": c["prime_power_hits"],
        "gf.is_prime_power_s": s("gf.is_prime_power"),
        "linalg.act_calls": s("linalg.act", "calls"),
        "linalg.act_s": s("linalg.act"),
        "construct.build_s": s("construct.build"),
        "perm.domain_build_s": s("perm.domain"),
        "perm.domain_points": c["domain_points"],
        "perm.perm_of_calls": s("perm.perm_of", "calls"),
        "perm.perm_of_s": s("perm.perm_of"),
        "perm.orbit_s": s("perm.orbit"),
        "perm.residual_s": s("perm.residual"),
        "perm.stabchain_s": s("perm.bsgs") + s("perm.stabchain"),
        "perm.stabchain_builds": s("perm.stabchain", "calls"),
        "perm.base_len": c["base_len"],
        "perm.strong_gens": c["strong_gens"],
        "perm.sift_calls": sift_calls,
        "perm.sift_hit_ratio": c["sift_hits"] / sift_calls if sift_calls else 0.0,
        "perm.sift_s": s("perm.sift") + s("perm.enumerate_sift"),
        "perm.elements_enumerated": c["elements"],
        "verify.tier_a_case_s": s("verify.tier_a_case", "total_s"),
        "verify.tier_b_case_max_s": s("verify.tier_b_case", "max_s"),
        "cli.self_s": s("cli.main"),
    }
