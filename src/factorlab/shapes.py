"""ATLAS-style group-structure strings: parser, printer, exact order evaluator.

The ASCII grammar (subscripts become parenthesized arguments, x is direct
product, : and . are extensions, [..] is a group of the bracketed order,
pairs (u,v) denote gcd and become gcd(u,v); a FAMILY is a key of FAMILIES
and takes as many arguments as its row):

    expr   := prod ('/' INT)?
    prod   := term ('x' term)*
    term   := atom ((':' | '.') atom)*
    atom   := FAMILY '(' arith [',' arith] ')' ['\\''] | base '^' expo
            | '[' arith ']' | NAMED | INT | '(' expr ')'
    base   := INT | 'q'
    expo   := INT | VAR | '(' arith ')'
    arith  := integer arithmetic over bindings with + - * / ^ % and gcd(u,v)

`parse_condition` reads a database `where` constraint or parameter `expr`:
arith plus Python's or, and, not, chained comparisons, unary minus (-2^2 is
-4) and the calls odd(u), even(u), gcd(u,v), min(u,v), max(u,v).

Shapes, constraints and expressions parse to one node format, tuples that
`arith_eval` evaluates, `arith_print` prints and `arith_symbols` walks.  A
shape's order is its value: the separators multiply, '/k' is the exact
division ('div', e, ('int', k)) and q^e the power ('pow', b, e), each of
which raises NonIntegralQuotient where it is not an integer.
"""

from __future__ import annotations

import math
import operator
import random
import re
from functools import lru_cache

from .errors import (
    IllegalParameters,
    NonIntegralQuotient,
    ShapeSyntaxError,
    UnboundSymbol,
    UnknownFamily,
)
from .gf import is_prime_power, split_prime_power

# -- nodes ----------------------------------------------------------------------
# arithmetic: ('int', v) ('var', name) ('add'|'sub'|'mul'|'div'|'mod'|'pow'|'gcd', l, r);
# conditions add ('and'|'or'|'min'|'max'|comparison, l, r) and (op in _UNARY, u);
# shapes add (':'|'.'|'x', l, r), ('paren', e), ('bracket', u), ('named', name)
# and ('family', name, primed, *args)


def _bracket(v):
    if v < 1:
        raise NonIntegralQuotient(f"bracket order {v} < 1")
    return v


_UNARY = {"neg": operator.neg, "not": operator.not_,
          "odd": lambda v: v % 2 == 1, "even": lambda v: v % 2 == 0,
          "paren": lambda v: v, "bracket": _bracket}
_COMPARE = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
           "mod": operator.mod, "gcd": math.gcd, "min": min, "max": max, **_COMPARE,
           ":": operator.mul, ".": operator.mul, "x": operator.mul}


def arith_eval(node, bindings):
    op = node[0]
    if op == "int":
        return node[1]
    if op == "var":
        try:
            return bindings[node[1]]
        except KeyError:
            raise UnboundSymbol(f"unbound symbol {node[1]!r}") from None
    if op == "family":
        _, name, primed, *args = node
        return classical_order(name, *(arith_eval(a, bindings) for a in args), primed=primed)
    if op == "named":
        return named_order(node[1])
    # and, or stop once the result is known
    if op == "and":
        return bool(arith_eval(node[1], bindings)) and bool(arith_eval(node[2], bindings))
    if op == "or":
        return bool(arith_eval(node[1], bindings)) or bool(arith_eval(node[2], bindings))
    if len(node) == 2:
        return _UNARY[op](arith_eval(node[1], bindings))
    l = arith_eval(node[1], bindings)
    r = arith_eval(node[2], bindings)
    if op == "div":
        if r == 0 or l % r:
            raise NonIntegralQuotient(f"{l}/{r} is not an integer")
        return l // r
    if op == "pow":
        if r < 0:
            raise NonIntegralQuotient(f"negative exponent {r}")
        return l ** r
    return _BINARY[op](l, r)


def arith_symbols(node, out=None):
    if out is None:
        out = set()
    if node[0] == "var":
        out.add(node[1])
    for child in node[1:]:
        if type(child) is tuple:
            arith_symbols(child, out)
    return out


# 'x' shares the level of '/', so A x B/2 reads and prints as (A x B)/2
_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "mod": 2, "x": 2, ":": 3, ".": 3, "pow": 4}
_OPSTR = {"add": "+", "sub": "-", "mul": "*", "div": "/", "mod": "%", "pow": "^",
          "x": " x ", ":": ":", ".": "."}


def arith_print(node, parent_prec=0, right=False):
    """A node as the grammar reads it back; a compound exponent is always
    parenthesized (q^(m^2), not q^m^2)."""
    op = node[0]
    if op == "int":
        return str(node[1])
    if op in ("var", "named"):
        return node[1]
    if op == "gcd":
        return f"gcd({arith_print(node[1])},{arith_print(node[2])})"
    if op == "family":
        _, name, primed, *args = node
        return f"{name}({','.join(map(arith_print, args))})" + ("'" if primed else "")
    if op == "paren":
        return f"({arith_print(node[1])})"
    if op == "bracket":
        return f"[{arith_print(node[1])}]"
    prec = _PREC[op]
    l = arith_print(node[1], prec, False)
    if op == "pow" and node[2][0] not in ("int", "var"):
        r = f"({arith_print(node[2])})"
    else:
        r = arith_print(node[2], prec, True)
    s = f"{l}{_OPSTR[op]}{r}"
    # left-assoc operators need parens when appearing as a right child of the
    # same precedence; pow is right-assoc
    need = prec < parent_prec or (prec == parent_prec and (right != (op == "pow")))
    return f"({s})" if need else s


# -- shapes ---------------------------------------------------------------------

NAMED_ORDERS = {
    "Q8": 8,
    "M10": 720,
    "M11": 7920,
    "M12": 95040,
    "M22": 443520,
    "J2": 604800,
    "J3": 50232960,
    "Suz": 448345497600,
    "Co1": 4157776806543360000,
    "Co3": 495766656000,
}

_NAMED_RE = re.compile(r"^(A|S|D)([0-9]+)$")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<sym>[<>=!]=|[][()^:.,*/%'+<>-]))"
)


def _tokenize(s):
    tokens = []
    pos = 0
    stop = len(s.rstrip())
    while pos < stop:
        m = _TOKEN_RE.match(s, pos)
        if not m or m.end() == m.start():
            raise ShapeSyntaxError(f"bad character {s[pos]!r}", pos)
        if m.group("int"):
            tokens.append(("int", int(m.group("int")), m.start()))
        elif m.group("name"):
            name = m.group("name")
            end = m.end()
            # family names may carry a trailing sign: Omega+( ... )
            if end < len(s) and s[end] in "+-" and (name + s[end]) in FAMILIES:
                name += s[end]
                end = m.end() + 1
                tokens.append(("name", name, m.start()))
                pos = end
                continue
            tokens.append(("name", name, m.start()))
        else:
            tokens.append(("sym", m.group("sym"), m.start()))
        pos = m.end()
    return tokens


def _shown(t):
    """A token as a parse error names it."""
    return "end of input" if t[0] == "eof" else repr(t[1])


class _Parser:
    def __init__(self, s, condition=False):
        self.src = s
        self.tokens = _tokenize(s)
        self.i = 0
        self.condition = condition  # read the levels parse_condition adds

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else ("eof", None, len(self.src))

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, kind, value=None):
        t = self.next()
        if t[0] != kind or (value is not None and t[1] != value):
            raise ShapeSyntaxError(
                f"expected {value or kind}, found {_shown(t)}", t[2], (value or kind,)
            )
        return t

    def whole(self, rule):
        node = rule(self)
        t = self.peek()
        if t[0] != "eof":
            raise ShapeSyntaxError(f"trailing input {_shown(t)}", t[2])
        return node

    # conditions -----------------------------------------------------------

    def disjunction(self):
        node = self.conjunction()
        while self.peek()[:2] == ("name", "or"):
            self.next()
            node = ("or", node, self.conjunction())
        return node

    def conjunction(self):
        node = self.negation()
        while self.peek()[:2] == ("name", "and"):
            self.next()
            node = ("and", node, self.negation())
        return node

    def negation(self):
        if self.peek()[:2] == ("name", "not"):
            self.next()
            return ("not", self.negation())
        return self.comparison()

    def comparison(self):
        # a < b <= c is (a < b) and (b <= c), as Python chains it
        left = self.arith()
        node = None
        while self.peek()[0] == "sym" and self.peek()[1] in _COMPARE:
            op = self.next()[1]
            right = self.arith()
            link = (op, left, right)
            node = link if node is None else ("and", node, link)
            left = right
        return left if node is None else node

    def inner(self):
        """A parenthesized or call argument: a whole condition in a condition."""
        return self.disjunction() if self.condition else self.arith()

    def call(self, name):
        self.expect("sym", "(")
        node = (name, self.inner())
        if name not in _UNARY:
            self.expect("sym", ",")
            node += (self.inner(),)
        self.expect("sym", ")")
        return node

    # arithmetic ----------------------------------------------------------

    def arith(self):
        node = self.arith_term()
        while self.peek()[:2] in (("sym", "+"), ("sym", "-")):
            op = self.next()[1]
            rhs = self.arith_term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def arith_term(self):
        node = self.arith_pow()
        while self.peek()[:2] in (("sym", "*"), ("sym", "/"), ("sym", "%")):
            op = self.next()[1]
            rhs = self.arith_pow()
            node = ({"*": "mul", "/": "div", "%": "mod"}[op], node, rhs)
        return node

    def arith_pow(self):
        # unary minus binds looser than ^, as in Python: -2^2 is -4, 2^-1 reads
        if self.condition and self.peek()[:2] == ("sym", "-"):
            self.next()
            return ("neg", self.arith_pow())
        node = self.arith_atom()
        if self.peek()[:2] == ("sym", "^"):
            self.next()
            return ("pow", node, self.arith_pow())
        return node

    def arith_atom(self):
        t = self.next()
        if t[0] == "int":
            return ("int", t[1])
        if t[0] == "name":
            if t[1] == "gcd" or (self.condition and t[1] in ("min", "max", "odd", "even")):
                return self.call(t[1])
            return ("var", t[1])
        if t[:2] == ("sym", "("):
            node = self.inner()
            self.expect("sym", ")")
            return node
        raise ShapeSyntaxError(f"expected arithmetic, found {_shown(t)}", t[2], ("int", "var", "("))

    # shapes ---------------------------------------------------------------

    def expr(self):
        node = self.prod()
        if self.peek()[:2] == ("sym", "/"):
            self.next()
            node = ("div", node, ("int", self.expect("int")[1]))
        return node

    def prod(self):
        node = self.term()
        while self.peek()[:2] == ("name", "x"):
            self.next()
            node = ("x", node, self.term())
        return node

    def term(self):
        node = self.atom()
        while self.peek()[:2] in (("sym", ":"), ("sym", ".")):
            node = (self.next()[1], node, self.atom())
        return node

    def atom(self):
        t = self.peek()
        if t[0] == "int":
            self.next()
            if self.peek()[:2] == ("sym", "^"):
                self.next()
                return ("pow", ("int", t[1]), self.expo())
            return ("int", t[1])
        if t[0] == "name":
            name = t[1]
            if name in FAMILIES:
                self.next()
                self.expect("sym", "(")
                args = [self.arith()]
                while self.peek()[:2] == ("sym", ","):
                    self.next()
                    args.append(self.arith())
                self.expect("sym", ")")
                arity = 2 if name in _BY_N_Q else 1
                if len(args) != arity:
                    raise ShapeSyntaxError(
                        f"{name} takes {arity} argument(s), found {len(args)}", t[2])
                primed = False
                if self.peek()[:2] == ("sym", "'"):
                    prime = self.next()
                    if name not in _PRIMED_FAMILIES:
                        only = ", ".join(sorted(_PRIMED_FAMILIES))
                        raise ShapeSyntaxError(
                            f"no PRIMED row defines {name}'; only {only} take a '", prime[2])
                    primed = True
                return ("family", name, primed, *args)
            if name == "q" or (len(name) <= 2 and name.islower()):
                self.next()
                if self.peek()[:2] != ("sym", "^"):
                    raise ShapeSyntaxError(
                        f"bare symbol {name!r} is not a shape atom", t[2], ("^",)
                    )
                self.next()
                return ("pow", ("var", name), self.expo())
            if _NAMED_RE.match(name) or name in NAMED_ORDERS:
                self.next()
                return ("named", name)
            raise UnknownFamily(f"unknown family or named group {name!r}")
        if t[:2] == ("sym", "["):
            self.next()
            node = self.arith()
            self.expect("sym", "]")
            return ("bracket", node)
        if t[:2] == ("sym", "("):
            self.next()
            node = self.expr()
            self.expect("sym", ")")
            return ("paren", node)
        raise ShapeSyntaxError(f"unexpected {_shown(t)}", t[2])

    def expo(self):
        t = self.peek()
        if t[0] == "int":
            self.next()
            return ("int", t[1])
        if t[0] == "name" and t[1] != "gcd":
            self.next()
            return ("var", t[1])
        if t[:2] == ("sym", "("):
            self.next()
            node = self.arith()
            self.expect("sym", ")")
            return node
        raise ShapeSyntaxError(f"bad exponent at {_shown(t)}", t[2], ("int", "var", "("))


def parse_shape(s: str) -> tuple:
    return _Parser(s).whole(_Parser.expr)


print_shape = arith_print


def parse_condition(s: str) -> tuple:
    """A `where` constraint or a parameter `expr` as an arith node."""
    return _Parser(s, condition=True).whole(_Parser.disjunction)


# -- orders -----------------------------------------------------------------
# One row per family name, after Kleidman and Liebeck, The Subgroup Structure
# of the Finite Classical Groups (1990), Table 2.1.C.  The five bases are
# cached; a row over (n, q) is lambda n, q, f with q = p^f, a row over q alone
# is lambda q.


@lru_cache(maxsize=None)
def _gl(n, q):
    return q ** (n * (n - 1) // 2) * math.prod(q ** i - 1 for i in range(1, n + 1))


@lru_cache(maxsize=None)
def _gu(n, q):
    return q ** (n * (n - 1) // 2) * math.prod(q ** i - (-1) ** i for i in range(1, n + 1))


@lru_cache(maxsize=None)
def _sp(n, q):
    if n % 2:
        raise IllegalParameters(f"Sp needs even dimension, got {n}")
    m = n // 2
    return q ** (m * m) * math.prod(q ** (2 * i) - 1 for i in range(1, m + 1))


@lru_cache(maxsize=None)
def _go_odd(n, q):
    """The isometry group of a nondegenerate quadratic form, odd n >= 3."""
    if n < 3 or n % 2 == 0:
        raise IllegalParameters(f"an odd orthogonal family needs odd n >= 3, got {n}")
    m = (n - 1) // 2
    return math.gcd(2, q - 1) * q ** (m * m) * math.prod(q ** (2 * i) - 1 for i in range(1, m + 1))


@lru_cache(maxsize=None)
def _o(n, q, eps):
    """O^eps(n, q), the isometry group of a quadratic form of type eps, even n >= 2."""
    if n < 2 or n % 2:
        raise IllegalParameters(f"O^eps needs even n >= 2, got {n}")
    m = n // 2
    return 2 * q ** (m * (m - 1)) * (q ** m - eps) * math.prod(q ** (2 * i) - 1
                                                              for i in range(1, m))


def _orthogonal_rows(sign, eps):
    """The rows of the even-dimensional orthogonal families of type eps."""
    return {
        f"O{sign}": lambda n, q, f: _o(n, q, eps),
        f"GO{sign}": lambda n, q, f: _o(n, q, eps),
        f"SO{sign}": lambda n, q, f: _o(n, q, eps) // math.gcd(2, q - 1),
        f"GammaO{sign}": lambda n, q, f: f * _o(n, q, eps),
        f"Omega{sign}": lambda n, q, f: _o(n, q, eps) // (2 * math.gcd(2, q - 1)),
        # |Z(Omega)| = (4, q^(n/2) - eps) / (2, q - 1)
        f"POmega{sign}": lambda n, q, f: _o(n, q, eps) // (2 * math.gcd(4, q ** (n // 2) - eps)),
    }


_BY_N_Q = {
    "GL": lambda n, q, f: _gl(n, q),
    "SL": lambda n, q, f: _gl(n, q) // (q - 1),
    "PGL": lambda n, q, f: _gl(n, q) // (q - 1),
    "PSL": lambda n, q, f: _gl(n, q) // (q - 1) // math.gcd(n, q - 1),
    "GammaL": lambda n, q, f: f * _gl(n, q),
    "SigmaL": lambda n, q, f: f * _gl(n, q) // (q - 1),
    "PGaL": lambda n, q, f: f * _gl(n, q) // (q - 1),
    "PSigmaL": lambda n, q, f: f * _gl(n, q) // (q - 1) // math.gcd(n, q - 1),
    "GU": lambda n, q, f: _gu(n, q),
    "SU": lambda n, q, f: _gu(n, q) // (q + 1),
    "PGU": lambda n, q, f: _gu(n, q) // (q + 1),
    "PSU": lambda n, q, f: _gu(n, q) // (q + 1) // math.gcd(n, q + 1),
    "GammaU": lambda n, q, f: 2 * f * _gu(n, q),
    "Sp": lambda n, q, f: _sp(n, q),
    "PSp": lambda n, q, f: _sp(n, q) // math.gcd(2, q - 1),
    "GammaSp": lambda n, q, f: f * _sp(n, q),
    "OOdd": lambda n, q, f: _go_odd(n, q),
    "GOOdd": lambda n, q, f: _go_odd(n, q),
    "GammaOOdd": lambda n, q, f: f * _go_odd(n, q),
    "OmegaOdd": lambda n, q, f: _go_odd(n, q) // math.gcd(2, q - 1) ** 2,
    "Spin": lambda n, q, f: _go_odd(n, q) // math.gcd(2, q - 1),
    **_orthogonal_rows("+", 1),
    **_orthogonal_rows("-", -1),
    "AGL": lambda n, q, f: q ** n * _gl(n, q),
    "ASL": lambda n, q, f: q ** n * _gl(n, q) // (q - 1),
    "AGaL": lambda n, q, f: q ** n * f * _gl(n, q),
}

_BY_Q = {
    "G2": lambda q: q ** 6 * (q ** 6 - 1) * (q ** 2 - 1),
    "GammaG2": lambda q: split_prime_power(q)[1] * classical_order("G2", q),
    "TwoG2": lambda q: q ** 3 * (q ** 3 + 1) * (q - 1),
    "F4": lambda q: q ** 24 * (q ** 12 - 1) * (q ** 8 - 1) * (q ** 6 - 1) * (q ** 2 - 1),
    "Sz": lambda q: q ** 2 * (q ** 2 + 1) * (q - 1),
}

# no field: D(n) is the dihedral group of ORDER n (ATLAS style); A and S
# are written A5 and S6, as named groups, and are no family of the grammar
_BY_DEGREE = {"D": lambda n: n, "A": lambda n: max(math.factorial(n) // 2, 1),
              "S": math.factorial}

# the family names of the grammar
FAMILIES = {**_BY_N_Q, **_BY_Q, "D": _BY_DEGREE["D"]}

# the proper derived subgroups among the rows: (name, *args) -> index
PRIMED = {("SL", 2, 2): 2, ("SL", 2, 3): 3, ("Sp", 2, 2): 2, ("Sp", 2, 3): 3,
          ("Sp", 4, 2): 2, ("G2", 2): 2, ("TwoG2", 3): 3, ("Sz", 2): 4}

# the families a shape may prime; a ' on any other is a syntax error, since
# its derived subgroup may be proper where no row says so (GL(3,3)')
_PRIMED_FAMILIES = {name for name, *_ in PRIMED}


def classical_order(family: str, *args, primed: bool = False) -> int:
    """Exact order of a family at its arguments; primed, of its derived
    subgroup, which is proper only at the PRIMED entries."""
    if family in _BY_DEGREE:
        order = _BY_DEGREE[family](*args)
    elif family in FAMILIES:
        # a row over (n, q) tests q twice, by is_prime_power here and by
        # split_prime_power below, both the names imported from gf, whose
        # is_prime_power perfbench/tracing.py counts.  Merging the two tests
        # is ROADMAP item 4; it waits for item 3, since a faster TIER A reads
        # as a larger peak RSS.
        q = args[-1]
        if not is_prime_power(q):
            raise IllegalParameters(f"{q} is not a prime power")
        if family in _BY_Q:
            order = _BY_Q[family](*args)
        else:
            n, q = args
            if n < 0:
                raise IllegalParameters(f"negative dimension {n}")
            # an orthogonal base raises below its least dimension; every
            # other family is the trivial group on the zero space
            order = _BY_N_Q[family](n, q, split_prime_power(q)[1])
            if n == 0:
                order = 1
    else:
        raise UnknownFamily(f"no order formula for family {family!r}")
    return order // PRIMED.get((family, *args), 1) if primed else order


def named_order(name: str) -> int:
    m = _NAMED_RE.match(name)
    if m:
        return classical_order(m.group(1), int(m.group(2)))
    try:
        return NAMED_ORDERS[name]
    except KeyError:
        raise UnknownFamily(f"unknown named group {name!r}") from None


def order_of(node, bindings) -> int:
    """Exact order of a shape, parsed or as a string, under the given bindings."""
    if isinstance(node, str):
        node = parse_shape(node)
    return arith_eval(node, bindings)


# -- primitive prime divisors ------------------------------------------------


def _miller_rabin(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of the composite n: Brent's variant, which takes
    one gcd per batch of steps and retraces a batch step by step when the
    batch's product hits n."""
    if n % 2 == 0:
        return 2
    rng = random.Random(n)
    while True:
        c = rng.randrange(1, n)
        y = rng.randrange(2, n)
        d = r = acc = 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and d == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    acc = acc * abs(x - y) % n
                d = math.gcd(acc, n)
                k += _RHO_BATCH
            r *= 2
        if d == n:
            d = 1
            while d == 1:
                ys = (ys * ys + c) % n
                d = math.gcd(abs(x - ys), n)
        if d != n:
            return d


_RHO_BATCH = 64


def factorize(n: int) -> dict:
    """Prime factorization by trial division plus Pollard rho."""
    factors = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    d = 17
    while d * d <= n and d < 1000:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _miller_rabin(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.extend([d, m // d])
    return factors


def ppd(a: int, k: int) -> frozenset:
    """Primitive prime divisors of a^k - 1, with the convention ppd(63) = {7}."""
    if a < 2 or k < 2:
        raise IllegalParameters("ppd needs a >= 2 and k >= 2")
    if (a, k) == (2, 6):
        return frozenset({7})
    n = a ** k - 1
    # a prime dividing a^k - 1 and a^j - 1 (j < k) divides a^gcd(j,k) - 1,
    # so stripping the proper divisors d of k strips every j
    for d in range(1, k):
        if k % d:
            continue
        g = math.gcd(n, a ** d - 1)
        while g > 1:
            n //= g
            g = math.gcd(n, g)
    if n == 1:
        return frozenset()
    return frozenset(factorize(n))
