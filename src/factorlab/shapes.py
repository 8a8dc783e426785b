"""ATLAS-style group-structure strings: parser, printer, exact order evaluator.

The ASCII grammar (subscripts become parenthesized arguments, x is direct
product, : and . are extensions, [..] is a group of the bracketed order,
pairs (u,v) denote gcd and become gcd(u,v)):

    expr   := prod ('/' INT)?
    prod   := term ('x' term)*
    term   := atom ((':' | '.') atom)*
    atom   := FAMILY '(' arith {',' arith} ')' ['\\''] | base '^' expo
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

FAMILIES = {
    "SL", "GL", "PSL", "PGL", "SigmaL", "GammaL", "PGaL", "PSigmaL",
    "SU", "GU", "PSU", "PGU", "GammaU",
    "Sp", "PSp", "GammaSp",
    "O+", "O-", "OOdd", "GO+", "GO-", "GOOdd", "SO+", "SO-",
    "Omega+", "Omega-", "OmegaOdd", "POmega+", "POmega-",
    "GammaO+", "GammaO-", "GammaOOdd",
    "Spin",
    "G2", "GammaG2", "TwoG2", "F4", "Sz",
    "AGL", "ASL", "AGaL",
    "D",
}

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
                primed = False
                if self.peek()[:2] == ("sym", "'"):
                    self.next()
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


def _prod(iterable):
    acc = 1
    for x in iterable:
        acc *= x
    return acc


@lru_cache(maxsize=None)
def _gl_order(n, q):
    return q ** (n * (n - 1) // 2) * _prod(q ** i - 1 for i in range(1, n + 1))


@lru_cache(maxsize=None)
def _gu_order(n, q):
    return q ** (n * (n - 1) // 2) * _prod(q ** i - (-1) ** i for i in range(1, n + 1))


@lru_cache(maxsize=None)
def _sp_order(n, q):
    if n % 2:
        raise IllegalParameters(f"Sp needs even dimension, got {n}")
    m = n // 2
    return q ** (m * m) * _prod(q ** (2 * i) - 1 for i in range(1, m + 1))


@lru_cache(maxsize=None)
def _go_odd_order(n, q):
    # full isometry group of a nondegenerate quadratic form, odd dimension
    if n % 2 == 0:
        raise IllegalParameters(f"odd-dimensional family needs odd n, got {n}")
    m = (n - 1) // 2
    return math.gcd(2, q - 1) * q ** (m * m) * _prod(q ** (2 * i) - 1 for i in range(1, m + 1))


@lru_cache(maxsize=None)
def _o_order(n, q, eps):
    if n % 2:
        raise IllegalParameters(f"O^eps needs even dimension, got {n}")
    m = n // 2
    return (
        2
        * q ** (m * (m - 1))
        * (q ** m - eps)
        * _prod(q ** (2 * i) - 1 for i in range(1, m))
    )


def _omega_order(n, q, eps):
    return _o_order(n, q, eps) // (2 * math.gcd(2, q - 1))


def _check_pp(q):
    if not is_prime_power(q):
        raise IllegalParameters(f"{q} is not a prime power")
    return q


def classical_order(family: str, *args, primed: bool = False) -> int:
    """Exact order of a (possibly decorated) classical or exceptional family."""
    name = family
    if name in ("A", "S", "D"):
        (n,) = args
        if name == "A":
            return max(math.factorial(n) // 2, 1)
        if name == "S":
            return math.factorial(n)
        return n  # ATLAS-style dihedral D_n of ORDER n
    if name in ("G2", "TwoG2", "F4", "Sz", "GammaG2"):
        (q,) = args
        _check_pp(q)
        if name == "GammaG2":
            _, f = split_prime_power(q)
            return f * classical_order("G2", q)
        if name == "G2":
            base = q ** 6 * (q ** 6 - 1) * (q ** 2 - 1)
            if primed and q == 2:
                return base // 2
            return base
        if name == "TwoG2":
            base = q ** 3 * (q ** 3 + 1) * (q - 1)
            if primed and q == 3:
                return base // 3
            return base
        if name == "F4":
            return (
                q ** 24 * (q ** 12 - 1) * (q ** 8 - 1) * (q ** 6 - 1) * (q ** 2 - 1)
            )
        base = q ** 2 * (q ** 2 + 1) * (q - 1)
        if primed and q == 2:
            return base // 4
        return base
    n, q = args
    _check_pp(q)
    if n < 0:
        raise IllegalParameters(f"negative dimension {n}")
    _, f = split_prime_power(q)
    if name in ("SL", "PSL", "GL", "PGL", "SigmaL", "GammaL", "PGaL", "PSigmaL"):
        if n == 0:
            return 1
        gl = _gl_order(n, q)
        if name == "GL":
            return gl
        if name == "GammaL":
            return f * gl
        if name == "PGL":
            return gl // (q - 1)
        if name == "PGaL":
            return f * gl // (q - 1)
        sl = gl // (q - 1)
        if name == "SL" or name == "SigmaL" or name == "PSigmaL":
            if primed and name == "SL":
                if (n, q) == (2, 2):
                    return sl // 2
                if (n, q) == (2, 3):
                    return sl // 3
            if name == "SigmaL":
                return f * sl
            if name == "PSigmaL":
                return f * sl // math.gcd(n, q - 1)
            return sl
        return sl // math.gcd(n, q - 1)  # PSL
    if name in ("SU", "PSU", "GU", "PGU", "GammaU"):
        if n == 0:
            return 1
        gu = _gu_order(n, q)
        if name == "GU":
            return gu
        if name == "GammaU":
            return 2 * f * gu
        su = gu // (q + 1)
        if name == "SU":
            return su
        if name == "PGU":
            return gu // (q + 1)
        return su // math.gcd(n, q + 1)  # PSU
    if name in ("Sp", "PSp", "GammaSp"):
        if n == 0:
            return 1
        sp = _sp_order(n, q)
        if name == "GammaSp":
            return f * sp
        if name == "PSp":
            return sp // math.gcd(2, q - 1)
        if primed:
            if (n, q) in ((2, 2), (4, 2)):
                return sp // 2
            if (n, q) == (2, 3):
                return sp // 3
        return sp
    if name in ("OOdd", "GOOdd", "OmegaOdd", "GammaOOdd", "Spin"):
        go = _go_odd_order(n, q)
        if name in ("OOdd", "GOOdd"):
            return go
        if name == "GammaOOdd":
            return f * go
        omega = go // math.gcd(2, q - 1) ** 2 if q % 2 else go
        if name == "Spin":
            return math.gcd(2, q - 1) * omega
        return omega  # OmegaOdd
    if name[-1] in "+-" and name[:-1] in ("O", "GO", "SO", "Omega", "POmega", "GammaO"):
        eps = 1 if name[-1] == "+" else -1
        base = name[:-1]
        o = _o_order(n, q, eps)
        if base in ("O", "GO"):
            return o
        if base == "GammaO":
            return f * o
        if base == "SO":
            return o // 2 if q % 2 else o
        omega = _omega_order(n, q, eps)
        if base == "Omega":
            return omega
        # POmega
        m = n // 2
        if q % 2 and (q ** m - eps) % 4 == 0:
            return omega // 2
        return omega
    if name in ("AGL", "ASL", "AGaL"):
        gl = _gl_order(n, q)
        if name == "AGL":
            return q ** n * gl
        if name == "ASL":
            return q ** n * gl // (q - 1)
        return q ** n * f * gl
    raise UnknownFamily(f"no order formula for family {family!r}")


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
