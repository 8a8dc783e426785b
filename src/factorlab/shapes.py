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

All separators evaluate multiplicatively; '/k' divides exactly or raises.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    IllegalParameters,
    NonIntegralQuotient,
    ShapeSyntaxError,
    UnboundSymbol,
    UnknownFamily,
)
from .gf import is_prime_power, split_prime_power

# -- arithmetic expressions -------------------------------------------------
# nodes: ('int', v) ('var', name) ('add'|'sub'|'mul'|'div'|'mod'|'pow'|'gcd', l, r)


def arith_eval(node, bindings):
    op = node[0]
    if op == "int":
        return node[1]
    if op == "var":
        try:
            return bindings[node[1]]
        except KeyError:
            raise UnboundSymbol(f"unbound symbol {node[1]!r}") from None
    l = arith_eval(node[1], bindings)
    r = arith_eval(node[2], bindings)
    if op == "add":
        return l + r
    if op == "sub":
        return l - r
    if op == "mul":
        return l * r
    if op == "div":
        if r == 0 or l % r:
            raise NonIntegralQuotient(f"{l}/{r} is not an integer")
        return l // r
    if op == "mod":
        return l % r
    if op == "pow":
        if r < 0:
            raise NonIntegralQuotient(f"negative exponent {r}")
        return l ** r
    if op == "gcd":
        return math.gcd(l, r)
    raise ValueError(f"bad arith node {node!r}")


def arith_symbols(node, out=None):
    if out is None:
        out = set()
    if node[0] == "var":
        out.add(node[1])
    elif node[0] != "int":
        arith_symbols(node[1], out)
        arith_symbols(node[2], out)
    return out


_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "mod": 2, "pow": 3}
_OPSTR = {"add": "+", "sub": "-", "mul": "*", "div": "/", "mod": "%", "pow": "^"}


def arith_print(node, parent_prec=0, right=False):
    op = node[0]
    if op == "int":
        return str(node[1])
    if op == "var":
        return node[1]
    if op == "gcd":
        return f"gcd({arith_print(node[1])},{arith_print(node[2])})"
    prec = _PREC[op]
    l = arith_print(node[1], prec, False)
    r = arith_print(node[2], prec, True)
    s = f"{l}{_OPSTR[op]}{r}"
    # left-assoc operators need parens when appearing as a right child of the
    # same precedence; pow is right-assoc
    need = prec < parent_prec or (prec == parent_prec and (right != (op == "pow")))
    return f"({s})" if need else s


# -- shape AST ---------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    name: str
    args: tuple
    primed: bool = False


@dataclass(frozen=True)
class PowerAtom:
    base: tuple  # arith node, int or 'q'
    expo: tuple  # arith node


@dataclass(frozen=True)
class Bracket:
    arith: tuple


@dataclass(frozen=True)
class Named:
    name: str


@dataclass(frozen=True)
class IntAtom:
    value: int


@dataclass(frozen=True)
class Group:
    expr: "Quot"


@dataclass(frozen=True)
class Term:
    atoms: tuple
    seps: tuple  # len(atoms) - 1 entries from {':', '.'}


@dataclass(frozen=True)
class Prod:
    terms: tuple


@dataclass(frozen=True)
class Quot:
    prod: Prod
    div: int | None = None


ShapeExpr = Quot

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
    r"\s*(?:(?P<int>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<sym>[][()^:.,*/%'+-]))"
)


def _tokenize(s):
    tokens = []
    pos = 0
    while pos < len(s):
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


class _Parser:
    def __init__(self, s):
        self.src = s
        self.tokens = _tokenize(s)
        self.i = 0

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
                f"expected {value or kind}, found {t[1]!r}", t[2], (value or kind,)
            )
        return t

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
            if t[1] == "gcd":
                self.expect("sym", "(")
                l = self.arith()
                self.expect("sym", ",")
                r = self.arith()
                self.expect("sym", ")")
                return ("gcd", l, r)
            return ("var", t[1])
        if t[:2] == ("sym", "("):
            node = self.arith()
            self.expect("sym", ")")
            return node
        raise ShapeSyntaxError(f"expected arithmetic, found {t[1]!r}", t[2], ("int", "var", "("))

    # shapes ---------------------------------------------------------------

    def expr(self):
        prod = self.prod()
        div = None
        if self.peek()[:2] == ("sym", "/"):
            self.next()
            div = self.expect("int")[1]
        return Quot(prod, div)

    def prod(self):
        terms = [self.term()]
        while self.peek()[:2] == ("name", "x"):
            self.next()
            terms.append(self.term())
        return Prod(tuple(terms))

    def term(self):
        atoms = [self.atom()]
        seps = []
        while self.peek()[:2] in (("sym", ":"), ("sym", ".")):
            seps.append(self.next()[1])
            atoms.append(self.atom())
        return Term(tuple(atoms), tuple(seps))

    def atom(self):
        t = self.peek()
        if t[0] == "int":
            self.next()
            if self.peek()[:2] == ("sym", "^"):
                self.next()
                return PowerAtom(("int", t[1]), self.expo())
            return IntAtom(t[1])
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
                return Family(name, tuple(args), primed)
            if name == "q" or (len(name) <= 2 and name.islower()):
                self.next()
                if self.peek()[:2] != ("sym", "^"):
                    raise ShapeSyntaxError(
                        f"bare symbol {name!r} is not a shape atom", t[2], ("^",)
                    )
                self.next()
                return PowerAtom(("var", name), self.expo())
            if _NAMED_RE.match(name) or name in NAMED_ORDERS:
                self.next()
                return Named(name)
            raise UnknownFamily(f"unknown family or named group {name!r}")
        if t[:2] == ("sym", "["):
            self.next()
            node = self.arith()
            self.expect("sym", "]")
            return Bracket(node)
        if t[:2] == ("sym", "("):
            self.next()
            node = self.expr()
            self.expect("sym", ")")
            return Group(node)
        raise ShapeSyntaxError(f"unexpected token {t[1]!r}", t[2])

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
        raise ShapeSyntaxError(f"bad exponent at {t[1]!r}", t[2], ("int", "var", "("))


def parse_shape(s: str) -> ShapeExpr:
    p = _Parser(s)
    node = p.expr()
    t = p.peek()
    if t[0] != "eof":
        raise ShapeSyntaxError(f"trailing input {t[1]!r}", t[2])
    return node


def print_shape(node) -> str:
    if isinstance(node, Quot):
        s = print_shape(node.prod)
        return s if node.div is None else f"{s}/{node.div}"
    if isinstance(node, Prod):
        return " x ".join(print_shape(t) for t in node.terms)
    if isinstance(node, Term):
        out = [print_shape(node.atoms[0])]
        for sep, atom in zip(node.seps, node.atoms[1:]):
            out.append(sep)
            out.append(print_shape(atom))
        return "".join(out)
    if isinstance(node, Family):
        args = ",".join(arith_print(a) for a in node.args)
        return f"{node.name}({args})" + ("'" if node.primed else "")
    if isinstance(node, PowerAtom):
        expo = node.expo
        if expo[0] in ("int", "var"):
            e = arith_print(expo)
        else:
            e = f"({arith_print(expo)})"
        return f"{arith_print(node.base)}^{e}"
    if isinstance(node, Bracket):
        return f"[{arith_print(node.arith)}]"
    if isinstance(node, Named):
        return node.name
    if isinstance(node, IntAtom):
        return str(node.value)
    if isinstance(node, Group):
        return f"({print_shape(node.expr)})"
    raise TypeError(f"not a shape node: {node!r}")


def shape_symbols(node, out=None):
    if out is None:
        out = set()
    if isinstance(node, Quot):
        shape_symbols(node.prod, out)
    elif isinstance(node, Prod):
        for t in node.terms:
            shape_symbols(t, out)
    elif isinstance(node, Term):
        for a in node.atoms:
            shape_symbols(a, out)
    elif isinstance(node, Family):
        for a in node.args:
            arith_symbols(a, out)
    elif isinstance(node, PowerAtom):
        arith_symbols(node.base, out)
        arith_symbols(node.expo, out)
    elif isinstance(node, Bracket):
        arith_symbols(node.arith, out)
    elif isinstance(node, Group):
        shape_symbols(node.expr, out)
    return out


# -- orders -----------------------------------------------------------------


def _prod(iterable):
    acc = 1
    for x in iterable:
        acc *= x
    return acc


def _field_exponent(q):
    p, f = split_prime_power(q)
    return p, f


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
    p, f = _field_exponent(q)
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
        sl = gl // (q - 1) if n >= 1 else 1
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
    if name in ("OOdd", "GOOdd", "OmegaOdd", "GammaOOdd", "SOOdd", "Spin"):
        go = _go_odd_order(n, q)
        if name in ("OOdd", "GOOdd"):
            return go
        if name == "GammaOOdd":
            return f * go
        if name == "SOOdd":
            return go // math.gcd(2, q - 1)
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
    """Exact order of a shape under the given symbol bindings."""
    if isinstance(node, str):
        node = parse_shape(node)
    if isinstance(node, Quot):
        o = order_of(node.prod, bindings)
        if node.div is not None:
            if o % node.div:
                raise NonIntegralQuotient(f"order {o} not divisible by {node.div}")
            o //= node.div
        return o
    if isinstance(node, Prod):
        return _prod(order_of(t, bindings) for t in node.terms)
    if isinstance(node, Term):
        return _prod(order_of(a, bindings) for a in node.atoms)
    if isinstance(node, Family):
        args = tuple(arith_eval(a, bindings) for a in node.args)
        return classical_order(node.name, *args, primed=node.primed)
    if isinstance(node, PowerAtom):
        base = arith_eval(node.base, bindings)
        expo = arith_eval(node.expo, bindings)
        if expo < 0:
            raise NonIntegralQuotient(f"negative exponent {expo}")
        return base ** expo
    if isinstance(node, Bracket):
        v = arith_eval(node.arith, bindings)
        if v < 1:
            raise NonIntegralQuotient(f"bracket order {v} < 1")
        return v
    if isinstance(node, Named):
        return named_order(node.name)
    if isinstance(node, IntAtom):
        return node.value
    if isinstance(node, Group):
        return order_of(node.expr, bindings)
    raise TypeError(f"not a shape node: {node!r}")


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
    import random as _random

    if n % 2 == 0:
        return 2
    rng = _random.Random(n)
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
    for d in range(1, k):
        if k % d:
            continue
        g = math.gcd(n, a ** d - 1)
        while g > 1:
            n //= g
            g = math.gcd(n, g)
    # strip any remaining common factor with smaller a^j - 1 (j | k suffices,
    # but keep the loop total for clarity of the contract)
    for j in range(1, k):
        g = math.gcd(n, a ** j - 1)
        while g > 1:
            n //= g
            g = math.gcd(n, g)
    if n == 1:
        return frozenset()
    return frozenset(factorize(n))
