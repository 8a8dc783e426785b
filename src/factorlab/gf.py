"""Exact arithmetic in GF(p^f) with compatible subfield towers.

Elements of GF(p^f) are plain ints in [0, p^f): the base-p digits of the
int are the coefficients of the residue polynomial, lowest degree first.
For p = 2 the packed int coincides with the usual bit representation, so
addition is XOR.  Each field lazily builds discrete-log tables (all our
fields are tiny), after which mul/inv/pow are table lookups; for odd p it
also builds q x q addition and q-length negation tables on first use.
"""

from __future__ import annotations

from .errors import DivisionByZero, NoSuchConstant, NotASubfield

# largest odd-characteristic field whose addition is a q x q table
ADD_TABLE_MAX_Q = 256


def is_prime_power(n: int) -> bool:
    p = _smallest_prime_factor(n)
    if p is None:
        return False
    while n % p == 0:
        n //= p
    return n == 1


def _smallest_prime_factor(n):
    if n < 2:
        return None
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def split_prime_power(n: int):
    """Return (p, f) with n = p^f, or raise ValueError."""
    p = _smallest_prime_factor(n)
    if p is None:
        raise ValueError(f"{n} is not a prime power")
    f = 0
    m = n
    while m % p == 0:
        m //= p
        f += 1
    if m != 1:
        raise ValueError(f"{n} is not a prime power")
    return p, f


# -- polynomial helpers over GF(p); polys are int tuples, low degree first --

def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mulmod(a, b, mod, p):
    # schoolbook multiply then reduce by the monic modulus
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    res[i + j] = (res[i + j] + ai * bj) % p
    deg = len(mod) - 1
    for i in range(len(res) - 1, deg - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(deg):
                res[i - deg + j] = (res[i - deg + j] - c * mod[j]) % p
    return res[:deg] + [0] * (deg - len(res)) if len(res) < deg else res[:deg]


def _poly_eval(coeffs, x, field):
    acc = 0
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), c % field.p)
    return acc


class FieldSpec:
    """A finite field GF(p^f), content-addressed by (p, f, modulus)."""

    _cache: dict = {}

    def __init__(self, p: int, f: int, modulus=None):
        if type(p) is not int or type(f) is not int:
            raise ValueError(f"p={p!r} and f={f!r} must be integers")
        if _smallest_prime_factor(p) != p:
            raise ValueError(f"p={p} is not prime")
        if f < 1:
            raise ValueError("f must be positive")
        self.p = p
        self.f = f
        self.q = p ** f
        if modulus is None:
            modulus = _find_irreducible(p, f)
        modulus = tuple(modulus)
        if len(modulus) != f + 1 or any(type(c) is not int or not 0 <= c < p for c in modulus):
            raise ValueError(f"modulus {list(modulus)} is not f + 1 = {f + 1} integers "
                             f"in range({p})")
        if modulus[f] != 1:
            raise ValueError("modulus must be monic of degree f")
        if not _is_irreducible(modulus, p):
            raise ValueError("modulus is not irreducible")
        self.modulus = modulus
        self.zero = 0
        self.one = 1
        self._exp = None
        self._log = None
        self._add = None        # odd p: add/neg tables, built on first use
        self._neg = None
        self._half_add = {}     # odd p: h -> addition table of h-digit vector codes
        self._subfields = {}  # sub.key -> (FieldSpec, embed list, restrict dict)

    @property
    def key(self):
        return (self.p, self.f, self.modulus)

    @classmethod
    def get(cls, q: int) -> "FieldSpec":
        """The canonical GF(q) (lexicographically least modulus)."""
        if q not in cls._cache:
            p, f = split_prime_power(q)
            cls._cache[q] = cls(p, f)
        return cls._cache[q]

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"GF({self.p}^{self.f})" if self.f > 1 else f"GF({self.p})"

    def elements(self):
        return range(self.q)

    # -- digit packing ---------------------------------------------------

    def digits(self, x):
        p = self.p
        return tuple((x // p ** i) % p for i in range(self.f))

    def from_digits(self, digits):
        p = self.p
        acc = 0
        for c in reversed(digits):
            acc = acc * p + (c % p)
        return acc

    # -- arithmetic ------------------------------------------------------

    def add(self, x, y):
        if self.p == 2:
            return x ^ y
        if self._add is None:
            self._build_add_tables()
        return self._add[x][y] if self._add else self._add_digits(x, y)

    def neg(self, x):
        if self.p == 2:
            return x
        if self._add is None:
            self._build_add_tables()
        return self._neg[x] if self._add else self._neg_digits(x)

    def _add_digits(self, x, y):
        p, acc, shift = self.p, 0, 1
        for _ in range(self.f):
            acc += ((x + y) % p) * shift
            x //= p
            y //= p
            shift *= p
        return acc

    def _neg_digits(self, x):
        p, acc, shift = self.p, 0, 1
        for _ in range(self.f):
            acc += (-x % p) * shift
            x //= p
            shift *= p
        return acc

    def _build_add_tables(self):
        # odd p: the q x q sum table and the negation table, for fields up to
        # ADD_TABLE_MAX_Q; larger fields keep the digit loops (empty table)
        if self.q > ADD_TABLE_MAX_Q:
            self._add, self._neg = (), ()
            return
        r = range(self.q)
        self._add = [[self._add_digits(x, y) for y in r] for x in r]
        self._neg = [self._neg_digits(x) for x in r]

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def _mul_raw(self, x, y):
        a = _poly_mulmod(self.digits(x), self.digits(y), self.modulus, self.p)
        return self.from_digits(a)

    def _build_tables(self):
        q = self.q
        for g in range(2, q):
            exp = [1] * (q - 1)
            seen = True
            acc = 1
            for i in range(1, q - 1):
                acc = self._mul_raw(acc, g)
                if acc == 1:
                    seen = False
                    break
                exp[i] = acc
            if seen and self._mul_raw(acc, g) == 1:
                log = [0] * q
                for i, v in enumerate(exp):
                    log[v] = i
                self._exp = exp
                self._log = log
                self.generator = g
                return
        raise RuntimeError("no generator found (impossible)")

    def primitive(self):
        """The primitive element whose powers index the log tables."""
        if self._exp is None:
            self._build_tables()
        return self.generator

    def mul(self, x, y):
        if x == 0 or y == 0:
            return 0
        if self.f == 1:
            return (x * y) % self.p
        if self._exp is None:
            self._build_tables()
        return self._exp[(self._log[x] + self._log[y]) % (self.q - 1)]

    def inv(self, x):
        if x == 0:
            raise DivisionByZero(f"inverse of 0 in {self}")
        if self.f == 1:
            return pow(x, self.p - 2, self.p)
        if self._exp is None:
            self._build_tables()
        return self._exp[(-self._log[x]) % (self.q - 1)]

    def pow(self, x, n: int):
        if x == 0:
            if n < 0:
                raise DivisionByZero("0 to a negative power")
            return 0 if n else 1
        if self.f == 1:
            return pow(x, n % (self.p - 1) if n else 0, self.p) if self.p > 2 else x
        if self._exp is None:
            self._build_tables()
        return self._exp[(self._log[x] * n) % (self.q - 1)]

    def frobenius(self, x, j: int = 1):
        """x^(p^j); j may be any integer (taken mod f)."""
        j %= self.f
        if j == 0 or x == 0 or x == 1:
            return x
        return self.pow(x, self.p ** j)

    # -- towers ----------------------------------------------------------

    def extend(self, b: int) -> "FieldSpec":
        """Build GF(q^b) with self registered as a subfield."""
        ext = FieldSpec.get(self.p ** (self.f * b))
        ext.register_subfield(self)
        return ext

    def register_subfield(self, sub: "FieldSpec"):
        if sub.key in self._subfields:
            return
        if self.f % sub.f or self.p != sub.p:
            raise NotASubfield(f"{sub} does not embed in {self}")
        # a root of sub's modulus generates the embedded copy of sub
        root = None
        for r in range(self.q):
            if _poly_eval(sub.modulus, r, self) == 0:
                root = r
                break
        if root is None:
            raise NotASubfield(f"no root of {sub.modulus} in {self}")
        embed = [0] * sub.q
        powers = [1]
        for _ in range(sub.f - 1):
            powers.append(self.mul(powers[-1], root))
        for x in range(sub.q):
            acc = 0
            for c, rpow in zip(sub.digits(x), powers):
                acc = self.add(acc, self.mul(c % self.p, rpow))
            embed[x] = acc
        restrict = {v: i for i, v in enumerate(embed)}
        self._subfields[sub.key] = (sub, embed, restrict)

    def embed(self, x, sub: "FieldSpec"):
        """Image in self of x in the registered subfield sub."""
        try:
            return self._subfields[sub.key][1][x]
        except KeyError:
            raise NotASubfield(f"{sub} is not registered in {self}") from None

    def restrict(self, x, sub: "FieldSpec"):
        """Preimage in sub of x, which must lie in the embedded copy."""
        try:
            table = self._subfields[sub.key][2]
        except KeyError:
            raise NotASubfield(f"{sub} is not registered in {self}") from None
        if x not in table:
            raise NotASubfield(f"element {x} of {self} is not in {sub}")
        return table[x]

    def trace_to(self, x, sub: "FieldSpec"):
        """Relative trace sum x^(q0^i) into the registered subfield."""
        if sub.key not in self._subfields:
            raise NotASubfield(f"{sub} is not registered in {self}")
        b = self.f // sub.f
        acc = 0
        t = x
        for _ in range(b):
            acc = self.add(acc, t)
            t = self.frobenius(t, sub.f)
        return self.restrict(acc, sub)

    def serialize(self):
        return {"p": self.p, "f": self.f, "modulus": list(self.modulus)}

    @classmethod
    def deserialize(cls, doc) -> "FieldSpec":
        return cls(doc["p"], doc["f"], tuple(doc["modulus"]))


def _poly_divisible(num, den, p):
    # exact divisibility of polynomials over GF(p); den monic
    num = list(num)
    dd = len(den) - 1
    while len(_poly_trim(num)) - 1 >= dd:
        num = list(_poly_trim(num))
        lead = num[-1]
        shift = len(num) - 1 - dd
        for j in range(dd + 1):
            num[shift + j] = (num[shift + j] - lead * den[j]) % p
    return not _poly_trim(num)


def _is_irreducible(coeffs, p):
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    if coeffs[0] == 0:
        return False
    # trial division by every monic polynomial of degree <= deg/2
    for d in range(1, deg // 2 + 1):
        for packed in range(p ** d):
            cand = []
            x = packed
            for _ in range(d):
                cand.append(x % p)
                x //= p
            cand.append(1)
            if _poly_divisible(coeffs, cand, p):
                return False
    return True


def _find_irreducible(p, f):
    """Lexicographically least monic irreducible of degree f over GF(p)."""
    if f == 1:
        return (0, 1)
    for packed in range(p ** f):
        coeffs = []
        x = packed
        for _ in range(f):
            coeffs.append(x % p)
            x //= p
        coeffs.append(1)
        if coeffs[0] != 0 and _is_irreducible(tuple(coeffs), p):
            return tuple(coeffs)
    raise RuntimeError("no irreducible polynomial found (impossible)")


# -- the special constants the subgroup recipes need -----------------------

def find_irreducible_mu(fld: FieldSpec):
    """Some mu in fld with x^2 + x + mu irreducible over fld."""
    values = {fld.neg(fld.add(fld.mul(t, t), t)) for t in fld.elements()}
    for mu in fld.elements():
        if mu not in values:
            return mu
    raise NoSuchConstant(f"x^2+x+mu is reducible for every mu in {fld}")


def find_mu_norm_minus_one(ext: FieldSpec, sub: FieldSpec):
    """Some mu in GF(q^2) with mu^(q-1) = -1, where q = |sub|."""
    if sub.key not in ext._subfields:
        ext.register_subfield(sub)
    minus_one = ext.neg(1)
    q = sub.q
    for mu in range(1, ext.q):
        if ext.pow(mu, q - 1) == minus_one:
            return mu
    raise NoSuchConstant(f"no mu with mu^{q-1} = -1 in {ext}")
