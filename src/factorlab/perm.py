"""Enumerated geometric domains, the action of semilinear maps on them,
orbits, Schreier-Sims, sifting, subgroup enumeration, solvable residual.

A vector v of F^n, F = GF(q), is coded by the int sum v[i] q^i.  Every
domain acts through one table per semilinear element g: the array T_g of
length q^n with T_g[code(v)] = code(v^g).  Since v |-> v^g is additive, the
table is filled from the n(q-1) images of the vectors d e_k alone:
T[d q^k + r] = T[r] (+) code((d e_k)^g) for r < q^k, where (+) adds codes
digit by digit (XOR when p = 2).  A domain owns the tables of the elements
that act on it and the permutations built from them, so each is computed at
most once per domain and freed with it.  Points move by lookups: a vector by
T_g, a pair by two lookups, a projective point by T_g and its normalised
code, a refined antiflag (v, phi) by T_g on v and the table of the
contragredient element on phi, a form by the table of g^-1 on its arguments.

Permutations are lists p with point^p = p[point]; composition acts left to
right: (point^(g*h)) = h[g[point]].  Sifting acts on words, lists of
permutations whose product is never formed unless it has to be kept: a
level's base point is followed through the word by lookups.  A domain may
carry a known base, points that only the identity of GammaL(V) fixes (for
nonzero vectors: e_1..e_n and, over a proper extension of GF(p), x e_1);
then a word of group elements that sifts through every level is the
identity exactly when it fixes those few points.
"""

from __future__ import annotations

import random
from array import array
from collections import deque
from itertools import product
from operator import eq

from .errors import (
    CapExceeded,
    DomainOverflow,
    NotFaithful,
    PointNotInDomain,
    VerificationFailed,
)
from .linalg import GroupElem

DEFAULT_DOMAIN_CAP = 1 << 20
DEFAULT_ENUM_CAP = 10 ** 6


def compose(g, h):
    return [h[x] for x in g]


def inverse(g):
    inv = [0] * len(g)
    for i, x in enumerate(g):
        inv[x] = i
    return inv


def is_identity(g):
    return all(map(eq, g, range(len(g))))


def _product(word, n):
    """The product of a word of permutations of n points, left to right."""
    cur = list(word[0]) if word else list(range(n))
    for g in word[1:]:
        cur = compose(cur, g)
    return cur


def _image(point, word):
    for g in word:
        point = g[point]
    return point


def bfs(start, moves, cap=None):
    """Breadth-first search from start, first in first out.

    moves are callables, each mapping a point to its image.  Returns a dict
    that maps every point found, in the order found, to (parent, index of
    the move that reached it); start maps to None.  Raises DomainOverflow
    when a point beyond the first cap would be added.
    """
    tree = {start: None}
    queue = deque((start,))
    while queue:
        x = queue.popleft()
        for i, move in enumerate(moves):
            y = move(x)
            if y not in tree:
                if cap is not None and len(tree) >= cap:
                    raise DomainOverflow(f"orbit exceeded the cap {cap}")
                tree[y] = (x, i)
                queue.append(y)
    return tree


# -- vector codes and action tables ------------------------------------------


def _encode(frame, v):
    q = frame.field.q
    acc = 0
    for x in reversed(v):
        acc = acc * q + x
    return acc


def _decode(frame, code):
    q = frame.field.q
    out = []
    for _ in range(frame.n):
        out.append(code % q)
        code //= q
    return tuple(out)


def _code_add(F):
    """(+) on vector codes over F: XOR for p = 2, else coordinate-wise F.add."""
    if F.p == 2:
        return int.__xor__
    add, q = F.add, F.q

    def code_add(x, y):
        acc, shift = 0, 1
        while x or y:
            acc += add(x % q, y % q) * shift
            x //= q
            y //= q
            shift *= q
        return acc

    return code_add


def vector_table(frame, g: GroupElem):
    """T with T[code(v)] = code(v^g) for every v in F^n (g semilinear)."""
    F = frame.field
    q, n = F.q, frame.n
    plus = _code_add(F)
    T = array("l", [0]) * q ** n
    size = 1                                    # q^k
    for k in range(n):
        for d in range(1, q):
            img = _encode(frame, g.act(tuple(d if i == k else 0 for i in range(n))))
            base = d * size
            for r in range(size):
                T[base + r] = plus(T[r], img)
        size *= q
    return T


def contragredient(g: GroupElem) -> GroupElem:
    """The element phi |-> (phi A^-T)^(sigma^j) on linear forms, for g = (A, j)."""
    return GroupElem(g.mat.inv().transpose().frob(g.frob), g.frob)


class VectorTables(dict):
    """Vector table per semilinear element of one frame, built on first use."""

    def __init__(self, frame):
        super().__init__()
        self.frame = frame

    def __missing__(self, g):
        T = self[g] = vector_table(self.frame, g)
        return T


# -- domains -------------------------------------------------------------------


class Domain:
    """An enumerated set of geometric objects with a semilinear action.

    image(tables, g) returns the map point -> point^g; tables is the domain's
    VectorTables.  known_base, when given, lists points that only the
    identity of GammaL(V) fixes; it is kept as point indices, the form the
    stabilizer chains use, or None.
    """

    def __init__(self, kind, frame, points, image, cap=DEFAULT_DOMAIN_CAP, tables=None,
                 known_base=None):
        if len(points) > cap:
            raise DomainOverflow(f"domain size {len(points)} exceeds cap {cap}")
        self.kind = kind
        self.frame = frame
        self.points = list(points)
        self.index = {p: i for i, p in enumerate(self.points)}
        self.known_base = None if known_base is None else [self.index[p] for p in known_base]
        self.tables = VectorTables(frame) if tables is None else tables
        self._image = image
        self._perms = {}

    @property
    def size(self):
        return len(self.points)

    def perm_of(self, g: GroupElem):
        """The permutation of the point indices induced by g (memoised)."""
        perm = self._perms.get(g)
        if perm is None:
            move, index = self._image(self.tables, g), self.index
            try:
                perm = [index[move(p)] for p in self.points]
            except KeyError as e:
                msg = f"{self.kind}: the image {e.args[0]!r} left the domain"
                raise PointNotInDomain(msg) from None
            self._perms[g] = perm
        return perm

    def perms_of(self, gens):
        return [self.perm_of(g) for g in gens]


def _vector_image(tables, g):
    return tables[g].__getitem__


def _all_vectors(frame):
    return range(frame.field.q ** frame.n)


def nonzero_vectors(frame, cap=DEFAULT_DOMAIN_CAP) -> Domain:
    """Nonzero vectors, with the known base e_1..e_n plus, when f > 1, x e_1
    for the field element x coded p.  A map v |-> v^sigma A fixing every e_i
    has A = I; fixing x e_1 too gives x^sigma = x, and x generates GF(q)
    over GF(p), so sigma = 1."""
    F = frame.field
    pts = [c for c in _all_vectors(frame) if c]
    base = [F.q ** i for i in range(frame.n)] + ([F.p] if F.f > 1 else [])
    return Domain("NonzeroVectors", frame, pts, _vector_image, cap, known_base=base)


def norm_level_set(frame, value, cap=DEFAULT_DOMAIN_CAP) -> Domain:
    """Vectors v != 0 with Q(v) = value (quadratic) or beta(v,v) = value."""
    form = frame.form
    if form.kind == "quadratic":
        val = form.quadratic
    else:
        val = lambda v: form.bilinear(v, v)
    pts = [c for c in _all_vectors(frame) if c and val(_decode(frame, c)) == value]
    kind = f"NormLevelSet({value})"
    return Domain(kind, frame, pts, _vector_image, cap)


def singular_vectors(frame, cap=DEFAULT_DOMAIN_CAP) -> Domain:
    dom = norm_level_set(frame, 0, cap)
    dom.kind = "SingularNonzeroVectors"
    return dom


def projective_points(frame, cap=DEFAULT_DOMAIN_CAP) -> Domain:
    """Lines of F^n, each coded by its vector with leading coordinate 1."""
    F = frame.field

    def normalize(v):
        lead = next(x for x in v if x)
        if lead == 1:
            return v
        c = F.inv(lead)
        return tuple(F.mul(c, x) for x in v)

    norm = array("l", [0]) * F.q ** frame.n
    for c in _all_vectors(frame):
        if c:
            norm[c] = _encode(frame, normalize(_decode(frame, c)))
    pts = sorted(set(norm[1:]))

    def image(tables, g):
        T = tables[g]
        return lambda c: norm[T[c]]

    return Domain("ProjectivePoints", frame, pts, image, cap)


def refined_antiflags(frame, cap=DEFAULT_DOMAIN_CAP) -> Domain:
    """Pairs {v, W}: v nonzero, W a complementary hyperplane, encoded as
    (v, phi) with W = ker(phi) and phi(v) = 1."""
    F = frame.field

    def dot(u, w):
        acc = 0
        for a, b in zip(u, w):
            if a and b:
                acc = F.add(acc, F.mul(a, b))
        return acc

    pts = []
    for vc in _all_vectors(frame):
        if not vc:
            continue
        v = _decode(frame, vc)
        for pc in _all_vectors(frame):
            if not pc:
                continue
            if dot(v, _decode(frame, pc)) == 1:
                pts.append((vc, pc))

    def image(tables, g):
        T, D = tables[g], tables[contragredient(g)]
        return lambda pt: (T[pt[0]], D[pt[1]])

    return Domain("RefinedAntiflags", frame, pts, image, cap)


def _form_table(frame, qfun):
    return tuple(qfun(_decode(frame, c)) for c in _all_vectors(frame) if c)


def form_orbit(frame, seed_form, gens, cap=DEFAULT_DOMAIN_CAP) -> Domain:
    """The orbit of a quadratic form under gens of the ambient isometry group.

    Forms transform by Q^g(v) = Q(v^(g^-1))^(p^j); a form is coded by its
    value table on the nonzero vectors, so g moves the entries of a table by
    the vector table of g^-1 and then applies an entrywise Frobenius.
    """
    fr = frame.field.frobenius

    def image(tables, g):
        T = tables[g.inv()]
        # the value at code c (entry c - 1) is the old value at T[c]
        pre = [T[c] - 1 for c in range(1, len(T))]
        j = g.frob
        if j == 0:
            return lambda table: tuple(map(table.__getitem__, pre))
        return lambda table: tuple(fr(table[i], j) for i in pre)

    seed = _form_table(frame, seed_form.quadratic)
    return _orbit_domain("FormOrbit", frame, seed, image, gens, cap)


def _orbit_domain(kind, frame, seed, image, gens, cap):
    """The domain of the sorted orbit of seed under gens; it keeps the
    vector tables the orbit search built."""
    tables = VectorTables(frame)
    tree = bfs(seed, [image(tables, g) for g in gens], cap)
    return Domain(kind, frame, sorted(tree), image, cap, tables)


def _pair_image(tables, g):
    T = tables[g]
    return lambda pt: (T[pt[0]], T[pt[1]])


def _unordered_pair_image(tables, g):
    T = tables[g]

    def move(pt):
        u, w = T[pt[0]], T[pt[1]]
        return (u, w) if u <= w else (w, u)

    return move


def ordered_vector_pairs(frame, seed_pair, gens, cap=DEFAULT_DOMAIN_CAP) -> Domain:
    """Orbit of an ordered vector pair (u, w) under the given generators."""
    seed = (_encode(frame, seed_pair[0]), _encode(frame, seed_pair[1]))
    return _orbit_domain("OrderedVectorPairs", frame, seed, _pair_image, gens, cap)


def unordered_vector_pairs(frame, seed_pair, gens, cap=DEFAULT_DOMAIN_CAP) -> Domain:
    """Orbit of an unordered vector pair {u, w} under the given generators."""
    u, w = _encode(frame, seed_pair[0]), _encode(frame, seed_pair[1])
    seed = (u, w) if u <= w else (w, u)
    return _orbit_domain("UnorderedVectorPairs", frame, seed, _unordered_pair_image, gens, cap)


def orbit(gens, start, dom: Domain):
    """The orbit of a domain point under GroupElem generators (BFS order)."""
    moves = [p.__getitem__ for p in dom.perms_of(gens)]
    pts = dom.points
    return [pts[i] for i in bfs(dom.index[start], moves)]


# -- Schreier-Sims ------------------------------------------------------------


class _Level:
    __slots__ = ("base", "gens", "orbit", "tree", "_reps", "_rep_invs")

    def __init__(self, base):
        self.base = base
        self.gens = []
        self.orbit = {}
        self.tree = {}
        self._reps = {}
        self._rep_invs = {}

    def recompute(self):
        # the Schreier tree; its keys, in BFS order, are the orbit
        self.tree = self.orbit = bfs(self.base, [g.__getitem__ for g in self.gens])
        self._reps = {self.base: None}
        self._rep_invs = {self.base: None}

    def rep(self, point):
        # transversal element u with base^u = point
        got = self._reps.get(point, 0)
        if got != 0:
            return got
        p, gi = self.tree[point]
        parent = self.rep(p)
        u = list(self.gens[gi]) if parent is None else compose(parent, self.gens[gi])
        self._reps[point] = u
        return u

    def rep_inv(self, point):
        got = self._rep_invs.get(point, 0)
        if got != 0:
            return got
        u = self.rep(point)
        ui = None if u is None else inverse(u)
        self._rep_invs[point] = ui
        return ui


class StabChain:
    """Base and strong generating set for a permutation group.

    known_base, when given, lists points that only the identity of the
    ambient group fixes; every permutation the chain is built from or asked
    about must then lie in that group (Domain.known_base).
    """

    def __init__(self, gens, n_points, seed=0, target_order=None, known_base=None):
        self.n = n_points
        self.gens = [list(g) for g in gens if not is_identity(g)]
        self.seed = seed
        self.known_base = known_base
        self.levels = []
        self._rng = random.Random(seed * 1000003 + n_points * 101 + len(self.gens))
        self._build(target_order)

    # construction ---------------------------------------------------------

    def _largest_orbit_point(self, gens):
        moves = [g.__getitem__ for g in gens]
        seen = set()
        best, best_size = None, 0
        for start in range(self.n):
            if start in seen:
                continue
            comp = bfs(start, moves)
            seen.update(comp)
            if len(comp) > best_size:
                best, best_size = start, len(comp)
        return best if best_size > 1 else None

    def _new_level(self, gens_here):
        base = self._largest_orbit_point(gens_here)
        if base is None:
            return False
        lvl = _Level(base)
        self.levels.append(lvl)
        return True

    def _add_gen(self, level_idx, g):
        """Record g as a strong generator; it fixes the first level_idx bases,
        so it belongs to the generating sets of levels 0..level_idx."""
        if level_idx == len(self.levels):
            if not self._new_level([g]):
                return False
        level_idx = min(level_idx, len(self.levels) - 1)
        g = list(g)
        for j in range(level_idx + 1):
            lvl = self.levels[j]
            lvl.gens.append(g)
            lvl.recompute()
        return True

    def _sift(self, word, start=0):
        """Sift the product of word through the levels from start on.

        word is a list of permutations, applied left to right; its product
        must fix the first start base points.  Returns (residue, level): the
        residue is word extended by inverse transversal elements, and level
        is None when the product is in the group, else the first depth the
        residue fails at.  No product is formed when the chain has a known
        base: the verdict follows base points through the word.
        """
        word = list(word)
        levels = self.levels
        for i in range(start, len(levels)):
            lvl = levels[i]
            img = _image(lvl.base, word)
            if img == lvl.base:
                continue
            if img not in lvl.orbit:
                return word, i
            word.append(lvl.rep_inv(img))
        if self.known_base is None:
            member = is_identity(_product(word, self.n))
        else:
            member = all(_image(x, word) == x for x in self.known_base)
        return word, (None if member else len(levels))

    def contains(self, g):
        return self._sift([g])[1] is None

    def order(self) -> int:
        acc = 1
        for lvl in self.levels:
            acc *= len(lvl.orbit)
        return acc

    def _absorb(self, word, start=0):
        """Sift word from level start on and, if it is not in the group,
        record the residue as a strong generator."""
        word, idx = self._sift(word, start)
        if idx is None:
            return False
        cur = _product(word, self.n)
        # the residue fixes the first idx base points; it may also fix deeper
        # ones, in which case push it down as far as it goes
        while idx < len(self.levels) and cur[self.levels[idx].base] == self.levels[idx].base:
            idx += 1
        self._add_gen(idx, cur)
        return True

    def _random_word(self):
        k = self._rng.randrange(2, 6)
        word = []
        pool = self.gens
        for _ in range(k):
            g = pool[self._rng.randrange(len(pool))]
            if self._rng.random() < 0.5:
                g = inverse(g)
            word.append(g)
        return word

    def _build(self, target_order):
        if not self.gens:
            return
        for g in self.gens:
            self._absorb([g])
        if target_order is not None:
            attempts = 0
            accum = [list(g) for g in self.gens[: max(3, min(len(self.gens), 8))]]
            while self.order() != target_order:
                attempts += 1
                if attempts > 20000:
                    raise VerificationFailed(
                        f"order stalled at {self.order()}, target {target_order}"
                    )
                # product replacement step
                i = self._rng.randrange(len(accum))
                j = self._rng.randrange(len(self.gens))
                g = self.gens[j]
                if self._rng.random() < 0.5:
                    g = inverse(g)
                accum[i] = compose(accum[i], g)
                self._absorb([accum[i]])
                if self.order() > target_order:
                    raise VerificationFailed(
                        f"order {self.order()} exceeds target {target_order}"
                    )
            return
        # no target: randomized warm-up, then a full deterministic pass
        for _ in range(20 + 4 * len(self.gens)):
            self._absorb(self._random_word())
        self._schreier_closure()

    def _schreier_closure(self):
        """Sift every Schreier generator u_p g u_(p^g)^-1 of every level below
        that level until none adds a strong generator."""
        changed = True
        while changed:
            changed = False
            for i in range(len(self.levels) - 1, -1, -1):
                lvl = self.levels[i]
                for p in list(lvl.orbit):
                    up = lvl.rep(p)
                    for g in lvl.gens:
                        word = [g] if up is None else [up, g]
                        u2i = lvl.rep_inv(g[p])
                        if u2i is not None:
                            word.append(u2i)
                        if self._absorb(word, i + 1):
                            changed = True

    # derived data ----------------------------------------------------------

    def strong_gens(self):
        out = []
        for lvl in self.levels:
            out.extend(lvl.gens)
        return out

    def random_element(self, rng):
        g = None
        for lvl in self.levels:
            pts = list(lvl.orbit)
            u = lvl.rep(rng.choice(pts))
            if u is not None:
                g = list(u) if g is None else compose(g, u)
        return list(range(self.n)) if g is None else g

    def elements(self, cap=DEFAULT_ENUM_CAP):
        """Iterate all elements as permutation lists (transversal products)."""
        if self.order() > cap:
            raise CapExceeded(f"group order {self.order()} exceeds cap {cap}")
        ident = list(range(self.n))

        def rec(i, acc):
            if i < 0:
                yield acc
                return
            lvl = self.levels[i]
            for p in lvl.orbit:
                u = lvl.rep(p)
                if u is None:
                    nxt = acc
                elif acc is ident:
                    nxt = list(u)
                else:
                    nxt = compose(acc, u)
                yield from rec(i - 1, nxt)

        yield from rec(len(self.levels) - 1, ident)

    def words(self, cap=DEFAULT_ENUM_CAP):
        """Iterate all elements as words of transversal elements, in the
        order of elements(), without forming their products."""
        if self.order() > cap:
            raise CapExceeded(f"group order {self.order()} exceeds cap {cap}")
        per_level = [[lvl.rep(p) for p in lvl.orbit] for lvl in reversed(self.levels)]
        for choice in product(*per_level):
            yield [u for u in choice if u is not None]

    def coset_key(self, g):
        """Canonical key of the right coset (this group) * g."""
        cur = list(g)
        for lvl in self.levels:
            best_p, best_img = None, None
            for p in lvl.orbit:
                img = cur[p]
                if best_img is None or img < best_img:
                    best_p, best_img = p, img
            u = lvl.rep(best_p)
            if u is not None:
                cur = compose(u, cur)
        return tuple(cur)


def bsgs(gens, dom: Domain, seed=0, target_order=None) -> StabChain:
    """Certified stabilizer chain for GroupElem generators acting on dom."""
    perms = dom.perms_of(gens)
    for g, p in zip(gens, perms):
        if is_identity(p) and not g.is_identity():
            raise NotFaithful("a nontrivial generator acts trivially")
    return StabChain(perms, dom.size, seed=seed, target_order=target_order,
                     known_base=dom.known_base)


def enumerate_and_sift(H: StabChain, K: StabChain, cap=DEFAULT_ENUM_CAP) -> int:
    """|H meet K| by enumerating H as words and sifting them through K's chain."""
    if H.n != K.n:
        raise ValueError("chains act on different domains")
    return sum(1 for word in H.words(cap) if K._sift(word)[1] is None)


def normal_closure(seeds, conjugators, n_points, seed=0, cap=DEFAULT_ENUM_CAP,
                   known_base=None):
    """Chain for the normal closure of seeds under the given conjugators."""
    gens = []
    chain = StabChain([], n_points, seed=seed, known_base=known_base)
    queue = [list(s) for s in seeds if not is_identity(s)]
    conj_pairs = [(list(c), inverse(c)) for c in conjugators]
    while queue:
        g = queue.pop()
        if chain.contains(g):
            continue
        gens.append(g)
        chain = StabChain(gens, n_points, seed=seed, known_base=known_base)
        if chain.order() > cap:
            raise CapExceeded("normal closure exceeded the enumeration cap")
        for c, ci in conj_pairs:
            queue.append(compose(ci, compose(g, c)))
    return chain


def derived_chain(gens_perms, n_points, seed=0, cap=DEFAULT_ENUM_CAP, known_base=None):
    """Chain for the derived subgroup of the group generated by gens_perms."""
    comms = []
    for i, a in enumerate(gens_perms):
        ai = inverse(a)
        for b in gens_perms[i + 1 :]:
            c = compose(compose(ai, inverse(b)), compose(a, b))
            if not is_identity(c):
                comms.append(c)
    return normal_closure(comms, gens_perms, n_points, seed=seed, cap=cap,
                          known_base=known_base)


def solvable_residual(gens, dom: Domain, seed=0, cap=DEFAULT_ENUM_CAP) -> StabChain:
    """Chain for the last term of the derived series of <gens>."""
    perms = dom.perms_of(gens)
    chain = StabChain(perms, dom.size, seed=seed, known_base=dom.known_base)
    cur_gens = perms
    cur_order = chain.order()
    while True:
        nxt = derived_chain(cur_gens, dom.size, seed=seed, cap=cap, known_base=dom.known_base)
        if nxt.order() == cur_order:
            return nxt
        if nxt.order() == 1:
            return nxt
        cur_gens = nxt.strong_gens()
        cur_order = nxt.order()
