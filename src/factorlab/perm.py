"""Enumerated geometric domains, the action of semilinear maps on them,
orbits, Schreier-Sims, sifting, subgroup enumeration, solvable residual.

A vector v of F^n, F = GF(q), is coded by the int sum v[i] q^i.  Every
domain acts through one table per semilinear element g: the array T_g of
length q^n with T_g[code(v)] = code(v^g).  Since v |-> v^g is additive, the
table is filled from the n(q-1) images of the vectors d e_k alone, which
are scaled rows of g's matrix: T[d q^k + r] = T[r] (+) code((d e_k)^g) for
r < q^k, where (+) adds codes coordinate by coordinate: XOR when p = 2, else
one lookup per half of the code in an addition table of half-length codes,
built once per field.  A domain owns the tables of the elements that act on
it and the permutations built from them, so each is computed at most once
per domain and freed with it.  A domain moves a list of points at once:
vectors by one itemgetter pick from T_g, pairs by one pick per column (for a
refined antiflag (v, phi), phi's from the table of the contragredient), and
only forms point by point.  Orbit domains, orbits and verify's coset orbits
grow a frontier at a time by set operations (_frontier_orbit), and the first
two are listed in domain order; only Schreier trees, which keep each point's
parent, grow first in first out (_grow).  In verify every chain lives on the
nonzero vectors, which are faithful and have a known base, whenever the
geometric domain is larger.

A form is evaluated on all of F^n in one place, form_values, which fills its
value table by the same additivity: the value at r + d e_k is the value at r
plus the value at d e_k plus a cross term additive in r.  Level sets filter
codes by that table.  A form orbit codes each quadratic form by its values on
e_i and e_i + e_j, which determine it; the full table of a form is kept only
to compute images, and is built once per form the orbit search meets.

Permutations are lists p with point^p = p[point]; composition acts left to
right: (point^(g*h)) = h[g[point]].  Sifting acts on words, lists of
permutations whose product is never formed unless it has to be kept: a
level's base point is followed through the word by lookups.  A domain may
carry a known base, points that only the identity of GammaL(V) fixes (for
nonzero vectors: e_1..e_n and, over a proper extension of GF(p), x e_1); a
chain given none takes every point, which only the identity of Sym(n) fixes.
A word that sifts through every level fixes every base point of the chain,
so it is the identity exactly when it fixes the known-base points that are
not base points: a sift's one verdict follows those alone, and none when the
chain's bases cover the known base.

Every stabilizer chain is built by one deterministic Schreier-Sims; a
normal closure grows one chain in place.  A sift residue that is not in the
group becomes a strong generator at the level the sift stopped at, whose
base it moves; past the last level it opens a new level whose base is the
first point it moves (any moved point will do, Seress 2003, 4.2).  Level 0
lists every strong generator once.  A level keeps a Schreier tree of its
base point's orbit, grown in place when a strong generator arrives, so tree
paths stay valid.  Sifts and Schreier generators never form a transversal
element u_p or its inverse: they extend a word by the generators on the tree
path from the base down to p, or by their inverses on the way back up
(Schreier vectors), and a level keeps each point's inverse word once built,
one reference per edge.  A sift extends the list it is given in place, so
every caller hands it a list just built.  enumerate_and_sift and elements()
walk a group as words of tree paths too; only coset keys keep whole
transversal elements.  The closure sifts each Schreier generator once: a
level counts, per orbit point, the generators already tested there.
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import product
from math import prod
from operator import eq, itemgetter

from .errors import (
    DEFAULT_CAPS,
    CapExceeded,
    DomainOverflow,
    NotFaithful,
    PointNotInDomain,
    VerificationFailed,
)
from .linalg import GroupElem

DEFAULT_DOMAIN_CAP = DEFAULT_CAPS["max_domain"]
DEFAULT_ENUM_CAP = DEFAULT_CAPS["max_enum"]


def _picker(indices):
    """The map s -> (s[i] for i in indices), as a tuple; itemgetter with a
    single index returns a scalar and with none fails, so those are wrapped."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda s: tuple(s[i] for i in indices)


def compose(g, h):
    return list(_picker(g)(h))


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


def _frontier_orbit(start, step, cap=None):
    """The orbit of start, as a set, grown one frontier at a time: step(points)
    returns, per generator, the images of the points.  Raises DomainOverflow
    when the orbit has more than cap points."""
    seen, frontier = {start}, [start]
    while frontier:
        new = set().union(*step(frontier))
        new -= seen
        if cap is not None and len(seen) + len(new) > cap:
            raise DomainOverflow(f"orbit exceeded the cap {cap}")
        seen |= new
        frontier = list(new)
    return seen


def _grow(tree, queue, moves):
    """Continue a breadth-first search, first in first out: tree maps every
    point found, in the order found, to (parent, index of the move that
    reached it), and queue holds the points whose moves are still to be
    followed.  moves are callables, each mapping a point to its image."""
    while queue:
        x = queue.popleft()
        for i, move in enumerate(moves):
            y = move(x)
            if y not in tree:
                tree[y] = (x, i)
                queue.append(y)


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


def _half_add(F, h):
    """The array ADD with ADD[x Q + y] = x (+) y for the codes x, y < Q = q^h
    of h coordinates over F (odd p); built on first use and kept on F."""
    ADD = F._half_add.get(h)
    if ADD is not None:
        return ADD
    q = F.q
    digit = [[F.add(a, b) for b in range(q)] for a in range(q)]
    # rows[x][y] = x (+) y over k coordinates; x = x0 + q x', y = y0 + q y'
    rows = [[0]]
    for _ in range(h):
        rows = [[digit[x % q][y0] + q * v for v in rows[x // q] for y0 in range(q)]
                for x in range(q * len(rows))]
    ADD = array("l")
    for row in rows:
        ADD.extend(row)
    F._half_add[h] = ADD
    return ADD


def vector_table(frame, g: GroupElem):
    """T with T[code(v)] = code(v^g) for every v in F^n (g semilinear).

    T grows block by block: the block for d e_k is T[:q^k] (+) code((d e_k)^g),
    and (d e_k)^g is d^(p^j) times row k of g's matrix, for g = (A, j).  For
    p = 2, (+) is XOR.  For odd p a code is split into its low h and high
    n - h coordinates, h = ceil(n/2), and each half is added by a lookup in
    the half-code addition table of F.
    """
    F = frame.field
    q, n = F.q, frame.n
    T = array("l", [0])
    size = 1                                    # q^k
    if F.p != 2:
        h = (n + 1) // 2
        Q, ADD = q ** h, _half_add(F, h)
    for row in g.mat.rows:
        for d in range(1, q):
            c = F.frobenius(d, g.frob)
            img = _encode(frame, [F.mul(c, x) for x in row])
            if F.p == 2:
                T.extend([x ^ img for x in T[:size]])
            else:
                ihi, ilo = divmod(img, Q)
                lo, hi = ADD[ilo::Q], ADD[ihi::Q]
                T.extend([lo[x % Q] + Q * hi[x // Q] for x in T[:size]])
        size *= q
    return T


def form_values(frame, form=None):
    """V with V[code(v)] = Q(v) for every v in F^n when form (by default the
    frame's) is quadratic, else V[code(v)] = beta(v, v).

    V grows block by block, as a vector table does: for r < q^k,
    V[d q^k + r] = V[r] + V[d q^k] + C(r), with the cross term
    C(r) = b(r, d e_k) for a quadratic form with polar form b, else
    beta(r, d e_k) + beta(d e_k, r).  C is additive in r, so its table over
    r < q^k is filled block by block too, from its values at the c e_i, i < k.
    """
    form = frame.form if form is None else form
    F = frame.field
    q, n = F.q, frame.n
    G, mul = form.gram.rows, F.mul
    add = [[F.add(a, b) for b in range(q)] for a in range(q)]
    if form.kind == "quadratic":
        def diag(k, d):
            return mul(form.qdiag[k], mul(d, d))

        def cross(i, k, a, d):
            return mul(a, mul(G[i][k], d))
    else:
        conj = form.conj if form.kind == "hermitian" else (lambda x: x)

        def diag(k, d):
            return mul(d, mul(G[k][k], conj(d)))

        def cross(i, k, a, d):
            return add[mul(a, mul(G[i][k], conj(d)))][mul(d, mul(G[k][i], conj(a)))]
    V = [0]
    size = 1                                    # q^k
    for k in range(n):
        for d in range(1, q):
            C, block = [0], 1                   # C over r < q^i
            for i in range(k):
                for a in range(1, q):
                    c = cross(i, k, a, d)
                    C.extend([add[x][c] for x in C[:block]])
                block *= q
            row = add[diag(k, d)]
            V.extend([add[row[v]][c] for v, c in zip(V[:size], C)])
        size *= q
    return V


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


def _check_size(size, cap):
    if size > cap:
        raise DomainOverflow(f"domain size {size} exceeds cap {cap}")


class Domain:
    """An enumerated set of geometric objects with a semilinear action.

    images(tables, g, points) returns the images of the points under g, in
    order, moving them all at once; tables is the domain's VectorTables.
    known_base, when given, lists points that only the identity of GammaL(V)
    fixes; it is kept as point indices, the form the stabilizer chains use,
    or None.
    """

    def __init__(self, kind, frame, points, images, cap=DEFAULT_DOMAIN_CAP, tables=None,
                 known_base=None):
        _check_size(len(points), cap)
        self.kind = kind
        self.frame = frame
        self.points = list(points)
        self.index = {p: i for i, p in enumerate(self.points)}
        self.known_base = None if known_base is None else [self.index[p] for p in known_base]
        self.tables = VectorTables(frame) if tables is None else tables
        self._images = images
        self._perms = {}

    @property
    def size(self):
        return len(self.points)

    def perm_of(self, g: GroupElem):
        """The permutation of the point indices induced by g (memoised)."""
        perm = self._perms.get(g)
        if perm is None:
            images = self._images(self.tables, g, self.points)
            try:
                perm = list(map(self.index.__getitem__, images))
            except KeyError as e:
                msg = f"{self.kind}: the image {e.args[0]!r} left the domain"
                raise PointNotInDomain(msg) from None
            self._perms[g] = perm
        return perm

    def perms_of(self, gens):
        return [self.perm_of(g) for g in gens]


def _vector_images(tables, g, points):
    return _picker(points)(tables[g])


def _pair_images(tables, g, points, h=None):
    """The images of the pairs (a, b) of points: a moved by the table of g,
    b by the table of h (by default g)."""
    firsts, seconds = (_picker([p[i] for p in points]) for i in (0, 1))
    return zip(firsts(tables[g]), seconds(tables[g if h is None else h]))


def _all_vectors(frame):
    return range(frame.field.q ** frame.n)


def nonzero_vectors(frame, cap=DEFAULT_DOMAIN_CAP, tables=None) -> Domain:
    """Nonzero vectors, with the known base e_1..e_n plus, when f > 1, x e_1
    for the field element x coded p.  A map v |-> v^sigma A fixing every e_i
    has A = I; fixing x e_1 too gives x^sigma = x, and x generates GF(q)
    over GF(p), so sigma = 1.  tables, when given, are shared with another
    domain on the same space.  A size over the cap is refused before any
    code is listed."""
    F = frame.field
    _check_size(F.q ** frame.n - 1, cap)
    pts = [c for c in _all_vectors(frame) if c]
    base = [F.q ** i for i in range(frame.n)] + ([F.p] if F.f > 1 else [])
    return Domain("NonzeroVectors", frame, pts, _vector_images, cap, tables, base)


def norm_level_set(frame, value, cap=DEFAULT_DOMAIN_CAP) -> Domain:
    """Vectors v != 0 with Q(v) = value (quadratic) or beta(v,v) = value."""
    pts = [c for c, x in enumerate(form_values(frame)) if x == value and c]
    kind = f"NormLevelSet({value})"
    return Domain(kind, frame, pts, _vector_images, cap)


def singular_vectors(frame, cap=DEFAULT_DOMAIN_CAP) -> Domain:
    dom = norm_level_set(frame, 0, cap)
    dom.kind = "SingularNonzeroVectors"
    return dom


def refined_antiflags(frame, cap=DEFAULT_DOMAIN_CAP) -> Domain:
    """Pairs {v, W}: v nonzero, W a complementary hyperplane, encoded as
    (v, phi) with W = ker(phi) and phi(v) = 1.  There are (q^n - 1) q^(n-1),
    so a size over the cap is refused before any pair is listed."""
    F = frame.field
    _check_size((F.q ** frame.n - 1) * F.q ** (frame.n - 1), cap)

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

    def images(tables, g, points):
        return _pair_images(tables, g, points, contragredient(g))

    return Domain("RefinedAntiflags", frame, pts, images, cap)


def form_orbit(frame, seed_form, gens, cap=DEFAULT_DOMAIN_CAP) -> Domain:
    """The orbit of a quadratic form under gens of the ambient isometry group.

    Forms transform by Q^g(v) = Q(v^(g^-1))^(p^j): g moves the entries of a
    value table (form_values) by the vector table of g^-1, the inverse of
    the table of g, and then applies an entrywise Frobenius.

    A form is coded by its key, its values on S = {e_i} + {e_i + e_j, i < j}.
    The key determines Q: b(e_i, e_j) = Q(e_i + e_j) - Q(e_i) - Q(e_j), and
    Q(sum a_i e_i) = sum a_i^2 Q(e_i) + sum_(i<j) a_i a_j b(e_i, e_j).  So
    the key of an image is a pick of |S| entries of the full table, and a
    full table is built only for a form the orbit search has not met.  The
    points are the keys, sorted by the full tables; dom.values maps a point
    to its full table and dom.key maps a full table to its point.
    """
    F = frame.field
    q, n = F.q, frame.n
    S = [q ** i for i in range(n)] + [q ** i + q ** j for i in range(n) for j in range(i + 1, n)]
    key = _picker(S)
    values, movers = {}, {}

    def images(tables, g, points):
        if g not in movers:     # T_(g^-1), the pick of the key and the Frobenius
            T = inverse(tables[g])
            frob = [F.frobenius(x, g.frob) for x in F.elements()].__getitem__
            movers[g] = T, _picker([T[s] for s in S]), frob
        T, pick, frob = movers[g]

        def move(point):
            W = values[point]
            img = pick(W) if g.frob == 0 else tuple(map(frob, pick(W)))
            if img not in values:
                full = compose(T, W)
                values[img] = full if g.frob == 0 else list(map(frob, full))
            return img

        return [move(p) for p in points]

    seed = form_values(frame, seed_form)
    values[key(seed)] = seed
    dom = _orbit_domain("FormOrbit", frame, key(seed), images, gens, cap, values.__getitem__)
    dom.values, dom.key = values, key
    return dom


def _orbit_domain(kind, frame, seed, images, gens, cap, sort_key=None):
    """The domain of the orbit of seed under gens, sorted (by sort_key when
    given); it keeps the vector tables the orbit search built."""
    tables = VectorTables(frame)
    pts = _frontier_orbit(seed, lambda frontier: (images(tables, g, frontier) for g in gens), cap)
    return Domain(kind, frame, sorted(pts, key=sort_key), images, cap, tables)


def ordered_vector_pairs(frame, seed_pair, gens, cap=DEFAULT_DOMAIN_CAP) -> Domain:
    """Orbit of an ordered vector pair (u, w) under the given generators."""
    seed = (_encode(frame, seed_pair[0]), _encode(frame, seed_pair[1]))
    return _orbit_domain("OrderedVectorPairs", frame, seed, _pair_images, gens, cap)


def orbit(gens, start, dom: Domain):
    """The orbit of a domain point under GroupElem generators, in the order
    of dom.points."""
    perms = dom.perms_of(gens)
    found = _frontier_orbit(dom.index[start], lambda pts: map(_picker(pts), perms))
    return [dom.points[i] for i in sorted(found)]


# -- Schreier-Sims ------------------------------------------------------------


def _inverse_of(invs, g):
    """g^-1, kept in invs (keyed by id(g)) so that each generator is inverted
    once.  Its entries are taken from g (entry x is g[g^-2[x]]), so the kept
    list holds no int objects of its own."""
    gi = invs.get(id(g))
    if gi is None:
        gi = inverse(g)
        gi = invs[id(g)] = compose(compose(gi, gi), g)
    return gi


class _Level:
    """A base point, the strong generators that fix the earlier base points,
    and the Schreier tree of the base point's orbit under them.

    tree (also named orbit) maps every orbit point, in the order found, to
    (parent, index of the generator that reached it); the base maps to None.
    The tree only grows: add_gen keeps every entry, so tree paths, the
    inverse path words path_inv keeps and the transversal elements rep
    builds stay valid.  gen_invs lists the inverses of gens, taken from invs,
    the generator inverses of the whole chain, shared by its levels; a kept
    word holds references to them, one per tree edge, not a permutation.
    tested maps an orbit point p to the number of generators g, taken in
    order, whose Schreier generator u_p g u_(p^g)^-1 the closure has tested.
    """

    __slots__ = ("base", "gens", "gen_invs", "orbit", "tree", "invs", "tested", "_path_invs",
                 "_reps")

    def __init__(self, base, invs):
        self.base = base
        self.gens, self.gen_invs = [], []
        self.tree = self.orbit = {base: None}
        self.invs = invs
        self.tested = {}
        self._path_invs = {base: []}
        self._reps = {base: None}

    def add_gen(self, g):
        """Append g and extend the tree: first by g from every point already
        in it, then breadth first from the new points under all generators."""
        i = len(self.gens)
        self.gens.append(g)
        self.gen_invs.append(_inverse_of(self.invs, g))
        tree = self.tree
        new = deque()
        for x in list(tree):
            y = g[x]
            if y not in tree:
                tree[y] = (x, i)
                new.append(y)
        _grow(tree, new, [h.__getitem__ for h in self.gens])

    def path(self, point):
        """The generators on the tree path from the base down to point: a word
        whose product is rep(point)."""
        out, edge = [], self.tree[point]
        while edge is not None:
            point, i = edge
            out.append(self.gens[i])
            edge = self.tree[point]
        out.reverse()
        return out

    def path_inv(self, point):
        """Their inverses from point back up to the base: a word whose product
        is rep(point)^-1.  Both words are empty for the base.  The word is
        kept once built, as the inverse of the last edge followed by its
        parent's kept word; callers must not mutate it."""
        kept = self._path_invs
        path = []
        while point not in kept:
            path.append(point)
            point = self.tree[point][0]
        word = kept[point]
        for x in reversed(path):
            word = kept[x] = [self.gen_invs[self.tree[x][1]], *word]
        return word

    def rep(self, point):
        """The transversal element u with base^u = point (None for the base),
        kept once built; only coset_key asks for it."""
        path = []
        while point not in self._reps:
            path.append(point)
            point = self.tree[point][0]
        u = self._reps[point]
        for x in reversed(path):
            s = self.gens[self.tree[x][1]]
            u = self._reps[x] = s if u is None else compose(u, s)
        return u


class StabChain:
    """Base and strong generating set for a permutation group: the input
    generators are sifted in, then every Schreier generator (Seress 2003,
    4.2).  With target_order the closure stops once the order equals it, so
    the order is only a lower bound (ROADMAP item 1), and another order
    raises VerificationFailed; without it the order is proven.  A level's
    base is the first point its first strong generator moves, and only
    coset_key keeps whole transversal elements (_Level.rep).

    known_base lists points that only the identity of the ambient group
    fixes, and every permutation the chain meets must lie in that group
    (Domain.known_base); by default it is every point, and the ambient group
    is Sym(n_points).  _known_rest lists the known-base points that are not
    base points, the only ones a sift still has to follow.
    """

    def __init__(self, gens, n_points, target_order=None, known_base=None):
        self.n = n_points
        self._known_rest = list(range(n_points) if known_base is None else known_base)
        self.levels = []
        self._invs = {}
        for g in gens:
            self._absorb([g])
        self._schreier_closure(target_order)
        if target_order not in (None, self.order()):
            raise VerificationFailed(f"order {self.order()}, target {target_order}")

    # construction ---------------------------------------------------------

    def _add_gen(self, level_idx, g):
        """Record g as a strong generator; it fixes the first level_idx bases,
        so it belongs to the generating sets of levels 0..level_idx."""
        if level_idx == len(self.levels):
            base = next(x for x, y in enumerate(g) if x != y)
            self.levels.append(_Level(base, self._invs))
            if base in self._known_rest:
                self._known_rest.remove(base)
        for lvl in self.levels[: level_idx + 1]:
            lvl.add_gen(g)

    def _sift(self, word, start=0):
        """Sift the product of word through the levels from start on.

        word is a list of permutations, applied left to right, whose product
        fixes the first start base points; the sift extends it in place, so
        a caller hands in a list just built, never a kept word.  Each level
        follows its base point through the word in a loop of its own and
        appends the kept inverse word of the image's tree path (tested for
        orbit membership, and built by path_inv, only when none is kept).
        Returns (residue, level): level is None when the product is in the
        group, else the first depth the residue fails at.  A residue past
        every level fixes every base point, so no product is formed: the one
        verdict follows the points of _known_rest through the word, one by
        one, up to the first that moves.
        """
        levels = self.levels
        for i in range(start, len(levels)):
            lvl = levels[i]
            base = img = lvl.base
            for g in word:
                img = g[img]
            if img == base:
                continue
            kept = lvl._path_invs.get(img)
            if kept is None:
                if img not in lvl.tree:
                    return word, i
                kept = lvl.path_inv(img)
            word += kept
        for x in self._known_rest:
            y = x
            for g in word:
                y = g[y]
            if y != x:
                return word, len(levels)
        return word, None

    def contains(self, g):
        return self._sift([g])[1] is None

    def order(self) -> int:
        return prod(len(lvl.orbit) for lvl in self.levels)

    def _absorb(self, word, start=0):
        """Sift word from level start on and, if it is not in the group,
        record the residue as a strong generator at the level the sift
        stopped at, whose base it moves (or past the last level).  The sift
        extends word in place, so it must be a list of the caller's own."""
        word, idx = self._sift(word, start)
        if idx is None:
            return False
        self._add_gen(idx, _product(word, self.n))
        return True

    def _schreier_closure(self, target_order=None):
        """Sift every Schreier generator u_p g u_(p^g)^-1 of every level below
        that level until none adds a strong generator, or until the order
        equals target_order; each is the word of tree edges
        [*path(p), g, *path_inv(p^g)], built as one fresh list, since the
        sift extends it and the kept word of p^g must stay as it is.

        Each is sifted once: a point starts at its count in the level's
        tested, which persists across calls (normal_closure makes many).
        Tree entries never change and the group of the deeper levels only
        grows, so a tested generator stays in it: sifted again, absorbed or
        not, it would end as a member and add no strong generator."""
        changed = self.order() != target_order
        while changed:
            changed = False
            for i in range(len(self.levels) - 1, -1, -1):
                lvl = self.levels[i]
                tree = lvl.tree
                gens, tested = lvl.gens, lvl.tested
                for p in list(tree):
                    j = tested.get(p, 0)
                    if j == len(gens):
                        continue
                    up = lvl.path(p)
                    while j < len(gens):        # gens may grow meanwhile
                        g = gens[j]
                        pg = g[p]
                        # a tree edge is skipped: u_p g = u_(p^g)
                        if tree[pg] != (p, j) and self._absorb([*up, g, *lvl.path_inv(pg)], i + 1):
                            if self.order() == target_order:
                                return
                            changed = True
                        j += 1
                    tested[p] = j

    # derived data ----------------------------------------------------------

    def strong_gens(self):
        """Every strong generator once: level 0's list (_add_gen), not a copy."""
        return self.levels[0].gens if self.levels else []

    def elements(self, cap=DEFAULT_ENUM_CAP):
        """Iterate all elements as permutation lists: the products of the
        words of tree paths, one path per level, the first level's last, in
        the order enumerate_and_sift walks them."""
        if self.order() > cap:
            raise CapExceeded(f"group order {self.order()} exceeds cap {cap}")
        paths = [[lvl.path(p) for p in lvl.orbit] for lvl in reversed(self.levels)]
        for choice in product(*paths):
            yield _product([g for path in choice for g in path], self.n)

    def coset_key(self, g):
        """Canonical key of the right coset (this group) * g."""
        cur = list(g)
        for lvl in self.levels:
            u = lvl.rep(min(lvl.orbit, key=cur.__getitem__))
            if u is not None:
                cur = compose(u, cur)
        return tuple(cur)


def bsgs(gens, dom: Domain, target_order=None) -> StabChain:
    """Certified stabilizer chain for GroupElem generators acting on dom."""
    perms = dom.perms_of(gens)
    for g, p in zip(gens, perms):
        if is_identity(p) and not g.is_identity():
            raise NotFaithful("a nontrivial generator acts trivially")
    return StabChain(perms, dom.size, target_order=target_order, known_base=dom.known_base)


def enumerate_and_sift(H: StabChain, K: StabChain, cap=DEFAULT_ENUM_CAP) -> list:
    """The elements of H meet K, in the order of H.elements().  H is
    enumerated as words of tree paths, one path per level, the first level's
    last; no transversal element of H is built.  The words share a prefix,
    the paths of the outer levels, that K's first base point is moved
    through once.  Its images under the paths of H's first level grow along
    that level's tree, which lists each parent before its children: the
    image at p is the edge into p applied to the image at p's parent, one
    lookup per point, kept in a list in tree order.  A word is sifted
    through K's chain only when its image lies in K's first orbit, the first
    step of the sift, and only the products of the members are formed."""
    if H.n != K.n:
        raise ValueError("chains act on different domains")
    if H.order() > cap:
        raise CapExceeded(f"group order {H.order()} exceeds cap {cap}")
    outer = [[lvl.path(p) for p in lvl.orbit] for lvl in reversed(H.levels[1:])]
    last, steps = [[]], []
    if H.levels:
        top = H.levels[0]
        at = {p: k for k, p in enumerate(top.tree)}
        last = [top.path(p) for p in top.tree]
        steps = [(at[x], top.gens[i]) for x, i in list(top.tree.values())[1:]]
    first = K.levels[0] if K.levels else None
    out = []
    for choice in product(*outer):
        prefix = [g for path in choice for g in path]
        imgs = last                     # a trivial K has no first orbit
        if first is not None:
            imgs = [_image(first.base, prefix)]
            for k, g in steps:
                imgs.append(g[imgs[k]])
        for path, y in zip(last, imgs):
            if first is None or y in first.tree:
                word = [*prefix, *path]
                m = len(word)
                if K._sift(word)[1] is None:
                    out.append(_product(word[:m], H.n))
    return out


def normal_closure(seeds, conjugators, n_points, cap=DEFAULT_ENUM_CAP, known_base=None):
    """Chain for the normal closure of seeds under the given conjugators,
    grown in place: each conjugate not yet in the chain is absorbed, and the
    chain closed again."""
    chain = StabChain([], n_points, known_base=known_base)
    queue = list(seeds)
    conj_pairs = [(list(c), inverse(c)) for c in conjugators]
    while queue:
        g = queue.pop()
        if not chain._absorb([g]):
            continue
        chain._schreier_closure()
        if chain.order() > cap:
            raise CapExceeded("normal closure exceeded the enumeration cap")
        for c, ci in conj_pairs:
            queue.append(compose(ci, compose(g, c)))
    return chain


def derived_chain(gens_perms, n_points, cap=DEFAULT_ENUM_CAP, known_base=None):
    """Chain for the derived subgroup of the group generated by gens_perms."""
    comms = []
    for i, a in enumerate(gens_perms):
        ai = inverse(a)
        for b in gens_perms[i + 1 :]:
            comms.append(compose(compose(ai, inverse(b)), compose(a, b)))
    return normal_closure(comms, gens_perms, n_points, cap=cap, known_base=known_base)


def solvable_residual(gens, dom: Domain, cap=DEFAULT_ENUM_CAP) -> StabChain:
    """Chain for the last term of the derived series of <gens>; gens are
    GroupElems acting on dom or permutations of its points.  The series
    stops at a term that is trivial or contains every generator of the term
    before it, which is then equal to it."""
    perms = [dom.perm_of(g) if isinstance(g, GroupElem) else g for g in gens]
    while True:
        nxt = derived_chain(perms, dom.size, cap=cap, known_base=dom.known_base)
        if nxt.order() == 1 or all(map(nxt.contains, perms)):
            return nxt
        perms = nxt.strong_gens()
