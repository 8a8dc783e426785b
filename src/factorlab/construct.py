"""Generator sets for the classical groups and the explicit subgroup recipes:
field-extension blow-ups, Sp inside SU, SU inside Omega, trace-form
field-extension subgroups, parabolic residuals, and adjoined semilinear or
reflection elements.

Every construction is gate-checked where it is used: generators must be
isometries of the intended form (plus the Omega-membership test where that
applies), and the BSGS order must equal the order formula whenever the group
is small enough to chain.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    IllegalParameters,
    NotNormalizing,
    NoTower,
    SignParityMismatch,
    UnsupportedParameters,
    VerificationFailed,
)
from .gf import FieldSpec, find_mu_norm_minus_one
from .linalg import (
    GroupElem,
    MatF,
    SpaceFrame,
    in_omega,
    is_isometry,
    is_square,
    quadratic_change_of_basis,
    reflection,
    symplectic_change_of_basis,
    vec_add,
    vec_scale,
)
from .perm import bsgs, nonzero_vectors
from .shapes import classical_order


@dataclass
class GroupPresentationSpec:
    family: str
    n: int
    q: int
    frame: SpaceFrame
    gens: list
    expected_order: int
    name: str = ""

    def validate(self, seed=0, order_cap=10 ** 9):
        """Gate-check: isometry/Omega membership always, BSGS order when small."""
        form = self.frame.form
        for g in self.gens:
            if form is not None and not is_isometry(g, form):
                raise VerificationFailed(f"{self.name or self.family}: non-isometric generator")
            if form is not None and form.kind == "quadratic" and g.frob == 0:
                if not in_omega(g, self.frame):
                    raise VerificationFailed(f"{self.name or self.family}: generator outside Omega")
        if self.expected_order <= order_cap:
            dom = nonzero_vectors(self.frame)
            return bsgs(self.gens, dom, seed=seed, target_order=self.expected_order)
        return None


def rebase(g: GroupElem, P: MatF) -> GroupElem:
    """Rewrite g in the coordinates of the new basis given by the rows of P.

    P's rows express the new basis in the old coordinates; for a semilinear
    g = (M, j) the rebased element is (P^(sigma^j) M P^-1, j).
    """
    M = P.frob(g.frob).mul(g.mat).mul(P.inv())
    return GroupElem(M, g.frob)


def _unit(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def _field_basis(F: FieldSpec):
    """An F_p-basis of F: powers of a primitive element."""
    if F.f == 1:
        return [1]
    if F._exp is None:
        F._build_tables()
    g = F.generator
    out = [1]
    for _ in range(F.f - 1):
        out.append(F.mul(out[-1], g))
    return out


def _coeff_pool(F, rich):
    if rich:
        return [c for c in F.elements() if c]
    pool = [1]
    if F.q > 2:
        if F._exp is None:
            F._build_tables()
        pool.append(F.generator)
        if F.p > 2:
            pool.append(F.neg(1))
    return pool


def _directions(frame, coeffs):
    """Vectors with at most two nonzero coordinates, leading coordinate 1."""
    n = frame.n
    out = [_unit(n, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for c in coeffs:
                v = list(_unit(n, i))
                v[j] = c
                out.append(tuple(v))
    return out


# -- classical generator sets -------------------------------------------------


def _sl_gens(F, n):
    gens = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for t in _field_basis(F):
                rows = [list(_unit(n, r)) for r in range(n)]
                rows[i][j] = t
                gens.append(GroupElem(MatF(F, map(tuple, rows))))
    return gens


def _form_transvection(frame, u, lam):
    """v |-> v + lam beta(v,u) u (symplectic or unitary transvection)."""
    F = frame.field
    form = frame.form
    rows = []
    for i in range(frame.n):
        b = frame.basis(i)
        c = F.mul(lam, form.bilinear(b, u))
        rows.append(vec_add(F, b, vec_scale(F, c, u)))
    return GroupElem(MatF(F, rows))


def _sp_gens(frame, rich=False):
    F = frame.field
    gens, seen = [], set()
    for u in _directions(frame, _coeff_pool(F, rich)):
        for lam in _field_basis(F):
            g = _form_transvection(frame, u, lam)
            if g not in seen and not g.is_identity():
                seen.add(g)
                gens.append(g)
    return gens


def _trace_zero_basis(F: FieldSpec, half: int):
    """F_p-basis of the trace-zero elements of F = GF(q0^2), q0 = p^half."""
    out = []
    echelon = []
    for x in F.elements():
        if x == 0 or F.add(x, F.frobenius(x, half)) != 0:
            continue
        red = list(F.digits(x))
        for pivot, row in echelon:
            if red[pivot]:
                c = (-red[pivot] * pow(row[pivot], -1, F.p)) % F.p
                red = [(a + c * b) % F.p for a, b in zip(red, row)]
        piv = next((i for i, v in enumerate(red) if v), None)
        if piv is not None:
            echelon.append((piv, red))
            out.append(x)
        if len(out) == half:
            break
    return out


def _isotropic_points(frame):
    """All isotropic projective points of a hermitian frame."""
    F = frame.field
    n = frame.n
    out = []
    q = F.q
    for code in range(1, q ** n):
        v = []
        c = code
        for _ in range(n):
            v.append(c % q)
            c //= q
        lead = next(x for x in v if x)
        if lead != 1:
            continue
        v = tuple(v)
        if frame.form.bilinear(v, v) == 0:
            out.append(v)
    return out


def _su_gens(frame, rich=False):
    F = frame.field
    half = F.f // 2
    q0 = F.p ** half
    form = frame.form
    if frame.n == 3 and q0 == 2:
        # SU_3(2) is not generated by its isotropic transvections; it is tiny,
        # so list it outright
        return _small_isometry_group(frame, det_one=True)
    gens, seen = [], set()
    for u in _isotropic_points(frame):
        for lam in _trace_zero_basis(F, half):
            g = _form_transvection(frame, u, lam)
            if g not in seen and not g.is_identity():
                seen.add(g)
                gens.append(g)
    n = frame.n
    if F._exp is None:
        F._build_tables()
    alpha = F.generator
    conj_inv = F.inv(F.frobenius(alpha, half))
    if n % 2 == 0 and n >= 4:
        diag = [alpha, conj_inv, F.inv(alpha), F.frobenius(alpha, half)] + [1] * (n - 4)
        gens.append(GroupElem(MatF(F, [vec_scale(F, diag[i], _unit(n, i)) for i in range(n)])))
    elif n % 2:
        diag = [alpha, conj_inv] + [1] * (n - 3) + [F.pow(alpha, q0 - 1)]
        gens.append(GroupElem(MatF(F, [vec_scale(F, diag[i], _unit(n, i)) for i in range(n)])))
    # a few elements of the unitary group of the first hyperbolic plane,
    # det-corrected into SU (the order gate certifies sufficiency)
    plane = _gu2_elements(F, half)
    step = max(1, len(plane) // 8)
    for g2 in plane[::step]:
        det = g2.det()
        rows = [list(_unit(n, i)) for i in range(n)]
        for i in range(2):
            for j in range(2):
                rows[i][j] = g2.rows[i][j]
        if det != 1:
            if n % 2:
                # scale d by det^-1 (a norm-one scalar, so the form survives)
                rows[n - 1][n - 1] = F.inv(det)
            else:
                mu = next(x for x in F.elements() if x and F.pow(x, q0 - 1) == det)
                rows[2][2] = mu
                rows[3][3] = F.inv(F.frobenius(mu, half))
        gens.append(GroupElem(MatF(F, map(tuple, rows))))
    return gens


_SMALL_GROUP_CACHE = {}


def _small_isometry_group(frame, det_one=False):
    """The full isometry group of a tiny frame, in the lexicographic order of
    the matrix entries (cached).

    Row k of an isometry is the image of e_k, so the rows are chosen one at
    a time and a partial matrix is kept only while beta(row_i, row_k) is the
    Gram entry (i, k) for every i <= k and, for a quadratic form,
    Q(row_k) = Q(e_k).
    """
    F = frame.field
    n = frame.n
    form = frame.form
    key = (F.key, n, form.kind, det_one)
    if key in _SMALL_GROUP_CACHE:
        return _SMALL_GROUP_CACHE[key]
    from itertools import product

    vectors = list(product(F.elements(), repeat=n))
    gram = form.gram.rows

    def fits(rows, v):
        k = len(rows)
        if form.kind == "quadratic" and form.quadratic(v) != form.qdiag[k]:
            return False
        return all(form.bilinear(u, v) == gram[i][k] for i, u in enumerate(rows + [v]))

    out = []

    def extend(rows):
        if len(rows) < n:
            for v in vectors:
                if fits(rows, v):
                    extend(rows + [v])
            return
        m = MatF(F, rows)
        if m.det() == 0 or (det_one and m.det() != 1):
            return
        g = GroupElem(m)
        if is_isometry(g, form):
            out.append(g)

    extend([])
    _SMALL_GROUP_CACHE[key] = out
    return out


_GU2_CACHE = {}


def _gu2_elements(F, half):
    """All of GU_2 on a hyperbolic plane (tiny; used to top up the SU gens)."""
    key = F.key
    if key in _GU2_CACHE:
        return _GU2_CACHE[key]
    out = []
    for a in F.elements():
        for b in F.elements():
            for c in F.elements():
                for d in F.elements():
                    m = MatF(F, ((a, b), (c, d)))
                    if m.det() == 0:
                        continue
                    conj = lambda x: F.frobenius(x, half)
                    # preserve beta(x, y) = x1 conj(y2) + x2 conj(y1)
                    if (
                        F.add(F.mul(a, conj(b)), F.mul(b, conj(a))) == 0
                        and F.add(F.mul(c, conj(d)), F.mul(d, conj(c))) == 0
                        and F.add(F.mul(a, conj(d)), F.mul(b, conj(c))) == 1
                    ):
                        out.append(m)
    _GU2_CACHE[key] = out
    return out


def _omega_gens(frame, rich=False):
    """Products of two reflections with square spinor contribution."""
    F = frame.field
    form = frame.form
    pool = _coeff_pool(F, rich)
    cands = [w for w in _directions(frame, pool) if form.quadratic(w) != 0]
    if len(cands) < 2 * frame.n:
        # plus-type frames in characteristic 2 have no nonsingular vectors of
        # support <= 2 beyond e_i + f_i; widen to support three
        n = frame.n
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    for c1 in pool:
                        for c2 in pool:
                            v = [0] * n
                            v[i], v[j], v[k] = 1, c1, c2
                            v = tuple(v)
                            if form.quadratic(v) != 0:
                                cands.append(v)
    gens, seen = [], set()
    if F.p == 2:
        pools = [cands]
    else:
        pools = [
            [w for w in cands if is_square(F, form.quadratic(w))],
            [w for w in cands if not is_square(F, form.quadratic(w))],
        ]
    for pool in pools:
        if not pool:
            continue
        ra = reflection(frame, pool[0])
        for w in pool[1:]:
            g = ra * reflection(frame, w)
            if g not in seen and not g.is_identity():
                seen.add(g)
                gens.append(g)
    return gens


_FRAME_SIGN = {"Omega+": "+", "Omega-": "-", "OmegaOdd": "odd"}


def classical_frame(family: str, n: int, q: int) -> SpaceFrame:
    if family in ("SL", "GL"):
        F = FieldSpec.get(q)
        return SpaceFrame(F, n, None, tuple(f"v{i+1}" for i in range(n)))
    if family == "Sp":
        if n % 2:
            raise IllegalParameters("Sp needs even dimension")
        return SpaceFrame.symplectic(FieldSpec.get(q), n // 2)
    if family == "SU":
        sub = FieldSpec.get(q)
        return SpaceFrame.hermitian(sub.extend(2), n)
    if family in _FRAME_SIGN:
        return SpaceFrame.quadratic(FieldSpec.get(q), n, _FRAME_SIGN[family])
    raise UnsupportedParameters(f"no frame for family {family!r}")


def gens_classical(family: str, n: int, q: int, rich=False) -> GroupPresentationSpec:
    """Generators for a classical group over its canonical frame."""
    frame = classical_frame(family, n, q)
    if family == "SL":
        gens = _sl_gens(frame.field, n)
    elif family == "Sp":
        gens = _sp_gens(frame, rich)
    elif family == "SU":
        gens = _su_gens(frame, rich)
    elif family in _FRAME_SIGN:
        gens = _omega_gens(frame, rich)
    else:
        raise UnsupportedParameters(f"no generators for family {family!r}")
    expected = classical_order(family, n, q)
    return GroupPresentationSpec(family, n, q, frame, gens, expected, f"{family}({n},{q})")


# -- field-extension blow-up ---------------------------------------------------


def _ext_power_basis(ext: FieldSpec, sub: FieldSpec):
    b = ext.f // sub.f
    if ext._exp is None:
        ext._build_tables()
    w = ext.generator
    wpow = [1]
    for _ in range(b - 1):
        wpow.append(ext.mul(wpow[-1], w))
    return wpow


def _subfield_coords(ext: FieldSpec, sub: FieldSpec):
    """Map each x in ext to its coordinates over sub w.r.t. the power basis."""
    wpow = _ext_power_basis(ext, sub)
    b = len(wpow)
    cols = []
    for t in range(b):
        for s in _field_basis(sub):
            cols.append((t, s, ext.mul(ext.embed(s, sub), wpow[t])))
    table = {}
    for x in ext.elements():
        rows = [[0] * len(cols) + [d] for d in ext.digits(x)]
        for ci, (_, _, val) in enumerate(cols):
            for ri, d in enumerate(ext.digits(val)):
                rows[ri][ci] = d
        sol = _solve_fp(rows, ext.p)
        out = [0] * b
        for ci, (t, s, _) in enumerate(cols):
            if sol[ci]:
                out[t] = sub.add(out[t], sub.mul(sol[ci] % sub.p, s))
        table[x] = tuple(out)
    return table, wpow


def _solve_fp(rows, p):
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) - 1
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                fct = rows[i][c]
                rows[i] = [(x - fct * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][ncols] % p:
            raise VerificationFailed("inconsistent blow-up coordinate system")
    sol = [0] * ncols
    for i, c in enumerate(pivots):
        sol[c] = rows[i][ncols] % p
    return sol


_COORD_CACHE = {}


def _coords_for(ext, sub):
    key = (ext.key, sub.key)
    if key not in _COORD_CACHE:
        ext.register_subfield(sub)
        _COORD_CACHE[key] = _subfield_coords(ext, sub)
    return _COORD_CACHE[key]


def blowup_elem(g: GroupElem, sub: FieldSpec) -> GroupElem:
    """Rewrite a map over GF(q^b) as one over the subfield GF(q); the big
    basis vector (s, t) is w^t E_s with w the power-basis generator."""
    ext = g.owner
    if ext.f % sub.f or ext.p != sub.p:
        raise NoTower(f"{sub} is not a subfield of {ext}")
    coords, wpow = _coords_for(ext, sub)
    b = len(wpow)
    a = g.n
    j = g.frob
    rows_big = []
    for s in range(a):
        row_s = g.mat.rows[s]
        for t in range(b):
            scale = ext.frobenius(wpow[t], j)
            big_row = []
            for u in range(a):
                big_row.extend(coords[ext.mul(scale, row_s[u])])
            rows_big.append(tuple(big_row))
    return GroupElem(MatF(sub, rows_big), j % sub.f)


def unblow_vector(ext: FieldSpec, sub: FieldSpec, v_big):
    """Reassemble a GF(q)^(ab) row vector into the GF(q^b)^a vector it encodes."""
    wpow = _ext_power_basis(ext, sub)
    b = len(wpow)
    a = len(v_big) // b
    out = []
    for s in range(a):
        acc = 0
        for t in range(b):
            x = v_big[s * b + t]
            if x:
                acc = ext.add(acc, ext.mul(ext.embed(x, sub), wpow[t]))
        out.append(acc)
    return tuple(out)


# -- named recipes ------------------------------------------------------------


def sp_in_su(m: int, q: int) -> GroupPresentationSpec:
    """Sp_2m(q) inside SU_2m(q), via the basis mu e_i, f_i with mu^(q-1) = -1."""
    sub = FieldSpec.get(q)
    ext = sub.extend(2)
    mu = find_mu_norm_minus_one(ext, sub)
    frame_u = SpaceFrame.hermitian(ext, 2 * m)
    sp = gens_classical("Sp", 2 * m, q)
    n = 2 * m
    # rows of P are the symplectic basis (mu e_i, f_i) in hermitian coordinates
    P = MatF(ext, [vec_scale(ext, mu if i % 2 == 0 else 1, _unit(n, i)) for i in range(n)])
    Pherm = P.inv()  # hermitian coordinates from symplectic ones
    gens = []
    for g in sp.gens:
        lifted = MatF(ext, [[ext.embed(x, sub) for x in row] for row in g.mat.rows])
        gens.append(rebase(GroupElem(lifted), Pherm))
    return GroupPresentationSpec(
        "SpInSU", n, q, frame_u, gens, classical_order("Sp", n, q), f"Sp({n},{q})<SU({n},{q})"
    )


def su_in_omega(m: int, q: int, sign: str) -> GroupPresentationSpec:
    """SU_m(q) blown up over GF(q) inside Omega_2m^sign(q), via Q(v) = beta#(v,v);
    sign is '-' for odd m and '+' for even m."""
    expected_sign = "-" if m % 2 else "+"
    if sign != expected_sign:
        raise SignParityMismatch(f"SU_{m}({q}) embeds in type {expected_sign}, not {sign}")
    sub = FieldSpec.get(q)
    su = gens_classical("SU", m, q)
    ext = su.frame.field
    hermitian = su.frame.form
    big = [blowup_elem(g, sub) for g in su.gens]
    n = 2 * m
    frame_std = SpaceFrame.quadratic(sub, n, sign)

    def qfun(v_big):
        v = unblow_vector(ext, sub, v_big)
        return ext.restrict(hermitian.bilinear(v, v), sub)

    P, found = quadratic_change_of_basis(sub, qfun, n, target_mu=frame_std.mu)
    if found != sign:
        raise SignParityMismatch(f"blow-up produced type {found}, wanted {sign}")
    gens = [rebase(g, P) for g in big]
    return GroupPresentationSpec(
        "SUInOmega", n, q, frame_std, gens,
        classical_order("SU", m, q), f"SU({m},{q})<Omega{sign}({n},{q})",
    )


def ext_field_subgroup(ambient: str, a: int, b: int, q: int, sign: str = None):
    """Field-extension subgroup via the trace-composed form.

    'Sp':    Sp_2a(q^b) <= Sp_2ab(q), beta = Tr o beta_(b).
    'Omega': Omega_2a^sign(q^b) <= Omega_2ab^eps(q), Q = Tr o Q_(b)^sign.
    Returns (spec, inner_presentation).
    """
    sub = FieldSpec.get(q)
    ext = sub.extend(b)
    n = 2 * a * b
    if ambient == "Sp":
        inner = gens_classical("Sp", 2 * a, ext.q)
        big = [blowup_elem(g, sub) for g in inner.gens]
        bil_ext = inner.frame.form.bilinear
        unb = [unblow_vector(ext, sub, _unit(n, i)) for i in range(n)]
        gram = MatF(
            sub,
            [[ext.trace_to(bil_ext(unb[i], unb[j]), sub) for j in range(n)] for i in range(n)],
        )
        P = symplectic_change_of_basis(sub, gram)
        gens = [rebase(g, P) for g in big]
        spec = GroupPresentationSpec(
            "SpExtField", n, q, SpaceFrame.symplectic(sub, n // 2), gens,
            inner.expected_order, f"Sp({2*a},{ext.q})<Sp({n},{q})",
        )
    elif ambient == "Omega":
        if sign not in ("+", "-"):
            raise IllegalParameters("Omega ext-field subgroup needs a sign")
        inner = gens_classical("Omega" + sign, 2 * a, ext.q)
        big = [blowup_elem(g, sub) for g in inner.gens]
        qf_ext = inner.frame.form.quadratic
        frame_minus = SpaceFrame.quadratic(sub, n, "-")

        def qfun(v_big):
            return ext.trace_to(qf_ext(unblow_vector(ext, sub, v_big)), sub)

        P, found = quadratic_change_of_basis(sub, qfun, n, target_mu=frame_minus.mu)
        frame_std = frame_minus if found == "-" else SpaceFrame.quadratic(sub, n, "+")
        gens = [rebase(g, P) for g in big]
        spec = GroupPresentationSpec(
            "OmegaExtField", n, q, frame_std, gens, inner.expected_order,
            f"Omega{sign}({2*a},{ext.q})<Omega{found}({n},{q})",
        )
    else:
        raise UnsupportedParameters(f"no ext-field recipe for ambient {ambient!r}")

    def lift(g_ext: GroupElem) -> GroupElem:
        """Blow up a further element of the small group into the big frame."""
        return rebase(blowup_elem(g_ext, sub), P)

    return spec, inner, lift


def parabolic_p1_sp_residual(m: int, q: int):
    """Generators of R:(Sp_2m-2(q)) inside Sp_2m(q), the point-stabilizer
    radical and its Levi block; the solvable residual of this group is
    P_1[Sp_2m(q)]^(inf) = [q^(2m-1)] : Sp_2m-2(q)'.

    Returns (spec for R:S, expected residual order)."""
    F = FieldSpec.get(q)
    n = 2 * m
    k = m - 1
    frame_std = SpaceFrame.symplectic(F, m)
    # section basis: x, mid_1..mid_2k, y -> ambient e1, e2..em, f2..fm, f1
    perm = [0] + [2 * (i + 1) for i in range(k)] + [2 * (i + 1) + 1 for i in range(k)] + [1]
    P = MatF(F, [_unit(n, p) for p in perm])

    def bmat(u):
        # (B_k u^T) for the middle pairing beta(mid_i, mid_{k+j}) = delta_ij
        out = [0] * (2 * k)
        for i in range(k):
            out[i] = u[k + i]
            out[k + i] = F.neg(u[i])
        return out

    gens_sec = []
    for bval in _field_basis(F):
        rows = [list(_unit(n, i)) for i in range(n)]
        rows[n - 1][0] = bval
        gens_sec.append(rows)
    for i in range(2 * k):
        for t in _field_basis(F):
            u = [0] * (2 * k)
            u[i] = t
            mb = [F.neg(x) for x in bmat(u)]
            rows = [list(_unit(n, r)) for r in range(n)]
            for r in range(2 * k):
                rows[1 + r][0] = mb[r]
            for c in range(2 * k):
                rows[n - 1][1 + c] = u[c]
            gens_sec.append(rows)
    if k:
        midsp = gens_classical("Sp", 2 * k, q)
        gp = [2 * i for i in range(k)] + [2 * i + 1 for i in range(k)]
        Pm = MatF(F, [_unit(2 * k, p) for p in gp])
        for g in midsp.gens:
            gm = rebase(g, Pm.inv()).mat
            rows = [list(_unit(n, r)) for r in range(n)]
            for r in range(2 * k):
                for c in range(2 * k):
                    rows[1 + r][1 + c] = gm.rows[r][c]
            gens_sec.append(rows)
    gens = [rebase(GroupElem(MatF(F, map(tuple, rows))), P.inv()) for rows in gens_sec]
    full = q ** (2 * m - 1) * classical_order("Sp", 2 * m - 2, q)
    residual = q ** (2 * m - 1) * classical_order("Sp", 2 * m - 2, q, primed=True)
    spec = GroupPresentationSpec(
        "ParabolicP1Sp", n, q, frame_std, gens, full, f"R:Sp({2*m-2},{q})<Sp({n},{q})"
    )
    return spec, residual


def pm_residual(family: str, m: int, q: int, include_radical=True) -> GroupPresentationSpec:
    """Full-radical residual R:T of the stabilizer of a maximal totally
    singular subspace (for SL: of a nonzero vector, with m the dimension).
    With include_radical=False only the Levi block T is returned."""
    F = FieldSpec.get(q)
    if family == "SL":
        n = m
        gens = []
        for i in range(1, n):
            for t in _field_basis(F):
                rows = [list(_unit(n, r)) for r in range(n)]
                rows[i][0] = t
                gens.append(GroupElem(MatF(F, map(tuple, rows))))
        for g in _sl_gens(F, n - 1):
            rows = [list(_unit(n, r)) for r in range(n)]
            for r in range(n - 1):
                for c in range(n - 1):
                    rows[1 + r][1 + c] = g.mat.rows[r][c]
            gens.append(GroupElem(MatF(F, map(tuple, rows))))
        expected = q ** (n - 1) * classical_order("SL", n - 1, q)
        return GroupPresentationSpec(
            "PmResidual", n, q, classical_frame("SL", n, q), gens, expected,
            f"q^{n-1}:SL({n-1},{q})",
        )
    if family == "OmegaOdd":
        return _pm_residual_omega_odd(F, m, q)

    if family == "Sp":
        EF = F
        n = 2 * m
        nmats = []
        for i in range(m):
            for j in range(i, m):
                for t in _field_basis(F):
                    N = [[0] * m for _ in range(m)]
                    N[i][j] = t
                    N[j][i] = t
                    nmats.append(N)
        levi = _sl_gens(F, m)
        radical = q ** (m * (m + 1) // 2)
        levi_order = classical_order("SL", m, q)
        frame_std = SpaceFrame.symplectic(F, m)
    elif family == "SU":
        sub = F
        EF = sub.extend(2)
        n = 2 * m
        half = EF.f // 2
        nmats = []
        for i in range(m):
            for t in _trace_zero_basis(EF, half):
                N = [[0] * m for _ in range(m)]
                N[i][i] = t
                nmats.append(N)
        for i in range(m):
            for j in range(i + 1, m):
                for t in _field_basis(EF):
                    N = [[0] * m for _ in range(m)]
                    N[i][j] = t
                    N[j][i] = EF.neg(EF.frobenius(t, half))
                    nmats.append(N)
        levi = _sl_gens(EF, m)
        radical = q ** (m * m)
        levi_order = classical_order("SL", m, EF.q)
        frame_std = SpaceFrame.hermitian(EF, n)
    elif family == "Omega+":
        EF = F
        n = 2 * m
        nmats = []
        for i in range(m):
            for j in range(i + 1, m):
                for t in _field_basis(F):
                    N = [[0] * m for _ in range(m)]
                    N[i][j] = t
                    N[j][i] = F.neg(t)
                    nmats.append(N)
        levi = _sl_gens(F, m)
        radical = q ** (m * (m - 1) // 2)
        levi_order = classical_order("SL", m, q)
        frame_std = SpaceFrame.quadratic(F, n, "+")
    else:
        raise UnsupportedParameters(f"no pm_residual for family {family!r}")

    half = EF.f // 2 if family == "SU" else 0
    gens_grouped = []
    if not include_radical:
        nmats = []
        radical = 1
    for N in nmats:
        rows = [list(_unit(n, r)) for r in range(n)]
        for i in range(m):
            for j in range(m):
                if N[i][j]:
                    rows[i][m + j] = N[i][j]
        gens_grouped.append(rows)
    for g in levi:
        A = g.mat
        if family == "SU":
            B = A.map_entries(lambda x: EF.frobenius(x, half)).inv().transpose()
        else:
            B = A.inv().transpose()
        rows = [list(_unit(n, r)) for r in range(n)]
        for i in range(m):
            for j in range(m):
                rows[i][j] = A.rows[i][j]
                rows[m + i][m + j] = B.rows[i][j]
        gens_grouped.append(rows)
    gp = [2 * i for i in range(m)] + [2 * i + 1 for i in range(m)]
    P = MatF(EF, [_unit(n, p) for p in gp])
    gens = [rebase(GroupElem(MatF(EF, map(tuple, rows))), P.inv()) for rows in gens_grouped]
    return GroupPresentationSpec(
        "PmResidual", n, q, frame_std, gens, radical * levi_order,
        f"pm_residual({family},{m},{q})",
    )


def _pm_residual_omega_odd(F, m, q):
    if F.p == 2:
        raise IllegalParameters("odd-dimensional orthogonal groups need odd q")
    n = 2 * m + 1
    gens_grouped = []

    def unip(w, A):
        # grouped basis (e_1..e_m, d, f_1..f_m), Q(x, c, y) = c^2 + x.y
        rows = [list(_unit(n, r)) for r in range(n)]
        for i in range(m):
            rows[m][i] = F.neg(F.add(w[i], w[i]))
        for j in range(m):
            rows[m + 1 + j][m] = w[j]
            for i in range(m):
                s = F.sub(A[i][j], F.mul(w[i], w[j]))
                if s:
                    rows[m + 1 + j][i] = s
        return rows

    zero = [[0] * m for _ in range(m)]
    for i in range(m):
        for t in _field_basis(F):
            w = [0] * m
            w[i] = t
            gens_grouped.append(unip(w, zero))
    for i in range(m):
        for j in range(i + 1, m):
            for t in _field_basis(F):
                A = [[0] * m for _ in range(m)]
                A[i][j] = t
                A[j][i] = F.neg(t)
                gens_grouped.append(unip([0] * m, A))
    for g in _sl_gens(F, m):
        A = g.mat
        B = A.inv().transpose()
        rows = [list(_unit(n, r)) for r in range(n)]
        for i in range(m):
            for j in range(m):
                rows[i][j] = A.rows[i][j]
                rows[m + 1 + i][m + 1 + j] = B.rows[i][j]
        gens_grouped.append(rows)
    perm = [2 * i for i in range(m)] + [n - 1] + [2 * i + 1 for i in range(m)]
    P = MatF(F, [_unit(n, p) for p in perm])
    gens = [rebase(GroupElem(MatF(F, map(tuple, rows))), P.inv()) for rows in gens_grouped]
    expected = q ** (m * (m - 1) // 2) * q ** m * classical_order("SL", m, q)
    return GroupPresentationSpec(
        "PmResidual", n, q, SpaceFrame.quadratic(F, n, "odd"), gens, expected,
        f"pm_residual(OmegaOdd,{m},{q})",
    )


# -- distinguished elements ----------------------------------------------------


def gamma_swap(frame: SpaceFrame) -> GroupElem:
    """The involution swapping e_i and f_i for all hyperbolic pairs."""
    n = frame.n
    rows = []
    for i in range(n):
        if i % 2 == 0 and i + 1 < n:
            rows.append(_unit(n, i + 1))
        elif i % 2 == 1:
            rows.append(_unit(n, i - 1))
        else:
            rows.append(_unit(n, i))
    return GroupElem(MatF(frame.field, rows))


def frobenius_elem(frame: SpaceFrame, j: int = 1) -> GroupElem:
    return GroupElem(MatF.identity(frame.field, frame.n), j)


def twisted_frobenius(frame: SpaceFrame, j: int = 1) -> GroupElem:
    """A semilinear g with Q(v^g) = Q(v)^(p^j) exactly.

    When the frame's form has all basis values in the prime field the plain
    coordinatewise Frobenius works; otherwise (minus type over GF(4), say,
    where Q(f_m) = mu is not fixed by x -> x^p) the coset representative is
    corrected by a Witt equivalence."""
    F = frame.field
    plain = frobenius_elem(frame, j)
    if is_isometry(plain, frame.form):
        return plain
    if frame.form.kind != "quadratic":
        raise UnsupportedParameters("twisted Frobenius only implemented for quadratic frames")
    from .linalg import vec_frob

    def r_form(u):
        pre = vec_frob(F, u, -j)
        return F.frobenius(frame.form.quadratic(pre), j)

    CB, sign = quadratic_change_of_basis(F, r_form, frame.n, target_mu=frame.mu)
    if sign != frame.form.sign:
        raise VerificationFailed("twisted form changed type (impossible)")
    g = GroupElem(CB.inv(), j)
    if not is_isometry(g, frame.form):
        raise VerificationFailed("twisted Frobenius gate failed")
    return g


def sigma_swap(frame: SpaceFrame) -> GroupElem:
    """Swap e_i with e_{l+i} and f_i with f_{l+i}, where m = 2l."""
    n = frame.n
    rows = [_unit(n, (i + n // 2) % n) for i in range(n)]
    return GroupElem(MatF(frame.field, rows))


def adjoin(gens, elem: GroupElem, dom=None, expected_index=None, seed=0):
    """Extend a generating set; with expected_index, certify that the result
    enlarges <gens> by exactly that index (NotNormalizing otherwise)."""
    out = list(gens) + [elem]
    if expected_index is not None:
        if dom is None:
            raise IllegalParameters("index check needs a domain")
        base = bsgs(gens, dom, seed=seed)
        bigger = bsgs(out, dom, seed=seed)
        if bigger.order() != base.order() * expected_index:
            raise NotNormalizing(
                f"adjoined element gives index {bigger.order() / base.order():g}, "
                f"expected {expected_index}")
    return out
