"""Generator sets for the classical groups and the explicit subgroup recipes:
field-extension blow-ups, Sp inside SU, SU inside Omega, trace-form
field-extension subgroups and parabolic residuals, plus the seeds of the
orbit domains the TIER-B recipes use.

Matrix generators are written in one vocabulary: _elem is the identity with
some entries and square blocks set, and _regroup rewrites elements from a
grouped basis (e_1..e_m, f_1..f_m) into the frame's.  The radical:Levi
builders (pm_residual, parabolic_p1_sp_residual) are built from these two.

Every form is a FormSpec: blown_up_form builds Tr o beta on GF(q)^(ab) once
from the blown-up basis, and twisted_frobenius moves each coefficient of its
frame's form by sigma^j, before the Witt decomposition (standard_basis).

GroupPresentationSpec.validate is the gate: generators must be isometries of
the intended form (plus the Omega-membership test where that applies), and
the BSGS order must equal the order formula whenever the group is small
enough to chain.  Only the tests call it; verify checks |H| by H's chain but
never checks that H's generators lie in G (ROADMAP item 2).
"""

from __future__ import annotations

from .errors import (
    DEFAULT_CAPS,
    IllegalParameters,
    NoTower,
    SignParityMismatch,
    UnsupportedParameters,
    VerificationFailed,
)
from .gf import FieldSpec, find_irreducible_mu, find_mu_norm_minus_one
from .linalg import (
    FormSpec,
    GroupElem,
    MatF,
    SpaceFrame,
    in_omega,
    is_isometry,
    is_square,
    reflection,
    row_reduce,
    standard_basis,
    unit_vector,
    vec_add,
    vec_mat,
    vec_scale,
)
from .perm import _decode, bsgs, form_values, nonzero_vectors
from .shapes import classical_order


class GroupPresentationSpec:
    """A group given by its generators on the space of frame, with the order
    the formula gives it."""

    def __init__(self, family, n, q, frame, gens, expected_order, name=""):
        self.family = family
        self.n = n
        self.q = q
        self.frame = frame
        self.gens = gens
        self.expected_order = expected_order
        self.name = name

    def validate(self, order_cap=DEFAULT_CAPS["max_group"]):
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
            return bsgs(self.gens, dom, target_order=self.expected_order)
        return None


def rebase(gens, P: MatF, P_inv: MatF = None) -> list:
    """Rewrite each g in gens in the coordinates of the new basis given by
    the rows of P; P_inv, when the caller has it, is P^-1.

    P's rows express the new basis in the old coordinates; for a semilinear
    g = (M, j) the rebased element is (P^(sigma^j) M P^-1, j).
    """
    P_inv = P.inv() if P_inv is None else P_inv
    return [GroupElem(P.frob(g.frob).mul(g.mat).mul(P_inv), g.frob) for g in gens]


def _elem(F, n, entries=(), blocks=()):
    """The identity of GL(n, F) with the matrix B of each (row, col, B) in
    blocks placed with its top left corner at (row, col), then each entry
    (row, col, x) set."""
    rows = [list(unit_vector(n, r)) for r in range(n)]
    for r, c, B in blocks:
        for i, brow in enumerate(B.rows):
            rows[r + i][c:c + len(brow)] = brow
    for r, c, x in entries:
        rows[r][c] = x
    return GroupElem(MatF(F, rows))


def _regroup(F, order, gens):
    """Rewrite elements written in a grouped basis into the frame's basis,
    where grouped basis vector k is the frame's basis vector order[k]."""
    back = sorted(range(len(order)), key=order.__getitem__)
    return [GroupElem(MatF(F, [[g.mat.rows[a][b] for b in back] for a in back]), g.frob)
            for g in gens]


def _powers(F: FieldSpec, k: int):
    """1, w, ..., w^(k-1) for the primitive element w of F; for k = f, an
    F_p-basis of F."""
    out = [1]
    for _ in range(k - 1):
        out.append(F.mul(out[-1], F.primitive()))
    return out


def _coeff_pool(F):
    """1, a primitive element and -1: the last coefficients of the chain
    directions of the Omega generating sets."""
    pool = [1]
    if F.q > 2:
        pool.append(F.primitive())
        if F.p > 2:
            pool.append(F.neg(1))
    return pool


def _chain_directions(n, pool, width):
    """Directions along the chain b_1, ..., b_n of the frame's basis: every
    b_i, and b_i + ... + b_(i+k-2) + c b_(i+k-1) for 2 <= k <= width and c
    in pool, so each direction has consecutive support of length <= width."""
    out = [unit_vector(n, i) for i in range(n)]
    for k in range(2, width + 1):
        for i in range(n - k + 1):
            for c in pool:
                out.append((0,) * i + (1,) * (k - 1) + (c,) + (0,) * (n - i - k))
    return out


# -- classical generator sets -------------------------------------------------


def _sl_gens(F, n):
    return [_elem(F, n, [(i, j, t)])
            for i in range(n) for j in range(n) if i != j for t in _powers(F, F.f)]


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


def _sp_gens(frame):
    """The transvections T_u(lam), u a chain direction b_i or b_i + b_(i+1)
    and lam an F_p-basis element of F: (2n - 1) f elements, which generate
    Sp(n, q) (Taylor, The Geometry of the Classical Groups, 1992, ch. 8).
    The tests prove by untargeted chains that each set in use generates the
    whole group."""
    F = frame.field
    return [_form_transvection(frame, u, lam)
            for u in _chain_directions(frame.n, [1], 2) for lam in _powers(F, F.f)]


def _trace_zero_basis(F: FieldSpec, half: int):
    """F_p-basis of the trace-zero elements of F = GF(q0^2), q0 = p^half: the
    first ones in element order that are independent over F_p."""
    zero = [x for x in F.elements() if x and F.add(x, F.frobenius(x, half)) == 0]
    kept = row_reduce(FieldSpec.get(F.p), [F.digits(x) for x in zero])[1]
    return [zero[i] for i in kept]


def _isotropic_points(frame):
    """All isotropic projective points of a hermitian frame, each as its
    vector with leading coordinate 1, in ascending code order."""
    out = []
    for code, value in enumerate(form_values(frame)):
        if value or not code:
            continue
        v = _decode(frame, code)
        if next(x for x in v if x) == 1:
            out.append(v)
    return out


# two elements of order 4 that generate SU_3(2), in the frame
# classical_frame("SU", 3, 2)
_SU32_GENS = (((0, 2, 0), (2, 3, 1), (0, 3, 2)), ((0, 2, 0), (2, 3, 2), (0, 2, 2)))


def _su_gens(frame):
    """A small generating set of SU(n, q) over a hermitian frame.

    n = 2: every isotropic transvection (the root groups of SU_2(q) = SL_2(q)).
    n >= 3: four isotropic transvections, evenly strided through the list of
    all of them, and one diagonal element of determinant 1.  SU_3(2) is not
    generated by its transvections; two of its elements of order 4 are used
    instead.  The tests prove by untargeted chains that each set in use
    generates the whole group.
    """
    F = frame.field
    n = frame.n
    half = F.f // 2
    q0 = F.p ** half
    if n == 3 and q0 == 2:
        return [GroupElem(MatF(F, rows)) for rows in _SU32_GENS]
    lams = _trace_zero_basis(F, half)
    pairs = [(u, lam) for u in _isotropic_points(frame) for lam in lams]
    if n == 2:
        return [_form_transvection(frame, u, lam) for u, lam in pairs]
    gens = [_form_transvection(frame, u, lam)
            for u, lam in pairs[:: max(1, len(pairs) // 4)][:4]]
    alpha = F.primitive()
    conj_inv = F.inv(F.frobenius(alpha, half))
    if n % 2:
        diag = [alpha, conj_inv] + [1] * (n - 3) + [F.pow(alpha, q0 - 1)]
    else:
        diag = [alpha, conj_inv, F.inv(alpha), F.frobenius(alpha, half)] + [1] * (n - 4)
    gens.append(_elem(F, n, [(i, i, x) for i, x in enumerate(diag)]))
    return gens


def _omega_gens(frame):
    """Products r_w0 r_w of two reflections, w running over the nonsingular
    chain directions b_i, b_i + c b_(i+1) and b_i + b_(i+1) + c b_(i+2) (c in
    the coefficient pool): at most n - 1 + (2n - 3) |pool| elements (Taylor,
    The Geometry of the Classical Groups, 1992, ch. 11).  For odd q, w0 and w
    share the square class of Q(w), so that every product lies in Omega.
    Support three links the hyperbolic pairs, whose vectors f_i + c e_(i+1)
    are singular.  The tests prove by untargeted chains that each set in use
    generates the whole group."""
    F = frame.field
    form = frame.form
    dirs = _chain_directions(frame.n, _coeff_pool(F), 3)
    cands = [w for w in dirs if form.quadratic(w) != 0]
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
    if (frame.n, F.q, form.sign) == (4, 2, "+"):
        # O+(4, 2) is not generated by its reflections, and their products
        # reach only half of Omega+(4, 2); the Siegel element e_1 -> e_1 + f_2,
        # e_2 -> e_2 + f_1 of pm_residual("Omega+", 2, 2) gives the rest (in
        # the frame's basis e_1, f_1, e_2, f_2)
        gens.append(_elem(F, 4, [(0, 3, 1), (2, 1, 1)]))
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


def gens_classical(family: str, n: int, q: int) -> GroupPresentationSpec:
    """Generators for a classical group over its canonical frame: the root
    elements of SL, a few elements of SU (`_su_gens`), and for Sp and Omega
    short sets along the chain of adjacent basis directions (`_sp_gens`,
    `_omega_gens`).  A test proves that each set in use generates the whole
    group."""
    frame = classical_frame(family, n, q)
    if family == "SL":
        gens = _sl_gens(frame.field, n)
    elif family == "Sp":
        gens = _sp_gens(frame)
    elif family == "SU":
        gens = _su_gens(frame)
    elif family in _FRAME_SIGN:
        gens = _omega_gens(frame)
    else:
        raise UnsupportedParameters(f"no generators for family {family!r}")
    expected = classical_order(family, n, q)
    return GroupPresentationSpec(family, n, q, frame, gens, expected, f"{family}({n},{q})")


# -- field-extension blow-up ---------------------------------------------------


def _subfield_coords(ext: FieldSpec, sub: FieldSpec):
    """Map each x in ext to its coordinates over sub w.r.t. the power basis."""
    wpow = _powers(ext, ext.f // sub.f)
    b = len(wpow)
    cols = []
    for t in range(b):
        for s in _powers(sub, sub.f):
            cols.append((t, s, ext.mul(ext.embed(s, sub), wpow[t])))
    # the products s w^t are an F_p-basis of ext: one inverse over F_p turns
    # the digits of any x into its coefficients on them
    Fp = FieldSpec.get(ext.p)
    to_coeffs = MatF(Fp, [ext.digits(val) for _, _, val in cols]).inv()
    table = {}
    for x in ext.elements():
        out = [0] * b
        for (t, s, _), c in zip(cols, vec_mat(Fp, ext.digits(x), to_coeffs)):
            if c:
                out[t] = sub.add(out[t], sub.mul(c, s))
        table[x] = tuple(out)
    return table, wpow


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
    wpow = _powers(ext, ext.f // sub.f)
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


def blown_up_form(form: FormSpec, sub: FieldSpec) -> FormSpec:
    """The form Tr o beta on the GF(q)^(ab) that blowup_elem acts on, for a
    form beta on GF(q^b)^a: an alternating form stays alternating, and a
    quadratic form Q gives Tr o Q, a hermitian one (b = 2) Q(v) = beta(v, v).
    Its Gram matrix and its values on the blown-up basis determine it."""
    ext = form.owner
    n = form.n * (ext.f // sub.f)
    unb = [unblow_vector(ext, sub, unit_vector(n, i)) for i in range(n)]
    gram = MatF(sub, [[ext.trace_to(form.bilinear(u, w), sub) for w in unb] for u in unb])
    if form.kind == "alternating":
        return FormSpec("alternating", gram)
    if form.kind == "hermitian":
        qdiag = [ext.restrict(form.bilinear(u, u), sub) for u in unb]
    else:
        qdiag = [ext.trace_to(form.quadratic(u), sub) for u in unb]
    return FormSpec("quadratic", gram, qdiag)


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
    P = _elem(ext, n, [(i, i, mu) for i in range(0, n, 2)]).mat
    lifted = [GroupElem(MatF(ext, [[ext.embed(x, sub) for x in row] for row in g.mat.rows]))
              for g in sp.gens]
    gens = rebase(lifted, P.inv(), P)  # hermitian coordinates from symplectic ones
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
    big = [blowup_elem(g, sub) for g in su.gens]
    n = 2 * m
    frame_std = SpaceFrame.quadratic(sub, n, sign)
    P, found = standard_basis(blown_up_form(su.frame.form, sub), target_mu=frame_std.mu)
    if found != sign:
        raise SignParityMismatch(f"blow-up produced type {found}, wanted {sign}")
    gens = rebase(big, P)
    return GroupPresentationSpec(
        "SUInOmega", n, q, frame_std, gens,
        classical_order("SU", m, q), f"SU({m},{q})<Omega{sign}({n},{q})",
    )


def ext_field_subgroup(ambient: str, a: int, b: int, q: int, sign: str = None):
    """Field-extension subgroup via the trace-composed form.

    'Sp':    Sp_2a(q^b) <= Sp_2ab(q), beta = Tr o beta_(b).
    'Omega': Omega_2a^sign(q^b) <= Omega_2ab^eps(q), Q = Tr o Q_(b)^sign.
    Returns (spec, inner, lift): the embedded group, the group over GF(q^b)
    and the map that blows up a further element of it.
    """
    sub = FieldSpec.get(q)
    ext = sub.extend(b)
    n = 2 * a * b
    if ambient == "Sp":
        inner = gens_classical("Sp", 2 * a, ext.q)
        P, _ = standard_basis(blown_up_form(inner.frame.form, sub))
        frame = SpaceFrame.symplectic(sub, n // 2)
        kind, name = "SpExtField", f"Sp({2*a},{ext.q})<Sp({n},{q})"
    elif ambient == "Omega":
        if sign not in ("+", "-"):
            raise IllegalParameters("Omega ext-field subgroup needs a sign")
        inner = gens_classical("Omega" + sign, 2 * a, ext.q)
        P, found = standard_basis(blown_up_form(inner.frame.form, sub),
                                  target_mu=find_irreducible_mu(sub))
        frame = SpaceFrame.quadratic(sub, n, found)
        kind, name = "OmegaExtField", f"Omega{sign}({2*a},{ext.q})<Omega{found}({n},{q})"
    else:
        raise UnsupportedParameters(f"no ext-field recipe for ambient {ambient!r}")

    P_inv = P.inv()
    gens = rebase([blowup_elem(g, sub) for g in inner.gens], P, P_inv)
    spec = GroupPresentationSpec(kind, n, q, frame, gens, inner.expected_order, name)

    def lift(g_ext: GroupElem) -> GroupElem:
        """Blow up a further element of the small group into the big frame."""
        return rebase([blowup_elem(g_ext, sub)], P, P_inv)[0]

    return spec, inner, lift


def parabolic_p1_sp_residual(m: int, q: int):
    """Generators of R:(Sp_2m-2(q)) inside Sp_2m(q), the point-stabilizer
    radical and its Levi block; the solvable residual of this group is
    P_1[Sp_2m(q)]^(inf) = [q^(2m-1)] : Sp_2m-2(q)'.

    Returns (spec for R:S, expected residual order)."""
    F = FieldSpec.get(q)
    n = 2 * m
    k = m - 1
    basis = _powers(F, F.f)
    # the radical in the section basis x, mid_1..mid_2k, y (ambient e_1,
    # e_2..e_m, f_2..f_m, f_1), where beta(mid_i, mid_(k+i)) = 1: y -> y + t x,
    # and mid_i -> mid_i + t y together with its partner mid_(i+-k) -> +-t x
    radical = [_elem(F, n, [(n - 1, 0, t)]) for t in basis]
    radical += [_elem(F, n, [(1 + (i + k) % (2 * k), 0, t if i < k else F.neg(t)),
                             (n - 1, 1 + i, t)])
                for i in range(2 * k) for t in basis]
    gens = _regroup(F, [0, *range(2, n, 2), *range(3, n, 2), 1], radical)
    if k:
        # the Levi block Sp_2k(q) on e_2, f_2, ..., e_m, f_m, in the frame's order
        gens += [_elem(F, n, blocks=[(2, 2, g.mat)])
                 for g in gens_classical("Sp", 2 * k, q).gens]
    full = q ** (2 * m - 1) * classical_order("Sp", 2 * m - 2, q)
    residual = q ** (2 * m - 1) * classical_order("Sp", 2 * m - 2, q, primed=True)
    spec = GroupPresentationSpec(
        "ParabolicP1Sp", n, q, SpaceFrame.symplectic(F, m), gens, full,
        f"R:Sp({2*m-2},{q})<Sp({n},{q})"
    )
    return spec, residual


def pm_residual(family: str, m: int, q: int, include_radical=True) -> GroupPresentationSpec:
    """Full-radical residual R:T of the stabilizer of a maximal totally
    singular subspace <e_1..e_m> (for SL: of the vector v_1, with m the
    dimension).  With include_radical=False only the Levi block T is
    returned.

    SL: R is the column below v_1 and T is SL_(m-1)(q) on v_2..v_m.  The
    others are written in a grouped basis (e_1..e_m, f_1..f_m; for OmegaOdd
    with d between them) and regrouped into the frame's.  Sp, SU and Omega+
    share one loop: R = [[I, N], [0, I]] with N[j][i] = sign N[i][j]^sigma
    and T = diag(A, A^(-sigma T)), A in SL_m, where (sign, sigma, F_p-basis
    of the diagonal entries) is (+1, id, F) for Sp, (-1, the q-Frobenius,
    the trace-zero elements) for SU and (-1, id, none) for Omega+.  OmegaOdd
    has Q(x, c, y) = c^2 + x.y on (e, d, f) and T = diag(A, 1, A^-T)."""
    if family not in ("SL", "Sp", "SU", "Omega+", "OmegaOdd"):
        raise UnsupportedParameters(f"no pm_residual for family {family!r}")
    if family == "OmegaOdd" and q % 2 == 0:
        raise IllegalParameters("odd-dimensional orthogonal groups need odd q")
    n = m if family == "SL" else 2 * m + (family == "OmegaOdd")
    frame = classical_frame(family, n, q)
    F = frame.field
    basis = _powers(F, F.f)
    if family == "SL":
        radical = [_elem(F, n, [(i, 0, t)]) for i in range(1, n) for t in basis]
        levi = [_elem(F, n, blocks=[(1, 1, g.mat)]) for g in _sl_gens(F, n - 1)]
        order, radical_order, levi_order = range(n), q ** (n - 1), classical_order("SL", n - 1, q)
    else:
        j = F.f // 2 if family == "SU" else 0    # sigma: x -> x^(p^j)
        # T = diag(A, A^(-sigma T)), the second block on f_1..f_m
        levi = [_elem(F, n, blocks=[(0, 0, A), (n - m, n - m, A.frob(j).inv().transpose())])
                for A in (g.mat for g in _sl_gens(F, m))]
        order = [*range(0, 2 * m, 2), *range(2 * m, n), *range(1, 2 * m, 2)]
        levi_order = classical_order("SL", m, F.q)
    if family == "OmegaOdd":
        # w e_i for w in F: d -> d - 2w e_i, f_i -> f_i + w d - w^2 e_i; then
        # f_j -> f_j + t e_i, f_i -> f_i - t e_j
        radical = [_elem(F, n, [(m, i, F.neg(F.add(t, t))), (m + 1 + i, m, t),
                                (m + 1 + i, i, F.neg(F.mul(t, t)))])
                   for i in range(m) for t in basis]
        radical += [_elem(F, n, [(m + 1 + j, i, t), (m + 1 + i, j, F.neg(t))])
                    for i in range(m) for j in range(i + 1, m) for t in basis]
        radical_order = q ** (m * (m + 1) // 2)
    elif family != "SL":
        diag = basis if family == "Sp" else _trace_zero_basis(F, j) if j else []

        def twin(t):
            x = F.frobenius(t, j)
            return x if family == "Sp" else F.neg(x)

        radical = [_elem(F, n, [(a, m + b, t), (b, m + a, twin(t))])
                   for a in range(m) for b in range(a, m) for t in (diag if a == b else basis)]
        radical_order = F.q ** (m * (m - 1) // 2) * F.p ** (m * len(diag))
    if not include_radical:
        radical, radical_order = [], 1
    return GroupPresentationSpec(
        "PmResidual", n, q, frame, _regroup(F, order, radical + levi), radical_order * levi_order,
        f"pm_residual({family},{m},{q})",
    )


# -- distinguished elements ----------------------------------------------------


def frobenius_elem(frame: SpaceFrame, j: int = 1) -> GroupElem:
    return GroupElem(MatF.identity(frame.field, frame.n), j)


def twisted_frobenius(frame: SpaceFrame, j: int = 1) -> GroupElem:
    """A semilinear g with Q(v^g) = Q(v)^(p^j) exactly.

    When the frame's form has all basis values in the prime field the plain
    coordinatewise Frobenius works; otherwise (minus type over GF(4), say,
    where Q(f_m) = mu is not fixed by x -> x^p) the coset representative is
    corrected by a Witt equivalence."""
    F, form = frame.field, frame.form
    plain = frobenius_elem(frame, j)
    if is_isometry(plain, form):
        return plain
    if form.kind != "quadratic":
        raise UnsupportedParameters("twisted Frobenius only implemented for quadratic frames")
    # Q(v^(sigma^-j))^(sigma^j): the form with every coefficient moved by sigma^j
    moved = FormSpec("quadratic", form.gram.frob(j), [F.frobenius(x, j) for x in form.qdiag])
    CB, sign = standard_basis(moved, target_mu=frame.mu)
    if sign != form.sign:
        raise VerificationFailed("twisted form changed type (impossible)")
    g = GroupElem(CB.inv(), j)
    if not is_isometry(g, form):
        raise VerificationFailed("twisted Frobenius gate failed")
    return g


# -- TIER-B recipe builders ----------------------------------------------------


def ext_field_sp(a: int, b: int, q: int) -> GroupPresentationSpec:
    """Sp_2a(q^b) inside Sp_2ab(q) (ext_field_subgroup)."""
    return ext_field_subgroup("Sp", a, b, q)[0]


def sl_levi(family: str, m: int, q: int) -> GroupPresentationSpec:
    """The Levi block T of pm_residual(family, m, q), without the radical."""
    return pm_residual(family, m, q, include_radical=False)


def parabolic_p1_sp(m: int, q: int) -> GroupPresentationSpec:
    """R:Sp_2m-2(q) inside Sp_2m(q) (parabolic_p1_sp_residual)."""
    return parabolic_p1_sp_residual(m, q)[0]


def blowup_sigma(family: str, n: int, q: int) -> GroupPresentationSpec:
    """family(n, q) with the Frobenius map adjoined, blown up over the prime
    field: a group of order b |family(n, q)| inside SL_nb(p), q = p^b."""
    inner = gens_classical(family, n, q)
    ext = inner.frame.field
    sub = FieldSpec.get(ext.p)
    b = ext.f // sub.f
    gens = [blowup_elem(g, sub) for g in inner.gens]
    gens.append(blowup_elem(frobenius_elem(inner.frame, 1), sub))
    return GroupPresentationSpec(
        "BlowupSigma", n * b, sub.q, classical_frame("SL", n * b, sub.q), gens,
        b * inner.expected_order, f"{family}({n},{q}).{b}<SL({n * b},{sub.q})",
    )


def gamma_o_minus_ext(a: int, b: int, q: int) -> GroupPresentationSpec:
    """GammaO_2a^-(q^b) inside O_2ab(q): the Omega field-extension subgroup
    together with a reflection of the small space and its twisted field
    automorphism.  The lifted twisted Frobenius has Dickson invariant 1, so
    the group lies in O, not in Omega."""
    spec, inner, lift = ext_field_subgroup("Omega", a, b, q, sign="-")
    refl = reflection(inner.frame, inner.frame.basis(2 * a - 2))
    frob = twisted_frobenius(inner.frame, 1)
    gens = spec.gens + [lift(refl), lift(frob)]
    order = b * 2 * inner.expected_order
    return GroupPresentationSpec(
        "GammaOMinusExt", spec.n, q, spec.frame, gens, order,
        f"GammaO-({2 * a},{q ** b})<O{spec.frame.form.sign}({spec.n},{q})",
    )


def quadratic_form(frame: SpaceFrame, sign: str):
    """The standard quadratic form of the given type on the space of frame
    (the seed of a form orbit)."""
    return SpaceFrame.quadratic(frame.field, frame.n, sign).form


def minus_pair(frame: SpaceFrame):
    """An ordered pair (v, u) spanning a nondegenerate minus-type 2-space:
    v = e1 + f1 and u = e1 + e2 + mu f2 with x^2 + x + mu irreducible."""
    F = frame.field
    e = frame.basis
    u = vec_add(F, e(0), vec_add(F, e(2), vec_scale(F, find_irreducible_mu(F), e(3))))
    return vec_add(F, e(0), e(1)), u
