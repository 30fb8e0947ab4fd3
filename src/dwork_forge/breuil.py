"""Rank-one Breuil module extension calculus.

Frame: an odd prime p, inertial degree f, ramification e. A rank-one datum
(s_0..s_{f-1}; a) has Frobenius phi(e_{i-1}) = (a)_i u^(s_i) e_i on component
i, where (a)_0 = a and (a)_i = 1 otherwise (indices cyclic mod f). The
coefficient field is F = F_{p^f}; phi acts F-linearly on coefficients, sends
u to u^p, and shifts component i-1 to i.

For an extension of (s; a) by (t; b) the slope data is

    n_i = (1/(p^f-1)) * sum_{j=1..f} p^(f-j) (s_{j+i-1} - t_{j+i-1} - e)
    r_i = s_i - t_i - e + floor(n_{i+1}) - p*floor(n_i) + 1,  r_i in [1, p]

with n_j + (s_{j-1} - t_{j-1} - e) = p n_{j-1}. The slope data depend on s,
t and e only through c = s - t - e, so they are computed (and the recurrence
and range checked) once per (c, p, f) and shared by every tuple with that c.

Extension classes are carried by polynomials y_i of degree < s_i (plus one
special degree when a nonzero map (s;a) -> (t;b) exists); the crystalline
monodromy condition kills every term of degree l < s_i - e + max(n_{i+1}, 1)
with l != t_i mod p, and when sum(s_j - t_j - e) < 0 an explicit etale
witness class exists that no crystalline extension reaches. All rational
arithmetic is exact.

The change-of-variables relation between Breuil-Kisin classes and etale
window classes is one sparse linear system per direction and truncation,
and every class given to it is one right-hand-side column of one
elimination. obstruction_frame_verdicts decides a whole obstruction frame in
three: the window normal forms of its clean classes, then the witness and
those forms back at two truncations, where a verdict that changes between
them is a WindowTooSmall failure. sweep_frame_verdicts decides the frames
of a sweep with one such solve per difference s - t.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod

from .ff import TABLE_LIMIT, FFElem, TooLarge, check_table_size, field_make
from .linalg import (sparse_feasible, sparse_left_null_space, sparse_solve,
                     sparse_solve_columns)
from .util import VerificationFailed, check


class PreconditionViolated(ValueError):
    pass


class SpecialDegreeNotInteger(VerificationFailed):
    pass


class WindowTooSmall(VerificationFailed):
    pass


INFEASIBLE = "infeasible"


class RankOneBK:
    """The rank-one datum M(s; a) of the frame (p, f, e): f nonnegative
    heights s and a nonzero coefficient a."""
    __slots__ = ("p", "f", "e", "s", "a")

    def __init__(self, p, f, e, s, a: FFElem):
        if len(s) != f or any(si < 0 for si in s):
            raise ValueError("s must be f nonnegative integers")
        if a.is_zero():
            raise ValueError("a must be nonzero")
        self.p, self.f, self.e, self.s, self.a = p, f, e, s, a

    @property
    def breuil_height_ok(self):
        return all(si <= self.e * (self.p - 2) for si in self.s)


def frame_field(p, e, f, sweep=False):
    """The coefficient field F_{p^f} of the frame (p, e, f), which needs an
    odd prime p and e, f >= 1.

    TooLarge, before the field is built, when the frames to decide (every
    (s, t) in [0, e(p-2)]^(2f) for a sweep, else one) times
    frame_system_bound(p, e, f) exceed TABLE_LIMIT."""
    if p % 2 == 0 or p < 3:
        raise PreconditionViolated(f"p = {p} must be an odd prime")
    if e < 1 or f < 1:
        raise PreconditionViolated("e and f must be at least 1")
    check_table_size(p, f)
    frames = (e * (p - 2) + 1) ** (2 * f) if sweep else 1
    size = frame_system_bound(p, e, f)
    if frames * size > TABLE_LIMIT:
        raise TooLarge(f"(p, e, f) = {(p, e, f)}: {frames} frame(s) of up to "
                       f"{size} equations exceed table limit {TABLE_LIMIT}")
    return field_make(p, f)


def make_rank_one(p, f, e, s, a: FFElem) -> RankOneBK:
    return RankOneBK(p, f, e, tuple(s), a)


def require_breuil_height(*sides: RankOneBK):
    """PreconditionViolated unless every side has Breuil height <= e(p-2)."""
    if not all(side.breuil_height_ok for side in sides):
        raise PreconditionViolated("both sides must have Breuil height <= e(p-2)")


def _alpha_differences(top: RankOneBK, bottom: RankOneBK):
    """(D, den) with alpha_i(s) - alpha_i(t) = D_i / den for i = 0..f-1:
    the integer numerators D_i = sum_{j=1..f} p^(f-j) (s - t)_{(j+i) mod f}
    over den = p^f - 1, as in slope_data."""
    _check_frame(top, bottom)
    p, f = top.p, top.f
    c = [x - y for x, y in zip(top.s, bottom.s)]
    D = [sum(p ** (f - j) * c[(j + i) % f] for j in range(1, f + 1))
         for i in range(f)]
    return D, p ** f - 1


def chi_equal(top: RankOneBK, bottom: RankOneBK) -> bool:
    """Equality of the associated characters: a = b and all alpha-differences
    integral (integer shifts change the model, not the etale phi-module)."""
    D, den = _alpha_differences(top, bottom)
    return top.a == bottom.a and all(d % den == 0 for d in D)


def hom_exists(top: RankOneBK, bottom: RankOneBK) -> bool:
    """Nonzero map M(s;a) -> M(t;b) iff alpha_i(s)-alpha_i(t) in Z_{>=0} and a=b."""
    D, den = _alpha_differences(top, bottom)
    return top.a == bottom.a and all(d >= 0 and d % den == 0 for d in D)


def _special_degrees(top: RankOneBK, bottom: RankOneBK):
    """The degrees s_j + alpha_j(s) - alpha_j(t), j = 0..f-1, of the one
    special term; SpecialDegreeNotInteger unless every difference is an
    integer (it is whenever chi_1 = chi_2)."""
    D, den = _alpha_differences(top, bottom)
    out = []
    for j, d in enumerate(D):
        if d % den:
            raise SpecialDegreeNotInteger(
                f"alpha difference {Fraction(d, den)} at index {j}")
        out.append(top.s[j] + d // den)
    return tuple(out)


def _check_frame(top, bottom):
    if (top.p, top.f, top.e) != (bottom.p, bottom.f, bottom.e):
        raise ValueError("rank-one data live in different frames")
    if top.a.field is not bottom.a.field:
        raise ValueError("coefficients in different fields")


@lru_cache(maxsize=4096)
def _slopes(c, p, f):
    """(n, r, floor(n)) for the differences c = s - t - e, a tuple of f ints.

    The slope data depend on s, t and e only through c, so sweeps share one
    entry per (c, p, f). Works on the integer numerators N_i = (p^f - 1) n_i:
    the floors are N_i // (p^f - 1) and the recurrence is checked as
    N_j + c_{j-1} (p^f - 1) = p N_{j-1}.
    """
    den = p ** f - 1
    N = [sum(p ** (f - j) * c[(j + i - 1) % f] for j in range(1, f + 1))
         for i in range(f)]
    fl = tuple(Ni // den for Ni in N)
    r = tuple(c[i] + fl[(i + 1) % f] - p * fl[i] + 1 for i in range(f))
    check(all(N[j] + c[j - 1] * den == p * N[j - 1] for j in range(f)),
          (c, p, f, N))
    check(all(1 <= ri <= p for ri in r), (c, p, f, N, r))
    return tuple(Fraction(Ni, den) for Ni in N), r, fl


def _slope_entry(s, t, e, p, f):
    """_slopes for the tuples s and t; PreconditionViolated unless both
    have f entries."""
    if not len(s) == len(t) == f:
        raise PreconditionViolated("s and t must each have f entries")
    return _slopes(tuple(si - ti - e for si, ti in zip(s, t)), p, f)


def slope_data(s, t, e, p, f):
    """(n_i, r_i); the recurrence and r_i in [1, p] are checked, once per
    distinct s - t - e."""
    n, r, _ = _slope_entry(s, t, e, p, f)
    return n, r


def bk_extension_degrees(top: RankOneBK, bottom: RankOneBK):
    """Allowed degree sets {0..s_i-1} per index, plus the special degree
    s_j + alpha_j(top) - alpha_j(bottom) (an integer, checked) when a nonzero
    map top -> bottom exists. Returns (list of sets, special list | None)."""
    degs = [set(range(si)) for si in top.s]
    if not hom_exists(top, bottom):
        return degs, None
    return degs, list(_special_degrees(top, bottom))


def breuil_forbidden_degrees(top: RankOneBK, bottom: RankOneBK):
    """Degrees l < s_j - e + max(n_{j+1}, 1), l != t_j mod p, per index j.

    Only degrees from the allowed BK sets are listed (the rest cannot occur
    at all). The threshold uses the exact rational n_{j+1}.
    """
    _check_frame(top, bottom)
    require_breuil_height(top, bottom)
    p, f, e = top.p, top.f, top.e
    s, t = top.s, bottom.s
    n, _ = slope_data(s, t, e, p, f)
    degs, _ = bk_extension_degrees(top, bottom)
    out = []
    for j in range(f):
        threshold = s[j] - e + max(n[(j + 1) % f], Fraction(1))
        out.append({l for l in degs[j]
                    if l < threshold and (l - t[j]) % p != 0})
    return out


# ---------------------------------------------------------------------------
# the monodromy solver

def _twists(top: RankOneBK, bottom: RankOneBK):
    """The component coefficients ((a)_j, (b)_j) for j = 0..f-1: a and b at
    index 0, 1 elsewhere."""
    rest = [top.a.field.one()] * (top.f - 1)
    return [top.a] + rest, [bottom.a] + rest


def _y_term(key, top: RankOneBK, bottom: RankOneBK):
    """The row (j, g) with g = e - s_j + l and the dlog of t_j - l that the
    y-term at key = (j, l) contributes, or None when it contributes nothing
    (g >= e, or t_j - l = 0 mod p)."""
    jj, l = key
    j = jj % top.f
    factor = (bottom.s[j] - l) % top.p
    g = top.e - top.s[j] + l
    if not factor or g >= top.e:
        return None
    return (j, g), top.a.field.from_int(factor).k


def _y_constants(y, top: RankOneBK, bottom: RankOneBK):
    """The y-terms of the monodromy equation as {(j, g): dlog of the sum of
    (t_j - l) y_{j,l}} (None for zero) over the terms of degree
    g = e - s_j + l < e with t_j - l != 0 mod p.

    These constants move to the right-hand side with a minus sign. A key is
    kept even when its terms cancel, because it still names a row.
    """
    F = top.a.field
    out = {}
    for key, k in zip(y, F.to_ks(y.values())):
        if k is None:
            continue
        term = _y_term(key, top, bottom)
        if term is not None:
            row, c = term
            out[row] = F.k_add(out.get(row), F.k_mul(c, k))
    return out


def _add_term(row, idx, k, F):
    """row[idx] += g^k in a sparse dlog row; an entry that cancels is
    deleted."""
    v = F.k_add(row.pop(idx, None), k)
    if v is not None:
        row[idx] = v


def _monodromy_system(top: RankOneBK, bottom: RankOneBK, d_poly, y_degrees):
    """Rows of the monodromy equation, one per (j, g) with g < e where a term
    can appear: d * (a)_j * mu'_{j+1}, the phi-term, or a y-term at a key of
    y_degrees. d_poly maps a u-degree to the dlog of d's coefficient. The
    unknown coefficient of u^m in mu'_j (1 <= m <= e-1) is column
    j*(e-1) + m-1. Returns (row keys (j, g) in sorted order, sparse dlog rows
    {column: dlog}); a key whose terms cancel keeps its (empty) row.
    """
    p, f, e = top.p, top.f, top.e
    F = top.a.field
    s, t = top.s, bottom.s
    ca, cb = (F.to_ks(c) for c in _twists(top, bottom))

    def unk(j, m):
        return (j % f) * (e - 1) + (m - 1)

    terms = {}   # (j, g) -> {unknown index: dlog}
    for j in range(f):
        for m in range(1, e):
            for dk, dv in d_poly.items():
                if dk + m < e:
                    _add_term(terms.setdefault((j, dk + m), {}), unk(j + 1, m),
                              F.k_mul(dv, ca[j]), F)
            g = e - s[j] + t[j] + p * m
            if g < e:
                _add_term(terms.setdefault((j, g), {}), unk(j, m),
                          F.k_neg(cb[j]), F)
    keys = sorted(set(terms) | set(y_degrees))
    return keys, [terms.get(key, {}) for key in keys]


def solve_monodromy(top: RankOneBK, bottom: RankOneBK, y=None, d_unit=None):
    """Solve the phi-N commutation constraint for mu'_j, or INFEASIBLE.

    The equation, an identity in F[u]/u^e for each component j (cyclic):

        d*(a)_j * mu'_{j+1}(u)
            = (b)_j * u^(e-s_j+t_j) * mu'_j(u^p)
              - sum_l (t_j - l) y_{j,l} u^(e-s_j+l)

    with mu'_j in u*F[u] (positive valuation: the crystallinity condition).
    Negative u-exponents cannot cancel between the two right-hand terms (the
    phi-term has exponents = t_j mod p after the shift, the y-term never), so
    each negative-degree coefficient yields a hard linear constraint.

    y maps a key (j, l) to a field element: j is any integer, read mod f
    (keys j and j + f add up), and 0 <= l < s_(j mod f); ValueError for
    another degree, TypeError for a coefficient that is no field element.
    d is a u-adic unit given as {u-degree: coefficient} with a nonzero
    constant term, or None for d = 1; verdicts do not depend on the choice.
    """
    _check_frame(top, bottom)
    f, e = top.f, top.e
    F = top.a.field
    y = y or {}
    for (j, l), cval in y.items():
        if not 0 <= l < top.s[j % f]:
            raise ValueError(f"degree {l} not allowed for y_{j}")
        if not isinstance(cval, FFElem):
            raise TypeError("y coefficients must be field elements")
    d_unit = {0: F.one()} if d_unit is None else d_unit
    d_poly = {k: v for k, v in zip(d_unit, F.to_ks(d_unit.values()))
              if v is not None}
    if 0 not in d_poly:
        raise ValueError("d must be a u-adic unit")
    consts = _y_constants(y, top, bottom)
    keys, rows = _monodromy_system(top, bottom, d_poly, consts)
    rhs = [F.k_neg(consts.get(key)) for key in keys]
    sol = sparse_solve(rows, rhs, f * (e - 1), F)
    if sol is None:
        return INFEASIBLE
    mu = []
    for j in range(f):
        comp = sol[j * (e - 1):(j + 1) * (e - 1)]
        mu.append({m: F.from_dlog(k) for m, k in enumerate(comp, 1)
                   if k is not None})
    return mu


def _monodromy_weights(top: RankOneBK, bottom: RankOneBK):
    """(allowed_degrees, null vector count, key_weights) for the monodromy
    system over the full degree universe.

    Feasible y form a subspace, so consistency reduces to orthogonality with
    the left null vectors v of the system: key_weights(key) lists, per null
    vector n with v[row] != 0, the dlog of v[row] * (t_j - l) for the row the
    y-term at key lands in; it is [] for a key that contributes nothing and
    None for a term that lands outside every row. With no unknowns (e = 1)
    the null vectors are the unit vectors, one per row.
    """
    _check_frame(top, bottom)
    F = top.a.field
    L = F.q - 1
    degs, _ = bk_extension_degrees(top, bottom)
    universe = _y_constants({(j, l): F.one() for j in range(top.f)
                             for l in degs[j]}, top, bottom)
    keys, A = _monodromy_system(top, bottom, {0: 0}, universe)
    row_map = {key: i for i, key in enumerate(keys)}
    null_vecs = sparse_left_null_space(A, top.f * (top.e - 1), F)

    def key_weights(key):
        term = _y_term(key, top, bottom)
        if term is None:
            return []
        row, c = term
        i = row_map.get(row)
        if i is None:
            return None
        return [(n, (v[i] + c) % L) for n, v in enumerate(null_vecs)
                if v[i] is not None]

    return degs, len(null_vecs), key_weights


def monodromy_feasibility_checker(top: RankOneBK, bottom: RankOneBK):
    """Batch form of solve_monodromy feasibility for many y of one frame.

    Builds the linear system and its left null space once and returns
    (allowed_degrees, check), where check maps a y dict to the verdict
    solve_monodromy would give: it adds each y-term's null-vector weights
    times its coefficient into one running sum per null vector, and y is
    feasible when every sum is zero.
    """
    F = top.a.field
    degs, n_null, key_weights = _monodromy_weights(top, bottom)

    def check(y: dict) -> bool:
        sums = [None] * n_null
        for key, k in zip(y, F.to_ks(y.values())):
            if k is None:
                continue
            w = key_weights(key)
            if w is None:
                return False
            for n, wk in w:
                sums[n] = F.k_add(sums[n], F.k_mul(wk, k))
        return all(sm is None for sm in sums)

    return degs, check


def monodromy_subspace_mismatch(top: RankOneBK, bottom: RankOneBK, keys, clean):
    """None when the y = {keys[i]: c_i} that solve_monodromy finds feasible
    are those with c_i = 0 wherever clean[i] is false; else (coefficients as
    FFElems in the order of keys, feasible) of one y where the two differ.

    The feasible y are the kernel K of the null-vector functionals of
    _monodromy_weights (a key whose term lands in no row is forced to 0), the
    clean ones the coordinate subspace V of the clean keys. K = V exactly
    when every clean column is [] and the other columns not forced to 0 are
    linearly independent; else a clean unit vector, or a nonzero dependency
    among those columns, is a y where the two differ.
    """
    F = top.a.field
    _, n_null, key_weights = _monodromy_weights(top, bottom)
    columns = [key_weights(key) for key in keys]
    coeffs = [F.zero()] * len(keys)
    for i, (w, ok) in enumerate(zip(columns, clean)):
        if ok and w != []:
            coeffs[i] = F.one()
            return coeffs, False
    rest = [i for i, (w, ok) in enumerate(zip(columns, clean))
            if not ok and w is not None]
    dependencies = sparse_left_null_space([dict(columns[i]) for i in rest],
                                          n_null, F)
    if not dependencies:
        return None
    for i, k in zip(rest, dependencies[0]):
        coeffs[i] = F.from_dlog(k)
    return coeffs, True


# ---------------------------------------------------------------------------
# genericity obstruction and the etale side

def genericity_obstruction(s, t, e, p, f):
    """Witness (i, x_i) of the non-surjectivity construction.

    Requires sum(s_j - t_j - e) < 0. Picks an index with floor(n_{i+1}) = -1
    and r_i != p, or floor(n_{i+1}) <= -2; then x_i = s_i + floor(n_{i+1})
    - e + 1 (or +2 when r_i = p). The witness satisfies x_i != t_i mod p and
    the image-window bounds; its existence is the content of the lemma and is
    checked, never silently absent.
    """
    if sum(s[j] - t[j] - e for j in range(f)) >= 0:
        raise PreconditionViolated("requires sum(s_j - t_j - e) < 0")
    _, r, floors = _slope_entry(s, t, e, p, f)
    for i in range(f):
        fl = floors[(i + 1) % f]
        if (fl == -1 and r[i] != p) or fl <= -2:
            x = s[i] + fl - e + (1 if r[i] != p else 2)
            check((x - t[i]) % p != 0 and s[i] + fl - e + 1 <= x <= s[i] + fl
                  and x <= s[i] - e, (s, t, e, p, f))
            return i, x
    raise VerificationFailed("no witness index: contradicts the lemma")


def etale_image_windows(top: RankOneBK, bottom: RankOneBK):
    """Per-index degree windows [s_i + floor(n_{i+1}) - e + 1, s_i + floor(n_{i+1})]
    of the etale classes reached from G_K, the expected dimension e*f (or
    e*f + 1 with the one special degree when chi_1 = chi_2), and the special
    degrees (None unless chi_1 = chi_2)."""
    p, f, e = top.p, top.f, top.e
    s = top.s
    floors = _slope_entry(s, bottom.s, e, p, f)[2]
    windows = []
    for i in range(f):
        top_deg = s[i] + floors[(i + 1) % f]
        windows.append(range(top_deg - e + 1, top_deg + 1))
    if not chi_equal(top, bottom):
        return windows, e * f, None
    return windows, e * f + 1, _special_degrees(top, bottom)


def _lambda_bounds(top: RankOneBK, bottom: RankOneBK, data_degrees, margin=0):
    """Rigorous finite truncation for the change-of-variables system.

    The relation lives in F((u)); lambda solutions can carry infinite sparse
    positive tails (index k propagating to p*k + t - s), so a symmetric
    cutoff is wrong. Instead:

    * equations are kept for degrees g <= G with G past every datum and past
      G* = max_j ceil((p*s_{j-1} - t_j)/(p-1)); every dropped equation then
      uniquely forward-defines one tail coefficient of index > U_j = G - s_j
      from lower ones, so the tail is free and constraint-less;
    * below the data range a nonzero lambda index k <= -e would cascade to
      strictly smaller indices forever (impossible in ((u))), so supports are
      bounded below by L = min(-e, floor((-G_neg - max t_j)/p)) - 1.

    Returns (G, L, U list, equation degree floor).
    """
    p, f, e = top.p, top.f, top.e
    s, t = top.s, bottom.s
    d_hi = max([0] + [g for (_, g) in data_degrees])
    d_lo = min([0] + [g for (_, g) in data_degrees])
    g_star = max(-(-(p * s[(j - 1) % f] - t[j]) // (p - 1)) for j in range(f))
    G = max(d_hi, g_star, 0) + 1 + margin
    G_neg = max(0, -d_lo) + margin
    L = min(-e, (-G_neg - max(t)) // p) - 1
    U = [G - s[j] for j in range(f)]
    e_low = min([-G_neg] + [L + s[j] for j in range(f)]
                + [p * L + t[j] for j in range(f)])
    return G, L, U, e_low


def frame_system_bound(p, e, f):
    """f (G - e_low + 1) for the largest G and the smallest e_low that
    _lambda_bounds gives in the frame (p, e, f): at margin 2ep, heights s_j,
    t_j in [0, h] with h = e(p-2), and data inside the BK class space and the
    etale image windows, so in [-(e + ceil((h + e)/(p-1))), ceil(ph/(p-1))].
    Every change-of-variables system of the frame has at most this many
    equations: f components of degrees e_low..G."""
    h, margin = e * (p - 2), 2 * e * p
    G = -(-p * h // (p - 1)) + 1 + margin        # also bounds G* = g_star
    G_neg = e - (-(h + e) // (p - 1)) + margin
    L = min(-e, (-G_neg - h) // p) - 1
    return f * (G - p * L + 1)                   # e_low >= min(-G_neg, pL) = pL


def _cov_solve(givens, top: RankOneBK, bottom: RankOneBK, unknown_space,
               to_etale: bool, margin=0, verdicts_only=False):
    """Shared solver for the change-of-variables relation

        y_j = y'_j + (b)_j u^(t_j) phi(lambda_{j-1}) - (a)_j u^(s_j) lambda_j.

    to_etale=False: y' is given, unknowns are (y in unknown_space, lambda).
    to_etale=True: y is given, unknowns are (y' in unknown_space, lambda).
    A given index j is read mod f, and terms that land on one key add up.
    The rows are built once, truncated by _lambda_bounds past every given
    class of givens, and each given class is one right-hand-side column of
    one elimination. Returns, per given class, (dict for the solved class,
    lambda list) or INFEASIBLE; with verdicts_only, whether each is
    feasible, read off the echelon form.
    """
    p, f, e = top.p, top.f, top.e
    F = top.a.field
    s, t = top.s, bottom.s
    given_ks = []   # per given class, {(j mod f, g): dlog of the sum}
    for given in givens:
        col = {}
        for (j, g), k in zip(given, F.to_ks(given.values())):
            col[(j % f, g)] = F.k_add(col.get((j % f, g)), k)
        given_ks.append(col)
    data = set().union(*given_ks)
    G, L, U, e_low = _lambda_bounds(top, bottom, data | set(unknown_space),
                                    margin)
    cls_index = {key: k for k, key in enumerate(sorted(unknown_space))}
    # lambda_{j,l} for L <= l <= U_j is the unknown lam_base[j] + l
    lam_base, k = [], len(cls_index)
    for j in range(f):
        lam_base.append(k - L)
        k += U[j] - L + 1
    nunk = k

    ca, cb = (F.to_ks(c) for c in _twists(top, bottom))
    terms = {}   # (j, g) -> the row of the equation of degree g at index j
    for j in range(f):
        jp = (j - 1) % f
        # orientation: the unknown class enters with +1; lambda terms carry
        # the sign that moves the given data to the right-hand side
        phi_k = cb[j] if to_etale else F.k_neg(cb[j])
        lam_k = F.k_neg(ca[j]) if to_etale else ca[j]
        # lambda_{j-1,l} enters degree t_j + p l and lambda_{j,l} degree
        # s_j + l; equations run from e_low to G
        for l in range(L, min(U[jp], (G - t[j]) // p) + 1):
            terms[(j, t[j] + p * l)] = {lam_base[jp] + l: phi_k}
        for l in range(L, U[j] + 1):
            row = terms.setdefault((j, s[j] + l), {})
            _add_term(row, lam_base[j] + l, lam_k, F)
    for key, idx in cls_index.items():
        terms.setdefault(key, {})[idx] = 0
    keys = sorted(terms.keys() | data)
    rows = [terms.get(key, {}) for key in keys]
    row_of = {key: i for i, key in enumerate(keys)}
    columns = [{row_of[key]: k for key, k in col.items() if k is not None}
               for col in given_ks]
    if verdicts_only:
        return sparse_feasible(rows, columns, nunk, F)
    out = []
    for sol in sparse_solve_columns(rows, columns, nunk, F):
        if sol is None:
            out.append(INFEASIBLE)
            continue
        cls = {key: F.from_dlog(sol[idx]) for key, idx in cls_index.items()
               if sol[idx] is not None}
        lam = [{l: F.from_dlog(sol[lam_base[j] + l]) for l in range(L, U[j] + 1)
                if sol[lam_base[j] + l] is not None} for j in range(f)]
        out.append((cls, lam))
    return out


def _bk_class_space(top: RankOneBK, bottom: RankOneBK):
    """Degrees a crystalline-extension y may populate: BK-allowed minus
    Breuil-forbidden, plus the special degree (always = t_j mod p, hence
    monodromy-invisible) when a nonzero map exists."""
    degs, special = bk_extension_degrees(top, bottom)
    forbidden = breuil_forbidden_degrees(top, bottom)
    space = [(j, l) for j in range(len(degs))
             for l in sorted(degs[j] - forbidden[j])]
    if special is not None:
        if (0, special[0]) not in space:
            space.append((0, special[0]))
    return space


def _window_class_space(top: RankOneBK, bottom: RankOneBK):
    windows, _, special = etale_image_windows(top, bottom)
    space = [(j, l) for j in range(top.f) for l in windows[j]]
    if special is not None and (0, special[0]) not in space:
        space.append((0, special[0]))
    return space


def change_of_variables_solver(y_prime, top: RankOneBK, bottom: RankOneBK):
    """Decide whether the etale class y' is reached by a crystalline extension.

    y_prime maps (j, degree) -> coefficient, with j read mod f. Solves for
    (y, lambda) with y in the BK-allowed-minus-forbidden space.
    The truncation bounds of _lambda_bounds are provably sufficient; as a
    guard they are re-run once with widened margins and a changed verdict is
    a hard WindowTooSmall error (it never fires).
    """
    _check_frame(top, bottom)
    space = _bk_class_space(top, bottom)
    v1, v2 = (_cov_solve([y_prime], top, bottom, space, to_etale=False,
                         margin=margin)[0]
              for margin in (0, 2 * top.e * top.p))
    if (v1 == INFEASIBLE) != (v2 == INFEASIBLE):
        raise WindowTooSmall("verdict changed under widened truncation")
    return v1


def normal_form_in_windows(y: dict, top: RankOneBK, bottom: RankOneBK):
    """Window-supported normal form y' of a BK-shaped class y.

    Same relation with the roles swapped: given y, solve for y' supported in
    the etale image windows (plus the one special degree at index 0 when
    chi_1 = chi_2) and lambda.
    """
    _check_frame(top, bottom)
    space = _window_class_space(top, bottom)
    verdict = _cov_solve([y], top, bottom, space, to_etale=True)[0]
    if verdict == INFEASIBLE:
        return INFEASIBLE
    return verdict[0]


def obstruction_frame_verdicts(top: RankOneBK, bottom: RankOneBK, witness):
    """(whether the witness class {witness: 1} is reached by a crystalline
    extension, the clean-class failures) of one frame, in three
    eliminations.

    The clean basis classes are {(j, l): 1} for l < s_j outside the
    forbidden degrees; one fails when its window normal form, or the change
    of variables back from that form, is infeasible. The normal forms of
    every clean class come from one to-etale system; the witness and those
    normal forms are then the columns of one back system at margin 0 and one
    at margin 2ep, and a verdict that differs between the two raises
    WindowTooSmall, as in change_of_variables_solver. Verdicts equal those
    of normal_form_in_windows and change_of_variables_solver class by
    class: a larger truncation may pick another normal form, but it is
    equivalent to the first, and reachability is a property of the class.
    """
    _check_frame(top, bottom)
    one = top.a.field.one()
    space = _bk_class_space(top, bottom)
    # the special degree, when there is one, is at least s_0
    clean = [(j, l) for j, l in space if l < top.s[j]]
    nfs = []
    if clean:
        nfs = _cov_solve([{key: one} for key in clean], top, bottom,
                         _window_class_space(top, bottom), to_etale=True)
    givens = [{witness: one}] + [nf[0] for nf in nfs if nf != INFEASIBLE]
    v1, v2 = (_cov_solve(givens, top, bottom, space, to_etale=False,
                         margin=margin, verdicts_only=True)
              for margin in (0, 2 * top.e * top.p))
    if v1 != v2:
        raise WindowTooSmall("verdict changed under widened truncation")
    back = iter(v1[1:])
    failures = [key for key, nf in zip(clean, nfs)
                if nf == INFEASIBLE or not next(back)]
    return v1[0], failures


def frame_verdicts(s, t, e, p, f, F):
    """(whether the witness is reached, whether no clean class fails) for
    the obstruction frame (s, t) with a = b = 1 over F and its
    genericity_obstruction witness, by obstruction_frame_verdicts."""
    one = F.one()
    reached, failures = obstruction_frame_verdicts(
        make_rank_one(p, f, e, s, one), make_rank_one(p, f, e, t, one),
        genericity_obstruction(s, t, e, p, f))
    return reached, not failures


def frame_classes(p, e, f):
    """(d, s, t, multiplicity) for each distinct d = s - t of the sweep
    s, t in [0, h]^f, h = e(p-2): the representative s_j = h - max(0, -d_j),
    t_j = h - max(0, d_j), the frame of that d with the largest heights, and
    the prod_j (h + 1 - |d_j|) frames with that d. Every frame with that d
    is the representative minus some c >= 0."""
    h = e * (p - 2)
    for d in product(range(-h, h + 1), repeat=f):
        yield (d, tuple(h - max(0, -x) for x in d),
               tuple(h - max(0, x) for x in d),
               prod(h + 1 - abs(x) for x in d))


def sweep_frame_verdicts(p, e, f, F):
    """frame_verdicts for the obstruction frames (s, t) of the sweep
    s, t in [0, e(p-2)]^f over F, solved once per d = s - t: returns the
    function (s, t) -> verdicts.

    Shift lemma. For c in Z^f, y_j -> u^(c_j) y_j with lambda unchanged
    carries solutions of the change-of-variables relation
    y_j = y'_j + u^(t_j) phi(lambda_{j-1}) - u^(s_j) lambda_j of (s, t) to
    solutions of that of (s + c, t + c): each term gains u^(c_j). n, r and
    the floors read only d, so these move by c_j at index j: the forbidden
    degrees (l != t_j mod p, below s_j - e + max(n_{j+1}, 1)), the special
    degree s_0 + alpha_0(s) - alpha_0(t) at index 0, the etale windows
    [s_j + floor(n_{j+1}) - e + 1, s_j + floor(n_{j+1})] and the witness
    (i, x) (x - t_i reads only d). The BK class space (degrees l < s_j and
    the special one, minus the forbidden) and its clean classes (l < s_j)
    move into those of (s + c, t + c) for c >= 0, which add the degrees
    l < c_j. _lambda_bounds is sufficient at either margin, so the verdicts
    are those over F((u)): a moved class is reached from a moved space
    exactly when the class is reached from the space, and a clean class
    fails exactly when it has no window normal form (the class itself comes
    back). The representative of frame_classes has the largest heights of
    its d, so a witness it does not reach is reached in no frame of that d,
    and no failure there means none in any. A d whose representative reads
    otherwise is decided frame by frame.
    """
    generic = {d for d, s, t, _ in frame_classes(p, e, f)
               if sum(d) < e * f
               and frame_verdicts(s, t, e, p, f, F) == (False, True)}

    def verdicts(s, t):
        if tuple(x - y for x, y in zip(s, t)) in generic:
            return False, True
        return frame_verdicts(s, t, e, p, f, F)

    return verdicts


# ---------------------------------------------------------------------------
# chain slope forcing

def _levels_fit(hmax, f):
    """Whether the (hmax + 1)^f levels of f heights hold at most TABLE_LIMIT
    heights; hmax >= 1 gives at least 2^f levels, so a large f is decided
    without the power."""
    if hmax and f >= TABLE_LIMIT.bit_length():
        return False
    return (hmax + 1) ** f * f <= TABLE_LIMIT


def increasing_chains(d, e, f):
    """Every chain s(1), ..., s(d) of heights in [0, e(d-1)]^f that meets the
    increment condition sum_j(s(i+1)_j - s(i)_j - e) >= 0 at each step. Each
    step adds at least ef to the level total, which ends at most at e(d-1)f,
    so the totals are exactly 0, ef, ..., ef(d-1), and the chains are the
    product of the level lists with those totals, in lexicographic order.

    The (e(d-1) + 1)^f levels are built first: TooLarge, before any of them,
    when they hold more than TABLE_LIMIT heights, and before the first chain
    when there are more than TABLE_LIMIT chains."""
    if min(d, e, f) < 1:
        raise PreconditionViolated("d, e and f must be at least 1")
    hmax = e * (d - 1)
    if not _levels_fit(hmax, f):
        raise TooLarge(f"(d, e, f) = {(d, e, f)}: the (e(d-1) + 1)^f levels "
                       f"of f heights exceed table limit {TABLE_LIMIT}")
    by_sum = {}
    for level in product(range(hmax + 1), repeat=f):
        by_sum.setdefault(sum(level), []).append(level)
    lists = [by_sum[i * e * f] for i in range(d)]
    count = prod(map(len, lists))
    if count > TABLE_LIMIT:
        raise TooLarge(f"(d, e, f) = {(d, e, f)}: {count} chains exceed "
                       f"table limit {TABLE_LIMIT}")
    return product(*lists)


def chain_slope_check(chain, e):
    """Generic-ordinarity slope forcing for a chain s(1), ..., s(d).

    Preconditions: sum_j(s(i+1)_j - s(i)_j - e) >= 0 for all i, and every
    s(i)_j in [0, e(d-1)]. Then s(1) = 0 and s(d) = e(d-1) coordinatewise;
    violations raise, matching the telescoped inequality in the proof.
    """
    d = len(chain)
    if d == 0:
        raise PreconditionViolated("empty chain")
    f = len(chain[0])
    if d == 1:
        return True
    hmax = e * (d - 1)
    for level in chain:
        if len(level) != f or any(not 0 <= sj <= hmax for sj in level):
            raise PreconditionViolated("heights must lie in [0, e(d-1)]")
    for i in range(d - 1):
        if sum(chain[i + 1][j] - chain[i][j] - e for j in range(f)) < 0:
            raise PreconditionViolated("increment condition fails")
    check(all(sj == 0 for sj in chain[0]) and all(sj == hmax for sj in chain[-1]),
          chain)
    return True
