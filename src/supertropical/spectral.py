"""Eigenvalues and executable checkers for the matrix-power laws.

Each checker computes both sides of one stated relation and returns a
`Verdict` carrying per-coefficient detail and, on failure, a witness that
reproduces the computation. A conditional law whose hypothesis does not
hold reports ``holds=None`` (not applicable) rather than pass or fail.
The matrix-power laws are functions of one cached ``Trial``, listed by check
id in ``CHECKS``; the public ``check_*`` functions wrap them. A trial is two
matrices, and it works in their key space from end to end: A^m, AB and both
characteristic polynomials come from `mat_pow`, `mat_mul` and `char_poly` as
keys, det(AB) and det(B) from `matrix._det_column`, the one kernel this
module calls on keys, and the laws compare keys; the corner-root law
compares the corner roots of both characteristic polynomials as their
envelopes' integer cuts. A law's verdict builds its detail records when they
are first read, and its witness only on failure, so a passing law decodes
nothing and builds no string and no `Fraction`.

Eigenvectors have one construction, the columns of adj(A + xI); the Kleene
star of |A| - x, where it is defined, is those columns less a constant, so
its one new candidate, the sum of its critical columns, is read off them.
That sum is tried for every eigenvalue, defined star or not (`eigenpairs`).
"""

from __future__ import annotations

import json
import operator
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .defaults import LAW_IDS
from .errors import DomainError
from .matrix import (
    Matrix,
    _check_product_shape,
    _det_column,
    char_poly,
    check_dim_bound,
    check_power,
    mat_mul,
    mat_pow,
    mat_vec,
)
from .polynomial import Interval, Polynomial, _corners, _cut_value, _roots_text, roots
from .scalar import Scalar, _Record, _decode, _key_pow, _key_sum, _key_surpasses, tangible


class Verdict(_Record):
    """Outcome of one law check; ``holds=None`` means not applicable.

    ``detail`` is given as a tuple of records, or as a function that returns
    them: the laws give a function, so that the records and their strings are
    built only when ``detail`` is first read, which a passing campaign never
    does. Equality compares all four fields.
    """

    __slots__ = ("check", "holds", "witness", "_detail")
    _fields = ("check", "holds", "witness", "detail")

    def __init__(
        self,
        check: str,
        holds: bool | None,
        witness: dict | None = None,
        detail: tuple[dict, ...] | Callable[[], Iterable[dict]] = (),
    ):
        self.check = check
        self.holds = holds
        self.witness = witness
        self._detail = detail

    @property
    def detail(self) -> tuple[dict, ...]:
        if callable(self._detail):
            self._detail = tuple(self._detail())
        return self._detail

    @property
    def applicable(self) -> bool:
        return self.holds is not None

    def __reduce__(self):
        return Verdict, self._values()

    def to_json_dict(self) -> dict:
        out: dict = {"theorem": self.check}
        if self.holds is None:
            out["not_applicable"] = True
        else:
            out["holds"] = self.holds
        if self.witness is not None:
            out["witness"] = self.witness
        out["detail"] = [dict(d) for d in self.detail]
        return out

    def __str__(self) -> str:
        status = "N/A " if self.holds is None else "PASS" if self.holds else "FAIL"
        lines = [f"{status} {self.check}"]
        lines += ["  " + "  ".join(f"{k}={val}" for k, val in d.items()) for d in self.detail]
        if self.witness is not None:
            lines.append("  witness: " + json.dumps(self.witness, sort_keys=True))
        return "\n".join(lines)


class EigenReport(_Record):
    """Tangible corner roots of the characteristic polynomial, with the
    ghost-dominated root region kept alongside for diagnostics."""

    _fields = ("eigenvalues", "ghost_region")

    def __init__(
        self, eigenvalues: tuple[tuple[Scalar, int], ...], ghost_region: tuple[Interval, ...] = ()
    ):
        self.eigenvalues = eigenvalues
        self.ghost_region = ghost_region

    def to_json_dict(self) -> dict:
        return {
            "eigenvalues": [
                {"value": str(v), "multiplicity": m} for v, m in self.eigenvalues
            ],
            "ghost_region": [iv.to_json_dict() for iv in self.ghost_region],
        }

    def __str__(self) -> str:
        return _roots_text("eigenvalues", self.eigenvalues, "ghost root region", self.ghost_region)


def eigenvalues(a: Matrix, bound: int | None = None) -> EigenReport:
    report = roots(char_poly(a, bound))
    return EigenReport(report.corner_roots, report.ghost_intervals)


def check_eigenpair(a: Matrix, v: Sequence[Scalar], x: Scalar) -> Verdict:
    """Does A*v ghost-surpass x*v componentwise?"""
    if not x.is_tangible:
        raise DomainError("candidate eigenvalue must be tangible")
    if any(not vi.is_tangible for vi in v):
        raise DomainError("candidate eigenvector entries must be tangible")
    sides = list(zip(mat_vec(a, v), [x * vi for vi in v]))
    holds = all(lhs.surpasses(rhs) for lhs, rhs in sides)

    def detail():
        for i, (lhs, rhs) in enumerate(sides):
            yield {"i": i, "lhs": str(lhs), "rhs": str(rhs), "ok": lhs.surpasses(rhs)}

    witness = None if holds else {"matrix": a.to_json_dict(), "vector": [str(vi) for vi in v],
                                  "value": str(x)}
    return Verdict("eigen-pair", holds, witness, detail)


def eigenpairs(
    a: Matrix, bound: int | None = None
) -> list[tuple[Scalar, tuple[Scalar, ...] | None]]:
    """Each tangible eigenvalue x of A, in `eigenvalues` order, with a
    tangible eigenvector read off the adjoint of B = A + xI, or ``None``.

    x is a corner cut (t, den) of charpoly(A): at scale den * scale, at most
    two digits past A's capped one as den <= n, x's key is t << 1, and B is
    A's rescaled keys with x added on the diagonal. Column r of adj(B) is
    det(B without row r and column c) for c = 0..n-1 (the unit when n = 1),
    read off one determinant column of B's keys with row r on top
    (`matrix._det_column`) and decoded only when tried. The columns are
    tried in turn, then their sum, then the sum of the columns critical in
    their own row less (n - 1)x; the first with no -inf entry whose tangible
    projection passes `check_eigenpair` is the eigenvector. So an eigenvalue
    costs at most n integer columns of size n.

    Column r is critical when its principal cofactor s_r is finite and the
    largest |a_rk| + s_k, a_rr included, is x + s_r. Without a positive
    cycle in |A| - x, a minor of B is a path from c to r plus cycles of
    weight at most 0, so column r is (n - 1)x plus column r of the Kleene
    star of |A| - x, tried already, and critical exactly when r is on a
    cycle of weight 0: the one star candidate left is the critical sum.
    With a positive cycle there is no star, but the critical sum is still
    tried, and can be the only candidate that holds: x = 0 of
    ``3 -inf -inf -3/2 / -inf -inf 0 -inf / -inf 0 -inf -inf / 0 -inf -inf 0``.
    """
    n, full = a.n, (1 << a.n) - 1
    scale, keys = a._keys

    def candidates(t: int, rows, b):
        columns = []
        for r in range(n):
            dets = _det_column((b[r], *b[:r], *b[r + 1:]))
            columns.append([dets[full ^ (1 << c)] for c in range(n)])
            yield columns[-1]
        yield [_key_sum(entries) for entries in zip(*columns)]
        critical = []
        for r, (row, column) in enumerate(zip(rows, columns)):
            reach = [(p >> 1) + (q >> 1) for p, q in zip(row, column)
                     if p is not None and q is not None]
            if column[r] is not None and max(reach, default=None) == t + (column[r] >> 1):
                critical.append(column)
        if critical:
            lift = (n - 1) * t << 1
            yield [None if k is None else k - lift for k in map(_key_sum, zip(*critical))]

    pairs = []
    for (t, den), _ in _corners(char_poly(a, bound)):
        x = tangible(_cut_value((t, den), scale))
        rows = [[_key_pow(k, den) for k in row] for row in keys]
        b = [[_key_sum((k, t << 1)) if i == j else k for j, k in enumerate(row)]
             for i, row in enumerate(rows)]
        vectors = (tuple(tangible(_decode(k, den * scale).value) for k in col)
                   for col in candidates(t, rows, b) if None not in col)
        pairs.append((x, next((v for v in vectors if check_eigenpair(a, v, x).holds), None)))
    return pairs


def check_eigen_power(a: Matrix, v: Sequence[Scalar], x: Scalar, m: int) -> Verdict:
    """Given an eigenpair (v, x) of A, is (v, x^m) an eigenpair of A^m?"""
    if not check_eigenpair(a, v, x).holds:
        raise DomainError("(v, x) is not an eigenpair of the given matrix")
    return _eigen_power(mat_pow(a, m), v, x, m)


def _eigen_power(power: Matrix, v: Sequence[Scalar], x: Scalar, m: int, *head: dict) -> Verdict:
    """Is (v, x^m) an eigenpair of ``power`` = A^m? The detail records follow ``head``."""
    inner = check_eigenpair(power, v, x**m)
    witness = None if inner.holds else {**inner.witness, "m": m}
    return Verdict("eigen-power", inner.holds, witness, (*head, *inner.detail))


def _text(k: int | None, scale: int) -> str:
    return str(_decode(k, scale))


class Trial:
    """One input to the matrix-power laws: matrices ``a`` and ``b``, the
    power ``m`` and the det/charpoly dimension ``bound``. Only the
    determinant product rule reads ``b``, and it alone ignores ``m``.

    Thm 3.6 and Cor 3.7/3.8 each compare charpoly(A) with charpoly(A^m), the
    trace law and prop32 read A^m too, and the determinant rule reads det(A)
    as coefficient 0 of charpoly(A), and det(B) and det(AB) off their
    determinant columns. So the trial computes each once, on first use:
    ``power`` = A^m, ``alpha`` = charpoly(A) and ``beta`` = charpoly(A^m),
    which the matrices keep as keys. Running every law builds one key-space
    power, one product AB, two characteristic-polynomial tables, each kept
    by its matrix, and two integer determinant columns. The laws compare
    keys at A's scale, or at the joint scale of A and B, and decode nothing
    unless a verdict's detail or witness is read. A campaign runs and
    reports them in ``LAW_IDS`` order.
    """

    def __init__(self, a: Matrix, b: Matrix, m: int, bound: int | None = None):
        self.a, self.b, self.m, self.bound = a, b, m, bound

    @cached_property
    def power(self) -> Matrix:
        return mat_pow(self.a, self.m)

    @cached_property
    def alpha(self) -> Polynomial:
        return char_poly(self.a, self.bound)

    @cached_property
    def beta(self) -> Polynomial:
        # m, then n, before A^m: a bad m is refused first, and an oversize A costs no product.
        check_power(self.m)
        check_dim_bound("characteristic polynomial", self.a.n, self.bound)
        return char_poly(self.power, self.bound)

    @cached_property
    def _coeff_keys(self) -> tuple[tuple[int | None, int | None], ...]:
        """The keys of ``(beta.coeff(i), alpha.coeff(i) ** m)`` for i = 0..n,
        compared by thm36 and cor37."""
        # Both characteristic polynomials have degree n: n + 1 coefficients each.
        beta = self.beta._keys[1]
        return tuple(zip(beta, [_key_pow(k, self.m) for k in self.alpha._keys[1]]))

    def witness(self, **extra) -> dict:
        return {"matrix": self.a.to_json_dict(), "m": self.m, **extra}


def _relation(b: int | None, ap: int | None) -> str:
    if b == ap:
        return "equal"
    return "ghost-surpass" if _key_surpasses(b, ap) else "violation"


def _coeff_law(t: Trial, check: str, field: str, judge: Callable) -> Verdict:
    """Each coefficient of charpoly(A^m) ghost-surpasses the m-th power of the
    matching one of charpoly(A). A detail record gives ``judge(coeff, power)``
    as ``field``; the witness names the last index that fails."""
    pairs = t._coeff_keys
    bad = None
    for i, (b, ap) in enumerate(pairs):
        if not _key_surpasses(b, ap):
            bad = i
    scale = t.a._keys[0]

    def detail():
        for i, (b, ap) in enumerate(pairs):
            yield {"i": i, "coeff": _text(b, scale), "power": _text(ap, scale),
                   field: judge(b, ap)}

    witness = None if bad is None else t.witness(i=bad)
    return Verdict(check, bad is None, witness, detail)


def _charpoly_power(t: Trial) -> Verdict:
    return _coeff_law(t, "charpoly-power", "relation", _relation)


def _det_rule(t: Trial) -> Verdict:
    # det(A) is coefficient 0 of charpoly(A), which the other laws build
    # anyway; det(AB) and det(B) are read off determinant columns alone. The
    # dimension is checked first, so that an oversize matrix is refused as a
    # determinant.
    _check_product_shape(t.a.n, t.b.n)
    check_dim_bound("determinant", t.a.n, t.bound)
    ab = mat_mul(t.a, t.b)
    scale = ab._keys[0]
    lhs = _det_column(ab._keys[1])[-1]
    # rhs = det(A) * det(B), the key-space product, with each rescaled from
    # its own matrix's scale to AB's.
    p = _key_pow(t.alpha._keys[1][0], scale // t.a._keys[0])
    q = _key_pow(_det_column(t.b._keys[1])[-1], scale // t.b._keys[0])
    rhs = None if p is None or q is None else p + q - (p & q & 1)
    holds = _key_surpasses(lhs, rhs)

    def detail():
        yield {
            "lhs": _text(lhs, scale),
            "rhs": _text(rhs, scale),
            "tangible_equality": lhs == rhs if lhs is not None and not lhs & 1 else None,
        }

    witness = None if holds else {"a": t.a.to_json_dict(), "b": t.b.to_json_dict()}
    return Verdict("det-product", holds, witness, detail)


def _tangible_equality(t: Trial) -> Verdict:
    if any(k is not None and k & 1 for k in t.beta._keys[1]):
        return Verdict("tangible-equality", None)
    # Every coefficient is now tangible or -inf, and such a key ghost-surpasses
    # only itself: the law is equality.
    return _coeff_law(t, "tangible-equality", "equal", operator.eq)


def _root_text(cut: tuple[int, int], scale: int) -> str:
    return str(tangible(_cut_value(cut, scale)))


def _corner_root_power(t: Trial) -> Verdict:
    # Corner roots are tangible, so lam ** m == mu compares magnitudes alone.
    # Both characteristic polynomials are at A's scale, where a
    # corner root is the envelope cut (num, den) of magnitude
    # num / (den * scale); the scale cancels, so mu = (nb, db) is lam ** m
    # for lam = (na, da) exactly when na * m * db == nb * da.
    m = t.m
    base_roots = [cut for cut, _ in _corners(t.alpha)]
    matches = []
    bad = None
    for mu, _mult in _corners(t.beta):
        nb, db = mu
        match = next((lam for lam in base_roots if lam[0] * m * db == nb * lam[1]), None)
        if match is None:
            bad = mu
        matches.append((mu, match))
    scale = t.a._keys[0]

    def detail():
        for mu, match in matches:
            yield {"corner_root": _root_text(mu, scale),
                   "base_root": None if match is None else _root_text(match, scale)}

    witness = None if bad is None else t.witness(corner_root=_root_text(bad, scale))
    return Verdict("corner-root-power", bad is None, witness, detail)


def _trace_power(t: Trial) -> Verdict:
    lhs = _key_sum(row[i] for i, row in enumerate(t.power._keys[1]))
    scale, x = t.a._keys
    rhs = _key_pow(_key_sum(row[i] for i, row in enumerate(x)), t.m)
    holds = _key_surpasses(lhs, rhs)

    def detail():
        yield {"lhs": _text(lhs, scale), "rhs": _text(rhs, scale)}

    witness = None if holds else t.witness()
    return Verdict("trace-power", holds, witness, detail)


CHECKS: dict[str, Callable[[Trial], Verdict]] = dict(zip(
    LAW_IDS,
    (_det_rule, _charpoly_power, _tangible_equality, _corner_root_power, _trace_power),
    strict=True,
))
"""The matrix-power laws by check id, each a function of one ``Trial``.

In ``defaults.LAW_IDS`` order, the paper's, which the command line reads
without loading this module. Both ``check`` and ``fuzz`` dispatch through
this table; every law reads the trial's cached A^m and characteristic
polynomials. A campaign runs and reports the laws, and lists one trial's
violations, in ``LAW_IDS`` order.
"""


def eigen_power_verdicts(t: Trial) -> list[Verdict]:
    """The prop32 verdicts: is (v, x^m) an eigenpair of the trial's A^m, for
    each tangible eigenvalue x of A and its eigenvector v from `eigenpairs`
    (led by x and v; N/A without v, or without x)? The pairs are not checked
    again on A, and m is refused also when no pair reads A^m."""
    check_power(t.m)
    verdicts = []
    for x, v in eigenpairs(t.a, t.bound):
        head = {"eigenvalue": str(x)}
        if v is None:
            head["note"] = ("no column of adj(A + xI) or critical column of the star of |A| - x,"
                            " nor either sum, gives a tangible eigenvector")
            verdicts.append(Verdict("eigen-power", None, None, (head,)))
        else:
            head["vector"] = "(" + ", ".join(map(str, v)) + ")"
            verdicts.append(_eigen_power(t.power, v, x, t.m, head))
    return verdicts or [Verdict("eigen-power", None, None, ({"note": "no tangible eigenvalue"},))]


def check_charpoly_power(a: Matrix, m: int, bound: int | None = None) -> Verdict:
    """Each coefficient of charpoly(A^m) ghost-surpasses the m-th power of
    the matching coefficient of charpoly(A)."""
    return CHECKS["thm36"](Trial(a, a, m, bound))


def check_tangible_equality(a: Matrix, m: int, bound: int | None = None) -> Verdict:
    """When charpoly(A^m) has no ghost coefficient, it must equal the
    coefficientwise m-th power of charpoly(A) exactly."""
    return CHECKS["cor37"](Trial(a, a, m, bound))


def check_corner_root_power(a: Matrix, m: int, bound: int | None = None) -> Verdict:
    """Every corner root of charpoly(A^m) is the m-th power of a corner root
    of charpoly(A). Containment only; the converse can fail."""
    return CHECKS["cor38"](Trial(a, a, m, bound))


def check_det_rule(a: Matrix, b: Matrix, bound: int | None = None) -> Verdict:
    """det(AB) ghost-surpasses det(A)*det(B); equality whenever det(AB) is
    tangible (implied, but recorded separately in the detail)."""
    return CHECKS["thm13"](Trial(a, b, 1, bound))


def check_trace_power(a: Matrix, m: int) -> Verdict:
    """trace(A^m) ghost-surpasses trace(A)^m."""
    return CHECKS["trace"](Trial(a, a, m))


def check_frobenius(a: Scalar, b: Scalar, n: int) -> Verdict:
    """(a+b)^n equals a^n + b^n exactly over this carrier."""
    if n < 1:
        raise DomainError("exponent must be at least 1")
    lhs = (a + b) ** n
    rhs = a**n + b**n
    holds = lhs == rhs
    witness = None if holds else {"a": str(a), "b": str(b), "n": n}
    return Verdict("frobenius", holds, witness, ({"lhs": str(lhs), "rhs": str(rhs)},))
