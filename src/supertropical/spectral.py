"""Eigenvalues and executable checkers for the matrix-power laws.

Each checker computes both sides of one stated relation and returns a
`Verdict` carrying per-coefficient detail and, on failure, a witness that
reproduces the computation. A conditional law whose hypothesis does not
hold reports ``holds=None`` (not applicable) rather than pass or fail.
The matrix-power laws are functions of one cached ``Trial``, listed by
check id in ``CHECKS``; the public ``check_*`` functions wrap them. A trial
works in the matrix kernel's key space from end to end: it encodes A and B
once, keeps A^m as keys, and decodes only the characteristic polynomials,
the determinant values and the diagonal of A^m that the laws compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

from .defaults import LAW_IDS
from .errors import DomainError
from .matrix import (
    Matrix,
    _Keys,
    _char_poly_from_keys,
    _check_product_shape,
    _det_value,
    _encode,
    _key_power,
    _key_product,
    char_poly,
    check_dim_bound,
    mat_pow,
    mat_vec,
    trace,
)
from .polynomial import Interval, Polynomial, roots
from .scalar import Scalar, ZERO, _decode


@dataclass(frozen=True)
class Verdict:
    """Outcome of one law check; ``holds=None`` means not applicable."""

    check: str
    holds: bool | None
    witness: dict | None = None
    detail: tuple[dict, ...] = ()

    @property
    def applicable(self) -> bool:
        return self.holds is not None

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


@dataclass(frozen=True)
class EigenReport:
    """Tangible corner roots of the characteristic polynomial, with the
    ghost-dominated root region kept alongside for diagnostics."""

    eigenvalues: tuple[tuple[Scalar, int], ...]
    ghost_region: tuple[Interval, ...] = field(default=())

    def to_json_dict(self) -> dict:
        return {
            "eigenvalues": [
                {"value": str(v), "multiplicity": m} for v, m in self.eigenvalues
            ],
            "ghost_region": [iv.to_json_dict() for iv in self.ghost_region],
        }


def eigenvalues(a: Matrix, bound: int | None = None) -> EigenReport:
    report = roots(char_poly(a, bound))
    return EigenReport(report.corner_roots, report.ghost_intervals)


def _require_tangible(v: Sequence[Scalar], x: Scalar) -> None:
    if not x.is_tangible:
        raise DomainError("candidate eigenvalue must be tangible")
    if any(not vi.is_tangible for vi in v):
        raise DomainError("candidate eigenvector entries must be tangible")


def check_eigenpair(a: Matrix, v: Sequence[Scalar], x: Scalar) -> Verdict:
    """Does A*v ghost-surpass x*v componentwise?"""
    _require_tangible(v, x)
    av = mat_vec(a, v)
    detail = []
    holds = True
    for i, (lhs, vi) in enumerate(zip(av, v)):
        rhs = x * vi
        ok = lhs.surpasses(rhs)
        holds = holds and ok
        detail.append({"i": i, "lhs": str(lhs), "rhs": str(rhs), "ok": ok})
    witness = None
    if not holds:
        witness = {
            "matrix": a.to_json_dict(),
            "vector": [str(vi) for vi in v],
            "value": str(x),
        }
    return Verdict("eigen-pair", holds, witness, tuple(detail))


def check_eigen_power(a: Matrix, v: Sequence[Scalar], x: Scalar, m: int) -> Verdict:
    """Given an eigenpair (v, x) of A, is (v, x^m) an eigenpair of A^m?"""
    base = check_eigenpair(a, v, x)
    if not base.holds:
        raise DomainError("(v, x) is not an eigenpair of the given matrix")
    inner = check_eigenpair(mat_pow(a, m), v, x**m)
    witness = None
    if not inner.holds:
        witness = dict(inner.witness or {})
        witness["m"] = m
    return Verdict("eigen-power", inner.holds, witness, inner.detail)


@dataclass(frozen=True)
class Trial:
    """One input to the matrix-power laws: matrices ``a`` and ``b``, the
    power ``m`` and the det/charpoly dimension ``bound``. Only the
    determinant product rule reads ``b``, and it alone ignores ``m``.

    Thm 3.6 and Cor 3.7/3.8 each compare charpoly(A) with charpoly(A^m), the
    trace law reads A^m too, and the determinant rule reads det(A) as
    coefficient 0 of charpoly(A). So the trial computes each of these once,
    on first use, in the matrix kernel's key space: running every law on one
    trial costs one joint encode of A and B, one key-space power A^m, two
    characteristic-polynomial tables (``alpha`` = charpoly(A), ``beta`` =
    charpoly(A^m)) and two value-only determinants (det(AB), det(B)), with
    no decode of A^m or AB.
    """

    a: Matrix
    b: Matrix
    m: int
    bound: int | None = None

    @cached_property
    def _keys(self) -> tuple[int, _Keys, _Keys]:
        """The joint scale and the keys of ``a`` and ``b``, encoded once."""
        scale, (x, y) = _encode(self.a, self.b)
        return scale, x, y

    @cached_property
    def _power_keys(self) -> _Keys:
        return _key_power(self._keys[1], self.m)

    @cached_property
    def alpha(self) -> Polynomial:
        check_dim_bound("characteristic polynomial", self.a, self.bound)
        scale, x, _ = self._keys
        return _char_poly_from_keys(x, scale)

    @cached_property
    def beta(self) -> Polynomial:
        # The power first: a negative or oversize m is refused before the dimension.
        power = self._power_keys
        check_dim_bound("characteristic polynomial", self.a, self.bound)
        return _char_poly_from_keys(power, self._keys[0])

    @cached_property
    def coeff_pairs(self) -> tuple[tuple[Scalar, Scalar], ...]:
        """``(beta.coeff(i), alpha.coeff(i) ** m)`` for i = 0..n, compared by thm36 and cor37."""
        # Both characteristic polynomials have degree n: n + 1 coefficients each.
        return tuple(zip(self.beta.coeffs, [c ** self.m for c in self.alpha.coeffs]))

    def witness(self, **extra) -> dict:
        return {"matrix": self.a.to_json_dict(), "m": self.m, **extra}


def _charpoly_power(t: Trial) -> Verdict:
    detail = []
    bad = None
    for i, (b, ap) in enumerate(t.coeff_pairs):
        if b == ap:
            relation = "equal"
        elif b.surpasses(ap):
            relation = "ghost-surpass"
        else:
            relation = "violation"
            bad = i
        detail.append({"i": i, "coeff": str(b), "power": str(ap), "relation": relation})
    witness = None if bad is None else t.witness(i=bad)
    return Verdict("charpoly-power", bad is None, witness, tuple(detail))


def _det_rule(t: Trial) -> Verdict:
    # det(A) is coefficient 0 of the cached charpoly(A); the dimension is
    # checked first, so that an oversize matrix is refused as a determinant.
    _check_product_shape(t.a, t.b)
    check_dim_bound("determinant", t.a, t.bound)
    scale, x, y = t._keys
    lhs = _det_value(_key_product(x, y), scale)
    rhs = t.alpha.coeff(0) * _det_value(y, scale)
    holds = lhs.surpasses(rhs)
    detail = (
        {
            "lhs": str(lhs),
            "rhs": str(rhs),
            "tangible_equality": (lhs == rhs) if lhs.is_tangible else None,
        },
    )
    witness = None
    if not holds:
        witness = {"a": t.a.to_json_dict(), "b": t.b.to_json_dict()}
    return Verdict("det-product", holds, witness, detail)


def _tangible_equality(t: Trial) -> Verdict:
    if any(c.is_ghost for c in t.beta.coeffs):
        return Verdict("tangible-equality", None)
    detail = []
    bad = None
    for i, (b, ap) in enumerate(t.coeff_pairs):
        ok = b == ap
        if not ok:
            bad = i
        detail.append({"i": i, "coeff": str(b), "power": str(ap), "equal": ok})
    witness = None if bad is None else t.witness(i=bad)
    return Verdict("tangible-equality", bad is None, witness, tuple(detail))


def _corner_root_power(t: Trial) -> Verdict:
    base_roots = roots(t.alpha).corner_roots
    power_roots = roots(t.beta).corner_roots
    detail = []
    bad = None
    for mu, _mult in power_roots:
        match = next((lam for lam, _ in base_roots if lam**t.m == mu), None)
        if match is None:
            bad = mu
        detail.append(
            {"corner_root": str(mu), "base_root": None if match is None else str(match)}
        )
    witness = None if bad is None else t.witness(corner_root=str(bad))
    return Verdict("corner-root-power", bad is None, witness, tuple(detail))


def _trace_power(t: Trial) -> Verdict:
    scale = t._keys[0]
    lhs = sum((_decode(row[i], scale) for i, row in enumerate(t._power_keys)), ZERO)
    rhs = trace(t.a) ** t.m
    holds = lhs.surpasses(rhs)
    witness = None if holds else t.witness()
    return Verdict("trace-power", holds, witness, ({"lhs": str(lhs), "rhs": str(rhs)},))


CHECKS: dict[str, Callable[[Trial], Verdict]] = dict(zip(
    LAW_IDS,
    (_charpoly_power, _det_rule, _tangible_equality, _corner_root_power, _trace_power),
    strict=True,
))
"""The matrix-power laws by check id, each a function of one ``Trial``.

The ids are ``defaults.LAW_IDS``, which the command line reads without
loading this module. Both ``check`` and ``fuzz`` dispatch through this table, and every law reads
the trial's cached A^m and characteristic polynomials instead of computing
its own. A campaign runs the laws in this order, which is also the order of
one trial's entries in the violations list.
"""


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
