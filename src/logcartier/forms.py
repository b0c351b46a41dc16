"""Logarithmic differential forms over F_p coefficient rings.

A FormRing is F_p[T_1..T_m], Laurent in a designated subset of the variables,
together with a log set L: the module of 1-forms is free with generators

    dlog T_i = dT_i / T_i   for i in L,
    dT_i                    for i not in L.

dT_i for i in L is never stored: it is eagerly rewritten as T_i * dlog T_i
(the relation f dlog f = df for f = T_i).  An n-form is a finite sum of terms

    c * T^a * g_{i_1} ^ ... ^ g_{i_n},    i_1 < ... < i_n,  c in F_p*,

kept as a map (a, (i_1,...,i_n)) -> c.  The weight (multidegree) of a term is
a plus e_i for every dT generator; dlog generators contribute weight 0.  The
differential, residue and restriction all respect this grading, so each weight
slice of Omega^n is a small F_p vector space and every exactness statement in
the package is checked slice by slice.

Every ring carries an explicit degree window (a bounding box in Z^m for stored
exponents).  Operations whose result would leave the window raise
WindowOverflow; truncation is never silent.

Slices by generator sets.  Since dT_i = T_i dlog T_i, every basis term
T^a g_I of the weight-w slice equals T^w dlog T_I (a = w minus e_i for each
dT generator i in I), so a slice basis is fixed by its allowed sets I: the
window puts each coordinate in I, out of I, or leaves it free (WeightSlice).
On the term T^w dlog T_I the structural maps are index arithmetic, with w'
the weight w without coordinate z:

    d          sum over k not in I of (-1)^#{g in I: g < k} (w_k mod p)
               T^w dlog T_{I + k}: the Koszul wedge with w mod p;
    C^{-1}     T^{pw} dlog T_I: the same I at weight p w (cartier);
    transport  T^w dlog T_I in another log structure: the identity on I;
               the twist T_z ^ then transport sends it to weight w + e_z,
               and the extension by trailing variables keeps I (sequences);
    residue    at a log z: (-1)^(position of z in I) T^w' dlog T_{I - z}
               when z is in I and w_z = 0, and 0 when z is not in I or
               w_z > 0;
    restrict   to V(T_z): T^w' dlog T_I when z is not in I and w_z = 0, and
               0 when T_z or dT_z divides the term;
    Euler      sum over t of (-1)^t T^w dlog T_{I - i_t} (sequences).

d_matrix, residue_matrix, restrict_matrix and their companions in sequences
and cartier each build the slice the map lands in and return (target,
matrix), filled from these formulas through slice_map_by_index, with no
LogForm per basis vector; transport, twist and extension take the target
ring.  Where the formulas do not hold they raise ValueError up front:
transport or twist into a ring with other variable names, a twist or
residue at a non-log variable, an extension that changes a shared
variable's log status.  A column the formula does not decide (an image
outside the window, a pole, a generator the map refuses) is the LogForm
operation applied to that basis form, so every exception is the
operation's own.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import cached_property
from itertools import combinations

import numpy as np

from .gflinalg import FpMatrix, PrimeField


class WindowOverflow(ArithmeticError):
    """A computed exponent left the ring's degree window."""


class LogPoleError(ValueError):
    """A restriction/substitution hit a pole it cannot evaluate."""


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*$")


def _as_tuple(v) -> tuple[int, ...]:
    return tuple(map(int, v))


# a coordinate's status in a slice (FormRing.layout): in no allowed I, in
# some, in every
_NONE, _FREE, _FORCED = 0, 1, 2

# the place of a value x against a coordinate's window (lo, hi)
# (FormRing.place): below it, at lo, inside (lo < x <= hi), at hi + 1, above
_BELOW, _LO, _INSIDE, _PAST, _ABOVE = range(5)

# the status of a coordinate by whether it is log and its place; None
# empties the slice
_STATUS = {
    False: (None, _NONE, _FREE, _FORCED, None),
    True: (None, _FREE, _FREE, None, None),
}


def _exponent(w, gens, log) -> tuple[int, ...]:
    """The exponent a of the slice basis term T^w dlog T_I = T^a g_I."""
    a = list(w)
    for g in gens:
        if g not in log:
            a[g] -= 1
    return tuple(a)


class FormRing:
    """F_p[T_1..T_m] (Laurent at `laurent` indices) with log set `log`.

    `window` is either an integer radius r (exponent range [0, r], or [-r, r]
    at Laurent indices) or an explicit sequence of (lo, hi) pairs.  Variable
    indices are 0-based internally; default display names are T1..Tm.
    """

    def __init__(self, p, m=None, *, names=None, log=(), laurent=(), window=8):
        self.field = p if isinstance(p, PrimeField) else PrimeField(p)
        self.p = self.field.p
        if names is None:
            if m is None:
                raise ValueError("need m or names")
            names = tuple(f"T{i + 1}" for i in range(m))
        names = tuple(names)
        if m is not None and m != len(names):
            raise ValueError("m inconsistent with names")
        for nm in names:
            if not _NAME_RE.match(nm) or nm.startswith("d"):
                raise ValueError(f"bad variable name {nm!r}")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.names = names
        self.m = len(names)
        self.log = frozenset(int(i) for i in log)
        self.laurent = frozenset(int(i) for i in laurent)
        sup = self.log | self.laurent
        if sup and not sup <= set(range(self.m)):
            raise ValueError("log/laurent indices out of range")
        if isinstance(window, int):
            if window < 0:
                raise ValueError("window radius must be >= 0")
            window = tuple(
                (-window, window) if i in self.laurent else (0, window)
                for i in range(self.m)
            )
        else:
            window = tuple((int(lo), int(hi)) for lo, hi in window)
        if len(window) != self.m:
            raise ValueError("window length mismatch")
        for i, (lo, hi) in enumerate(window):
            if lo > 0 or hi < 0:
                raise ValueError("window must contain exponent 0")
            if lo < 0 and i not in self.laurent:
                raise ValueError(f"negative window at non-Laurent index {i}")
        self.window = window
        # rings made by drop_var and with_log, so that repeated calls return
        # one object, and the slice layouts; not part of the ring's value
        # (__eq__, __hash__)
        self._derived: dict = {}
        # the slice matrices of per_class, one dict for the ring's family
        self._classes: dict = {}

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, FormRing) and (
            (self.p, self.names, self.log, self.laurent, self.window)
            == (other.p, other.names, other.log, other.laurent, other.window)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.names, self.log, self.laurent, self.window))

    def __repr__(self) -> str:
        return (
            f"FormRing(p={self.p}, names={self.names}, log={sorted(self.log)}, "
            f"laurent={sorted(self.laurent)})"
        )

    # -- exponent bookkeeping ---------------------------------------------

    def in_window(self, a) -> bool:
        return all(lo <= x <= hi for x, (lo, hi) in zip(a, self.window))

    def check_window(self, a) -> tuple[int, ...]:
        a = _as_tuple(a)
        if len(a) != self.m:
            raise ValueError("exponent length mismatch")
        if not self.in_window(a):
            raise WindowOverflow(f"exponent {a} outside window {self.window}")
        return a

    def gen_weight(self, i: int) -> tuple[int, ...]:
        """Weight of the degree-1 generator for variable i."""
        if i in self.log:
            return (0,) * self.m
        return tuple(1 if k == i else 0 for k in range(self.m))

    def term_weight(self, a, gens) -> tuple[int, ...]:
        w = list(a)
        for g in gens:
            if g not in self.log:
                w[g] += 1
        return tuple(w)

    def weight_box(self, j: int):
        """Componentwise (lo, hi) bounds on weights of degree-j terms."""
        out = []
        for i, (lo, hi) in enumerate(self.window):
            out.append((lo, hi if i in self.log else hi + 1))
        return tuple(out)

    def iter_weights(self, j: int):
        """All weights w whose degree-j slice could be nonempty, in lex order."""
        box = self.weight_box(j)

        def rec(prefix, k):
            if k == self.m:
                yield tuple(prefix)
                return
            lo, hi = box[k]
            for x in range(lo, hi + 1):
                yield from rec(prefix + [x], k + 1)

        yield from rec([], 0)

    # -- constructors -------------------------------------------------------

    def zero(self, degree: int = 0) -> "LogForm":
        return LogForm(self, degree, {})

    def scalar(self, c: int) -> "LogForm":
        return self.monomial((0,) * self.m, c)

    def one(self) -> "LogForm":
        return self.scalar(1)

    def monomial(self, a, c: int = 1) -> "LogForm":
        a = self.check_window(a)
        return LogForm(self, 0, {(a, ()): c % self.p} if c % self.p else {})

    def gen(self, i: int) -> "LogForm":
        """The module generator for variable i (dlog T_i or dT_i)."""
        if not 0 <= i < self.m:
            raise ValueError("generator index out of range")
        zero = (0,) * self.m
        return LogForm(self, 1, {(zero, (i,)): 1})

    def dT(self, i: int) -> "LogForm":
        if i in self.log:
            a = self.check_window(tuple(1 if k == i else 0 for k in range(self.m)))
            return LogForm(self, 1, {(a, (i,)): 1})
        return self.gen(i)

    def dlog(self, i: int) -> "LogForm":
        if i in self.log:
            return self.gen(i)
        if i in self.laurent:
            a = self.check_window(tuple(-1 if k == i else 0 for k in range(self.m)))
            return LogForm(self, 1, {(a, (i,)): 1})
        raise ValueError(f"dlog T_{i} is not a form here (not log, not Laurent)")

    # -- structure maps ------------------------------------------------------

    def drop_var(self, i: int):
        """Ring with variable i removed; returns (ring, old->new index map).
        Built once per ring and i: repeated calls return the same pair.
        Every caller only reads the index map, so sharing it is safe.  The
        ring shares this one's class store (`per_class`)."""
        if not 0 <= i < self.m:
            raise ValueError("index out of range")
        key = ("drop_var", i)
        if key not in self._derived:
            keep = [k for k in range(self.m) if k != i]
            imap = {old: new for new, old in enumerate(keep)}
            sub = FormRing(
                self.field,
                names=tuple(self.names[k] for k in keep),
                log=frozenset(imap[k] for k in self.log if k != i),
                laurent=frozenset(imap[k] for k in self.laurent if k != i),
                window=tuple(self.window[k] for k in keep),
            )
            sub._classes = self._classes
            self._derived[key] = (sub, imap)
        return self._derived[key]

    def with_log(self, log) -> "FormRing":
        """The same ring with log set `log`, built once per ring and set.
        It shares this ring's class store (`per_class`)."""
        key = ("with_log", frozenset(log))
        if key not in self._derived:
            ring = FormRing(
                self.field, names=self.names, log=key[1], laurent=self.laurent, window=self.window
            )
            ring._classes = self._classes
            self._derived[key] = ring
        return self._derived[key]

    def slice(self, j: int, w) -> "WeightSlice":
        return WeightSlice(self, j, _as_tuple(w))

    def place(self, k: int, x: int) -> int:
        """The place of value x against the window (lo, hi) of coordinate k:
        below it, at lo, inside (lo < x <= hi), at hi + 1, or above it.
        The rings derived by with_log and drop_var keep each coordinate's
        window, so one place serves all of them."""
        lo, hi = self.window[k]
        if x <= lo:
            return _LO if x == lo else _BELOW
        if x <= hi:
            return _INSIDE
        return _PAST if x == hi + 1 else _ABOVE

    def status(self, k: int, x: int):
        """The status of coordinate k in every slice at a weight w with
        w_k = x (WeightSlice): in no allowed generator set (_NONE), free
        (_FREE), in every one (_FORCED), or None where the slice is empty.
        A function of the place of x and of whether k is log."""
        return _STATUS[k in self.log][self.place(k, x)]

    def layout(self, j: int, w):
        """(gens, index) of the degree-j weight-w slice: its generator sets I
        in basis order and the position of each.  They depend on w only
        through each coordinate's status (WeightSlice), so they are built
        once per ring, j and status tuple and shared; both are read-only."""
        log = self.log
        # the statuses of `status`, inline, since every slice reads them
        status = []
        for k, (x, (lo, hi)) in enumerate(zip(w, self.window)):
            if lo <= x <= hi:
                status.append(_FREE if lo < x or k in log else _NONE)
            elif x == hi + 1 and k not in log:
                status.append(_FORCED)
            else:
                status = None  # the slice is empty
                break
        key = ("layout", j, None if status is None else tuple(status))
        hit = self._derived.get(key)
        if hit is None:
            basis = []
            if status is not None:
                forced = [k for k, s in enumerate(status) if s == _FORCED]
                free = [k for k, s in enumerate(status) if s == _FREE]
                size = j - len(forced)
                for more in combinations(free, size) if 0 <= size <= len(free) else ():
                    gens = tuple(sorted(forced + list(more))) if forced else more
                    basis.append((_exponent(w, gens, log), gens))
                # a - w = -e_{I minus log} for every w of this status
                basis.sort()
            gens = tuple(g for _a, g in basis)
            hit = self._derived[key] = (gens, {g: k for k, g in enumerate(gens)})
        return hit

    def gens(self, j: int, w) -> tuple:
        """The generator sets of the degree-j weight-w slice in basis order,
        without building the slice (`layout`)."""
        return self.layout(j, w)[0]

    def per_class(self, key, build) -> FpMatrix:
        """The matrix build(), built once per ring family and `key` and kept
        with its array read-only.  A ring's family is the ring and every ring
        derived from it by drop_var or with_log, at any depth; they share p
        and one store.  `key` must fix the matrix given p, whatever the
        ring's log set, window or variables (the slice classes of the cartier
        module).  A build that raises keeps nothing, so every call of its
        class raises for itself."""
        hit = self._classes.get(key)
        if hit is None:
            hit = build()
            hit.array.flags.writeable = False
            self._classes[key] = hit
        return hit


def _merge_sign(g1: tuple[int, ...], g2: tuple[int, ...]):
    """Sign and result of wedging two sorted index sets; (0, None) on overlap."""
    out = []
    inversions = 0
    i = j = 0
    while i < len(g1) and j < len(g2):
        if g1[i] == g2[j]:
            return 0, None
        if g1[i] < g2[j]:
            out.append(g1[i])
            i += 1
        else:
            out.append(g2[j])
            j += 1
            inversions += len(g1) - i
    out.extend(g1[i:])
    out.extend(g2[j:])
    return (-1) ** (inversions & 1), tuple(out)


class LogForm:
    """A homogeneous-degree logarithmic differential form.  Immutable."""

    __slots__ = ("ring", "degree", "terms")

    def __init__(self, ring: FormRing, degree: int, terms: dict):
        self.ring = ring
        self.degree = degree
        self.terms = dict(terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, a, gens) -> int:
        return self.terms.get((_as_tuple(a), tuple(gens)), 0)

    def weights(self) -> list[tuple[int, ...]]:
        return sorted({self.ring.term_weight(a, g) for (a, g) in self.terms})

    def weight(self):
        """The single weight of a homogeneous form (None for the zero form)."""
        ws = self.weights()
        if not ws:
            return None
        if len(ws) > 1:
            raise ValueError(f"form is not weight-homogeneous: {ws}")
        return ws[0]

    # -- algebra -----------------------------------------------------------

    def _check_ring(self, other: "LogForm"):
        if self.ring != other.ring:
            raise ValueError("forms live in different rings")

    def __add__(self, other: "LogForm") -> "LogForm":
        self._check_ring(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        p = self.ring.p
        acc = dict(self.terms)
        for k, c in other.terms.items():
            v = (acc.get(k, 0) + c) % p
            if v:
                acc[k] = v
            else:
                acc.pop(k, None)
        return LogForm(self.ring, self.degree, acc)

    def __neg__(self) -> "LogForm":
        p = self.ring.p
        return LogForm(self.ring, self.degree, {k: (-c) % p for k, c in self.terms.items()})

    def __sub__(self, other: "LogForm") -> "LogForm":
        return self + (-other)

    def __mul__(self, c) -> "LogForm":
        if isinstance(c, LogForm):
            return self.wedge(c)
        c = int(c) % self.ring.p
        if c == 0:
            return self.ring.zero(self.degree)
        return LogForm(
            self.ring, self.degree, {k: (v * c) % self.ring.p for k, v in self.terms.items()}
        )

    __rmul__ = __mul__

    def wedge(self, other: "LogForm") -> "LogForm":
        self._check_ring(other)
        ring = self.ring
        p = ring.p
        acc: dict = {}
        for (a1, g1), c1 in self.terms.items():
            for (a2, g2), c2 in other.terms.items():
                sign, gens = _merge_sign(g1, g2)
                if sign == 0:
                    continue
                a = tuple(x + y for x, y in zip(a1, a2))
                if not ring.in_window(a):
                    raise WindowOverflow(
                        f"wedge exponent {a} outside window {ring.window}"
                    )
                key = (a, gens)
                v = (acc.get(key, 0) + sign * c1 * c2) % p
                if v:
                    acc[key] = v
                else:
                    acc.pop(key, None)
        return LogForm(ring, self.degree + other.degree, acc)

    def d(self) -> "LogForm":
        """Exterior differential; d(T^a ^ w_I) = d(T^a) ^ w_I termwise."""
        ring = self.ring
        p = ring.p
        acc: dict = {}
        for (a, gens), c in self.terms.items():
            for i in range(ring.m):
                coeff = (c * a[i]) % p
                if coeff == 0 or i in gens:
                    continue
                sign = (-1) ** sum(1 for g in gens if g < i)
                _, ngens = _merge_sign((i,), gens)
                if i in ring.log:
                    na = a
                else:
                    na = tuple(x - 1 if k == i else x for k, x in enumerate(a))
                    if not ring.in_window(na):
                        raise WindowOverflow(
                            f"d-image exponent {na} outside window {ring.window}"
                        )
                key = (na, ngens)
                v = (acc.get(key, 0) + sign * coeff) % p
                if v:
                    acc[key] = v
                else:
                    acc.pop(key, None)
        return LogForm(ring, self.degree + 1, acc)

    # -- residue and restriction -------------------------------------------

    def residue(self, i: int) -> "LogForm":
        """Coefficient of dlog T_i (written on the left), evaluated at T_i = 0,
        as a form on the ring with variable i dropped."""
        ring = self.ring
        if i not in ring.log:
            raise ValueError(f"residue needs a log variable, {i} is not one")
        sub, imap = ring.drop_var(i)
        p = ring.p
        acc: dict = {}
        for (a, gens), c in self.terms.items():
            if i not in gens:
                continue
            if a[i] > 0:
                continue
            if a[i] < 0:
                raise LogPoleError(
                    f"residue at {ring.names[i]}: higher-order pole (exponent {a[i]})"
                )
            sign = (-1) ** gens.index(i)
            rest = tuple(g for g in gens if g != i)
            na = tuple(a[k] for k in range(ring.m) if k != i)
            ngens = tuple(imap[g] for g in rest)
            key = (na, ngens)
            v = (acc.get(key, 0) + sign * c) % p
            if v:
                acc[key] = v
            else:
                acc.pop(key, None)
        return LogForm(sub, self.degree - 1, acc)

    def restrict(self, i: int) -> "LogForm":
        """Restriction to V(T_i): sets T_i = 0 and kills dT_i-terms.  Terms
        carrying a genuine dlog T_i pole (a dlog T_i factor with exponent of
        T_i equal to 0, or a negative coefficient exponent) do not restrict,
        and raise LogPoleError."""
        ring = self.ring
        sub, imap = ring.drop_var(i)
        acc: dict = {}
        for (a, gens), c in self.terms.items():
            if i in gens:
                if i in ring.log:
                    if a[i] >= 1:
                        continue  # T_i * dlog T_i = dT_i, which restricts to 0
                    raise LogPoleError(
                        f"restriction to V({ring.names[i]}): log pole obstruction"
                    )
                if a[i] < 0:
                    raise LogPoleError(
                        f"restriction to V({ring.names[i]}): coefficient pole"
                    )
                continue  # dT_i pulls back to d(0) = 0
            if a[i] > 0:
                continue
            if a[i] < 0:
                raise LogPoleError(
                    f"restriction to V({ring.names[i]}): coefficient pole"
                )
            na = tuple(a[k] for k in range(ring.m) if k != i)
            acc[(na, tuple(imap[g] for g in gens))] = c
        return LogForm(sub, self.degree, acc)

    # -- comparison / display ------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogForm) or other.ring != self.ring:
            return False
        if not self.terms and not other.terms:
            return True  # the zero form is degree-blind
        return other.degree == self.degree and other.terms == self.terms

    def __hash__(self) -> int:
        return hash((self.ring, self.degree, tuple(sorted(self.terms.items()))))

    def __str__(self) -> str:
        return format_form(self)

    def __repr__(self) -> str:
        return f"<{format_form(self)}>"


class WeightSlice:
    """The finite basis of weight-w degree-j forms, in deterministic order.

    Every basis term is T^w dlog T_I, so the basis is indexed by the allowed
    generator sets I.  Exponent coordinate k is w_k - 1 when k is a dT
    generator in I and w_k otherwise, so the window puts k in every I (only
    w_k - 1 fits), in no I (only w_k fits), leaves it free (both fit) or
    empties the slice (neither).  The terms (a, I) sort lexicographically,
    and a - w = -e_{I minus log}, so the sets in basis order, `gens`, and
    `index`, the position of each, depend on w only through these statuses:
    they are the ring's layout for j and the status tuple (`FormRing.layout`),
    built once and shared.  `basis` holds the (a, I), made from w on first
    use.
    """

    def __init__(self, ring: FormRing, j: int, w: tuple[int, ...]):
        if len(w) != ring.m:
            raise ValueError("weight length mismatch")
        self.ring = ring
        self.degree = j
        self.weight = w
        self.gens, self.index = ring.layout(j, w)

    @cached_property
    def basis(self) -> tuple:
        log, w = self.ring.log, self.weight
        return tuple((_exponent(w, gens, log), gens) for gens in self.gens)

    @property
    def dim(self) -> int:
        return len(self.gens)

    def basis_form(self, k: int) -> LogForm:
        a, gens = self.basis[k]
        return LogForm(self.ring, self.degree, {(a, gens): 1})

    def basis_forms(self) -> list[LogForm]:
        return [self.basis_form(k) for k in range(self.dim)]

    def _coordinates(self, form: LogForm) -> list[tuple[int, int]]:
        """(basis index, coefficient) of each term of a form lying in this
        slice; raises if it does not."""
        if form.ring != self.ring or (form.terms and form.degree != self.degree):
            raise ValueError("form does not match slice")
        out = []
        for key, c in form.terms.items():
            k = self.index.get(key[1])
            if k is None or self.basis[k][0] != key[0]:
                raise ValueError(
                    f"term {key} not in slice (j={self.degree}, w={self.weight})"
                )
            out.append((k, c))
        return out

    def to_vector(self, form: LogForm):
        """Coordinates of a form lying in this slice; raises if it does not."""
        v = np.zeros(self.dim, dtype=np.int64)
        for k, c in self._coordinates(form):
            v[k] = c
        return v

    def from_vector(self, v) -> LogForm:
        terms = {}
        for k, c in enumerate(v):
            c = int(c) % self.ring.p
            if c:
                terms[self.basis[k]] = c
        return LogForm(self.ring, self.degree, terms)

    def __repr__(self) -> str:
        return f"WeightSlice(j={self.degree}, w={self.weight}, dim={self.dim})"


def slice_map_matrix(src: WeightSlice, dst: WeightSlice, fn) -> FpMatrix:
    """Matrix (dst.dim x src.dim) of a linear map given on basis forms.

    Each image is checked as `dst.to_vector` checks it, and its
    coefficients are written straight into one array, reduced once."""
    entries = [[0] * src.dim for _ in range(dst.dim)]
    for k in range(src.dim):
        for r, c in dst._coordinates(fn(src.basis_form(k))):
            entries[r][k] = c
    array = np.array(entries, dtype=np.int64).reshape(dst.dim, src.dim) % src.ring.p
    return FpMatrix._of_residues(src.ring.field, array)


def slice_map_by_index(src: WeightSlice, dst: WeightSlice, ref, column) -> FpMatrix:
    """The matrix of `slice_map_matrix(src, dst, ref)`, filled from generator sets.

    dst is the slice the map lands in, built by the map itself, so an image
    term lies in dst exactly when its generator set is in `dst.index`.
    `column(I)` gives the image of the basis term T^w dlog T_I as (row of
    dst, residue) pairs, or None where the formula does not decide: a
    generator set missing from dst, a pole, a generator the map refuses.
    Such a column is `ref` applied to the basis form, which raises where the
    reference raises.
    """
    array = np.zeros((dst.dim, src.dim), dtype=np.int64)
    for k, gens in enumerate(src.gens):
        image = column(gens)
        if image is None:
            image = [(r, c % src.ring.p) for r, c in dst._coordinates(ref(src.basis_form(k)))]
        for r, c in image:
            array[r, k] = c
    return FpMatrix._of_residues(src.ring.field, array)


def same_set_column(dst: WeightSlice):
    """`column` for slice_map_by_index of a map that keeps the generator set
    with coefficient 1 (inverse Cartier, transport, extension)."""
    index = dst.index

    def column(gens):
        r = index.get(gens)
        return None if r is None else ((r, 1),)

    return column


def d_matrix(src: WeightSlice):
    """(target, matrix) of d on slice (j, w), into slice (j + 1, w): the
    wedge with sum_k (w_k mod p) dlog T_k on generator sets."""
    ring, w = src.ring, src.weight
    p = ring.p
    steps = [(k, x % p) for k, x in enumerate(w) if x % p]
    dst = ring.slice(src.degree + 1, w)
    index = dst.index

    def column(gens):
        image = []
        for k, c in steps:
            t = bisect_left(gens, k)
            if t == len(gens) or gens[t] != k:
                r = index.get(gens[:t] + (k,) + gens[t:])
                if r is None:
                    return None  # outside the window
                image.append((r, p - c if t & 1 else c))
        return image

    return dst, slice_map_by_index(src, dst, LogForm.d, column)


def residue_matrix(src: WeightSlice, z: int):
    """(target, matrix) of the residue at the log variable z on slice
    (j, w), into slice (j - 1, w') of the ring without z: at w_z = 0 the
    signed selection of the sets holding z, with z removed; zero at
    w_z > 0.  Raises ValueError when z is not log."""
    ring, w = src.ring, src.weight
    if z not in ring.log:
        raise ValueError(f"residue needs a log variable, {z} is not one")
    sub, imap = ring.drop_var(z)
    dst = sub.slice(src.degree - 1, w[:z] + w[z + 1 :])
    p = ring.p

    def column(gens):
        if z not in gens or w[z] > 0:
            return ()
        if w[z] < 0:
            return None  # a pole of order > 1
        r = dst.index.get(tuple(imap[g] for g in gens if g != z))
        return None if r is None else ((r, p - 1 if gens.index(z) & 1 else 1),)

    return dst, slice_map_by_index(src, dst, lambda f: f.residue(z), column)


def restrict_matrix(src: WeightSlice, z: int):
    """(target, matrix) of the restriction to V(T_z) on slice (j, w), into
    slice (j, w') of the ring without z: at w_z = 0 the selection of the
    sets without z; zero where T_z or dT_z divides."""
    ring, w = src.ring, src.weight
    sub, imap = ring.drop_var(z)
    dst = sub.slice(src.degree, w[:z] + w[z + 1 :])
    log_z = z in ring.log

    def column(gens):
        # the exponent of T_z in the basis term
        az = w[z] - 1 if z in gens and not log_z else w[z]
        if az < 0 or (az == 0 and z in gens and log_z):
            return None  # a pole that does not restrict
        if az > 0 or z in gens:
            return ()
        r = dst.index.get(tuple(imap[g] for g in gens))
        return None if r is None else ((r, 1),)

    return dst, slice_map_by_index(src, dst, lambda f: f.restrict(z), column)


# -- textual form notation ---------------------------------------------------
#
#   form     := '0' | [sign] term (sign term)*
#   term     := coeff | [coeff '*'] monomial [' ' gens] | monomial [' ' gens] | gens
#   monomial := var ['^' int] ('*' var ['^' int])*
#   gens     := gen ('^' gen)*      e.g. dlogT1^dT3
#
# The caret separates generators inside the gens part and marks exponents
# inside the monomial part; the two uses never collide because a generator
# token always starts with 'd'.


def format_form(form: LogForm) -> str:
    if form.is_zero():
        return "0"
    ring = form.ring
    chunks = []
    for (a, gens), c in sorted(form.terms.items()):
        factors = []
        for i, e in enumerate(a):
            if e == 0:
                continue
            factors.append(ring.names[i] if e == 1 else f"{ring.names[i]}^{e}")
        mono = "*".join(factors)
        if c != 1 or not (mono or gens):
            mono = f"{c}*{mono}" if mono else str(c)
        gpart = "^".join(
            (f"dlog{ring.names[g]}" if g in ring.log else f"d{ring.names[g]}")
            for g in gens
        )
        chunks.append((mono + " " + gpart).strip() if gpart else mono)
    return " + ".join(chunks)


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|(dlog[A-Za-z][A-Za-z0-9]*)|(d[A-Za-z][A-Za-z0-9]*)|([A-Za-z][A-Za-z0-9]*)|(\^)|(\*)|(\+)|(-))")


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize form at: {text[pos:]!r}")
            break
        pos = m.end()
        kinds = ("int", "dlog", "d", "name", "caret", "star", "plus", "minus")
        for kind, val in zip(kinds, m.groups()):
            if val is not None:
                out.append((kind, val))
                break
    return out


def parse_form(ring: FormRing, text: str) -> LogForm:
    """Inverse of format_form; accepts '-' separators and unnormalized input."""
    toks = _tokenize(text)
    if not toks:
        raise ValueError("empty form text")
    name_ix = {nm: i for i, nm in enumerate(ring.names)}

    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else (None, None)

    entries = []
    sign = 1
    if peek()[0] == "minus":
        sign = -1
        pos += 1
    elif peek()[0] == "plus":
        pos += 1

    while pos < len(toks):
        coeff = 1
        exps = [0] * ring.m
        gens: list[int] = []
        saw_any = False
        # coefficient / monomial factors
        while pos < len(toks):
            kind, val = peek()
            if kind == "int":
                coeff *= int(val)
                pos += 1
                saw_any = True
            elif kind == "name":
                if val not in name_ix:
                    raise ValueError(f"unknown variable {val!r}")
                i = name_ix[val]
                pos += 1
                e = 1
                if peek()[0] == "caret":
                    pos += 1
                    esign = 1
                    if peek()[0] == "minus":
                        esign = -1
                        pos += 1
                    k, v = peek()
                    if k != "int":
                        raise ValueError("expected integer exponent after ^")
                    e = esign * int(v)
                    pos += 1
                exps[i] += e
                saw_any = True
            else:
                break
            if peek()[0] == "star":
                pos += 1
                continue
            break
        # generator part
        if peek()[0] in ("dlog", "d"):
            while True:
                kind, val = peek()
                if kind == "dlog":
                    nm = val[4:]
                    if nm not in name_ix:
                        raise ValueError(f"unknown variable in {val!r}")
                    i = name_ix[nm]
                    if i in ring.log:
                        gens.append(("gen", i))
                    elif i in ring.laurent:
                        gens.append(("laurent-dlog", i))
                    else:
                        raise ValueError(f"dlog{nm} is not a form in this ring")
                elif kind == "d":
                    nm = val[1:]
                    if nm not in name_ix:
                        raise ValueError(f"unknown variable in {val!r}")
                    i = name_ix[nm]
                    gens.append(("dT", i))
                else:
                    raise ValueError("expected a generator after ^")
                pos += 1
                saw_any = True
                if peek()[0] == "caret":
                    pos += 1
                    continue
                break
        if not saw_any:
            raise ValueError(f"empty term in form text {text!r}")
        # assemble this term: build as product of monomial and generators
        term = ring.monomial(tuple(exps), sign * coeff)
        for kind, i in gens:
            if kind == "gen":
                g = ring.gen(i)
            elif kind == "dT":
                g = ring.dT(i)
            else:
                g = ring.dlog(i)
            term = term.wedge(g)
        entries.append(term)
        kind, _ = peek()
        if kind is None:
            break
        if kind == "plus":
            sign = 1
        elif kind == "minus":
            sign = -1
        else:
            raise ValueError(f"expected + or - between terms, got {toks[pos]}")
        pos += 1

    if not entries:
        raise ValueError("no terms parsed")
    total = entries[0]
    for t in entries[1:]:
        if total.is_zero() and total.degree != t.degree:
            total = t if not t.is_zero() else total
            continue
        total = total + t
    return total
