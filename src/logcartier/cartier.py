"""Frobenius, inverse Cartier, the Cartier operator, Z/B decompositions, the
dlog kernel space nu(n), and Artin-Schreier extensions.

Conventions.  On our generator basis the inverse Cartier map is

    C^{-1}(T^a) = T^{pa},  C^{-1}(dT_i) = T_i^{p-1} dT_i,
    C^{-1}(dlog T_i) = dlog T_i,

multiplicative on wedges, and induces a bijection Omega_w -> (Z/B)_{pw} per
weight slice.  The Cartier operator C on closed forms is applied by Cartier's
formula, term by term (`cartier`); its definition, the solve of
C^{-1}(eta) = omega mod B per slice (`cartier_slice_matrix`), is what the verify
suites check.  We standardize on C - 1 (never 1 - C) in kernel bookkeeping.

Slice classes.  The closed basis of slice (j, w), its exact basis and the
matrix of C on it depend on w only through a class key, so each is computed
once per class and kept in the class store of the ring's family
(`FormRing.per_class`).  The keys are
(j, gens(j, w), gens(j + 1, w), w mod p) for Z (`closed_slice_class`), that
with gens(j - 1, w) for B (`ZBDecomposition.key`), and that with gens(j, w/p)
for C at p | w (`cartier_slice_matrix`), where gens(j, w) lists the generator
sets I of the slice in basis order.  The argument:

- d_matrix is the wedge with sum_k (w_k mod p) dlog T_k on generator sets,
  so its entries are fixed by the sets of its two slices and w mod p.
- The basis sorts the terms (a, I) with a = w - e_{I minus log}; two a differ
  first at a non-log k in exactly one I, so the order compares by I alone
  and gens(j, w) ranges over few values as w moves.
- inverse_cartier_matrix is the identity on generator sets, from gens(j, w/p)
  to gens(j, w).
- The reference fallback of both maps raises WindowOverflow exactly where
  an index lookup misses: the missed term T^w dlog T_J is no basis term of
  the target slice, so its exponent is outside the window, and the LogForm
  operation refuses it.  Whether a build raises is a function of the key.
- So each matrix is a function of the key, and so is every rref taken of
  it, since elimination is deterministic; Z, B and the solve of C^{-1}
  against B are too.
- None of this reads the ring beyond p and the key: the maps act on
  generator sets alike whether a coordinate is log, Laurent or plain
  (T^w dlog T_I is the same form in each), and the window enters only
  through the sets.  So one store serves a ring and every ring derived
  from it by with_log or drop_var, which share p; a key of a ring with
  fewer variables holds a shorter w mod p and so never meets another's.

The checks B in Z, exactness at p-indivisible weights and surjectivity of
C^{-1} onto Z/B run once per class.  A build that raises is never stored, so
each weight of a failing class raises again, with its own w.  Stored arrays
are read-only.  The keys are read off the ring's layouts (`FormRing.gens`),
so a weight of a stored class builds no slice for them.

The verdicts of the cli's Cartier rows are functions of these classes too.
At p | w, C(C^{-1}(eta)) = eta solves Z against inverse_cartier_matrix from
gens(j, w/p) to gens(j, w) and multiplies by C; ker C = B compares the
kernel of C with the solve of B in Z; and slice_bijection_ok ranks C^{-1}
beside B.  Each reads only Z, B, C and C^{-1}, and their dims and
verdicts read w only through the per-coordinate types of
`cartier_coordinate_type` (its docstring has the argument).  So the rows
check one weight per cell of those types, in first-weight order
(`sequences.type_cells`), and count each cell's weights at once:
`walk_window_classes` walks the window (the kernel and exactness checks,
`nu_sections`), and `walk_source_classes` the sources w of C^{-1} into
slice (j, p w), typed at p w (the inverse-identity and bijection checks).  A cell whose build raises raises
in its check, at the first weight of the cell.

nu(n) = ker(C - 1) on closed forms over a window is block diagonal over the
p-chains u, pu, p^2 u, ... (`c_minus_one_cells`).  A chain without weight 0
has kernel 0 once its own blocks have independent columns: its top weight's
rows read Z x = 0, and each weight below reads Z x = C x', with x' the
unknowns one step up.  So only weight 0, a chain by itself, is solved, and
every other chain adds rows - columns to the cokernel.  The independence is
shown once per cell, not assumed (`independent_block`); a Z basis records
its identity rows (`FpMatrix.kernel_matrix`), which the constructor checks,
so it needs no reduction.  The row dims of a weight and the shapes and
independence of its (Z, C) blocks are functions of its types, and so are
the blocks themselves at p | w, where the unit scaling D_u is the identity
(sequences module docstring, "Class walks").  So `nu_sections` reads them
once per cell of `cartier_coordinate_type`, and builds one slice, at
weight 0, for its kernel vectors.

Artin-Schreier extensions adjoin gamma with gamma^p - gamma = h, as a free
rank-p module with basis 1, gamma, ..., gamma^{p-1}.  Since
(C - 1)(gamma^p * omega) = (gamma - gamma^p) * omega = -h * omega for a
C-fixed dlog wedge omega, the preimage certificate for a target h * omega is
eta' = -gamma^p * omega (for p = 2 the sign is invisible and eta' = gamma^2 *
omega on the nose).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import combinations

import numpy as np

from .forms import (
    FormRing,
    LogForm,
    WeightSlice,
    WindowOverflow,
    d_matrix,
    same_set_column,
    slice_map_by_index,
)
from .gflinalg import FpMatrix
from .sequences import closed_slice_basis, closed_slice_class, type_cells


def frobenius(f: LogForm) -> LogForm:
    """x -> x^p on 0-forms: every exponent is multiplied by p."""
    if f.degree != 0:
        raise ValueError("frobenius acts on 0-forms")
    ring = f.ring
    out = {}
    for (a, gens), c in f.terms.items():
        pa = ring.check_window(tuple(x * ring.p for x in a))
        out[(pa, gens)] = c
    return LogForm(ring, 0, out)


def inverse_cartier(form: LogForm) -> LogForm:
    """A Z-representative of the inverse-Cartier class of `form`, at weight
    p * w.  Coefficients are untouched (c^p = c in F_p)."""
    ring = form.ring
    p = ring.p
    out = {}
    for (a, gens), c in form.terms.items():
        na = list(x * p for x in a)
        for g in gens:
            if g not in ring.log:
                na[g] += p - 1
        na = tuple(na)
        if not ring.in_window(na):
            raise WindowOverflow(
                f"inverse Cartier exponent {na} outside window {ring.window}"
            )
        out[(na, gens)] = c
    return LogForm(ring, form.degree, out)


def inverse_cartier_matrix(src: WeightSlice):
    """(target, matrix) of C^{-1} on slice (j, w), into slice (j, p w):
    T^w dlog T_I goes to T^{pw} dlog T_I, the identity on generator sets."""
    ring = src.ring
    dst = ring.slice(src.degree, tuple(ring.p * x for x in src.weight))
    return dst, slice_map_by_index(src, dst, inverse_cartier, same_set_column(dst))


class ZBDecomposition:
    """Closed (Z) and exact (B) forms of one weight slice.

    Z_basis / B_basis are matrices whose columns are coordinates in the slice
    basis: Z_basis is the closed-forms basis of `closed_slice_class`, and B's
    columns are the pivot columns of the incoming differential, so both bases
    are deterministic.  `key` is the slice's class (`closed_slice_class`)
    with the generator sets of the degree j - 1 slice; B is built, and
    checked to lie in Z, once per key (see the module docstring).  The key
    is read off the ring's layouts, and `slice` is built on first use, so
    a decomposition of a stored class builds no slice.
    """

    def __init__(self, ring: FormRing, j: int, w):
        self.ring = ring
        self.degree = j
        self.weight = tuple(int(x) for x in w)
        key, self.Z_basis = closed_slice_class(ring, j, self.weight)
        self.key = key + (ring.gens(j - 1, self.weight),)

        def build():
            _slice, d_in = d_matrix(ring.slice(j - 1, self.weight))
            exact = FpMatrix._of_residues(d_in.field, d_in.array[:, d_in.column_space_pivots()])
            if not self.Z_basis.contains_columns(exact):
                raise AssertionError("exact forms must be closed (d^2 != 0?)")
            return exact

        self.B_basis = ring.per_class(("exact",) + self.key, build)

    @cached_property
    def slice(self) -> WeightSlice:
        return self.ring.slice(self.degree, self.weight)

    @property
    def dim_Z(self) -> int:
        return self.Z_basis.cols

    @property
    def dim_B(self) -> int:
        return self.B_basis.cols


def cartier_coordinate_type(ring: FormRing, k: int, x: int) -> tuple:
    """The type of value x at coordinate k for the Cartier walks: the
    status of k at x (`FormRing.status`), whether p divides x, and at p | x
    the status at x / p.

    A check at weight w builds Z and B of slice (j, w) and, at p | w, the
    matrix of C (`cartier_slice_matrix`), and at a source w the slice
    (j, w) and C^{-1} into (j, p w).  These are fixed by gens(j - 1, w),
    gens(j, w) and gens(j + 1, w), which the statuses of the coordinates of
    w fix (the ring's layout); by w mod p; and where p divides every
    coordinate, by gens(j, w/p), which the statuses of the coordinates of
    w/p fix (module docstring).  The type reads whether p divides w_k in
    place of w_k mod p: the weights of one type tuple have Z and B that the
    unit scaling D_u carries onto each other, with the same dims, and C and
    C^{-1} are read only at p | w, where D_u is the identity (sequences
    module docstring, "Class walks").  Each fact is read coordinate by
    coordinate, so the dims and verdicts of a check are functions of the
    tuple of types, and the walks check each cell once.  A source w is
    typed as p w: the status at p x and at x."""
    divides = x % ring.p == 0
    return ring.status(k, x), divides, ring.status(k, x // ring.p) if divides else None


def _walk(values, kind, check, keep):
    cells = type_cells(values, kind)
    return ((cell, check(cell[0])) for cell in cells if keep is None or keep(cell[0]))


def walk_window_classes(ring: FormRing, check, keep=None):
    """Walk the ring's window once per cell of `cartier_coordinate_type`
    (module docstring): (cell, check(first weight)) for each cell in
    first-weight order, over the cells whose first weight `keep` accepts
    (default: all), a test that must be a function of the type tuple."""
    values = [range(lo, hi + 1) for lo, hi in ring.window]
    return _walk(values, partial(cartier_coordinate_type, ring), check, keep)


def walk_source_classes(ring: FormRing, radius: int, check, keep=None):
    """Walk the sources w in [0, radius]^m of C^{-1} into the slices at
    p w, once per cell of the types of p w (`cartier_coordinate_type`), as
    `walk_window_classes` walks the window."""
    p = ring.p
    kind = lambda k, x: cartier_coordinate_type(ring, k, p * x)  # noqa: E731
    return _walk([range(radius + 1)] * ring.m, kind, check, keep)


def cartier_slice_matrix(ring: FormRing, j: int, w):
    """Matrix of C on the Z-basis of slice (j, w), into slice (j, w/p) coords.

    Returns (zb, source_slice, matrix).  For weights not divisible by p the
    source is None and the matrix is the zero map into a 0-dim space; the
    closed slice is verified to be exact in that case.  At p | w the matrix
    is solved once per class, `zb.key` with the generator sets of the
    source slice (see the module docstring).
    """
    zb = ZBDecomposition(ring, j, w)
    p = ring.p
    if any(x % p for x in zb.weight):
        if zb.dim_Z != zb.dim_B:
            raise AssertionError(
                f"closed slice at non-p-divisible weight {w} is not exact"
            )
        return zb, None, FpMatrix.zeros(p, 0, zb.dim_Z)
    src = ring.slice(j, tuple(x // p for x in zb.weight))

    def build():
        _slice, cinv = inverse_cartier_matrix(src)
        x = cinv.hstack(zb.B_basis).solve(zb.Z_basis.array)
        if x is None:
            raise AssertionError(
                f"inverse Cartier not surjective onto Z/B at (j={j}, w={w})"
            )
        return FpMatrix(p, x[: src.dim])

    return zb, src, ring.per_class(("cartier",) + zb.key + (src.gens,), build)


def slice_bijection_ok(ring: FormRing, j: int, w) -> bool:
    """Whether C^{-1}: Omega_{w} -> (Z/B)_{p w} is a bijection on the slice."""
    src = ring.slice(j, w)
    pw = tuple(x * ring.p for x in src.weight)
    zb = ZBDecomposition(ring, j, pw)
    _slice, cinv = inverse_cartier_matrix(src)
    if not zb.Z_basis.contains_columns(cinv):
        return False  # image must be closed
    aug = cinv.hstack(zb.B_basis)
    injective = aug.rank() == src.dim + zb.dim_B
    surjective = src.dim + zb.dim_B == zb.dim_Z
    return injective and surjective


def cartier(form: LogForm) -> LogForm:
    """The Cartier operator on a closed form (any mix of weights), by Cartier's
    formula: C(c T^e dlog T_I) = c T^{e/p} dlog T_I if p | e, else 0, where
    e = `ring.term_weight(a, I)` and c^{1/p} = c in F_p.  On the weight-e slice
    d is the wedge with sum_k e_k dlog T_k.  If some e_k is prime to p,
    contraction with e_k^{-1} d/d(dlog T_k) is a homotopy (d i + i d = 1), so
    the closed part is exact and C kills it; if p | e, d = 0 on the slice,
    B = 0 and C^{-1} is the basis bijection.  The window bounds storage only:
    each image exponent lies between the term's exponent and 0, so it stays in
    the box, also where the Z/B solve raises WindowOverflow because C^{-1}
    takes another basis form of the e/p slice out of it.
    """
    if not form.d().is_zero():
        raise ValueError("Cartier operator needs a closed form")
    ring, p = form.ring, form.ring.p
    out = {}
    for (a, gens), c in form.terms.items():
        e = ring.term_weight(a, gens)
        if not any(x % p for x in e):
            na = [x // p for x in e]
            for g in gens:
                if g not in ring.log:
                    na[g] -= 1
            out[(tuple(na), gens)] = c
    return LogForm(ring, form.degree, out)


# -- nu(n): kernel of C - 1 on closed n-forms --------------------------------


@dataclass
class NuReport:
    ring: FormRing
    n: int
    basis: tuple
    matches_dlog_span: bool
    cokernel_dim: int

    @property
    def dim(self) -> int:
        return len(self.basis)


def dlog_wedge(ring: FormRing, indices) -> LogForm:
    """dlog T_{i_1} ^ ... ^ dlog T_{i_n} for log indices i_1 < ... < i_n."""
    out = ring.one()
    for i in indices:
        out = out.wedge(ring.gen(i) if i in ring.log else ring.dlog(i))
    return out


def independent_block(own: FpMatrix) -> np.ndarray:
    """The array of an own block of `c_minus_one_cells`, once its columns
    are shown independent: with no reduction where `own` records identity
    rows (`gflinalg`), by one rank otherwise.  The callers pass each own
    block through it once, before the solve; a dependent block raises
    AssertionError."""
    rank = own.rank()
    if rank != own.cols:
        raise AssertionError(f"C - 1 own block has dependent columns (rank {rank} of {own.cols})")
    return own.array


def c_minus_one_cells(p: int, cells):
    """Kernel basis and cokernel dimension of C - 1 across a weight window,
    given by cell.

    `cells` yields ((first, count, parts), rows, block), the cell as
    `sequences.type_cells` yields it, for cells whose weights product(*parts)
    cover a box of weights holding 0 (weights left out have no rows and no
    columns): rows is the dimension of the row block of each weight of the
    cell, and block is None or (own, c), the column block of each weight w
    of the cell, which C - 1 sends to -own in the rows of w and, if p
    divides w, to c in the rows of w/p (else c is None).  Every own block
    must have independent columns (`independent_block`).  Returns (kernel,
    cokernel_dim): the kernel basis of the one matrix with its column
    blocks in window order, in its order, each vector over the column block
    of weight 0, and the cokernel dimension of that matrix.

    Column block w meets only the row blocks of w and w/p, so up to a
    permutation of rows and columns the system is block diagonal over the
    p-chains u, pu, ..., p^k u in the window.  Weight 0 is a chain by
    itself, with the matrix c - own.  In any other chain, order the
    unknowns x_i at p^i u by powers: the rows of its top weight p^k u read
    own x_k = 0, since p^{k+1} u is outside the window, and the rows of p^i
    u read own x_i = c x_{i+1}.  So if every own block has independent
    columns, x_k = 0, then x_{k-1} = 0, and so on: the chain has kernel 0,
    every column of it is a pivot, and its cokernel dimension is the sum of
    rows - columns over its weights.  Only weight 0 is solved (Katz 1970,
    section 7; Illusie 1979, section 0.2).  A column is a pivot of the
    global rref iff it is outside the span of the columns before it, which
    its own chain decides, so the global kernel basis is that of c - own at
    weight 0, in its order, extended by zeros.
    """
    kernel, cokernel = [], 0
    for (_first, count, parts), rows, block in cells:
        cols = 0 if block is None else block[0].shape[1]
        if all(0 in part for part in parts):
            count -= 1
            if block is None:
                cokernel += rows
            else:
                own, c = block
                kernel = FpMatrix(p, c - own).kernel_basis()
                cokernel += rows - cols + len(kernel)
        cokernel += count * (rows - cols)
    return kernel, cokernel


def nu_sections(ring: FormRing, n: int) -> NuReport:
    """ker(C - 1) on closed n-forms over the weight window, by
    `c_minus_one_cells` on the Z bases and Cartier matrices of the slices.

    Since |p^k w| grows without bound for w != 0, every p-chain exits the
    window and the kernel is computed exactly for window-supported forms; it
    lies at weight 0.  On Laurent rings that is all it says: the dlog span is
    compared only on polynomial rings, and matches_dlog_span stays false on
    a Laurent one.

    Weights on the outer degree shell (w_i = hi + 1 at a dT generator) are
    skipped: their exact forms have antiderivatives outside the window, so
    the Z/B split there is an artifact of the box, not of the ring.
    """

    def column(w):  # the (own, c) blocks of the cell of w, or None if Z = 0
        zb, src, mat = cartier_slice_matrix(ring, n, w)
        if not zb.dim_Z:
            return None
        return independent_block(zb.Z_basis), None if src is None else mat.array

    # the row dims and blocks once per cell of the window with a basis
    # (sequences module docstring, "Class walks")
    walk = walk_window_classes(ring, column, lambda w: ring.gens(n, w))
    kernel, cokernel = c_minus_one_cells(ring.p, ((cell, len(ring.gens(n, cell[0])), block) for cell, block in walk))
    basis_forms = []
    if kernel:
        s, zbasis = closed_slice_basis(ring, n, (0,) * ring.m)
        basis_forms = [s.from_vector(zbasis.apply(x)) for x in kernel]
    matches = False
    if not ring.laurent:
        wedges = [dlog_wedge(ring, I) for I in combinations(sorted(ring.log), n)]
        matches = _same_span(ring.p, basis_forms, wedges)
    return NuReport(ring=ring, n=n, basis=tuple(basis_forms), matches_dlog_span=matches, cokernel_dim=cokernel)


def _same_span(p: int, forms_a, forms_b) -> bool:
    """Whether two lists of forms span one space, as vectors over the terms
    that occur in them (every other coordinate is 0 in all of them)."""
    keys = sorted({key for f in (*forms_a, *forms_b) for key in f.terms})

    def matrix(forms):
        cols = [[f.terms.get(key, 0) for key in keys] for f in forms]
        return FpMatrix.from_columns(p, cols, len(keys))

    return matrix(forms_a).same_column_space(matrix(forms_b))


# -- Artin-Schreier extensions ------------------------------------------------


class ASForm:
    """A differential form over an Artin-Schreier extension: a vector of p
    base-ring forms, coefficient k being the gamma^k component."""

    __slots__ = ("ext", "degree", "coeffs")

    def __init__(self, ext: "ArtinSchreierExtension", degree: int, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) != ext.p:
            raise ValueError("need exactly p gamma-components")
        self.ext = ext
        self.degree = degree
        self.coeffs = tuple(coeffs)

    def __add__(self, other: "ASForm") -> "ASForm":
        return ASForm(
            self.ext,
            self.degree,
            [a + b for a, b in zip(self.coeffs, other.coeffs)],
        )

    def __sub__(self, other: "ASForm") -> "ASForm":
        return ASForm(
            self.ext,
            self.degree,
            [a - b for a, b in zip(self.coeffs, other.coeffs)],
        )

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ASForm)
            and other.ext is self.ext
            and other.degree == self.degree
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __repr__(self) -> str:
        parts = [f"g^{k}*({c})" for k, c in enumerate(self.coeffs) if not c.is_zero()]
        return "<AS " + (" + ".join(parts) if parts else "0") + ">"


class ArtinSchreierExtension:
    """A[gamma]/(gamma^p - gamma - h): free of rank p over the base ring A.

    Elements and forms are coefficient vectors in the basis 1..gamma^{p-1};
    multiplication reduces with gamma^p = gamma + h, and the differential uses
    d(gamma) = -dh (differentiate the defining relation; d(gamma^p) = 0).
    """

    def __init__(self, ring: FormRing, h: LogForm):
        if h.ring != ring or h.degree != 0:
            raise ValueError("h must be a 0-form of the base ring")
        self.ring = ring
        self.h = h
        self.p = ring.p

    def embed(self, base_form: LogForm) -> ASForm:
        coeffs = [base_form] + [
            self.ring.zero(base_form.degree) for _ in range(self.p - 1)
        ]
        return ASForm(self, base_form.degree, coeffs)

    def gamma(self) -> ASForm:
        z = self.ring.zero(0)
        coeffs = [z, self.ring.one()] + [z for _ in range(self.p - 2)]
        return ASForm(self, 0, coeffs)

    def multiply(self, x: ASForm, y: ASForm) -> ASForm:
        """Product of a 0-form extension element with any extension form."""
        if x.degree != 0:
            raise ValueError("left factor must be a 0-form")
        p = self.p
        raw = [self.ring.zero(y.degree) for _ in range(2 * p - 1)]
        for i, ci in enumerate(x.coeffs):
            if ci.is_zero():
                continue
            for k, ck in enumerate(y.coeffs):
                if ck.is_zero():
                    continue
                raw[i + k] = raw[i + k] + ci.wedge(ck)
        for e in range(2 * p - 2, p - 1, -1):
            c = raw[e]
            if c.is_zero():
                continue
            raw[e] = self.ring.zero(y.degree)
            raw[e - p + 1] = raw[e - p + 1] + c
            raw[e - p] = raw[e - p] + self.h.wedge(c)
        return ASForm(self, y.degree, raw[:p])

    def power(self, x: ASForm, k: int) -> ASForm:
        """x^k for a 0-form x, by left-to-right squaring: for k >= 1 at
        most k - 1 products."""
        if k == 0:
            return self.embed(self.ring.one())
        out = x
        for bit in bin(k)[3:]:
            out = self.multiply(out, out)
            if bit == "1":
                out = self.multiply(x, out)
        return out

    def d(self, x: ASForm) -> ASForm:
        dh = self.h.d()
        out = [self.ring.zero(x.degree + 1) for _ in range(self.p)]
        for k, c in enumerate(x.coeffs):
            out[k] = out[k] + c.d()
            if k >= 1 and not c.is_zero():
                out[k - 1] = out[k - 1] - (dh.wedge(c)) * k
        return ASForm(self, x.degree + 1, out)

    def inverse_cartier_form(self, x: ASForm) -> ASForm:
        """C^{-1} over the extension: gamma^k T^a w_I -> gamma^{pk} (base C^{-1}),
        with gamma^{pk} = (gamma + h)^k reduced in the module basis."""
        out = ASForm(self, x.degree, [self.ring.zero(x.degree)] * self.p)
        gp = self.power(self.gamma(), self.p)  # = gamma + h
        for k, c in enumerate(x.coeffs):
            if not c.is_zero():
                out = out + self.multiply(self.power(gp, k), self.embed(inverse_cartier(c)))
        return out


@dataclass
class ASCertificate:
    """Preimage certificate for (C - 1) eta' = h * dlog-wedge in the extension."""

    extension: ArtinSchreierExtension
    target: LogForm
    eta_prime: ASForm
    closed: bool
    is_inverse_cartier_preimage: bool
    c_minus_one_hits_target: bool

    @property
    def ok(self) -> bool:
        return self.closed and self.is_inverse_cartier_preimage and self.c_minus_one_hits_target


def c_minus_one_surjectivity(ring: FormRing, h: LogForm, wedge_indices) -> ASCertificate:
    """Build the Artin-Schreier extension for h and certify that
    eta' = -gamma^p * dlog-wedge satisfies (C - 1)(eta') = h * dlog-wedge."""
    ext = ArtinSchreierExtension(ring, h)
    omega = dlog_wedge(ring, tuple(wedge_indices))
    target = h.wedge(omega)
    gamma_p = ext.power(ext.gamma(), ring.p)
    minus_gamma_p = ASForm(ext, 0, [c * (ring.p - 1) for c in gamma_p.coeffs])
    eta_prime = ext.multiply(minus_gamma_p, ext.embed(omega))
    minus_gamma = ext.multiply(
        ASForm(ext, 0, [c * (ring.p - 1) for c in ext.gamma().coeffs]),
        ext.embed(omega),
    )
    closed = ext.d(eta_prime).is_zero()
    # eta' must be exactly C^{-1}(-gamma * omega), which pins C(eta') = -gamma*omega
    preimage_ok = ext.inverse_cartier_form(minus_gamma) == eta_prime
    hits = (minus_gamma - eta_prime) == ext.embed(target)
    return ASCertificate(
        extension=ext,
        target=target,
        eta_prime=eta_prime,
        closed=closed,
        is_inverse_cartier_preimage=preimage_ok,
        c_minus_one_hits_target=hits,
    )


def artin_schreier_solve(ring: FormRing, h: LogForm, exponents) -> LogForm | None:
    """Solve gamma^p - gamma = h with gamma supported on the given exponents
    (an F_p-linear problem, since x -> x^p is additive and F_p-linear)."""
    if h.degree != 0:
        raise ValueError("h must be a 0-form")
    p = ring.p
    exps = [tuple(int(x) for x in e) for e in exponents]
    rows = sorted({tuple(x * p for x in e) for e in exps} | set(exps) |
                  {a for (a, _g) in h.terms})
    rix = {a: k for k, a in enumerate(rows)}
    m = np.zeros((len(rows), len(exps)), dtype=np.int64)
    for c, e in enumerate(exps):
        m[rix[tuple(x * p for x in e)], c] += 1
        m[rix[e], c] -= 1
    b = np.zeros(len(rows), dtype=np.int64)
    for (a, _g), coeff in h.terms.items():
        b[rix[a]] = coeff
    x = FpMatrix(p, m).solve(b)
    if x is None:
        return None
    out = ring.zero(0)
    for c, e in enumerate(exps):
        if int(x[c]) % p:
            out = out + ring.monomial(e, int(x[c]))
    return out


@dataclass
class ObstructionReport:
    p: int
    bound: int
    base_solution_exists: bool
    certificate: ASCertificate
    control_solution: LogForm | None

    @property
    def ok(self) -> bool:
        return (
            not self.base_solution_exists
            and self.certificate.ok
            and self.control_solution is not None
        )


def etale_obstruction_demo(p: int, bound: int = 8) -> ObstructionReport:
    """gamma^p - gamma = 1/t has no Laurent solution supported on t^{-bound}..
    t^{bound}, but the rank-p extension supplies one; the control equation
    gamma^p - gamma = t^p - t is solvable in the base (gamma = t works)."""
    ring = FormRing(
        p,
        names=("t",),
        laurent=(0,),
        window=((-p * bound - 1, p * bound + 1),),
    )
    h = ring.monomial((-1,))
    exps = [(k,) for k in range(-bound, bound + 1)]
    base = artin_schreier_solve(ring, h, exps)
    cert = c_minus_one_surjectivity(ring, h, ())
    control_h = ring.monomial((p,)) - ring.monomial((1,))
    control = artin_schreier_solve(ring, control_h, exps)
    if control is not None:
        if not (frobenius(control) - control == control_h):
            raise AssertionError("control solution does not satisfy its equation")
    return ObstructionReport(
        p=p,
        bound=bound,
        base_solution_exists=base is not None,
        certificate=cert,
        control_solution=control,
    )
