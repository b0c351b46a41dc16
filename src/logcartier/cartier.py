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
for C at p | w (`cartier_class_key`), where gens(j, w) lists the generator
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

The verdicts of the cli's Cartier rows are functions of the C key too.  At
p | w, C(C^{-1}(eta)) = eta solves Z against inverse_cartier_matrix from
gens(j, w/p) to gens(j, w) and multiplies by C; ker C = B compares the
kernel of C with the solve of B in Z; and slice_bijection_ok ranks C^{-1}
beside B.  Each reads only Z, B, C and C^{-1}, so the rows walk the
classes of `cartier_class_key`: the C key at p | w and the B key with None
beside it elsewhere, read off the layouts, so a class already checked
builds no slice and no decomposition.  The key reads w only through the
per-coordinate types of `cartier_coordinate_type` (its docstring has the
argument), so the walks key one weight per cell of those types, in
first-weight order (`sequences.type_cells` and `walk_classes`), and the
rows count each cell's weights at once: `walk_window_classes` walks the
window (the kernel and exactness checks, `nu_sections`), and
`walk_source_classes` the sources w of C^{-1} into slice (j, p w), keyed
at p w (the inverse-identity and bijection checks).  A class whose build
raises raises in its check, at the first weight of the class.

nu(n) = ker(C - 1) on closed forms over a window is block diagonal over the
p-chains u, pu, p^2 u, ... (`c_minus_one_chains`).  Two chains whose row
dims and (Z, C) blocks agree position by position have one matrix, so each
chain class is solved once and its kernel vectors serve every chain of it.
The (Z, C) blocks of a weight are those of its `cartier_class_key`, so
`nu_sections` reads them once per key, and its row dims once per cell of
`cartier_coordinate_type`; it copies both to the weights of each cell,
with no layout or key per weight, and builds slices only at the weights
of its kernel vectors.

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
from itertools import accumulate, combinations, product

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
from .sequences import closed_slice_class, type_cells, walk_classes


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


def inverse_cartier_matrix(src: WeightSlice, dst: WeightSlice) -> FpMatrix:
    """`slice_map_matrix(src, dst, inverse_cartier)`: T^w dlog T_I goes to
    T^{pw} dlog T_I, the identity on generator sets from weight w to p w."""
    ring = src.ring
    pw = tuple(ring.p * x for x in src.weight)
    own = (dst.ring, dst.degree, dst.weight) == (ring, src.degree, pw)
    column = same_set_column(dst) if own else None
    return slice_map_by_index(src, dst, inverse_cartier, column)


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
            d_in = d_matrix(ring.slice(j - 1, self.weight), self.slice)
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


def _divides(p: int, w) -> bool:
    return all(x % p == 0 for x in w)


def cartier_class_key(ring: FormRing, j: int, w) -> tuple:
    """The class of slice (j, w) for its Z and B bases and the matrix of C
    on it: (j, gens(j, w), gens(j + 1, w), w mod p, gens(j - 1, w), and
    gens(j, w/p) at p | w, else None), read off the ring's layouts
    (`FormRing.gens`), so it builds no slice and no decomposition.  It is
    `ZBDecomposition.key` with the source sets under which
    `cartier_slice_matrix` keeps its matrix (module docstring)."""
    w = tuple(int(x) for x in w)
    p = ring.p
    src = ring.gens(j, tuple(x // p for x in w)) if _divides(p, w) else None
    return (j, ring.gens(j, w), ring.gens(j + 1, w), tuple(x % p for x in w), ring.gens(j - 1, w), src)


def cartier_coordinate_type(ring: FormRing, k: int, x: int) -> tuple:
    """The type of value x at coordinate k for `cartier_class_key`: the
    status of k at x (`FormRing.status`), x mod p, and at p | x the status
    at x / p.

    The key reads w through gens(j - 1, w), gens(j, w) and gens(j + 1, w),
    which are fixed by the statuses of the coordinates of w (the ring's
    layout); through w mod p; and where p divides every coordinate, through
    gens(j, w/p), fixed by the statuses of the coordinates of w/p.  Each is
    read coordinate by coordinate, so the key is a function of the tuple of
    types (sequences module docstring, "Class walks").  The key at p w has
    the type of p x: the status at p x and at x."""
    r = x % ring.p
    return ring.status(k, x), r, ring.status(k, x // ring.p) if r == 0 else None


def _window_values(ring: FormRing):
    return [range(lo, hi + 1) for lo, hi in ring.window]


def _walk(values, kind, key, check, keep):
    cells = type_cells(values, kind)
    if keep is not None:
        cells = (cell for cell in cells if keep(cell[0]))
    return walk_classes(cells, key, check)


def walk_window_classes(ring: FormRing, j: int, check, keep=None):
    """Walk the ring's window in degree j once per class of
    `cartier_class_key`, keyed once per cell of `cartier_coordinate_type`
    (module docstring): (cell, verdict) as `sequences.walk_classes` yields
    them, over the cells whose first weight `keep` accepts (default: all),
    a test that must be a function of the type tuple."""
    kind = partial(cartier_coordinate_type, ring)
    return _walk(_window_values(ring), kind, partial(cartier_class_key, ring, j), check, keep)


def walk_source_classes(ring: FormRing, j: int, radius: int, check, keep=None):
    """Walk the sources w in [0, radius]^m of C^{-1} into slice (j, p w),
    once per class of `cartier_class_key` at (j, p w), as
    `walk_window_classes` walks the window.  The key at p w reads x
    through the type of p x, the status at p x and at x
    (`cartier_coordinate_type`)."""
    p = ring.p
    kind = lambda k, x: cartier_coordinate_type(ring, k, p * x)  # noqa: E731
    key = lambda w: cartier_class_key(ring, j, tuple(p * x for x in w))  # noqa: E731
    return _walk([range(radius + 1)] * ring.m, kind, key, check, keep)


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
    if not _divides(p, zb.weight):
        if zb.dim_Z != zb.dim_B:
            raise AssertionError(
                f"closed slice at non-p-divisible weight {w} is not exact"
            )
        return zb, None, FpMatrix.zeros(p, 0, zb.dim_Z)
    src = ring.slice(j, tuple(x // p for x in zb.weight))

    def build():
        cinv = inverse_cartier_matrix(src, zb.slice)
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
    cinv = inverse_cartier_matrix(src, zb.slice)
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

    @property
    def dim(self) -> int:
        return len(self.basis)


def dlog_wedge(ring: FormRing, indices) -> LogForm:
    """dlog T_{i_1} ^ ... ^ dlog T_{i_n} for log indices i_1 < ... < i_n."""
    out = ring.one()
    for i in indices:
        out = out.wedge(ring.gen(i) if i in ring.log else ring.dlog(i))
    return out


def shared_block(store: dict, a):
    """The first array of a's content in `store`, or None for None.  The
    callers of `c_minus_one_chains` pass each class's blocks through it
    once per class, so that blocks equal in content are one object, which
    is how c_minus_one_chains compares them."""
    return None if a is None else store.setdefault((a.shape, a.tobytes()), a)


def c_minus_one_chains(p: int, rows: dict, columns: dict):
    """Kernel basis and cokernel dimension of C - 1 across a weight window,
    solved once per class of p-chains.

    `rows` maps each window weight, in window order, to the dimension of its
    row block; `columns` maps w to its column block (own, c), which C - 1
    sends to -own in the rows of w and, if p divides w, to c in the rows of
    w/p (else c is None).  Returns (kernel, cokernel_dim): the kernel basis
    of the one matrix with its column blocks in window order, in its order,
    each vector as {w: coordinates} over the column blocks of its chain.

    Column block w meets only the row blocks of w and w/p, so up to a
    permutation of rows and columns the system is block diagonal over the
    classes of w ~ w/p.  A class is a chain u, pu, p^2 u, ... inside the
    window, its root u found by dividing w by p while w != 0 and p divides
    every coordinate; weight 0 is a chain by itself.  A column is a pivot of
    the global rref iff it is outside the span of the columns before it,
    which its own chain decides.  The kernel vector of a free column f is the
    only one that is 1 at f and 0 at the other free columns, so it is its
    chain's vector extended by zeros, and f is its last nonzero entry (a
    pivot column after f has a 0 at f in its row).  So the chains' kernels in
    global free-column order are the global basis in order, and the summed
    nullities and rows - rank are the global nullity and cokernel dimension.

    A chain's system is fixed by its weights' row dims, their (own, c)
    blocks and, for each block c, the position of w/p in the chain, all
    taken position by position in window order.  Two chains equal in these
    have one matrix, so one kernel (the same vectors, over their own
    weights) and one cokernel count: each class of chains is solved once,
    and its vectors, read-only, serve every chain of the class.  The blocks
    are compared as objects: the callers give every weight of a slice class
    the one read-only array of that class, one array for all classes with
    blocks of one content (`shared_block`), and every block stays alive in
    `columns` for the whole call, so the id of a block names its content.

    If every own block has independent columns (closed forms in their slice
    for nu, closed representatives in the plain cokernel for purity), a chain
    u, ..., p^k u without weight 0 has a zero kernel: its top row reads
    own x_k = 0 and the row of p^i u reads own x_i = C x_{i+1}.  So nu lives
    at weight 0 (Katz 1970, section 7; Illusie 1979, section 0.2).  Every
    chain class is still solved, since the solve is the verification.
    """
    chains: dict = {}
    for k, w in enumerate(rows):
        u = w
        while any(u) and _divides(p, u):
            u = tuple(x // p for x in u)
        chains.setdefault(u, []).append((k, w))
    solved: dict = {}
    found = []
    cokernel = 0
    for chain in chains.values():
        at = {w: t for t, (_k, w) in enumerate(chain)}
        key = []
        for _k, w in chain:
            own, c = columns.get(w, (None, None))
            below = None if c is None else at[tuple(x // p for x in w)]
            key.append((rows[w], id(own), id(c), below))
        key = tuple(key)
        if key not in solved:
            solved[key] = _solve_chain(p, chain, rows, columns)
        height, blocks, free = solved[key]
        cokernel += height
        for (t, i), pieces in free:
            coords = {chain[b][1]: piece for b, piece in zip(blocks, pieces)}
            found.append(((chain[t][0], i), coords))
    found.sort(key=lambda entry: entry[0])
    return [coords for _free, coords in found], cokernel


def _solve_chain(p: int, chain, rows: dict, columns: dict):
    """The system of one p-chain (`c_minus_one_chains`), in chain positions:
    (its cokernel dimension, the positions t holding a column block, and for
    each kernel vector in order its free column (t, i) and its pieces over
    those blocks, read-only)."""
    starts = list(accumulate((rows[w] for _k, w in chain), initial=0))
    row_at = {w: at for (_k, w), at in zip(chain, starts)}
    height = starts[-1]
    blocks, parts, position = [], [], []
    for t, (_k, w) in enumerate(chain):
        if w not in columns:
            continue
        own, c = columns[w]
        part = np.zeros((height, own.shape[1]), dtype=np.int64)
        part[row_at[w] : row_at[w] + rows[w]] -= own
        if c is not None:
            v = tuple(x // p for x in w)
            part[row_at[v] : row_at[v] + rows[v]] += c
        blocks.append(t)
        parts.append(part)
        position += [(t, i) for i in range(own.shape[1])]
    if not parts:
        return height, blocks, []
    kernel = FpMatrix(p, np.hstack(parts)).kernel_basis()
    ends = list(accumulate(part.shape[1] for part in parts))[:-1]
    free = []
    for vec in kernel:
        vec.flags.writeable = False
        free.append((position[int(np.flatnonzero(vec)[-1])], np.split(vec, ends)))
    return height - len(position) + len(kernel), blocks, free


def nu_sections(ring: FormRing, n: int) -> NuReport:
    """ker(C - 1) on closed n-forms over the weight window, by
    `c_minus_one_chains` on the Z bases and Cartier matrices of the slices.

    Since |p^k w| grows without bound for w != 0, every p-chain exits the
    window and the kernel is computed exactly for window-supported forms; it
    lies at weight 0.  On Laurent rings that is all it says: the dlog span is
    compared only on polynomial rings, and matches_dlog_span stays false on
    a Laurent one.

    Weights on the outer degree shell (w_i = hi + 1 at a dT generator) are
    skipped: their exact forms have antiderivatives outside the window, so
    the Z/B split there is an artifact of the box, not of the ring.
    """
    store = {}

    def column(w):  # the (own, c) blocks of the class of w, or None if Z = 0
        zb, src, mat = cartier_slice_matrix(ring, n, w)
        if not zb.dim_Z:
            return None
        return shared_block(store, zb.Z_basis.array), shared_block(store, None if src is None else mat.array)

    # the row dims and blocks once per cell of the window with a basis,
    # copied to its weights (sequences module docstring, "Class walks")
    rows, columns = dict.fromkeys(product(*_window_values(ring)), 0), {}
    for (first, _count, parts), found in walk_window_classes(ring, n, column, lambda w: ring.gens(n, w)):
        dim = len(ring.gens(n, first))
        for w in product(*parts):
            rows[w] = dim
            if found is not None:
                columns[w] = found
    kernel, _ = c_minus_one_chains(ring.p, rows, columns)
    slices = {w: ring.slice(n, w) for w in dict.fromkeys(w for vec in kernel for w in vec)}
    basis_forms = [
        sum((slices[w].from_vector(columns[w][0] @ x) for w, x in vec.items()), ring.zero(n))
        for vec in kernel
    ]
    matches = False
    if not ring.laurent:
        wedges = [dlog_wedge(ring, I) for I in combinations(sorted(ring.log), n)]
        matches = _same_span(ring.p, basis_forms, wedges)
    return NuReport(ring=ring, n=n, basis=tuple(basis_forms), matches_dlog_span=matches)


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
        out = self.embed(self.ring.one())
        for _ in range(k):
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
