"""nu(n) and its Gysin purity, solved at weight 0 by cell, against the one
dense C - 1 system over every window weight and against every p-chain
solved for itself.

The dense oracles are the global assemblies that `cartier.c_minus_one_cells`
replaced: one matrix whose column block w holds -Z_w at the rows of w and
the Cartier matrix at the rows of w/p, and its kernel basis.  The routine
must give the same basis forms in the same order, the same dims, and the
same exception where the dense assembly raises.  The per-chain oracle
solves each p-chain u, pu, p^2 u, ... of a system drawn with independent
own blocks; a dependent own block must raise instead.
"""

import importlib
from itertools import product

import numpy as np
import pytest

from logcartier.cartier import c_minus_one_cells, cartier_slice_matrix, independent_block, nu_sections
from logcartier.cli import _log_subsets, main
from logcartier.forms import FormRing
from logcartier.gflinalg import FpMatrix
from logcartier.purity import GysinSetup, _coker_reps, nu_purity_report
from logcartier.sequences import closed_residue_complex, residue_complex_drop, type_cells

from conftest import count_rref


def dense_nu_basis(ring, n):
    """The kernel of the one global C - 1 matrix, as forms."""
    p = ring.p
    weights = [w for w in ring.iter_weights(n) if ring.in_window(w)]
    w_index = {w: k for k, w in enumerate(weights)}
    slices = [ring.slice(n, w) for w in weights]
    zbs, cmats = {}, {}
    for k, w in enumerate(weights):
        if slices[k].dim == 0:
            continue
        zb, src, mat = cartier_slice_matrix(ring, n, w)
        if zb.dim_Z:
            zbs[k] = zb
            cmats[k] = (src, mat)
    row_offset, total_rows = {}, 0
    for k, s in enumerate(slices):
        row_offset[k] = total_rows
        total_rows += s.dim
    col_blocks = sorted(zbs)
    col_offset, total_cols = {}, 0
    for k in col_blocks:
        col_offset[k] = total_cols
        total_cols += zbs[k].dim_Z
    m = np.zeros((total_rows, total_cols), dtype=np.int64)
    for k in col_blocks:
        zb = zbs[k]
        src, mat = cmats[k]
        for c in range(zb.dim_Z):
            col = col_offset[k] + c
            m[row_offset[k] : row_offset[k] + slices[k].dim, col] -= zb.Z_basis.column(c)
            if src is not None:
                tgt = w_index[src.weight]
                m[row_offset[tgt] : row_offset[tgt] + src.dim, col] += mat.column(c)
    basis = []
    for vec in FpMatrix(p, m).kernel_basis():
        form = ring.zero(n)
        for k in col_blocks:
            coords = vec[col_offset[k] : col_offset[k] + zbs[k].dim_Z]
            if coords.max(initial=0):
                form = form + slices[k].from_vector(zbs[k].Z_basis.apply(coords))
        basis.append(form)
    return tuple(basis)


def dense_purity_dims(setup, n):
    """(nullity, cokernel dim, per-weight closed cokernel dims) of the one
    global C - 1 matrix on the Gysin cokernels."""
    ring, z = setup.ring, setup.z
    p = ring.p
    weights = [w for w in ring.iter_weights(n) if w[z] == 0 and ring.in_window(w)]
    closed, plain = {}, {}
    for w in weights:
        ccx = closed_residue_complex(ring, n, z, w)
        closed[w] = (_coker_reps(ccx.maps[0], ccx.dims[1]), ccx.spaces[1][1])
        pcx = residue_complex_drop(ring, n, z, w)
        preps = _coker_reps(pcx.maps[0], pcx.dims[1])
        units = np.eye(pcx.dims[1], dtype=np.int64)[:, preps]
        plain[w] = (preps, FpMatrix(p, units).hstack(pcx.maps[0]))

    def quot(w, vecs):
        preps, solver = plain[w]
        return solver.solve(vecs)[: len(preps)]

    row_off, rows = {}, 0
    for w in weights:
        row_off[w] = rows
        rows += len(plain[w][0])
    blocks = [np.zeros((rows, 0), dtype=np.int64)]
    for w in weights:
        creps, z1 = closed[w]
        if not creps:
            continue
        block = np.zeros((rows, len(creps)), dtype=np.int64)
        qw = quot(w, z1.array[:, creps])
        block[row_off[w] : row_off[w] + len(qw)] -= qw
        if all(x % p == 0 for x in w):
            pw = tuple(x // p for x in w)
            cmat = cartier_slice_matrix(ring, n, w)[2]
            qp = quot(pw, cmat.array[:, creps])
            block[row_off[pw] : row_off[pw] + len(qp)] += qp
        blocks.append(block)
    cm1 = FpMatrix(p, np.hstack(blocks))
    per_weight = {w: len(closed[w][0]) for w in weights if closed[w][0]}
    return cm1.nullity(), cm1.cokernel_dim(), per_weight


def _radius(p, m):
    """The suite's radius 2p where the dense oracle stays small; radius p at
    (5, 3), which still holds the chains u, 5u."""
    return p if (p, m) == (5, 3) else 2 * p


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the comparison is of type and message
        return "raised", (type(exc), str(exc))


def _nu_rings(p):
    for m in (1, 2, 3):
        for log in _log_subsets(m):
            yield FormRing(p, m, log=log, window=_radius(p, m))
            yield FormRing(p, m, log=log, laurent=(m - 1,), window=_radius(p, m))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_nu_basis_matches_dense_system(p):
    raised = 0
    for ring in _nu_rings(p):
        for n in range(ring.m + 2):
            want = _outcome(dense_nu_basis, ring, n)
            got = _outcome(lambda: nu_sections(ring, n).basis)
            assert got == want, (ring, n)
            raised += want[0] == "raised"
            if got[0] == "ok":
                zero = (0,) * ring.m
                assert all(f.weights() == [zero] for f in got[1])
    assert raised  # the Laurent grid reaches the oracle's WindowOverflow


@pytest.mark.parametrize("p", [2, 3])
def test_nu_purity_matches_dense_system(p):
    for m in (2, 3):
        ring = FormRing(p, m, log=range(m), window=2 * p)
        for z in (0, m - 1):
            setup = GysinSetup(ring, z)
            for n in (1, 2):
                rep = nu_purity_report(setup, n)
                got = (rep.computed_nu_dim, rep.obstruction_dim, rep.per_weight_coker)
                assert got == dense_purity_dims(setup, n), (m, z, n)


def _per_chain_solve(p, rows, columns):
    """Kernel basis and cokernel dimension of C - 1 on per-weight dicts,
    with every p-chain solved for itself: each kernel vector as {w: coords}."""
    chains = {}
    for k, w in enumerate(rows):
        u = w
        while any(u) and all(x % p == 0 for x in u):
            u = tuple(x // p for x in u)
        chains.setdefault(u, []).append((k, w))
    found, cokernel = [], 0
    for chain in chains.values():
        starts = np.cumsum([0] + [rows[w] for _k, w in chain])
        row_at = {w: int(at) for (_k, w), at in zip(chain, starts)}
        height = int(starts[-1])
        parts, position = {}, []
        for k, w in chain:
            if w not in columns:
                continue
            own, c = columns[w]
            part = np.zeros((height, own.shape[1]), dtype=np.int64)
            part[row_at[w] : row_at[w] + rows[w]] -= own
            if c is not None:
                v = tuple(x // p for x in w)
                part[row_at[v] : row_at[v] + rows[v]] += c
            parts[w] = part
            position += [(k, i) for i in range(own.shape[1])]
        if not parts:
            cokernel += height
            continue
        kernel = FpMatrix(p, np.hstack(list(parts.values()))).kernel_basis()
        cokernel += height - len(position) + len(kernel)
        ends = np.cumsum([part.shape[1] for part in parts.values()])[:-1]
        for vec in kernel:
            found.append((position[int(np.flatnonzero(vec)[-1])], dict(zip(parts, np.split(vec, ends)))))
    found.sort(key=lambda entry: entry[0])
    return [coords for _free, coords in found], cokernel


def _single_cells(rows, columns):
    """A per-weight system as `c_minus_one_cells` takes it, each weight a
    cell of its own."""
    return [(((w,), 1, tuple((x,) for x in w)), rows[w], columns.get(w)) for w in rows]


def test_chains_split_the_window_by_division_by_p():
    # weights 0..4 at p = 2: chains {0}, {1, 2, 4}, {3}.  One unknown at 4
    # maps to -1 at 4 and to 1 at 2; one at 2 maps to -1 at 2 and 1 at 1; one
    # at 0 is fixed (C - 1 = 0 there); the kernel is the weight-0 unknown,
    # and only weight 0 is solved
    rows = {(w,): 1 for w in range(5)}
    one = np.ones((1, 1), dtype=np.int64)
    columns = {(0,): (one, one), (2,): (one, one), (4,): (one, one), (3,): (one, None)}
    kernel, cokernel = c_minus_one_cells(2, _single_cells(rows, columns))
    assert [x.tolist() for x in kernel] == [[1]]
    assert cokernel == 5 - 3  # rank 3: the unknowns at 2, 3 and 4
    want, want_cokernel = _per_chain_solve(2, rows, columns)
    assert [{w: x.tolist() for w, x in vec.items()} for vec in want] == [{(0,): [1]}]
    assert want_cokernel == cokernel


def _independent(rng, p, rows, cols):
    while True:
        own = rng.integers(0, p, size=(rows, cols))
        if FpMatrix(p, own).rank() == cols:
            return own


def _cell_system(p, m, radius, seed):
    """A C - 1 system on the window [-radius, radius]^m, drawn by cell.  A
    coordinate's type is x mod p, its base type (x < 0, and |x| past two
    thirds of the radius) and, at p | x, the base type of x / p, so a cell
    fixes the row dims of its weights and, where p divides them, of their
    quotients by p; the cell of weight 0 holds the small multiples of p.
    Each cell draws its own block with independent columns and its c block
    at random, except that the cell of weight 0 mostly takes c = own, or
    own plus a block of rank 1 at most, so that weight 0 often has a
    kernel.  Returns the cells as `c_minus_one_cells` takes them and the
    per-weight rows and columns of `_per_chain_solve`, in window order."""
    rng = np.random.default_rng(seed)

    def base(x):
        return x < 0, 3 * abs(x) > 2 * radius

    dims = {}

    def dim(w):  # a function of the base types of w
        t = tuple(base(x) for x in w)
        if t not in dims:
            dims[t] = int(rng.integers(0, 3))
        return dims[t]

    kind = lambda _k, x: (x % p, base(x), base(x // p) if x % p == 0 else None)  # noqa: E731
    cells, rows, columns = [], {}, {}
    for cell in type_cells([range(-radius, radius + 1)] * m, kind):
        first, _count, parts = cell
        r = dim(first)
        cols = int(rng.integers(1, r + 1)) if r else 0
        block = None
        if cols and rng.random() > 0.1:
            own = _independent(rng, p, r, cols)
            c = None
            if all(x % p == 0 for x in first):
                c = rng.integers(0, p, size=(dim(tuple(x // p for x in first)), cols))
                if all(0 in part for part in parts) and rng.random() < 0.75:
                    low = np.outer(rng.integers(0, p, r), rng.integers(0, p, cols)) if rng.random() < 0.5 else 0
                    c = (own + low) % p
            block = own, c
        cells.append((cell, r, block))
        for w in product(*parts):
            rows[w] = r
            if block is not None:
                columns[w] = block
    return cells, dict(sorted(rows.items())), columns


@pytest.mark.parametrize("p, m, radius", [(2, 1, 16), (2, 2, 6), (3, 2, 9), (2, 3, 3)])
def test_chain_classes_match_per_chain_solve(p, m, radius):
    # the cells of weight 0 hold other weights too, whose chains have no
    # kernel; the routine solves weight 0 alone, and must give the kernel and
    # cokernel of every p-chain solved for itself, bit for bit
    zero = (0,) * m
    found = 0
    for seed in range(6):
        cells, rows, columns = _cell_system(p, m, radius, seed)
        assert any(sum(map(len, parts)) > m and all(0 in part for part in parts) for (_f, _c, parts), _r, _b in cells)
        kernel, cokernel = c_minus_one_cells(p, cells)
        want, want_cokernel = _per_chain_solve(p, rows, columns)
        assert all(list(vec) == [zero] for vec in want)
        assert [x.tolist() for x in kernel] == [vec[zero].tolist() for vec in want]
        assert cokernel == want_cokernel
        found += len(kernel)
    assert found


def test_dependent_own_block_raises(monkeypatch, capsys):
    # the certificate: a block with identity rows passes without a reduction,
    # any other takes one rank, and a dependent one raises
    kern = FpMatrix(3, [[1, 2, 0]]).kernel_matrix()
    calls = count_rref(monkeypatch)
    assert independent_block(kern) is kern.array and not calls
    with pytest.raises(AssertionError, match="dependent columns"):
        independent_block(FpMatrix(3, [[1, 2], [2, 1]]))
    assert len(calls) == 1

    # nu: a Z basis with a duplicated column at the weights p divides fails
    # its rows
    cartier_module = importlib.import_module("logcartier.cartier")
    closed_slice_class = cartier_module.closed_slice_class

    def duplicated(ring, j, w):
        key, z = closed_slice_class(ring, j, w)
        if z.cols and all(x % ring.p == 0 for x in w):
            z = FpMatrix(ring.p, np.hstack([z.array, z.array[:, :1]]))
        return key, z

    with monkeypatch.context() as patch:
        patch.setattr(cartier_module, "closed_slice_class", duplicated)
        assert main(["verify", "nu", "-m", "2", "-p", "3"]) == 3
    # every log set at n = 0, 1, 2; n = 3 has no closed forms
    failing = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(failing) == 12 and all("nu-dimension" in line and "dependent columns" in line for line in failing)

    # purity: a closed cokernel representative taken twice
    purity_module = importlib.import_module("logcartier.purity")
    gysin_residue_closed = purity_module.gysin_residue_closed

    def twice(setup, n, w):
        g = gysin_residue_closed(setup, n, w)
        g.reps = g.reps + g.reps[:1]
        return g

    monkeypatch.setattr(purity_module, "gysin_residue_closed", twice)
    with pytest.raises(AssertionError, match="dependent columns"):
        nu_purity_report(GysinSetup(FormRing(2, 2, log=range(2), window=4), 0), 1)


@pytest.mark.parametrize("p", [2, 3])
def test_one_c_minus_one_kernel_per_nu_sections_call(p, monkeypatch):
    # one kernel per call, of the weight-0 block alone; none where weight 0
    # has no closed forms
    kernels = []
    kernel_basis = FpMatrix.kernel_basis
    monkeypatch.setattr(FpMatrix, "kernel_basis", lambda self: kernels.append(self.rows) or kernel_basis(self))
    for m in (1, 2, 3):
        for log in _log_subsets(m):
            ring = FormRing(p, m, log=log, window=2 * p)
            for n in range(m + 2):
                kernels.clear()
                rep = nu_sections(ring, n)
                zero_dim = len(ring.gens(n, (0,) * m))
                assert kernels == ([zero_dim] if zero_dim else []), (ring, n)
                assert rep.dim == len(rep.basis)
