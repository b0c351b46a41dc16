"""nu(n) and its Gysin purity, solved per p-chain, against the one dense
C - 1 system over every window weight.

The oracles below are the global assemblies that `cartier.c_minus_one_chains`
replaced: one matrix whose column block w holds -Z_w at the rows of w and the
Cartier matrix at the rows of w/p, and its kernel basis.  The chain solve
must give the same basis forms in the same order, the same dims, and the
same exception where the dense assembly raises.
"""

import importlib
from itertools import product

import numpy as np
import pytest

from logcartier.cartier import c_minus_one_chains, cartier_slice_matrix, nu_sections
from logcartier.cli import _log_subsets
from logcartier.forms import FormRing
from logcartier.gflinalg import FpMatrix
from logcartier.purity import GysinSetup, _coker_reps, nu_purity_report
from logcartier.sequences import closed_residue_complex, residue_complex_drop


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


def test_chains_split_the_window_by_division_by_p():
    # weights 0..4 at p = 2: chains {0}, {1, 2, 4}, {3}.  One unknown at 4
    # maps to -1 at 4 and to 1 at 2; one at 2 maps to -1 at 2 and 1 at 1; one
    # at 0 is fixed (C - 1 = 0 there); the kernel is the weight-0 unknown.
    rows = {(w,): 1 for w in range(5)}
    one = np.ones((1, 1), dtype=np.int64)
    columns = {(0,): (one, one), (2,): (one, one), (4,): (one, one), (3,): (one, None)}
    kernel, cokernel = c_minus_one_chains(2, rows, columns)
    assert [list(vec) for vec in kernel] == [[(0,)]]
    assert cokernel == 5 - 3  # rank 3: the unknowns at 2, 3 and 4


def test_chain_kernels_come_in_global_column_order():
    # p = 2, rows in the order 1, 3, 2: the chain {1, 2} is met first, but
    # its free column (at 2) comes after the one of the chain {3}
    rows = {(1,): 1, (3,): 1, (2,): 1}
    zero = np.zeros((1, 1), dtype=np.int64)
    columns = {(2,): (zero, zero), (3,): (zero, None)}
    kernel, cokernel = c_minus_one_chains(2, rows, columns)
    assert [list(vec) for vec in kernel] == [[(3,)], [(2,)]]
    assert cokernel == 3


def _per_chain_solve(p, rows, columns):
    """c_minus_one_chains with every p-chain solved for itself."""
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


def _repeating_system(p, m, radius, seed):
    """A C - 1 system on the window [-radius, radius]^m whose blocks are
    drawn from a small pool, by the chain position and the row dims, so
    that many chains repeat one another while others differ."""
    rng = np.random.default_rng(seed)
    weights = list(product(range(-radius, radius + 1), repeat=m))
    rows = {w: int(max(abs(x) for x in w) % 3) for w in weights}
    pool = {}

    def block(tag, r, c):
        if (tag, r, c) not in pool:
            pool[tag, r, c] = rng.integers(0, p, size=(r, c))
        return pool[tag, r, c]

    columns = {}
    for w in weights:
        if rows[w] == 0 or rng.random() < 0.1:
            continue
        cols = 1 + sum(w) % 2
        v = tuple(x // p for x in w)
        divisible = all(x % p == 0 for x in w)
        columns[w] = (
            block(("own", divisible), rows[w], cols),
            block(("c", rows[v]), rows[v], cols) if divisible else None,
        )
    return rows, columns


def _as_lists(kernel):
    return [{w: x.tolist() for w, x in vec.items()} for vec in kernel]


@pytest.mark.parametrize("p, m, radius", [(2, 1, 16), (2, 2, 6), (3, 2, 9), (2, 3, 3)])
def test_chain_classes_match_per_chain_solve(p, m, radius, monkeypatch):
    # the package exports the function cartier, which hides the module
    cartier_module = importlib.import_module("logcartier.cartier")
    solve = cartier_module._solve_chain
    solved = []
    monkeypatch.setattr(cartier_module, "_solve_chain", lambda *a: solved.append(1) or solve(*a))
    for seed in range(3):
        rows, columns = _repeating_system(p, m, radius, seed)
        kernel, cokernel = c_minus_one_chains(p, rows, columns)
        want, want_cokernel = _per_chain_solve(p, rows, columns)
        assert _as_lists(kernel) == _as_lists(want)
        assert cokernel == want_cokernel
    chains = sum(
        1 for w in product(range(-radius, radius + 1), repeat=m) if not (any(w) and all(x % p == 0 for x in w))
    )
    assert len(solved) < 3 * chains, (len(solved), 3 * chains)


def test_chain_class_vectors_are_read_only():
    rows, columns = _repeating_system(2, 2, 6, 0)
    kernel, _ = c_minus_one_chains(2, rows, columns)
    assert kernel
    for vec in kernel:
        for x in vec.values():
            with pytest.raises(ValueError):
                x[0] = 1


def test_chains_with_equal_blocks_in_mirrored_order_are_two_classes():
    # p = 2 on -8..8: the chains -8, -4, -2, -1 and 1, 2, 4, 8 carry equal
    # blocks position by position, but C sends the block at position 1 up
    # the window in one and down it in the other; only the positive chain
    # couples its two blocks in one row, and so has a kernel
    rows = {(w,): 1 for w in range(-8, 9)}
    one, zero = np.ones((1, 1), dtype=np.int64), np.zeros((1, 1), dtype=np.int64)
    columns = {(-4,): (one, zero), (-2,): (zero, one), (2,): (one, zero), (4,): (zero, one)}
    kernel, cokernel = c_minus_one_chains(2, rows, columns)
    assert _as_lists(kernel) == [{(2,): [1], (4,): [1]}]
    want, want_cokernel = _per_chain_solve(2, rows, columns)
    assert (_as_lists(kernel), cokernel) == (_as_lists(want), want_cokernel)
