"""Sparse matrices read off the functions they linearise by coloured probes:
the stationary Newton's Jacobian and the slab's velocity and heat matrices.
On a lattice of sites (field, i, k), periodic in i and bounded in k,
``offsets`` reads the coupling table (equation field, unknown field, di, dk)
off a small probe lattice, ``pattern`` translates it, ``colouring`` gives
unknowns that share no equation one probe (Curtis, Powell & Reid, IMA J.
Appl. Math. 13, 1974; Gebremedhin, Manne & Pothen, SIAM Rev. 47, 2005), and
a ``Plan`` reads the matrix off the stacked responses with one gather.
None of these depends on more than a grid's shape and spacing, so their
builders are ``shared``: each result is built once per process, read-only.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict

import numpy as np
from scipy.sparse import coo_matrix, csc_matrix

__all__ = ["lattice", "offsets", "pattern", "colouring", "Plan", "shared", "clear"]

# the results each ``shared`` builder keeps, the least recently used dropped first
KEPT = 8
_kept = []


def _read_only(value):
    """``value`` with every array in it made read-only: arrays, and those
    held in sequences, dicts and objects (a ``Plan``, a sparse matrix)."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (tuple, list)):
        for item in value:
            _read_only(item)
    elif isinstance(value, dict):
        _read_only(list(value.values()))
    elif hasattr(value, "__dict__"):
        _read_only(vars(value))
    return value


def shared(key):
    """Decorate ``build``: its result for ``key(*args)`` is built once,
    made read-only and kept process-wide for the ``KEPT`` keys last used,
    so that every caller on one grid gets the same arrays and none can
    change them for another.  ``builds`` counts the calls that built, and
    ``kept`` maps the keys to the results."""

    def decorate(build):
        kept, lock = OrderedDict(), threading.Lock()

        @functools.wraps(build)
        def cached(*args):
            at = key(*args)
            with lock:
                if at in kept:
                    kept.move_to_end(at)
                    return kept[at]
            value = _read_only(build(*args))
            with lock:
                cached.builds += 1
                kept[at] = value
                while len(kept) > KEPT:
                    kept.popitem(last=False)
            return value

        cached.builds, cached.kept = 0, kept
        _kept.append(kept)
        return cached

    return decorate


def clear():
    """Empty every ``shared`` builder's results."""
    for kept in _kept:
        kept.clear()


def lattice(nx, nz, fields=1, pad=0):
    """The sites of an nx x nz lattice, row-major, ``fields`` alternating in
    k, and their places in it flattened, padded by ``pad`` nodes each end of k."""
    i, k = np.indices((nx, nz)).reshape(2, -1)
    return np.stack([k % fields, i, k]), i * (nz + 2 * pad) + k + pad


def offsets(fun, states, unknowns, equations, nx):
    """The unique (equation field, unknown field, di, dk) couplings of ``fun``,
    a map from a stack of states (``unknowns`` first) to one of responses
    (``equations`` first), and the states evaluated.  On a probe lattice of
    period ``nx`` the unknowns at i = 0 show every coupling: each gets one
    forward difference at every state of ``states``, one stacked call per
    state; di is signed, within +-nx // 2."""
    column = np.flatnonzero(unknowns[1] == 0)
    coupled = np.zeros((equations.shape[1], column.size), dtype=bool)
    for x in states:
        # row 0 is the state, row j + 1 perturbs column[j]
        stack = np.tile(x, (column.size + 1, 1))
        stack[np.arange(1, column.size + 1), column] += 1.0e-7 * np.maximum(1.0, np.abs(x[column]))
        f = fun(stack)[:, : equations.shape[1]]
        coupled |= (f[1:] != f[0]).T
    eqs, j = np.nonzero(coupled)
    site, reached = equations[:, eqs], unknowns[:, column[j]]
    table = np.stack([site[0], reached[0], (reached[1] - site[1] + nx // 2) % nx - nx // 2, reached[2] - site[2]], 1)
    return np.unique(table, axis=0), len(states) * (column.size + 1)


def pattern(table, unknowns, equations, nx):
    """(rows, cols) of ``table`` translated to the lattice of ``equations``
    and ``unknowns`` with period ``nx``: a k offset that leaves the lattice,
    or lands where its field has no site, is dropped.  Entries are merged
    only where x offsets alias (nx <= 2 max|di|)."""
    reach = np.max(np.abs(table[:, 2:]), axis=0, initial=0)
    at = np.full((int(unknowns[0].max()) + 1, nx, int(unknowns[2].max()) + 1), -1)
    at[tuple(unknowns)] = np.arange(unknowns.shape[1])
    # wrapped by the x reach, padded by the k reach: every offset lands inside
    at = np.pad(at, ((0, 0), (reach[0],) * 2, (0, 0)), mode="wrap")
    at = np.pad(at, ((0, 0), (0, 0), (reach[1],) * 2), constant_values=-1)
    _, width, depth = at.shape
    eq, field, di, dk = (table + [0, 0, *reach]).T
    # flat indices into ``at``: an equation's site plus the shift of each
    # offset of its own field
    site, shift = equations[1] * depth + equations[2], (field * width + di) * depth + dk
    rows, cols = [], []
    for f in range(int(equations[0].max()) + 1):
        own = np.flatnonzero(equations[0] == f)
        reached = at.ravel()[site[own, None] + shift[eq == f]]
        hit = reached >= 0
        rows.append(np.repeat(own, np.count_nonzero(hit, axis=1)))
        cols.append(reached[hit])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    if nx <= 2 * reach[0]:
        rows, cols = np.unique(np.stack([rows, cols]), axis=1)
    return rows, cols


def _first_fit(shape, first, second, ddi, ddk):
    """First-fit colours of the nodes (field, x, z) of a periodic ``shape``,
    in that order, under the conflicts (first, second, ddi, ddk)."""
    node = np.arange(np.prod(shape)).reshape(shape)
    f, i, k = np.indices(shape).reshape(3, -1, 1)
    # every node's conflicting nodes, in node order
    near = []
    for g in range(shape[0]):
        own, at = first == g, f[:, 0] == g
        near += list(node[second[own], (i[at] + ddi[own]) % shape[1], (k[at] + ddk[own]) % shape[2]])
    colour = np.full(node.size, -1)
    for m, conflicting in enumerate(near):
        taken = set(colour[conflicting].tolist())
        colour[m] = next(c for c in range(len(taken) + 1) if c not in taken)
    return colour.reshape(shape)


def _blocks(nx, reach):
    """x colour of every column of a ring of nx: blocks of reach + 1 columns,
    then of reach + 2, so that columns of one colour lie more than ``reach``
    apart; one colour per column where no such blocks tile the ring."""
    i = np.arange(nx)
    narrow = nx - (nx % (reach + 1)) * (reach + 2)  # the columns in blocks of reach + 1
    return i if narrow < 0 else np.where(i < narrow, i % (reach + 1), (i - narrow) % (reach + 2))


def colouring(table, unknowns, nx):
    """The probe of every unknown, 0..C-1, none empty: first-fit on the
    nodes (field, x node, k mod q) under two x maps, whichever needs fewer
    colours (the torus on a tie).  Two offsets of ``table`` with one
    equation field give a conflict (a, b, ddi, ddk); q exceeds their z
    reach, R is their x reach.  The torus takes x node i mod p, p a
    divisor of nx above R (else nx), so the x wrap maps conflicts onto the
    torus; of these periods the one with the fewest colours, the least on
    a tie.  The blocks take the x colour of ``_blocks`` times the colour of
    (field, k mod q) under the conflicts within a column (ddi = 0 mod nx).
    Unknowns on one node lie a multiple of q apart in z, or of p in x, or
    in one column, so they never conflict."""
    eq, field, di, dk = table.T
    a, b = np.nonzero(eq[:, None] == eq)
    # each distinct conflict once
    first, second, ddi, ddk = np.unique(np.stack([field[a], field[b], di[b] - di[a], dk[b] - dk[a]]), axis=1)
    reach, q = int(np.max(np.abs(ddi), initial=0)), int(np.max(np.abs(ddk), initial=0)) + 1
    f, i, k = unknowns
    n_fields = int(f.max()) + 1

    def renumbered(c):
        """0..C-1: nodes no unknown takes would be empty probes."""
        return np.unique(c, return_inverse=True)[1]

    periods = [d for d in range(reach + 1, nx + 1) if nx % d == 0] or [nx]
    tori = (renumbered(_first_fit((n_fields, p, q), first, second, ddi, ddk)[f, i % p, k % q]) for p in periods)
    torus = min(tori, key=np.max)  # the first, least period on a tie
    own, x = ddi % nx == 0, _blocks(nx, reach)
    z = _first_fit((n_fields, 1, q), first[own], second[own], 0 * ddi[own], ddk[own])[f, 0, k % q]
    blocks = renumbered(z * (x.max() + 1) + x[i])
    return torus if torus.max() <= blocks.max() else blocks


class Plan:
    """How a probed function becomes a CSC matrix, fixed per lattice: the
    pattern ``rows``, ``cols`` of a square matrix, ``colour`` the probe of
    every unknown and ``column[j]`` the column of unknown j (default j).  A
    probe is a flat state of ``size`` entries with unknown j at
    ``place[j]`` (default j); a response puts equation j there too.  Columns
    of one colour share no row, so ``gather`` reads every entry off the
    flattened stacked responses to ``probes``, in CSC order."""

    def __init__(self, rows, cols, colour, size, place=None, column=None):
        n = colour.size
        self.colour, self.n_colours, self.size = colour, int(colour.max()) + 1, size
        self.place = np.arange(n) if place is None else place
        # the entries' own indices, in CSC order (rows sorted) by COO -> CSC
        order = coo_matrix((np.arange(rows.size), (rows, cols if column is None else column[cols])), (n, n)).tocsc()
        self.indices, self.indptr = order.indices, order.indptr
        self.cols = cols[order.data]  # the unknown of every stored entry
        self.diagonal = np.flatnonzero(self.indices == self.cols)
        self.gather = self.colour[self.cols] * size + self.place[self.indices]

    def probes(self, base, step=1.0):
        """``base`` once per colour, each unknown moved by ``step`` in its own."""
        stack = np.tile(base, (self.n_colours, 1))
        stack[self.colour, self.place] += step
        return stack

    def matrix(self, data):
        """The CSC matrix of the stored entries ``data``."""
        return csc_matrix((data, self.indices.copy(), self.indptr.copy()), shape=(self.colour.size,) * 2)
