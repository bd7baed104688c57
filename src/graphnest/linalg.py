"""Complex matrix helpers and the span-closure engine.

The helpers take and return numpy ``complex128`` matrices, and norms and
ranks go through direct SVDs.  Representations are stored as weighted
partial maps (``reps``); these helpers serve the dense matrices read from
them.

``span_closure_dim`` computes the linear dimension of the (non-unital)
algebra generated by a finite set S of k×k matrices — the workhorse behind
the irreducibility and nest-density certificates.  When every generator is
a weighted partial map, as every representation the package builds is, it
closes the words in S as (row, column, weight) lists against a pivot table
by coordinate, with no SVD and no dense product.  Any other set is closed
under left multiplication by an orthonormal basis of span(S), which needs
dim·|S| products rather than dim²; such sets whose singular values span
more than 1/``RANK_TOL`` get tolerance-dependent ranks.

The two tolerances are fixed.  The package's representations send each
basis vector to ½ or 1 times another, so a relation residual is an exact
number such as 0, 0.25, 0.75 or 1: any threshold between rounding error and
0.25 gives the same verdicts, and a larger one only wrong ones.
"""

from __future__ import annotations

import numpy as np

#: Rank threshold, relative to the largest singular value (to the largest
#: entry, for a word of weighted partial maps).
RANK_TOL = 1e-9

#: Residual norms up to this are treated as zero.
NORM_TOL = 1e-9


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.size and not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def operator_norm(m) -> float:
    """Largest singular value: the value ``np.linalg.norm(a, 2)`` takes
    from the same SVD, without its axis bookkeeping."""
    a = as_matrix(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def row_operator_norm(ms) -> float:
    """Norm of the row operator [m_1 m_2 …]: the square root of
    ‖Σ m_i m_i^*‖.  All matrices must have the same number of rows."""
    mats = [as_matrix(m) for m in ms]
    if not mats:
        raise ValueError("row_operator_norm needs a nonempty list")
    rows = mats[0].shape[0]
    for m in mats:
        if m.shape[0] != rows:
            raise ValueError("row_operator_norm: matrices must share their row count")
    acc = np.zeros((rows, rows), dtype=np.complex128)
    for m in mats:
        acc += m @ m.conj().T
    return float(np.sqrt(operator_norm(acc)))


def _orthonormal_rows(stack: np.ndarray) -> np.ndarray:
    """Orthonormal row basis of the row space, via SVD with a relative
    threshold.  Returns an (r, n) array; r may be zero."""
    if stack.size == 0:
        return stack.reshape(0, stack.shape[1] if stack.ndim == 2 else 0)
    if stack.shape[0] > stack.shape[1]:
        # A tall stack has the singular values and right singular vectors
        # of its square triangular factor, which is cheaper to decompose.
        stack = np.linalg.qr(stack, mode="r")
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return vh[:0]
    r = int(np.count_nonzero(s > RANK_TOL * s[0]))
    return vh[:r]


def _partial_maps(stack: np.ndarray):
    """A (g, k, k) stack as weighted partial maps, when no column of any
    generator holds two nonzeros: generator i sends column j to
    weights[i, j]·(row rows[i, j]), and weights[i, j] = 0 marks a zero
    column.  Returns None for any other stack."""
    nonzero = stack != 0
    if np.any(np.count_nonzero(nonzero, axis=1) > 1):
        return None
    # the one nonzero of each column, or 0
    return nonzero.argmax(axis=1), stack.sum(axis=1)


def _monomial_closure(rows: np.ndarray, weights: np.ndarray, k: int):
    """The generated algebra of weighted partial maps (``_partial_maps``),
    spanned by their words, each a weighted partial map itself.

    Each word kept is multiplied on the left by every generator with one
    gather, as a list of (row, column, weight) entries.  A product is
    reduced against a Gauss–Jordan table keyed by the coordinate r·k + c,
    whose rows are 1 at their own pivot and 0 at every other, and kept when
    its residual has an entry above ``RANK_TOL`` times the product's largest
    entry; that entry becomes a new pivot, so at most k² words are kept.
    Generators are rescaled to largest entry 1, so a long word can neither
    overflow nor, from a generator's scale alone, underflow."""
    full = k * k
    table: dict[int, dict[int, complex]] = {}  # pivot -> its row off the pivot
    holders: dict[int, set[int]] = {}  # coordinate -> pivots whose row holds it
    scale = np.abs(weights).max(axis=1)
    live = scale > 0
    gens = list(zip(rows[live].tolist(), (weights[live] / scale[live, None]).tolist()))
    kept: list[list[tuple[int, int, complex]]] = []

    def candidates():
        for g_rows, g_weights in gens:
            yield [(r, c, w) for c, (r, w) in enumerate(zip(g_rows, g_weights)) if w]
        for word in kept:  # a queue: the loop below appends to it
            for g_rows, g_weights in gens:
                yield [(g_rows[r], c, g_weights[r] * w) for r, c, w in word if g_weights[r]]

    for word in candidates():
        res: dict[int, complex] = {}
        for r, c, x in word:
            p = r * k + c
            row = table.get(p)
            if row is None:
                res[p] = res.get(p, 0j) + x
            else:
                for q, y in row.items():
                    res[q] = res.get(q, 0j) - x * y
        if not res:
            continue
        pivot, top = max(res.items(), key=lambda item: abs(item[1]))
        largest = max(abs(w) for _, _, w in word)
        if abs(top) <= RANK_TOL * largest:
            continue
        del res[pivot]
        row = {c: y / top for c, y in res.items() if y}
        for q in holders.pop(pivot, ()):
            other = table[q]
            f = other.pop(pivot)
            for c, y in row.items():
                if c not in other:
                    other[c] = 0j
                    holders.setdefault(c, set()).add(q)
                other[c] -= f * y
        for c in row:
            holders.setdefault(c, set()).add(pivot)
        table[pivot] = row
        if len(table) == full:
            return full, list(np.eye(full, dtype=np.complex128).reshape(full, k, k))
        kept.append(word)
    if not table:
        return 0, []
    reduced = np.zeros((len(table), full), dtype=np.complex128)
    for i, (pivot, row) in enumerate(table.items()):
        reduced[i, pivot] = 1.0
        reduced[i, list(row)] = list(row.values())
    basis = np.linalg.qr(reduced.T)[0].T
    return len(basis), list(basis.reshape(-1, k, k))


def _dense_closure(mats, k: int):
    """The generated algebra of any k×k matrices, by orthonormal rounds (see
    ``span_closure_dim``)."""
    basis = _orthonormal_rows(np.array([m.reshape(-1) for m in mats]))
    full = k * k
    gens0 = new = basis.reshape(-1, k, k)
    while 0 < basis.shape[0] < full and new.shape[0]:
        prods = (gens0[:, None] @ new[None]).reshape(-1, full)
        for _ in range(2):
            prods = prods - (prods @ basis.conj().T) @ basis
        _, s, vh = np.linalg.svd(prods, full_matrices=False)
        fresh = vh[: np.count_nonzero(s > RANK_TOL)]
        fresh = fresh - (fresh @ basis.conj().T) @ basis
        # QR of the columns restores B Bᴴ = I after the last projection.
        fresh = np.linalg.qr(fresh.T)[0].T
        basis = np.vstack([basis, fresh])
        new = fresh.reshape(-1, k, k)
    return basis.shape[0], [row.reshape(k, k) for row in basis]


def span_closure_dim(gens, dim: int):
    """Dimension of the smallest multiplicatively closed subspace of k×k
    matrices containing ``gens`` (the non-unital generated algebra), plus an
    orthonormal basis of it.

    The generated algebra A of S satisfies A = span(S) + S·A.  When every
    generator is a weighted partial map (at most one nonzero per column),
    A is spanned by the words in S, which are weighted partial maps too:
    the words are closed under left multiplication by S and reduced against
    a pivot table by coordinate (``_monomial_closure``), with no SVD.  Each
    rank decision is relative to one product's largest entry, so no
    generator's scale changes the dimension.  The basis is the k² matrix
    units when A is all of M_k, else one QR of the reduced pivot rows.

    Any other set is closed under left multiplication by an orthonormal
    basis B₀ of span(S).  Each round multiplies only the directions new
    since the last round by B₀, keeps the residual directions off the basis
    with singular value above ``RANK_TOL`` (B₀ and the basis are
    orthonormal, so the products are scale-free), and re-orthonormalizes
    them: r·|B₀| products for a dimension-r algebra, capped at k².  When the
    singular values of the generators span more than 1/``RANK_TOL``, the
    rank decisions, and so the dimension, depend on the tolerance.
    """
    k = int(dim)
    if k <= 0:
        raise ValueError("dim must be positive")
    mats = []
    for m in gens:
        a = as_matrix(m)
        if a.shape != (k, k):
            raise ValueError(f"generator has shape {a.shape}, expected ({k}, {k})")
        mats.append(a)
    if not mats:
        return 0, []
    maps = _partial_maps(np.array(mats))
    if maps is not None:
        return _monomial_closure(*maps, k)
    return _dense_closure(mats, k)


def is_orthogonal_projection(m) -> bool:
    """True when m is Hermitian and idempotent within ``NORM_TOL``."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("is_orthogonal_projection needs a square matrix")
    return (
        operator_norm(a @ a - a) <= NORM_TOL
        and operator_norm(a - a.conj().T) <= NORM_TOL
    )


def matrices_equal(a, b, tol: float = NORM_TOL) -> bool:
    """Operator-norm equality within ``tol``; shape mismatch is inequality."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        return False
    return operator_norm(ma - mb) <= tol


# -- JSON encoding -------------------------------------------------------------


def matrix_to_json(m) -> dict:
    """Row-major [re, im] pair encoding."""
    a = as_matrix(m)
    rows, cols = a.shape
    return {
        "rows": rows,
        "cols": cols,
        "entries": np.stack((a.real.ravel(), a.imag.ravel()), 1).tolist(),
    }


def matrix_from_json(obj) -> np.ndarray:
    """Inverse of matrix_to_json; raises ValueError on malformed input."""
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        entries = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if rows < 0 or cols < 0 or len(entries) != rows * cols:
        raise ValueError(
            f"matrix JSON claims {rows}x{cols} but has {len(entries)} entries"
        )
    data = np.array(
        [complex(re, im) for re, im in entries], dtype=np.complex128
    ).reshape(rows, cols)
    return as_matrix(data)
