"""Dense complex matrix helpers and the span-closure engine.

Matrices are numpy ``complex128`` arrays throughout, and norms and ranks
go through direct SVDs.  Representations are stored as weighted partial
maps (``reps``); these helpers serve the dense matrices read from them.

``span_closure_dim`` computes the linear dimension of the (non-unital)
algebra generated by a finite set S of k×k matrices — the workhorse behind
the irreducibility and nest-density certificates.  It closes span(S) under
left multiplication by an orthonormal basis of span(S), which needs
dim·|S| products rather than dim².  Generator sets whose singular values
span more than 1/``RANK_TOL`` get tolerance-dependent ranks.

The two tolerances are fixed.  The package's representations send each
basis vector to ½ or 1 times another, so a relation residual is an exact
number such as 0, 0.25, 0.75 or 1: any threshold between rounding error and
0.25 gives the same verdicts, and a larger one only wrong ones.
"""

from __future__ import annotations

import numpy as np

#: Rank threshold, relative to the largest singular value.
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


def span_closure_dim(gens, dim: int):
    """Dimension of the smallest multiplicatively closed subspace of k×k
    matrices containing ``gens`` (the non-unital generated algebra), plus an
    orthonormal basis of it.

    The generated algebra A of S satisfies A = span(S) + S·A, so it is the
    smallest subspace containing span(S) and closed under left
    multiplication by an orthonormal basis B₀ of span(S).  Each round
    multiplies only the directions new since the last round by B₀, keeps
    the residual directions off the basis with singular value above
    ``RANK_TOL`` (B₀ and the basis are orthonormal, so the products are
    scale-free), and re-orthonormalizes them: r·|B₀| products for a
    dimension-r algebra, capped at k².  When the singular values of the
    generators span more than 1/``RANK_TOL``, the rank decisions, and so the
    dimension, depend on the tolerance.
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
