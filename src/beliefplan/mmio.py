"""Matrix Market coordinate-format interchange.

Writers emit 17 significant digits so float64 values round-trip exactly,
which keeps externally cross-checked determinants bit-comparable.
Symmetric matrices use the ``symmetric`` qualifier (entries stored in the
lower triangle, per the format convention); factors and constraint-row
blocks use ``general``.
"""

from __future__ import annotations

import numpy as np

from .sparse import SparseRowBlock, SparseSymmetric, UpperTriangular

_HEADER = "%%MatrixMarket matrix coordinate real {symmetry}"


def _format_entries(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> list[str]:
    return [f"{i + 1} {j + 1} {v:.17g}" for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist())]


def _int64(tokens) -> np.ndarray:
    try:
        return np.array(tokens, dtype=np.int64)
    except OverflowError as e:
        raise ValueError(f"index does not fit a 64-bit integer: {e}") from e


def _parse(text: str, expect_symmetry: str):
    """Header sizes plus zero-based coordinate arrays of the entries."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ValueError("missing MatrixMarket header")
    header = lines[0].split()
    if len(header) < 5 or header[1:4] != ["matrix", "coordinate", "real"]:
        raise ValueError(f"unsupported MatrixMarket header: {lines[0]}")
    if header[4] != expect_symmetry:
        raise ValueError(f"expected {expect_symmetry} matrix, found {header[4]}")
    body = [ln for ln in lines[1:] if ln.strip() and not ln.lstrip().startswith("%")]
    if not body:
        raise ValueError("missing MatrixMarket size line")
    n_rows, n_cols, nnz = _int64(body[0].split()).tolist()
    if len(body) - 1 != nnz:
        raise ValueError(f"declared {nnz} entries, found {len(body) - 1}")
    tokens = " ".join(body[1:]).split()
    if len(tokens) != 3 * nnz:
        raise ValueError("each entry needs a row, a column and a value")
    rows = _int64(tokens[0::3]) - 1
    cols = _int64(tokens[1::3]) - 1
    vals = np.array(tokens[2::3], dtype=np.float64)
    if nnz and (rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_cols):
        raise ValueError("entry coordinates out of range")
    return n_rows, n_cols, rows, cols, vals


def symmetric_to_mm(m: SparseSymmetric) -> str:
    lines = [_HEADER.format(symmetry="symmetric"), f"{m.dim} {m.dim} {m.nnz}"]
    # stored upper triangle flips to the lower triangle the format expects
    lines += _format_entries(m.cols, m.rows, m.vals)
    return "\n".join(lines) + "\n"


def mm_to_symmetric(text: str) -> SparseSymmetric:
    n_rows, n_cols, rows, cols, vals = _parse(text, "symmetric")
    if n_rows != n_cols:
        raise ValueError("symmetric matrix must be square")
    lo = np.minimum(rows, cols)
    hi = np.maximum(rows, cols)
    return SparseSymmetric(n_rows, lo, hi, vals)


def triangular_to_mm(r: UpperTriangular) -> str:
    return row_block_to_mm(r.as_row_block())


def mm_to_triangular(text: str) -> UpperTriangular:
    u = mm_to_row_block(text)
    if u.n_rows != u.n_cols:
        raise ValueError("triangular factor must be square")
    if np.any(u.indices < u.row_ids):
        raise ValueError("factor entry below the diagonal")
    on_diag = u.indices == u.row_ids
    diag = np.zeros(u.n_rows)
    diag[u.row_ids[on_diag]] = u.data[on_diag]
    off = ~on_diag
    return UpperTriangular(
        diag, SparseRowBlock.from_coo(u.n_rows, u.n_cols, u.row_ids[off], u.indices[off], u.data[off])
    )


def row_block_to_mm(u: SparseRowBlock) -> str:
    lines = [_HEADER.format(symmetry="general"), f"{u.n_rows} {u.n_cols} {u.nnz}"]
    lines += _format_entries(u.row_ids, u.indices, u.data)
    return "\n".join(lines) + "\n"


def mm_to_row_block(text: str) -> SparseRowBlock:
    return SparseRowBlock.from_coo(*_parse(text, "general"))
