"""Matrix Market coordinate-format interchange.

Writers emit 17 significant digits so float64 values round-trip exactly,
which keeps externally cross-checked determinants bit-comparable; all
entries of a block are formatted by one ``%`` call.  Factors and
constraint-row blocks are written, and factors read back, as ``general``
matrices; no other qualifier is read.
"""

from __future__ import annotations

import numpy as np

from .sparse import SparseRowBlock, UpperTriangular

_HEADER = "%%MatrixMarket matrix coordinate real general"


def _int64(tokens) -> np.ndarray:
    try:
        return np.array(tokens, dtype=np.int64)
    except OverflowError as e:
        raise ValueError(f"index does not fit a 64-bit integer: {e}") from e


def _parse(text: str):
    """Header sizes plus zero-based coordinate arrays of the entries."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ValueError("missing MatrixMarket header")
    header = lines[0].split()
    if len(header) < 5 or header[1:4] != ["matrix", "coordinate", "real"]:
        raise ValueError(f"unsupported MatrixMarket header: {lines[0]}")
    if header[4] != "general":
        raise ValueError(f"expected general matrix, found {header[4]}")
    body = [ln for ln in lines[1:] if ln.strip() and not ln.lstrip().startswith("%")]
    if not body:
        raise ValueError("missing MatrixMarket size line")
    sizes = body[0].split()
    if len(sizes) != 3:
        raise ValueError(f"size line needs rows, columns and entries, found {body[0].strip()!r}")
    n_rows, n_cols, nnz = _int64(sizes).tolist()
    if len(body) - 1 != nnz:
        raise ValueError(f"declared {nnz} entries, found {len(body) - 1}")
    entries = body[1:]
    misaligned = next((ln for ln in entries if len(ln.split()) != 3), None)
    if misaligned is not None:
        raise ValueError(f"entry line needs a row, a column and a value, found {misaligned.strip()!r}")
    tokens = " ".join(entries).split()
    rows = _int64(tokens[0::3]) - 1
    cols = _int64(tokens[1::3]) - 1
    vals = np.array(tokens[2::3], dtype=np.float64)
    if nnz and (rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_cols):
        raise ValueError("entry coordinates out of range")
    return n_rows, n_cols, rows, cols, vals


def triangular_to_mm(r: UpperTriangular) -> str:
    return row_block_to_mm(r.as_row_block())


def mm_to_triangular(text: str) -> UpperTriangular:
    n_rows, n_cols, rows, cols, vals = _parse(text)
    # checked before anything of size n is allocated: every row of a factor
    # stores its diagonal, so a size line beyond the entry count is refused
    if n_rows != n_cols:
        raise ValueError("triangular factor must be square")
    if n_rows > rows.size:
        raise ValueError(f"a {n_rows}x{n_cols} factor needs at least {n_rows} entries, found {rows.size}")
    u = SparseRowBlock.from_coo(n_rows, n_cols, rows, cols, vals)
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
    # one-based row, column and value of every entry, interleaved for one format call
    entries = [None] * (3 * u.nnz)
    entries[0::3] = (u.row_ids + 1).tolist()
    entries[1::3] = (u.indices + 1).tolist()
    entries[2::3] = u.data.tolist()
    return f"{_HEADER}\n{u.n_rows} {u.n_cols} {u.nnz}\n" + ("%d %d %.17g\n" * u.nnz) % tuple(entries)
