"""Distance kernels on the three layouts the paper compares (§3, §6.2).

The paper's kernels are C++ scalar loops that LLVM auto-vectorizes. Here
NumPy ufunc/einsum loops play the role of the compiled SIMD loops; the
*layout-driven loop shape* — what the paper actually measures — is
preserved:

- **N-ary (horizontal)**: each vector's D values are contiguous; the
  kernel reduces along each vector (one reduction per vector, inner loop
  length = D). This is the FAISS/SimSIMD-style baseline.
- **PDX (blocked vertical)**: vectors are grouped in blocks of ``B``;
  within a block each dimension's ``B`` values are contiguous. The kernel
  accumulates dimension-by-dimension into a ``B``-wide distances array
  (inner loop length = B, independent of D, no per-vector reduction) —
  Algorithm 1 of the paper.
- **DSM (fully decomposed)**: one array per dimension over the *whole*
  collection; accumulation streams an N-wide distances array D times
  (the extra LOAD/STOREs the paper blames for DSM losing to PDX, §7).

All kernels take float32 C-contiguous inputs and return float (squared
L2, L1, or inner product — raw, not negated).
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np

#: Paper default: 64 vectors per PDX block (§3, Table 5).
PDX_BLOCK_SIZE = 64


# --------------------------------------------------------------------------
# N-ary (horizontal) kernels — the "explicit SIMD on horizontal layout"
# baseline. One reduction per vector, along axis 1.
# --------------------------------------------------------------------------

def l2_nary(data: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance of ``query`` to every row of ``data``."""
    diff = data - query
    return np.einsum("nd,nd->n", diff, diff)


def l1_nary(data: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Manhattan distance to every row of ``data``."""
    return np.abs(data - query).sum(axis=1)


def ip_nary(data: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Inner product of ``query`` with every row of ``data``."""
    return np.einsum("nd,d->n", data, query)


# --------------------------------------------------------------------------
# PDX kernels. A PDX-stacked collection is a (nblocks, D, B) C-contiguous
# array: block-major, then dimension-major inside the block (see
# repro.core.layout). The reduction runs over the middle (dimension) axis
# with a contiguous B-wide inner loop — Algorithm 1 vectorized over the
# block, with no per-vector reduction step.
# --------------------------------------------------------------------------

def l2_pdx(stacked: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Squared L2 over a PDX-stacked collection; returns (nblocks*B,)."""
    diff = stacked - query[None, :, None]
    return np.einsum("kdb,kdb->kb", diff, diff).ravel()


def l1_pdx(stacked: np.ndarray, query: np.ndarray) -> np.ndarray:
    diff = stacked - query[None, :, None]
    return np.abs(diff).sum(axis=1).ravel()


def ip_pdx(stacked: np.ndarray, query: np.ndarray) -> np.ndarray:
    return np.einsum("kdb,d->kb", stacked, query).ravel()


# --------------------------------------------------------------------------
# DSM kernel: data_dm is (D, N) C-contiguous (one full dimension per row).
# The accumulator is N-wide, re-streamed once per dimension.
# --------------------------------------------------------------------------

def l2_dsm(data_dm: np.ndarray, query: np.ndarray) -> np.ndarray:
    d, n = data_dm.shape
    acc = np.zeros(n, dtype=np.float32)
    for i in range(d):
        diff = data_dm[i] - query[i]
        acc += diff * diff
    return acc


# --------------------------------------------------------------------------
# Partial / resumable kernels — the PDXearch workhorses. They *accumulate*
# into a caller-owned distances array over a dimension range (WARMUP) or
# over an explicit positions array (PRUNE phase break-off).
# ``block`` is a single (D, B) C-contiguous PDX block.
# --------------------------------------------------------------------------

#: float32 values in one kernel pass's temporary (256 KB). A pass over a
#: wide block then stays in a core's L2 cache instead of streaming a
#: block-sized temporary (2.4 MB at 960 dims × 625 vectors) through
#: memory, and no large buffer goes back to the heap per block.
PASS_VALUES = 1 << 16


def l2_accumulate(
    block: np.ndarray,
    query: np.ndarray,
    dists: np.ndarray,
    dim_idx: np.ndarray | range,
    positions: np.ndarray | None = None,
) -> None:
    """Add the squared-L2 contribution of dimensions ``dim_idx``.

    ``dim_idx`` is an array of dimension indices (PDX-BOND visits them in
    query-aware order) or a ``range`` of contiguous dimensions, which is
    sliced instead of gathered (ADSampling/BSA steps, linear scans). When
    ``positions`` is given, only those vector slots are updated (PRUNE
    phase); otherwise all B slots are (WARMUP phase — no break-off).
    Dimensions are taken in passes of at most ``PASS_VALUES`` values.
    """
    width = block.shape[1] if positions is None else len(positions)
    rows = max(1, PASS_VALUES // max(1, width))
    for start in range(0, len(dim_idx), rows):
        dims = dim_idx[start : start + rows]
        if isinstance(dims, range):
            sl = slice(dims.start, dims.stop, dims.step)
            sub = block[sl] if positions is None else block[sl, positions]
            # C order: ``block[sl, positions]`` comes out column-major, and
            # einsum would then sum in another order than for the gathered form.
            diff = np.subtract(sub, query[sl][:, None], order="C")
        else:
            # A gather is a fresh C-ordered copy, so the query is subtracted
            # in place. PRUNE phase: gather only (dims × positions), as one
            # flat take of the C-contiguous block (cheaper than 2-D fancy indexing).
            if positions is None:
                diff = block.take(dims, axis=0)
            else:
                diff = block.reshape(-1).take(dims[:, None] * block.shape[1] + positions)
            np.subtract(diff, query[dims][:, None], out=diff)
        if positions is None:
            dists += np.einsum("db,db->b", diff, diff)
        else:
            dists[positions] += np.einsum("db,db->b", diff, diff)


# --------------------------------------------------------------------------
# Certified full scan. One float32 matrix-vector product (BLAS sgemv) per
# (D, n) unit scores every vector of a scan by norm expansion; one
# worst-case error bound over the whole scan turns the scores into one
# candidate set, which the caller re-ranks with the einsum kernel. FAISS
# scores query batches the same way (``exhaustive_L2sqr_blas``).
# --------------------------------------------------------------------------

def _gamma(m: int, unit_roundoff: float) -> float:
    """Higham's γ_m = m·u / (1 − m·u): the relative error bound of m
    chained roundings (*Accuracy and Stability of Numerical Algorithms*,
    §3.1)."""
    return m * unit_roundoff / (1.0 - m * unit_roundoff)


_U32, _U64 = 2.0**-24, 2.0**-53
_F32_MAX = float(np.finfo(np.float32).max)


def squared_norms(rows: np.ndarray) -> np.ndarray:
    """float64 ‖x‖² of every row of an (n, D) float32 array.

    Each product of two float32 values is exact in float64; einsum casts
    in small buffers, so no float64 copy of ``rows`` is made.
    """
    return np.einsum("nd,nd->n", rows, rows, dtype=np.float64)


def l2_candidates(
    units: Sequence[np.ndarray], norms: Sequence[np.ndarray], query: np.ndarray, k: int
) -> np.ndarray:
    """Positions, into the concatenation of the (D, nᵢ) ``units``, of the
    vectors that may hold one of the scan's ``k`` smallest squared-L2
    distances to ``query``; ``norms`` are the units' :func:`squared_norms`.

    Each distance is estimated as ``est = ‖x‖² − 2·(q @ data) + ‖q‖²``
    from one float32 sgemv per unit, in float64, and bounded by
    ``est ± err``:

    - for D values a float32 dot product is off by at most
      γ_D·|q|ᵀ|x| ≤ γ_D·‖q‖·‖x‖, in any summation order;
    - the float64 norms and the sums below add at most γ_{D+64}·(‖x‖² + ‖q‖²);
    - underflow adds at most 2⁻¹⁴⁹ per product; where ‖x‖·‖q‖ could
      overflow float32, every position is kept.

    The bounds then widen by the relative error γ_{2D+3} of the float32
    einsum re-rank (a subtraction, a product, and at most 2D additions over
    its passes), so they bound the distances the caller returns. Position
    i is kept when its lower bound is at most the k-th smallest upper
    bound: any other vector is farther than k vectors of the scan,
    whatever the ties.

    The units form one scan with one k-th upper bound, because no term
    depends on the unit a vector sits in: γ_D bounds each dot product of
    D values whichever sgemv computes it, the underflow term is per
    product, and ‖q‖² is the same for all. The overflow guard takes the
    largest norm of all units, so once it passes no unit's sgemv can
    overflow.
    """
    n = sum(data.shape[1] for data in units)
    if n <= k:
        return np.arange(n)
    dim = len(query)
    norms = np.concatenate(norms)
    q64 = query.astype(np.float64)
    qn = float(q64 @ q64)
    if qn * norms.max() > _F32_MAX**2 / 4:
        return np.arange(n)  # a float32 sgemv may overflow: no cut
    g, rerank = _gamma(dim + 64, _U64), _gamma(2 * dim + 3, _U32)
    tiny = dim * 2.0**-147  # underflow, with room to spare
    spread = np.sqrt(norms)
    spread *= 2.0 * _gamma(dim, _U32) * np.sqrt(qn)
    dot2 = np.multiply(np.concatenate([query @ data for data in units]), -2.0, dtype=np.float64)
    # hi, lo = est ± err less the terms all positions share, (1 ± g)·‖q‖² ± tiny
    hi = norms * (1.0 + g)
    hi += dot2
    hi += spread
    lo = norms * (1.0 - g)
    lo += dot2
    lo -= spread
    hi.partition(k - 1)
    upper = (hi[k - 1] + (1.0 + g) * qn + tiny) * (1.0 + rerank) + tiny
    # lower(i) = (lo[i] + (1 − g)·‖q‖² − tiny)·(1 − rerank) − tiny ≤ upper,
    # solved for lo[i], with room for the rounding of these few scalars.
    cut = (upper + tiny) / (1.0 - rerank) + tiny - (1.0 - g) * qn
    return np.flatnonzero(lo <= cut + 16 * _U64 * (abs(upper) + qn))


def l2_cumulative(block: np.ndarray, query: np.ndarray, dim_idx: np.ndarray) -> np.ndarray:
    """Prefix partial distances: out[j] = Σ_{i≤j} (v[dim_idx_i] − q[dim_idx_i])².

    Used by the Δd=1 pruning-power traces (Tables 2 and 6): one cumsum
    gives the partial distance of every vector after *every* dimension,
    so the first-pruned dimension can be found analytically instead of
    looping the search dimension-at-a-time.
    """
    diff = block[dim_idx] - query[dim_idx, None]
    return np.cumsum(diff * diff, axis=0)


METRICS_NARY = {"l2": l2_nary, "l1": l1_nary, "ip": ip_nary}
METRICS_PDX = {"l2": l2_pdx, "l1": l1_pdx, "ip": ip_pdx}
