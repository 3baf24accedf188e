"""Synthetic stand-ins for the paper's 10 vector datasets (Table 1).

The paper evaluates on real collections (SIFT, GIST, GloVe, …, OpenAI).
Those are not available offline, so each is replaced by a deterministic
synthetic generator that matches the two properties the paper says drive
pruning behaviour (§2.2): the *dimensionality* and the per-dimension
*distribution class* (normal vs skewed). Sizes scale with ``sf`` (scale
factor) relative to the paper's collection size, so tests run at a few
thousand vectors and benchmarks at tens of thousands.

``generate`` returns a :class:`VectorDataset` holding the collection, the
held-out query set, and the spec. ``ground_truth`` computes exact KNN
(the recall oracle). ``to_spark`` lifts a collection into a Spark
DataFrame.
"""
from __future__ import annotations

import zlib
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of one paper dataset (one Table 1 row)."""

    name: str
    semantics: str
    paper_n: int
    paper_queries: int
    dim: int
    distribution: str  # "normal" | "skewed"
    integral: bool = False  # SIFT stores uint8-ish ints


#: The 10 collections of Table 1, keyed by ``name/dim`` as the paper writes.
DATASETS: dict[str, DatasetSpec] = {
    s.name: s
    for s in [
        DatasetSpec("nytimes16", "TF-IDF Features", 290_000, 10_000, 16, "normal"),
        DatasetSpec("glove50", "Word Embeddings", 1_183_514, 10_000, 50, "normal"),
        DatasetSpec("deep96", "Image Embeddings", 9_990_000, 10_000, 96, "normal"),
        DatasetSpec("sift128", "Image Features", 1_000_000, 10_000, 128, "skewed", True),
        DatasetSpec("glove200", "Word Embeddings", 1_183_514, 10_000, 200, "normal"),
        DatasetSpec("msong420", "Audio Features", 983_185, 1_000, 420, "skewed"),
        DatasetSpec("contriever768", "Word Embeddings", 990_000, 10_000, 768, "normal"),
        DatasetSpec("arxiv768", "Text Embeddings", 2_253_000, 1_000, 768, "normal"),
        DatasetSpec("gist960", "Image Features", 1_000_000, 1_000, 960, "skewed"),
        DatasetSpec("openai1536", "Text Embeddings", 999_000, 1_000, 1536, "skewed"),
    ]
}

#: The 8 datasets used in the pruning-power studies (Tables 2 and 6).
PRUNING_STUDY_DATASETS = [
    "gist960",
    "msong420",
    "nytimes16",
    "glove50",
    "deep96",
    "contriever768",
    "openai1536",
    "sift128",
]


@dataclass(frozen=True)
class VectorDataset:
    """A generated collection plus its held-out queries."""

    spec: DatasetSpec
    data: np.ndarray  # (n, D) float32, C-contiguous
    queries: np.ndarray  # (q, D) float32

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


def _sample(spec: DatasetSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` vectors matching the spec's distribution class.

    Real embedding collections have *low intrinsic dimensionality* and
    cluster structure — that is what gives KNN queries contrast (near
    neighbours much closer than the bulk) and what makes dimension
    pruning effective (§2.3: "there is a concentration inequality on the
    distance between two vectors"). I.i.d. dimensions would be the
    degenerate worst case (all pairwise distances equal), so vectors are
    generated from a clustered low-rank latent model:

        x = center[c] + z·W + ε,   z ∈ R^r,  r ≪ D,

    with per-dimension output scales/offsets (gives the query-aware
    orderings signal). The skewed class additionally maps coordinates
    through exp(0.6·x) — a monotone map that keeps the cluster geometry
    (so skewed datasets stay *easy* to prune, as in the paper) while
    producing lognormal-style heavy right tails per dimension; the
    normal class stays Gaussian per dimension.
    """
    d = spec.dim
    r = max(4, d // 16)  # intrinsic dimensionality
    # 64 moderately overlapping clusters: enough structure for pruning
    # to bite (neighbours clearly closer than the bulk) while keeping
    # the IVF task non-degenerate (a query's neighbours spread over
    # several buckets, so recall genuinely rises with nprobe).
    n_clusters = 64
    # Dataset-level parameters (drawn once per dataset; constant across
    # sf because the caller seeds rng by dataset name + seed only).
    w = rng.normal(0.0, 1.0, size=(r, d)) / np.sqrt(r)
    centers_latent = rng.normal(0.0, 2.0, size=(n_clusters, r))
    dim_scale = rng.uniform(0.5, 2.0, size=d)
    dim_shift = rng.normal(0.0, 1.0, size=d)
    # Per-vector: cluster + latent jitter + small ambient noise.
    c = rng.integers(0, n_clusters, size=n)
    z = centers_latent[c] + rng.normal(0.0, 1.4, size=(n, r))
    x = z @ w + rng.normal(0.0, 0.15, size=(n, d))
    if spec.distribution == "skewed":
        x = np.exp(0.6 * x)
    x = x * dim_scale + (dim_shift if spec.distribution == "normal" else 0.0)
    if spec.integral:
        x = np.floor(np.clip(x * 30.0, 0, 255))
    return np.ascontiguousarray(x, dtype=np.float32)


def generate(
    name: str, *, sf: float = 0.002, n_queries: int | None = None, seed: int = 0
) -> VectorDataset:
    """Generate the stand-in for dataset ``name`` at scale factor ``sf``.

    ``sf`` scales the paper's collection size (sf=1.0 would be the full
    paper size; the default 0.002 gives a few thousand vectors). Queries
    are drawn from the same distribution but are held out of the
    collection. Deterministic in ``(name, sf, seed)`` in every process:
    the generator is seeded from a CRC-32 of the name and ``seed``.
    """
    spec = DATASETS[name]
    n = max(256, int(spec.paper_n * sf))
    q = n_queries if n_queries is not None else max(10, min(100, int(spec.paper_queries * sf)))
    rng = np.random.default_rng([zlib.crc32(name.encode()), seed])
    all_rows = _sample(spec, n + q, rng)
    return VectorDataset(spec=spec, data=all_rows[:n], queries=all_rows[n:])


def random_collection(n: int, dim: int, *, seed: int = 0) -> np.ndarray:
    """Standard-normal random float32 collection — the Table 4/5 kernel
    microbenchmark input ("randomly generated float32", §6.2)."""
    rng = np.random.default_rng(seed)
    return np.ascontiguousarray(rng.standard_normal((n, dim)), dtype=np.float32)


def ground_truth(
    data: np.ndarray, queries: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact KNN ids and distances, the recall oracle.

    Returns ``(ids, dists)`` of shape (q, k); dists are squared Euclidean
    (the paper's δ).
    """
    x = data.astype(np.float64)
    qs = queries.astype(np.float64)
    d2 = (
        (x * x).sum(axis=1)[None, :]
        - 2.0 * qs @ x.T
        + (qs * qs).sum(axis=1)[:, None]
    )
    ids = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return ids, np.take_along_axis(d2, ids, axis=1)


def recall_at_k(found_ids: Sequence[np.ndarray] | np.ndarray, true_ids: np.ndarray) -> float:
    """Mean |R ∩ R̂| / k over the query set (paper §2.1).

    ``found_ids`` holds one id sequence per query and may be ragged: a
    search whose probed buckets hold fewer than k vectors returns fewer
    than k ids, and the missing ones count as misses.
    """
    true_ids = np.asarray(true_ids)
    k = true_ids.shape[1]
    if len(found_ids) != len(true_ids):
        raise ValueError(f"{len(found_ids)} results for {len(true_ids)} queries")
    hits = []
    for f, t in zip(found_ids, true_ids):
        f = np.asarray(f).tolist()
        if len(f) > k:
            raise ValueError(f"{len(f)} ids found for k={k}")
        hits.append(len(set(f) & set(t.tolist())))
    return float(np.mean(hits) / k)


def to_spark(spark: SparkSession, data: np.ndarray) -> DataFrame:
    """Lift a collection to a DataFrame of ``(id: long, vec: array<float>)``."""
    # Python floats of float32 values: Spark takes them with or without
    # Arrow, and Arrow converts them faster than NumPy scalars.
    pdf = pd.DataFrame(
        {"id": np.arange(len(data), dtype=np.int64), "vec": np.asarray(data, np.float32).tolist()}
    )
    return spark.createDataFrame(pdf, schema="id long, vec array<float>")

