"""The paper's published numbers, transcribed from the evaluation
section, so each job can print *paper vs measured* side by side and
EXPERIMENTS.md can be regenerated mechanically.

Sources: Table 2 (§2.4), Table 4/5 (§6.2), Table 6 (§6.4), Table 7
(§6.4). Table 1 lives in ``repro.vecdata.DATASETS``; Table 3 is the
paper's hardware inventory (documented as an environment substitution
in EXPERIMENTS.md, nothing to measure).
"""

#: The paper's K, the neighbours each query asks for, in Tables 2, 6 and 7.
K = 10

#: Table 2 — ADSampling pruning power (%), Δd=1, K=10.
TABLE2_ADS_PRUNING = {
    "gist960": {"best": 99.7, "p50": 97.3, "p25": 96.3, "worst": 90.9},
    "msong420": {"best": 99.5, "p50": 98.2, "p25": 97.6, "worst": 92.7},
    "nytimes16": {"best": 89.7, "p50": 67.4, "p25": 61.9, "worst": 27.9},
    "glove50": {"best": 97.2, "p50": 79.5, "p25": 70.4, "worst": 1.4},
    "deep96": {"best": 98.7, "p50": 92.8, "p25": 90.0, "worst": 67.4},
    "contriever768": {"best": 98.6, "p50": 91.9, "p25": 88.8, "worst": 69.3},
    "openai1536": {"best": 99.5, "p50": 96.9, "p25": 95.9, "worst": 90.5},
    "sift128": {"best": 99.0, "p50": 94.9, "p25": 93.3, "worst": 76.8},
}

#: Table 4 — speedup of PDX vs horizontal SIMD kernels; the paper's
#: per-architecture rows plus the average row we compare against.
TABLE4_KERNEL_SPEEDUP = {
    "intel_sr": {
        "l2": {"D=8": 5.8, "D=16,32": 2.4, "D>32": 1.3, "All": 1.8},
        "ip": {"D=8": 5.6, "D=16,32": 2.4, "D>32": 1.2, "All": 1.7},
        "l1": {"D=8": 5.3, "D=16,32": 2.5, "D>32": 1.2, "All": 1.7},
    },
    "zen4": {
        "l2": {"D=8": 7.4, "D=16,32": 2.7, "D>32": 1.4, "All": 2.0},
        "ip": {"D=8": 6.6, "D=16,32": 2.5, "D>32": 1.4, "All": 2.0},
        "l1": {"D=8": 6.7, "D=16,32": 2.8, "D>32": 1.4, "All": 2.0},
    },
    "zen3": {
        "l2": {"D=8": 6.2, "D=16,32": 3.3, "D>32": 1.7, "All": 2.3},
        "ip": {"D=8": 5.9, "D=16,32": 3.1, "D>32": 1.5, "All": 2.1},
        "l1": {"D=8": 7.4, "D=16,32": 3.5, "D>32": 1.4, "All": 2.2},
    },
    "graviton4": {
        "l2": {"D=8": 2.7, "D=16,32": 1.5, "D>32": 1.8, "All": 1.8},
        "ip": {"D=8": 3.1, "D=16,32": 1.8, "D>32": 1.9, "All": 2.0},
        "l1": {"D=8": 2.6, "D=16,32": 1.5, "D>32": 1.9, "All": 1.9},
    },
    "avg": {
        "l2": {"D=8": 5.5, "D=16,32": 2.5, "D>32": 1.5, "All": 2.0},
        "ip": {"D=8": 5.3, "D=16,32": 2.4, "D>32": 1.5, "All": 2.0},
        "l1": {"D=8": 5.5, "D=16,32": 2.6, "D>32": 1.5, "All": 2.0},
    },
}

#: Table 5 — average L2 speedup per PDX block size.
TABLE5_BLOCKSIZE = {
    "intel_sr": {16: 1.5, 32: 1.6, 64: 1.8, 128: 1.8, 256: 1.7, 512: 1.6},
    "zen4": {16: 1.6, 32: 1.9, 64: 2.0, 128: 2.0, 256: 1.8, 512: 1.5},
    "zen3": {16: 1.7, 32: 2.2, 64: 2.3, 128: 2.0, 256: 1.5, 512: 1.6},
    "graviton4": {16: 1.6, 32: 1.7, 64: 1.8, 128: 1.5, 256: 1.4, 512: 1.4},
}

#: Table 6 — PDX-BOND pruning power (%), Δd=1.
TABLE6_BOND_PRUNING = {
    "gist960": {"best": 97.6, "p50": 78.2, "p25": 75.1, "worst": 69.5},
    "msong420": {"best": 98.3, "p50": 90.2, "p25": 88.9, "worst": 82.3},
    "nytimes16": {"best": 89.9, "p50": 81.4, "p25": 79.9, "worst": 73.4},
    "glove50": {"best": 97.1, "p50": 82.4, "p25": 79.6, "worst": 68.3},
    "deep96": {"best": 98.8, "p50": 89.3, "p25": 85.7, "worst": 70.8},
    "contriever768": {"best": 84.0, "p50": 62.2, "p25": 58.8, "worst": 49.4},
    "openai1536": {"best": 94.6, "p50": 66.0, "p25": 62.3, "worst": 53.6},
    "sift128": {"best": 98.0, "p50": 91.3, "p25": 89.0, "worst": 75.7},
}

#: Table 7 — IVF query runtime breakdown, OpenAI/1536, ≈0.95 recall,
#: Intel. (total_ms, %distance, %find_buckets, %bounds, %query_prep).
TABLE7_BREAKDOWN = {
    "N-ary ADS": {
        "query_time_ms": 17.9,
        "distance_pct": 64.8,
        "find_buckets_pct": 6.8,
        "bounds_pct": 26.3,
        "query_prep_pct": 2.2,
    },
    "PDX ADS": {
        "query_time_ms": 4.9,
        "distance_pct": 73.2,
        "find_buckets_pct": 18.5,
        "bounds_pct": 1.9,
        "query_prep_pct": 6.45,
    },
    "N-ary BSA": {
        "query_time_ms": 25.5,
        "distance_pct": 76.5,
        "find_buckets_pct": 4.5,
        "bounds_pct": 17.6,
        "query_prep_pct": 1.5,
    },
    "PDX BSA": {
        "query_time_ms": 3.9,
        "distance_pct": 70.1,
        "find_buckets_pct": 17.7,
        "bounds_pct": 5.9,
        "query_prep_pct": 6.4,
    },
    "PDX BOND": {
        "query_time_ms": 11.0,
        "distance_pct": 91.9,
        "find_buckets_pct": 7.0,
        "bounds_pct": 1.0,
        "query_prep_pct": 0.03,
    },
}
