"""Shared harness for the Table 2 / Table 6 pruning-power jobs."""
import pandas as pd

from repro import vecdata
from repro.analysis.pruning import pruning_power_table


def run_pruning_table(
    pruner_factory,
    paper: dict,
    *,
    sf: float,
    n_queries: int,
    seed: int = 0,
) -> pd.DataFrame:
    """Measured best/p50/p25/worst per dataset, interleaved with the
    paper's numbers (rows suffixed ``_paper``)."""
    datasets = {}
    for name in vecdata.PRUNING_STUDY_DATASETS:
        ds = vecdata.generate(name, sf=sf, n_queries=n_queries, seed=seed)
        datasets[name] = (ds.data, ds.queries)
    measured = pruning_power_table(datasets, pruner_factory)
    paper_frame = pd.DataFrame(paper)[measured.columns]
    out = pd.concat(
        {"measured": measured.round(1), "paper": paper_frame}, names=["source"]
    )
    return out.swaplevel().sort_index(level=0, sort_remaining=False).loc[
        ["best", "p50", "p25", "worst"]
    ]
