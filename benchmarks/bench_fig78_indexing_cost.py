"""Figure 7.8 -- indexing cost.

Index construction time and MinSigTree size over the hash-function sweep on
both datasets.  The paper's shapes to reproduce: construction time grows
roughly linearly with n_h, and the index size grows with n_h but stays small
relative to the data.
"""

from repro.experiments import figures


def test_figure_7_8_indexing_cost(record_figure):
    result = record_figure(figures.figure_7_8)
    for dataset in ("SYN", "REAL(wifi)"):
        series = sorted(result.filter(dataset=dataset).rows, key=lambda r: r["num_hashes"])
        times = [row["indexing_seconds"] for row in series]
        sizes = [row["index_bytes"] for row in series]
        assert times[-1] >= times[0]
        # The node count (hence size) is data dependent and can dip slightly
        # at small scale; require it to stay positive and of stable magnitude.
        assert all(size > 0 for size in sizes)
        assert max(sizes) <= 4 * min(sizes)
