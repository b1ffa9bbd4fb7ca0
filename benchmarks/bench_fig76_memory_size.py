"""Figure 7.6 -- search time vs memory size.

Simulated search time for Top-1/10/50 queries as an LRU page pool grows
from 10% to 100% of the index that serves: the compiled membership CSR
(``ColumnarTree.member_indices``, entities in MinSigTree leaf order -- the
bytes a worker maps from ``columnar.npz``) cut into 4 KiB pages.  Each query
runs once through the oracle ``reference_search`` (Algorithm 2's
fetch-on-visit); the pages of every scored entity's row form one trace,
replayed at each memory fraction at 4.0 ms a miss and 0.01 ms a hit.  The
paper's shape to reproduce: search time decreases as the memory fraction
grows.  What the serving kernel itself reads per query (every page) is in
docs/PERFORMANCE.md, "What one query reads".
"""

from repro.experiments import figures


def test_figure_7_6_search_time_vs_memory(record_figure):
    result = record_figure(figures.figure_7_6)
    for dataset in ("SYN", "REAL(wifi)"):
        for k in {row["k"] for row in result.rows}:
            series = sorted(
                result.filter(dataset=dataset, k=k).rows, key=lambda r: r["memory_fraction"]
            )
            times = [row["simulated_ms"] for row in series]
            assert times[-1] <= times[0]
