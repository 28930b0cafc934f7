"""Exp-5 — label analysis: Figure 9, Table 4 and Figure 10.

* Figure 9: |L^c| vs |L^nc| (recorded in extra_info; the non-canonical
  part carries most of the counting information).
* Table 4: percentiles of spc / spc_approx when counting from L^c alone —
  benchmarked as the canonical-only query cost, with the ratio rows
  asserted to match the paper's shape (exact at the 40th percentile,
  heavy right tail).
* Figure 10: the |L(v)| distribution must be concentrated (stable query
  cost across vertices).
"""

import pytest

from benchmarks.conftest import run_queries
from repro.core.index import SPCIndex
from repro.core.query import count_canonical_only
from repro.utils.stats import percentile

INF = float("inf")


@pytest.fixture(scope="module")
def plain_indexes(datasets):
    return {
        notation: SPCIndex.build(graph, ordering="significant-path")
        for notation, graph in datasets.items()
    }


@pytest.mark.parametrize(
    "notation",
    ["FB", "GW", "WI", "GO", "DB", "BE", "YT", "PE", "FL", "IN"],
)
def test_figure9_label_mass(benchmark, plain_indexes, workloads, notation):
    index = plain_indexes[notation]
    labels = index.labels
    benchmark.extra_info["canonical"] = labels.canonical_size()
    benchmark.extra_info["noncanonical"] = labels.noncanonical_size()
    benchmark.extra_info["nc_over_c"] = labels.noncanonical_size() / max(
        1, labels.canonical_size()
    )
    benchmark(run_queries, index, workloads[notation])


@pytest.mark.parametrize("notation", ["FB", "GO", "YT", "IN"])
def test_table4_canonical_only_queries(benchmark, plain_indexes, workloads, notation):
    labels = plain_indexes[notation].labels
    pairs = workloads[notation]

    def canonical_only_batch():
        for s, t in pairs:
            count_canonical_only(labels, s, t)

    benchmark(canonical_only_batch)


@pytest.mark.parametrize(
    "notation",
    ["FB", "GW", "WI", "GO", "DB", "BE", "YT", "PE", "FL", "IN"],
)
def test_table4_ratio_shape(plain_indexes, workloads, notation):
    index = plain_indexes[notation]
    labels = index.labels
    ratios = []
    for s, t in workloads[notation]:
        _, exact = index.count_with_distance(s, t)
        if exact == 0:
            continue
        approx = count_canonical_only(labels, s, t)[1]
        ratios.append(exact / approx)
    p40 = percentile(ratios, 40)
    p90 = percentile(ratios, 90)
    assert p40 <= 1.25, "40th percentile should be (near) exact"
    assert p90 >= p40
    assert max(ratios) >= p90
    assert all(r >= 1.0 - 1e-12 for r in ratios), "L^c alone never overcounts"


@pytest.mark.parametrize(
    "notation",
    ["FB", "GW", "WI", "GO", "DB", "BE", "YT", "PE", "FL", "IN"],
)
def test_figure10_label_size_concentration(plain_indexes, notation):
    sizes = plain_indexes[notation].labels.size_histogram()
    p25 = percentile(sizes, 25)
    p75 = percentile(sizes, 75)
    # Inter-quartile spread within a small factor: stable query cost.
    assert p75 <= 6 * max(1.0, p25)
