"""The benchmark's metric tables; BENCHMARK.json lists the same names.

END_TO_END metrics are in the result of every untraced run, PER_LAYER
metrics in the result of every traced run. `cell_ms_p90` and
`cells_failed_frac` are printed as report lines only (see README.md).
"""

from gen import GRAPH_ENTRIES

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("cells_per_s", "cells/s", "higher", 0.25),
    ("sim_msgs_per_s", "msgs/s", "higher", 0.25),
    ("cell_ms_p50", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
]

# The message-passing registry entries; lower-bound-gn sends no messages,
# so it has no per-message figure (its time is in protocol.exec_ms).
PROTOCOLS = GRAPH_ENTRIES

# name, unit, better
PER_LAYER = [
    ("graph.build_ms", "ms", "lower"),
    ("graph.edges_per_s", "edges/s", "higher"),
    ("graph.words_per_edge", "words/edge", "lower"),
    ("params.compute_ms", "ms", "lower"),
    ("params.sources_per_s", "sources/s", "higher"),
    ("params.pool_busy_frac", "frac", "higher"),
    ("engine.noop_ns_per_msg", "ns/msg", "lower"),
    ("engine.noop_words_per_msg", "words/msg", "lower"),
    ("protocol.exec_ms", "ms", "lower"),
    ("protocol.ns_per_msg", "ns/msg", "lower"),
    ("protocol.words_per_msg", "words/msg", "lower"),
] + [("protocol.%s.ns_per_msg" % p, "ns/msg", "lower") for p in PROTOCOLS] + [
    ("oracle.check_ms", "ms", "lower"),
    ("oracle.share", "frac", "lower"),
    ("transport.overhead_x", "x", "lower"),
    ("transport.wire_msgs_per_app_msg", "ratio", "lower"),
    ("transport.retx_frac", "frac", "lower"),
    ("transport.words_per_wire_msg", "words/msg", "lower"),
    ("farm.codec_us_per_cell", "us/cell", "lower"),
    ("farm.manifest_ms_per_cell", "ms/cell", "lower"),
    ("farm.overhead_ms_per_cell", "ms/cell", "lower"),
    ("cli.start_ms", "ms", "lower"),
]
