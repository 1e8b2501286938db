"""Exact cycle statistics of breakpoint graphs and the distances they bound.

The package computes, with exact arithmetic throughout:

- the number of unsigned and signed permutations of n elements whose
  breakpoint graph decomposes into k alternating cycles, by closed formulas
  and by exhaustive census;
- exact means and variances of those cycle counts;
- rearrangement distances that are functions of the cycle count
  (block interchange, double cut-and-join), cycle-based lower bounds on
  NP-hard distances, and small-n exact distances by BFS.

See the ``hultman`` console script for the command-line interface.
"""

# The package imports its layers eagerly.  A lazy package (PEP 562) would
# save about 10 ms on each `table` or `moments` launch, but
# perfbench/layers.py reads exactmath, perm, bpgraph, hultman, census and
# distances from sys.modules after `import bghultman.cli`, and its kernel
# timings fail when one of them is not loaded yet.  verify and the golden
# table it reads are the exception: only `hultman verify` imports them.

from .bpgraph import (
    Configuration,
    breakpoint_graph,
    cycle_profile,
    is_valid_breakpoint_graph,
    recover_permutation,
)
from .census import (
    DistributionTable,
    hultman_census,
    matching_census,
    moments_from_table,
    odd_hultman_census,
    signed_hultman_census,
)
from .distances import (
    bfs_distances,
    compare_to_shifted,
    distance_distribution,
    metric_value,
)
from .exactmath import Polynomial
from .hultman import (
    HookPartition,
    MomentPair,
    hultman_bona_flynn,
    hultman_new_formula,
    signed_hultman,
    signed_moments,
    unsigned_moments,
)
from .perm import SignedPermutation, compose, enumerate_signed, enumerate_unsigned, inverse, validate

__version__ = "0.1.0"
