#pragma once
// Unit-level weighted graph for the partitioning pipeline.
//
// A "unit" is whatever the current level of the pipeline moves atomically:
// a node-group (the colocation constraint of Section 6.1) at the finest
// level, or a super-group produced by heavy-edge-matching coarsening in the
// multilevel V-cycle. The graph is a build-once CSR over symmetric weights
// (bytes exchanged either way between the units), with per-unit physical
// node counts so cluster-size caps survive contraction.

#include <array>
#include <cstdint>
#include <vector>

#include "clustering/comm_graph.hpp"

namespace spbc::clustering {

struct GroupGraph {
  int n = 0;
  std::vector<size_t> row_ptr;    // n + 1
  std::vector<int> adj;           // neighbor unit ids, sorted per row
  std::vector<uint64_t> w;        // symmetric weight per adjacency entry
  std::vector<int> node_size;     // physical nodes contained in each unit

  int degree(int u) const {
    return static_cast<int>(row_ptr[static_cast<size_t>(u) + 1] -
                            row_ptr[static_cast<size_t>(u)]);
  }
  size_t begin(int u) const { return row_ptr[static_cast<size_t>(u)]; }
  size_t end(int u) const { return row_ptr[static_cast<size_t>(u) + 1]; }

  int total_nodes() const;

  /// Builds the CSR from (a, b, weight) triples (a != b, both orders or one —
  /// duplicates merge). `node_size` sizes the units.
  static GroupGraph from_triples(int nunits, std::vector<int> node_size,
                                 std::vector<std::array<uint64_t, 3>>&& triples);

  /// Aggregates the rank-level graph to units: every inter-unit rank edge
  /// lands on its unit pair with its symmetric weight. O(E log E).
  static GroupGraph from_ranks(const CommGraph& graph,
                               const std::vector<int>& unit_of_rank, int nunits,
                               std::vector<int> node_size);

  /// One level of heavy-edge-matching coarsening: visits units in index
  /// order, matches each unmatched unit with its heaviest unmatched neighbor
  /// whose combined node count stays within `node_cap` (ties -> smallest
  /// index). Returns the contracted graph and fills `fine_to_coarse`.
  /// Deterministic.
  GroupGraph coarsen(int node_cap, std::vector<int>* fine_to_coarse) const;
};

}  // namespace spbc::clustering
