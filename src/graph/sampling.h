#ifndef MCOND_GRAPH_SAMPLING_H_
#define MCOND_GRAPH_SAMPLING_H_

#include <cstdint>
#include <vector>

#include "core/csr_matrix.h"
#include "core/rng.h"
#include "graph/graph.h"

namespace mcond {

/// A mini-batch of node pairs with binary link targets for the structure
/// loss ℒ_str (Eq. 8): `target = 1` for observed edges of A, `0` for
/// sampled non-edges.
struct EdgeBatch {
  std::vector<int64_t> src;
  std::vector<int64_t> dst;
  std::vector<float> target;

  int64_t size() const { return static_cast<int64_t>(src.size()); }
};

/// Samples `num_pos` observed edges uniformly and `num_neg` uniform node
/// pairs rejected against A (non-edges). If the graph has fewer than
/// num_pos edges, all edges are used.
EdgeBatch SampleEdgeBatch(const CsrMatrix& adjacency, int64_t num_pos,
                          int64_t num_neg, Rng& rng);

/// The one draw sequence behind both samplers: each probe looks up the
/// segment holding its row, so a resident matrix and a sharded store draw
/// identical batches for identical seeds.
StatusOr<EdgeBatch> SampleEdgeBatch(const CsrSegmentSource& adjacency,
                                    int64_t num_pos, int64_t num_neg,
                                    Rng& rng);

}  // namespace mcond

#endif  // MCOND_GRAPH_SAMPLING_H_
