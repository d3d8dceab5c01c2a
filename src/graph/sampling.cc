#include "graph/sampling.h"

#include <algorithm>

namespace mcond {

EdgeBatch SampleEdgeBatch(const CsrMatrix& adjacency, int64_t num_pos,
                          int64_t num_neg, Rng& rng) {
  MCOND_CHECK_EQ(adjacency.rows(), adjacency.cols());
  return SampleEdgeBatch(ResidentSegments(adjacency), num_pos, num_neg, rng)
      .value();
}

StatusOr<EdgeBatch> SampleEdgeBatch(const CsrSegmentSource& adjacency,
                                    int64_t num_pos, int64_t num_neg,
                                    Rng& rng) {
  const int64_t n = adjacency.rows();
  const std::vector<int64_t>& row_ptr = adjacency.row_ptr();
  const int64_t nnz = row_ptr.back();
  EdgeBatch batch;
  if (n == 0) return batch;

  // Positive samples: pick edge slots uniformly; CSR slot k belongs to the
  // row r with row_ptr[r] <= k < row_ptr[r+1].
  const int64_t actual_pos = std::min(num_pos, nnz);
  if (nnz > 0) {
    for (int64_t s = 0; s < actual_pos; ++s) {
      const int64_t k = (actual_pos == nnz) ? s : rng.RandInt(0, nnz - 1);
      const auto it = std::upper_bound(row_ptr.begin(), row_ptr.end(), k);
      const int64_t r = static_cast<int64_t>(it - row_ptr.begin()) - 1;
      StatusOr<CsrSegmentView> seg = adjacency.SegmentOfRow(r);
      if (!seg.ok()) return seg.status();
      const int64_t local_k =
          k - row_ptr[static_cast<size_t>(seg.value().row_begin)];
      batch.src.push_back(r);
      batch.dst.push_back(seg.value().col_idx[local_k]);
      batch.target.push_back(1.0f);
    }
  }

  // Negative samples: uniform pairs rejected against A. Our graphs are
  // sparse, so a handful of rejections suffices; cap attempts for safety on
  // adversarially dense inputs.
  int64_t produced = 0;
  int64_t attempts = 0;
  const int64_t max_attempts = 50 * std::max<int64_t>(num_neg, 1);
  while (produced < num_neg && attempts < max_attempts) {
    ++attempts;
    const int64_t i = rng.RandInt(0, n - 1);
    const int64_t j = rng.RandInt(0, n - 1);
    if (i == j) continue;
    StatusOr<CsrSegmentView> seg = adjacency.SegmentOfRow(i);
    if (!seg.ok()) return seg.status();
    const CsrSegmentView& v = seg.value();
    const int64_t lr = i - v.row_begin;
    if (std::binary_search(v.col_idx + v.row_ptr[lr],
                           v.col_idx + v.row_ptr[lr + 1],
                           static_cast<int32_t>(j))) {
      continue;
    }
    batch.src.push_back(i);
    batch.dst.push_back(j);
    batch.target.push_back(0.0f);
    ++produced;
  }
  return batch;
}

}  // namespace mcond
