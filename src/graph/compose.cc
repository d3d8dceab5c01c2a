#include "graph/compose.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "core/parallel.h"
#include "core/tensor_ops.h"
#include "obs/trace.h"

namespace mcond {

int64_t BlockRowNnz(const CsrSegmentView& left, int64_t r,
                    const CsrMatrix& right) {
  return left.row_ptr[r + 1] - left.row_ptr[r] +
         right.RowNnz(left.row_begin + r);
}

int64_t WriteBlockRow(const CsrSegmentView& left, int64_t r,
                      const CsrMatrix& right, int64_t offset, int32_t* cols,
                      float* vals) {
  const int64_t begin = left.row_ptr[r];
  const int64_t n = left.row_ptr[r + 1] - begin;
  std::copy_n(left.col_idx + begin, n, cols);
  std::copy_n(left.values + begin, n, vals);
  const size_t rr = static_cast<size_t>(left.row_begin + r);
  int64_t dst = n;
  for (int64_t k = right.row_ptr()[rr]; k < right.row_ptr()[rr + 1]; ++k) {
    cols[dst] = static_cast<int32_t>(
        offset + right.col_idx()[static_cast<size_t>(k)]);
    vals[dst] = right.values()[static_cast<size_t>(k)];
    ++dst;
  }
  return dst;
}

// Direct CSR assembly: every block row is already canonically ordered (left
// columns < N, then right columns + N), and no coordinate can appear in two
// blocks, so rows are written in place, in parallel.
CsrMatrix ComposeBlockAdjacency(const CsrMatrix& base, const CsrMatrix& links,
                                const CsrMatrix& inter) {
  MCOND_TRACE_SPAN("graph.compose_block_adjacency");
  MCOND_CHECK_EQ(base.rows(), base.cols());
  MCOND_CHECK_EQ(links.cols(), base.cols());
  MCOND_CHECK_EQ(inter.rows(), links.rows());
  MCOND_CHECK_EQ(inter.cols(), links.rows());
  const int64_t big_n = base.rows();
  const int64_t total = big_n + links.rows();
  MCOND_CHECK_LE(total, std::numeric_limits<int32_t>::max());

  const CsrMatrix links_t = links.Transpose();
  const CsrSegmentView base_rows = base.View();
  const CsrSegmentView batch_rows = links.View();
  std::vector<int64_t> row_ptr(static_cast<size_t>(total) + 1, 0);
  for (int64_t r = 0; r < total; ++r) {
    row_ptr[static_cast<size_t>(r) + 1] =
        row_ptr[static_cast<size_t>(r)] +
        (r < big_n ? BlockRowNnz(base_rows, r, links_t)
                   : BlockRowNnz(batch_rows, r - big_n, inter));
  }
  const int64_t nnz = row_ptr.back();
  std::vector<int32_t> col_idx(static_cast<size_t>(nnz));
  std::vector<float> values(static_cast<size_t>(nnz));
  ParallelFor(
      0, total, GrainFromCost(2 * (nnz / std::max<int64_t>(total, 1) + 1)),
      [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const int64_t dst = row_ptr[static_cast<size_t>(r)];
          if (r < big_n) {
            WriteBlockRow(base_rows, r, links_t, big_n, col_idx.data() + dst,
                          values.data() + dst);
          } else {
            WriteBlockRow(batch_rows, r - big_n, inter, big_n,
                          col_idx.data() + dst, values.data() + dst);
          }
        }
      },
      "graph.compose_rows");
  return CsrMatrix::FromParts(total, total, std::move(row_ptr),
                              std::move(col_idx), std::move(values),
                              /*validate=*/false);
}

Tensor ComposeFeatures(const Tensor& base_features,
                       const Tensor& incoming_features) {
  return ConcatRows(base_features, incoming_features);
}

}  // namespace mcond
