#include "graph/graph.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "core/parallel.h"
#include "core/simd.h"
#include "core/simd_kernels.h"
#include "core/tensor_ops.h"
#include "obs/trace.h"

namespace mcond {

namespace {

int64_t RowCopyGrain(int64_t rows, int64_t nnz) {
  return GrainFromCost(2 * (nnz / std::max<int64_t>(rows, 1) + 1));
}

/// The SymNormalize rescale body over rows [r0, r1) of a view: out[k] =
/// v[k] · row_scale[r] · col_scale[col], `out` indexed like the view's
/// values (it may alias them). AVX2 gather kernel when that tier is active,
/// bit-identical to the scalar loop.
void SymRescaleRows(const CsrSegmentView& a, const float* row_scale,
                    const float* col_scale, float* out, int64_t r0,
                    int64_t r1) {
  if (simd::UseAvx2()) {
    // Bit-identical to the loop below: same (v·dr)·dinv[col] association,
    // vector gather on the column factor.
    simd::Avx2SymNormalizeRows(a.row_ptr, a.col_idx, a.values, row_scale,
                               col_scale, out, r0, r1);
    return;
  }
  for (int64_t r = r0; r < r1; ++r) {
    const float dr = row_scale[r];
    for (int64_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
      out[k] = a.values[k] * dr * col_scale[a.col_idx[k]];
    }
  }
}

}  // namespace

CsrMatrix AddSelfLoops(const CsrMatrix& a, float weight) {
  MCOND_CHECK_EQ(a.rows(), a.cols()) << "self-loops need a square matrix";
  const CsrSegmentView view = a.View();
  const int64_t rows = a.rows();
  std::vector<int64_t> row_ptr(static_cast<size_t>(rows) + 1, 0);
  for (int64_t r = 0; r < rows; ++r) {
    int64_t count = 0;
    ForEachSelfLoopEntry(view, r, weight, [&](int64_t, float) { ++count; });
    row_ptr[static_cast<size_t>(r) + 1] =
        row_ptr[static_cast<size_t>(r)] + count;
  }
  std::vector<int32_t> col_idx(static_cast<size_t>(row_ptr.back()));
  std::vector<float> values(col_idx.size());
  ParallelFor(
      0, rows, RowCopyGrain(rows, a.Nnz()),
      [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          size_t pos = static_cast<size_t>(row_ptr[static_cast<size_t>(r)]);
          ForEachSelfLoopEntry(view, r, weight, [&](int64_t c, float v) {
            col_idx[pos] = static_cast<int32_t>(c);
            values[pos] = v;
            ++pos;
          });
        }
      },
      "graph.add_self_loops");
  return CsrMatrix::FromParts(rows, a.cols(), std::move(row_ptr),
                              std::move(col_idx), std::move(values),
                              /*validate=*/false);
}

void SelfLoopRowSums(const CsrSegmentView& a, float* out) {
  for (int64_t r = 0; r < a.NumRows(); ++r) {
    double acc = 0.0;
    ForEachSelfLoopEntry(a, r, 1.0f, [&](int64_t, float v) { acc += v; });
    out[r] = static_cast<float>(acc);
  }
}

std::vector<float> InvSqrtDegrees(const std::vector<float>& deg) {
  std::vector<float> dinv_sqrt(deg.size());
  for (size_t i = 0; i < deg.size(); ++i) {
    dinv_sqrt[i] = deg[i] > 0.0f ? 1.0f / std::sqrt(deg[i]) : 0.0f;
  }
  return dinv_sqrt;
}

void SymNormalizedRow(const CsrSegmentView& a, int64_t r,
                      const std::vector<float>& dinv_sqrt,
                      std::vector<int32_t>* cols, std::vector<float>* vals) {
  cols->clear();
  vals->clear();
  ForEachSelfLoopEntry(a, r, 1.0f, [&](int64_t c, float v) {
    cols->push_back(static_cast<int32_t>(c));
    vals->push_back(v);
  });
  // The merged row as a one-row view at its global row, rescaled in place.
  const int64_t row = a.row_begin + r;
  const int64_t row_ptr[2] = {0, static_cast<int64_t>(cols->size())};
  const CsrSegmentView one{a.index,    row,          row + 1,
                           row_ptr[1], row_ptr,      cols->data(),
                           vals->data()};
  SymRescaleRows(one, dinv_sqrt.data() + row, dinv_sqrt.data(), vals->data(),
                 0, 1);
}

CsrMatrix SymNormalize(const CsrMatrix& a, bool add_self_loops) {
  MCOND_TRACE_SPAN("graph.sym_normalize");
  const CsrMatrix tilde = add_self_loops ? AddSelfLoops(a) : a;
  const CsrSegmentView view = tilde.View();
  const std::vector<float> dinv_sqrt = InvSqrtDegrees(tilde.RowSums());
  // Normalization never changes the sparsity structure — only the values.
  std::vector<float> vals(static_cast<size_t>(tilde.Nnz()));
  ParallelFor(
      0, tilde.rows(), RowCopyGrain(tilde.rows(), tilde.Nnz()),
      [&](int64_t r0, int64_t r1) {
        SymRescaleRows(view, dinv_sqrt.data(), dinv_sqrt.data(), vals.data(),
                       r0, r1);
      },
      "graph.sym_normalize");
  return tilde.WithValues(std::move(vals));
}

StatusOr<Tensor> PropagateRows(const CsrSegmentSource& a_hat, const Tensor& x,
                               int64_t depth,
                               const std::vector<int64_t>& keep) {
  if (x.rows() != a_hat.rows()) {
    return Status::InvalidArgument("propagate: shape mismatch");
  }
  if (depth <= 0) return keep.empty() ? x : GatherRows(x, keep);
  Tensor hold;
  const Tensor* src = &x;
  const int64_t full_hops = keep.empty() ? depth : depth - 1;
  for (int64_t hop = 0; hop < full_hops; ++hop) {
    StatusOr<Tensor> y = a_hat.SpMM(*src);
    if (!y.ok()) return y.status();
    hold = std::move(y).value();
    src = &hold;
  }
  if (keep.empty()) return hold;

  // Last hop: row r of the output depends on row r of Â alone, so only the
  // kept rows are computed, visiting their segments once each in row order.
  std::vector<std::pair<int64_t, int64_t>> order;  // (row, out position)
  order.reserve(keep.size());
  for (size_t i = 0; i < keep.size(); ++i) {
    if (keep[i] < 0 || keep[i] >= a_hat.rows()) {
      return Status::OutOfRange("propagate: keep row out of range");
    }
    order.push_back({keep[i], static_cast<int64_t>(i)});
  }
  std::sort(order.begin(), order.end());
  std::vector<int64_t> sorted_rows(order.size());
  for (size_t i = 0; i < order.size(); ++i) sorted_rows[i] = order[i].first;

  const int64_t grain =
      CsrRowGrain(a_hat.rows(), a_hat.row_ptr().back(), x.cols());
  Tensor out = Tensor::Uninitialized(static_cast<int64_t>(keep.size()),
                                     x.cols());
  size_t next = 0;
  MCOND_RETURN_IF_ERROR(a_hat.ForEachSegmentOf(
      sorted_rows, [&](const CsrSegmentView& seg) {
        const size_t first = next;
        while (next < order.size() && order[next].first < seg.row_end) ++next;
        ParallelFor(
            static_cast<int64_t>(first), static_cast<int64_t>(next), grain,
            [&](int64_t i0, int64_t i1) {
              for (int64_t i = i0; i < i1; ++i) {
                const int64_t r =
                    order[static_cast<size_t>(i)].first - seg.row_begin;
                SpmmViewRows(seg, *src, r, r + 1,
                             out.RowData(order[static_cast<size_t>(i)].second));
              }
            },
            "graph.propagate_kept_rows");
      }));
  return out;
}

CsrMatrix RowNormalize(const CsrMatrix& a) {
  MCOND_TRACE_SPAN("graph.row_normalize");
  const std::vector<float> deg = a.RowSums();
  // Historical semantics: rows whose sum is 0 have their entries DROPPED
  // from the output. That only changes the structure when such a row has
  // stored entries (all-zero values); take the slow triplet path then, and
  // the structure-preserving parallel rescale otherwise.
  bool drops_entries = false;
  for (int64_t r = 0; r < a.rows(); ++r) {
    if (deg[static_cast<size_t>(r)] == 0.0f && a.RowNnz(r) > 0) {
      drops_entries = true;
      break;
    }
  }
  if (drops_entries) {
    std::vector<Triplet> t;
    t.reserve(static_cast<size_t>(a.Nnz()));
    for (int64_t r = 0; r < a.rows(); ++r) {
      const float d = deg[static_cast<size_t>(r)];
      if (d == 0.0f) continue;
      const float inv = 1.0f / d;
      for (int64_t k = a.row_ptr()[static_cast<size_t>(r)];
           k < a.row_ptr()[static_cast<size_t>(r) + 1]; ++k) {
        t.push_back({r, a.col_idx()[static_cast<size_t>(k)],
                     a.values()[static_cast<size_t>(k)] * inv});
      }
    }
    return CsrMatrix::FromTriplets(a.rows(), a.cols(), std::move(t));
  }
  const std::vector<int64_t>& rp = a.row_ptr();
  const std::vector<float>& v = a.values();
  std::vector<float> vals(static_cast<size_t>(a.Nnz()));
  ParallelFor(
      0, a.rows(),
      GrainFromCost(a.Nnz() / std::max<int64_t>(a.rows(), 1) + 1),
      [&](int64_t r0, int64_t r1) {
        const bool use_avx2 = simd::UseAvx2();
        for (int64_t r = r0; r < r1; ++r) {
          const float d = deg[static_cast<size_t>(r)];
          const float inv = d != 0.0f ? 1.0f / d : 0.0f;
          const int64_t b = rp[static_cast<size_t>(r)];
          const int64_t e = rp[static_cast<size_t>(r) + 1];
          if (use_avx2) {
            simd::Avx2Scale(v.data() + b, inv, vals.data() + b, e - b);
            continue;
          }
          for (int64_t k = b; k < e; ++k) {
            vals[static_cast<size_t>(k)] = v[static_cast<size_t>(k)] * inv;
          }
        }
      },
      "graph.row_normalize");
  return a.WithValues(std::move(vals));
}

std::vector<int64_t> LabeledNodes(const std::vector<int64_t>& labels) {
  std::vector<int64_t> out;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] >= 0) out.push_back(static_cast<int64_t>(i));
  }
  return out;
}

std::vector<int64_t> ClassCounts(const std::vector<int64_t>& labels,
                                 int64_t num_classes) {
  std::vector<int64_t> counts(static_cast<size_t>(num_classes), 0);
  for (int64_t y : labels) {
    if (y >= 0) ++counts[static_cast<size_t>(y)];
  }
  return counts;
}

Graph::Graph(CsrMatrix adjacency, Tensor features,
             std::vector<int64_t> labels, int64_t num_classes)
    : adjacency_(std::move(adjacency)),
      features_(std::move(features)),
      labels_(std::move(labels)),
      num_classes_(num_classes) {
  MCOND_CHECK_EQ(adjacency_.rows(), adjacency_.cols());
  MCOND_CHECK_EQ(adjacency_.rows(), features_.rows());
  MCOND_CHECK_EQ(adjacency_.rows(), static_cast<int64_t>(labels_.size()));
  for (int64_t y : labels_) {
    MCOND_CHECK(y >= -1 && y < num_classes_) << "label " << y;
  }
  normalized_ = SymNormalize(adjacency_);
}

int64_t Graph::StorageBytes() const {
  return adjacency_.StorageBytes() +
         features_.size() * static_cast<int64_t>(sizeof(float));
}

Graph InducedSubgraph(const Graph& g, const std::vector<int64_t>& nodes) {
  std::unordered_map<int64_t, int64_t> remap;
  remap.reserve(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    const bool inserted =
        remap.emplace(nodes[i], static_cast<int64_t>(i)).second;
    MCOND_CHECK(inserted) << "duplicate node " << nodes[i];
  }
  const CsrMatrix& a = g.adjacency();
  std::vector<Triplet> t;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const int64_t r = nodes[i];
    for (int64_t k = a.row_ptr()[static_cast<size_t>(r)];
         k < a.row_ptr()[static_cast<size_t>(r) + 1]; ++k) {
      const int64_t c = a.col_idx()[static_cast<size_t>(k)];
      const auto it = remap.find(c);
      if (it != remap.end()) {
        t.push_back({static_cast<int64_t>(i), it->second,
                     a.values()[static_cast<size_t>(k)]});
      }
    }
  }
  const int64_t n = static_cast<int64_t>(nodes.size());
  CsrMatrix sub_adj = CsrMatrix::FromTriplets(n, n, std::move(t));
  Tensor sub_x = GatherRows(g.features(), nodes);
  std::vector<int64_t> sub_y(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    sub_y[i] = g.labels()[static_cast<size_t>(nodes[i])];
  }
  return Graph(std::move(sub_adj), std::move(sub_x), std::move(sub_y),
               g.num_classes());
}

}  // namespace mcond
