#ifndef MCOND_GRAPH_GRAPH_H_
#define MCOND_GRAPH_GRAPH_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/csr_matrix.h"
#include "core/status.h"
#include "core/tensor.h"

namespace mcond {

/// Adds self-loops with the given weight (skipping nodes that already have
/// one) — the Ã = A + I step of GCN normalization.
CsrMatrix AddSelfLoops(const CsrMatrix& a, float weight = 1.0f);

/// Calls fn(col, value) for every entry of view row r of A + weight·I, in
/// ascending column order: the diagonal (a.row_begin + r, weight) lands at
/// its sorted column unless the row already stores it, which is kept as
/// stored. The one self-loop merge, behind AddSelfLoops (the whole matrix),
/// the streamed normalization (row by row, nothing materialized) and the
/// serving session's batch rows.
template <typename Fn>
void ForEachSelfLoopEntry(const CsrSegmentView& a, int64_t r, float weight,
                          const Fn& fn) {
  const int64_t diag = a.row_begin + r;
  bool seen_diag = false;
  for (int64_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
    const int32_t c = a.col_idx[k];
    if (!seen_diag && c >= diag) {
      if (c > diag) fn(diag, weight);
      seen_diag = true;
    }
    fn(c, a.values[k]);
  }
  if (!seen_diag) fn(diag, weight);
}

/// Weighted degrees of the view's rows of A + I without building it: the
/// same double accumulation over ascending columns as RowSumsView over the
/// merged rows. `out` points at the degree of the view's first row.
void SelfLoopRowSums(const CsrSegmentView& a, float* out);

/// D^{-1/2} from weighted degrees; zero-degree rows get 0.
std::vector<float> InvSqrtDegrees(const std::vector<float>& deg);

/// Row r of a view of D^{-1/2} (A + I) D^{-1/2}, written into reused
/// buffers by the same self-loop merge and rescale bodies as SymNormalize.
/// The streamed normalization emits its output through this, one row at a
/// time, with dinv_sqrt = InvSqrtDegrees of the SelfLoopRowSums degrees.
void SymNormalizedRow(const CsrSegmentView& a, int64_t r,
                      const std::vector<float>& dinv_sqrt,
                      std::vector<int32_t>* cols, std::vector<float>* vals);

/// Symmetric GCN normalization D^{-1/2} (A + I) D^{-1/2}, where D is the
/// (weighted) degree of A + I. Zero-degree rows stay zero.
CsrMatrix SymNormalize(const CsrMatrix& a, bool add_self_loops = true);

/// A square CSR matrix as the shared row loops (PropagateRows,
/// SampleEdgeBatch) reach it: a resident CsrMatrix is one segment
/// (ResidentSegments), a ShardedCsr pins its segments (graph/sharded_ops.cc).
class CsrSegmentSource {
 public:
  virtual ~CsrSegmentSource() = default;
  virtual int64_t rows() const = 0;
  /// Global row pointers, rows() + 1 entries.
  virtual const std::vector<int64_t>& row_ptr() const = 0;
  /// Y = A · X over every row.
  virtual StatusOr<Tensor> SpMM(const Tensor& x) const = 0;
  /// Calls fn once per segment holding a row of `sorted_rows`, in row order;
  /// the view is valid only during the call.
  virtual Status ForEachSegmentOf(
      const std::vector<int64_t>& sorted_rows,
      const std::function<void(const CsrSegmentView&)>& fn) const = 0;
  /// The segment holding row r; valid until the next call.
  virtual StatusOr<CsrSegmentView> SegmentOfRow(int64_t r) const = 0;
};

/// A resident CsrMatrix as one segment covering all its rows.
class ResidentSegments final : public CsrSegmentSource {
 public:
  explicit ResidentSegments(const CsrMatrix& a) : a_(&a) {}
  int64_t rows() const override { return a_->rows(); }
  const std::vector<int64_t>& row_ptr() const override { return a_->row_ptr(); }
  StatusOr<Tensor> SpMM(const Tensor& x) const override { return a_->SpMM(x); }
  Status ForEachSegmentOf(
      const std::vector<int64_t>& /*sorted_rows*/,
      const std::function<void(const CsrSegmentView&)>& fn) const override {
    fn(a_->View());
    return Status::Ok();
  }
  StatusOr<CsrSegmentView> SegmentOfRow(int64_t) const override {
    return a_->View();
  }

 private:
  const CsrMatrix* a_;
};

/// Â^depth X. With a non-empty `keep`, row i of the result is propagated
/// row keep[i], and the last hop computes only the kept rows (segment by
/// segment, in row order) instead of a full N×d product.
StatusOr<Tensor> PropagateRows(const CsrSegmentSource& a_hat, const Tensor& x,
                               int64_t depth,
                               const std::vector<int64_t>& keep = {});

/// Row-stochastic normalization D^{-1} A (random-walk / mean aggregation).
CsrMatrix RowNormalize(const CsrMatrix& a);

/// Indices of nodes with a label (>= 0).
std::vector<int64_t> LabeledNodes(const std::vector<int64_t>& labels);

/// Per-class node counts over labeled nodes.
std::vector<int64_t> ClassCounts(const std::vector<int64_t>& labels,
                                 int64_t num_classes);

/// An attributed, labeled graph: the T = {A, X, Y} (or S = {A', X', Y'}) of
/// the paper. Holds the raw adjacency plus its cached GCN-normalized form so
/// repeated forward passes don't recompute degrees.
class Graph {
 public:
  Graph() : num_classes_(0) {}

  /// `adjacency` is the raw (no self-loop) adjacency; `labels[i]` in
  /// [0, num_classes) or -1 for unlabeled nodes.
  Graph(CsrMatrix adjacency, Tensor features, std::vector<int64_t> labels,
        int64_t num_classes);

  int64_t NumNodes() const { return adjacency_.rows(); }
  int64_t NumEdges() const { return adjacency_.Nnz(); }
  int64_t FeatureDim() const { return features_.cols(); }
  int64_t num_classes() const { return num_classes_; }

  const CsrMatrix& adjacency() const { return adjacency_; }
  const CsrMatrix& normalized_adjacency() const { return normalized_; }
  const Tensor& features() const { return features_; }
  const std::vector<int64_t>& labels() const { return labels_; }

  std::vector<int64_t> LabeledNodes() const {
    return mcond::LabeledNodes(labels_);
  }
  std::vector<int64_t> ClassCounts() const {
    return mcond::ClassCounts(labels_, num_classes_);
  }

  /// The paper's memory model for a deployed graph: CSR storage of the
  /// adjacency plus N·d float features.
  int64_t StorageBytes() const;

 private:
  CsrMatrix adjacency_;
  CsrMatrix normalized_;
  Tensor features_;
  std::vector<int64_t> labels_;
  int64_t num_classes_;
};

/// Induced subgraph on `nodes` (which must be distinct). Node i of the
/// result corresponds to original node nodes[i]; edges with both endpoints
/// in `nodes` are kept.
Graph InducedSubgraph(const Graph& g, const std::vector<int64_t>& nodes);

}  // namespace mcond

#endif  // MCOND_GRAPH_GRAPH_H_
