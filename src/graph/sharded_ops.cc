#include "graph/sharded_ops.h"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <limits>
#include <utility>

#include "core/segment_prefetcher.h"
#include "graph/compose.h"
#include "obs/trace.h"

namespace mcond {

namespace {

/// Hands every segment of `a`, pinned in row order, to fn. The cursor
/// declares the sequential pass up front so the prefetch worker maps and
/// faults in segment i+1 while fn works on segment i.
Status ForEachSegment(const ShardedCsr& a,
                      const std::function<Status(const CsrSegmentView&)>& fn) {
  SequentialCursor cursor(a);
  for (int64_t i = 0; i < a.NumSegments(); ++i) {
    StatusOr<PinnedSegment> pin = cursor.Next();
    if (!pin.ok()) return pin.status();
    MCOND_RETURN_IF_ERROR(fn(pin.value().view()));
  }
  return Status::Ok();
}

/// A ShardedCsr as the shared row loops see it: kept-row walks pin through
/// a cursor over exactly the segments they need (so prefetch works ahead
/// even when the rows skip segments); random access pins one segment at a
/// time and lets the LRU keep the hot ones mapped.
class ShardedSegments final : public CsrSegmentSource {
 public:
  explicit ShardedSegments(const ShardedCsr& a) : a_(&a) {}
  int64_t rows() const override { return a_->rows(); }
  const std::vector<int64_t>& row_ptr() const override {
    return a_->row_ptr();
  }
  StatusOr<Tensor> SpMM(const Tensor& x) const override {
    return ShardedSpMM(*a_, x);
  }
  Status ForEachSegmentOf(
      const std::vector<int64_t>& sorted_rows,
      const std::function<void(const CsrSegmentView&)>& fn) const override {
    std::vector<int64_t> schedule;
    for (const int64_t row : sorted_rows) {
      const int64_t s = a_->SegmentForRow(row);
      if (schedule.empty() || schedule.back() != s) schedule.push_back(s);
    }
    const size_t count = schedule.size();
    SequentialCursor cursor(*a_, std::move(schedule));
    for (size_t i = 0; i < count; ++i) {
      StatusOr<PinnedSegment> pin = cursor.Next();
      if (!pin.ok()) return pin.status();
      fn(pin.value().view());
    }
    return Status::Ok();
  }
  StatusOr<CsrSegmentView> SegmentOfRow(int64_t r) const override {
    pin_ = PinnedSegment();  // Unpin before pinning the next segment.
    StatusOr<PinnedSegment> pin = a_->Pin(a_->SegmentForRow(r));
    if (!pin.ok()) return pin.status();
    pin_ = std::move(pin).value();
    return pin_.view();
  }

 private:
  const ShardedCsr* a_;
  mutable PinnedSegment pin_;
};

}  // namespace

StatusOr<Tensor> ShardedSpMM(const ShardedCsr& a, const Tensor& x) {
  if (a.cols() != x.rows()) {
    return Status::InvalidArgument("sharded spmm: shape mismatch");
  }
  MCOND_TRACE_SPAN("graph.sharded_spmm");
  // Grain from global matrix stats, so it does not depend on the partition.
  const int64_t grain = CsrRowGrain(a.rows(), a.Nnz(), x.cols());
  Tensor y = Tensor::Uninitialized(a.rows(), x.cols());
  MCOND_RETURN_IF_ERROR(ForEachSegment(a, [&](const CsrSegmentView& seg) {
    SpmmView(seg, x, y.data() + seg.row_begin * x.cols(), grain,
             "graph.sharded_spmm");
    return Status::Ok();
  }));
  return y;
}

StatusOr<std::vector<float>> ShardedRowSums(const ShardedCsr& a) {
  std::vector<float> sums(static_cast<size_t>(a.rows()));
  const int64_t grain = CsrRowGrain(a.rows(), a.Nnz(), /*d=*/1);
  MCOND_RETURN_IF_ERROR(ForEachSegment(a, [&](const CsrSegmentView& seg) {
    RowSumsView(seg, sums.data() + seg.row_begin, grain,
                "graph.sharded_row_sums");
    return Status::Ok();
  }));
  return sums;
}

StatusOr<Tensor> ShardedPropagate(const ShardedCsr& a_hat, const Tensor& x,
                                  int64_t depth,
                                  const std::vector<int64_t>& keep) {
  if (a_hat.rows() != a_hat.cols() || a_hat.cols() != x.rows()) {
    return Status::InvalidArgument("sharded propagate: shape mismatch");
  }
  MCOND_TRACE_SPAN("graph.sharded_propagate");
  return PropagateRows(ShardedSegments(a_hat), x, depth, keep);
}

StatusOr<ShardedCsr> ShardedSymNormalize(const ShardedCsr& a,
                                         const std::string& out_path,
                                         const ShardOptions& options,
                                         int64_t mem_budget_bytes) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("sharded sym-normalize: non-square matrix");
  }
  MCOND_TRACE_SPAN("graph.sharded_sym_normalize");
  const int64_t n = a.rows();
  // Pass 1: degrees of Ã = A + I, merged row by row, nothing materialized.
  std::vector<float> deg(static_cast<size_t>(n));
  MCOND_RETURN_IF_ERROR(ForEachSegment(a, [&](const CsrSegmentView& seg) {
    SelfLoopRowSums(seg, deg.data() + seg.row_begin);
    return Status::Ok();
  }));
  const std::vector<float> dinv_sqrt = InvSqrtDegrees(deg);

  // Pass 2: each normalized row through one reused buffer to the writer.
  StatusOr<ShardedCsrWriter> writer =
      ShardedCsrWriter::Create(out_path, n, n, options);
  if (!writer.ok()) return writer.status();
  std::vector<int32_t> row_cols;
  std::vector<float> row_vals;
  MCOND_RETURN_IF_ERROR(ForEachSegment(a, [&](const CsrSegmentView& seg) {
    for (int64_t r = 0; r < seg.NumRows(); ++r) {
      SymNormalizedRow(seg, r, dinv_sqrt, &row_cols, &row_vals);
      MCOND_RETURN_IF_ERROR(writer.value().AppendRow(
          row_cols.data(), row_vals.data(),
          static_cast<int64_t>(row_cols.size())));
    }
    return Status::Ok();
  }));
  MCOND_RETURN_IF_ERROR(writer.value().Finalize());
  return ShardedCsr::Open(out_path, mem_budget_bytes);
}

StatusOr<ShardedCsr> ShardedComposeBlockAdjacency(
    const ShardedCsr& base, const CsrMatrix& links, const CsrMatrix& inter,
    const std::string& out_path, const ShardOptions& options,
    int64_t mem_budget_bytes) {
  if (base.rows() != base.cols() || links.cols() != base.cols() ||
      inter.rows() != links.rows() || inter.cols() != links.rows()) {
    return Status::InvalidArgument("sharded compose: block shape mismatch");
  }
  MCOND_TRACE_SPAN("graph.sharded_compose_block_adjacency");
  const int64_t big_n = base.rows();
  const int64_t total = big_n + links.rows();
  if (total > std::numeric_limits<int32_t>::max()) {
    return Status::InvalidArgument("sharded compose: graph too large");
  }
  const CsrMatrix links_t = links.Transpose();

  StatusOr<ShardedCsrWriter> writer =
      ShardedCsrWriter::Create(out_path, total, total, options);
  if (!writer.ok()) return writer.status();
  std::vector<int32_t> row_cols;
  std::vector<float> row_vals;
  // Every block row of `left` (rows [left | N + right]) to the writer sink.
  auto append_rows = [&](const CsrSegmentView& left, const CsrMatrix& right) {
    for (int64_t r = 0; r < left.NumRows(); ++r) {
      const int64_t nnz = BlockRowNnz(left, r, right);
      row_cols.resize(static_cast<size_t>(nnz));
      row_vals.resize(static_cast<size_t>(nnz));
      WriteBlockRow(left, r, right, big_n, row_cols.data(), row_vals.data());
      MCOND_RETURN_IF_ERROR(
          writer.value().AppendRow(row_cols.data(), row_vals.data(), nnz));
    }
    return Status::Ok();
  };
  MCOND_RETURN_IF_ERROR(ForEachSegment(base, [&](const CsrSegmentView& seg) {
    return append_rows(seg, links_t);
  }));
  MCOND_RETURN_IF_ERROR(append_rows(links.View(), inter));
  MCOND_RETURN_IF_ERROR(writer.value().Finalize());
  return ShardedCsr::Open(out_path, mem_budget_bytes);
}

StatusOr<EdgeBatch> ShardedSampleEdgeBatch(const ShardedCsr& adjacency,
                                           int64_t num_pos, int64_t num_neg,
                                           Rng& rng) {
  if (adjacency.rows() != adjacency.cols()) {
    return Status::InvalidArgument("sharded edge sample: non-square matrix");
  }
  return SampleEdgeBatch(ShardedSegments(adjacency), num_pos, num_neg, rng);
}

StatusOr<ShardedGraph> ShardGraph(const Graph& g, const std::string& dir,
                                  const ShardOptions& options,
                                  int64_t mem_budget_bytes) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("shard graph: cannot create " + dir + ": " +
                            ec.message());
  }
  const std::string adj_path = dir + "/adjacency.mcss";
  const std::string norm_path = dir + "/normalized.mcss";
  MCOND_RETURN_IF_ERROR(ShardedCsr::Write(g.adjacency(), adj_path, options));
  MCOND_RETURN_IF_ERROR(
      ShardedCsr::Write(g.normalized_adjacency(), norm_path, options));
  StatusOr<ShardedCsr> adj = ShardedCsr::Open(adj_path, mem_budget_bytes);
  if (!adj.ok()) return adj.status();
  StatusOr<ShardedCsr> norm = ShardedCsr::Open(norm_path, mem_budget_bytes);
  if (!norm.ok()) return norm.status();
  ShardedGraph out;
  out.adjacency =
      std::make_shared<ShardedCsr>(std::move(adj).value());
  out.normalized =
      std::make_shared<ShardedCsr>(std::move(norm).value());
  out.features = g.features();
  out.labels = g.labels();
  out.num_classes = g.num_classes();
  return out;
}

}  // namespace mcond
