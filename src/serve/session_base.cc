#include "serve/session_base.h"

#include "core/logging.h"
#include "obs/trace.h"

namespace mcond {

namespace {

template <typename T>
int64_t VecBytes(const std::vector<T>& v) {
  return static_cast<int64_t>(v.capacity() * sizeof(T));
}

int64_t CsrBytes(const CsrMatrix& m) {
  return VecBytes(m.row_ptr()) + VecBytes(m.col_idx()) + VecBytes(m.values());
}

void BuildCsc(const CsrMatrix& m, SessionBase::CscIndex* out) {
  out->col_ptr.assign(static_cast<size_t>(m.cols()) + 1, 0);
  for (const int32_t c : m.col_idx()) {
    ++out->col_ptr[static_cast<size_t>(c) + 1];
  }
  for (size_t c = 1; c < out->col_ptr.size(); ++c) {
    out->col_ptr[c] += out->col_ptr[c - 1];
  }
  out->row.resize(static_cast<size_t>(m.Nnz()));
  out->val_idx.resize(static_cast<size_t>(m.Nnz()));
  std::vector<int64_t> cursor(out->col_ptr.begin(), out->col_ptr.end() - 1);
  for (int64_t r = 0; r < m.rows(); ++r) {
    for (int64_t k = m.row_ptr()[static_cast<size_t>(r)];
         k < m.row_ptr()[static_cast<size_t>(r) + 1]; ++k) {
      const int32_t c = m.col_idx()[static_cast<size_t>(k)];
      const int64_t pos = cursor[static_cast<size_t>(c)]++;
      out->row[static_cast<size_t>(pos)] = static_cast<int32_t>(r);
      out->val_idx[static_cast<size_t>(pos)] = k;
    }
  }
}

/// The one builder of a per-kind record. Degrees accumulate in a double in
/// storage order and scales come from their float cast, exactly as RowSums
/// + SymNormalize/RowNormalize, so `values` equals the base-only operator
/// bit for bit.
SessionBase::OperatorBase BuildOperatorBase(const CsrMatrix& raw,
                                            OperatorKind kind) {
  SessionBase::OperatorBase op;
  op.kind = kind;
  const bool sym = IsSymmetric(kind);
  op.structure = HasSelfLoops(kind) ? AddSelfLoops(raw) : raw;
  const CsrMatrix& s = op.structure;
  const size_t n = static_cast<size_t>(s.rows());
  op.deg_acc.resize(n);
  op.scale.resize(n);
  for (size_t r = 0; r < n; ++r) {
    double acc = 0.0;
    for (int64_t k = s.row_ptr()[r]; k < s.row_ptr()[r + 1]; ++k) {
      acc += s.values()[static_cast<size_t>(k)];
    }
    op.deg_acc[r] = acc;
    const float deg = static_cast<float>(acc);
    op.scale[r] = OperatorScale(sym, deg);
    if (!sym && deg == 0.0f && s.row_ptr()[r + 1] > s.row_ptr()[r]) {
      op.fallback_only = true;
    }
  }
  op.values.resize(static_cast<size_t>(s.Nnz()));
  for (size_t r = 0; r < n; ++r) {
    for (int64_t k = s.row_ptr()[r]; k < s.row_ptr()[r + 1]; ++k) {
      const size_t ks = static_cast<size_t>(k);
      op.values[ks] =
          ScaledEntry(sym, s.values()[ks], op.scale[r],
                      op.scale[static_cast<size_t>(s.col_idx()[ks])]);
    }
  }
  if (sym) BuildCsc(s, &op.csc);
  return op;
}

}  // namespace

std::shared_ptr<const SessionBase> SessionBase::Build(
    const Graph& base, const std::vector<OperatorKind>& kinds) {
  std::shared_ptr<SessionBase> sb(new SessionBase(base));
  sb->BuildOperators(kinds);
  return sb;
}

std::shared_ptr<const SessionBase> SessionBase::Build(
    const CondensedGraph& condensed, const std::vector<OperatorKind>& kinds) {
  std::shared_ptr<SessionBase> sb(new SessionBase(condensed.graph));
  sb->mapping = &condensed.mapping;
  MCOND_CHECK_GT(sb->mapping->Nnz(), 0)
      << "condensed artifact has no mapping; cannot build a serving session";
  MCOND_CHECK_EQ(sb->mapping->cols(), condensed.graph.NumNodes());
  sb->BuildOperators(kinds);
  return sb;
}

void SessionBase::BuildOperators(const std::vector<OperatorKind>& kinds) {
  MCOND_TRACE_SPAN("serve.session.build");
  n_base = base_graph.NumNodes();
  feat_dim = base_graph.FeatureDim();
  for (const OperatorKind kind : kinds) {
    ops.push_back(BuildOperatorBase(base_graph.adjacency(), kind));
  }
}

const SessionBase::OperatorBase& SessionBase::op(OperatorKind kind) const {
  for (const OperatorBase& o : ops) {
    if (o.kind == kind) return o;
  }
  MCOND_CHECK(false) << "session base built without operator kind "
                     << static_cast<int>(kind);
  return ops.front();
}

int64_t SessionBase::memory_bytes() const {
  int64_t bytes = 0;
  for (const OperatorBase& o : ops) {
    bytes += CsrBytes(o.structure) + VecBytes(o.values) + VecBytes(o.deg_acc) +
             VecBytes(o.scale) + VecBytes(o.csc.col_ptr) +
             VecBytes(o.csc.row) + VecBytes(o.csc.val_idx);
  }
  return bytes;
}

}  // namespace mcond
