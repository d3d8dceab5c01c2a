#ifndef MCOND_SERVE_SESSION_BASE_H_
#define MCOND_SERVE_SESSION_BASE_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "condense/condensed.h"
#include "core/csr_matrix.h"
#include "graph/graph.h"
#include "nn/module.h"

namespace mcond {

/// The per-row factor of an operator: 1/sqrt(deg) for the symmetric kinds
/// (0 unless deg > 0, as SymNormalize), 1/deg for the row kind (0 when
/// deg == 0, as RowNormalize).
inline float OperatorScale(bool symmetric, float deg) {
  if (symmetric) return deg > 0.0f ? 1.0f / std::sqrt(deg) : 0.0f;
  return deg != 0.0f ? 1.0f / deg : 0.0f;
}

/// One normalized entry: v·dr·dc for the symmetric kinds, v·dr for the row
/// kind — the float expressions of SymNormalize and RowNormalize.
inline float ScaledEntry(bool symmetric, float v, float dr, float dc) {
  return symmetric ? v * dr * dc : v * dr;
}

/// The immutable build-time state of a serving deployment: everything a
/// ServingSession derives from the base graph (synthetic A' of Eq. 11, or
/// the original A of Eq. 3) that no request ever mutates.
///
/// Splitting this out of ServingSession lets a ReplicaPool of K sessions
/// over the same deployment share one copy — the per-operator base blocks,
/// exact degree partials and CSC patch indexes are paid once, and only the
/// per-replica workspaces/arenas cost K times. Built once via Build();
/// exposed as shared_ptr<const SessionBase>, so concurrent readers need no
/// synchronization.
///
/// Lifetime: the SessionBase stores references — the base graph (or the
/// condensed artifact whose graph/mapping it points into) must outlive it
/// and every session built on it.
struct SessionBase {
  /// CSC-style index over a base-block CSR: for each column, the rows that
  /// contain it and the value-index of that entry in the CSR arrays.
  struct CscIndex {
    std::vector<int64_t> col_ptr;
    std::vector<int32_t> row;
    std::vector<int64_t> val_idx;
  };

  /// The base block of one normalized operator: what a request copies for
  /// rows whose degree it leaves unchanged, and what it needs to rescale
  /// the rows and columns whose degree it changes.
  struct OperatorBase {
    OperatorKind kind = OperatorKind::kGcnNorm;
    CsrMatrix structure;          // A, or Ã = A + I: structure + raw values
    std::vector<float> values;    // normalized values, indexed like structure
    std::vector<double> deg_acc;  // RowSums' exact double partial sums
    std::vector<float> scale;     // OperatorScale of each row's degree
    CscIndex csc;                 // symmetric kinds only
    // A base row of degree 0 with stored entries: RowNormalize drops them,
    // which no patch can reproduce, so every session on this base takes the
    // exact full-recompose fallback. Never set for the symmetric kinds.
    bool fallback_only = false;
  };

  /// Base over the original graph: request links attach directly. Builds
  /// one OperatorBase per entry of `kinds`.
  static std::shared_ptr<const SessionBase> Build(
      const Graph& base,
      const std::vector<OperatorKind>& kinds = kAllOperatorKinds);
  /// Base over a condensed artifact: request links are converted through
  /// `condensed.mapping` (which must be non-empty) on every request.
  static std::shared_ptr<const SessionBase> Build(
      const CondensedGraph& condensed,
      const std::vector<OperatorKind>& kinds = kAllOperatorKinds);

  /// The record of `kind`; CHECK-fails if this base was built without it.
  const OperatorBase& op(OperatorKind kind) const;

  /// Bytes of the records this object owns. The borrowed base graph /
  /// mapping are not counted — they exist independently of serving.
  int64_t memory_bytes() const;

  const Graph& base_graph;
  const CsrMatrix* mapping = nullptr;  // null for original-graph bases
  int64_t n_base = 0;   // N (or N')
  int64_t feat_dim = 0;
  std::vector<OperatorBase> ops;  // one per built kind

 private:
  explicit SessionBase(const Graph& g) : base_graph(g) {}
  void BuildOperators(const std::vector<OperatorKind>& kinds);
};

}  // namespace mcond

#endif  // MCOND_SERVE_SESSION_BASE_H_
