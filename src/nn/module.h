#ifndef MCOND_NN_MODULE_H_
#define MCOND_NN_MODULE_H_

#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "core/csr_matrix.h"
#include "core/rng.h"
#include "graph/graph.h"

namespace mcond {

/// Base class for anything with trainable parameters.
class Module {
 public:
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// The trainable leaves, in a stable order (used by optimizers and
  /// snapshot/restore).
  virtual std::vector<Variable> Parameters() const = 0;

  /// Reinitializes all parameters (fresh draw of θ₀ ~ P_θ₀ in Eq. 4).
  virtual void ResetParameters(Rng& rng) = 0;

  /// Copies current parameter values (for best-validation snapshots).
  std::vector<Tensor> SnapshotParameters() const;

  /// Restores values captured by SnapshotParameters.
  void RestoreParameters(const std::vector<Tensor>& snapshot);

 protected:
  Module() = default;
};

/// One normalized message-passing operator over a raw adjacency A, as
/// (self-loops or not) × (symmetric 1/sqrt(deg) scaling on both sides, or
/// row 1/deg scaling), where deg is the weighted row degree of the matrix
/// being scaled.
enum class OperatorKind {
  kGcnNorm,    // D^{-1/2}(A+I)D^{-1/2}
  kRowNorm,    // D^{-1}(A+I)
  kSymNoLoop,  // D^{-1/2} A D^{-1/2}
};

inline const std::vector<OperatorKind> kAllOperatorKinds = {
    OperatorKind::kGcnNorm, OperatorKind::kRowNorm, OperatorKind::kSymNoLoop};

constexpr bool HasSelfLoops(OperatorKind kind) {
  return kind != OperatorKind::kSymNoLoop;
}
constexpr bool IsSymmetric(OperatorKind kind) {
  return kind != OperatorKind::kRowNorm;
}

/// The message-passing operators an architecture may need, precomputed once
/// per deployment graph. Built from a raw (self-loop-free) adjacency.
struct GraphOperators {
  /// GCN kernel D^{-1/2}(A+I)D^{-1/2}.
  CsrMatrix gcn_norm;
  /// Row-stochastic D^{-1}(A+I) (mean aggregation for GraphSAGE).
  CsrMatrix row_norm;
  /// D^{-1/2} A D^{-1/2} without self-loops; ChebNet's scaled Laplacian is
  /// L̃ = L − I = −sym_no_loop under the λ_max ≈ 2 approximation.
  CsrMatrix sym_no_loop;

  static GraphOperators FromAdjacency(const CsrMatrix& raw_adjacency);
  static GraphOperators FromGraph(const Graph& g) {
    return FromAdjacency(g.adjacency());
  }

  CsrMatrix& Get(OperatorKind kind) {
    return kind == OperatorKind::kGcnNorm  ? gcn_norm
           : kind == OperatorKind::kRowNorm ? row_norm
                                            : sym_no_loop;
  }
};

/// A node-level GNN: maps (graph operators, features) to per-node logits.
class GnnModel : public Module {
 public:
  /// Runs the forward pass. `training` enables dropout, which draws from
  /// `rng`.
  virtual Variable Forward(const GraphOperators& g, const Variable& x,
                           bool training, Rng& rng) = 0;

  /// The one operator Forward reads; the others may be left empty.
  virtual OperatorKind ReadsOperator() const = 0;

  /// Inference convenience: constant features, no dropout.
  Tensor Predict(const GraphOperators& g, const Tensor& x, Rng& rng) {
    return Forward(g, MakeConstant(x), /*training=*/false, rng)->value();
  }
};

/// Architectures evaluated in the paper (§IV-E).
enum class GnnArch { kSgc, kGcn, kGraphSage, kAppnp, kCheby };

const char* GnnArchName(GnnArch arch);

/// Hyper-parameters shared across architectures.
struct GnnConfig {
  int64_t hidden_dim = 64;
  float dropout = 0.0f;
  /// Propagation depth: SGC power / APPNP iterations use their own fields.
  int64_t num_layers = 2;
  /// APPNP teleport probability.
  float appnp_alpha = 0.1f;
  int64_t appnp_iterations = 10;
  /// Chebyshev polynomial order (K).
  int64_t cheby_order = 2;
};

/// Factory for the model zoo; `rng` initializes parameters.
std::unique_ptr<GnnModel> MakeGnn(GnnArch arch, int64_t in_dim,
                                  int64_t num_classes, const GnnConfig& config,
                                  Rng& rng);

}  // namespace mcond

#endif  // MCOND_NN_MODULE_H_
