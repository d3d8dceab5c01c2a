#ifndef MCOND_NN_APPNP_H_
#define MCOND_NN_APPNP_H_

#include "nn/linear.h"
#include "nn/module.h"

namespace mcond {

/// APPNP (Klicpera et al., 2019): an MLP produces per-node predictions Z,
/// then personalized-PageRank propagation refines them:
///   H⁰ = Z;  Hᵏ⁺¹ = (1−α) Â Hᵏ + α Z.
class Appnp : public GnnModel {
 public:
  Appnp(int64_t in_dim, int64_t num_classes, const GnnConfig& config,
        Rng& rng);

  Variable Forward(const GraphOperators& g, const Variable& x, bool training,
                   Rng& rng) override;
  OperatorKind ReadsOperator() const override {
    return OperatorKind::kGcnNorm;
  }

  std::vector<Variable> Parameters() const override;
  void ResetParameters(Rng& rng) override;

 private:
  float alpha_;
  int64_t iterations_;
  Mlp mlp_;
};

}  // namespace mcond

#endif  // MCOND_NN_APPNP_H_
