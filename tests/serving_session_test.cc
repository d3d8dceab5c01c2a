// Tests for the persistent ServingSession (src/serve/): bit-identical
// logits vs the from-scratch ComposeDeployment reference across
// architectures, batch modes, and thread widths — directly and through
// ServeOnOriginal/ServeOnCondensed; buffer reuse across a batch stream; and
// the steady-state zero-tensor-heap-allocation contract.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>

#include "core/parallel.h"
#include "core/tensor_ops.h"
#include "coreset/coreset.h"
#include "data/datasets.h"
#include "eval/batching.h"
#include "eval/inference.h"
#include "nn/metrics.h"
#include "serve/serving_session.h"

namespace mcond {
namespace {

void ExpectBitEqual(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(a.SameShape(b));
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.size()) * sizeof(float)),
            0)
      << "logits differ at the bit level";
}

class ServingSessionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new InductiveDataset(MakeDatasetByName("tiny-sim", 41));
    const Graph& train = data_->train_graph;
    Rng rng(42);
    const std::vector<int64_t> selected =
        SelectCoreset(CoresetMethod::kRandom, train, train.features(),
                      /*num_select=*/24, rng);
    condensed_ = new CondensedGraph(BuildCoresetGraph(train, selected));
  }
  static void TearDownTestSuite() {
    delete condensed_;
    delete data_;
  }

  static std::unique_ptr<GnnModel> MakeModel(GnnArch arch) {
    // Deterministically initialized, untrained: bit patterns and serving
    // cost do not depend on training, and Predict is deterministic.
    Rng rng(7);
    GnnConfig gc;
    const Graph& g = condensed_->graph;
    return MakeGnn(arch, g.FeatureDim(), g.num_classes(), gc, rng);
  }

  /// The exact reference: compose the deployment from scratch and slice
  /// the batch rows.
  static Tensor ReferenceLogits(GnnModel& model, const HeldOutBatch& batch,
                                 bool graph_batch, bool on_condensed) {
    Rng rng(9);
    Deployment dep =
        on_condensed
            ? ComposeDeployment(*condensed_, batch, graph_batch)
            : ComposeDeployment(data_->train_graph, batch, graph_batch);
    const Tensor logits = model.Predict(dep.operators, dep.features, rng);
    return SliceRows(logits, dep.num_base, dep.num_base + dep.batch_size);
  }

  static InductiveDataset* data_;
  static CondensedGraph* condensed_;
};

InductiveDataset* ServingSessionTest::data_ = nullptr;
CondensedGraph* ServingSessionTest::condensed_ = nullptr;

TEST_F(ServingSessionTest, BitIdenticalAcrossArchitecturesAndBatchModes) {
  // Every architecture, hence every operator kind (gcn_norm for SGC, GCN
  // and APPNP, row_norm for GraphSAGE, sym_no_loop for Cheby), on both
  // deployments, in both batch modes, at 1 and 8 threads.
  for (const GnnArch arch : {GnnArch::kSgc, GnnArch::kGcn, GnnArch::kGraphSage,
                             GnnArch::kAppnp, GnnArch::kCheby}) {
    std::unique_ptr<GnnModel> model = MakeModel(arch);
    for (const bool on_condensed : {true, false}) {
      for (const bool graph_batch : {true, false}) {
        const Tensor expect = ReferenceLogits(*model, data_->test,
                                               graph_batch, on_condensed);
        for (const int threads : {1, 8}) {
          SCOPED_TRACE(std::string(GnnArchName(arch)) +
                       (on_condensed ? " condensed" : " original") +
                       (graph_batch ? " graph-batch " : " node-batch ") +
                       std::to_string(threads) + " threads");
          ThreadPool::Global().SetNumThreads(threads);
          ServingSession session = on_condensed
                                       ? ServingSession(*condensed_, *model)
                                       : ServingSession(data_->train_graph,
                                                        *model);
          Rng rng(9);
          ExpectBitEqual(expect,
                         session.Serve(data_->test, graph_batch, rng));
          EXPECT_EQ(session.fallback_serves(), 0);
        }
      }
    }
  }
  ThreadPool::Global().SetNumThreads(ThreadPool::DefaultNumThreads());
}

TEST_F(ServingSessionTest, StreamedBatchesMatchPerRequestIncludingResize) {
  // A realistic request stream: uneven batch sizes (the tail batch is
  // smaller) force the shape-dependent buffers to re-warm mid-stream.
  std::unique_ptr<GnnModel> model = MakeModel(GnnArch::kSgc);
  const std::vector<HeldOutBatch> batches = SplitIntoBatches(data_->test, 7);
  ASSERT_GT(batches.size(), 1u);
  ServingSession session(*condensed_, *model);
  for (const HeldOutBatch& batch : batches) {
    const Tensor expect = ReferenceLogits(*model, batch,
                                           /*graph_batch=*/false,
                                           /*on_condensed=*/true);
    Rng rng(9);
    ExpectBitEqual(expect, session.Serve(batch, /*graph_batch=*/false, rng));
  }
  EXPECT_EQ(session.fallback_serves(), 0);
}

TEST_F(ServingSessionTest, RepeatedServesAreStable) {
  // Serving the same batch twice through one session must give the same
  // bits: the epoch-stamped scratch fully resets between requests.
  std::unique_ptr<GnnModel> model = MakeModel(GnnArch::kSgc);
  ServingSession session(*condensed_, *model);
  Rng rng(9);
  const Tensor first = session.Serve(data_->test, /*graph_batch=*/true, rng);
  const Tensor& second =
      session.Serve(data_->test, /*graph_batch=*/true, rng);
  ExpectBitEqual(first, second);
}

TEST_F(ServingSessionTest, SteadyStateServesDoNotTouchTensorHeap) {
  std::unique_ptr<GnnModel> model = MakeModel(GnnArch::kSgc);
  ServingSession session(*condensed_, *model);
  Rng rng(9);
  // Two warm-up serves: the first sizes every workspace, the second lets
  // the arena settle into its final page set.
  session.Serve(data_->test, /*graph_batch=*/true, rng);
  session.Serve(data_->test, /*graph_batch=*/true, rng);
  const int64_t warm = internal::TensorHeapAllocCount();
  for (int i = 0; i < 3; ++i) {
    session.Serve(data_->test, /*graph_batch=*/true, rng);
  }
  EXPECT_EQ(internal::TensorHeapAllocCount(), warm)
      << "steady-state Serve must not allocate tensor memory on the heap";
  EXPECT_EQ(session.fallback_serves(), 0);
}

TEST_F(ServingSessionTest, ServeOnMatchesComposeDeploymentEndToEnd) {
  // The high-level API serves through a session; its logits and accuracy
  // must equal the from-scratch reference for both deployments and both
  // batch modes, warm-up and timed repeats included.
  std::unique_ptr<GnnModel> model = MakeModel(GnnArch::kSgc);
  for (const bool on_condensed : {true, false}) {
    for (const bool graph_batch : {true, false}) {
      SCOPED_TRACE(std::string(on_condensed ? "condensed" : "original") +
                   (graph_batch ? " graph-batch" : " node-batch"));
      const Tensor expect = ReferenceLogits(*model, data_->test,
                                             graph_batch, on_condensed);
      Rng rng(9);
      const InferenceResult res =
          on_condensed
              ? ServeOnCondensed(*model, *condensed_, data_->test,
                                 graph_batch, rng, /*repeats=*/2)
              : ServeOnOriginal(*model, data_->train_graph, data_->test,
                                graph_batch, rng, /*repeats=*/2);
      ExpectBitEqual(expect, res.logits);
      EXPECT_DOUBLE_EQ(res.accuracy,
                       AccuracyFromLogits(expect, data_->test.labels));
    }
  }
}

TEST(ServingSessionFallbackTest, RequestZeroingADegreeFallsBackForRowKindOnly) {
  // Ã row 0 sums to 0.5 (self-loop 1, edge -0.5), so no base is
  // fallback-only; a link of weight -0.5 brings it to exactly 0, and
  // RowNormalize then drops the row's entries. GraphSAGE (the row kind)
  // must take the exact fallback for that request; SGC and Cheby (the
  // symmetric kinds) scale the row by 0 and patch it.
  const int64_t n_base = 3, dim = 4, classes = 2;
  Rng grng(5);
  Graph g(CsrMatrix::FromTriplets(n_base, n_base,
                                  {{0, 1, -0.5f}, {1, 0, -0.5f},
                                   {1, 2, 1.0f}, {2, 1, 1.0f}}),
          grng.NormalTensor(n_base, dim), {0, 1, 0}, classes);
  HeldOutBatch batch;
  batch.features = grng.NormalTensor(2, dim);
  batch.links =
      CsrMatrix::FromTriplets(2, n_base, {{0, 0, -0.5f}, {1, 2, 1.0f}});
  batch.inter = CsrMatrix::FromTriplets(2, 2, {{0, 1, 1.0f}, {1, 0, 1.0f}});
  batch.labels = {0, 1};
  for (const GnnArch arch :
       {GnnArch::kGraphSage, GnnArch::kSgc, GnnArch::kCheby}) {
    for (const bool graph_batch : {true, false}) {
      SCOPED_TRACE(std::string(GnnArchName(arch)) +
                   (graph_batch ? " graph-batch" : " node-batch"));
      Rng mrng(7);
      std::unique_ptr<GnnModel> model =
          MakeGnn(arch, dim, classes, GnnConfig{}, mrng);
      const Deployment dep = ComposeDeployment(g, batch, graph_batch);
      Rng rrng(9);
      const Tensor expect =
          SliceRows(model->Predict(dep.operators, dep.features, rrng),
                    n_base, n_base + batch.size());
      ServingSession session(g, *model);
      Rng srng(9);
      ExpectBitEqual(expect, session.Serve(batch, graph_batch, srng));
      EXPECT_EQ(session.fallback_serves(),
                arch == GnnArch::kGraphSage ? 1 : 0);
    }
  }
}

TEST_F(ServingSessionTest, CondensedSessionRequiresMapping) {
  std::unique_ptr<GnnModel> model = MakeModel(GnnArch::kSgc);
  CondensedGraph no_mapping;
  no_mapping.graph = condensed_->graph;
  EXPECT_DEATH(ServingSession(no_mapping, *model), "mapping");
}

}  // namespace
}  // namespace mcond
