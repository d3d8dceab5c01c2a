// Bit-identity gates for the out-of-core path: every streamed kernel, and
// one full condense round, must match the resident implementation exactly
// on a graph forced through multiple segments under a tiny memory budget.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>

#include "condense/mcond.h"
#include "core/parallel.h"
#include "core/tensor_ops.h"
#include "data/synthetic.h"
#include "graph/compose.h"
#include "graph/inductive.h"
#include "graph/sampling.h"
#include "graph/sharded_ops.h"

namespace mcond {
namespace {

std::string TempDir(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

Graph SbmGraph(int64_t n) {
  SbmConfig config;
  config.num_nodes = n;
  config.num_classes = 3;
  config.feature_dim = 16;
  config.avg_degree = 6.0;
  Rng rng(5);
  return GenerateSbmGraph(config, rng);
}

ShardOptions QuarterSegments(int64_t n) {
  ShardOptions options;
  options.max_rows_per_segment = n / 4;  // Force >= 4 segments.
  return options;
}

struct ShardedFixture {
  Graph graph;
  ShardedGraph sharded;
  std::string dir;

  explicit ShardedFixture(const std::string& name, int64_t n = 96,
                          int64_t mem_budget_bytes = 4096)
      : ShardedFixture(name, SbmGraph(n), QuarterSegments(n),
                       mem_budget_bytes) {}

  ShardedFixture(const std::string& name, Graph g,
                 const ShardOptions& options, int64_t mem_budget_bytes)
      : graph(std::move(g)), dir(TempDir(name)) {
    StatusOr<ShardedGraph> s =
        ShardGraph(graph, dir, options, mem_budget_bytes);
    EXPECT_TRUE(s.ok()) << s.status().ToString();
    sharded = std::move(s).value();
  }

  ~ShardedFixture() {
    sharded = ShardedGraph();  // Close stores before removing files.
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

void ExpectTensorsBitIdentical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.size()) * sizeof(float)),
            0);
}

void ExpectCsrBitIdentical(const ShardedCsr& sharded, const CsrMatrix& m) {
  ASSERT_EQ(sharded.rows(), m.rows());
  ASSERT_EQ(sharded.cols(), m.cols());
  ASSERT_EQ(sharded.Nnz(), m.Nnz());
  ASSERT_EQ(sharded.row_ptr(), m.row_ptr());
  for (int64_t s = 0; s < sharded.NumSegments(); ++s) {
    StatusOr<PinnedSegment> pin = sharded.Pin(s);
    ASSERT_TRUE(pin.ok());
    const CsrSegmentView& view = pin.value().view();
    const int64_t base = m.row_ptr()[static_cast<size_t>(view.row_begin)];
    ASSERT_EQ(std::memcmp(view.col_idx, m.col_idx().data() + base,
                          static_cast<size_t>(view.nnz) * sizeof(int32_t)),
              0);
    ASSERT_EQ(std::memcmp(view.values, m.values().data() + base,
                          static_cast<size_t>(view.nnz) * sizeof(float)),
              0);
  }
}

TEST(ShardedOpsTest, SpmmBitIdenticalToResident) {
  ShardedFixture f("sharded_ops_spmm");
  ASSERT_GE(f.sharded.normalized->NumSegments(), 4);
  StatusOr<Tensor> streamed =
      ShardedSpMM(*f.sharded.normalized, f.graph.features());
  ASSERT_TRUE(streamed.ok());
  ExpectTensorsBitIdentical(
      streamed.value(), f.graph.normalized_adjacency().SpMM(f.graph.features()));
}

TEST(ShardedOpsTest, RowSumsBitIdenticalToResident) {
  ShardedFixture f("sharded_ops_rowsums");
  StatusOr<std::vector<float>> streamed = ShardedRowSums(*f.sharded.adjacency);
  ASSERT_TRUE(streamed.ok());
  EXPECT_EQ(streamed.value(), f.graph.adjacency().RowSums());
}

TEST(ShardedOpsTest, SymNormalizeBitIdenticalToResident) {
  ShardedFixture f("sharded_ops_norm");
  // ShardGraph writes normalized.mcss from the resident matrix, so stream
  // the normalization from the adjacency store explicitly.
  ShardOptions options = QuarterSegments(f.graph.NumNodes());
  StatusOr<ShardedCsr> streamed = ShardedSymNormalize(
      *f.sharded.adjacency, f.dir + "/streamed_norm.mcss", options, 4096);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ExpectCsrBitIdentical(streamed.value(), f.graph.normalized_adjacency());
}

TEST(ShardedOpsTest, PropagateWithKeepMatchesGatherBitExact) {
  ShardedFixture f("sharded_ops_prop");
  const std::vector<int64_t> keep = {3, 17, 41, 90, 95};
  StatusOr<Tensor> streamed =
      ShardedPropagate(*f.sharded.normalized, f.graph.features(), 2, keep);
  ASSERT_TRUE(streamed.ok());
  Tensor full = f.graph.features();
  for (int i = 0; i < 2; ++i) {
    full = f.graph.normalized_adjacency().SpMM(full);
  }
  ExpectTensorsBitIdentical(streamed.value(), GatherRows(full, keep));
}

TEST(ShardedOpsTest, ComposeBitIdenticalToResident) {
  ShardedFixture f("sharded_ops_compose");
  Rng rng(9);
  InductiveDataset split = MakeInductiveSplit(f.graph, 0.2, 0.2, rng);
  // Compose the *train* graph with its val batch, resident and streamed.
  const std::string train_dir = TempDir("sharded_ops_compose_train");
  ShardOptions options;
  options.max_rows_per_segment =
      std::max<int64_t>(1, split.train_graph.NumNodes() / 4);
  StatusOr<ShardedGraph> train =
      ShardGraph(split.train_graph, train_dir, options, 4096);
  ASSERT_TRUE(train.ok());
  const CsrMatrix resident = ComposeBlockAdjacency(
      split.train_graph.adjacency(), split.val.links, split.val.inter);
  StatusOr<ShardedCsr> streamed = ShardedComposeBlockAdjacency(
      *train.value().adjacency, split.val.links, split.val.inter,
      train_dir + "/composed.mcss", options, 4096);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ExpectCsrBitIdentical(streamed.value(), resident);
  train = ShardedGraph{};  // Close the train stores before removing files.
  std::error_code ec;
  std::filesystem::remove_all(train_dir, ec);
}

TEST(ShardedOpsTest, EdgeSamplingReplaysResidentRngExactly) {
  ShardedFixture f("sharded_ops_sample");
  Rng resident_rng(123), sharded_rng(123);
  const EdgeBatch expect =
      SampleEdgeBatch(f.graph.adjacency(), 32, 32, resident_rng);
  StatusOr<EdgeBatch> got =
      ShardedSampleEdgeBatch(*f.sharded.adjacency, 32, 32, sharded_rng);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().src, expect.src);
  EXPECT_EQ(got.value().dst, expect.dst);
  EXPECT_EQ(got.value().target, expect.target);
}

// A hand-built 40-node adjacency that reaches the branches the SBM fixtures
// never do: stored diagonals (row 0 holds only its diagonal), a degree-0
// row, rows with columns on both sides of the diagonal (with and without a
// stored diagonal), an all-empty segment (rows 4..7) and a jumbo row (row
// 12, every column) that lands in a one-row segment over the byte target.
Graph EdgeCaseGraph() {
  const int64_t n = 40;
  std::vector<Triplet> t = {
      {0, 0, 2.0f},                                  // diagonal only
      {1, 0, 0.5f},  {1, 1, 1.5f},  {1, 5, 0.25f},   // both sides + diagonal
      {2, 0, 0.75f}, {2, 3, 1.25f},                  // both sides, no diagonal
      // row 3: degree 0; rows 4..7: the empty segment.
      {8, 2, 0.5f},  {8, 8, 3.0f},  {8, 30, 0.125f},
      {9, 9, 1.0f},
      {10, 1, 2.5f}, {10, 39, 0.5f},
      {11, 11, 0.5f}, {11, 12, 1.75f},
  };
  for (int64_t c = 0; c < n; ++c) {
    t.push_back({12, c, 0.1f * static_cast<float>(c + 1)});  // jumbo row
  }
  for (int64_t r = 13; r < n; ++r) {
    t.push_back({r, (r * 7) % n, 1.0f + 0.01f * static_cast<float>(r)});
    t.push_back({r, (r * 13 + 1) % n, 0.3f});
    if (r % 3 == 0) t.push_back({r, r, 0.7f});
  }
  CsrMatrix a = CsrMatrix::FromTriplets(n, n, t);
  Rng rng(3);
  Tensor x = rng.NormalTensor(n, 5);
  std::vector<int64_t> labels(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) labels[static_cast<size_t>(i)] = i % 2;
  return Graph(std::move(a), std::move(x), std::move(labels), 2);
}

TEST(ShardedOpsTest, EdgeCaseMatrixBitIdenticalAtOneAndEightThreads) {
  ShardOptions options;
  options.max_rows_per_segment = 4;
  options.target_segment_bytes = 256;
  ShardedFixture f("sharded_ops_edge_cases", EdgeCaseGraph(), options, 4096);
  const ShardedCsr& adj = *f.sharded.adjacency;
  const CsrMatrix& a = f.graph.adjacency();
  const CsrMatrix& norm = f.graph.normalized_adjacency();
  const Tensor& x = f.graph.features();

  bool has_empty_segment = false;
  bool has_jumbo_segment = false;
  for (const ShardedCsr::Segment& seg : adj.segments()) {
    has_empty_segment |= seg.nnz == 0;
    has_jumbo_segment |= seg.row_end - seg.row_begin == 1 &&
                         seg.byte_size > options.target_segment_bytes;
  }
  ASSERT_TRUE(has_empty_segment);
  ASSERT_TRUE(has_jumbo_segment);

  CsrMatrix links = CsrMatrix::FromTriplets(
      3, 40,
      {{0, 3, 1.0f}, {0, 12, 0.5f}, {2, 0, 1.0f}, {2, 5, 2.0f},
       {2, 39, 0.25f}});
  CsrMatrix inter = CsrMatrix::FromTriplets(3, 3, {{0, 2, 1.0f}, {2, 0, 1.0f}});
  const std::vector<int64_t> keep = {12, 3, 39, 5, 12, 0};

  const int original_threads = ThreadPool::Global().NumThreads();
  for (const int threads : {1, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ThreadPool::Global().SetNumThreads(threads);

    StatusOr<Tensor> spmm = ShardedSpMM(adj, x);
    ASSERT_TRUE(spmm.ok());
    ExpectTensorsBitIdentical(spmm.value(), a.SpMM(x));

    StatusOr<std::vector<float>> sums = ShardedRowSums(adj);
    ASSERT_TRUE(sums.ok());
    const std::vector<float> expect_sums = a.RowSums();
    ASSERT_EQ(sums.value().size(), expect_sums.size());
    EXPECT_EQ(std::memcmp(sums.value().data(), expect_sums.data(),
                          expect_sums.size() * sizeof(float)),
              0);

    const Tensor full = norm.SpMM(norm.SpMM(x));
    StatusOr<Tensor> prop = ShardedPropagate(*f.sharded.normalized, x, 2);
    ASSERT_TRUE(prop.ok());
    ExpectTensorsBitIdentical(prop.value(), full);
    StatusOr<Tensor> kept =
        ShardedPropagate(*f.sharded.normalized, x, 2, keep);
    ASSERT_TRUE(kept.ok());
    ExpectTensorsBitIdentical(kept.value(), GatherRows(full, keep));

    {
      StatusOr<ShardedCsr> streamed = ShardedSymNormalize(
          adj, f.dir + "/norm.mcss", options, 4096);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
      ExpectCsrBitIdentical(streamed.value(), norm);
    }
    {
      StatusOr<ShardedCsr> streamed = ShardedComposeBlockAdjacency(
          adj, links, inter, f.dir + "/composed.mcss", options, 4096);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
      ExpectCsrBitIdentical(streamed.value(),
                            ComposeBlockAdjacency(a, links, inter));
    }

    // A partial draw and the take-every-edge path (num_pos >= nnz).
    for (const int64_t num_pos : {int64_t{16}, int64_t{1000}}) {
      Rng resident_rng(99), sharded_rng(99);
      const EdgeBatch expect = SampleEdgeBatch(a, num_pos, 16, resident_rng);
      StatusOr<EdgeBatch> got =
          ShardedSampleEdgeBatch(adj, num_pos, 16, sharded_rng);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value().src, expect.src);
      EXPECT_EQ(got.value().dst, expect.dst);
      EXPECT_EQ(got.value().target, expect.target);
    }
  }
  ThreadPool::Global().SetNumThreads(original_threads);
}

TEST(ShardedCondenseTest, FullCondenseRoundBitIdenticalToResident) {
  SbmConfig config;
  config.num_nodes = 140;
  config.num_classes = 3;
  config.feature_dim = 12;
  config.avg_degree = 6.0;
  Rng rng(21);
  const Graph full = GenerateSbmGraph(config, rng);
  InductiveDataset split = MakeInductiveSplit(full, 0.15, 0.15, rng);

  const std::string dir = TempDir("sharded_condense_round");
  ShardOptions options;
  options.max_rows_per_segment =
      std::max<int64_t>(1, split.train_graph.NumNodes() / 4);
  StatusOr<ShardedGraph> sharded =
      ShardGraph(split.train_graph, dir, options, /*mem_budget_bytes=*/4096);
  ASSERT_TRUE(sharded.ok());
  ASSERT_GE(sharded.value().adjacency->NumSegments(), 4);

  MCondConfig mc;
  mc.outer_rounds = 1;
  mc.s_steps_per_round = 2;
  mc.m_steps_per_round = 2;
  mc.relay_refinement_steps = 2;
  mc.edge_batch = 16;

  const MCondResult resident =
      RunMCond(split.train_graph, split.val, 9, mc, 77);
  const MCondResult streamed =
      RunMCondSharded(sharded.value(), split.val, 9, mc, 77);

  ExpectTensorsBitIdentical(streamed.synthetic_features,
                            resident.synthetic_features);
  ExpectTensorsBitIdentical(streamed.dense_adjacency,
                            resident.dense_adjacency);
  ExpectTensorsBitIdentical(streamed.dense_mapping, resident.dense_mapping);
  EXPECT_EQ(streamed.synthetic_labels, resident.synthetic_labels);
  EXPECT_EQ(streamed.s_loss_history, resident.s_loss_history);
  EXPECT_EQ(streamed.m_loss_history, resident.m_loss_history);

  sharded = ShardedGraph{};
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(ShardedCondenseTest, GcondModeSkipsMappingState) {
  // learn_mapping=false (GCond mode, the XL configuration) must produce an
  // empty mapping and still bit-match resident.
  SbmConfig config;
  config.num_nodes = 96;
  config.num_classes = 3;
  config.feature_dim = 12;
  config.avg_degree = 6.0;
  Rng rng(33);
  const Graph full = GenerateSbmGraph(config, rng);
  InductiveDataset split = MakeInductiveSplit(full, 0.15, 0.15, rng);

  const std::string dir = TempDir("sharded_condense_gcond");
  ShardOptions options;
  options.max_rows_per_segment =
      std::max<int64_t>(1, split.train_graph.NumNodes() / 4);
  StatusOr<ShardedGraph> sharded = ShardGraph(split.train_graph, dir,
                                              options, 4096);
  ASSERT_TRUE(sharded.ok());

  MCondConfig mc;
  mc.outer_rounds = 1;
  mc.s_steps_per_round = 2;
  mc.learn_mapping = false;

  const MCondResult resident =
      RunMCond(split.train_graph, split.val, 6, mc, 13);
  const MCondResult streamed =
      RunMCondSharded(sharded.value(), split.val, 6, mc, 13);
  ExpectTensorsBitIdentical(streamed.synthetic_features,
                            resident.synthetic_features);
  ExpectTensorsBitIdentical(streamed.dense_adjacency,
                            resident.dense_adjacency);
  EXPECT_EQ(resident.dense_mapping.rows(), 0);
  EXPECT_EQ(streamed.dense_mapping.rows(), 0);

  sharded = ShardedGraph{};
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(ShardedGeneratorTest, ShardedSbmProducesValidSymmetricStore) {
  SbmConfig config;
  config.num_nodes = 300;
  config.num_classes = 4;
  config.feature_dim = 8;
  config.avg_degree = 6.0;
  Rng rng(41);
  const std::string dir = TempDir("sharded_sbm_gen");
  ShardOptions options;
  options.max_rows_per_segment = 64;
  StatusOr<ShardedGraph> g =
      GenerateSbmGraphSharded(config, rng, dir, options, 4096);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g.value().NumNodes(), 300);
  EXPECT_EQ(g.value().features.rows(), 300);
  EXPECT_EQ(g.value().features.cols(), 8);
  EXPECT_EQ(static_cast<int64_t>(g.value().labels.size()), 300);
  EXPECT_GE(g.value().adjacency->NumSegments(), 4);
  EXPECT_GT(g.value().adjacency->Nnz(), 0);
  // Realized density is close to (and never above) the target.
  EXPECT_LE(g.value().adjacency->Nnz(),
            2 * static_cast<int64_t>(config.avg_degree * 300 / 2));
  EXPECT_GT(g.value().adjacency->Nnz(),
            static_cast<int64_t>(config.avg_degree * 300 / 2));

  // Symmetry and no self-loops: check via a resident reconstruction.
  std::vector<Triplet> triplets;
  for (int64_t s = 0; s < g.value().adjacency->NumSegments(); ++s) {
    StatusOr<PinnedSegment> pin = g.value().adjacency->Pin(s);
    ASSERT_TRUE(pin.ok());
    const CsrSegmentView& view = pin.value().view();
    for (int64_t r = view.row_begin; r < view.row_end; ++r) {
      for (int64_t k = view.row_ptr[r - view.row_begin];
           k < view.row_ptr[r - view.row_begin + 1]; ++k) {
        triplets.push_back({r, view.col_idx[k], view.values[k]});
      }
    }
  }
  const CsrMatrix a = CsrMatrix::FromTriplets(300, 300, triplets);
  for (int64_t r = 0; r < a.rows(); ++r) {
    EXPECT_FALSE(a.HasEntry(r, r));
    for (int64_t k = a.row_ptr()[static_cast<size_t>(r)];
         k < a.row_ptr()[static_cast<size_t>(r) + 1]; ++k) {
      EXPECT_TRUE(
          a.HasEntry(a.col_idx()[static_cast<size_t>(k)], r));
    }
  }
  // Every class is populated (the generator's per-class guarantee).
  std::vector<int64_t> counts = g.value().ClassCounts();
  for (int64_t k = 0; k < config.num_classes; ++k) {
    EXPECT_GT(counts[static_cast<size_t>(k)], 0);
  }

  g = ShardedGraph{};
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace mcond
