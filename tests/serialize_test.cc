#include "core/serialize.h"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>

#include <gtest/gtest.h>

#include "condense/artifact_io.h"
#include "core/rng.h"
#include "core/tensor_ops.h"
#include "data/synthetic.h"

namespace mcond {
namespace {

TEST(SerializeTest, TensorRoundTripStream) {
  Rng rng(1);
  Tensor t = rng.NormalTensor(7, 5);
  std::stringstream ss;
  ASSERT_TRUE(WriteTensor(ss, t).ok());
  StatusOr<Tensor> back = ReadTensor(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(AllClose(back.value(), t, 0.0f, 0.0f));
}

TEST(SerializeTest, EmptyTensorRoundTrip) {
  std::stringstream ss;
  ASSERT_TRUE(WriteTensor(ss, Tensor()).ok());
  StatusOr<Tensor> back = ReadTensor(ss);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().rows(), 0);
}

TEST(SerializeTest, CsrRoundTripStream) {
  CsrMatrix m = CsrMatrix::FromTriplets(
      4, 6, {{0, 5, 1.5f}, {2, 0, -2.0f}, {3, 3, 0.25f}});
  std::stringstream ss;
  ASSERT_TRUE(WriteCsrMatrix(ss, m).ok());
  StatusOr<CsrMatrix> back = ReadCsrMatrix(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().rows(), 4);
  EXPECT_EQ(back.value().cols(), 6);
  EXPECT_EQ(back.value().Nnz(), 3);
  EXPECT_TRUE(AllClose(back.value().ToDense(), m.ToDense(), 0.0f, 0.0f));
}

TEST(SerializeTest, BadMagicRejected) {
  std::stringstream ss;
  ss << "this is not a tensor file at all";
  StatusOr<Tensor> back = ReadTensor(ss);
  EXPECT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializeTest, TruncatedPayloadRejected) {
  Rng rng(2);
  Tensor t = rng.NormalTensor(8, 8);
  std::stringstream ss;
  ASSERT_TRUE(WriteTensor(ss, t).ok());
  std::string bytes = ss.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream truncated(bytes);
  EXPECT_FALSE(ReadTensor(truncated).ok());
}

TEST(SerializeTest, WrongTypeMagicRejected) {
  std::stringstream ss;
  ASSERT_TRUE(WriteTensor(ss, Tensor::Ones(2, 2)).ok());
  EXPECT_FALSE(ReadCsrMatrix(ss).ok());  // Tensor bytes read as CSR.
}

/// Overwrites the int64 header field at byte `offset` of a serialized
/// object.
std::stringstream WithHeaderField(const std::string& bytes, size_t offset,
                                  int64_t value) {
  std::string out = bytes;
  out.replace(offset, sizeof(value), reinterpret_cast<const char*>(&value),
              sizeof(value));
  return std::stringstream(out);
}

TEST(SerializeTest, OverflowingTensorShapeRejected) {
  // rows * cols = 4 * 2^62 wraps to 0 in int64: the shape check must not
  // multiply. Header: magic(4) + version(4) + rows(8) + cols(8).
  std::stringstream ss;
  ASSERT_TRUE(WriteTensor(ss, Tensor::Ones(4, 2)).ok());
  std::stringstream hostile =
      WithHeaderField(ss.str(), 16, int64_t{1} << 62);
  StatusOr<Tensor> back = ReadTensor(hostile);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializeTest, CsrRowCountBeyondStreamRejectedNotAllocated) {
  // rows = 2^40 would allocate 8 TiB of row pointers (std::bad_alloc);
  // allocations are bounded by the bytes the stream still holds.
  // Header: magic(4) + version(4) + rows(8) + cols(8) + nnz(8).
  std::stringstream ss;
  ASSERT_TRUE(
      WriteCsrMatrix(ss, CsrMatrix::FromTriplets(2, 2, {{0, 1, 1.0f}})).ok());
  std::stringstream hostile = WithHeaderField(ss.str(), 8, int64_t{1} << 40);
  StatusOr<CsrMatrix> back = ReadCsrMatrix(hostile);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializeTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/tensor.bin";
  Rng rng(3);
  Tensor t = rng.NormalTensor(3, 9);
  ASSERT_TRUE(SaveTensor(path, t).ok());
  StatusOr<Tensor> back = LoadTensor(path);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(AllClose(back.value(), t, 0.0f, 0.0f));
  std::remove(path.c_str());
  EXPECT_EQ(LoadTensor(path).status().code(), StatusCode::kNotFound);
}

TEST(ArtifactIoTest, CondensedGraphRoundTrip) {
  SbmConfig config;
  config.num_nodes = 40;
  config.num_classes = 3;
  config.feature_dim = 6;
  Rng rng(4);
  Graph g = GenerateSbmGraph(config, rng);
  CondensedGraph cg;
  cg.graph = g;
  cg.mapping = CsrMatrix::FromTriplets(
      100, 40, {{0, 1, 0.5f}, {99, 39, 0.25f}, {50, 0, 1.0f}});
  const std::string path = ::testing::TempDir() + "/artifact.bin";
  ASSERT_TRUE(SaveCondensedGraph(path, cg).ok());
  StatusOr<CondensedGraph> back = LoadCondensedGraph(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().graph.NumNodes(), 40);
  EXPECT_EQ(back.value().graph.num_classes(), 3);
  EXPECT_EQ(back.value().graph.labels(), g.labels());
  EXPECT_TRUE(AllClose(back.value().graph.features(), g.features()));
  EXPECT_TRUE(AllClose(back.value().graph.adjacency().ToDense(),
                       g.adjacency().ToDense()));
  EXPECT_EQ(back.value().mapping.Nnz(), 3);
  EXPECT_EQ(back.value().mapping.At(50, 0), 1.0f);
  std::remove(path.c_str());
}

TEST(ArtifactIoTest, NormalizedAdjacencyRebuiltOnLoad) {
  // Load must go through the Graph constructor so cached operators exist.
  SbmConfig config;
  config.num_nodes = 30;
  Rng rng(5);
  Graph g = GenerateSbmGraph(config, rng);
  CondensedGraph cg;
  cg.graph = g;
  cg.mapping = CsrMatrix::Identity(30);
  const std::string path = ::testing::TempDir() + "/artifact2.bin";
  ASSERT_TRUE(SaveCondensedGraph(path, cg).ok());
  StatusOr<CondensedGraph> back = LoadCondensedGraph(path);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(AllClose(back.value().graph.normalized_adjacency().ToDense(),
                       g.normalized_adjacency().ToDense(), 1e-6f, 1e-7f));
  std::remove(path.c_str());
}

TEST(ArtifactIoTest, MissingFileIsNotFound) {
  EXPECT_EQ(LoadCondensedGraph("/nonexistent/path.bin").status().code(),
            StatusCode::kNotFound);
}

TEST(ArtifactIoTest, GarbageFileIsInvalidArgument) {
  const std::string path = ::testing::TempDir() + "/garbage.bin";
  std::ofstream(path) << "garbage bytes here";
  EXPECT_EQ(LoadCondensedGraph(path).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

namespace {

CondensedGraph SmallArtifact() {
  SbmConfig config;
  config.num_nodes = 24;
  config.num_classes = 2;
  config.feature_dim = 4;
  Rng rng(6);
  CondensedGraph cg;
  cg.graph = GenerateSbmGraph(config, rng);
  cg.mapping = CsrMatrix::FromTriplets(50, 24, {{0, 0, 1.0f}, {49, 23, 0.5f}});
  return cg;
}

}  // namespace

TEST(ArtifactIoTest, AbsurdNodeCountInHeaderIsRejectedNotAllocated) {
  // A corrupt num_nodes field must come back as InvalidArgument — not a
  // multi-terabyte vector resize (std::bad_alloc / OOM kill).
  const std::string path = ::testing::TempDir() + "/corrupt_header.bin";
  ASSERT_TRUE(SaveCondensedGraph(path, SmallArtifact()).ok());
  {
    // Header: magic(4) + version(4) + num_classes(8) + num_nodes(8).
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    const int64_t absurd = int64_t{1} << 60;
    f.seekp(16);
    f.write(reinterpret_cast<const char*>(&absurd), sizeof(absurd));
  }
  StatusOr<CondensedGraph> back = LoadCondensedGraph(path);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(ArtifactIoTest, TruncatedArtifactIsCleanError) {
  const std::string path = ::testing::TempDir() + "/truncated_artifact.bin";
  ASSERT_TRUE(SaveCondensedGraph(path, SmallArtifact()).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // Every truncation point must produce an error Status, never a crash.
  for (size_t cut : {bytes.size() / 2, bytes.size() / 4, size_t{20}}) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();
    EXPECT_FALSE(LoadCondensedGraph(path).ok()) << "cut=" << cut;
  }
  std::remove(path.c_str());
}

TEST(ArtifactIoTest, MappingShapeMismatchIsRejected) {
  // Save never validates; load must — mapping columns have to match the
  // synthetic node count or downstream compose CHECK-aborts.
  CondensedGraph cg = SmallArtifact();
  cg.mapping = CsrMatrix::FromTriplets(50, 99, {{0, 0, 1.0f}});
  const std::string path = ::testing::TempDir() + "/bad_mapping.bin";
  ASSERT_TRUE(SaveCondensedGraph(path, cg).ok());
  StatusOr<CondensedGraph> back = LoadCondensedGraph(path);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mcond
