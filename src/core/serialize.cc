#include "core/serialize.h"

#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>

namespace mcond {

namespace {

// Layout (all little-endian):
//   Tensor:    u32 magic 'MCTN', u32 version, i64 rows, i64 cols,
//              rows*cols f32.
//   CsrMatrix: u32 magic 'MCSR', u32 version, i64 rows, i64 cols, i64 nnz,
//              (rows+1) i64 row_ptr, nnz i32 col_idx, nnz f32 values.
constexpr uint32_t kTensorMagic = 0x4e54434dU;  // 'MCTN'
constexpr uint32_t kCsrMagic = 0x5253434dU;     // 'MCSR'
constexpr uint32_t kVersion = 1;

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return in.good();
}

template <typename T>
void WriteArray(std::ostream& out, const T* data, size_t count) {
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(count * sizeof(T)));
}

template <typename T>
bool ReadArray(std::istream& in, T* data, size_t count) {
  in.read(reinterpret_cast<char*>(data),
          static_cast<std::streamsize>(count * sizeof(T)));
  return in.good() || (count == 0 && !in.bad());
}

Status CheckHeader(std::istream& in, uint32_t expected_magic,
                   const char* what) {
  uint32_t magic = 0, version = 0;
  if (!ReadPod(in, &magic) || !ReadPod(in, &version)) {
    return Status::InvalidArgument(std::string("truncated ") + what +
                                   " header");
  }
  if (magic != expected_magic) {
    return Status::InvalidArgument(std::string("bad magic for ") + what);
  }
  if (version != kVersion) {
    return Status::InvalidArgument(std::string("unsupported ") + what +
                                   " version");
  }
  return Status::Ok();
}

// Elements a header may declare at most, whatever the stream holds.
constexpr int64_t kMaxElements = int64_t{1} << 34;

/// Whether `count` elements of `elem_bytes` each fit in what `in` still
/// holds, so a hostile header cannot drive an allocation past the payload.
/// A stream that cannot seek is bounded by kMaxElements alone.
bool FitsInStream(std::istream& in, int64_t count, int64_t elem_bytes) {
  if (count < 0 || count > kMaxElements) return false;
  const std::streampos pos = in.tellg();
  if (pos < 0) return true;
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(pos);
  return count <= static_cast<int64_t>(end - pos) / elem_bytes;
}

}  // namespace

Status WriteTensor(std::ostream& out, const Tensor& t) {
  WritePod(out, kTensorMagic);
  WritePod(out, kVersion);
  WritePod(out, t.rows());
  WritePod(out, t.cols());
  WriteArray(out, t.data(), static_cast<size_t>(t.size()));
  if (!out.good()) return Status::Internal("tensor write failed");
  return Status::Ok();
}

StatusOr<Tensor> ReadTensor(std::istream& in) {
  MCOND_RETURN_IF_ERROR(CheckHeader(in, kTensorMagic, "tensor"));
  int64_t rows = 0, cols = 0;
  if (!ReadPod(in, &rows) || !ReadPod(in, &cols)) {
    return Status::InvalidArgument("truncated tensor shape");
  }
  // rows > kMaxElements / cols, not rows * cols > kMaxElements: the
  // product of two hostile int64s overflows.
  if (rows < 0 || cols < 0 || (cols > 0 && rows > kMaxElements / cols) ||
      !FitsInStream(in, rows * cols, sizeof(float))) {
    return Status::InvalidArgument("implausible tensor shape");
  }
  std::vector<float> data(static_cast<size_t>(rows * cols));
  if (!ReadArray(in, data.data(), data.size())) {
    return Status::InvalidArgument("truncated tensor payload");
  }
  return Tensor::FromVector(rows, cols, std::move(data));
}

Status WriteCsrMatrix(std::ostream& out, const CsrMatrix& m) {
  WritePod(out, kCsrMagic);
  WritePod(out, kVersion);
  WritePod(out, m.rows());
  WritePod(out, m.cols());
  WritePod(out, m.Nnz());
  WriteArray(out, m.row_ptr().data(), m.row_ptr().size());
  WriteArray(out, m.col_idx().data(), m.col_idx().size());
  WriteArray(out, m.values().data(), m.values().size());
  if (!out.good()) return Status::Internal("csr write failed");
  return Status::Ok();
}

StatusOr<CsrMatrix> ReadCsrMatrix(std::istream& in) {
  MCOND_RETURN_IF_ERROR(CheckHeader(in, kCsrMagic, "csr"));
  int64_t rows = 0, cols = 0, nnz = 0;
  if (!ReadPod(in, &rows) || !ReadPod(in, &cols) || !ReadPod(in, &nnz)) {
    return Status::InvalidArgument("truncated csr shape");
  }
  if (rows < 0 || cols < 0 || nnz < 0 ||
      !FitsInStream(in, rows, sizeof(int64_t)) ||
      !FitsInStream(in, nnz, sizeof(int32_t) + sizeof(float))) {
    return Status::InvalidArgument("implausible csr shape");
  }
  std::vector<int64_t> row_ptr(static_cast<size_t>(rows) + 1);
  std::vector<int32_t> col_idx(static_cast<size_t>(nnz));
  std::vector<float> values(static_cast<size_t>(nnz));
  if (!ReadArray(in, row_ptr.data(), row_ptr.size()) ||
      !ReadArray(in, col_idx.data(), col_idx.size()) ||
      !ReadArray(in, values.data(), values.size())) {
    return Status::InvalidArgument("truncated csr payload");
  }
  // Validate structure before rebuilding through the checked constructor.
  if (row_ptr.front() != 0 || row_ptr.back() != nnz) {
    return Status::InvalidArgument("corrupt csr row pointers");
  }
  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<size_t>(nnz));
  for (int64_t r = 0; r < rows; ++r) {
    if (row_ptr[static_cast<size_t>(r)] > row_ptr[static_cast<size_t>(r) + 1]) {
      return Status::InvalidArgument("corrupt csr row pointers");
    }
    for (int64_t k = row_ptr[static_cast<size_t>(r)];
         k < row_ptr[static_cast<size_t>(r) + 1]; ++k) {
      const int64_t c = col_idx[static_cast<size_t>(k)];
      if (c < 0 || c >= cols) {
        return Status::InvalidArgument("corrupt csr column index");
      }
      triplets.push_back({r, c, values[static_cast<size_t>(k)]});
    }
  }
  return CsrMatrix::FromTriplets(rows, cols, std::move(triplets));
}

namespace {

template <typename WriteFn, typename T>
Status SaveToFile(const std::string& path, const T& value, WriteFn fn) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::NotFound("cannot open for write: " + path);
  return fn(out, value);
}

}  // namespace

Status SaveTensor(const std::string& path, const Tensor& t) {
  return SaveToFile(path, t,
                    [](std::ostream& o, const Tensor& v) {
                      return WriteTensor(o, v);
                    });
}

StatusOr<Tensor> LoadTensor(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open: " + path);
  return ReadTensor(in);
}

Status SaveCsrMatrix(const std::string& path, const CsrMatrix& m) {
  return SaveToFile(path, m,
                    [](std::ostream& o, const CsrMatrix& v) {
                      return WriteCsrMatrix(o, v);
                    });
}

StatusOr<CsrMatrix> LoadCsrMatrix(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open: " + path);
  return ReadCsrMatrix(in);
}

}  // namespace mcond
