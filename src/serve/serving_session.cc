#include "serve/serving_session.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "core/parallel.h"
#include "graph/compose.h"
#include "graph/graph.h"
#include "obs/trace.h"

namespace mcond {

// ---------------------------------------------------------------------------
// Bit-exactness notes
//
// Every value this file produces must be memcmp-equal to what composing
// from scratch (ComposeBlockAdjacency + GraphOperators::FromAdjacency, i.e.
// ComposeDeployment) computes, so the float expressions below deliberately replicate those in
// graph/graph.cc and core/csr_matrix.cc:
//
//  - RowSums accumulates each row in a double, in storage order, and casts
//    to float once at the end. A composed base row is its base entries
//    followed by the appended link entries, so the session caches the
//    double partial sum of the base entries and continues the same
//    accumulation with the batch contribution.
//  - SymNormalize: dinv = deg > 0f ? 1.0f/std::sqrt(deg) : 0f, and each
//    value is (v * dinv[row]) * dinv[col] (left-to-right).
//  - RowNormalize: inv = deg != 0f ? 1.0f/deg : 0f, value = v * inv. Its
//    entry-dropping corner (deg == 0 with stored entries) changes the
//    structure and is routed to FallbackCompose instead.
//  - OperatorScale / ScaledEntry (session_base.h) are those expressions,
//    and ForEachSelfLoopEntry is AddSelfLoops' own merge.
//  - CsrMatrix::Multiply accumulates acc[c] += av*bv in (ka asc, kb asc)
//    order from an exact 0.0f, then emits each row's touched columns in
//    ascending order. ConvertLinks reproduces exactly that.
//
// The build-time caches live in a shared, immutable SessionBase (see
// session_base.h) so replica pools pay them once; this file only reads them.
// ---------------------------------------------------------------------------

namespace {

/// Grain tuned like the kernels': roughly bytes moved per row.
int64_t RowGrain(int64_t nnz, int64_t rows) {
  return GrainFromCost(2 * (nnz / std::max<int64_t>(rows, 1) + 1));
}

template <typename T>
int64_t VecBytes(const std::vector<T>& v) {
  return static_cast<int64_t>(v.capacity() * sizeof(T));
}

int64_t CsrStorageBytes(const CsrMatrix& m) {
  return VecBytes(m.row_ptr()) + VecBytes(m.col_idx()) + VecBytes(m.values());
}

/// Calls fn(j, v) for the entries batch row i holds after its links, in
/// composed order: its inter row (local columns j), with the self-loop
/// (i, 1) merged at its sorted column for the kinds that have one. `inter`
/// is null in the node-batch setting.
template <typename Fn>
void ForEachTailEntry(const CsrMatrix* inter, int64_t i, bool self_loops,
                      const Fn& fn) {
  if (inter == nullptr) {
    if (self_loops) fn(i, 1.0f);
  } else if (self_loops) {
    ForEachSelfLoopEntry(inter->View(), i, 1.0f, fn);
  } else {
    for (int64_t k = inter->row_ptr()[static_cast<size_t>(i)];
         k < inter->row_ptr()[static_cast<size_t>(i) + 1]; ++k) {
      fn(inter->col_idx()[static_cast<size_t>(k)],
         inter->values()[static_cast<size_t>(k)]);
    }
  }
}

}  // namespace

ServingSession::ServingSession(const Graph& base, GnnModel& model)
    : ServingSession(SessionBase::Build(base, {model.ReadsOperator()}),
                     model) {}

ServingSession::ServingSession(const CondensedGraph& condensed,
                               GnnModel& model)
    : ServingSession(SessionBase::Build(condensed, {model.ReadsOperator()}),
                     model) {}

ServingSession::ServingSession(std::shared_ptr<const SessionBase> base,
                               GnnModel& model)
    : base_(std::move(base)),
      model_(model),
      op_(base_->op(model.ReadsOperator())),
      requests_(obs::GetCounter("mcond.serve.session_requests")),
      fallbacks_(obs::GetCounter("mcond.serve.session_fallbacks")),
      convert_hist_(obs::GetHistogram("mcond.serve.session_convert_us")),
      compose_hist_(obs::GetHistogram("mcond.serve.session_compose_us")),
      forward_hist_(obs::GetHistogram("mcond.serve.session_forward_us")),
      total_hist_(obs::GetHistogram("mcond.serve.session_total_us")) {
  n_base_ = base_->n_base;
  feat_dim_ = base_->feat_dim;
  const size_t n = static_cast<size_t>(n_base_);
  changed_stamp_.assign(n, 0);
  changed_.reserve(n);
  extra_.resize(n);
  new_acc_.resize(n);
  new_scale_.resize(n);
  cursor_.resize(n);
  if (base_->mapping != nullptr) {
    conv_acc_.assign(n, 0.0f);
    conv_stamp_.assign(n, 0);
  }
}

void ServingSession::EnsureBatchShape(int64_t n) {
  if (n == cur_n_) return;
  // The only allocating path once a shape is warm. Runs with no arena
  // installed, so these tensors live on the heap and persist.
  features_ = Tensor::Uninitialized(n_base_ + n, feat_dim_);
  const float* src = base_->base_graph.features().data();
  ParallelFor(
      0, n_base_, RowGrain(n_base_ * feat_dim_, n_base_),
      [&](int64_t r0, int64_t r1) {
        std::memcpy(features_.RowData(r0), src + r0 * feat_dim_,
                    static_cast<size_t>((r1 - r0) * feat_dim_) *
                        sizeof(float));
      },
      "serve.session.base_features");
  b_scale_.resize(static_cast<size_t>(n));
  conv_rp_.resize(static_cast<size_t>(n) + 1);
  cur_n_ = n;
}

void ServingSession::BumpEpoch() {
  ++epoch_;
  if (epoch_ == 0) {  // wrapped: stamps from 4B requests ago could collide
    std::fill(changed_stamp_.begin(), changed_stamp_.end(), 0u);
    epoch_ = 1;
  }
}

ServingSession::LinksView ServingSession::ConvertLinks(
    const CsrMatrix& links) {
  const CsrMatrix& m = *base_->mapping;
  const int64_t n = links.rows();
  conv_ci_.clear();
  conv_v_.clear();
  conv_rp_[0] = 0;
  for (int64_t i = 0; i < n; ++i) {
    ++conv_epoch_;
    if (conv_epoch_ == 0) {
      std::fill(conv_stamp_.begin(), conv_stamp_.end(), 0u);
      conv_epoch_ = 1;
    }
    conv_touched_.clear();
    for (int64_t ka = links.row_ptr()[static_cast<size_t>(i)];
         ka < links.row_ptr()[static_cast<size_t>(i) + 1]; ++ka) {
      const float av = links.values()[static_cast<size_t>(ka)];
      const int32_t mid = links.col_idx()[static_cast<size_t>(ka)];
      for (int64_t kb = m.row_ptr()[static_cast<size_t>(mid)];
           kb < m.row_ptr()[static_cast<size_t>(mid) + 1]; ++kb) {
        const int32_t c = m.col_idx()[static_cast<size_t>(kb)];
        if (conv_stamp_[static_cast<size_t>(c)] != conv_epoch_) {
          conv_stamp_[static_cast<size_t>(c)] = conv_epoch_;
          conv_acc_[static_cast<size_t>(c)] = 0.0f;  // exact fresh start
          conv_touched_.push_back(c);
        }
        conv_acc_[static_cast<size_t>(c)] +=
            av * m.values()[static_cast<size_t>(kb)];
      }
    }
    std::sort(conv_touched_.begin(), conv_touched_.end());
    for (const int32_t c : conv_touched_) {
      conv_ci_.push_back(c);
      conv_v_.push_back(conv_acc_[static_cast<size_t>(c)]);
    }
    conv_rp_[static_cast<size_t>(i) + 1] =
        static_cast<int64_t>(conv_ci_.size());
  }
  return LinksView{conv_rp_.data(), conv_ci_.data(), conv_v_.data(),
                   static_cast<int64_t>(conv_ci_.size())};
}

bool ServingSession::ComputeDegrees(const LinksView& lv,
                                    const CsrMatrix* inter, int64_t n) {
  const bool sym = IsSymmetric(op_.kind);
  changed_.clear();
  // Base rows gaining a link, and their updated exact degree partials.
  // Iterating batch rows in ascending order appends each contribution in
  // exactly the order RowSums would visit the composed row's appended
  // entries.
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t k = lv.row_ptr[i]; k < lv.row_ptr[i + 1]; ++k) {
      const size_t cs = static_cast<size_t>(lv.col_idx[k]);
      if (changed_stamp_[cs] != epoch_) {
        changed_stamp_[cs] = epoch_;
        changed_.push_back(lv.col_idx[k]);
        extra_[cs] = 0;
        new_acc_[cs] = op_.deg_acc[cs];
      }
      ++extra_[cs];
      new_acc_[cs] += lv.values[k];
    }
  }
  for (const int32_t c : changed_) {
    const size_t cs = static_cast<size_t>(c);
    const float deg = static_cast<float>(new_acc_[cs]);
    // A changed base row stores at least its new link, so degree 0 means
    // RowNormalize would drop its entries.
    if (!sym && deg == 0.0f) return false;
    new_scale_[cs] = OperatorScale(sym, deg);
  }
  // Batch rows, accumulated in composed storage order: link entries first,
  // then the tail.
  for (int64_t i = 0; i < n; ++i) {
    double acc = 0.0;
    int64_t nnz = lv.row_ptr[i + 1] - lv.row_ptr[i];
    for (int64_t k = lv.row_ptr[i]; k < lv.row_ptr[i + 1]; ++k) {
      acc += lv.values[k];
    }
    ForEachTailEntry(inter, i, HasSelfLoops(op_.kind),
                     [&](int64_t, float v) {
                       acc += v;
                       ++nnz;
                     });
    const float deg = static_cast<float>(acc);
    if (!sym && deg == 0.0f && nnz > 0) return false;
    b_scale_[static_cast<size_t>(i)] = OperatorScale(sym, deg);
  }
  return true;
}

void ServingSession::BuildComposed(const LinksView& lv,
                                   const CsrMatrix* inter, int64_t n) {
  const CsrMatrix& s = op_.structure;
  const bool sym = IsSymmetric(op_.kind);
  const bool self_loops = HasSelfLoops(op_.kind);
  const int64_t total = n_base_ + n;
  const auto changed = [&](size_t r) { return changed_stamp_[r] == epoch_; };

  // Row extents: base rows grow by their appended links; batch rows hold
  // their links and then their tail.
  rp_.resize(static_cast<size_t>(total) + 1);
  rp_[0] = 0;
  for (int64_t r = 0; r < n_base_; ++r) {
    const size_t rs = static_cast<size_t>(r);
    rp_[rs + 1] = rp_[rs] + s.RowNnz(r) + (changed(rs) ? extra_[rs] : 0);
  }
  for (int64_t i = 0; i < n; ++i) {
    const size_t rs = static_cast<size_t>(n_base_ + i);
    int64_t tail = 0;
    ForEachTailEntry(inter, i, self_loops, [&](int64_t, float) { ++tail; });
    rp_[rs + 1] = rp_[rs] + (lv.row_ptr[i + 1] - lv.row_ptr[i]) + tail;
  }
  ci_.resize(static_cast<size_t>(rp_[static_cast<size_t>(total)]));
  v_.resize(ci_.size());

  // Compose pass, base rows: copy structure + cached normalized values in
  // parallel. Changed rows get their values overwritten by the patch pass.
  ParallelFor(
      0, n_base_, RowGrain(s.Nnz(), n_base_),
      [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const size_t rs = static_cast<size_t>(r);
          const int64_t src = s.row_ptr()[rs];
          const int64_t nb = s.RowNnz(r);
          const int64_t dst = rp_[rs];
          std::memcpy(ci_.data() + dst, s.col_idx().data() + src,
                      static_cast<size_t>(nb) * sizeof(int32_t));
          std::memcpy(v_.data() + dst, op_.values.data() + src,
                      static_cast<size_t>(nb) * sizeof(float));
          cursor_[rs] = dst + nb;
        }
      },
      "serve.session.base_rows");

  // Appended linksᵀ entries: serial ascending-i scatter keeps appended
  // columns N+i ascending within each base row. Both endpoints of every
  // appended entry changed degree this request, so values use the fresh
  // scales.
  for (int64_t i = 0; i < n; ++i) {
    const float di = b_scale_[static_cast<size_t>(i)];
    for (int64_t k = lv.row_ptr[i]; k < lv.row_ptr[i + 1]; ++k) {
      const size_t cs = static_cast<size_t>(lv.col_idx[k]);
      const size_t pos = static_cast<size_t>(cursor_[cs]++);
      ci_[pos] = static_cast<int32_t>(n_base_ + i);
      v_[pos] = ScaledEntry(sym, lv.values[k], new_scale_[cs], di);
    }
  }

  // Batch rows: link entries, then the tail.
  ParallelFor(
      0, n, RowGrain(lv.nnz + (inter ? inter->Nnz() : 0) + n, n),
      [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          const float di = b_scale_[static_cast<size_t>(i)];
          size_t dst =
              static_cast<size_t>(rp_[static_cast<size_t>(n_base_ + i)]);
          for (int64_t k = lv.row_ptr[i]; k < lv.row_ptr[i + 1]; ++k) {
            const int32_t c = lv.col_idx[k];
            ci_[dst] = c;
            v_[dst++] = ScaledEntry(sym, lv.values[k], di,
                                    new_scale_[static_cast<size_t>(c)]);
          }
          ForEachTailEntry(inter, i, self_loops, [&](int64_t j, float v) {
            ci_[dst] = static_cast<int32_t>(n_base_ + j);
            v_[dst++] =
                ScaledEntry(sym, v, di, b_scale_[static_cast<size_t>(j)]);
          });
        }
      },
      "serve.session.batch_rows");

  // Patch pass, one task per changed base node c: row c of the base block
  // takes its fresh row scale (its columns may be old or new), and, for the
  // symmetric kinds, column c's entries in unchanged rows take the fresh
  // column scale through the CSC index. A row patch writes only changed
  // rows and a column patch only unchanged ones, so writes stay disjoint.
  const int64_t changed_n = static_cast<int64_t>(changed_.size());
  ParallelFor(
      0, changed_n,
      RowGrain(changed_n * (s.Nnz() / std::max<int64_t>(n_base_, 1) + 1),
               std::max<int64_t>(changed_n, 1)),
      [&](int64_t i0, int64_t i1) {
        for (int64_t idx = i0; idx < i1; ++idx) {
          const size_t c =
              static_cast<size_t>(changed_[static_cast<size_t>(idx)]);
          const int64_t src = s.row_ptr()[c];
          const int64_t dst = rp_[c];
          for (int64_t k = 0; k < s.RowNnz(static_cast<int64_t>(c)); ++k) {
            const size_t ks = static_cast<size_t>(src + k);
            const size_t col = static_cast<size_t>(s.col_idx()[ks]);
            const float dc = changed(col) ? new_scale_[col] : op_.scale[col];
            v_[static_cast<size_t>(dst + k)] =
                ScaledEntry(sym, s.values()[ks], new_scale_[c], dc);
          }
          if (!sym) continue;  // row scaling reads no column degree
          for (int64_t t = op_.csc.col_ptr[c]; t < op_.csc.col_ptr[c + 1];
               ++t) {
            const size_t r =
                static_cast<size_t>(op_.csc.row[static_cast<size_t>(t)]);
            if (changed(r)) continue;
            const int64_t k = op_.csc.val_idx[static_cast<size_t>(t)];
            v_[static_cast<size_t>(rp_[r] + (k - s.row_ptr()[r]))] =
                ScaledEntry(sym, s.values()[static_cast<size_t>(k)],
                            op_.scale[r], new_scale_[c]);
          }
        }
      },
      "serve.session.patch");

  ops_.Get(op_.kind) = CsrMatrix::FromParts(total, total, std::move(rp_),
                                            std::move(ci_), std::move(v_),
                                            /*validate=*/false);
}

void ServingSession::FallbackCompose(const HeldOutBatch& batch,
                                     bool graph_batch, int64_t n) {
  ++fallback_serves_;
  fallbacks_.Increment();
  CsrMatrix owned_links;
  const CsrMatrix* links = &batch.links;
  if (base_->mapping != nullptr) {
    std::vector<int64_t> rp(conv_rp_.begin(), conv_rp_.begin() + n + 1);
    owned_links = CsrMatrix::FromParts(
        n, n_base_, std::move(rp), conv_ci_, conv_v_, /*validate=*/false);
    links = &owned_links;
  }
  const CsrMatrix no_inter = CsrMatrix::FromTriplets(n, n, {});
  const CsrMatrix composed =
      ComposeBlockAdjacency(base_->base_graph.adjacency(), *links,
                            graph_batch ? batch.inter : no_inter);
  // Only RowNormalize drops entries, so only the row kind falls back.
  ops_.row_norm = RowNormalize(AddSelfLoops(composed));
}

void ServingSession::StackBatchFeatures(const Tensor& batch_features) {
  const int64_t n = batch_features.rows();
  ParallelFor(
      0, n, RowGrain(n * feat_dim_, std::max<int64_t>(n, 1)),
      [&](int64_t i0, int64_t i1) {
        std::memcpy(features_.RowData(n_base_ + i0),
                    batch_features.RowData(i0),
                    static_cast<size_t>((i1 - i0) * feat_dim_) *
                        sizeof(float));
      },
      "serve.session.batch_features");
}

const Tensor& ServingSession::Serve(const HeldOutBatch& batch,
                                    bool graph_batch, Rng& rng) {
  obs::TraceSpan total_span("serve.session", /*always_time=*/true);
  const SessionBase& sb = *base_;
  const int64_t n = batch.size();
  MCOND_CHECK_GT(n, 0) << "cannot serve an empty batch";
  MCOND_CHECK_LE(n_base_ + n, std::numeric_limits<int32_t>::max());
  MCOND_CHECK_EQ(batch.features.cols(), feat_dim_);
  MCOND_CHECK_EQ(batch.links.rows(), n);
  if (sb.mapping != nullptr) {
    MCOND_CHECK_EQ(batch.links.cols(), sb.mapping->rows());
  } else {
    MCOND_CHECK_EQ(batch.links.cols(), n_base_);
  }
  const CsrMatrix* inter = nullptr;
  if (graph_batch) {
    MCOND_CHECK_EQ(batch.inter.rows(), n);
    MCOND_CHECK_EQ(batch.inter.cols(), n);
    inter = &batch.inter;
  }
  requests_.Increment();
  EnsureBatchShape(n);
  // Reclaim the CSR buffers the previous request moved into ops_.
  ops_.Get(op_.kind).TakeParts(&rp_, &ci_, &v_);
  BumpEpoch();
  arena_.Reset();

  int64_t links_nnz = 0;
  Tensor logits;  // arena-backed; contents copied out before the next Reset
  {
    internal::ScopedTensorArena arena_scope(&arena_);
    LinksView lv;
    {
      obs::TraceSpan span("serve.session.convert", /*always_time=*/true);
      if (sb.mapping != nullptr) {
        lv = ConvertLinks(batch.links);
      } else {
        lv = LinksView{batch.links.row_ptr().data(),
                       batch.links.col_idx().data(),
                       batch.links.values().data(), batch.links.Nnz()};
      }
      convert_hist_.Record(span.ElapsedMicros());
    }
    links_nnz = lv.nnz;
    {
      obs::TraceSpan span("serve.session.compose", /*always_time=*/true);
      const bool exact = !op_.fallback_only && ComputeDegrees(lv, inter, n);
      if (exact) {
        BuildComposed(lv, inter, n);
      } else {
        FallbackCompose(batch, graph_batch, n);
      }
      compose_hist_.Record(span.ElapsedMicros());
    }
    StackBatchFeatures(batch.features);
    {
      obs::TraceSpan span("serve.session.forward", /*always_time=*/true);
      logits = model_.Predict(ops_, features_, rng);
      forward_hist_.Record(span.ElapsedMicros());
    }
  }
  // The paper's memory model over the RAW composed adjacency (the CSR
  // bytes of ComposeDeployment's `adjacency`, before normalization).
  const int64_t raw_nnz = sb.base_graph.adjacency().Nnz() + 2 * links_nnz +
                          (inter != nullptr ? inter->Nnz() : 0);
  composed_csr_bytes_ =
      raw_nnz * static_cast<int64_t>(sizeof(float) + sizeof(int32_t)) +
      (n_base_ + n + 1) * static_cast<int64_t>(sizeof(int64_t));
  memory_bytes_ = composed_csr_bytes_ +
                  features_.size() * static_cast<int64_t>(sizeof(float));

  if (out_logits_.rows() != n || out_logits_.cols() != logits.cols()) {
    out_logits_ = Tensor::Uninitialized(n, logits.cols());  // heap: no arena
  }
  std::memcpy(out_logits_.data(), logits.RowData(n_base_),
              static_cast<size_t>(n * logits.cols()) * sizeof(float));
  total_hist_.Record(total_span.ElapsedMicros());
  return out_logits_;
}

int64_t ServingSession::workspace_bytes() const {
  int64_t bytes =
      VecBytes(conv_acc_) + VecBytes(conv_stamp_) + VecBytes(conv_touched_) +
      VecBytes(conv_rp_) + VecBytes(conv_ci_) + VecBytes(conv_v_) +
      VecBytes(changed_stamp_) + VecBytes(changed_) + VecBytes(extra_) +
      VecBytes(new_acc_) + VecBytes(new_scale_) + VecBytes(b_scale_) +
      VecBytes(rp_) + VecBytes(ci_) + VecBytes(v_) + VecBytes(cursor_);
  // Composed CSR storage currently parked inside ops_ (the scratch vectors
  // above are empty right after a serve moved them there — no double count).
  bytes += CsrStorageBytes(ops_.gcn_norm) + CsrStorageBytes(ops_.row_norm) +
           CsrStorageBytes(ops_.sym_no_loop);
  bytes += (features_.size() + out_logits_.size()) *
           static_cast<int64_t>(sizeof(float));
  bytes += static_cast<int64_t>(arena_.bytes_reserved());
  return bytes;
}

}  // namespace mcond
