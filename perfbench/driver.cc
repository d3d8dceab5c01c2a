// In-process half of the repository benchmark. perfbench/run.py builds this
// binary next to mcond_cli and calls one subcommand per step; every
// subcommand prints one JSON object as its last stdout line.
//
//   prepare   --workload W --dir D
//       Condenses the serving artifacts of a serve-* workload into D/registry
//       (not timed against the server; condense.wall_s reports its wall time).
//   load      --workload W --seed S --dir D --port P --server_pid PID
//             --rate R --seconds T [--trace 1]
//       Load against a running `mcond_cli serve --listen`: an open loop at
//       R req/s for T seconds. Server CPU per request is sampled from /proc
//       at half-second window boundaries; latency is timed from each
//       request's scheduled send. Checks every response against an
//       in-process ServingSession. With --trace 1 it then times blocking
//       NetClient calls and replays the same batches through the wire
//       functions, ServingSession::Serve, ConcurrentServer::ServeSync,
//       LoadCondensedGraph and ModelRegistry::AddTenant, each call an obs
//       span. The spans go to D/bench_trace_load.json (open loop) and
//       D/bench_trace_replay.json (the rest).
//   condense  --seed S --seconds T --dir D
//       Resident RunMCond (Algorithm 1) on reddit-sim, repeated for T
//       seconds, then SGC on each artifact serving the test split (Eq. 11).
//   ooc-build --dir D
//       Writes the DC-SBM segment store once (GenerateSbmGraphSharded).
//   ooc-ref   --dir D --seed S
//       Resident RunMCond on the store's graph: the reference digest the
//       streamed run must reproduce bit for bit.
//   ooc       --dir D --seed S --seconds T --out F --ref_digest H
//       RunMCondSharded under a memory budget several times smaller than
//       the store, repeated for T seconds; the digest must equal H.
//
// Common flags: --threads N (kernel pool width), --toy 1 (tiny inputs for
// the self-test), --trace 1 (per-layer numbers instead of end-to-end ones).
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <arpa/inet.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "condense/artifact_io.h"
#include "condense/mcond.h"
#include "core/parallel.h"
#include "core/segment_prefetcher.h"
#include "core/serialize.h"
#include "core/sharded_csr.h"
#include "core/simd.h"
#include "data/datasets.h"
#include "data/synthetic.h"
#include "eval/batching.h"
#include "eval/inference.h"
#include "graph/sharded_ops.h"
#include "net/model_registry.h"
#include "net/net_client.h"
#include "net/wire.h"
#include "nn/metrics.h"
#include "obs/export.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/concurrent_server.h"
#include "serve/serving_session.h"

namespace mcond {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double NowS() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Flags and output.
// ---------------------------------------------------------------------------

struct Flags {
  std::map<std::string, std::string> kv;
  std::string Get(const std::string& k, const std::string& def = "") const {
    const auto it = kv.find(k);
    return it == kv.end() ? def : it->second;
  }
  double Num(const std::string& k, double def) const {
    const std::string v = Get(k);
    return v.empty() ? def : std::stod(v);
  }
  bool On(const std::string& k) const { return Num(k, 0) != 0; }
};

/// Flat JSON object printed as the subcommand's last stdout line.
class Result {
 public:
  void Set(const std::string& k, double v) { num_[k] = v; }
  void Add(const std::string& k, double v) { num_[k] += v; }
  void Str(const std::string& k, const std::string& v) { str_[k] = v; }
  void Print() const {
    std::string out = "{";
    for (const auto& [k, v] : num_) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : -1.0);
      out += "\"" + k + "\": " + buf + ", ";
    }
    for (const auto& [k, v] : str_) out += "\"" + k + "\": \"" + v + "\", ";
    if (out.size() > 1) out.resize(out.size() - 2);
    std::printf("%s}\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  std::map<std::string, double> num_;
  std::map<std::string, std::string> str_;
};

// ---------------------------------------------------------------------------
// Statistics on raw samples: exact order statistics, never bucketed.
// ---------------------------------------------------------------------------

/// Nearest-rank quantile: the ceil(q·n)-th smallest sample.
double OrderStat(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return v[rank - 1];
}

double Median(const std::vector<double>& v) { return OrderStat(v, 0.5); }

// ---------------------------------------------------------------------------
// Digests and /proc probes.
// ---------------------------------------------------------------------------

constexpr uint64_t kFnvSeed = 1469598103934665603ull;

template <typename T>
uint64_t Fold(uint64_t h, const T* data, size_t count) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(data);
  for (size_t i = 0; i < count * sizeof(T); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ull;
  }
  return h;
}

uint64_t TensorDigest(const Tensor& t) {
  return Fold(kFnvSeed, t.data(), static_cast<size_t>(t.size()));
}

uint64_t CsrDigest(uint64_t h, const CsrMatrix& m) {
  h = Fold(h, m.row_ptr().data(), m.row_ptr().size());
  h = Fold(h, m.col_idx().data(), m.col_idx().size());
  return Fold(h, m.values().data(), m.values().size());
}

uint64_t ArtifactDigest(const CondensedGraph& cg) {
  uint64_t h = TensorDigest(cg.graph.features());
  h = CsrDigest(h, cg.graph.adjacency());
  h = Fold(h, cg.graph.labels().data(), cg.graph.labels().size());
  return CsrDigest(h, cg.mapping);
}

uint64_t CondenseDigest(const MCondResult& r) {
  uint64_t h = TensorDigest(r.synthetic_features);
  h = Fold(h, r.dense_adjacency.data(),
           static_cast<size_t>(r.dense_adjacency.size()));
  return Fold(h, r.s_loss_history.data(), r.s_loss_history.size());
}

std::string Hex(uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

/// On-CPU seconds (user+sys) of this process, all threads. The kernel
/// leaves time stolen by the hypervisor out of it, so unlike wall time it
/// does not move with the load of the other guests on the host.
double ProcessCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// On-CPU seconds (user+sys) of each thread of a process, keyed by tid,
/// from the nanosecond counters in /proc/<pid>/task/<tid>/schedstat
/// (/proc/<pid>/stat counts 10 ms ticks, too coarse for one window).
std::map<int, double> ThreadCpuSeconds(int pid) {
  std::map<int, double> out;
  const fs::path dir = "/proc/" + std::to_string(pid) + "/task";
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::ifstream in(entry.path() / "schedstat");
    double ns = 0.0;
    if (in >> ns) out[std::atoi(entry.path().filename().c_str())] = ns * 1e-9;
  }
  return out;
}

double PidCpuSeconds(int pid) {
  double total = 0.0;
  for (const auto& [tid, s] : ThreadCpuSeconds(pid)) total += s;
  return total;
}

/// VmHWM of a process in MiB.
double PeakRssMb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

/// Sum of the samples of one of this process's metric histograms.
double HistSum(const std::string& name) {
  return static_cast<double>(obs::GetHistogram(name).Snapshot().sum);
}

double CounterValue(const std::string& name) {
  return static_cast<double>(obs::GetCounter(name).Value());
}

/// Records the kernel pool's width and the SIMD tier into the result.
void RecordContext(Result& r) {
  r.Set("ctx.pool_threads", ThreadPool::Global().NumThreads());
  r.Str("ctx.simd", simd::TierName(simd::ActiveTier()));
}

// ---------------------------------------------------------------------------
// Serving workloads.
// ---------------------------------------------------------------------------

/// Totals over every span called `name` in this process's obs trace ring:
/// summed duration, summed self time (duration minus the spans nested
/// directly inside it), and the number of spans.
struct SpanTotals {
  double dur_us = 0.0;
  double self_us = 0.0;
  int64_t count = 0;
  double MeanUs() const { return count > 0 ? dur_us / count : 0.0; }
  double MeanSelfUs() const { return count > 0 ? self_us / count : 0.0; }
};

SpanTotals SumSpans(const std::vector<obs::TraceEvent>& events,
                    const std::string& name) {
  std::vector<const obs::TraceEvent*> spans;
  for (const obs::TraceEvent& e : events) {
    if (e.kind == obs::TraceEvent::Kind::kSpan) spans.push_back(&e);
  }
  std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
    return std::tie(a->tid, a->start_us, a->depth) <
           std::tie(b->tid, b->start_us, b->depth);
  });
  // Walk each thread's spans in start order with a stack of open spans; a
  // span's parent is the innermost open span one level shallower.
  std::vector<double> child(spans.size(), 0.0);
  std::vector<size_t> open;
  for (size_t i = 0; i < spans.size(); ++i) {
    const obs::TraceEvent& e = *spans[i];
    while (!open.empty()) {
      const obs::TraceEvent& top = *spans[open.back()];
      if (top.tid == e.tid && top.depth < e.depth &&
          e.start_us + e.dur_us <= top.start_us + top.dur_us) {
        break;
      }
      open.pop_back();
    }
    if (!open.empty() && spans[open.back()]->depth + 1 == e.depth) {
      child[open.back()] += static_cast<double>(e.dur_us);
    }
    open.push_back(i);
  }
  SpanTotals t;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (name == spans[i]->name) {
      t.dur_us += static_cast<double>(spans[i]->dur_us);
      t.self_us += static_cast<double>(spans[i]->dur_us) - child[i];
      ++t.count;
    }
  }
  return t;
}

/// Writes the recorded spans as Chrome trace JSON and empties the ring.
void WriteTrace(const std::string& path) {
  if (obs::TraceEventsDropped() > 0) {
    MCOND_LOG(WARN) << obs::TraceEventsDropped()
                    << " trace events dropped before " << path;
  }
  MCOND_CHECK(obs::WriteTraceJson(path).ok());
  obs::ClearTrace();
}

/// Mean duration (µs) of the `name` spans recorded so far.
double MeanSpanUs(const char* name) {
  return SumSpans(obs::TraceSnapshot(), name).MeanUs();
}

/// The synthetic graph without its edges: X' and Y' only.
CondensedGraph FeaturesOnly(const CondensedGraph& cg) {
  CondensedGraph out;
  const int64_t n = cg.graph.NumNodes();
  out.graph = Graph(CsrMatrix::FromTriplets(n, n, {}), cg.graph.features(),
                    cg.graph.labels(), cg.graph.num_classes());
  return out;
}

/// Quality guard on a condensed artifact, GCond-X protocol: an SGC trained
/// on X' alone (DefaultSgcFactory at `seed`) classifies the test split
/// attached to the original training graph (Eq. 3). Eq. 11 accuracy at the
/// benchmark's shortened schedules swings by tens of points between seeds;
/// this measure of the same synthetic features does not.
double GcondXAccuracy(const CondensedGraph& cg, const InductiveDataset& data,
                      uint64_t seed) {
  StatusOr<std::unique_ptr<GnnModel>> model =
      net::ModelRegistry::DefaultSgcFactory(300, seed)(FeaturesOnly(cg));
  MCOND_CHECK(model.ok()) << model.status().ToString();
  Rng rng(seed);
  const InferenceResult res = ServeOnOriginal(
      *model.value(), data.train_graph, data.test, /*graph_batch=*/true, rng,
      /*repeats=*/1);
  return 100.0 * AccuracyFromLogits(res.logits, data.test.labels);
}

struct ServeSpec {
  std::string dataset;
  int tenants = 1;
  int64_t batch = 8;
  double ratio = 0.032;
  /// Outer MCond rounds of the artifact's condensation; 0 = the dataset's
  /// own schedule (condensation_epochs / 15, as `mcond_cli condense`).
  int64_t outer_rounds = 0;
};

ServeSpec ServeSpecFor(const std::string& workload, bool toy) {
  ServeSpec s;
  if (workload == "serve-small") {
    s.dataset = "pubmed-sim";
    s.tenants = 2;
    s.batch = 8;
  } else if (workload == "serve-large") {
    // A shortened schedule keeps the artifact inside the run's time budget;
    // the mapping's nnz (what aM conversion costs) is already ~50k after one
    // round, against ~54k at the full schedule.
    s.dataset = "reddit-sim";
    s.tenants = 1;
    s.batch = 64;
    s.outer_rounds = 1;
  } else {
    MCOND_CHECK(false) << "unknown serve workload " << workload;
  }
  if (toy) {
    s.dataset = "tiny-sim";
    s.outer_rounds = 1;
  }
  return s;
}

/// Every workload runs on its named dataset as `mcond_cli` generates it by
/// default, and the serving workloads serve fixed models: artifacts
/// condensed from fixed seeds, SGCs trained from a fixed seed (run.py starts
/// the server with the same one). A serving run's --seed picks the order of
/// the request stream; a condense run's --seed seeds its condensations.
/// Regenerating the graph, the artifacts or the SGC per seed moved the
/// server's CPU per request by 4-14% (IQR/median over five to ten seeds) and
/// its set-up time by 11-18%, while repeats of one seed agreed within 1% and
/// 4%.
constexpr uint64_t kFixedSeed = 1;

std::string TenantName(int t) {
  std::string name = "t";
  name += std::to_string(t);
  return name;
}

std::string ArtifactPath(const std::string& dir, int t) {
  return dir + "/registry/" + TenantName(t) + ".bin";
}

int CmdPrepare(const Flags& f) {
  const ServeSpec spec = ServeSpecFor(f.Get("workload"), f.On("toy"));
  const std::string dir = f.Get("dir");
  fs::create_directories(dir + "/registry");
  Result r;
  RecordContext(r);
  StatusOr<DatasetSpec> ds = FindDatasetSpec(spec.dataset);
  MCOND_CHECK(ds.ok()) << ds.status().ToString();
  const double gen0 = NowS();
  const InductiveDataset data = MakeDataset(ds.value(), kFixedSeed);
  r.Set("data.generate_s", NowS() - gen0);
  const bool trace = f.On("trace");
  obs::EnableTracing(trace);
  MCondConfig config;
  config.outer_rounds =
      spec.outer_rounds > 0
          ? spec.outer_rounds
          : std::max<int64_t>(1, ds.value().condensation_epochs / 15);
  const int64_t n_syn = SyntheticNodeCount(data.train_graph, spec.ratio);
  int64_t failed = 0;
  for (int t = 0; t < spec.tenants; ++t) {
    const double t0 = NowS();
    const MCondResult res =
        RunMCond(data.train_graph, data.val, n_syn, config,
                 kFixedSeed * 100 + static_cast<uint64_t>(t) + 1);
    r.Add("condense.wall_s", NowS() - t0);
    const std::string path = ArtifactPath(dir, t);
    const Status st = SaveCondensedGraph(path, res.condensed);
    StatusOr<CondensedGraph> back = LoadCondensedGraph(path);
    if (!st.ok() || !back.ok() ||
        ArtifactDigest(back.value()) != ArtifactDigest(res.condensed)) {
      ++failed;
    }
    r.Set("artifact.mapping_nnz", static_cast<double>(res.condensed.mapping.Nnz()));
    r.Set("artifact.synthetic_nodes",
          static_cast<double>(res.condensed.graph.NumNodes()));
  }
  if (trace) {
    const std::vector<obs::TraceEvent> events = obs::TraceSnapshot();
    r.Set("condense.s_step_ms", SumSpans(events, "condense.s_step").self_us / 1e3);
    r.Set("condense.m_step_ms", SumSpans(events, "condense.m_step").self_us / 1e3);
    r.Set("condense.relay_ms",
          SumSpans(events, "condense.mapping_update").self_us / 1e3);
  }
  r.Set("ops", spec.tenants);
  r.Set("ops_failed", static_cast<double>(failed));
  r.Print();
  return 0;
}

/// One connection of the open-loop generator: blocking writes of
/// pre-encoded frames, non-blocking reads parsed with the wire functions.
struct Conn {
  int fd = -1;
  std::vector<uint8_t> rbuf;
  size_t rlen = 0;
};

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  MCOND_CHECK(fd >= 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  MCOND_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)) == 0)
      << "connect to port " << port << ": " << std::strerror(errno);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool WriteAll(int fd, const uint8_t* p, size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

/// The in-process reference for one tenant: artifact, model from the same
/// factory and seed as the server, and one ServingSession.
struct Reference {
  std::unique_ptr<CondensedGraph> artifact;
  std::unique_ptr<GnnModel> model;
  std::vector<uint64_t> digests;       // per batch
  std::vector<std::vector<int64_t>> argmax;  // per batch
};

std::vector<int64_t> ArgMax(const float* logits, int64_t n, int64_t c) {
  std::vector<int64_t> out(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const float* row = logits + i * c;
    out[static_cast<size_t>(i)] = std::max_element(row, row + c) - row;
  }
  return out;
}

struct Sample {
  double scheduled = 0.0;
  double sent = 0.0;
  double done = -1.0;
  int tenant = 0;
  int batch = 0;
  bool ok = false;
};

struct LoadStats {
  std::vector<double> latency_us;  // failed requests count as the timeout
  std::vector<double> late_us;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t correct_nodes = 0;
  int64_t labeled_nodes = 0;
  int64_t agreeing_nodes = 0;
  int64_t served_nodes = 0;
  double send_s = 0.0;
  double rtt_mean_us = 0.0;
  // Server CPU per served request, one value per measurement window.
  std::vector<double> window_cpu_us;
};

/// Sends `count` requests at `rate` req/s, alternating tenants, each tenant
/// cycling through its batches; reads replies on the same thread. Requests
/// are grouped into windows of `per_window` consecutive sends; the server's
/// CPU (process `pid`) is sampled at each window boundary. With tracing on,
/// every send is an obs span whose flow id is the request id.
LoadStats OpenLoop(std::vector<Conn>& conns,
                   std::vector<std::vector<std::vector<uint8_t>>>& frames,
                   const std::vector<Reference>& refs,
                   const std::vector<HeldOutBatch>& batches, double rate,
                   int64_t count, int64_t per_window, int pid,
                   uint64_t first_id) {
  std::vector<double> cpu_marks;
  const int tenants = static_cast<int>(conns.size());
  const int nb = static_cast<int>(batches.size());
  std::vector<Sample> samples(static_cast<size_t>(count));
  std::vector<pollfd> pfds(conns.size());
  for (size_t i = 0; i < conns.size(); ++i) {
    pfds[i] = {conns[i].fd, POLLIN, 0};
  }
  LoadStats st;
  const double period = 1.0 / rate;
  const double t0 = NowS() + 0.001;
  const double timeout_s = 2.0;
  int64_t next = 0, outstanding = 0;
  double deadline = 0.0;
  net::ResponseView view;
  while (true) {
    double now = NowS();
    while (next < count && t0 + static_cast<double>(next) * period <= now) {
      if (next % per_window == 0) cpu_marks.push_back(PidCpuSeconds(pid));
      Sample& s = samples[static_cast<size_t>(next)];
      s.scheduled = t0 + static_cast<double>(next) * period;
      s.tenant = static_cast<int>(next % tenants);
      s.batch = static_cast<int>((next / tenants) % nb);
      std::vector<uint8_t>& frame =
          frames[static_cast<size_t>(s.tenant)][static_cast<size_t>(s.batch)];
      const uint64_t id = first_id + static_cast<uint64_t>(next);
      std::memcpy(frame.data() + net::kFrameHeaderBytes, &id, sizeof(id));
      s.sent = NowS();
      {
        obs::TraceSpan span("bench.request");
        span.SetFlow(id, obs::FlowPhase::kStart);
        if (!WriteAll(conns[static_cast<size_t>(s.tenant)].fd, frame.data(),
                      frame.size())) {
          s.done = -2.0;  // never answered: counts as failed
        }
      }
      if (s.done == -1.0) ++outstanding;
      ++next;
      now = NowS();
    }
    if (next == count) {
      if (deadline == 0.0) deadline = now + timeout_s;
      if (outstanding == 0 || now > deadline) break;
    }
    // Busy-poll: a vCPU that sleeps until the next send can wake
    // milliseconds late on a shared host, and then the generator, not the
    // server, would set the schedule. The generator owns one CPU of the
    // budget.
    const int ready = ::poll(pfds.data(), pfds.size(), 0);
    if (ready <= 0) continue;
    for (size_t c = 0; c < conns.size(); ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& conn = conns[c];
      if (conn.rbuf.size() - conn.rlen < 65536) {
        conn.rbuf.resize(conn.rlen + (1 << 20));
      }
      const ssize_t n = ::recv(conn.fd, conn.rbuf.data() + conn.rlen,
                               conn.rbuf.size() - conn.rlen, MSG_DONTWAIT);
      if (n <= 0) {
        if (n == 0 || (errno != EAGAIN && errno != EINTR)) {
          pfds[c].events = 0;  // connection gone; the rest time out
        }
        continue;
      }
      const double recv_t = NowS();
      conn.rlen += static_cast<size_t>(n);
      size_t off = 0;
      while (conn.rlen - off >= net::kFrameHeaderBytes) {
        net::FrameHeader hdr;
        const Status hs = net::ParseFrameHeader(
            conn.rbuf.data() + off, conn.rlen - off, net::kDefaultMaxBodyBytes,
            &hdr);
        if (!hs.ok()) {
          // A broken stream: drop it; its unanswered requests time out.
          MCOND_LOG(WARN) << "bad response frame: " << hs.ToString();
          pfds[c].events = 0;
          off = conn.rlen;
          break;
        }
        const size_t total = net::kFrameHeaderBytes + hdr.body_len;
        if (conn.rlen - off < total) break;
        // The body must start 8-byte aligned for the zero-copy view.
        if (off % 8 != 0) {
          std::memmove(conn.rbuf.data(), conn.rbuf.data() + off,
                       conn.rlen - off);
          conn.rlen -= off;
          off = 0;
        }
        const Status ps = net::ParseResponseBody(
            conn.rbuf.data() + off + net::kFrameHeaderBytes, hdr.body_len,
            &view);
        off += total;
        if (!ps.ok()) continue;
        const int64_t idx = static_cast<int64_t>(view.request_id - first_id);
        if (idx < 0 || idx >= count) continue;
        Sample& s = samples[static_cast<size_t>(idx)];
        if (s.done != -1.0) continue;
        s.done = recv_t;
        --outstanding;
        const Reference& ref = refs[static_cast<size_t>(s.tenant)];
        if (view.status == net::WireStatus::kOk) {
          const uint64_t d = Fold(kFnvSeed, view.logits,
                                  static_cast<size_t>(view.n * view.num_classes));
          s.ok = d == ref.digests[static_cast<size_t>(s.batch)];
          const std::vector<int64_t> pred =
              ArgMax(view.logits, view.n, view.num_classes);
          const std::vector<int64_t>& want =
              ref.argmax[static_cast<size_t>(s.batch)];
          for (size_t i = 0; i < pred.size() && i < want.size(); ++i) {
            ++st.served_nodes;
            st.agreeing_nodes += pred[i] == want[i] ? 1 : 0;
          }
          const std::vector<int64_t>& labels =
              batches[static_cast<size_t>(s.batch)].labels;
          for (size_t i = 0; i < pred.size() && i < labels.size(); ++i) {
            if (labels[i] < 0) continue;
            ++st.labeled_nodes;
            st.correct_nodes += pred[i] == labels[i] ? 1 : 0;
          }
        }
      }
      if (off > 0) {
        std::memmove(conn.rbuf.data(), conn.rbuf.data() + off,
                     conn.rlen - off);
        conn.rlen -= off;
      }
    }
  }
  // The send phase spans `count` periods when the generator keeps up.
  st.send_s = samples.back().sent - t0 + period;
  cpu_marks.push_back(PidCpuSeconds(pid));
  double rtt_sum = 0.0;
  int64_t rtt_n = 0;
  for (const Sample& s : samples) {
    ++st.attempted;
    st.late_us.push_back((s.sent - s.scheduled) * 1e6);
    if (s.ok) {
      st.latency_us.push_back((s.done - s.scheduled) * 1e6);
      rtt_sum += (s.done - s.sent) * 1e6;
      ++rtt_n;
    } else {
      // Rejected, wrong, errored or unanswered: failed, and past any
      // latency limit.
      ++st.failed;
      st.latency_us.push_back(timeout_s * 1e6);
    }
  }
  st.rtt_mean_us = rtt_n > 0 ? rtt_sum / static_cast<double>(rtt_n) : 0.0;
  for (size_t w = 0; w + 1 < cpu_marks.size(); ++w) {
    const size_t lo = w * static_cast<size_t>(per_window);
    const size_t hi = std::min(samples.size(), lo + static_cast<size_t>(per_window));
    int64_t served = 0;
    for (size_t i = lo; i < hi; ++i) served += samples[i].ok ? 1 : 0;
    st.window_cpu_us.push_back((cpu_marks[w + 1] - cpu_marks[w]) * 1e6 /
                               static_cast<double>(std::max<int64_t>(1, served)));
  }
  return st;
}

/// Blocking NetClient calls, one outstanding at a time, alternating tenants
/// over one connection each; each call is an obs span with the request id.
/// A transport error or a wrong reply counts as failed; the connection is
/// then reopened and the run goes on.
void ClientCalls(int port, int tenants, const std::vector<HeldOutBatch>& batches,
                 const std::vector<Reference>& refs, int64_t calls,
                 int64_t* attempted, int64_t* failed) {
  std::vector<std::unique_ptr<net::NetClient>> clients(
      static_cast<size_t>(tenants));
  net::NetResponse resp;
  for (int64_t i = 0; i < calls; ++i) {
    const int t = static_cast<int>(i % tenants);
    const size_t b = static_cast<size_t>((i / tenants) %
                                         static_cast<int64_t>(batches.size()));
    std::unique_ptr<net::NetClient>& client = clients[static_cast<size_t>(t)];
    ++*attempted;
    if (client == nullptr) {
      client = std::make_unique<net::NetClient>();
      if (!client->Connect("127.0.0.1", port).ok()) {
        client.reset();
        ++*failed;
        continue;
      }
    }
    Status st;
    {
      obs::TraceSpan span("net.client_call");
      span.SetFlow(static_cast<uint64_t>(i) + 1, obs::FlowPhase::kStart);
      st = client->Call(TenantName(t), batches[b], true, &resp);
    }
    const bool ok =
        st.ok() && resp.status == net::WireStatus::kOk &&
        Fold(kFnvSeed, resp.logits.data(),
             static_cast<size_t>(resp.logits.size())) ==
            refs[static_cast<size_t>(t)].digests[b];
    if (!ok) ++*failed;
    if (!st.ok()) client.reset();
  }
}

/// Traced replay of the workload's own batches through the layers the
/// server process hides: the wire functions, a solo ServingSession, a
/// ConcurrentServer, the artifact loader and the registry's deploy path.
/// Each call is an obs span; the metrics are their mean durations.
void Replay(const Flags& f, const ServeSpec& spec,
            const std::vector<HeldOutBatch>& batches,
            std::vector<Reference>& refs, Result& r) {
  const std::string dir = f.Get("dir");
  const int reps = f.On("toy") ? 2 : 20;
  // Encoding or parsing a small frame takes well under the trace clock's
  // microsecond, so one span covers a pass over every batch.
  std::vector<std::vector<uint8_t>> wire(batches.size());
  HeldOutBatch parsed;
  net::RequestView view;
  for (int rep = 0; rep < reps; ++rep) {
    {
      obs::TraceSpan span("net.encode_pass");
      for (size_t b = 0; b < batches.size(); ++b) {
        wire[b].clear();
        net::EncodeRequestFrame(b, TenantName(0), batches[b], true, &wire[b]);
      }
    }
    obs::TraceSpan span("net.parse_pass");
    for (const std::vector<uint8_t>& frame : wire) {
      net::FrameHeader hdr;
      MCOND_CHECK(net::ParseFrameHeader(frame.data(), frame.size(),
                                        net::kDefaultMaxBodyBytes, &hdr)
                      .ok());
      MCOND_CHECK(net::ParseRequestBody(frame.data() + net::kFrameHeaderBytes,
                                        hdr.body_len, hdr.flags, &view)
                      .ok());
      MCOND_CHECK(net::ValidateRequestCsr(view).ok());
      net::MaterializeBatch(view, &parsed);
    }
  }
  const double per_pass = static_cast<double>(batches.size());
  r.Set("net.encode_us", MeanSpanUs("net.encode_pass") / per_pass);
  r.Set("net.parse_us", MeanSpanUs("net.parse_pass") / per_pass);

  // Solo session, inline at width 1 like a server replica.
  {
    ScopedInlineParallelRegion inline_region;
    ServingSession session(*refs[0].artifact, *refs[0].model);
    Rng rng(kFixedSeed);
    for (int rep = 0; rep < reps; ++rep) {
      for (const HeldOutBatch& batch : batches) {
        obs::TraceSpan span("session.serve");
        session.Serve(batch, true, rng);
      }
    }
  }
  r.Set("session.solo_us", MeanSpanUs("session.serve"));

  {
    ConcurrentServer::Config cfg;
    cfg.num_replicas = 1;
    ConcurrentServer server(SessionBase::Build(*refs[0].artifact),
                            *refs[0].model, cfg);
    Tensor out;
    for (int rep = 0; rep < reps; ++rep) {
      for (const HeldOutBatch& batch : batches) {
        obs::TraceSpan span("server.serve_sync");
        MCOND_CHECK(server.ServeSync(batch, true, &out).ok());
      }
    }
  }
  r.Set("server.sync_us", MeanSpanUs("server.serve_sync"));

  // Cold deploys: artifact load and the registry's AddTenant (SGC training
  // + SessionBase build + replica pool), as the server pays them at setup.
  const int deploys = f.On("toy") ? 1 : 3;
  for (int d = 0; d < deploys; ++d) {
    net::ModelRegistry registry(
        net::ModelRegistry::DefaultSgcFactory(300, kFixedSeed));
    for (int t = 0; t < spec.tenants; ++t) {
      {
        obs::TraceSpan span("artifact.load");
        MCOND_CHECK(LoadCondensedGraph(ArtifactPath(dir, t)).ok());
      }
      obs::TraceSpan span("registry.add_tenant");
      net::TenantConfig cfg;
      cfg.num_replicas = static_cast<int>(f.Num("replicas", 1));
      MCOND_CHECK(
          registry.AddTenant(TenantName(t), ArtifactPath(dir, t), cfg).ok());
    }
  }
  r.Set("artifact.load_ms", MeanSpanUs("artifact.load") / 1e3);
  r.Set("registry.deploy_ms", MeanSpanUs("registry.add_tenant") / 1e3);
}

int CmdLoad(const Flags& f) {
  const ServeSpec spec = ServeSpecFor(f.Get("workload"), f.On("toy"));
  const uint64_t seed = static_cast<uint64_t>(f.Num("seed", 1));
  const std::string dir = f.Get("dir");
  const int pid = static_cast<int>(f.Num("server_pid", 0));
  const int port = static_cast<int>(f.Num("port", 0));
  const double rate = f.Num("rate", 0);
  const double seconds = f.Num("seconds", 1);
  const bool trace = f.On("trace");
  MCOND_CHECK(rate > 0 && pid > 0);
  Result r;
  RecordContext(r);

  StatusOr<DatasetSpec> ds = FindDatasetSpec(spec.dataset);
  MCOND_CHECK(ds.ok());
  const InductiveDataset data = MakeDataset(ds.value(), kFixedSeed);
  std::vector<HeldOutBatch> batches = SplitIntoBatches(data.test, spec.batch);
  Rng order(seed);
  order.Shuffle(batches);

  std::vector<Reference> refs(static_cast<size_t>(spec.tenants));
  const net::ModelRegistry::ModelFactory factory =
      net::ModelRegistry::DefaultSgcFactory(300, kFixedSeed);
  std::vector<std::vector<std::vector<uint8_t>>> frames(refs.size());
  for (int t = 0; t < spec.tenants; ++t) {
    Reference& ref = refs[static_cast<size_t>(t)];
    StatusOr<CondensedGraph> cg = LoadCondensedGraph(ArtifactPath(dir, t));
    MCOND_CHECK(cg.ok()) << cg.status().ToString();
    ref.artifact = std::make_unique<CondensedGraph>(std::move(cg.value()));
    StatusOr<std::unique_ptr<GnnModel>> model = factory(*ref.artifact);
    MCOND_CHECK(model.ok());
    ref.model = std::move(model.value());
    ServingSession session(*ref.artifact, *ref.model);
    Rng rng(kFixedSeed);
    for (const HeldOutBatch& b : batches) {
      const Tensor& logits = session.Serve(b, true, rng);
      ref.digests.push_back(
          Fold(kFnvSeed, logits.data(), static_cast<size_t>(logits.size())));
      ref.argmax.push_back(ArgMax(logits.data(), logits.rows(), logits.cols()));
      frames[static_cast<size_t>(t)].emplace_back();
      net::EncodeRequestFrame(0, TenantName(t), b, true,
                              &frames[static_cast<size_t>(t)].back());
    }
  }

  std::vector<Conn> conns(refs.size());
  for (Conn& c : conns) c.fd = ConnectLoopback(port);

  // Warm-up at the measured rate: replicas, buffers and caches settle.
  const double warm_s = f.On("toy") ? 0.2 : 1.0;
  const int64_t warm = std::max<int64_t>(1, static_cast<int64_t>(rate * warm_s));
  OpenLoop(conns, frames, refs, batches, rate, warm, warm, pid,
           uint64_t{1} << 40);

  // The measured open loop at the fixed rate, in half-second windows.
  obs::ClearTrace();
  obs::EnableTracing(trace);
  const int64_t per_window =
      std::max<int64_t>(1, static_cast<int64_t>(rate * std::min(0.5, seconds)));
  const int64_t count = std::max<int64_t>(
      per_window, static_cast<int64_t>(rate * seconds) / per_window * per_window);
  const std::map<int, double> thr0 = ThreadCpuSeconds(pid);
  const LoadStats st = OpenLoop(conns, frames, refs, batches, rate, count,
                                per_window, pid, 1);
  const std::map<int, double> thr1 = ThreadCpuSeconds(pid);
  for (Conn& c : conns) ::close(c.fd);
  const double peak_rss = PeakRssMb(std::to_string(pid));

  double busiest = 0.0;
  for (const auto& [tid, c1] : thr1) {
    const auto it = thr0.find(tid);
    if (it != thr0.end()) busiest = std::max(busiest, c1 - it->second);
  }
  int64_t attempted = st.attempted, failed = st.failed;
  if (trace) {
    // One trace file per phase: the open loop alone fills most of the ring.
    WriteTrace(dir + "/bench_trace_load.json");
    ClientCalls(port, spec.tenants, batches, refs, f.On("toy") ? 20 : 1000,
                &attempted, &failed);
    r.Set("net.client_call_us", MeanSpanUs("net.client_call"));
    Replay(f, spec, batches, refs, r);
    obs::EnableTracing(false);
    WriteTrace(dir + "/bench_trace_replay.json");
  }
  r.Set("ops", static_cast<double>(attempted));
  r.Set("ops_failed", static_cast<double>(failed));
  r.Set("cpu_us_per_unit", Median(st.window_cpu_us));
  r.Set("cpu_windows", static_cast<double>(st.window_cpu_us.size()));
  r.Set("peak_rss_mb", peak_rss);
  r.Set("acc", st.served_nodes > 0
                   ? 100.0 * static_cast<double>(st.agreeing_nodes) /
                         static_cast<double>(st.served_nodes)
                   : 0.0);
  r.Set("served_acc", st.labeled_nodes > 0 ? 100.0 * static_cast<double>(st.correct_nodes) /
                                          static_cast<double>(st.labeled_nodes)
                                    : 0.0);
  // Client-observed latency from each request's scheduled send time, exact
  // order statistics over every request of the run.
  r.Set("latency.p50_us", OrderStat(st.latency_us, 0.50));
  r.Set("latency.p90_us", OrderStat(st.latency_us, 0.90));
  r.Set("latency.p99_us", OrderStat(st.latency_us, 0.99));
  r.Set("rtt_mean_us", st.rtt_mean_us);
  r.Set("gen.late_p50_us", Median(st.late_us));
  r.Set("gen.late_p99_us", OrderStat(st.late_us, 0.99));
  r.Set("gen.late_max_us", OrderStat(st.late_us, 1.0));
  r.Set("gen.achieved_rps", static_cast<double>(count) / st.send_s);
  r.Set("server.busiest_thread_ratio", busiest / seconds);
  r.Set("rate_rps", rate);
  r.Print();
  return 0;
}

// ---------------------------------------------------------------------------
// Condensation workloads.
// ---------------------------------------------------------------------------

/// Per-layer counters of this process, as deltas between two snapshots.
struct LayerSnap {
  std::map<std::string, double> v;
  static LayerSnap Take() {
    LayerSnap s;
    for (const char* k : {"matmul", "matmul_ta", "matmul_tb", "spmm"}) {
      s.v[std::string("kernel.") + k + "_ms"] =
          HistSum(std::string("mcond.kernel.") + k + "_us") / 1e3;
    }
    s.v["pool.jobs"] = CounterValue("mcond.pool.jobs");
    s.v["pool.tasks"] = CounterValue("mcond.pool.tasks");
    s.v["shard.io_mb"] = CounterValue("mcond.shard.io_bytes") / (1 << 20);
    s.v["shard.pins"] = CounterValue("mcond.shard.pins");
    s.v["shard.evictions"] = CounterValue("mcond.shard.evictions");
    s.v["shard.hits"] = CounterValue("mcond.shard.prefetch.hits");
    s.v["shard.misses"] = CounterValue("mcond.shard.prefetch.misses");
    s.v["shard.stall_ms"] =
        HistSum("mcond.shard.prefetch.stall_us") / 1e3;
    return s;
  }
};

/// Writes the per-layer numbers of `runs` traced condensations into `r`.
void ReportCondenseLayers(const LayerSnap& a, const LayerSnap& b, int runs,
                          const std::vector<obs::TraceEvent>& events,
                          Result& r) {
  const double n = std::max(1, runs);
  for (const char* k : {"kernel.matmul_ms", "kernel.matmul_ta_ms",
                        "kernel.matmul_tb_ms", "kernel.spmm_ms",
                        "shard.io_mb", "shard.pins", "shard.evictions",
                        "shard.stall_ms", "pool.jobs"}) {
    r.Set(k, (b.v.at(k) - a.v.at(k)) / n);
  }
  const double jobs = b.v.at("pool.jobs") - a.v.at("pool.jobs");
  r.Set("pool.tasks_per_job",
        jobs > 0 ? (b.v.at("pool.tasks") - a.v.at("pool.tasks")) / jobs : 0.0);
  const double hits = b.v.at("shard.hits") - a.v.at("shard.hits");
  const double misses = b.v.at("shard.misses") - a.v.at("shard.misses");
  r.Set("shard.prefetch_hit_ratio",
        hits + misses > 0 ? hits / (hits + misses) : 0.0);
  r.Set("condense.s_step_ms", SumSpans(events, "condense.s_step").self_us / 1e3 / n);
  r.Set("condense.m_step_ms", SumSpans(events, "condense.m_step").self_us / 1e3 / n);
  r.Set("condense.relay_ms",
        SumSpans(events, "condense.mapping_update").self_us / 1e3 / n);
}

/// Wall and on-CPU seconds of each call of a repeated body.
struct Calls {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  int64_t size() const { return static_cast<int64_t>(wall_s.size()); }
};

/// Runs `body` repeatedly for `seconds` (at least `min_runs` times) and
/// times each call.
template <typename Body>
Calls Repeat(double seconds, int min_runs, Body body) {
  Calls calls;
  const double start = NowS();
  while (calls.size() < min_runs || NowS() - start < seconds) {
    const double t0 = NowS();
    const double c0 = ProcessCpuSeconds();
    body();
    calls.cpu_s.push_back(ProcessCpuSeconds() - c0);
    calls.wall_s.push_back(NowS() - t0);
  }
  return calls;
}

/// The timed phase of a condense workload: `run_once` repeated for the run
/// budget. cpu_us_per_unit is the median on-CPU time of one call. With
/// tracing, half the budget is timed again traced, for the per-layer
/// numbers and the tracing overhead.
template <typename Body>
void TimeCondense(double seconds, bool trace, int min_runs, Body run_once,
                  Result& r) {
  const Calls calls = Repeat(trace ? seconds / 2 : seconds, min_runs, run_once);
  const double cpu = Median(calls.cpu_s);
  r.Set("cpu_us_per_unit", cpu * 1e6);
  r.Set("condense.wall_s", Median(calls.wall_s));
  r.Set("calls", static_cast<double>(calls.size()));
  if (!trace) return;
  obs::ClearTrace();
  obs::EnableTracing(true);
  const LayerSnap a = LayerSnap::Take();
  const Calls traced = Repeat(seconds / 2, 1, run_once);
  const LayerSnap b = LayerSnap::Take();
  obs::EnableTracing(false);
  ReportCondenseLayers(a, b, static_cast<int>(traced.size()),
                       obs::TraceSnapshot(), r);
  r.Set("trace.overhead_pct", 100.0 * (Median(traced.cpu_s) - cpu) / cpu);
}

/// Median on-CPU seconds of `runs` calls of `body`.
template <typename Body>
double MedianCpuSeconds(int runs, Body body) {
  std::vector<double> cpu;
  for (int i = 0; i < runs; ++i) {
    const double c0 = ProcessCpuSeconds();
    body();
    cpu.push_back(ProcessCpuSeconds() - c0);
  }
  return Median(cpu);
}

/// Eq. 11 accuracy (%) of `model` serving `batches` from the artifact
/// in-process, kernels inline as a server replica runs them.
double Eq11Accuracy(const CondensedGraph& cg, GnnModel& model,
                    const std::vector<HeldOutBatch>& batches, uint64_t seed) {
  ScopedInlineParallelRegion inline_region;
  ServingSession session(cg, model);
  Rng rng(seed);
  int64_t correct = 0, labeled = 0;
  for (const HeldOutBatch& b : batches) {
    const Tensor& logits = session.Serve(b, true, rng);
    const std::vector<int64_t> pred =
        ArgMax(logits.data(), logits.rows(), logits.cols());
    for (size_t i = 0; i < pred.size(); ++i) {
      if (b.labels[i] < 0) continue;
      ++labeled;
      correct += pred[i] == b.labels[i] ? 1 : 0;
    }
  }
  return 100.0 * static_cast<double>(correct) /
         static_cast<double>(std::max<int64_t>(1, labeled));
}

int CmdCondense(const Flags& f) {
  const bool toy = f.On("toy");
  const bool trace = f.On("trace");
  const uint64_t seed = static_cast<uint64_t>(f.Num("seed", 1));
  const double seconds = f.Num("seconds", 10);
  Result r;
  RecordContext(r);
  StatusOr<DatasetSpec> ds = FindDatasetSpec(toy ? "tiny-sim" : "reddit-sim");
  MCOND_CHECK(ds.ok());

  // setup_s: on-CPU time of generating the dataset, median of several.
  InductiveDataset data;
  obs::EnableTracing(trace);
  r.Set("setup_s", MedianCpuSeconds(toy ? 2 : 5, [&] {
          obs::TraceSpan span("data.make_dataset");
          data = MakeDataset(ds.value(), kFixedSeed);
        }));
  r.Set("data.generate_s", MeanSpanUs("data.make_dataset") / 1e6);
  obs::EnableTracing(false);

  MCondConfig config;
  config.outer_rounds = 1;  // shortened schedule (README.md)
  const int64_t n_syn = SyntheticNodeCount(data.train_graph, 0.032);
  // Each repeat condenses with its own seed. `acc` averages the quality of
  // the first kScored artifacts instead of riding on one draw, and the run
  // makes at least that many, so `acc` is fixed by the seed.
  const int kScored = toy ? 1 : 4;
  std::vector<CondensedGraph> artifacts;
  const auto run_once = [&] {
    obs::TraceSpan span("condense.run_mcond");
    const uint64_t run_seed = seed * 1000 + artifacts.size();
    artifacts.push_back(
        RunMCond(data.train_graph, data.val, n_syn, config, run_seed)
            .condensed);
  };
  TimeCondense(seconds, trace, kScored, run_once, r);
  if (trace) {
    WriteTrace(f.Get("dir") + "/bench_trace.json");
  }

  // Every artifact must survive the offline→online handoff bit for bit.
  int64_t failed = 0;
  double acc = 0.0, eq11 = 0.0;
  const std::string path = f.Get("dir") + "/condensed.bin";
  const std::vector<HeldOutBatch> batches = SplitIntoBatches(data.test, 64);
  for (size_t k = 0; k < artifacts.size(); ++k) {
    const Status saved = SaveCondensedGraph(path, artifacts[k]);
    StatusOr<CondensedGraph> back = LoadCondensedGraph(path);
    if (!saved.ok() || !back.ok() ||
        ArtifactDigest(back.value()) != ArtifactDigest(artifacts[k])) {
      ++failed;
    }
    if (k >= static_cast<size_t>(kScored)) continue;
    acc += GcondXAccuracy(artifacts[k], data, seed * 1000 + k);
    StatusOr<std::unique_ptr<GnnModel>> model =
        net::ModelRegistry::DefaultSgcFactory(300, seed)(artifacts[k]);
    MCOND_CHECK(model.ok());
    eq11 += Eq11Accuracy(artifacts[k], *model.value(), batches, seed);
  }
  r.Set("acc", acc / kScored);
  r.Set("eq11_acc", eq11 / kScored);
  r.Set("ops", static_cast<double>(artifacts.size()));
  r.Set("ops_failed", static_cast<double>(failed));
  r.Set("peak_rss_mb", PeakRssMb("self"));
  r.Print();
  return 0;
}

// --- out-of-core ----------------------------------------------------------

/// The DC-SBM store's generator settings (bench_condense_scale's XL config
/// at a size whose store is several times the budget below).
SbmConfig OocConfig(bool toy) {
  SbmConfig config;
  config.num_nodes = toy ? 4096 : 65536;
  config.num_classes = 8;
  config.feature_dim = 16;
  config.avg_degree = toy ? 16.0 : 96.0;
  config.label_rate = 0.1;
  return config;
}

int64_t OocBudgetBytes(bool toy) {
  return toy ? int64_t{64} << 10 : int64_t{12} << 20;
}

constexpr uint64_t kStoreSeed = 17;

int CmdOocBuild(const Flags& f) {
  const bool toy = f.On("toy");
  const std::string dir = f.Get("dir");
  Result r;
  fs::create_directories(dir);
  Rng rng(kStoreSeed);
  const double t0 = NowS();
  StatusOr<ShardedGraph> g = GenerateSbmGraphSharded(
      OocConfig(toy), rng, dir, ShardOptions(), OocBudgetBytes(toy));
  MCOND_CHECK(g.ok()) << g.status().ToString();
  Tensor labels(g.value().NumNodes(), 1);
  for (int64_t i = 0; i < labels.rows(); ++i) {
    labels.At(i, 0) = static_cast<float>(g.value().labels[static_cast<size_t>(i)]);
  }
  MCOND_CHECK(SaveTensor(dir + "/features.bin", g.value().features).ok());
  MCOND_CHECK(SaveTensor(dir + "/labels.bin", labels).ok());
  r.Set("generate_s", NowS() - t0);
  r.Set("store_mb", static_cast<double>(g.value().adjacency->StorageBytes() +
                                        g.value().normalized->StorageBytes()) /
                        (1 << 20));
  r.Set("nnz", static_cast<double>(g.value().adjacency->Nnz()));
  r.Print();
  return 0;
}

StatusOr<ShardedGraph> OpenStore(const std::string& dir, int64_t budget,
                                 int64_t num_classes) {
  ShardedGraph g;
  StatusOr<ShardedCsr> adj = ShardedCsr::Open(dir + "/adjacency.mcss", budget);
  if (!adj.ok()) return adj.status();
  StatusOr<ShardedCsr> norm =
      ShardedCsr::Open(dir + "/normalized.mcss", budget);
  if (!norm.ok()) return norm.status();
  StatusOr<Tensor> features = LoadTensor(dir + "/features.bin");
  if (!features.ok()) return features.status();
  StatusOr<Tensor> labels = LoadTensor(dir + "/labels.bin");
  if (!labels.ok()) return labels.status();
  g.adjacency = std::make_shared<ShardedCsr>(std::move(adj.value()));
  g.normalized = std::make_shared<ShardedCsr>(std::move(norm.value()));
  g.features = std::move(features.value());
  for (int64_t i = 0; i < labels.value().rows(); ++i) {
    g.labels.push_back(static_cast<int64_t>(labels.value().At(i, 0)));
  }
  g.num_classes = num_classes;
  return g;
}

/// The support batch RunMCondSharded requires (as bench_condense_scale
/// builds it); GCond mode never composes it.
HeldOutBatch OocSupport(int64_t n_orig, int64_t num_classes, int64_t dim,
                        uint64_t seed) {
  Rng rng(seed);
  HeldOutBatch batch;
  const int64_t n_sup = 64;
  batch.features = rng.NormalTensor(n_sup, dim);
  std::vector<Triplet> links, inter;
  for (int64_t i = 0; i < n_sup; ++i) {
    batch.labels.push_back(
        static_cast<int64_t>(rng.Uniform(0.0f, 1.0f) * num_classes) %
        num_classes);
    for (int k = 0; k < 4; ++k) {
      links.push_back(
          {i, static_cast<int64_t>(rng.Uniform(0.0f, 1.0f) * n_orig) % n_orig,
           1.0f});
    }
    if (i + 1 < n_sup) {
      inter.push_back({i, i + 1, 1.0f});
      inter.push_back({i + 1, i, 1.0f});
    }
  }
  batch.links = CsrMatrix::FromTriplets(n_sup, n_orig, links);
  batch.inter = CsrMatrix::FromTriplets(n_sup, n_sup, inter);
  return batch;
}

MCondConfig OocCondenseConfig() {
  MCondConfig mc;
  mc.learn_mapping = false;  // GCond mode, as bench_condense_scale runs it
  mc.outer_rounds = 1;
  mc.s_steps_per_round = 3;
  mc.relay_refinement_steps = 5;
  mc.edge_batch = 256;
  return mc;
}

constexpr int64_t kOocSynthetic = 128;

/// Resident reference: the store's graph loaded whole, condensed with
/// RunMCond. Streamed and resident condensation are bit-identical.
int CmdOocRef(const Flags& f) {
  const bool toy = f.On("toy");
  const uint64_t seed = static_cast<uint64_t>(f.Num("seed", 1));
  const SbmConfig sbm = OocConfig(toy);
  StatusOr<ShardedGraph> g = OpenStore(f.Get("dir"), 0, sbm.num_classes);
  MCOND_CHECK(g.ok()) << g.status().ToString();
  const ShardedCsr& adj = *g.value().adjacency;
  std::vector<int64_t> row_ptr{0};
  std::vector<int32_t> col_idx;
  std::vector<float> values;
  SequentialCursor cursor(adj);
  for (int64_t s = 0; s < adj.NumSegments(); ++s) {
    StatusOr<PinnedSegment> pin = cursor.Next();
    MCOND_CHECK(pin.ok());
    const CsrSegmentView& v = pin.value().view();
    const int64_t rows = v.row_end - v.row_begin;
    for (int64_t i = 0; i < rows; ++i) {
      row_ptr.push_back(row_ptr.back() + (v.row_ptr[i + 1] - v.row_ptr[i]));
    }
    col_idx.insert(col_idx.end(), v.col_idx, v.col_idx + v.nnz);
    values.insert(values.end(), v.values, v.values + v.nnz);
  }
  const Graph graph(CsrMatrix::FromParts(adj.rows(), adj.cols(),
                                         std::move(row_ptr), std::move(col_idx),
                                         std::move(values)),
                    g.value().features, g.value().labels, sbm.num_classes);
  const HeldOutBatch support =
      OocSupport(graph.NumNodes(), sbm.num_classes, sbm.feature_dim, seed);
  const MCondResult res =
      RunMCond(graph, support, kOocSynthetic, OocCondenseConfig(), seed);
  Result r;
  r.Str("digest", Hex(CondenseDigest(res)));
  r.Print();
  return 0;
}

int CmdOoc(const Flags& f) {
  const bool toy = f.On("toy");
  const bool trace = f.On("trace");
  const uint64_t seed = static_cast<uint64_t>(f.Num("seed", 1));
  const double seconds = f.Num("seconds", 10);
  const std::string dir = f.Get("dir");
  const SbmConfig sbm = OocConfig(toy);
  Result r;
  RecordContext(r);

  // Warm the page cache (outside every timed phase): the workload measures
  // the budgeted store over a warm cache, not the disk.
  for (const char* name : {"/adjacency.mcss", "/normalized.mcss"}) {
    std::ifstream in(dir + name, std::ios::binary);
    std::vector<char> buf(1 << 20);
    while (in.read(buf.data(), static_cast<std::streamsize>(buf.size()))) {
    }
  }
  // setup_s: on-CPU time of opening the pre-built store, median of several
  // opens.
  StatusOr<ShardedGraph> g = Status::Internal("unopened");
  r.Set("setup_s", MedianCpuSeconds(31, [&] {
          g = Status::Internal("unopened");  // close the previous open first
          g = OpenStore(dir, OocBudgetBytes(toy), sbm.num_classes);
          MCOND_CHECK(g.ok()) << g.status().ToString();
        }));
  const ShardedGraph& graph = g.value();
  const HeldOutBatch support =
      OocSupport(graph.NumNodes(), sbm.num_classes, sbm.feature_dim, seed);

  MCondResult result;
  std::vector<uint64_t> digests;
  const auto run_once = [&] {
    obs::TraceSpan span("condense.run_mcond_sharded");
    result = RunMCondSharded(graph, support, kOocSynthetic,
                             OocCondenseConfig(), seed);
    digests.push_back(CondenseDigest(result));
  };
  TimeCondense(seconds, trace, 3, run_once, r);

  // GCond-X-style evaluation over the store: an SGC trained on the
  // synthetic features X' alone (one outer round leaves A' nearly complete,
  // which would average every synthetic node into one) scores the store's
  // labeled nodes from features propagated through the streamed normalized
  // adjacency.
  StatusOr<std::unique_ptr<GnnModel>> model =
      net::ModelRegistry::DefaultSgcFactory(300, seed)(
          FeaturesOnly(result.condensed));
  MCOND_CHECK(model.ok());
  const std::vector<int64_t> labeled = graph.LabeledNodes();
  StatusOr<Tensor> propagated =
      ShardedPropagate(*graph.normalized, graph.features, 2, labeled);
  MCOND_CHECK(propagated.ok()) << propagated.status().ToString();
  const Tensor& prop = propagated.value();
  // The propagated rows classify as isolated nodes (Â = I after self-loops).
  std::vector<int64_t> labels;
  for (int64_t v : labeled) labels.push_back(graph.labels[static_cast<size_t>(v)]);
  const Graph isolated(CsrMatrix::FromTriplets(prop.rows(), prop.rows(), {}),
                       prop, labels, sbm.num_classes);
  Rng rng(seed);
  const Tensor logits = model.value()->Predict(
      GraphOperators::FromGraph(isolated), prop, rng);
  r.Set("acc", 100.0 * AccuracyFromLogits(logits, labels));

  int64_t failed = 0;
  for (uint64_t d : digests) failed += d != digests.front() ? 1 : 0;
  const std::string want = f.Get("ref_digest");
  if (!want.empty() && want != Hex(digests.front())) ++failed;
  const std::string path = f.Get("out");
  const Status saved = SaveCondensedGraph(path, result.condensed);
  StatusOr<CondensedGraph> back = LoadCondensedGraph(path);
  if (!saved.ok() || !back.ok() ||
      ArtifactDigest(back.value()) != ArtifactDigest(result.condensed)) {
    ++failed;
  }
  if (trace) {
    WriteTrace((fs::path(path).parent_path() / "bench_trace.json").string());
  }
  r.Set("ops", static_cast<double>(digests.size() + 1));
  r.Set("ops_failed", static_cast<double>(failed));
  r.Set("peak_rss_mb", PeakRssMb("self"));
  r.Str("digest", Hex(digests.front()));
  r.Print();
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_driver <subcommand> [--flag v]...\n");
    return 2;
  }
  Flags f;
  for (int i = 2; i + 1 < argc; i += 2) {
    MCOND_CHECK(std::strncmp(argv[i], "--", 2) == 0) << argv[i];
    f.kv[argv[i] + 2] = argv[i + 1];
  }
  obs::SetMinLogLevel(obs::LogLevel::kWarning);
  if (!f.Get("threads").empty()) {
    ThreadPool::Global().SetNumThreads(static_cast<int>(f.Num("threads", 1)));
  }
  const std::string cmd = argv[1];
  if (cmd == "prepare") return CmdPrepare(f);
  if (cmd == "load") return CmdLoad(f);
  if (cmd == "condense") return CmdCondense(f);
  if (cmd == "ooc-build") return CmdOocBuild(f);
  if (cmd == "ooc-ref") return CmdOocRef(f);
  if (cmd == "ooc") return CmdOoc(f);
  std::fprintf(stderr, "unknown subcommand %s\n", cmd.c_str());
  return 2;
}

}  // namespace
}  // namespace mcond

int main(int argc, char** argv) { return mcond::Main(argc, argv); }
