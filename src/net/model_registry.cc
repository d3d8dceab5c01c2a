#include "net/model_registry.h"

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <utility>

#include "condense/artifact_io.h"
#include "core/rng.h"
#include "nn/trainer.h"
#include "obs/log.h"

namespace mcond {
namespace net {

TokenBucket::TokenBucket(double rate_per_s, double burst)
    : rate_per_s_(rate_per_s),
      burst_(burst > 0.0 ? burst : std::max(1.0, rate_per_s)) {}

bool TokenBucket::TryAcquire(uint64_t now_us) {
  if (unlimited()) return true;
  if (!primed_) {
    tokens_ = burst_;  // a fresh bucket is full
    last_us_ = now_us;
    primed_ = true;
  }
  if (now_us > last_us_) {
    const double elapsed_s =
        static_cast<double>(now_us - last_us_) * 1e-6;
    tokens_ = std::min(burst_, tokens_ + elapsed_s * rate_per_s_);
    last_us_ = now_us;
  }
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

ModelRegistry::ModelFactory ModelRegistry::DefaultSgcFactory(
    int64_t train_epochs, uint64_t seed) {
  return [train_epochs,
          seed](const CondensedGraph& cg) -> StatusOr<std::unique_ptr<GnnModel>> {
    if (cg.graph.NumNodes() <= 0 || cg.graph.num_classes() <= 0) {
      return Status::InvalidArgument(
          "artifact has no synthetic nodes or classes to train on");
    }
    Rng rng(seed);
    GnnConfig gc;
    std::unique_ptr<GnnModel> model =
        MakeGnn(GnnArch::kSgc, cg.graph.FeatureDim(), cg.graph.num_classes(),
                gc, rng);
    GraphOperators ops = GraphOperators::FromGraph(cg.graph);
    std::vector<int64_t> all(static_cast<size_t>(cg.graph.NumNodes()));
    std::iota(all.begin(), all.end(), 0);
    TrainConfig tc;
    tc.epochs = train_epochs;
    TrainNodeClassifier(*model, ops, cg.graph.features(), cg.graph.labels(),
                        all, tc, rng);
    return model;
  };
}

ModelRegistry::ModelRegistry(ModelFactory factory)
    : factory_(std::move(factory)) {
  MCOND_CHECK(factory_ != nullptr);
}

bool ModelRegistry::ValidTenantName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (!ok) return false;
  }
  return true;
}

std::string ModelRegistry::SanitizeTenantName(std::string_view raw) {
  std::string out;
  out.reserve(std::min<size_t>(raw.size(), 64));
  for (char c : raw) {
    if (out.size() >= 64) break;
    if (c >= 'A' && c <= 'Z') {
      out.push_back(static_cast<char>(c - 'A' + 'a'));
    } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      out.push_back(c);
    } else {
      out.push_back('_');
    }
  }
  if (out.empty()) out = "tenant";
  return out;
}

Status ModelRegistry::AddTenant(const std::string& name,
                                const std::string& artifact_path,
                                const TenantConfig& config) {
  StatusOr<CondensedGraph> loaded = LoadCondensedGraph(artifact_path);
  if (!loaded.ok()) return loaded.status();
  return AddTenant(name, std::move(loaded).value(), config);
}

Status ModelRegistry::AddTenant(const std::string& name,
                                CondensedGraph artifact,
                                const TenantConfig& config) {
  if (!ValidTenantName(name)) {
    return Status::InvalidArgument(
        "tenant name '" + name +
        "' is invalid (1..64 chars of [a-z0-9_]; it embeds into metric "
        "names)");
  }
  return Deploy(name, std::make_unique<CondensedGraph>(std::move(artifact)),
                config);
}

Status ModelRegistry::Deploy(const std::string& name,
                             std::unique_ptr<CondensedGraph> artifact,
                             const TenantConfig& config) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tenants_.count(name) != 0) {
      return Status::FailedPrecondition("tenant '" + name +
                                        "' already exists");
    }
  }
  if (artifact->mapping.rows() <= 0 || artifact->mapping.Nnz() <= 0) {
    return Status::FailedPrecondition(
        "artifact for tenant '" + name +
        "' has an empty mapping: inductive links cannot be converted");
  }
  // Train BEFORE taking the registry lock: a slow factory (hundreds of
  // epochs) must not block Find() for serving tenants.
  StatusOr<std::unique_ptr<GnnModel>> model = factory_(*artifact);
  if (!model.ok()) return model.status();

  auto tenant = std::make_unique<Tenant>();
  tenant->name = name;
  tenant->artifact = std::move(artifact);
  tenant->model = std::move(model).value();
  tenant->base = SessionBase::Build(*tenant->artifact,
                                    {tenant->model->ReadsOperator()});
  tenant->num_classes = tenant->artifact->graph.num_classes();
  tenant->feat_dim = tenant->artifact->graph.FeatureDim();
  tenant->quota = TokenBucket(config.quota_rps, config.quota_burst);

  ConcurrentServer::Config scfg;
  scfg.num_replicas = std::max(1, config.num_replicas);
  scfg.queue_capacity = std::max(1, config.queue_capacity);
  scfg.micro_batch = std::max(1, config.micro_batch);
  // Backpressure must surface as a synchronous reject the NetServer maps
  // to a protocol-level REJECTED reply — never as a blocked IO thread.
  scfg.block_when_full = false;
  scfg.start_paused = config.start_paused;
  tenant->server = std::make_unique<ConcurrentServer>(
      tenant->base, *tenant->model, scfg);

  const std::string prefix = "mcond.net.tenant." + name;
  // metric-name: mcond.net.tenant.<name>.requests
  tenant->requests = &obs::GetCounter(prefix + ".requests");
  // metric-name: mcond.net.tenant.<name>.rejected
  tenant->rejected = &obs::GetCounter(prefix + ".rejected");
  // metric-name: mcond.net.tenant.<name>.latency_us
  tenant->latency_us = &obs::GetHistogram(prefix + ".latency_us");

  std::lock_guard<std::mutex> lock(mu_);
  if (tenants_.count(name) != 0) {
    return Status::FailedPrecondition("tenant '" + name +
                                      "' already exists");
  }
  tenants_.emplace(name, std::move(tenant));
  return Status::Ok();
}

StatusOr<int> ModelRegistry::LoadDirectory(const std::string& dir,
                                           const TenantConfig& config) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::NotFound("registry directory '" + dir +
                            "' does not exist");
  }
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  int added = 0;
  for (const fs::path& path : files) {
    const std::string name = SanitizeTenantName(path.stem().string());
    Status s = AddTenant(name, path.string(), config);
    if (!s.ok()) {
      MCOND_LOG(WARN) << "registry: skipping " << path.string() << ": "
                      << s.ToString();
      continue;
    }
    MCOND_LOG(INFO) << "registry: tenant '" << name << "' deployed from "
                    << path.string();
    ++added;
  }
  if (added == 0) {
    return Status::NotFound("registry directory '" + dir +
                            "' holds no loadable artifact");
  }
  return added;
}

Tenant* ModelRegistry::Find(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second.get();
}

std::vector<std::string> ModelRegistry::TenantNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) names.push_back(name);
  return names;
}

int ModelRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(tenants_.size());
}

int64_t ModelRegistry::memory_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t bytes = 0;
  for (const auto& [name, tenant] : tenants_) {
    bytes += tenant->server->pool().memory_bytes();
  }
  return bytes;
}

}  // namespace net
}  // namespace mcond
