// Shared helpers for the figure benches.
//
// Every fig*_ binary regenerates one figure of the paper's evaluation
// (Section VII).  Default mode drives the calibrated simulator
// (deterministic, core-count independent — see DESIGN.md's substitution
// table); pass --real to run the real in-process runtime instead and print
// host-measured numbers (this container exposes very few cores, so real
// numbers show protocol overhead, not 8-way scaling).
//
// Flags: --real, --quick (shorter sim), --duration-ms N, --clients N.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "kvstore/kv_service.h"
#include "sim/model.h"
#include "smr/runtime.h"
#include "util/alloc_hook.h"
#include "workload/driver.h"

// Each bench binary is a single translation unit, so defining the counting
// allocator here gives every fig*/micro_* bench heap-traffic metering
// (util::allochook::allocations()) with no extra wiring.  Inert under
// sanitizers.
PSMR_DEFINE_ALLOC_HOOK();

namespace psmr::bench {

struct Options {
  bool real = false;
  bool quick = false;
  double duration_ms = 120;
  int clients_override = 0;
  /// Machine-readable summary path (figures that support it; fig3 writes
  /// the batched-execution perf record here).
  std::string json;

  static Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
      if (!std::strcmp(argv[i], "--real")) o.real = true;
      else if (!std::strcmp(argv[i], "--quick")) o.quick = true;
      else if (!std::strcmp(argv[i], "--duration-ms") && i + 1 < argc)
        o.duration_ms = std::atof(argv[++i]);
      else if (!std::strcmp(argv[i], "--clients") && i + 1 < argc)
        o.clients_override = std::atoi(argv[++i]);
      else if (!std::strcmp(argv[i], "--json") && i + 1 < argc)
        o.json = argv[++i];
    }
    if (o.quick) o.duration_ms = 40;
    return o;
  }
};

/// Simulator config shared by the KV figures.
inline sim::SimConfig base_sim(const Options& opt, sim::Tech tech,
                               int workers, int clients) {
  sim::SimConfig cfg;
  cfg.tech = tech;
  cfg.workers = workers;
  cfg.clients = opt.clients_override ? opt.clients_override : clients;
  cfg.window = 50;
  cfg.warmup_us = opt.duration_ms * 1000.0 / 6.0;
  cfg.duration_us = opt.duration_ms * 1000.0 + cfg.warmup_us;
  return cfg;
}

/// Real-runtime deployment over the key-value store.
inline smr::DeploymentConfig real_kv_config(smr::Mode mode, std::size_t mpl,
                                            std::uint64_t keys,
                                            std::size_t exec_run_length = 16) {
  smr::DeploymentConfig cfg;
  cfg.mode = mode;
  cfg.mpl = mpl;
  cfg.replicas = 2;
  cfg.ring.batch_timeout = std::chrono::microseconds(500);
  cfg.ring.skip_interval = std::chrono::microseconds(1500);
  cfg.ring.rto = std::chrono::microseconds(10000);
  cfg.service_factory = [keys] {
    return std::make_unique<kvstore::KvService>(keys);
  };
  cfg.shared_service_factory = [keys]() -> std::shared_ptr<smr::Service> {
    return std::make_shared<kvstore::ConcurrentKvService>(keys);
  };
  cfg.cg_factory = [](std::size_t k) { return kvstore::kv_keyed_cg(k); };
  cfg.exec_run_length = exec_run_length;
  return cfg;
}

inline smr::Mode to_mode(sim::Tech t) {
  switch (t) {
    case sim::Tech::kSmr: return smr::Mode::kSmr;
    case sim::Tech::kSpsmr: return smr::Mode::kSpsmr;
    case sim::Tech::kPsmr: return smr::Mode::kPsmr;
    case sim::Tech::kNoRep: return smr::Mode::kNoRep;
    case sim::Tech::kLock: return smr::Mode::kLockServer;
  }
  return smr::Mode::kSmr;
}

/// Runs the real runtime with a workload mix and adapts to RunResult-like
/// fields of SimResult for uniform printing.  `raw`, when given, receives
/// the full driver result including the replica-side ExecStats; `spool`
/// receives the deployment's submit-pipelining counters.
inline sim::SimResult run_real_kv(const Options& opt, sim::Tech tech,
                                  int workers, const workload::KvMix& mix,
                                  bool zipf = false,
                                  std::size_t exec_run_length = 16,
                                  workload::RunResult* raw = nullptr,
                                  smr::SpoolStats* spool = nullptr) {
  auto dcfg = real_kv_config(to_mode(tech), static_cast<std::size_t>(workers),
                             /*keys=*/200'000, exec_run_length);
  smr::Deployment d(std::move(dcfg));
  d.start();
  workload::KvWorkloadSpec spec;
  spec.clients = opt.clients_override ? opt.clients_override : 4;
  spec.window = 50;
  spec.duration_s = opt.quick ? 0.5 : 1.5;
  spec.warmup_s = 0.3;
  spec.mix = mix;
  spec.keys = 200'000;
  spec.zipf = zipf;
  auto r = workload::run_kv_workload(d, spec);
  if (spool) *spool = d.spool_stats();
  d.stop();
  if (raw) *raw = r;
  sim::SimResult out;
  out.kcps = r.kcps;
  out.cpu_pct = r.cpu_pct;
  out.avg_latency_us = r.avg_latency_us;
  out.latency = r.latency;
  out.completed = r.completed;
  return out;
}

/// Prints a latency CDF as (value_us, fraction) pairs, decimated.
inline void print_cdf(const char* label, const util::Histogram& hist) {
  auto cdf = hist.cdf();
  std::printf("  CDF %-8s:", label);
  std::size_t step = cdf.size() > 12 ? cdf.size() / 12 : 1;
  for (std::size_t i = 0; i < cdf.size(); i += step) {
    std::printf(" (%.0fus,%.2f)", cdf[i].first, cdf[i].second);
  }
  if (!cdf.empty()) {
    std::printf(" (%.0fus,1.00)", cdf.back().first);
  }
  std::printf("\n");
}

}  // namespace psmr::bench
