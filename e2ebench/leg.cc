// One leg of the end-to-end benchmark (see README.md).
//
// A leg is one replicated key-value deployment — P-SMR with 4 worker groups,
// or the single-ring SMR baseline — with 2 replicas and 10M preloaded keys,
// built from the program's default DeploymentConfig and RingConfig.  Four
// client threads drive it through the public ClientProxy::submit/poll API;
// every reply is checked against an expectation computed apart from the
// replicated path, and after the run the replicas' state digests are checked
// against a reference KvService the leg builds itself.  The leg prints one
// JSON line; run.py runs one process per leg, so each leg's CPU time and
// resident memory are its own.
//
//   psmr_e2e --leg psmr|smr --workload read|mixed|read-sync|read-open --seed N
//            --seconds S --trace 0|1 [--inject flip-read|skip-update]
//   psmr_e2e --repro-admit [--seconds S]
//
// --trace 1 adds the per-layer figures: wall time inside submit/poll, the
// layers' public counters over the measured interval, and the workload's
// command stream replayed through KvService::execute_batch.  --inject makes
// one expectation deliberately wrong, so the checks can be seen to fail.
// --repro-admit reproduces the PsmrReplica::admit fault (see README.md).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <memory_resource>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "kvstore/kv_service.h"
#include "smr/runtime.h"
#include "util/alloc_hook.h"
#include "util/buffer_pool.h"

PSMR_DEFINE_ALLOC_HOOK();

namespace {

using namespace psmr;
using Clock = std::chrono::steady_clock;

// --- Fixed make-up of the benchmark (README.md) -----------------------------

constexpr std::uint64_t kKeys = 10'000'000;  // preloaded: key k holds value k
constexpr int kClients = 4;
constexpr std::size_t kOpenCap = 20'000;  // open loop: per-client backlog
constexpr std::size_t kPsmrGroups = 4;
constexpr std::size_t kReplicas = 2;
constexpr int kSetupRepeats = 3;  // setup_s is the median of these
constexpr auto kWarmup = std::chrono::seconds(1);
constexpr double kSliceSeconds = 1.0;  // see Phases
/// A command unanswered this long after it was due is abandoned and counted
/// as failed; its slot is freed.  Far above any healthy latency.
constexpr auto kAbandonAfter = std::chrono::seconds(5);
constexpr std::size_t kReplayCommands = 1'000'000;

struct Workload {
  const char* name;
  bool mixed;          // the mixed mix over owned key ranges, else reads
  double rate_cps;     // open loop: total Poisson rate; 0: closed loop
  std::size_t window;  // closed loop: commands each client keeps in flight
};
constexpr Workload kWorkloads[] = {
    {"read", false, 0, 50},
    {"mixed", true, 0, 50},
    {"read-sync", false, 0, 1},
    {"read-open", false, 10'000, 0},
};

enum class Leg { kPsmr, kSmr };
enum class Inject { kNone, kFlipRead, kSkipUpdate };

std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::int64_t to_ns(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

float us(std::int64_t ns) { return static_cast<float>(ns) / 1000.0f; }

/// Seeds one random stream per (seed, client, purpose).
std::mt19937_64 stream_rng(std::uint64_t seed, int client, int purpose) {
  std::seed_seq seq{seed & 0xffffffffu, seed >> 32,
                    static_cast<std::uint64_t>(client),
                    static_cast<std::uint64_t>(purpose)};
  return std::mt19937_64(seq);
}

// --- Inputs and the model that predicts every reply ------------------------

struct Op {
  smr::CommandId cmd = kvstore::kKvRead;
  std::uint64_t key = 0;
  std::uint64_t value = 0;  // update/insert payload
  kvstore::KvResult expect;
  /// The key's state once the command has executed (writes that succeed).
  std::optional<std::optional<std::uint64_t>> after;

  [[nodiscard]] bool dependent() const {
    return cmd == kvstore::kKvInsert || cmd == kvstore::kKvDelete;
  }
  [[nodiscard]] util::Buffer params() const {
    return (cmd == kvstore::kKvUpdate || cmd == kvstore::kKvInsert)
               ? kvstore::encode_key_value(key, value)
               : kvstore::encode_key(key);
  }
  [[nodiscard]] std::string describe() const {
    static const char* names[] = {"?", "insert", "delete", "read", "update"};
    return std::string(cmd <= 4 ? names[cmd] : "?") + "(key=" +
           std::to_string(key) +
           (cmd == kvstore::kKvUpdate || cmd == kvstore::kKvInsert
                ? ", value=" + std::to_string(value)
                : std::string()) +
           ")";
  }
};

/// The sequence of operations one client issues.  It depends only on the
/// workload, the seed and the client index, never on timing: a client whose
/// next operation cannot be sent yet waits instead of drawing another.
///
/// mixed: 75% reads, 20% updates, 2.5% inserts, 2.5% deletes, uniform over
/// the client's own contiguous quarter of the key space.  The client applies
/// each operation to the model once it is sent, and draws the next one only
/// after that; since it never has two commands on one key in flight, and
/// sends an insert or delete only with nothing else in flight, the model's
/// state at draw time is the state the replicas execute the command against.
class OpGen {
 public:
  OpGen(const Workload& w, std::uint64_t seed, int client, Inject inject)
      : mixed_(w.mixed),
        rng_(stream_rng(seed, client, 0)),
        lo_(w.mixed ? kKeys / kClients * client : 0),
        hi_(w.mixed ? kKeys / kClients * (client + 1) : kKeys),
        key_(lo_, hi_ - 1),
        flip_first_read_(inject == Inject::kFlipRead && client == 0) {}

  Op next() {
    Op op;
    int roll = mixed_ ? pct_(rng_) : 0;
    if (roll < 750) {
      op.key = key_(rng_);
      auto v = value_of(op.key);
      op.expect = v ? kvstore::KvResult{kvstore::kKvOk, *v}
                    : kvstore::KvResult{kvstore::kKvNotFound, 0};
      if (flip_first_read_) {
        op.expect.value ^= 1;
        flip_first_read_ = false;
      }
    } else if (roll < 950) {
      op.cmd = kvstore::kKvUpdate;
      op.key = key_(rng_);
      op.value = rng_();
      if (value_of(op.key)) {
        op.after = op.value;
      } else {
        op.expect.status = kvstore::kKvNotFound;
      }
    } else if (roll < 975 && !deleted_.empty()) {
      // Insert re-adds a deleted key, so inserts and deletes both change
      // the tree's structure instead of bouncing off present keys.
      op.cmd = kvstore::kKvInsert;
      std::uniform_int_distribution<std::size_t> pick(0, deleted_.size() - 1);
      op.key = deleted_[pick(rng_)];
      op.value = rng_();
      op.after = op.value;
    } else {
      op.cmd = kvstore::kKvDelete;
      do {
        op.key = key_(rng_);
      } while (!value_of(op.key));
      op.after = std::optional<std::uint64_t>();
    }
    return op;
  }

  /// Applies a sent operation to the model.
  void apply(const Op& op) {
    if (op.after) set(op.key, *op.after);
  }

  /// Current model value of key k (nullopt: absent).
  [[nodiscard]] std::optional<std::uint64_t> value_of(std::uint64_t k) const {
    auto it = overrides_.find(k);
    return it == overrides_.end() ? std::optional<std::uint64_t>(k)
                                  : it->second;
  }
  /// Sets the model's value of k (also used for keys read back after an
  /// abandoned command left them uncertain).
  void set(std::uint64_t k, std::optional<std::uint64_t> v) {
    auto it = deleted_at_.find(k);
    if (it != deleted_at_.end() && v) {
      std::size_t i = it->second;
      deleted_at_.erase(it);
      if (i + 1 != deleted_.size()) {
        deleted_[i] = deleted_.back();
        deleted_at_[deleted_[i]] = i;
      }
      deleted_.pop_back();
    } else if (it == deleted_at_.end() && !v) {
      deleted_at_[k] = deleted_.size();
      deleted_.push_back(k);
    }
    overrides_[k] = v;
  }
  [[nodiscard]] const std::unordered_map<std::uint64_t,
                                         std::optional<std::uint64_t>>&
  overrides() const {
    return overrides_;
  }

 private:
  bool mixed_;
  std::mt19937_64 rng_;
  std::uint64_t lo_, hi_;
  std::uniform_int_distribution<std::uint64_t> key_;
  std::uniform_int_distribution<int> pct_{0, 999};
  bool flip_first_read_;
  std::unordered_map<std::uint64_t, std::optional<std::uint64_t>> overrides_;
  std::vector<std::uint64_t> deleted_;
  std::unordered_map<std::uint64_t, std::size_t> deleted_at_;
};

// --- One client thread -----------------------------------------------------

/// The measured interval is cut into equal slices; each end-to-end figure
/// is computed per slice and reported as the median over the slices, so a
/// host hiccup of a second or two moves it little.
struct Phases {
  std::int64_t start_ns;  // clients begin
  std::int64_t warm_ns;   // measured interval begins
  std::int64_t end_ns;    // measured interval ends; clients stop sending
  std::size_t slices;
  [[nodiscard]] bool measured(std::int64_t t) const {
    return t >= warm_ns && t < end_ns;
  }
  [[nodiscard]] std::int64_t slice_ns() const {
    return (end_ns - warm_ns) / static_cast<std::int64_t>(slices);
  }
  /// Slice of a measured instant.
  [[nodiscard]] std::size_t slice(std::int64_t t) const {
    return std::min(slices - 1,
                    static_cast<std::size_t>((t - warm_ns) / slice_ns()));
  }
};

struct ClientOutcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Per slice: commands acknowledged and checked, and their latencies (µs,
  // as float to keep the benchmark's own memory small).
  std::vector<std::uint64_t> acked;
  std::vector<std::vector<float>> latency_us;
  std::vector<float> late_us;
  // Traced only: wall time inside the proxy's calls (measured interval).
  std::int64_t submit_ns = 0;
  std::uint64_t submit_calls = 0;
  std::int64_t poll_ns = 0;
  std::uint64_t poll_completions = 0;
  std::vector<std::uint64_t> uncertain;  // keys of abandoned writes
  std::optional<std::string> check_failure;
};

class Client {
 public:
  Client(smr::ClientProxy& proxy, OpGen& gen, const Workload& w, bool trace,
         const Phases& ph, std::uint64_t seed, int index)
      : proxy_(proxy),
        gen_(gen),
        mixed_(w.mixed),
        open_(w.rate_cps > 0),
        window_(w.window),
        trace_(trace),
        ph_(ph),
        gap_rng_(stream_rng(seed, index, 1)),
        gap_(open_ ? w.rate_cps / kClients / 1e9 : 1.0) {}

  ClientOutcome run() {
    out_.acked.assign(ph_.slices, 0);
    out_.latency_us.resize(ph_.slices);
    out_.late_us.reserve(1 << 16);
    Op next = gen_.next();
    std::int64_t next_due = ph_.start_ns + gap();
    std::int64_t freed_at = ph_.start_ns;
    std::int64_t last_sweep = ph_.start_ns;
    while (mono_ns() < ph_.start_ns) std::this_thread::yield();
    for (;;) {
      std::int64_t now = mono_ns();
      if (now < ph_.end_ns) {
        // Open loop: arrivals queue at the client and leave in order, as
        // soon as the ordering rules of ready() allow.  Closed loop: the
        // window refills as commands complete.
        if (open_) {
          for (; next_due <= now; next_due += gap()) {
            if (due_.size() < kOpenCap) {
              due_.push_back(next_due);
            } else {
              ++out_.attempted;
              ++out_.failed;
            }
          }
        } else {
          while (due_.size() + in_flight_.size() < window_) {
            due_.push_back(freed_at);
          }
        }
        while (!due_.empty() && ready(next)) {
          submit(next, due_.front(), now);
          due_.pop_front();
          next = gen_.next();
          now = mono_ns();
        }
      } else if (in_flight_.empty()) {
        break;
      }
      if (now - last_sweep > 50'000'000) {
        abandon_overdue(now);
        last_sweep = now;
      }
      std::int64_t wait_ns = 1'000'000;
      if (open_ && now < ph_.end_ns) {
        wait_ns = std::clamp<std::int64_t>(next_due - now, 1'000, 1'000'000);
      }
      const std::int64_t t0 = trace_ ? mono_ns() : 0;
      auto done = proxy_.poll(std::chrono::microseconds(wait_ns / 1000));
      const std::int64_t t1 = mono_ns();
      if (trace_ && ph_.measured(t0)) out_.poll_ns += t1 - t0;
      if (!done) continue;
      if (trace_ && ph_.measured(t0)) ++out_.poll_completions;
      complete(*done, t1);
      freed_at = t1;
    }
    return std::move(out_);
  }

 private:
  struct InFlight {
    Op op;
    std::int64_t due_ns;
  };

  std::int64_t gap() {
    return static_cast<std::int64_t>(gap_(gap_rng_)) + 1;
  }

  /// Whether `op` may be sent now.  No two commands on one key are in
  /// flight, and an insert or delete is sent only with nothing else in
  /// flight and holds back every later command until it is answered.
  [[nodiscard]] bool ready(const Op& op) const {
    if (in_flight_.size() >= kOpenCap) return false;
    if (!mixed_) return true;
    if (barrier_ || busy_.count(op.key)) return false;
    return !op.dependent() || in_flight_.empty();
  }

  void submit(const Op& op, std::int64_t due, std::int64_t now) {
    ++out_.attempted;
    if (mixed_ && uncertain_.count(op.key)) {
      ++out_.failed;  // its key's state is unknown until read back
      return;
    }
    if (ph_.measured(due)) out_.late_us.push_back(us(now - due));
    const std::int64_t t0 = trace_ ? mono_ns() : 0;
    auto seq = proxy_.submit(op.cmd, op.params());
    if (trace_ && ph_.measured(t0)) {
      out_.submit_ns += mono_ns() - t0;
      ++out_.submit_calls;
    }
    if (!seq) {
      ++out_.failed;
      return;
    }
    gen_.apply(op);
    // Open loop times a command from when it was due; closed loop from
    // when it was sent.
    in_flight_.emplace(*seq, InFlight{op, open_ ? due : mono_ns()});
    if (mixed_) {
      busy_.insert(op.key);
      if (op.dependent()) barrier_ = true;
    }
  }

  void complete(const smr::ClientProxy::Completion& done, std::int64_t now) {
    auto it = in_flight_.find(done.seq);
    if (it == in_flight_.end()) return;  // answered after being abandoned
    const InFlight f = it->second;
    in_flight_.erase(it);
    release(f.op);
    if (done.rejected) {
      ++out_.failed;
      return;
    }
    std::optional<kvstore::KvResult> got;
    try {
      got = kvstore::decode_result(done.payload);
    } catch (const std::exception&) {
    }
    if (!got || got->status != f.op.expect.status ||
        got->value != f.op.expect.value) {
      if (!out_.check_failure) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "client %llu seq %llu %s: expected status %d value "
                      "%llu, got %s",
                      static_cast<unsigned long long>(proxy_.id()),
                      static_cast<unsigned long long>(done.seq),
                      f.op.describe().c_str(), f.op.expect.status,
                      static_cast<unsigned long long>(f.op.expect.value),
                      got ? ("status " + std::to_string(got->status) +
                             " value " + std::to_string(got->value))
                                .c_str()
                          : "an undecodable reply");
        out_.check_failure = buf;
      }
      return;
    }
    if (ph_.measured(now)) {
      const std::size_t i = ph_.slice(now);
      ++out_.acked[i];
      out_.latency_us[i].push_back(us(now - f.due_ns));
    }
  }

  void abandon_overdue(std::int64_t now) {
    const std::int64_t limit = to_ns(kAbandonAfter);
    for (auto it = in_flight_.begin(); it != in_flight_.end();) {
      if (now - it->second.due_ns < limit) {
        ++it;
        continue;
      }
      ++out_.failed;
      const Op& op = it->second.op;
      if (mixed_ && op.cmd != kvstore::kKvRead) {
        uncertain_.insert(op.key);
        out_.uncertain.push_back(op.key);
      }
      release(op);
      it = in_flight_.erase(it);
    }
  }

  void release(const Op& op) {
    if (!mixed_) return;
    busy_.erase(op.key);
    if (op.dependent()) barrier_ = false;
  }

  smr::ClientProxy& proxy_;
  OpGen& gen_;
  bool mixed_;
  bool open_;
  std::size_t window_;
  bool trace_;
  const Phases& ph_;
  std::mt19937_64 gap_rng_;
  std::exponential_distribution<double> gap_;
  // The client's own bookkeeping draws on a pool, so the allocation count
  // over the measured interval is the program's, not the benchmark's.
  std::pmr::unsynchronized_pool_resource pool_;
  std::pmr::unordered_map<smr::Seq, InFlight> in_flight_{&pool_};
  std::pmr::unordered_set<std::uint64_t> busy_{&pool_};
  std::pmr::deque<std::int64_t> due_{&pool_};  // due times not yet sent
  std::unordered_set<std::uint64_t> uncertain_;
  bool barrier_ = false;
  ClientOutcome out_;
};

// --- Counters read at the edges of the measured interval -------------------

struct Snapshot {
  std::int64_t t_ns = 0;
  rusage ru{};
  transport::NetworkStats net;
  paxos::CoordinatorStats paxos;
  smr::ExecStats exec;
  smr::ResponseStats resp;
  smr::SpoolStats spool;
  util::PoolStats pool;
  std::uint64_t allocs = 0;

  static Snapshot take(smr::Deployment& d) {
    Snapshot s;
    s.t_ns = mono_ns();
    getrusage(RUSAGE_SELF, &s.ru);
    s.net = d.network().stats();
    s.paxos = d.multicast_stats();
    s.exec = d.exec_stats();
    s.resp = d.response_stats();
    s.spool = d.spool_stats();
    s.pool = util::BufferPool::global().stats();
    s.allocs = util::allochook::allocations();
    return s;
  }
};

double tv_s(const timeval& tv) { return tv.tv_sec + tv.tv_usec / 1e6; }

/// Process CPU time, user + system, in seconds.
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return tv_s(ru.ru_utime) + tv_s(ru.ru_stime);
}

double rss_mib() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double thread_count() {
  std::error_code ec;
  double n = 0;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++n;
  }
  return n;
}

double percentile(std::vector<float>& v, double q) {
  if (v.empty()) return 0;
  auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

smr::DeploymentConfig leg_config(Leg leg) {
  smr::DeploymentConfig cfg;
  cfg.mode = leg == Leg::kPsmr ? smr::Mode::kPsmr : smr::Mode::kSmr;
  cfg.mpl = leg == Leg::kPsmr ? kPsmrGroups : 1;
  cfg.replicas = kReplicas;
  cfg.service_factory = [] {
    return std::make_unique<kvstore::KvService>(kKeys);
  };
  cfg.cg_factory = [](std::size_t k) { return kvstore::kv_keyed_cg(k); };
  return cfg;
}

smr::Command make_command(const Op& op) {
  smr::Command c;
  c.cmd = op.cmd;
  c.params = op.params();
  return c;
}

/// ns per command of `commands` commands of the workload's stream executed
/// through KvService::execute_batch, outside replication, in the runs a
/// replica would form: consecutive independent commands, at most the
/// deployment's default exec_run_length.
double replay_ns_per_cmd(kvstore::KvService& svc, const Workload& w,
                         std::uint64_t seed) {
  const std::size_t run_length = smr::DeploymentConfig{}.exec_run_length;
  std::vector<OpGen> gens;
  for (int c = 0; c < kClients; ++c) gens.emplace_back(w, seed, c, Inject::kNone);
  std::vector<smr::Command> stream;
  stream.reserve(kReplayCommands);
  for (std::size_t i = 0; i < kReplayCommands; ++i) {
    OpGen& gen = gens[i % kClients];
    const Op op = gen.next();
    gen.apply(op);
    stream.push_back(make_command(op));
  }
  struct Discard final : smr::ResponseSink {
    void accept(std::size_t, util::Buffer) override {}
  } sink;
  const auto t0 = Clock::now();
  std::size_t begin = 0;
  while (begin < stream.size()) {
    std::size_t end = begin + 1;
    while (end < stream.size() && end - begin < run_length) {
      bool joins = true;
      for (std::size_t j = begin; j < end && joins; ++j) {
        joins = svc.may_share_batch(stream[j], stream[end]);
      }
      if (!joins) break;
      ++end;
    }
    smr::CommandBatch batch{
        std::span<const smr::Command>(stream.data() + begin, end - begin),
        &sink};
    svc.execute_batch(batch);
    begin = end;
  }
  return static_cast<double>(to_ns(Clock::now() - t0)) /
         static_cast<double>(stream.size());
}

void print_metric(std::string& out, const char* name, double v) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s\"%s\":%.17g", out.size() > 1 ? "," : "",
                name, v);
  out += buf;
}

struct Args {
  Leg leg = Leg::kPsmr;
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Inject inject = Inject::kNone;
  bool repro_admit = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "psmr_e2e: %s\nusage: psmr_e2e --leg psmr|smr --workload "
               "read|mixed|read-sync|read-open --seed N --seconds S --trace 0|1 "
               "[--inject flip-read|skip-update]\n       psmr_e2e "
               "--repro-admit [--seconds S]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_leg = false;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--repro-admit") {
      a.repro_admit = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    std::string v = argv[++i];
    if (k == "--leg") {
      if (v != "psmr" && v != "smr") usage("--leg must be psmr or smr");
      a.leg = v == "psmr" ? Leg::kPsmr : Leg::kSmr;
      have_leg = true;
    } else if (k == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (v == w.name) a.workload = &w;
      }
      if (!a.workload) usage("unknown workload");
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
      if (!(a.seconds > 0 && a.seconds <= 120)) usage("--seconds out of range");
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--inject") {
      if (v == "flip-read") a.inject = Inject::kFlipRead;
      else if (v == "skip-update") a.inject = Inject::kSkipUpdate;
      else usage("unknown --inject");
    } else {
      usage(("unknown flag " + k).c_str());
    }
  }
  if (!a.repro_admit && (!have_leg || !a.workload)) {
    usage("--leg and --workload are required");
  }
  if (a.inject == Inject::kSkipUpdate && !a.workload->mixed) {
    usage("--inject skip-update needs a mixed workload");
  }
  return a;
}

// --- The PsmrReplica::admit fault, reproduced ------------------------------

/// One client, 50 commands in flight, 10% inserts/deletes on P-SMR with 4
/// groups.  Prints how many commands were never answered.
int repro_admit(double seconds) {
  constexpr std::size_t kReproWindow = 50;
  smr::DeploymentConfig cfg = leg_config(Leg::kPsmr);
  cfg.service_factory = [] {
    return std::make_unique<kvstore::KvService>(100'000);
  };
  smr::Deployment d(std::move(cfg));
  d.start();
  auto proxy = d.make_client();
  std::mt19937_64 rng(1);
  std::unordered_set<smr::Seq> in_flight;
  std::uint64_t sent = 0, inserted = 0, deleted = 0;
  const auto stop_at = Clock::now() + std::chrono::duration<double>(seconds);
  while (Clock::now() < stop_at) {
    while (in_flight.size() < kReproWindow && Clock::now() < stop_at) {
      int roll = static_cast<int>(rng() % 100);
      std::optional<smr::Seq> seq;
      if (roll < 5) {
        seq = proxy->submit(kvstore::kKvInsert,
                            kvstore::encode_key_value(1'000'000 + inserted++, 1));
      } else if (roll < 10 && deleted < inserted) {
        seq = proxy->submit(kvstore::kKvDelete,
                            kvstore::encode_key(1'000'000 + deleted++));
      } else {
        seq = proxy->submit(kvstore::kKvRead,
                            kvstore::encode_key(rng() % 100'000));
      }
      if (!seq) break;
      ++sent;
      in_flight.insert(*seq);
    }
    auto done = proxy->poll(std::chrono::milliseconds(100));
    if (!done) break;  // nothing answered for 100 ms: the window is stranded
    in_flight.erase(done->seq);
  }
  const auto deadline = Clock::now() + kAbandonAfter;
  while (!in_flight.empty() && Clock::now() < deadline) {
    if (auto done = proxy->poll(std::chrono::milliseconds(100))) {
      in_flight.erase(done->seq);
    }
  }
  std::printf("repro-admit: P-SMR, %zu groups, 1 client, window %zu: %llu "
              "commands sent, %zu never answered\n",
              kPsmrGroups, kReproWindow, static_cast<unsigned long long>(sent),
              in_flight.size());
  proxy.reset();
  d.stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (args.repro_admit) return repro_admit(args.seconds);
  const char* leg_name = args.leg == Leg::kPsmr ? "psmr" : "smr";
  const Workload& workload = *args.workload;
  const char* wl_name = workload.name;

  // Set-up: construct, preload and start the deployment several times; the
  // last one is measured.
  std::vector<double> setup_s;
  std::unique_ptr<smr::Deployment> d;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (d) d->stop();
    d.reset();
    const auto t0 = Clock::now();
    d = std::make_unique<smr::Deployment>(leg_config(args.leg));
    d->start();
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }

  std::vector<std::unique_ptr<smr::ClientProxy>> proxies;
  std::vector<OpGen> gens;
  for (int c = 0; c < kClients; ++c) {
    proxies.push_back(d->make_client());
    gens.emplace_back(workload, args.seed, c, args.inject);
  }
  Phases ph;
  ph.start_ns = mono_ns() + 50'000'000;
  ph.warm_ns = ph.start_ns + to_ns(kWarmup);
  ph.end_ns = ph.warm_ns + static_cast<std::int64_t>(args.seconds * 1e9);
  ph.slices = std::max<std::size_t>(1, static_cast<std::size_t>(
                                           args.seconds / kSliceSeconds));

  std::vector<ClientOutcome> outcomes(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client(*proxies[c], gens[c], workload, args.trace, ph,
                    args.seed, c);
      outcomes[c] = client.run();
    });
  }
  auto sleep_until_ns = [](std::int64_t t) {
    std::int64_t now = mono_ns();
    if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
  };
  // Process CPU time at every slice edge; resident memory every 100 ms.
  sleep_until_ns(ph.warm_ns);
  const Snapshot begin = Snapshot::take(*d);
  std::vector<double> cpu_at{cpu_seconds()};
  double peak_rss = rss_mib();
  for (std::size_t i = 1; i <= ph.slices; ++i) {
    const std::int64_t edge = i == ph.slices
                                  ? ph.end_ns
                                  : ph.warm_ns + ph.slice_ns() *
                                                     static_cast<std::int64_t>(i);
    while (mono_ns() < edge) {
      sleep_until_ns(std::min(edge, mono_ns() + 100'000'000));
      peak_rss = std::max(peak_rss, rss_mib());
    }
    cpu_at.push_back(cpu_seconds());
  }
  const Snapshot end = Snapshot::take(*d);
  const double threads_seen = thread_count();
  for (auto& t : threads) t.join();

  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::uint64_t> acked(ph.slices, 0);
  std::vector<std::vector<float>> latency(ph.slices);
  std::vector<float> late;
  std::int64_t submit_ns = 0, poll_ns = 0;
  std::uint64_t submit_calls = 0, poll_completions = 0;
  std::optional<std::string> failure;
  std::vector<std::pair<int, std::uint64_t>> uncertain;
  for (int c = 0; c < kClients; ++c) {
    ClientOutcome& o = outcomes[c];
    attempted += o.attempted;
    failed += o.failed;
    for (std::size_t i = 0; i < ph.slices; ++i) {
      acked[i] += o.acked[i];
      latency[i].insert(latency[i].end(), o.latency_us[i].begin(),
                        o.latency_us[i].end());
    }
    late.insert(late.end(), o.late_us.begin(), o.late_us.end());
    submit_ns += o.submit_ns;
    submit_calls += o.submit_calls;
    poll_ns += o.poll_ns;
    poll_completions += o.poll_completions;
    if (o.check_failure && !failure) failure = o.check_failure;
    for (auto k : o.uncertain) uncertain.emplace_back(c, k);
  }

  // Keys left uncertain by an abandoned write are read back before the
  // state check.
  for (auto [c, key] : uncertain) {
    auto reply = proxies[0]->call(kvstore::kKvRead, kvstore::encode_key(key));
    if (!reply) {
      if (!failure) failure = "read-back of key " + std::to_string(key) + " timed out";
      continue;
    }
    auto r = kvstore::decode_result(*reply);
    gens[c].set(key, r.status == kvstore::kKvOk
                         ? std::optional<std::uint64_t>(r.value)
                         : std::nullopt);
  }

  // Replicas agree on what they executed and on their state, and that
  // state equals a reference store built apart from replication.
  std::uint64_t last0 = ~0ull;
  int stable = 0;
  const auto converge_by = Clock::now() + std::chrono::seconds(30);
  while (stable < 3 && Clock::now() < converge_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const std::uint64_t e0 = d->executed(0);
    stable = (e0 == d->executed(1) && e0 == last0) ? stable + 1 : 0;
    last0 = e0;
  }
  proxies.clear();
  d->stop();
  std::vector<std::uint64_t> digests, executed;
  for (std::size_t r = 0; r < kReplicas; ++r) {
    digests.push_back(d->state_digest(r));
    executed.push_back(d->executed(r));
  }
  d.reset();

  kvstore::KvService reference(kKeys);
  std::map<std::uint64_t, std::optional<std::uint64_t>> model;
  for (const auto& g : gens) model.insert(g.overrides().begin(), g.overrides().end());
  bool skipped = args.inject != Inject::kSkipUpdate;
  for (const auto& [key, v] : model) {
    if (!skipped && v && *v != key) {
      skipped = true;  // --inject skip-update: leave this update out
      continue;
    }
    Op op;
    op.key = key;
    op.cmd = v ? kvstore::kKvUpdate : kvstore::kKvDelete;
    op.value = v.value_or(0);
    (void)reference.execute(make_command(op));
  }
  const std::uint64_t want = reference.state_digest();
  for (std::size_t r = 0; r < kReplicas && !failure; ++r) {
    if (executed[r] != executed[0]) {
      failure = "replica " + std::to_string(r) + " executed " +
                std::to_string(executed[r]) + " commands, replica 0 " +
                std::to_string(executed[0]);
    } else if (digests[r] != want) {
      failure = "replica " + std::to_string(r) +
                " state digest differs from the reference store";
    }
  }

  const double window_s = static_cast<double>(end.t_ns - begin.t_ns) / 1e9;
  const double cpu_s = tv_s(end.ru.ru_utime) + tv_s(end.ru.ru_stime) -
                       tv_s(begin.ru.ru_utime) - tv_s(begin.ru.ru_stime);
  const double sys_s = tv_s(end.ru.ru_stime) - tv_s(begin.ru.ru_stime);
  std::size_t samples = 0;
  std::vector<double> p50_at, p99_at, cpu_at_cmd;
  for (std::size_t i = 0; i < ph.slices; ++i) {
    const double got = static_cast<double>(acked[i]);
    samples += latency[i].size();
    p50_at.push_back(percentile(latency[i], 0.50));
    p99_at.push_back(percentile(latency[i], 0.99));
    cpu_at_cmd.push_back(ratio((cpu_at[i + 1] - cpu_at[i]) * 1e6, got));
  }
  const double n = static_cast<double>(samples);
  const double kcps = n / window_s / 1000.0;

  std::string m = "{";
  print_metric(m, "kcps", kcps);
  print_metric(m, "p50_us", median(p50_at));
  print_metric(m, "p99_us", median(p99_at));
  print_metric(m, "cpu_us_per_cmd", median(cpu_at_cmd));
  print_metric(m, "rss_mb", peak_rss);
  if (args.trace) {
    const auto& p0 = begin.paxos;
    const auto& p1 = end.paxos;
    const double decided = static_cast<double>(p1.decided_batches - p0.decided_batches);
    const double skips = static_cast<double>(p1.decided_skips - p0.decided_skips);
    const double sealed = static_cast<double>(p1.sealed_batches - p0.sealed_batches);
    const auto pool_hits = end.pool.hits - begin.pool.hits;
    const auto pool_misses = end.pool.misses - begin.pool.misses;
    const auto pool_over = end.pool.oversize - begin.pool.oversize;
    const smr::ExecStats ex = end.exec - begin.exec;
    print_metric(m, "client.submit_us", ratio(submit_ns / 1e3, submit_calls));
    print_metric(m, "client.poll_us", ratio(poll_ns / 1e3, poll_completions));
    print_metric(m, "spool.cmds_per_flush",
                 ratio(end.spool.flushed_commands - begin.spool.flushed_commands,
                       end.spool.flushes - begin.spool.flushes));
    print_metric(m, "bus.skips_per_kcmd", ratio(skips * 1000, n));
    print_metric(m, "bus.cmd_instance_share", ratio(decided - skips, decided));
    print_metric(m, "paxos.cmds_per_batch",
                 ratio(p1.sealed_commands - p0.sealed_commands, sealed));
    print_metric(m, "paxos.seal_timeout_share",
                 ratio(p1.sealed_on_timeout - p0.sealed_on_timeout, sealed));
    print_metric(m, "paxos.cmds_per_submit_msg",
                 ratio(p1.submit_commands - p0.submit_commands,
                       p1.submit_msgs - p0.submit_msgs));
    print_metric(m, "paxos.batches_per_s", ratio(decided - skips, window_s));
    print_metric(m, "net.msgs_per_cmd",
                 ratio(end.net.messages_sent - begin.net.messages_sent, n));
    print_metric(m, "net.bytes_per_cmd",
                 ratio(end.net.bytes_sent - begin.net.bytes_sent, n));
    print_metric(m, "resp.per_msg",
                 ratio(end.resp.responses - begin.resp.responses,
                       end.resp.wire_messages - begin.resp.wire_messages));
    print_metric(m, "exec.cmds_per_batch", ex.mean_commands_per_batch());
    print_metric(m, "exec.batched_read_share", ex.batched_read_share());
    print_metric(m, "kv.exec_ns_per_cmd",
                 replay_ns_per_cmd(reference, workload, args.seed));
    print_metric(m, "alloc.per_cmd", ratio(end.allocs - begin.allocs, n));
    print_metric(m, "pool.miss_share",
                 ratio(pool_misses, pool_hits + pool_misses + pool_over));
    print_metric(m, "proc.vcsw_per_cmd",
                 ratio(end.ru.ru_nvcsw - begin.ru.ru_nvcsw, n));
    print_metric(m, "proc.ivcsw_per_cmd",
                 ratio(end.ru.ru_nivcsw - begin.ru.ru_nivcsw, n));
    print_metric(m, "proc.sys_share", ratio(sys_s, cpu_s));
    print_metric(m, "proc.threads", threads_seen);
    print_metric(m, "gen.late_p99_us", percentile(late, 0.99));
  }
  m += "}";

  if (failure) {
    std::fprintf(stderr, "CHECK FAILED workload=%s leg=%s: %s\n", wl_name,
                 leg_name, failure->c_str());
  }
  std::printf(
      "{\"leg\":\"%s\",\"workload\":\"%s\",\"correct\":%s,\"attempted\":%llu,"
      "\"failed\":%llu,\"samples\":%zu,\"kcps\":%.17g,\"setup_s\":%.17g,"
      "\"setup_runs\":%d,\"metrics\":%s}\n",
      leg_name, wl_name, failure ? "false" : "true",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), samples, kcps,
      median(setup_s), kSetupRepeats, m.c_str());
  return failure ? 1 : 0;
}
