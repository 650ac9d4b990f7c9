// doraperf: the doradb benchmark driver. One process runs one workload:
//
//   doraperf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--work-dir <dir>]
//
// It opens a Database, loads the workload's data, starts the DORA engine
// (all workloads but tm1-baseline), then runs a closed loop of up to four
// client threads: each client sends its next transaction only after the
// previous one returned. Transaction inputs come from per-client Rngs
// seeded by --seed, so the same seed replays the same inputs.
//
// Untraced runs (--trace 0) measure the end-to-end metrics over one
// window of --seconds after a warm-up. Traced runs (--trace 1) alternate
// untraced and traced windows of the same process — traced windows turn on
// the stage-gap profiler at 1-in-1, the commit tracer and this program's
// own spans — report per-layer numbers over the traced windows only, the
// traced tps and its overhead against the untraced windows, then time
// isolated calls into each layer (the *_ns probes) on the loaded database.
//
// Every run counts outcomes the way the workload specs do (TATP not-found
// and duplicate results are completed work; any other non-OK status is a
// failed operation) and checks its outputs from row counts and invariants
// the engine does not report itself. A failed check prints
// "correct": false and exits 1.
//
// The last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dora/dora_engine.h"
#include "engine/database.h"
#include "lock/lock_id.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "util/mpsc_queue.h"
#include "util/rng.h"
#include "util/sync_stats.h"
#include "util/thread_pool.h"
#include "workloads/tm1/tm1.h"
#include "workloads/tpcb/tpcb.h"

namespace doradb {
namespace perf {
namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point g_process_start = Clock::now();

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now() - g_process_start)
          .count());
}

// Closed-loop client count: one per hardware context, at most four.
constexpr uint32_t kMaxClients = 4;
// Warm-up before the first measured window: executor arenas, inbox
// batches and buffer-pool frames settle before anything is timed.
constexpr double kWarmupSeconds = 1.0;
// Traced runs alternate untraced/traced windows of this length.
constexpr double kTraceWindowSeconds = 0.5;
// Untraced runs report medians over slices of about this length.
constexpr double kSliceSeconds = 0.5;

// ------------------------------------------------------------------ args

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a->trace = std::strcmp(v, "0") != 0;
    } else if (k == "--work-dir") {
      a->work_dir = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a->workload.empty() && a->seconds > 0;
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull +
               0x94D049BB133111EBull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// -------------------------------------------------------------- outcomes

// Completed = kCommitted + kSpecOutcome (TATP counts a "not found" or a
// duplicate insert as executed work); kFailed is everything else
// (deadlock, timeout, Unavailable, indeterminate, ...).
enum class Outcome : uint8_t { kCommitted, kSpecOutcome, kFailed };

struct TypeCounts {
  uint64_t committed = 0;
  uint64_t spec = 0;
  uint64_t failed = 0;
  std::map<std::string, uint64_t> failed_by_code;  // by Status::CodeName
};

Status CountRows(Database* db, TableId table, uint64_t* n) {
  *n = 0;
  return db->catalog()->Heap(table)->Scan([n](const Rid&, std::string_view) {
    ++*n;
    return true;
  });
}

// ------------------------------------------------------------ workloads

// One benchmark workload: its data set, its transaction mix, its outcome
// rules and its output checks. Drives the engine only through the public
// Workload / Database / DoraEngine interfaces.
class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;

  // Open the database, load the data set, start the engine.
  virtual Status Setup(const Args& args) = 0;
  virtual std::vector<std::string> TypeNames() const = 0;
  virtual uint32_t Pick(Rng& rng) const = 0;
  virtual Status Run(uint32_t type, Rng& rng) = 0;
  virtual Outcome Classify(uint32_t type, const Status& s) const = 0;
  // Record the row counts Check compares against (called after Setup).
  virtual Status BeforeRun() = 0;
  // Verify the outputs against the per-type outcome counts of every
  // transaction the clients ran (warm-up included). Clients have stopped.
  virtual Status Check(const std::vector<TypeCounts>& counts) = 0;
  // A table and index of the data set plus existing keys for the probes.
  virtual TableId ProbeTable() const = 0;
  virtual IndexId ProbeIndex() const = 0;
  virtual std::string ProbeKey(uint64_t i) const = 0;
  // Remove on-disk state (durable workloads).
  virtual void Cleanup() {}

  Database* db() { return db_.get(); }
  dora::DoraEngine* engine() { return engine_.get(); }

 protected:
  void StartEngine(dora::DoraEngine::Options opts,
                   Workload* workload) {
    engine_ = std::make_unique<dora::DoraEngine>(db_.get(), opts);
    workload->SetupDora(engine_.get());
    engine_->Start();
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<dora::DoraEngine> engine_;
};

// TATP: very short transactions, mostly reads, data well inside the buffer
// pool, in-memory media. `dora` selects DORA flow graphs vs the Baseline's
// thread-to-transaction execution over the central lock manager.
class Tm1Bench : public BenchWorkload {
 public:
  static constexpr uint64_t kSubscribers = 20000;
  static constexpr size_t kFrames = 8192;  // 64 MiB of 8 KiB pages

  explicit Tm1Bench(bool dora) : dora_(dora) {}
  ~Tm1Bench() override {
    if (engine_ != nullptr) engine_->Stop();
  }

  Status Setup(const Args&) override {
    Database::Options o;
    o.buffer_frames = kFrames;
    db_ = std::make_unique<Database>(o);
    tm1::Tm1Workload::Config cfg;
    cfg.subscribers = kSubscribers;
    wl_ = std::make_unique<tm1::Tm1Workload>(db_.get(), cfg);
    DORADB_RETURN_NOT_OK(wl_->Load());
    if (dora_) StartEngine(dora::DoraEngine::Options(), wl_.get());
    return Status::OK();
  }

  std::vector<std::string> TypeNames() const override {
    std::vector<std::string> out;
    for (uint32_t t = 0; t < tm1::kNumTxnTypes; ++t) {
      out.push_back(wl_->TxnName(t));
    }
    return out;
  }
  // TATP's weights without its two read-then-update transactions
  // (UpdateSubscriberData, UpdateLocation): under the Baseline those
  // deadlock now and then on the S->X upgrade, and both tm1 workloads must
  // run the same inputs for their tps ratio to mean anything.
  uint32_t Pick(Rng& rng) const override {
    const uint64_t p = rng.UniformInt(uint64_t{1}, uint64_t{84});
    if (p <= 35) return tm1::kGetSubscriberData;
    if (p <= 45) return tm1::kGetNewDestination;
    if (p <= 80) return tm1::kGetAccessData;
    if (p <= 82) return tm1::kInsertCallForwarding;
    return tm1::kDeleteCallForwarding;
  }
  Status Run(uint32_t type, Rng& rng) override {
    return dora_ ? wl_->RunDora(engine_.get(), type, rng)
                 : wl_->RunBaseline(type, rng);
  }

  // TATP result rules: GetNewDestination's "no destination" is an empty
  // result of a committed read; a missing row or a duplicate insert is
  // the spec's expected failure rate of the other types.
  Outcome Classify(uint32_t type, const Status& s) const override {
    if (s.ok()) return Outcome::kCommitted;
    switch (type) {
      case tm1::kGetNewDestination:
        return s.IsNotFound() ? Outcome::kCommitted : Outcome::kFailed;
      case tm1::kGetAccessData:
      case tm1::kDeleteCallForwarding:
        return s.IsNotFound() ? Outcome::kSpecOutcome : Outcome::kFailed;
      case tm1::kInsertCallForwarding:
        return s.IsNotFound() || s.IsDuplicate() ? Outcome::kSpecOutcome
                                                 : Outcome::kFailed;
      default:
        return Outcome::kFailed;
    }
  }

  Status BeforeRun() override {
    return CountRows(db_.get(), wl_->schema().call_forwarding, &cf_before_);
  }

  Status Check(const std::vector<TypeCounts>& counts) override {
    uint64_t cf_after = 0;
    DORADB_RETURN_NOT_OK(
        CountRows(db_.get(), wl_->schema().call_forwarding, &cf_after));
    const uint64_t inserted = counts[tm1::kInsertCallForwarding].committed;
    const uint64_t deleted = counts[tm1::kDeleteCallForwarding].committed;
    if (cf_after + deleted != cf_before_ + inserted) {
      return Status::Corruption(
          "CallForwarding rows: before=" + std::to_string(cf_before_) +
          " inserted=" + std::to_string(inserted) +
          " deleted=" + std::to_string(deleted) +
          " after=" + std::to_string(cf_after));
    }
    return wl_->CheckConsistency();
  }

  TableId ProbeTable() const override { return wl_->schema().subscriber; }
  IndexId ProbeIndex() const override { return wl_->schema().sub_pk; }
  std::string ProbeKey(uint64_t i) const override {
    return tm1::Schema::SubKey(1 + i % kSubscribers);
  }

 private:
  const bool dora_;
  std::unique_ptr<tm1::Tm1Workload> wl_;
  uint64_t cf_before_ = 0;
};

// Write-only TPC-B on DORA, file-backed: partitioned WAL with pipelined
// commit, the checkpoint daemon on, and a buffer pool smaller than the
// data, so log flush, fsync, ack, checkpoint and eviction dominate.
class TpcbDurableBench : public BenchWorkload {
 public:
  static constexpr uint64_t kBranches = 8;
  static constexpr uint64_t kAccountsPerBranch = 10000;
  static constexpr uint32_t kAccountExecutors = 2;
  // branch + teller + history executors, one each, plus the accounts'.
  static constexpr uint32_t kExecutors = kAccountExecutors + 3;
  static constexpr size_t kFrames = 512;  // 4 MiB of 8 KiB pages

  ~TpcbDurableBench() override {
    if (engine_ != nullptr) engine_->Stop();
  }

  Status Setup(const Args& args) override {
    dir_ = args.work_dir + "/data/tpcb-durable-" + std::to_string(getpid());
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::filesystem::create_directories(dir_, ec);
    if (ec) return Status::IOError("cannot create " + dir_);
    opts_.data_dir = dir_;
    opts_.buffer_frames = kFrames;
    opts_.log_backend = LogBackendKind::kPartitioned;
    opts_.log_partitions = kExecutors;
    opts_.checkpoint.enabled = true;
    db_ = std::make_unique<Database>(opts_);
    cfg_.branches = kBranches;
    cfg_.accounts_per_branch = kAccountsPerBranch;
    cfg_.account_executors = kAccountExecutors;
    cfg_.other_executors = 1;
    wl_ = std::make_unique<tpcb::TpcbWorkload>(db_.get(), cfg_);
    DORADB_RETURN_NOT_OK(wl_->Load());
    dora::DoraEngine::Options eo;
    eo.pipelined_commit = true;
    StartEngine(eo, wl_.get());
    return Status::OK();
  }

  std::vector<std::string> TypeNames() const override {
    return {wl_->TxnName(0)};
  }
  uint32_t Pick(Rng&) const override { return 0; }
  Status Run(uint32_t type, Rng& rng) override {
    return wl_->RunDora(engine_.get(), type, rng);
  }
  Outcome Classify(uint32_t, const Status& s) const override {
    return s.ok() ? Outcome::kCommitted : Outcome::kFailed;
  }

  Status BeforeRun() override {
    return CountRows(db_.get(), wl_->schema().history, &history_before_);
  }

  // Kill the process image (no stable-log truncation, as a dead process
  // leaves its files), reopen the directory in a second lifetime and
  // recover from the files alone. Every acknowledged commit must be there.
  Status Check(const std::vector<TypeCounts>& counts) override {
    engine_->Stop();
    db_->SimulateKill();
    engine_.reset();
    wl_.reset();
    db_.reset();
    Database::Options reopen = opts_;
    reopen.checkpoint.enabled = false;
    db_ = std::make_unique<Database>(reopen);
    DORADB_RETURN_NOT_OK(db_->Recover());
    wl_ = std::make_unique<tpcb::TpcbWorkload>(db_.get(), cfg_);
    DORADB_RETURN_NOT_OK(wl_->Attach());
    uint64_t history_after = 0;
    DORADB_RETURN_NOT_OK(
        CountRows(db_.get(), wl_->schema().history, &history_after));
    const uint64_t commits = counts[0].committed;
    if (history_after != history_before_ + commits) {
      return Status::Corruption(
          "recovered History rows=" + std::to_string(history_after) +
          ", expected " + std::to_string(history_before_) + " + " +
          std::to_string(commits) + " acknowledged commits");
    }
    return wl_->CheckConsistency();
  }

  TableId ProbeTable() const override { return wl_->schema().account; }
  IndexId ProbeIndex() const override { return wl_->schema().account_pk; }
  std::string ProbeKey(uint64_t i) const override {
    return tpcb::Schema::Key(1 + i % (kBranches * kAccountsPerBranch));
  }

  void Cleanup() override {
    if (engine_ != nullptr) engine_->Stop();
    engine_.reset();
    wl_.reset();
    db_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

 private:
  std::string dir_;
  Database::Options opts_;
  tpcb::TpcbWorkload::Config cfg_;
  std::unique_ptr<tpcb::TpcbWorkload> wl_;
  uint64_t history_before_ = 0;
};

std::unique_ptr<BenchWorkload> MakeWorkload(const std::string& name) {
  if (name == "tm1") return std::make_unique<Tm1Bench>(true);
  if (name == "tm1-baseline") return std::make_unique<Tm1Bench>(false);
  if (name == "tpcb-durable") return std::make_unique<TpcbDurableBench>();
  return nullptr;
}

// ----------------------------------------------------------------- spans

// The benchmark's own spans: one per transaction call in a traced window
// and one per probe batch. Kept in memory, written out when the run ends.
struct Span {
  uint64_t id;
  uint64_t parent;  // 0 = root
  uint32_t name;    // index into the run's span-name table
  uint32_t thread;
  uint64_t start_ns;
  uint64_t end_ns;
};

uint64_t SpanId(uint32_t thread, uint64_t seq) {
  return (static_cast<uint64_t>(thread + 1) << 40) | seq;
}

// ---------------------------------------------------------------- clients

enum Phase : int { kWarmup = 0, kMeasure = 1, kStop = 2 };

// One completed transaction of a measured window.
struct Sample {
  uint64_t end_ns;      // completion time, NowNs()
  uint64_t latency_ns;  // client-observed, call to return
};

struct alignas(64) Client {
  std::vector<TypeCounts> counts;  // every transaction, warm-up included
  std::vector<Sample> samples;
  std::vector<Span> spans;
  std::atomic<uint64_t> completed{0};  // read by the window sampler
};

struct Shared {
  std::atomic<int> phase{kWarmup};
  std::atomic<bool> tracing{false};
};

void ClientLoop(BenchWorkload* w, uint32_t id, uint64_t seed,
                uint32_t type_name_base, Shared* shared, Client* c) {
  Rng rng(MixSeed(seed, id + 1));
  const uint64_t root = SpanId(id, 0);
  const uint64_t root_start = NowNs();
  uint64_t seq = 0;
  while (shared->phase.load(std::memory_order_acquire) != kStop) {
    const uint32_t type = w->Pick(rng);
    const bool traced = shared->tracing.load(std::memory_order_relaxed);
    const uint64_t t0 = NowNs();
    const Status s = w->Run(type, rng);
    const uint64_t t1 = NowNs();
    const Outcome o = w->Classify(type, s);
    TypeCounts& tc = c->counts[type];
    if (o == Outcome::kFailed) {
      ++tc.failed;
      if (tc.failed_by_code[s.CodeName()]++ == 0) {
        std::fprintf(stderr, "doraperf: first %s failure: %s\n",
                     s.CodeName(), s.ToString().c_str());
      }
      continue;
    }
    (o == Outcome::kCommitted ? tc.committed : tc.spec)++;
    c->completed.fetch_add(1, std::memory_order_relaxed);
    if (shared->phase.load(std::memory_order_relaxed) == kMeasure) {
      c->samples.push_back(Sample{t1, t1 - t0});
    }
    if (traced) {
      c->spans.push_back(
          Span{SpanId(id, ++seq), root, type_name_base + type, id, t0, t1});
    }
  }
  if (seq > 0) {
    c->spans.push_back(Span{root, 0, 0, id, root_start, NowNs()});
  }
}

// ------------------------------------------------------- layer counters

// Every counter a per-layer metric reads, captured at a window boundary.
struct LayerSnap {
  uint64_t at_ns = 0;
  uint64_t completed = 0;
  StatsSnapshot threads;
  dora::DoraEngine::InboxStats inbox;
  uint64_t pipelined = 0;
  uint64_t acked_inline = 0;
  uint64_t bp_hits = 0;
  uint64_t bp_misses = 0;
  uint64_t bp_evictions = 0;
  obs::MetricsSnapshot registry;
};

LayerSnap TakeSnap(BenchWorkload* w, const std::vector<Client>& clients) {
  LayerSnap s;
  for (const Client& c : clients) {
    s.completed += c.completed.load(std::memory_order_relaxed);
  }
  s.at_ns = NowNs();
  s.threads = ThreadStats::AggregateSnapshot();
  if (dora::DoraEngine* e = w->engine()) {
    s.inbox = e->CollectInboxStats();
    s.pipelined = e->txns_pipelined();
    s.acked_inline = e->txns_acked_inline();
  }
  BufferPool* bp = w->db()->buffer_pool();
  s.bp_hits = bp->hits();
  s.bp_misses = bp->misses();
  s.bp_evictions = bp->evictions();
  s.registry = obs::MetricsRegistry::Default().Snapshot();
  return s;
}

// Sum of the deltas of one or more windows.
struct LayerTotals {
  double seconds = 0;
  uint64_t completed = 0;
  StatsSnapshot threads;
  dora::DoraEngine::InboxStats inbox;
  uint64_t pipelined = 0;
  uint64_t acked_inline = 0;
  uint64_t bp_hits = 0;
  uint64_t bp_misses = 0;
  uint64_t bp_evictions = 0;
  std::map<std::string, obs::MetricValue> registry;

  void Add(const LayerSnap& a, const LayerSnap& b) {
    seconds += static_cast<double>(b.at_ns - a.at_ns) / 1e9;
    completed += b.completed - a.completed;
    const StatsSnapshot d = b.threads - a.threads;
    for (size_t i = 0; i < kNumTimeClasses; ++i) {
      threads.cycles[i] += d.cycles[i];
    }
    for (size_t i = 0; i < kNumLockCounters; ++i) {
      threads.lock_counts[i] += d.lock_counts[i];
    }
    const dora::DoraEngine::InboxStats di = b.inbox - a.inbox;
    inbox.batches += di.batches;
    inbox.items += di.items;
    inbox.wakeups += di.wakeups;
    inbox.actions += di.actions;
    inbox.tickets += di.tickets;
    pipelined += b.pipelined - a.pipelined;
    acked_inline += b.acked_inline - a.acked_inline;
    bp_hits += b.bp_hits - a.bp_hits;
    bp_misses += b.bp_misses - a.bp_misses;
    bp_evictions += b.bp_evictions - a.bp_evictions;
    const obs::MetricsSnapshot delta = b.registry.Delta(a.registry);
    for (const obs::MetricValue& m : delta.metrics) {
      auto [it, fresh] = registry.try_emplace(m.name, m);
      if (fresh) continue;
      obs::MetricValue& acc = it->second;
      acc.value += m.value;
      acc.count += m.count;
      acc.sum += m.sum;
      for (size_t i = 0; i < acc.buckets.size(); ++i) {
        acc.buckets[i] += m.buckets[i];
      }
    }
  }

  double Counter(const char* name) const {
    auto it = registry.find(name);
    return it == registry.end() ? 0.0 : static_cast<double>(it->second.value);
  }
  double HistSum(const char* name) const {
    auto it = registry.find(name);
    return it == registry.end() ? 0.0 : static_cast<double>(it->second.sum);
  }
  double HistP50(const char* name) const {
    auto it = registry.find(name);
    if (it == registry.end()) return 0.0;
    obs::MetricValue m = it->second;
    if (m.type != obs::MetricType::kHistogram || m.count == 0) return 0.0;
    return static_cast<double>(m.Percentile(50));
  }
  double Share(TimeClass tc) const { return threads.Fraction(tc); }
  double Locks(LockCounter lc) const {
    return static_cast<double>(threads.Locks(lc));
  }
};

double PerTxn(double v, uint64_t txns) {
  return txns == 0 ? 0.0 : v / static_cast<double>(txns);
}

double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

// ----------------------------------------------------------------- probes

// Probes time one call into a layer in batches of n calls, n doubled from
// 1 until a batch takes at least kProbeBatchNs (which also warms the path
// up); a probe's value is the median batch's ns per call.
constexpr uint64_t kProbeBatchNs = 5'000'000;
constexpr int kProbeBatches = 9;

struct ProbeNode : MpscNode {};

// Isolated per-layer costs, timed on the loaded database after the
// measured windows (clients stopped, engine still running). Records one
// span per timed batch under a "probes" root span.
Status RunProbes(BenchWorkload* w, const std::vector<std::string>& names,
                 std::vector<Span>* spans,
                 std::map<std::string, double>* out) {
  Database* db = w->db();
  const uint64_t root = SpanId(kMaxClients, 0);
  const uint64_t root_start = NowNs();
  uint64_t seq = 0;
  Status failure;
  auto keep = [&failure](const Status& s) {
    if (!s.ok() && failure.ok()) failure = s;
  };
  auto probe = [&](const char* metric, const char* span_name, auto&& op) {
    const uint32_t name = static_cast<uint32_t>(
        std::find(names.begin(), names.end(), span_name) - names.begin());
    uint64_t n = 1;
    for (;; n *= 2) {
      const uint64_t t0 = NowNs();
      for (uint64_t i = 0; i < n; ++i) op(i);
      if (NowNs() - t0 >= kProbeBatchNs) break;
    }
    std::vector<double> per_op;
    for (int b = 0; b < kProbeBatches; ++b) {
      const uint64_t t0 = NowNs();
      for (uint64_t i = 0; i < n; ++i) op(i);
      const uint64_t t1 = NowNs();
      spans->push_back(Span{SpanId(kMaxClients, ++seq), root, name,
                            kMaxClients, t0, t1});
      per_op.push_back(static_cast<double>(t1 - t0) / static_cast<double>(n));
    }
    std::nth_element(per_op.begin(), per_op.begin() + kProbeBatches / 2,
                     per_op.end());
    (*out)[metric] = per_op[kProbeBatches / 2];
    std::printf("probe %-28s %12.1f ns/call  (batches of %llu)\n", metric,
                per_op[kProbeBatches / 2], static_cast<unsigned long long>(n));
  };

  // dora: a one-action read-only DoraEngine::Run (dispatch, inbox,
  // local lock, execute, commit, completion).
  (*out)["dora.run_one_action_ns"] = 0.0;
  if (dora::DoraEngine* e = w->engine()) {
    const TableId table = e->RegisteredTables().front();
    probe("dora.run_one_action_ns", "probe.dora_run_one_action",
          [&](uint64_t) {
            auto t = e->BeginTxn();
            dora::FlowGraph g;
            g.AddPhase().AddAction(
                table, 1, dora::LocalMode::kS,
                [](dora::ActionEnv&) { return Status::OK(); });
            keep(e->Run(t, std::move(g)));
          });
  }

  // lock: one central row-lock acquire + release on an unused row.
  {
    auto txn = db->Begin();
    LockManager* lm = db->lock_manager();
    const TableId table = w->ProbeTable();
    probe("lock.acquire_release_ns", "probe.lock_acquire_release",
          [&](uint64_t i) {
            const Rid rid{static_cast<PageId>((1u << 30) + i % 4096), 0};
            keep(lm->Lock(txn.get(), LockId::Row(table, rid), LockMode::kS));
            lm->ReleaseAll(txn.get());
          });
    keep(db->Commit(txn.get()));
  }

  // storage: a B+Tree point probe of an existing key.
  {
    std::vector<std::string> keys;
    for (uint64_t i = 0; i < 4096; ++i) keys.push_back(w->ProbeKey(i * 7919));
    BTree* tree = db->catalog()->Index(w->ProbeIndex());
    probe("storage.btree_probe_ns", "probe.btree_probe", [&](uint64_t i) {
      IndexEntry ie;
      keep(tree->Probe(keys[i % keys.size()], &ie));
    });
  }

  // log: one WAL append. The records are kEnd markers of a transaction
  // that logs nothing else, so recovery treats them as a no-op.
  {
    auto txn = db->Begin();
    LogBackend* log = db->log_manager();
    const TxnId id = txn->id();
    probe("log.append_ns", "probe.log_append", [&](uint64_t) {
      LogRecord rec;
      rec.type = LogType::kEnd;
      rec.txn = id;
      log->Append(&rec);
    });
    keep(db->Commit(txn.get()));
  }

  // txn/engine: a read-only Begin + Commit.
  probe("engine.begin_commit_ns", "probe.begin_commit", [&](uint64_t) {
    auto txn = db->Begin();
    keep(db->Commit(txn.get()));
  });

  // util: one MPSC push, with its share of a drain of 64 messages.
  {
    constexpr uint64_t kBatch = 64;
    MpscQueue q;
    std::vector<ProbeNode> nodes(kBatch);
    uint64_t pushed = 0, drained = 0;
    probe("util.mpsc_push_drain_ns", "probe.mpsc_push_drain",
          [&](uint64_t) {
            q.Push(&nodes[pushed % kBatch]);
            if (++pushed % kBatch != 0) return;
            for (MpscNode* n = q.TryDrain(); n != nullptr; n = n->next) {
              ++drained;
            }
          });
    if (drained != pushed - pushed % kBatch) {
      keep(Status::Corruption("MPSC probe lost messages"));
    }
  }
  spans->push_back(
      Span{root, 0, static_cast<uint32_t>(std::find(names.begin(),
                                                    names.end(), "probes") -
                                          names.begin()),
           kMaxClients, root_start, NowNs()});
  return failure;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    const double v = metrics[i].value == metrics[i].value ? metrics[i].value
                                                          : 0.0;
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void WriteSpans(const std::string& path, const std::vector<std::string>& names,
                const std::vector<const std::vector<Span>*>& all) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "doraperf: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "id,parent,name,thread,start_ns,end_ns\n");
  for (const auto* spans : all) {
    for (const Span& s : *spans) {
      std::fprintf(f, "%llu,%llu,%s,%u,%llu,%llu\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   names[s.name].c_str(), s.thread,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  std::fclose(f);
}

// Nearest-rank percentile of exact samples (reorders `v`).
double Percentile(std::vector<uint64_t>* v, double p) {
  if (v->empty()) return 0.0;
  const size_t k = std::min(
      v->size() - 1, static_cast<size_t>(p / 100.0 * (v->size() - 1) + 0.5));
  std::nth_element(v->begin(), v->begin() + k, v->end());
  return static_cast<double>((*v)[k]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void SleepSeconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: doraperf --workload <tm1|tm1-baseline|tpcb-durable> "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  std::unique_ptr<BenchWorkload> w = MakeWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "doraperf: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  // ---- set-up: database open + load + engine start
  Status s = w->Setup(args);
  if (s.ok()) s = w->BeforeRun();
  if (!s.ok()) {
    std::fprintf(stderr, "doraperf: set-up failed: %s\n",
                 s.ToString().c_str());
    w->Cleanup();
    return 1;
  }
  // Traced windows switch the stage-gap profiler to 1-in-1; untraced ones
  // keep the engine's own sampling.
  const uint32_t profiler_default = obs::StageGapProfiler::sample_n();

  std::vector<std::string> span_names = {"client"};
  const uint32_t type_name_base = static_cast<uint32_t>(span_names.size());
  const std::vector<std::string> types = w->TypeNames();
  for (const std::string& t : types) span_names.push_back("txn." + t);
  for (const char* p :
       {"probes", "probe.dora_run_one_action", "probe.lock_acquire_release",
        "probe.btree_probe", "probe.log_append", "probe.begin_commit",
        "probe.mpsc_push_drain"}) {
    span_names.push_back(p);
  }

  const uint32_t nclients = std::max(
      1u, std::min(kMaxClients, HardwareContexts()));
  std::vector<Client> clients(nclients);
  for (Client& c : clients) {
    c.counts.resize(types.size());
    c.samples.reserve(1 << 18);
  }
  Shared shared;
  const uint64_t engine_committed0 =
      w->engine() != nullptr ? w->engine()->txns_committed() : 0;
  const double setup_s =
      std::chrono::duration<double>(Clock::now() - g_process_start).count();
  const uint64_t pages_loaded = w->db()->disk()->NumAllocated();
  const double loaded_rss = PeakRssMib();

  std::vector<std::thread> threads;
  for (uint32_t i = 0; i < nclients; ++i) {
    threads.emplace_back(ClientLoop, w.get(), i, args.seed, type_name_base,
                         &shared, &clients[i]);
  }

  // ---- measured windows
  SleepSeconds(kWarmupSeconds);
  shared.phase.store(kMeasure, std::memory_order_release);
  LayerTotals untraced, traced;
  // Untraced: the window is cut into slices of about kSliceSeconds; tps and
  // the latency percentiles are medians over the slices, so one stalled
  // slice (a host hiccup) does not move the run's figures.
  std::vector<uint64_t> slice_ends;
  std::vector<double> slice_tps;
  if (!args.trace) {
    const int slices =
        std::max(1, static_cast<int>(args.seconds / kSliceSeconds + 0.5));
    LayerSnap prev = TakeSnap(w.get(), clients);
    slice_ends.push_back(prev.at_ns);
    for (int i = 0; i < slices; ++i) {
      SleepSeconds(args.seconds / slices);
      LayerSnap next = TakeSnap(w.get(), clients);
      untraced.Add(prev, next);
      slice_tps.push_back(static_cast<double>(next.completed - prev.completed) /
                          (static_cast<double>(next.at_ns - prev.at_ns) / 1e9));
      slice_ends.push_back(next.at_ns);
      prev = std::move(next);
    }
  } else {
    const int pairs = std::max(
        1, static_cast<int>(args.seconds / (2 * kTraceWindowSeconds) + 0.5));
    for (int i = 0; i < pairs; ++i) {
      const LayerSnap a = TakeSnap(w.get(), clients);
      SleepSeconds(kTraceWindowSeconds);
      const LayerSnap b = TakeSnap(w.get(), clients);
      untraced.Add(a, b);
      obs::StageGapProfiler::Enable(1);
      obs::CommitTracer::Enable();
      shared.tracing.store(true, std::memory_order_relaxed);
      const LayerSnap c = TakeSnap(w.get(), clients);
      SleepSeconds(kTraceWindowSeconds);
      const LayerSnap d = TakeSnap(w.get(), clients);
      shared.tracing.store(false, std::memory_order_relaxed);
      obs::CommitTracer::Disable();
      obs::StageGapProfiler::Enable(profiler_default);
      traced.Add(c, d);
    }
  }
  std::printf("data pages: %llu after load, %llu after the run; buffer pool "
              "%zu frames of %zu bytes; peak RSS %.1f MiB after load, %.1f "
              "MiB after the run\n",
              static_cast<unsigned long long>(pages_loaded),
              static_cast<unsigned long long>(w->db()->disk()->NumAllocated()),
              w->db()->buffer_pool()->num_frames(), kPageSize, loaded_rss,
              PeakRssMib());
  shared.phase.store(kStop, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  std::vector<TypeCounts> counts(types.size());
  uint64_t attempted = 0, failed = 0, committed = 0;
  std::vector<Sample> samples;
  for (const Client& c : clients) {
    for (size_t t = 0; t < types.size(); ++t) {
      counts[t].committed += c.counts[t].committed;
      counts[t].spec += c.counts[t].spec;
      counts[t].failed += c.counts[t].failed;
      for (const auto& [code, n] : c.counts[t].failed_by_code) {
        counts[t].failed_by_code[code] += n;
      }
    }
    samples.insert(samples.end(), c.samples.begin(), c.samples.end());
  }
  for (size_t t = 0; t < types.size(); ++t) {
    const uint64_t ran = counts[t].committed + counts[t].spec + counts[t].failed;
    attempted += ran;
    failed += counts[t].failed;
    committed += counts[t].committed;
    if (ran == 0) continue;
    std::printf("%-24s committed=%llu spec_outcome=%llu failed=%llu",
                types[t].c_str(),
                static_cast<unsigned long long>(counts[t].committed),
                static_cast<unsigned long long>(counts[t].spec),
                static_cast<unsigned long long>(counts[t].failed));
    for (const auto& [code, n] : counts[t].failed_by_code) {
      std::printf(" %s=%llu", code.c_str(), static_cast<unsigned long long>(n));
    }
    std::printf("\n");
  }

  // ---- checks
  std::vector<std::string> problems;
  const uint64_t engine_committed =
      w->engine() != nullptr ? w->engine()->txns_committed() - engine_committed0
                             : 0;
  if (args.trace && w->engine() != nullptr && engine_committed != committed) {
    problems.push_back("engine dora.txns.committed delta " +
                       std::to_string(engine_committed) +
                       " != client-counted commits " +
                       std::to_string(committed));
  }
  std::map<std::string, double> probes;
  std::vector<Span> probe_spans;
  if (args.trace) {
    const Status ps = RunProbes(w.get(), span_names, &probe_spans, &probes);
    if (!ps.ok()) problems.push_back("probe: " + ps.ToString());
  }
  const Status cs = w->Check(counts);
  if (!cs.ok()) problems.push_back(cs.ToString());

  std::vector<Metric> metrics;
  if (!args.trace) {
    std::sort(samples.begin(), samples.end(),
              [](const Sample& a, const Sample& b) { return a.end_ns < b.end_ns; });
    std::vector<double> p50s, p90s, p99s;
    size_t fewest = SIZE_MAX;
    auto it = samples.begin();
    for (size_t i = 1; i < slice_ends.size(); ++i) {
      std::vector<uint64_t> lat;
      it = std::lower_bound(it, samples.end(), slice_ends[i - 1],
                            [](const Sample& a, uint64_t t) {
                              return a.end_ns < t;
                            });
      for (; it != samples.end() && it->end_ns < slice_ends[i]; ++it) {
        lat.push_back(it->latency_ns);
      }
      fewest = std::min(fewest, lat.size());
      p50s.push_back(Percentile(&lat, 50));
      p90s.push_back(Percentile(&lat, 90));
      p99s.push_back(Percentile(&lat, 99));
    }
    metrics.push_back({"tps", Median(slice_tps), "txn/s"});
    metrics.push_back({"latency_p50_us", Median(p50s) / 1e3, "us"});
    metrics.push_back({"latency_p90_us", Median(p90s) / 1e3, "us"});
    metrics.push_back({"log_bytes_per_txn",
                       PerTxn(untraced.HistSum("log.group_commit_bytes"),
                              untraced.completed),
                       "bytes"});
    metrics.push_back({"loaded_rss_mib", loaded_rss, "MiB"});
    metrics.push_back({"setup_s", setup_s, "s"});
    std::printf("slice tps:");
    for (double v : slice_tps) std::printf(" %.0f", v);
    std::printf("\n");
    uint64_t slowest = 0;
    for (const Sample& x : samples) slowest = std::max(slowest, x.latency_ns);
    std::printf("window=%.3fs completed=%llu slices=%zu latency samples=%zu "
                "(fewest in a slice: %zu, slowest %.1f ms); p99 median over "
                "slices %.1f us\n",
                untraced.seconds,
                static_cast<unsigned long long>(untraced.completed),
                slice_tps.size(), samples.size(), fewest, slowest / 1e6,
                Median(p99s) / 1e3);
  } else {
    const LayerTotals& t = traced;
    const uint64_t n = t.completed;
    const double traced_tps = Ratio(t.completed, t.seconds);
    const double untraced_tps = Ratio(untraced.completed, untraced.seconds);
    auto add = [&metrics](const char* name, double v, const char* unit) {
      metrics.push_back({name, v, unit});
    };
    add("trace.tps", traced_tps, "txn/s");
    add("trace.overhead_pct",
        untraced_tps == 0 ? 0.0 : 100.0 * (1.0 - traced_tps / untraced_tps),
        "%");
    // dora
    add("dora.actions_per_txn", PerTxn(t.inbox.actions, n), "actions");
    add("dora.actions_per_drain",
        Ratio(t.inbox.items, t.inbox.batches), "actions");
    add("dora.wakeups_per_action",
        Ratio(t.inbox.wakeups, t.inbox.actions), "wakeups");
    add("dora.tickets_per_txn", PerTxn(t.inbox.tickets, n), "tickets");
    add("dora.acked_inline_ratio", Ratio(t.acked_inline, t.pipelined),
        "ratio");
    add("dora.local_lock_share", t.Share(TimeClass::kDoraLocalLock), "ratio");
    add("dora.queue_share", t.Share(TimeClass::kDoraQueue), "ratio");
    add("dora.rvp_share", t.Share(TimeClass::kDoraRvp), "ratio");
    add("dora.queue_wait_p50_ns", t.HistP50("prof.gap.queue_wait_ns"), "ns");
    add("dora.service_p50_ns", t.HistP50("prof.gap.service_ns"), "ns");
    add("dora.ack_p50_ns", t.HistP50("prof.gap.ack_ns"), "ns");
    add("dora.run_one_action_ns", probes["dora.run_one_action_ns"], "ns");
    // lock
    add("lock.acquire_share", t.Share(TimeClass::kLockAcquire), "ratio");
    add("lock.acquire_contention_share",
        t.Share(TimeClass::kLockAcquireContention), "ratio");
    add("lock.wait_share", t.Share(TimeClass::kLockWait), "ratio");
    add("lock.release_share", t.Share(TimeClass::kLockRelease), "ratio");
    add("lock.release_contention_share",
        t.Share(TimeClass::kLockReleaseContention), "ratio");
    add("lock.central_per_txn",
        PerTxn(t.Locks(LockCounter::kRowLevel) +
                   t.Locks(LockCounter::kHigherLevel),
               n),
        "locks");
    add("lock.dora_local_per_txn", PerTxn(t.Locks(LockCounter::kDoraLocal), n),
        "locks");
    add("lock.acquire_release_ns", probes["lock.acquire_release_ns"], "ns");
    // log
    add("log.appends_per_txn", PerTxn(t.Counter("log.appends"), n),
        "records");
    add("log.flushes_per_s", Ratio(t.Counter("log.flushes"), t.seconds),
        "1/s");
    add("log.group_commit_bytes_p50", t.HistP50("log.group_commit_bytes"),
        "bytes");
    add("log.fsync_p50_ns", t.HistP50("log.fsync_ns"), "ns");
    add("log.flush_wait_p50_ns", t.HistP50("prof.gap.flush_wait_ns"), "ns");
    add("log.work_share", t.Share(TimeClass::kLogWork), "ratio");
    add("log.contention_share", t.Share(TimeClass::kLogContention), "ratio");
    add("log.append_ns", probes["log.append_ns"], "ns");
    // ckpt
    add("ckpt.checkpoints_per_s",
        Ratio(t.Counter("ckpt.checkpoints"), t.seconds), "1/s");
    add("ckpt.pages_flushed_per_s",
        Ratio(t.Counter("ckpt.pages_flushed"), t.seconds), "1/s");
    add("ckpt.truncated_bytes_per_s",
        Ratio(t.Counter("ckpt.truncated_bytes"), t.seconds), "bytes/s");
    add("ckpt.duration_p50_ns", t.HistP50("ckpt.duration_ns"), "ns");
    // storage
    add("storage.bp_hit_ratio",
        Ratio(t.bp_hits, static_cast<double>(t.bp_hits + t.bp_misses)),
        "ratio");
    add("storage.bp_evictions_per_txn", PerTxn(t.bp_evictions, n), "pages");
    add("storage.buffer_contention_share",
        t.Share(TimeClass::kBufferContention), "ratio");
    add("storage.pages_fsync_p50_ns", t.HistP50("pages.fsync_ns"), "ns");
    add("storage.btree_descents_saved_per_txn",
        PerTxn(t.Counter("btree.descents_saved"), n), "descents");
    add("storage.btree_probe_ns", probes["storage.btree_probe_ns"], "ns");
    // txn / engine / util
    add("txn.work_share", t.Share(TimeClass::kWork), "ratio");
    add("engine.begin_commit_ns", probes["engine.begin_commit_ns"], "ns");
    add("util.mpsc_push_drain_ns", probes["util.mpsc_push_drain_ns"], "ns");
    std::printf("traced=%.3fs untraced=%.3fs traced_tps=%.1f "
                "untraced_tps=%.1f\n",
                t.seconds, untraced.seconds, traced_tps, untraced_tps);

    std::error_code ec;
    const std::string dir = args.work_dir + "/spans";
    std::filesystem::create_directories(dir, ec);
    std::vector<const std::vector<Span>*> all;
    for (const Client& c : clients) all.push_back(&c.spans);
    all.push_back(&probe_spans);
    WriteSpans(dir + "/" + args.workload + ".csv", span_names, all);
    if (FILE* f = std::fopen((dir + "/" + args.workload + ".commit_trace.txt")
                                 .c_str(),
                             "w")) {
      std::fputs(obs::CommitTracer::DumpText().c_str(), f);
      std::fclose(f);
    }
  }
  w->Cleanup();

  for (const std::string& p : problems) {
    std::fprintf(stderr, "doraperf: CHECK FAILED (%s): %s\n",
                 args.workload.c_str(), p.c_str());
  }
  PrintResult(problems.empty(), attempted, failed, metrics);
  return problems.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perf
}  // namespace doradb

int main(int argc, char** argv) { return doradb::perf::Main(argc, argv); }
