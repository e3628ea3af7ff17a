// One measured run of the p2pgrid simulator on a named, seeded workload.
//
//   perfbench_driver --workload=rntree-steady --seed=1 [--replicate=0]
//                    [--trace=1]
//   perfbench_driver --list=1
//
// The driver generates replicate --replicate of the workload from the seed,
// sets the grid up kSetups times (timing each set-up), runs the last one to
// completion with grid::GridSystem::run, checks the run's outputs and prints
// one JSON object on stdout. It is single-threaded and does one run per
// process; perfbench/run.py runs several replicates, repeats them, and
// reduces the objects to the benchmark's metrics (see perfbench/README.md).
// --list=1 prints each workload's name and replicate count, one per line.
//
// With --trace=1 every node's and client's network handler is replaced,
// through the public Network::set_handler, by a wrapper that times
// on_message and attributes the time to the protocol layer owning the
// message's type tag (the kTag*Base ranges in net/message.h). Batch
// envelopes are unpacked by the network before dispatch, so each part is
// attributed to its own layer. The wrapper reads the clock and touches no
// simulation state: the simulated statistics must equal an untraced run's.
//
// Exit status: 0 when every output check passed, 1 when one failed (the JSON
// lists the violations), 2 on a usage error, 3 for a build without NDEBUG.

#include <sys/resource.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "can/can_node.h"
#include "common/config.h"
#include "grid/grid_system.h"
#include "net/message.h"
#include "net/message_pool.h"
#include "obs/memory.h"
#include "sim/failure.h"
#include "workload/workload.h"

namespace {

using namespace pgrid;
using Clock = std::chrono::steady_clock;

/// A named benchmark workload. Only the paper's experiment protocol differs
/// between workloads; engine, batching and failure-detector settings stay at
/// the program's defaults, so the benchmark measures the default path.
struct WorkloadDef {
  const char* name;
  grid::MatchmakerKind kind;
  std::size_t nodes;
  std::size_t jobs;
  bool churn;  // full maintenance, default resubmission, exponential churn
  int replicates;  // independent draws that one benchmark run combines
};

// Why each workload exists, what it loads, and why can-steady is not in
// BENCHMARK.json: perfbench/README.md.
constexpr WorkloadDef kWorkloads[] = {
    {"rntree-steady", grid::MatchmakerKind::kRnTree, 1024, 5120, false, 6},
    {"can-churn", grid::MatchmakerKind::kCanBasic, 64, 512, true, 40},
    {"can-steady", grid::MatchmakerKind::kCanBasic, 1024, 5120, false, 4},
};

#if defined(__clang__)
constexpr const char* kCompiler = __VERSION__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

// Set-up takes milliseconds, so it is repeated and reported as a median.
constexpr int kSetups = 9;
constexpr double kMeanRuntimeSec = 100.0;
constexpr double kOfferedLoad = 0.8;
constexpr double kConstraintProbability = 0.4;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct SetUp {
  std::unique_ptr<grid::GridSystem> system;
  double generate_s = 0.0;
  double build_s = 0.0;
};

/// Generate the workload and build the grid: everything before run().
SetUp set_up(const WorkloadDef& w, std::uint64_t seed,
             std::uint64_t replicate) {
  bench::Scale scale;
  scale.nodes = w.nodes;
  scale.jobs = w.jobs;
  scale.mean_runtime_sec = kMeanRuntimeSec;
  scale.mean_interarrival_sec =
      kMeanRuntimeSec / (kOfferedLoad * static_cast<double>(w.nodes));
  // One seed gives every matchmaker the same jobs, nodes and system seed, so
  // the 1024-node workloads differ only in the matchmaker.
  const workload::WorkloadSpec spec = bench::make_spec(
      scale, workload::Mix::kMixed, workload::Mix::kMixed,
      kConstraintProbability,
      bench::derive_seed(seed, bench::SeedStream::kWorkload, replicate));
  const std::uint64_t system_seed =
      bench::derive_seed(seed, bench::SeedStream::kSystem, replicate);
  grid::GridConfig config = bench::make_grid_config(w.kind, system_seed);
  if (w.churn) {
    config = grid::GridConfig{};
    config.kind = w.kind;
    config.seed = system_seed;
  }

  SetUp s;
  const auto t0 = Clock::now();
  workload::Workload generated = workload::generate(spec);
  s.generate_s = seconds_since(t0);
  const auto t1 = Clock::now();
  s.system = std::make_unique<grid::GridSystem>(config, std::move(generated));
  s.system->build();
  if (w.churn) {
    sim::ChurnModel churn;
    churn.mean_lifetime_sec = 1800.0;
    churn.mean_downtime_sec = 120.0;
    churn.churn_fraction = 0.5;
    s.system->enable_churn(churn);
  }
  s.build_s = seconds_since(t1);
  return s;
}

// --- traced run: per-layer handler attribution ------------------------------

enum Layer : std::size_t { kChord, kCan, kRnTree, kGrid, kOther, kLayers };
constexpr const char* kLayerNames[kLayers] = {"chord", "can", "rntree", "grid",
                                              "other"};

Layer layer_of(std::uint16_t tag) noexcept {
  if (tag >= net::kTagChordBase && tag < net::kTagCanBase) return kChord;
  if (tag >= net::kTagCanBase && tag < net::kTagRnTreeBase) return kCan;
  if (tag >= net::kTagRnTreeBase && tag < net::kTagGridBase) return kRnTree;
  if (tag >= net::kTagGridBase && tag < net::kTagNetBase) return kGrid;
  return kOther;
}

struct LayerCost {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
};
using LayerCosts = std::array<LayerCost, kLayers>;

/// Times the wrapped handler's on_message and charges it to the message's
/// layer. Handlers never dispatch synchronously (every send is a scheduled
/// delivery), so the measured time is the handler's self time.
class TimedHandler final : public net::MessageHandler {
 public:
  TimedHandler(net::MessageHandler* inner, LayerCosts* costs)
      : inner_(inner), costs_(costs) {}

  void on_message(net::NodeAddr from, net::MessagePtr msg) override {
    LayerCost& cost = (*costs_)[layer_of(msg->type())];
    const auto t0 = Clock::now();
    inner_->on_message(from, std::move(msg));
    cost.ns += (Clock::now() - t0).count();
    ++cost.calls;
  }

 private:
  net::MessageHandler* inner_;
  LayerCosts* costs_;
};

/// Messages delivered to each layer's handlers, from the network's per-kind
/// counters (available with tracing off).
std::array<std::uint64_t, kLayers> delivered_by_layer(
    const net::NetworkStats& stats) {
  std::array<std::uint64_t, kLayers> out{};
  for (std::size_t tag = 0; tag < net::NetworkStats::kKindSlots; ++tag) {
    if (tag >= net::kTagNetBase && tag < net::kTagNetBase + 0x100) {
      continue;  // envelopes: their parts are counted under their own tags
    }
    out[layer_of(static_cast<std::uint16_t>(tag))] +=
        stats.delivered_by_kind[tag];
  }
  return out;
}

// --- output ------------------------------------------------------------------

/// Minimal JSON object writer; doubles keep all 17 significant digits so
/// that equal statistics compare equal after parsing.
class JsonObject {
 public:
  JsonObject& num(const char* key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonObject& count(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(const char* key, const std::string& v) {
    return raw(key, quote(v));
  }
  JsonObject& nums(const char* key, const std::vector<double>& vs) {
    std::string list = "[";
    char buf[40];
    for (std::size_t i = 0; i < vs.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.17g", i == 0 ? "" : ",", vs[i]);
      list += buf;
    }
    return raw(key, list + "]");
  }
  JsonObject& strs(const char* key, const std::vector<std::string>& vs) {
    std::string list = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i > 0) list += ",";
      list += quote(vs[i]);
    }
    return raw(key, list + "]");
  }
  JsonObject& raw(const char* key, const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"";
    body_ += key;
    body_ += "\":";
    body_ += json;
    return *this;
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  static std::string quote(const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n') ? ' ' : c;
    }
    return quoted + "\"";
  }

  std::string body_;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver "
               "--workload=NAME --seed=N [--replicate=R] [--trace=0|1]\n"
               "       perfbench_driver --list=1\n"
               "workloads:",
               why);
  for (const WorkloadDef& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (std::strcmp(bench::kBuildType, "release") != 0) {
    std::fprintf(stderr,
                 "perfbench_driver: refusing to measure a %s build "
                 "(NDEBUG is not defined)\n",
                 bench::kBuildType);
    return 3;
  }
  Config args;
  if (!args.parse_args(argc, argv).empty()) return usage("bad argument");
  if (args.get_int("list", 0) != 0) {
    for (const WorkloadDef& w : kWorkloads) {
      std::printf("%s %d\n", w.name, w.replicates);
    }
    return 0;
  }
  const std::string name = args.get_string("workload", "");
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) def = &w;
  }
  if (def == nullptr) return usage("unknown workload");
  const std::int64_t seed_arg = args.get_int("seed", -1);
  const std::int64_t replicate = args.get_int("replicate", 0);
  const bool traced = args.get_int("trace", 0) != 0;
  if (seed_arg < 0) return usage("--seed must be a non-negative integer");
  if (replicate < 0) return usage("--replicate must be non-negative");
  const auto seed = static_cast<std::uint64_t>(seed_arg);

  // Declared before the grid so that they outlive it: the grid's clients
  // and network hold pointers into them.
  std::vector<int> terminal;
  std::vector<int> completions;
  LayerCosts costs{};
  std::vector<std::unique_ptr<TimedHandler>> wrappers;

  // The last set-up is the one that runs.
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::vector<double> build_s;
  SetUp s;
  for (int i = 0; i < kSetups; ++i) {
    s = SetUp{};  // tear the previous grid down before timing the next
    s = set_up(*def, seed, static_cast<std::uint64_t>(replicate));
    generate_s.push_back(s.generate_s);
    build_s.push_back(s.build_s);
    setup_s.push_back(s.generate_s + s.build_s);
  }
  grid::GridSystem& system = *s.system;
  const std::size_t jobs = system.workload().jobs.size();

  terminal.assign(jobs, 0);
  completions.assign(jobs, 0);
  for (std::size_t c = 0; c < system.client_count(); ++c) {
    system.client(c).on_job_terminal = [&terminal, &completions](
                                           std::uint64_t seq, bool ok) {
      ++terminal[seq];
      if (ok) ++completions[seq];
    };
  }

  if (traced) {
    net::Network& network = system.network();
    const auto wrap = [&](net::NodeAddr addr, net::MessageHandler* inner) {
      wrappers.push_back(std::make_unique<TimedHandler>(inner, &costs));
      network.set_handler(addr, wrappers.back().get());
    };
    for (std::size_t i = 0; i < system.node_count(); ++i) {
      wrap(system.node(i).addr(), &system.node(i));
    }
    for (std::size_t c = 0; c < system.client_count(); ++c) {
      wrap(system.client(c).addr(), &system.client(c));
    }
  }

  const net::MessagePool::Stats pool_before = net::MessagePool::stats();
  system.run();

  // --- output checks ---------------------------------------------------------
  std::vector<std::string> violations;
  const auto violate = [&violations](std::string what) {
    if (violations.size() < 20) violations.push_back(std::move(what));
  };
  const metrics::Collector& collector = system.collector();
  std::uint64_t completed = 0;
  for (std::size_t seq = 0; seq < jobs; ++seq) {
    completed += completions[seq] > 0 ? 1 : 0;
    if (collector.job(seq).submit_sec == metrics::JobOutcome::kNever) {
      violate("job " + std::to_string(seq) + " was never submitted");
    }
    if (terminal[seq] != 1) {
      violate("job " + std::to_string(seq) + " reached a terminal state " +
              std::to_string(terminal[seq]) + " times (want 1)");
    }
    if (completions[seq] > 1) {
      violate("job " + std::to_string(seq) + " completed " +
              std::to_string(completions[seq]) + " times");
    }
  }
  if (collector.completed_count() != completed) {
    violate("collector counts " + std::to_string(collector.completed_count()) +
            " completions, clients " + std::to_string(completed));
  }
  if (!def->churn && completed != jobs) {
    violate("steady workload completed " + std::to_string(completed) + " of " +
            std::to_string(jobs) + " jobs");
  }
  const net::NetworkStats& net_stats = system.net_stats();
  const auto delivered = delivered_by_layer(net_stats);
  if (traced) {
    for (std::size_t l = 0; l < kLayers; ++l) {
      if (costs[l].calls != delivered[l]) {
        violate(std::string("traced ") + kLayerNames[l] + " handler saw " +
                std::to_string(costs[l].calls) + " messages, network " +
                "delivered " + std::to_string(delivered[l]));
      }
    }
  }

  // --- report ----------------------------------------------------------------
  bench::CellResult cell = bench::summarize(system);
  bench::attach_pool_stats(cell, pool_before);
  const Samples waits = collector.wait_times();
  const grid::GridNodeStats node_stats = system.aggregate_node_stats();
  std::uint64_t can_routes_failed = 0;
  for (std::size_t i = 0; i < system.node_count(); ++i) {
    if (const can::CanNode* can = system.node(i).can()) {
      can_routes_failed += can->stats().routes_failed;
    }
  }

  // Simulated statistics: a pure function of (workload, seed). Two runs, and
  // a traced and an untraced run, must agree on every field.
  JsonObject stats;
  stats.count("events", cell.sim_events)
      .count("queue_peak", cell.sim_queue_peak)
      .count("tombstone_peak", cell.sim_tombstone_peak)
      .num("end_sec", system.now_sec())
      .count("jobs_completed", completed)
      .num("match_hops_mean", cell.match_hops_avg)
      .num("injection_hops_mean", cell.injection_hops_avg)
      .count("msgs_sent", cell.messages)
      .count("msgs_delivered", cell.messages_delivered)
      .count("bytes_sent", cell.bytes_sent)
      .count("dropped_dead", net_stats.messages_dropped_dead)
      .count("batches_sent", cell.batches_sent)
      .count("batch_parts_sent", cell.batch_parts_sent)
      .count("requeues", cell.requeues)
      .count("resubmissions", cell.resubmissions)
      .count("owner_recoveries", node_stats.owner_recoveries)
      .count("run_recoveries", node_stats.run_recoveries)
      .count("can_pushes", cell.pushes)
      .count("can_forwards", cell.forwards)
      .count("can_routes_failed", can_routes_failed);
  for (std::size_t l = 0; l < kLayers; ++l) {
    stats.count((std::string(kLayerNames[l]) + "_msgs").c_str(), delivered[l]);
  }

  JsonObject memory;
  for (std::size_t c = 0; c < obs::MemoryAccountant::kClasses; ++c) {
    const auto cls = static_cast<obs::MemClass>(c);
    memory.count(obs::mem_class_name(cls), cell.memory.of(cls));
  }

  JsonObject layers;
  for (std::size_t l = 0; l < kLayers; ++l) {
    layers.raw(kLayerNames[l],
               JsonObject()
                   .count("calls", costs[l].calls)
                   .num("handler_s", static_cast<double>(costs[l].ns) * 1e-9)
                   .text());
  }

  rusage usage_now{};
  getrusage(RUSAGE_SELF, &usage_now);

  JsonObject out;
  out.str("workload", def->name)
      .count("seed", seed)
      .count("replicate", static_cast<std::uint64_t>(replicate))
      .count("nodes", def->nodes)
      .count("jobs", jobs)
      .str("build_type", bench::kBuildType)
      .str("compiler", kCompiler)
      .count("nproc", std::thread::hardware_concurrency())
      .count("traced", traced ? 1 : 0)
      .nums("setup_s", setup_s)
      .nums("generate_s", generate_s)
      .nums("build_s", build_s)
      .num("run_s", cell.run_wall_sec)
      .num("peak_rss_mb", static_cast<double>(usage_now.ru_maxrss) / 1024.0)
      .num("pool_reuse_frac", cell.pool_reuse_fraction)
      .count("metrics_bytes", collector.memory_bytes())
      .raw("stats", stats.text())
      .raw("mem", memory.text())
      .raw("layers", layers.text())
      .nums("waits", waits.values())
      .strs("violations", violations);
  std::printf("%s\n", out.text().c_str());
  return violations.empty() ? 0 : 1;
}
