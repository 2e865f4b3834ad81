// perfbench: the plan cache's end-to-end benchmark (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--span-file <path>]
//
// Runs one workload in this process for about --seconds seconds of whole
// rounds, checks every answer against the benchmark's own optimizer, and
// prints as its last stdout line one JSON object
//   {"correct", "attempted", "failed", "metrics"}
// whose metrics are the end-to-end figures (--trace 0) or the per-layer
// figures plus the tracing overhead (--trace 1).

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "exec/execution_simulator.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan_evaluator.h"
#include "ppc/lsh_histograms_predictor.h"
#include "ppc/ppc_framework.h"
#include "server/client.h"
#include "server/router.h"
#include "server/server.h"
#include "storage/tpch_generator.h"
#include "trace.h"
#include "workload/scenarios.h"
#include "workload/templates.h"

namespace perfbench {
namespace {

using ppc::kNullPlanId;
using ppc::PlanId;

// ---------------------------------------------------------------------------
// Fixed shape of the inputs and of the serving stack (README "Workloads").

const char* const kTemplateNames[] = {"Q1", "Q3", "Q5", "Q8"};
constexpr size_t kWarmEvents = 3000;
/// A run cycles its rounds through this many stream instances, drawn
/// from the seed. Where a zipf_tenants stream's clusters fall decides its
/// hit rate, so one instance per run would make the figures mostly a
/// function of the seed.
constexpr uint64_t kInstances = 8;
/// The workload's calls, the optimizer yardstick and the batch predicts
/// alternate in blocks of this many queries, so all see the same host.
constexpr size_t kBlock = 500;
/// Points per PREDICT_BATCH / PredictBatch call (the served batch size).
constexpr size_t kBatchSize = 32;
/// One client connection and one server worker: each single-point request
/// is then one hand-off per stage, and the figures do not depend on how
/// the host schedules competing threads on its four CPUs.
constexpr int kServerWorkers = 1;
/// Keep-awake threads of the served workloads (see IdleSpinners).
constexpr int kIdleSpinners = 3;
constexpr size_t kPacedRequests = 200;
constexpr double kInprocPacedPerSecond = 10000.0;
constexpr double kServedPacedPerSecond = 1000.0;
/// Paper Fig. 11: online precision above 90% for most templates.
constexpr double kPrecisionFloor = 0.90;
/// Traced-run layer probe sizes.
constexpr size_t kProbePings = 500;
constexpr size_t kProbePredicts = 1000;
constexpr size_t kProbeExecutes = 500;
constexpr size_t kProbeFrameworkQueries = 2000;
constexpr const char* kHost = "127.0.0.1";

struct WorkloadSpec {
  const char* name;
  const char* scenario;
  bool served;
  bool routed;
  /// Queries per round after the warm-up.
  size_t measured_events;
};

const WorkloadSpec kWorkloads[] = {
    {"inproc_zipf", "zipf_tenants", false, false, 10000},
    {"inproc_ridges", "correlated_predicates", false, false, 10000},
    {"served_zipf", "zipf_tenants", true, false, 8000},
    {"routed_zipf", "zipf_tenants", true, true, 8000},
};

ppc::PpcFramework::Config FrameworkConfig() {
  ppc::PpcFramework::Config cfg;
  cfg.online.predictor.transform_count = 5;
  cfg.online.predictor.histogram_buckets = 40;
  cfg.online.predictor.radius = 0.05;
  cfg.online.predictor.confidence_threshold = 0.8;
  cfg.online.predictor.noise_fraction = 0.002;
  cfg.online.estimator_window = 100;
  cfg.online.mean_invocation_probability = 0.05;
  cfg.plan_cache_capacity = 64;
  return cfg;
}

ppc::PpcClient::Options ClientOptions() {
  ppc::PpcClient::Options options;
  options.call_deadline_ms = 10000;
  return options;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Micros(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Spins until `due_ns`. A sleeping generator wakes late by milliseconds
/// on a virtual machine whose idle CPUs the host deschedules.
void WaitUntil(int64_t due_ns) {
  while (NowNs() < due_ns) {
  }
}

/// Threads that spin at SCHED_IDLE priority for their lifetime, so that
/// the CPUs of a virtual machine never halt: every ordinary thread
/// preempts them at once, but a halted virtual CPU wakes only when the
/// hypervisor schedules it again. Without them a loopback round trip on
/// the 4-vCPU host this benchmark was tuned on flips between about 30 and
/// 60 us, with millisecond p99s, as other tenants' load comes and goes.
class IdleSpinners {
 public:
  explicit IdleSpinners(int count) {
    for (int i = 0; i < count; ++i) {
      threads_.emplace_back([this] {
        struct sched_param param;
        std::memset(&param, 0, sizeof(param));
        if (sched_setscheduler(0, SCHED_IDLE, &param) != 0) return;
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
  }
  ~IdleSpinners() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) t.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Linear-interpolated quantile; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// The oracle: the benchmark's own optimizer and execution simulator over
// the same catalog the program uses. PlanId is a structural fingerprint,
// so the oracle names plans exactly as the program does.

class Oracle {
 public:
  struct Label {
    PlanId plan = kNullPlanId;
    double cost = 0.0;
  };

  Oracle(const ppc::Catalog* catalog,
         const std::vector<ppc::QueryTemplate>& templates)
      : optimizer_(catalog), simulator_(&optimizer_.cost_model()) {
    for (const auto& t : templates) {
      auto prep = optimizer_.Prepare(t);
      PPC_CHECK_MSG(prep.ok(), prep.status().ToString().c_str());
      prepared_.push_back(std::move(prep).value());
    }
  }

  /// The optimizer's own choice at `x`, priced by replaying it there.
  Label Optimal(uint32_t t, const std::vector<double>& x) {
    auto opt = optimizer_.Optimize(prepared_[t], x);
    PPC_CHECK_MSG(opt.ok(), opt.status().ToString().c_str());
    const PlanId id = opt.value().plan_id;
    if (plans_.find(id) == plans_.end()) {
      plans_[id] = std::shared_ptr<const ppc::PlanNode>(
          std::move(opt.value().plan));
    }
    return Label{id, Replay(t, id, x)};
  }

  /// Cost of plan `id` at `x` by EvaluatePlanAtPoint; NaN for a plan the
  /// oracle never chose.
  double Replay(uint32_t t, PlanId id, const std::vector<double>& x) const {
    auto it = plans_.find(id);
    if (it == plans_.end()) return std::nan("");
    auto eval = ppc::EvaluatePlanAtPoint(prepared_[t], optimizer_.cost_model(),
                                         *it->second, x);
    PPC_CHECK_MSG(eval.ok(), eval.status().ToString().c_str());
    return eval.value().cost;
  }

  /// One query of the ALWAYS-OPTIMIZE yardstick: Optimize, then Execute
  /// the chosen plan.
  struct Yardstick {
    PlanId plan = kNullPlanId;
    double optimize_us = 0.0;
    double total_us = 0.0;
  };
  /// Optimize alone, timed (us): the yardstick of the read-only phases.
  double OptimizeMicros(uint32_t t, const std::vector<double>& x) {
    const int64_t start = NowNs();
    auto opt = optimizer_.Optimize(prepared_[t], x);
    const int64_t stop = NowNs();
    PPC_CHECK_MSG(opt.ok(), opt.status().ToString().c_str());
    return Micros(stop - start);
  }

  Yardstick OptimizeAndExecute(uint32_t t, const std::vector<double>& x,
                               Tracer* tracer, uint64_t request) {
    ScopedSpan query(tracer, "yardstick.query", request);
    const int64_t start = NowNs();
    ppc::Result<ppc::OptimizationResult> opt = ppc::Status::Internal("unset");
    {
      ScopedSpan s(tracer, "optimizer.optimize", request, query.id());
      opt = optimizer_.Optimize(prepared_[t], x);
    }
    const int64_t optimized = NowNs();
    PPC_CHECK_MSG(opt.ok(), opt.status().ToString().c_str());
    {
      ScopedSpan s(tracer, "exec.execute", request, query.id());
      auto cost = simulator_.Execute(prepared_[t], *opt.value().plan, x);
      PPC_CHECK_MSG(cost.ok(), cost.status().ToString().c_str());
    }
    return Yardstick{opt.value().plan_id, Micros(optimized - start),
                     Micros(NowNs() - start)};
  }

 private:
  ppc::Optimizer optimizer_;
  ppc::ExecutionSimulator simulator_;
  std::vector<ppc::PreparedTemplate> prepared_;
  std::map<PlanId, std::shared_ptr<const ppc::PlanNode>> plans_;
};

// ---------------------------------------------------------------------------
// Inputs.

struct Event {
  uint32_t tmpl = 0;
  std::vector<double> point;
};

std::vector<ppc::QueryTemplate> Templates() {
  std::vector<ppc::QueryTemplate> templates;
  for (const char* name : kTemplateNames) {
    templates.push_back(ppc::EvaluationTemplate(name));
  }
  return templates;
}

/// One stream instance and the oracle's answers on it.
struct Instance {
  uint64_t scenario_seed = 0;
  std::vector<Event> warm;
  std::vector<Event> measured;
  uint64_t hash = 0;
  /// The optimizer's choice and its cost at each measured point.
  std::vector<Oracle::Label> measured_labels;
  /// Per template: plans the optimizer chose at warm-up points.
  std::vector<std::set<PlanId>> warm_plans;
};

uint64_t Fnv1a(uint64_t h, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

Instance MakeInstance(const WorkloadSpec& spec,
                      const std::vector<ppc::QueryTemplate>& templates,
                      uint64_t scenario_seed) {
  Instance in;
  in.scenario_seed = scenario_seed;
  ppc::ScenarioConfig config;
  for (const auto& t : templates) {
    config.templates.push_back(
        ppc::ScenarioTemplate{t.name, t.ParameterDegree()});
  }
  config.seed = scenario_seed;
  auto generator = ppc::MakeScenario(spec.scenario, config);
  PPC_CHECK_MSG(generator.ok(), generator.status().ToString().c_str());
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < kWarmEvents + spec.measured_events; ++i) {
    ppc::ScenarioEvent e = generator.value()->Next();
    h = Fnv1a(h, &e.template_index, sizeof(e.template_index));
    h = Fnv1a(h, e.point.data(), e.point.size() * sizeof(double));
    auto& dst = i < kWarmEvents ? in.warm : in.measured;
    dst.push_back(Event{e.template_index, std::move(e.point)});
  }
  in.hash = h;
  return in;
}

// ---------------------------------------------------------------------------
// Correctness checks.

struct Check {
  std::string name;
  uint64_t passed = 0;
  uint64_t failed = 0;
  std::string first_failure;

  void Record(bool ok, const std::string& what = "") {
    if (ok) {
      ++passed;
    } else {
      if (failed == 0) first_failure = what;
      ++failed;
    }
  }
};

class Checks {
 public:
  Check& operator[](const std::string& name) {
    for (Check& c : checks_) {
      if (c.name == name) return c;
    }
    checks_.emplace_back();
    checks_.back().name = name;
    return checks_.back();
  }

  /// Prints one line per check; true when every check ran and passed.
  bool Report() const {
    bool ok = true;
    for (const Check& c : checks_) {
      std::printf("check %s passed=%llu failed=%llu%s%s\n", c.name.c_str(),
                  static_cast<unsigned long long>(c.passed),
                  static_cast<unsigned long long>(c.failed),
                  c.failed ? " first_failure=" : "", c.first_failure.c_str());
      ok = ok && c.failed == 0 && c.passed > 0;
    }
    return ok;
  }

 private:
  std::vector<Check> checks_;
};

// ---------------------------------------------------------------------------
// What a run accumulates.

/// One round's samples (us unless named otherwise).
struct Samples {
  double setup_s = 0.0;
  /// The workload's execute path: ExecuteAtPoint, or an EXECUTE round trip.
  std::vector<double> execute_us;
  /// The read-only path: PredictAtPoint on frozen state, or a closed-loop
  /// PREDICT round trip.
  std::vector<double> predict_us;
  std::vector<double> paced_us;
  std::vector<double> lateness_us;
  /// The yardstick on the measured points: Optimize alone, and Optimize
  /// plus Execute.
  std::vector<double> optimize_us;
  std::vector<double> yardstick_us;
  /// Optimize alone, run between the blocks of the in-process
  /// single-point predicts.
  std::vector<double> predict_optimize_us;
  double loop_seconds = 0.0;
  uint64_t loop_requests = 0;
  /// Batch time per point (us) of each block of the measured stream.
  std::vector<double> batch_us_per_point;
  double executed_cost = 0.0;
  double optimal_cost = 0.0;
};

/// Per-query outcome counts over the measured EXECUTEs.
struct Counts {
  uint64_t queries = 0;
  uint64_t optimizer_calls = 0;
  uint64_t negative_feedback = 0;
  uint64_t predictions_used = 0;
  uint64_t nulls = 0;
  uint64_t random_invocations = 0;
  uint64_t used_correct = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;

  bool operator==(const Counts&) const = default;
  void Add(const Counts& o) {
    queries += o.queries;
    optimizer_calls += o.optimizer_calls;
    negative_feedback += o.negative_feedback;
    predictions_used += o.predictions_used;
    nulls += o.nulls;
    random_invocations += o.random_invocations;
    used_correct += o.used_correct;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    cache_evictions += o.cache_evictions;
  }
};

/// Counter readings from the framework's registry and plan cache.
Counts ReadCounters(ppc::PpcFramework* fw) {
  ppc::MetricsRegistry& m = fw->metrics();
  const ppc::PlanCache::Stats cache = fw->plan_cache().GetStats();
  Counts c;
  c.queries = m.counter("framework.queries").value();
  c.optimizer_calls = m.counter("framework.optimizer.calls").value();
  c.negative_feedback = m.counter("framework.negative_feedback").value();
  c.predictions_used = m.counter("framework.predictions.executed").value();
  c.nulls = m.counter("framework.predictions.null").value();
  c.random_invocations =
      m.counter("framework.predictions.random_invocation").value();
  c.cache_hits = cache.hits;
  c.cache_misses = cache.misses;
  c.cache_evictions = cache.evictions;
  return c;
}

Counts Delta(const Counts& after, const Counts& before) {
  Counts d;
  d.queries = after.queries - before.queries;
  d.optimizer_calls = after.optimizer_calls - before.optimizer_calls;
  d.negative_feedback = after.negative_feedback - before.negative_feedback;
  d.predictions_used = after.predictions_used - before.predictions_used;
  d.nulls = after.nulls - before.nulls;
  d.random_invocations = after.random_invocations - before.random_invocations;
  d.cache_hits = after.cache_hits - before.cache_hits;
  d.cache_misses = after.cache_misses - before.cache_misses;
  d.cache_evictions = after.cache_evictions - before.cache_evictions;
  return d;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Per metric, the median over rounds.
std::vector<Metric> MedianOverRounds(
    const std::vector<std::vector<Metric>>& rounds) {
  std::vector<Metric> out = rounds.front();
  for (size_t m = 0; m < out.size(); ++m) {
    std::vector<double> values;
    for (const auto& r : rounds) values.push_back(r[m].value);
    out[m].value = Quantile(values, 0.5);
  }
  return out;
}

/// Per metric, the median over each instance's rounds, then the mean of
/// the instances' values without the highest and the lowest. The mean
/// evens out where each instance's clusters fell; the median and the
/// trimming shed a round the host stalled.
std::vector<Metric> Aggregate(
    const std::vector<std::vector<std::vector<Metric>>>& by_instance) {
  std::vector<std::vector<Metric>> medians;
  for (const auto& rounds : by_instance) {
    medians.push_back(MedianOverRounds(rounds));
  }
  std::vector<Metric> out = medians.front();
  for (size_t m = 0; m < out.size(); ++m) {
    std::vector<double> values;
    for (const auto& med : medians) values.push_back(med[m].value);
    std::sort(values.begin(), values.end());
    const size_t trim = values.size() > 2 ? 1 : 0;
    double sum = 0.0;
    for (size_t k = trim; k + trim < values.size(); ++k) sum += values[k];
    out[m].value = sum / static_cast<double>(values.size() - 2 * trim);
  }
  return out;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string json = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return json + "}";
}

/// One query's answer from the execute path, in-process or over the wire.
struct Executed {
  bool ok = false;
  PlanId executed_plan = kNullPlanId;
  PlanId optimal_plan = kNullPlanId;
  bool used_prediction = false;
  bool optimizer_invoked = false;
  double execution_cost = 0.0;
  double predict_micros = 0.0;
  double optimize_micros = 0.0;
  double execute_micros = 0.0;
};

template <typename Report>
Executed FromReport(const Report& r) {
  Executed x;
  x.ok = true;
  x.executed_plan = r.executed_plan;
  x.optimal_plan = r.optimal_plan;
  x.used_prediction = r.used_prediction;
  x.optimizer_invoked = r.optimizer_invoked;
  x.execution_cost = r.execution_cost;
  x.predict_micros = r.predict_micros;
  x.optimize_micros = r.optimize_micros;
  x.execute_micros = r.execute_micros;
  return x;
}

/// Records the parts of one ExecuteAtPoint call under its span. The
/// report gives each part's duration, not its bounds: the parts are laid
/// end to end from the span's start.
void AddFrameworkParts(Tracer* tracer, int32_t span, uint64_t request,
                       int64_t start, const Executed& x) {
  if (!tracer->enabled()) return;
  int64_t at = start;
  auto part = [&](const char* name, double us) {
    const int64_t len = static_cast<int64_t>(us * 1e3);
    tracer->Add(name, at, at + len, span, request);
    at += len;
  };
  part("framework.predict_part", x.predict_micros);
  if (x.optimizer_invoked) part("framework.optimize_part", x.optimize_micros);
  part("framework.exec_part", x.execute_micros);
}

// ---------------------------------------------------------------------------
// The run.

class Bench {
 public:
  Bench(const WorkloadSpec& spec, uint64_t seed, bool trace)
      : spec_(spec), seed_(seed), trace_(trace), tracer_(trace) {}

  void Run(double seconds, const std::string& span_file);

 private:
  struct Stack {
    std::unique_ptr<ppc::PpcFramework> fw;
    std::unique_ptr<ppc::PlanServer> server;
    std::unique_ptr<ppc::PlanRouter> router;
    /// The served workloads' client, connected to the router if there is
    /// one, else to the server.
    std::unique_ptr<ppc::PpcClient> client;
    ppc::PpcClient::TransportStats transport;

    void AddTransport(const ppc::PpcClient& c) {
      transport.busy_retries += c.transport_stats().busy_retries;
      transport.reconnects += c.transport_stats().reconnects;
    }
    /// Closes the client, stops the router, then the server, then drops
    /// the framework they serve.
    void Reset() {
      if (client) AddTransport(*client);
      client.reset();
      router.reset();
      server.reset();
      fw.reset();
    }
  };

  const std::string& Name(uint32_t t) const {
    return templates_[t].name;
  }
  std::string Where(size_t i) const {
    return Name(inst_->measured[i].tmpl) + "#" + std::to_string(i);
  }

  void Attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  void StartServer(Stack* stack);
  void StartRouter(Stack* stack);
  Executed Execute(Stack* stack, const Event& e);
  bool Predict(Stack* stack, const Event& e, PlanId* plan);

  /// Judges one executed query against the oracle; adds its costs, and
  /// counts it in *used_correct when it ran a correctly predicted plan.
  void JudgeExecute(size_t i, const Executed& x, Samples* s,
                    uint64_t* used_correct);
  /// A non-null prediction must name a plan the oracle chose at an
  /// earlier EXECUTE point of the same template (`known`).
  void CheckPrediction(size_t i, PlanId plan,
                       const std::vector<std::set<PlanId>>& known);

  Stack Round(Samples* s, Counts* c, Tracer* tracer);
  void FrozenPhases(Stack* stack, Samples* s, Tracer* tracer,
                    const std::vector<std::set<PlanId>>& known);
  /// Predicts measured points [from, to) in batches of up to kBatchSize
  /// same-template points, in stream order per template, and returns the
  /// time spent in the calls (s). Fills (*plans)[i] and counts *points for
  /// every answered point. With `direct`, each batch is repeated straight
  /// to the shard and the answers must agree.
  double BatchPredict(Stack* stack, size_t from, size_t to, Tracer* tracer,
                      std::vector<PlanId>* plans, ppc::PpcClient* direct,
                      uint64_t* points);
  /// Traced-run layer probes against the final round's state.
  void ProbeLayers(Stack* stack);

  std::vector<Metric> EndToEnd(const Samples& s) const;
  std::vector<Metric> Absolute(const Samples& s) const;
  std::vector<Metric> PerLayer(Stack* stack);

  const WorkloadSpec& spec_;
  const uint64_t seed_;
  const bool trace_;
  Tracer tracer_;

  std::unique_ptr<ppc::Catalog> catalog_;
  const std::vector<ppc::QueryTemplate> templates_ = Templates();
  std::unique_ptr<Oracle> oracle_;
  std::vector<Instance> instances_;
  /// The instance the current round runs.
  const Instance* inst_ = nullptr;

  Checks checks_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  Counts counts_;
  std::vector<Counts> first_cycle_counts_;
  std::vector<double> lateness_us_;
  /// Executed plans that replayed cheaper than the optimizer's own choice.
  uint64_t cheaper_than_optimizer_ = 0;
  double max_undercut_ = 0.0;
  uint64_t request_seq_ = 0;

  // Filled by ProbeLayers.
  double ping_p50_ = 0, predict_service_us_ = 0, execute_service_us_ = 0;
  double transport_us_ = 0, hop_us_ = 0;
  double predictor_bytes_ = 0, predictor_plans_ = 0;
  std::vector<double> batch_us_per_point_;
};

void Bench::StartServer(Stack* stack) {
  ppc::PlanServer::Config cfg;
  cfg.worker_threads = kServerWorkers;
  stack->server = std::make_unique<ppc::PlanServer>(stack->fw.get(), cfg);
  const ppc::Status st = stack->server->Start();
  PPC_CHECK_MSG(st.ok(), st.ToString().c_str());
}

void Bench::StartRouter(Stack* stack) {
  ppc::PlanRouter::Config cfg;
  cfg.backends.push_back(ppc::HashRing::Node{kHost, stack->server->port()});
  // No health thread: probing, replica shipping and failover are timer
  // driven and would make runs unsteady; they are not the serving cost
  // this benchmark measures.
  cfg.probe_interval_ms = 0;
  cfg.replication_interval_ms = 0;
  stack->router = std::make_unique<ppc::PlanRouter>(cfg);
  const ppc::Status st = stack->router->Start();
  PPC_CHECK_MSG(st.ok(), st.ToString().c_str());
}

Executed Bench::Execute(Stack* stack, const Event& e) {
  if (stack->client) {
    auto r = stack->client->Execute(Name(e.tmpl), e.point);
    return r.ok() ? FromReport(r.value()) : Executed{};
  }
  auto r = stack->fw->ExecuteAtPoint(Name(e.tmpl), e.point);
  return r.ok() ? FromReport(r.value()) : Executed{};
}

bool Bench::Predict(Stack* stack, const Event& e, PlanId* plan) {
  if (stack->client) {
    auto r = stack->client->Predict(Name(e.tmpl), e.point);
    if (r.ok()) *plan = r.value().plan;
    return r.ok();
  }
  auto r = stack->fw->PredictAtPoint(Name(e.tmpl), e.point);
  if (r.ok()) *plan = r.value().plan;
  return r.ok();
}

void Bench::JudgeExecute(size_t i, const Executed& x, Samples* s,
                         uint64_t* used_correct) {
  const Event& e = inst_->measured[i];
  const Oracle::Label& truth = inst_->measured_labels[i];
  // A query that ran the optimizer reports its choice; when the optimizer
  // chose the plan (no prediction used), that plan is the one executed.
  // Under negative feedback the predicted plan ran and the optimizer only
  // corrected the histograms afterwards.
  if (x.optimizer_invoked) {
    checks_["optimizer_plan"].Record(x.optimal_plan == truth.plan, Where(i));
    if (!x.used_prediction) {
      checks_["optimizer_plan"].Record(x.executed_plan == truth.plan,
                                       Where(i));
    }
  }
  const double replay = oracle_->Replay(e.tmpl, x.executed_plan, e.point);
  checks_["cost_replay"].Record(
      std::fabs(replay - x.execution_cost) <=
          1e-9 * std::max(1.0, std::fabs(replay)),
      Where(i));
  if (x.used_prediction && x.executed_plan == truth.plan) ++*used_correct;
  s->executed_cost += x.execution_cost;
  s->optimal_cost += truth.cost;
  if (x.execution_cost < truth.cost) {
    ++cheaper_than_optimizer_;
    max_undercut_ = std::max(max_undercut_, 1.0 - x.execution_cost / truth.cost);
  }
}

void Bench::CheckPrediction(size_t i, PlanId plan,
                            const std::vector<std::set<PlanId>>& known) {
  if (plan == kNullPlanId) return;
  checks_["predict_known_plan"].Record(
      known[inst_->measured[i].tmpl].count(plan) > 0, Where(i));
}

// One round: a fresh framework (and server, router, client), warmed on
// the warm-up stream; then the measured stream in blocks, each block
// followed by the yardstick and by batch predicts on the same points; then
// the read-only phases.
// In-process every measured event is an ExecuteAtPoint; served, even
// events are EXECUTEs and odd ones PREDICTs.
Bench::Stack Bench::Round(Samples* s, Counts* c, Tracer* tracer) {
  Stack stack;
  const int64_t t0 = NowNs();
  stack.fw = std::make_unique<ppc::PpcFramework>(catalog_.get(),
                                                 FrameworkConfig());
  for (const auto& t : templates_) {
    const ppc::Status st = stack.fw->RegisterTemplate(t);
    PPC_CHECK_MSG(st.ok(), st.ToString().c_str());
  }
  if (spec_.served) {
    StartServer(&stack);
    uint16_t port = stack.server->port();
    if (spec_.routed) {
      StartRouter(&stack);
      port = stack.router->port();
    }
    stack.client = std::make_unique<ppc::PpcClient>(ClientOptions());
    const ppc::Status st = stack.client->Connect(kHost, port);
    PPC_CHECK_MSG(st.ok(), st.ToString().c_str());
  }
  for (const Event& e : inst_->warm) Attempt(Execute(&stack, e).ok);
  s->setup_s = Seconds(NowNs() - t0);

  std::vector<std::set<PlanId>> known = inst_->warm_plans;
  const Counts before = ReadCounters(stack.fw.get());
  uint64_t used_correct = 0;
  const size_t n = inst_->measured.size();
  std::vector<PlanId> batch_scratch(n, kNullPlanId);
  for (size_t b = 0; b < n; b += kBlock) {
    const size_t end = std::min(n, b + kBlock);
    const int64_t block_start = NowNs();
    for (size_t i = b; i < end; ++i) {
      const Event& e = inst_->measured[i];
      const uint64_t req = ++request_seq_;
      if (!spec_.served || i % 2 == 0) {
        const int32_t span = tracer->Begin(
            spec_.served ? "client.execute" : "framework.execute", req);
        const int64_t start = NowNs();
        const Executed x = Execute(&stack, e);
        const int64_t stop = NowNs();
        tracer->End(span);
        Attempt(x.ok);
        if (!x.ok) continue;
        s->execute_us.push_back(Micros(stop - start));
        if (!spec_.served) AddFrameworkParts(tracer, span, req, start, x);
        JudgeExecute(i, x, s, &used_correct);
        known[e.tmpl].insert(inst_->measured_labels[i].plan);
      } else {
        PlanId plan = kNullPlanId;
        const int32_t span = tracer->Begin("client.predict", req);
        const int64_t start = NowNs();
        const bool ok = Predict(&stack, e, &plan);
        const int64_t stop = NowNs();
        tracer->End(span);
        Attempt(ok);
        if (!ok) continue;
        s->predict_us.push_back(Micros(stop - start));
        CheckPrediction(i, plan, known);
      }
    }
    s->loop_seconds += Seconds(NowNs() - block_start);
    s->loop_requests += end - b;
    for (size_t i = b; i < end; ++i) {
      const Event& e = inst_->measured[i];
      const Oracle::Yardstick y =
          oracle_->OptimizeAndExecute(e.tmpl, e.point, tracer, ++request_seq_);
      s->optimize_us.push_back(y.optimize_us);
      s->yardstick_us.push_back(y.total_us);
      checks_["oracle_repeats"].Record(y.plan == inst_->measured_labels[i].plan,
                                       Where(i));
    }
    // The block's points again, batched, beside the yardstick.
    uint64_t points = 0;
    const double seconds =
        BatchPredict(&stack, b, end, tracer, &batch_scratch, nullptr, &points);
    s->batch_us_per_point.push_back(
        Ratio(seconds * 1e6, static_cast<double>(points)));
  }
  *c = Delta(ReadCounters(stack.fw.get()), before);
  c->used_correct = used_correct;
  FrozenPhases(&stack, s, tracer, known);
  return stack;
}

// Read-only phases on frozen state: single-point predicts (in-process),
// batch predicts, and the paced open loop. Every answer is checked against
// the single-point answer at the same point.
void Bench::FrozenPhases(Stack* stack, Samples* s, Tracer* tracer,
                         const std::vector<std::set<PlanId>>& known) {
  const size_t n = inst_->measured.size();
  std::vector<PlanId> single(n, kNullPlanId);
  std::vector<bool> have_single(n, false);
  if (!spec_.served) {
    for (size_t b = 0; b < n; b += kBlock) {
      const size_t end = std::min(n, b + kBlock);
      for (size_t i = b; i < end; ++i) {
        PlanId plan = kNullPlanId;
        const int32_t span =
            tracer->Begin("framework.predict", ++request_seq_);
        const int64_t start = NowNs();
        const bool ok = Predict(stack, inst_->measured[i], &plan);
        s->predict_us.push_back(Micros(NowNs() - start));
        tracer->End(span);
        Attempt(ok);
        if (!ok) continue;
        single[i] = plan;
        have_single[i] = true;
        CheckPrediction(i, plan, known);
      }
      for (size_t i = b; i < end; ++i) {
        const Event& e = inst_->measured[i];
        s->predict_optimize_us.push_back(
            oracle_->OptimizeMicros(e.tmpl, e.point));
      }
    }
  }
  std::unique_ptr<ppc::PpcClient> direct;
  if (spec_.routed) {
    direct = std::make_unique<ppc::PpcClient>(ClientOptions());
    PPC_CHECK(direct->Connect(kHost, stack->server->port()).ok());
  }

  // One batch pass over frozen state, checked against the single-point
  // answers below and, routed, against the shard's own answers.
  std::vector<PlanId> batched(n, kNullPlanId);
  uint64_t points = 0;
  BatchPredict(stack, 0, n, tracer, &batched, direct.get(), &points);

  // Paced open loop of single-point predicts at a fixed offered rate,
  // each timed from its due time.
  const double rate =
      spec_.served ? kServedPacedPerSecond : kInprocPacedPerSecond;
  const int64_t interval_ns = static_cast<int64_t>(1e9 / rate);
  const int64_t origin = NowNs() + 1000000;
  for (size_t k = 0; k < kPacedRequests; ++k) {
    const size_t i = k % n;
    const Event& e = inst_->measured[i];
    const int64_t due = origin + static_cast<int64_t>(k) * interval_ns;
    WaitUntil(due);
    const int64_t sent = NowNs();
    PlanId plan = kNullPlanId;
    const int32_t span = tracer->Begin("paced.predict", ++request_seq_);
    const bool ok = Predict(stack, e, &plan);
    const int64_t done = NowNs();
    tracer->End(span);
    Attempt(ok);
    if (!ok) continue;
    s->paced_us.push_back(Micros(done - due));
    s->lateness_us.push_back(Micros(sent - due));
    if (have_single[i]) {
      checks_["paced_equals_single"].Record(single[i] == plan, Where(i));
      continue;
    }
    single[i] = plan;
    have_single[i] = true;
    CheckPrediction(i, plan, known);
    if (direct != nullptr) {
      auto r = direct->Predict(Name(e.tmpl), e.point);
      Attempt(r.ok());
      checks_["routed_equals_direct"].Record(r.ok() && r.value().plan == plan,
                                             Where(i));
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (!have_single[i]) continue;
    checks_["batch_equals_single"].Record(batched[i] == single[i], Where(i));
  }
  if (direct) stack->AddTransport(*direct);
}

double Bench::BatchPredict(Stack* stack, size_t from, size_t to,
                           Tracer* tracer, std::vector<PlanId>* plans,
                           ppc::PpcClient* direct, uint64_t* points) {
  std::vector<std::vector<size_t>> by_template(templates_.size());
  for (size_t i = from; i < to; ++i) {
    by_template[inst_->measured[i].tmpl].push_back(i);
  }
  double seconds = 0.0;
  for (uint32_t t = 0; t < by_template.size(); ++t) {
    const auto& idx = by_template[t];
    const uint32_t dims =
        static_cast<uint32_t>(templates_[t].ParameterDegree());
    for (size_t b = 0; b < idx.size(); b += kBatchSize) {
      const size_t count = std::min(kBatchSize, idx.size() - b);
      std::vector<double> flat;
      for (size_t k = 0; k < count; ++k) {
        const auto& p = inst_->measured[idx[b + k]].point;
        flat.insert(flat.end(), p.begin(), p.end());
      }
      std::vector<PlanId> answers;
      const int32_t span = tracer->Begin(
          spec_.served ? "client.predict_batch" : "framework.predict_batch",
          ++request_seq_);
      const int64_t start = NowNs();
      if (stack->client) {
        auto r = stack->client->PredictBatch(Name(t), flat, dims);
        if (r.ok()) {
          for (const auto& p : r.value()) answers.push_back(p.plan);
        }
      } else {
        auto r = stack->fw->PredictBatch(Name(t), flat.data(), count, dims);
        if (r.ok()) {
          for (const auto& p : r.value()) answers.push_back(p.plan);
        }
      }
      seconds += Seconds(NowNs() - start);
      tracer->End(span);
      Attempt(answers.size() == count);
      if (answers.size() != count) continue;
      *points += count;
      for (size_t k = 0; k < count; ++k) (*plans)[idx[b + k]] = answers[k];
      if (direct != nullptr) {
        auto r = direct->PredictBatch(Name(t), flat, dims);
        Attempt(r.ok());
        for (size_t k = 0; r.ok() && k < count; ++k) {
          checks_["routed_equals_direct"].Record(
              r.value()[k].plan == answers[k], Where(idx[b + k]));
        }
      }
    }
  }
  return seconds;
}

void Bench::ProbeLayers(Stack* stack) {
  Tracer* tr = &tracer_;
  ppc::PpcFramework* fw = stack->fw.get();
  const size_t n = inst_->measured.size();

  // Predictor, in isolation, against each template's final learned state.
  // Nothing else touches the predictors while this runs.
  for (uint32_t t = 0; t < templates_.size(); ++t) {
    auto online = fw->online_predictor(Name(t));
    const ppc::LshHistogramsPredictor& p = online->predictor();
    predictor_bytes_ += static_cast<double>(p.SpaceBytes());
    predictor_plans_ += static_cast<double>(p.DistinctPlans());
    ppc::LshHistogramsPredictor copy(p);
    std::vector<double> flat;
    size_t in_batch = 0;
    std::vector<ppc::Prediction> out(kBatchSize);
    for (size_t i = 0; i < n; ++i) {
      const Event& e = inst_->measured[i];
      if (e.tmpl != t) continue;
      const uint64_t req = ++request_seq_;
      ppc::Prediction pred;
      {
        ScopedSpan span(tr, "predictor.predict", req);
        pred = p.Predict(e.point);
      }
      const Oracle::Label& truth = inst_->measured_labels[i];
      const PlanId plan = pred.has_value() ? pred.plan : truth.plan;
      {
        ScopedSpan span(tr, "predictor.estimate_cost", req);
        volatile double cost = p.EstimateCost(e.point, plan);
        (void)cost;
      }
      {
        ScopedSpan span(tr, "predictor.insert", req);
        copy.Insert(ppc::LabeledPoint{e.point, truth.plan, truth.cost});
      }
      flat.insert(flat.end(), e.point.begin(), e.point.end());
      if (++in_batch == kBatchSize) {
        const int64_t start = NowNs();
        {
          ScopedSpan span(tr, "predictor.batch", req);
          p.PredictBatchInto(flat.data(), in_batch, out.data());
        }
        batch_us_per_point_.push_back(Micros(NowNs() - start) /
                                      static_cast<double>(in_batch));
        flat.clear();
        in_batch = 0;
      }
    }
  }

  // Transport: the workload's own server and router, or probe ones over
  // the same learned state for the workloads that have none.
  if (!stack->server) StartServer(stack);
  if (!stack->router) StartRouter(stack);
  ppc::PpcClient direct(ClientOptions()), routed(ClientOptions());
  PPC_CHECK(direct.Connect(kHost, stack->server->port()).ok());
  PPC_CHECK(routed.Connect(kHost, stack->router->port()).ok());
  for (size_t k = 0; k < kProbePings; ++k) {
    ScopedSpan span(tr, "client.ping", ++request_seq_);
    Attempt(direct.Ping().ok());
  }
  ppc::LatencyHistogram& predict_hist =
      fw->metrics().histogram("server.predict_us");
  ppc::LatencyHistogram& execute_hist =
      fw->metrics().histogram("server.execute_us");
  const auto p0 = predict_hist.TakeSnapshot();
  std::vector<double> direct_us, routed_us;
  for (size_t k = 0; k < kProbePredicts; ++k) {
    const Event& e = inst_->measured[k % n];
    for (int leg = 0; leg < 2; ++leg) {
      const bool via_router = (leg + static_cast<int>(k)) % 2 == 1;
      ppc::PpcClient* cl = via_router ? &routed : &direct;
      const int64_t start = NowNs();
      {
        ScopedSpan span(tr, via_router ? "probe.routed_predict"
                                       : "probe.direct_predict",
                        ++request_seq_);
        Attempt(cl->Predict(Name(e.tmpl), e.point).ok());
      }
      (via_router ? routed_us : direct_us).push_back(Micros(NowNs() - start));
    }
  }
  const auto p1 = predict_hist.TakeSnapshot();
  const auto e0 = execute_hist.TakeSnapshot();
  for (size_t k = 0; k < kProbeExecutes; ++k) {
    const Event& e = inst_->measured[k % n];
    ScopedSpan span(tr, "probe.direct_execute", ++request_seq_);
    Attempt(direct.Execute(Name(e.tmpl), e.point).ok());
  }
  const auto e1 = execute_hist.TakeSnapshot();
  ping_p50_ = Quantile(tr->Durations("client.ping"), 0.5);
  predict_service_us_ = Ratio(p1.sum_us - p0.sum_us,
                              static_cast<double>(p1.count - p0.count));
  execute_service_us_ = Ratio(e1.sum_us - e0.sum_us,
                              static_cast<double>(e1.count - e0.count));
  transport_us_ = Mean(direct_us) - predict_service_us_;
  hop_us_ = Quantile(routed_us, 0.5) - Quantile(direct_us, 0.5);
  stack->AddTransport(direct);
  stack->AddTransport(routed);

  // Framework spans for the served workloads, whose ExecuteAtPoint calls
  // run inside the server: one traced in-process pass over the measured
  // points against the same learned state.
  if (spec_.served) {
    for (size_t k = 0; k < kProbeFrameworkQueries; ++k) {
      const Event& e = inst_->measured[k % n];
      const uint64_t req = ++request_seq_;
      const int32_t span = tr->Begin("framework.execute", req);
      const int64_t start = NowNs();
      auto r = fw->ExecuteAtPoint(Name(e.tmpl), e.point);
      tr->End(span);
      Attempt(r.ok());
      if (r.ok()) AddFrameworkParts(tr, span, req, start, FromReport(r.value()));
    }
  }
}

// The gated end-to-end figures: each the workload's own cost against the
// ALWAYS-OPTIMIZE yardstick run on the same points in the same process,
// so that they carry across hosts and across the host's drifting speed.
std::vector<Metric> Bench::EndToEnd(const Samples& s) const {
  const double batch_us_per_point = Quantile(s.batch_us_per_point, 0.5);
  return {
      {"setup_s", s.setup_s, "s"},
      {"optimizer_speedup", Ratio(Mean(s.yardstick_us), Mean(s.execute_us)),
       "ratio"},
      {"predict_speedup",
       Ratio(Mean(spec_.served ? s.optimize_us : s.predict_optimize_us),
             Mean(s.predict_us)),
       "ratio"},
      {"batch_speedup", Ratio(Mean(s.optimize_us), batch_us_per_point),
       "ratio"},
      {"cost_ratio", Ratio(s.executed_cost, s.optimal_cost), "ratio"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

// The same run in absolute units: printed, not gated.
std::vector<Metric> Bench::Absolute(const Samples& s) const {
  return {
      {"queries_per_s",
       Ratio(static_cast<double>(s.loop_requests), s.loop_seconds), "1/s"},
      {"execute_us_p50", Quantile(s.execute_us, 0.5), "us"},
      {"execute_us_p90", Quantile(s.execute_us, 0.9), "us"},
      {"execute_us_p99", Quantile(s.execute_us, 0.99), "us"},
      {"predict_us_p50", Quantile(s.predict_us, 0.5), "us"},
      {"predict_us_p99", Quantile(s.predict_us, 0.99), "us"},
      {"paced_predict_us_p50", Quantile(s.paced_us, 0.5), "us"},
      {"paced_predict_us_p90", Quantile(s.paced_us, 0.9), "us"},
      {"batch_points_per_s",
       Ratio(1e6, Quantile(s.batch_us_per_point, 0.5)), "1/s"},
      {"yardstick_us_mean", Mean(s.yardstick_us), "us"},
      {"optimize_us_mean", Mean(s.optimize_us), "us"},
  };
}

std::vector<Metric> Bench::PerLayer(Stack* stack) {
  const Tracer& tr = tracer_;
  const double kq =
      static_cast<double>(std::max<uint64_t>(1, counts_.queries));
  auto per_kq = [&](uint64_t v) {
    return 1000.0 * static_cast<double>(v) / kq;
  };
  auto p50 = [&](const char* name) {
    return Quantile(tr.Durations(name), 0.5);
  };
  ppc::MetricsRegistry& fm = stack->fw->metrics();
  auto counter = [&](ppc::MetricsRegistry& m, const char* name) {
    return static_cast<double>(m.counter(name).value());
  };
  ppc::MetricsRegistry& rm = stack->router->metrics();
  const double forwarded = counter(rm, "router.requests.forwarded");
  const double local = counter(rm, "router.requests.local");

  return {
      {"framework.execute_us_p50", p50("framework.execute"), "us"},
      {"framework.predict_part_us_p50", p50("framework.predict_part"), "us"},
      {"framework.optimize_part_us_p50", p50("framework.optimize_part"),
       "us"},
      {"framework.exec_part_us_p50", p50("framework.exec_part"), "us"},
      {"framework.self_us_p50",
       Quantile(tr.SelfTimes("framework.execute"), 0.5), "us"},
      {"online.optimizer_calls_per_kq", per_kq(counts_.optimizer_calls),
       "count/kq"},
      {"online.negative_feedback_per_kq", per_kq(counts_.negative_feedback),
       "count/kq"},
      {"online.predictions_used_per_kq", per_kq(counts_.predictions_used),
       "count/kq"},
      {"online.null_per_kq", per_kq(counts_.nulls), "count/kq"},
      {"online.random_invocations_per_kq", per_kq(counts_.random_invocations),
       "count/kq"},
      {"online.recall", static_cast<double>(counts_.used_correct) / kq,
       "ratio"},
      {"online.precision",
       Ratio(static_cast<double>(counts_.used_correct),
             static_cast<double>(counts_.predictions_used)),
       "ratio"},
      {"predictor.predict_us_p50", p50("predictor.predict"), "us"},
      {"predictor.batch_us_per_point", Quantile(batch_us_per_point_, 0.5),
       "us"},
      {"predictor.estimate_cost_us_p50", p50("predictor.estimate_cost"),
       "us"},
      {"predictor.insert_us_p50", p50("predictor.insert"), "us"},
      {"predictor.bytes", predictor_bytes_, "bytes"},
      {"predictor.plans", predictor_plans_, "count"},
      {"optimizer.optimize_us_p50", p50("optimizer.optimize"), "us"},
      {"plan_cache.hits_per_kq", per_kq(counts_.cache_hits), "count/kq"},
      {"plan_cache.misses_per_kq", per_kq(counts_.cache_misses), "count/kq"},
      {"plan_cache.evictions_per_kq", per_kq(counts_.cache_evictions),
       "count/kq"},
      {"exec.execute_us_p50", p50("exec.execute"), "us"},
      {"client.ping_us_p50", ping_p50_, "us"},
      {"server.predict_service_us_mean", predict_service_us_, "us"},
      {"server.execute_service_us_mean", execute_service_us_, "us"},
      {"server.transport_us_mean", transport_us_, "us"},
      {"server.microbatched_per_kpredict",
       1000.0 * Ratio(counter(fm, "server.microbatched_predicts"),
                      counter(fm, "server.requests.predict")),
       "count/kreq"},
      {"server.busy", counter(fm, "server.responses.busy"), "count"},
      {"client.busy_retries",
       static_cast<double>(stack->transport.busy_retries), "count"},
      {"client.reconnects", static_cast<double>(stack->transport.reconnects),
       "count"},
      {"router.hop_us_p50", hop_us_, "us"},
      {"router.forward_us_p50",
       rm.histogram("router.forward_us").TakeSnapshot().p50_us, "us"},
      {"router.forwarded_per_kreq",
       1000.0 * Ratio(forwarded, forwarded + local), "count/kreq"},
      {"router.failovers", counter(rm, "router.failovers"), "count"},
  };
}

void Bench::Run(double seconds, const std::string& span_file) {
  IdleSpinners spinners(spec_.served ? kIdleSpinners : 0);
  ppc::TpchConfig tpch;
  tpch.scale_factor = 0.002;
  tpch.seed = 42;
  catalog_ = ppc::BuildTpchCatalog(tpch);
  oracle_ = std::make_unique<Oracle>(catalog_.get(), templates_);
  for (uint64_t k = 0; k < kInstances; ++k) {
    Instance in = MakeInstance(spec_, templates_, seed_ * kInstances + k);
    checks_["stream_regenerates"].Record(
        MakeInstance(spec_, templates_, in.scenario_seed).hash == in.hash);
    std::printf("stream_hash workload=%s scenario=%s seed=%llu instance=%llu "
                "scenario_seed=%llu events=%zu fnv1a=%016llx\n",
                spec_.name, spec_.scenario,
                static_cast<unsigned long long>(seed_),
                static_cast<unsigned long long>(k),
                static_cast<unsigned long long>(in.scenario_seed),
                in.warm.size() + in.measured.size(),
                static_cast<unsigned long long>(in.hash));
    in.warm_plans.resize(templates_.size());
    for (const Event& e : in.warm) {
      in.warm_plans[e.tmpl].insert(oracle_->Optimal(e.tmpl, e.point).plan);
    }
    for (const Event& e : in.measured) {
      in.measured_labels.push_back(oracle_->Optimal(e.tmpl, e.point));
    }
    instances_.push_back(std::move(in));
  }

  // Whole cycles, one round per instance, until the time is up and at
  // least two cycles ran. In a traced run the last instance's round of
  // every second cycle is traced; its absolute figures against that
  // instance's untraced rounds give the tracing overhead.
  // figures[k] / absolute[k]: instance k's untraced rounds.
  std::vector<std::vector<std::vector<Metric>>> figures(instances_.size()),
      absolute(instances_.size());
  std::vector<std::vector<Metric>> traced_absolute;
  std::vector<double> setup_s;
  Stack last;
  Tracer off(false);
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  size_t rounds = 0;
  const size_t min_cycles = trace_ || !spec_.served ? 2 : 1;
  for (size_t cycle = 0; cycle < min_cycles || NowNs() < deadline; ++cycle) {
    for (size_t k = 0; k < instances_.size(); ++k, ++rounds) {
      const bool traced =
          trace_ && cycle % 2 == 1 && k + 1 == instances_.size();
      inst_ = &instances_[k];
      Counts c;
      Samples s;
      last.Reset();
      last = Round(&s, &c, traced ? &tracer_ : &off);
      const std::vector<Metric> e2e = EndToEnd(s), abs = Absolute(s);
      if (traced) {
        traced_absolute.push_back(abs);
      } else {
        figures[k].push_back(e2e);
        absolute[k].push_back(abs);
        setup_s.push_back(s.setup_s);
        lateness_us_.insert(lateness_us_.end(), s.lateness_us.begin(),
                            s.lateness_us.end());
      }
      std::fprintf(stderr, "round %zu instance=%zu traced=%d", rounds, k,
                   traced ? 1 : 0);
      for (const auto* set : {&e2e, &abs}) {
        for (const Metric& m : *set) {
          std::fprintf(stderr, " %s=%.6g", m.name.c_str(), m.value);
        }
      }
      std::fprintf(stderr, "\n");
      // In-process, the cycles repeat each other exactly.
      if (!spec_.served && cycle > 0) {
        checks_["rounds_repeat"].Record(c == first_cycle_counts_[k]);
      }
      if (cycle == 0) first_cycle_counts_.push_back(c);
      counts_.Add(c);
    }
  }

  const double precision =
      Ratio(static_cast<double>(counts_.used_correct),
            static_cast<double>(counts_.predictions_used));
  checks_["precision_floor"].Record(precision >= kPrecisionFloor,
                                    "precision " + std::to_string(precision));

  std::vector<Metric> metrics;
  const std::vector<Metric> plain = Aggregate(absolute);
  if (trace_) {
    ProbeLayers(&last);
    metrics = PerLayer(&last);
    const std::vector<Metric> untraced = MedianOverRounds(absolute.back());
    const std::vector<Metric> traced = MedianOverRounds(traced_absolute);
    metrics.push_back({"trace.execute_p50_overhead_pct",
                       100.0 * (Ratio(traced[1].value, untraced[1].value) - 1.0),
                       "%"});
    metrics.push_back({"trace.queries_per_s_overhead_pct",
                       100.0 * (Ratio(untraced[0].value, traced[0].value) - 1.0),
                       "%"});
    if (!span_file.empty() && !tracer_.WriteTsv(span_file)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", span_file.c_str());
    }
  } else {
    metrics = Aggregate(figures);
    metrics.front().value = Quantile(setup_s, 0.5);
    metrics.back().value = PeakRssMb();
  }
  std::printf("rounds=%zu warm_queries=%zu measured_queries_per_round=%zu "
              "predictions_used_per_kq=%.1f optimizer_calls_per_kq=%.1f "
              "spans=%zu\n",
              rounds, kWarmEvents, spec_.measured_events,
              1000.0 * Ratio(static_cast<double>(counts_.predictions_used),
                             static_cast<double>(counts_.queries)),
              1000.0 * Ratio(static_cast<double>(counts_.optimizer_calls),
                             static_cast<double>(counts_.queries)),
              tracer_.spans().size());
  std::printf("paced rate_per_s=%.0f requests_per_round=%zu "
              "lateness_us_p50=%.3f lateness_us_p99=%.3f "
              "lateness_us_max=%.3f\n",
              spec_.served ? kServedPacedPerSecond : kInprocPacedPerSecond,
              kPacedRequests, Quantile(lateness_us_, 0.5),
              Quantile(lateness_us_, 0.99), Quantile(lateness_us_, 1.0));
  std::printf("cost cheaper_than_optimizer=%llu max_undercut=%.4f\n",
              static_cast<unsigned long long>(cheaper_than_optimizer_),
              max_undercut_);
  std::printf("absolute %s\n", MetricsJson(plain).c_str());
  const bool correct = checks_.Report();
  last.Reset();

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--span-file <path>]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, span_file;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  if (argc % 2 == 0) return Usage("flags take one value each");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--span-file") {
      span_file = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(seconds > 0 && seconds <= 600)) return Usage("bad --seconds");
  if (trace != 0 && trace != 1) return Usage("--trace must be 0 or 1");
  for (const WorkloadSpec& spec : kWorkloads) {
    if (workload == spec.name) {
      Bench bench(spec, seed, trace == 1);
      bench.Run(seconds, span_file);
      return 0;
    }
  }
  return Usage(("unknown workload '" + workload + "'").c_str());
}
