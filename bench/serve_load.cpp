// Closed-loop load generator for the resident PartitionService
// (src/service/): the paper's algorithms behind a request queue, measured
// the way a serving system is measured -- tail latency and throughput --
// instead of per-run wall time.
//
// Each of --clients generator threads keeps exactly one request in flight
// (closed loop), rotating over --keys distinct problem keys, for
// --requests requests per client.  Every key is warmed once before the
// measured phase, so the steady state exercised here is the memoized
// serving path; misses, batching and admission control are covered by the
// `service` ctest suite and by --smoke below.
//
// Usage: lbb_bench serve_load [--workers=0] [--clients=4] [--requests=200]
//                             [--keys=8] [--logn=12] [--algos=ba,ba_hf,hf]
//                             [--alpha=0.25] [--beta=1.0] [--queue=0]
//                             [--seed=1] [--cache=1]
//                             [--out=BENCH_serve_load.json] [--smoke]
//
// --queue=0 sizes the admission queue to fit the closed loop (2x clients,
// min 16); smaller values exercise rejection under load.  --cache=0 turns
// memoization off, turning the same harness into a compute-saturation
// load test.
//
// --smoke runs a reduced closed loop plus two self-checks and writes no
// JSON: (1) for each algorithm, a cache hit must be byte-identical to the
// miss that filled it AND to a fresh cache-bypassing compute; (2) with the
// allocation probe linked, warm serving must be allocation-free.  A hit is
// answered inside submit() on the caller thread, so the caller-side count
// covers the whole hit, and the worker-side count stays zero because no
// hit reaches a worker.  tools/check_determinism.sh runs this mode.
//
// The JSON mirrors BENCH_par_speedup.json: one experiment per algorithm,
// one inline cell keyed by (algo, log2_n, threads=workers).  Every number
// in a cell flows out of the service through its MetricsSink report
// ("service.p50_ms", "service.partitions_per_sec", ...), so the bench
// sees exactly what any embedder's sink would.  tools/bench_diff.py
// tracks the latency percentiles across reports (p99 regressions flag
// only between same-concurrency machines).
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_cli.hpp"
#include "bench/experiment_registry.hpp"
#include "core/partitioner.hpp"
#include "core/run_context.hpp"
#include "service/partition_service.hpp"
#include "stats/alloc_stats.hpp"
#include "stats/json.hpp"

namespace lbb::bench {
namespace {

struct LoadPlan {
  std::vector<std::string> algos;
  std::int32_t workers = 0;
  std::int32_t clients = 4;
  std::int32_t requests = 200;  ///< per client
  std::int32_t keys = 8;
  std::int32_t logn = 12;
  std::int32_t queue = 0;  ///< 0 = fit the closed loop
  bool cache = true;
  std::uint64_t seed = 1;
  double alpha = 0.25;
  double beta = 1.0;
};

service::RequestSpec key_spec(const LoadPlan& plan, const std::string& algo,
                              std::int32_t key) {
  service::RequestSpec spec;
  spec.algo = algo;
  spec.problem_seed = plan.seed + static_cast<std::uint64_t>(key);
  spec.n = std::int32_t{1} << plan.logn;
  spec.alpha_lo = 0.1;
  spec.alpha_hi = 0.5;
  spec.alpha = plan.alpha;
  spec.beta = plan.beta;
  return spec;
}

service::ServiceConfig service_config(const LoadPlan& plan) {
  service::ServiceConfig cfg;
  cfg.workers = plan.workers;
  cfg.queue_capacity =
      plan.queue > 0 ? plan.queue : std::max(plan.clients * 2, 16);
  cfg.cache_enabled = plan.cache;
  cfg.partitioner_threads = 1;
  return cfg;
}

struct ClientTally {
  std::int64_t ok = 0;
  std::int64_t failed = 0;
  std::int64_t resubmits = 0;  ///< admission-control retries
  std::string first_error;
};

/// One closed-loop client: at most one request in flight, next request
/// issued the moment the previous one completes.  Rejections (possible
/// only with a deliberately undersized --queue) are retried after a
/// yield, so offered load adapts to what admission control accepts.
void client_loop(service::PartitionService& svc,
                 const std::vector<service::RequestSpec>& specs,
                 std::int32_t offset, std::int32_t requests,
                 ClientTally& tally) {
  service::PartitionRequest req;
  for (std::int32_t i = 0; i < requests; ++i) {
    req.spec = specs[static_cast<std::size_t>(offset + i) % specs.size()];
    while (!svc.try_submit(req)) {
      if (req.status() == service::ServiceStatus::kShutdown) {
        ++tally.failed;
        return;
      }
      ++tally.resubmits;
      std::this_thread::yield();
    }
    if (req.wait() == service::ServiceStatus::kOk) {
      ++tally.ok;
    } else {
      ++tally.failed;
      if (tally.first_error.empty()) {
        tally.first_error = std::string(to_string(req.status()));
        if (!req.error_message().empty()) {
          tally.first_error += ": " + req.error_message();
        }
      }
    }
  }
}

struct RecordingSink final : core::MetricsSink {
  std::map<std::string, double> counters;
  void on_counter(std::string_view key, double value) override {
    counters[std::string(key)] = value;
  }
  [[nodiscard]] double at(const std::string& key) const {
    const auto it = counters.find(key);
    return it == counters.end() ? 0.0 : it->second;
  }
};

/// Runs the measured closed loop for one algorithm and reports through the
/// service's MetricsSink.  Returns false (with a message) on any client
/// failure.
bool run_algo_load(const LoadPlan& plan, const std::string& algo,
                   RecordingSink& sink, std::string& error) {
  service::PartitionService svc(service_config(plan));
  std::vector<service::RequestSpec> specs;
  specs.reserve(static_cast<std::size_t>(plan.keys));
  for (std::int32_t k = 0; k < plan.keys; ++k) {
    specs.push_back(key_spec(plan, algo, k));
  }
  // Warm phase: every key computed once, then the stats epoch restarts so
  // percentiles and partitions/sec describe the warm steady state only.
  for (const service::RequestSpec& spec : specs) (void)svc.call(spec);
  svc.reset_stats();

  std::vector<ClientTally> tallies(
      static_cast<std::size_t>(plan.clients));
  {
    std::vector<std::thread> clients;
    clients.reserve(tallies.size());
    for (std::int32_t c = 0; c < plan.clients; ++c) {
      clients.emplace_back([&, c] {
        client_loop(svc, specs, c, plan.requests,
                    tallies[static_cast<std::size_t>(c)]);
      });
    }
    for (std::thread& t : clients) t.join();
  }
  svc.report(sink);

  std::int64_t ok = 0;
  for (const ClientTally& tally : tallies) {
    ok += tally.ok;
    if (!tally.first_error.empty() && error.empty()) {
      error = algo + ": client request failed: " + tally.first_error;
    }
  }
  const std::int64_t expected =
      static_cast<std::int64_t>(plan.clients) * plan.requests;
  if (error.empty() && ok != expected) {
    error = algo + ": served " + std::to_string(ok) + " of " +
            std::to_string(expected) + " requests";
  }
  return error.empty();
}

// ---------------------------------------------------------------------------
// --smoke self-checks

bool smoke_fail(const std::string& what) {
  std::cerr << "serve_load: SMOKE FAILED: " << what << "\n";
  return false;
}

/// Hit / miss / fresh-bypass byte-identity for one algorithm.
bool smoke_identity(const LoadPlan& plan, const std::string& algo) {
  service::ServiceConfig cfg = service_config(plan);
  cfg.workers = 1;
  service::PartitionService svc(cfg);

  service::PartitionRequest miss, hit, fresh;
  miss.spec = hit.spec = fresh.spec = key_spec(plan, algo, 0);
  fresh.bypass_cache = true;

  svc.submit(miss);
  if (miss.wait() != service::ServiceStatus::kOk) {
    return smoke_fail(algo + ": miss failed: " + miss.error_message());
  }
  svc.submit(hit);
  if (hit.wait() != service::ServiceStatus::kOk) {
    return smoke_fail(algo + ": hit failed: " + hit.error_message());
  }
  svc.submit(fresh);
  if (fresh.wait() != service::ServiceStatus::kOk) {
    return smoke_fail(algo + ": bypass failed: " + fresh.error_message());
  }

  if (!hit.served_from_cache() || fresh.served_from_cache()) {
    return smoke_fail(algo + ": hit/bypass cache attribution wrong");
  }
  if (hit.result().get() != miss.result().get()) {
    return smoke_fail(algo + ": hit did not share the cached result");
  }
  if (!(*fresh.result() == *miss.result())) {
    return smoke_fail(algo +
                      ": cache-bypassing recompute diverged from the "
                      "cached result (determinism contract broken)");
  }
  return true;
}

/// Warm serving must be allocation-free: on the caller thread, which
/// answers every hit, and on the worker, which no hit reaches.
bool smoke_zero_alloc(const LoadPlan& plan) {
  service::ServiceConfig cfg = service_config(plan);
  cfg.workers = 1;
  service::PartitionService svc(cfg);
  service::PartitionRequest req;
  req.spec = key_spec(plan, plan.algos.front(), 0);

  constexpr int kWarm = 8;
  constexpr int kMeasured = 64;
  for (int i = 0; i < kWarm; ++i) {
    svc.submit(req);
    if (req.wait() != service::ServiceStatus::kOk) {
      return smoke_fail("zero-alloc warm-up request failed");
    }
  }
  const service::ServiceStats before = svc.snapshot();
  const stats::AllocStats caller_before = stats::alloc_stats();
  for (int i = 0; i < kMeasured; ++i) {
    svc.submit(req);
    if (req.wait() != service::ServiceStatus::kOk) {
      return smoke_fail("zero-alloc measured request failed");
    }
  }
  const stats::AllocStats caller =
      stats::alloc_stats() - caller_before;
  const service::ServiceStats after = svc.snapshot();

  if (after.cache_hits - before.cache_hits != kMeasured) {
    return smoke_fail("warm phase was not all cache hits");
  }
  if (!stats::alloc_probe_linked()) {
    std::cout << "serve_load smoke: alloc probe not linked; zero-alloc "
                 "check skipped\n";
    return true;
  }
  if (caller.count != 0) {
    return smoke_fail("caller-side warm serving allocated " +
                      std::to_string(caller.count) + " times");
  }
  if (after.alloc_count - before.alloc_count != 0) {
    return smoke_fail(
        "a worker allocated " +
        std::to_string(after.alloc_count - before.alloc_count) +
        " times during warm hits, which never reach a worker");
  }
  return true;
}

int run_smoke(LoadPlan plan) {
  plan.workers = plan.workers > 0 ? plan.workers : 2;
  plan.clients = std::min(plan.clients, 2);
  plan.requests = std::min(plan.requests, 50);
  plan.keys = std::min(plan.keys, 4);
  plan.logn = std::min(plan.logn, 8);

  for (const std::string& algo : plan.algos) {
    if (!smoke_identity(plan, algo)) return 1;
  }
  if (!smoke_zero_alloc(plan)) return 1;
  for (const std::string& algo : plan.algos) {
    RecordingSink sink;
    std::string error;
    if (!run_algo_load(plan, algo, sink, error)) return smoke_fail(error), 1;
    const double served = sink.at("service.served_ok");
    const double expected =
        static_cast<double>(plan.clients) * plan.requests;
    if (served != expected) {
      return smoke_fail(algo + ": served_ok=" + std::to_string(served)),
             1;
    }
    if (sink.at("service.p99_ms") < sink.at("service.p50_ms")) {
      return smoke_fail(algo + ": p99 < p50"), 1;
    }
    if (sink.at("service.partitions_per_sec") <= 0.0) {
      return smoke_fail(algo + ": partitions_per_sec not positive"), 1;
    }
  }
  std::cout << "serve_load smoke OK: " << plan.algos.size()
            << " algorithm(s), hit==miss==fresh byte-identical, warm "
               "serving allocation-free, "
            << plan.clients << "x" << plan.requests
            << " closed-loop requests served\n";
  return 0;
}

}  // namespace

int run_serve_load(int argc, char** argv) {
  const Cli cli(argc, argv);
  LoadPlan plan;
  plan.workers = static_cast<std::int32_t>(cli.get_int("workers", 0));
  plan.clients =
      std::max<std::int32_t>(1, static_cast<std::int32_t>(
                                    cli.get_int("clients", 4)));
  plan.requests =
      std::max<std::int32_t>(1, static_cast<std::int32_t>(
                                    cli.get_int("requests", 200)));
  plan.keys = std::max<std::int32_t>(
      1, static_cast<std::int32_t>(cli.get_int("keys", 8)));
  plan.logn = static_cast<std::int32_t>(cli.get_int("logn", 12));
  if (plan.logn < 1 || plan.logn > 24) {
    throw CliError("--logn: expected a value in [1, 24]");
  }
  plan.queue = static_cast<std::int32_t>(cli.get_int("queue", 0));
  plan.cache = cli.get_int("cache", 1) != 0;
  plan.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  plan.alpha = cli.get_double("alpha", 0.25);
  plan.beta = cli.get_double("beta", 1.0);
  plan.algos = cli.get_list("algos");
  if (plan.algos.empty()) plan.algos = {"ba", "ba_hf", "hf"};
  for (const std::string& algo : plan.algos) {
    if (!core::PartitionerRegistry::instance().contains(algo)) {
      throw CliError("--algos: unknown partitioner '" + algo + "'");
    }
  }
  const std::string out_path =
      cli.get_string("out", "BENCH_serve_load.json");

  if (cli.flag("smoke")) return run_smoke(std::move(plan));

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "serve_load: cannot open " << out_path << " for writing\n";
    return 1;
  }

  // Resolve the worker count up front so the JSON records the real value
  // (0 means hardware_concurrency inside the service).
  const std::int32_t resolved_workers = [&] {
    if (plan.workers > 0) return plan.workers;
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<std::int32_t>(hw > 0 ? hw : 1u);
  }();

  stats::JsonWriter json(out);
  json.begin_object();
  json.member("benchmark", "serve_load");
  json.member("log2_n", plan.logn);
  json.member("workers", resolved_workers);
  json.member("clients", plan.clients);
  json.member("requests_per_client", plan.requests);
  json.member("keys", plan.keys);
  json.member("queue_capacity", service_config(plan).queue_capacity);
  json.member("cache_enabled", plan.cache);
  json.member("seed", static_cast<std::int64_t>(plan.seed));
  json.member("alpha", plan.alpha);
  json.member("beta", plan.beta);
  json.member("hardware_concurrency",
              static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  json.member("alloc_probe", stats::alloc_probe_linked());
  json.key("experiments");
  json.begin_array();

  for (const std::string& algo : plan.algos) {
    RecordingSink sink;
    std::string error;
    if (!run_algo_load(plan, algo, sink, error)) {
      std::cerr << "serve_load: " << error << "\n";
      return 1;
    }
    const double served = sink.at("service.served_ok");
    json.begin_object();
    json.member("name", algo);
    json.key("cells");
    json.begin_array();
    json.begin_object(/*inline_mode=*/true);
    json.member("algo", algo);
    json.member("log2_n", plan.logn);
    json.member("threads", resolved_workers);
    json.member("p50_ms", sink.at("service.p50_ms"));
    json.member("p95_ms", sink.at("service.p95_ms"));
    json.member("p99_ms", sink.at("service.p99_ms"));
    json.member("partitions_per_sec",
                sink.at("service.partitions_per_sec"));
    json.member("served_ok", served);
    json.member("cache_hit_rate",
                served > 0.0 ? sink.at("service.cache_hits") / served : 0.0);
    json.member("coalesced", sink.at("service.coalesced"));
    json.member("rejected", sink.at("service.rejected"));
    json.member("cache_entries", sink.at("service.cache_entries"));
    json.member("alloc_count", sink.at("service.alloc_count"));
    json.member("alloc_bytes", sink.at("service.alloc_bytes"));
    json.end_object();
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  json.finish();

  std::cout << "serve_load report written to " << out_path << " ("
            << plan.algos.size() << " algorithm(s), N=2^" << plan.logn
            << ", workers=" << resolved_workers << ", clients="
            << plan.clients << ", hardware_concurrency="
            << std::thread::hardware_concurrency() << ")\n";
  return 0;
}

}  // namespace lbb::bench
