#include <string>

#include "core/ba.hpp"
#include "core/ba_hf.hpp"
#include "core/hf.hpp"
#include "phases.hpp"
#include "problems/alpha_dist.hpp"
#include "runtime/par_partition.hpp"
#include "runtime/par_partitioners.hpp"
#include "sim/cost_model.hpp"
#include "sim/par_ba.hpp"
#include "stats/alloc_stats.hpp"
#include "stats/rng.hpp"

namespace perfbench {
namespace {

using lbb::problems::SyntheticProblem;
using Workspace = lbb::core::TrialWorkspace<SyntheticProblem>;

const char* const kAlgos[] = {"hf", "ba", "ba_hf"};
const char* const kCoreSpan[] = {"core.hf_partition", "core.ba_partition",
                                 "core.ba_hf_partition"};
constexpr std::int32_t kLogN[] = {10, 14};

lbb::core::Partition<SyntheticProblem> run_core(std::size_t algo,
                                                 Workspace& ws,
                                                 SyntheticProblem problem,
                                                 std::int32_t n) {
  switch (algo) {
    case 0:
      return lbb::core::hf_partition(ws, problem, n);
    case 1:
      return lbb::core::ba_partition(ws, problem, n);
    default:
      // The registry's BA-HF for this family: alpha = the distribution's
      // lower bound, beta = 1 (as run_tail_study configures it).
      return lbb::core::ba_hf_partition(
          ws, problem, n,
          lbb::core::BaHfParams{trials_distribution().lower_bound(), 1.0});
  }
}

struct SpanTotals {
  double ms = 0.0;
  std::int64_t work = 0;
  std::int64_t count = 0;
};

SpanTotals totals(const SpanLog& spans, const char* name, std::int64_t tag) {
  SpanTotals t;
  for (const Span& s : spans.find(name, tag)) {
    t.ms += s.ms();
    t.work += s.work;
    ++t.count;
  }
  return t;
}

std::vector<double> span_ms(const SpanLog& spans, const char* name,
                            std::int64_t tag) {
  std::vector<double> out;
  for (const Span& s : spans.find(name, tag)) out.push_back(s.ms());
  return out;
}

/// Tag of an experiments span: algorithm, log2 N, threads, batched.
std::int64_t experiments_tag(std::size_t algo, std::int32_t log2_n,
                             std::int32_t threads, bool batched) {
  return static_cast<std::int64_t>(algo) * 10000 + log2_n * 100 +
         threads * 10 + (batched ? 1 : 0);
}

}  // namespace

void probe_core(const Options& opt, SpanLog& spans, Report& report) {
  // Warm-workspace calls on one thread, a fixed number per cell so the
  // same instances are timed on every run with this seed.
  const std::int32_t calls[] = {opt.smoke ? 20 : 1000, opt.smoke ? 2 : 60};
  Workspace ws;
  std::int64_t allocs = 0;
  std::int64_t measured = 0;
  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t k = 0; k < 2; ++k) {
      const std::int32_t n = std::int32_t{1} << kLogN[k];
      for (std::int32_t i = -2; i < calls[k]; ++i) {  // 2 warm-up calls
        const SyntheticProblem problem(
            lbb::stats::mix64(opt.seed, static_cast<std::uint64_t>(i + 2)),
            trials_distribution());
        if (i < 0) {
          ws.recycle(run_core(a, ws, problem, n));
          continue;
        }
        ScopedSpan span(&spans, kCoreSpan[a], kLogN[k]);
        const lbb::stats::AllocStats before = lbb::stats::alloc_stats();
        auto part = run_core(a, ws, problem, n);
        allocs += (lbb::stats::alloc_stats() - before).count;
        ++measured;
        span.set_work(part.bisections);
        ws.recycle(std::move(part));
      }
      const SpanTotals t = totals(spans, kCoreSpan[a], kLogN[k]);
      report.metric(std::string("core.") + kAlgos[a] + ".ns_per_bisection.n" +
                        std::to_string(kLogN[k]),
                    t.ms * 1e6 / static_cast<double>(t.work), "ns", t.count);
    }
  }
  report.metric("core.warm_allocs_per_call",
                static_cast<double>(allocs) / static_cast<double>(measured),
                "count", measured);
}

void probe_experiments(const Options& opt, SpanLog& spans, Report& report) {
  lbb::experiments::TailStudyConfig base;
  base.dist = trials_distribution();
  base.seed = opt.seed;
  base.bisection_budget = std::int64_t{1} << (opt.smoke ? 14 : 21);
  struct Config {
    std::int32_t threads;
    std::int32_t batch;
  };
  const Config configs[] = {{1, 8}, {4, 8}, {1, 1}};
  for (std::size_t a = 0; a < 3; ++a) {
    for (const std::int32_t k : kLogN) {
      for (const Config& c : configs) {
        lbb::experiments::TailStudyConfig config = base;
        config.algos = {kAlgos[a]};
        config.log2_n = {k};
        config.threads = c.threads;
        config.batch = c.batch;
        ScopedSpan span(&spans, "experiments.run_tail_study",
                        experiments_tag(a, k, c.threads, c.batch > 1));
        const auto result = lbb::experiments::run_tail_study(config);
        span.set_work(result.cells.front().bisections);
      }
    }
    SpanTotals t1, t4, b1;
    double core_ns = 0.0;  // scalar core cost of the same bisections
    for (const std::int32_t k : kLogN) {
      const SpanTotals one =
          totals(spans, "experiments.run_tail_study",
                 experiments_tag(a, k, 1, true));
      const SpanTotals four =
          totals(spans, "experiments.run_tail_study",
                 experiments_tag(a, k, 4, true));
      const SpanTotals scalar =
          totals(spans, "experiments.run_tail_study",
                 experiments_tag(a, k, 1, false));
      const SpanTotals core = totals(spans, kCoreSpan[a], k);
      t1.ms += one.ms;
      t1.work += one.work;
      t1.count += one.count;
      t4.ms += four.ms;
      b1.ms += scalar.ms;
      core_ns += static_cast<double>(one.work) * core.ms * 1e6 /
                 static_cast<double>(core.work);
    }
    const std::string prefix = std::string("experiments.") + kAlgos[a];
    const double t1_ns = t1.ms * 1e6 / static_cast<double>(t1.work);
    report.metric(prefix + ".t1.ns_per_bisection", t1_ns, "ns", t1.count);
    report.metric(prefix + ".t1.self_ns_per_bisection",
                  t1_ns - core_ns / static_cast<double>(t1.work), "ns",
                  t1.count);
    report.metric(prefix + ".scaling_t4", t1.ms / t4.ms, "ratio", t1.count);
    report.metric(prefix + ".batch_speedup", b1.ms / t1.ms, "ratio",
                  t1.count);
  }
}

void probe_runtime(const Options& opt, SpanLog& spans, Report& report) {
  const std::int32_t log2_n = opt.smoke ? 14 : 20;
  const std::int32_t n = std::int32_t{1} << log2_n;
  const int calls = opt.smoke ? 2 : 5;
  const lbb::core::BaHfParams params = kParCallBaHf;
  const auto problem = [&] { return par_call_problem(opt.seed); };
  // Brent's bound on the bisection DAG (pure computation, t_bisect = 1):
  // with W bisections and critical path D, T workers finish within
  // W/T + D steps, so the predicted speedup is W / (W/T + D).
  lbb::sim::CostModel cost;
  cost.t_bisect = 1.0;
  cost.t_send = 0.0;
  cost.collective_latency = 0.0;
  const auto brent = [](const auto& sim) {
    const auto w = static_cast<double>(sim.partition.bisections);
    return w / (w / 4.0 + sim.metrics.makespan);
  };

  for (const bool hybrid : {false, true}) {
    const char* const name = hybrid ? "par_ba_hf" : "par_ba";
    const char* const seq_span =
        hybrid ? "core.ba_hf_partition" : "core.ba_partition";
    const char* const par_span =
        hybrid ? "runtime.par_ba_hf_partition" : "runtime.par_ba_partition";
    Workspace ws;
    for (int i = -1; i < calls; ++i) {  // one warm-up call
      ScopedSpan span(i < 0 ? nullptr : &spans, seq_span, log2_n);
      auto part = hybrid ? lbb::core::ba_hf_partition(ws, problem(), n, params)
                         : lbb::core::ba_partition(ws, problem(), n);
      span.set_work(part.bisections);
      ws.recycle(std::move(part));
    }
    lbb::runtime::ParStats sum;
    std::int64_t caller_allocs = 0;
    for (const std::int32_t threads : {1, 4}) {
      auto& pool = lbb::runtime::shared_pool(threads);
      for (int i = -1; i < calls; ++i) {
        lbb::runtime::ParStats stats;
        const lbb::stats::AllocStats before = lbb::stats::alloc_stats();
        {
          ScopedSpan span(i < 0 ? nullptr : &spans, par_span, threads);
          auto part =
              hybrid ? lbb::runtime::par_ba_hf_partition(pool, problem(), n,
                                                         params, {}, &stats)
                     : lbb::runtime::par_ba_partition(pool, ws, problem(), n,
                                                      {}, &stats);
          span.set_work(part.bisections);
          if (!hybrid) ws.recycle(std::move(part));
        }
        if (threads == 4 && i >= 0) {
          sum.spawns += stats.spawns;
          sum.steals += stats.steals;
          sum.idle_ns += stats.idle_ns;
          sum.alloc_count += stats.alloc_count;
          caller_allocs += (lbb::stats::alloc_stats() - before).count;
        }
      }
    }
    // The 4-thread spans include the traced par_call slice's calls (the
    // same call on the same instance).
    const std::vector<double> seq = span_ms(spans, seq_span, log2_n);
    const std::vector<double> t1 = span_ms(spans, par_span, 1);
    const std::vector<double> t4 = span_ms(spans, par_span, 4);
    const double seq_ms = median(seq);
    const double t1_ms = median(t1);
    const double t4_ms = median(t4);
    const auto samples = [](const std::vector<double>& v) {
      return static_cast<std::int64_t>(v.size());
    };
    const std::string prefix = std::string("runtime.") + name;
    const double per_call = 1.0 / calls;
    report.metric(prefix + ".seq_ms", seq_ms, "ms", samples(seq));
    report.metric(prefix + ".t1_ms", t1_ms, "ms", samples(t1));
    report.metric(prefix + ".t4_ms", t4_ms, "ms", samples(t4));
    report.metric(prefix + ".t1_overhead", t1_ms / seq_ms, "ratio",
                  samples(t1));
    report.metric(prefix + ".speedup_vs_seq", seq_ms / t4_ms, "ratio",
                  samples(t4));
    report.metric(prefix + ".spawns",
                  static_cast<double>(sum.spawns) * per_call, "count", calls);
    report.metric(prefix + ".steals",
                  static_cast<double>(sum.steals) * per_call, "count", calls);
    report.metric(prefix + ".idle_ms",
                  static_cast<double>(sum.idle_ns) / 1e6 * per_call, "ms",
                  calls);
    report.metric(prefix + ".allocs_per_call",
                  static_cast<double>(sum.alloc_count + caller_allocs) *
                      per_call,
                  "count", calls);
    report.metric(prefix + ".brent_predicted_speedup",
                  hybrid ? brent(lbb::sim::ba_hf_simulate(problem(), n,
                                                          params.alpha,
                                                          params.beta, cost))
                         : brent(lbb::sim::ba_simulate(problem(), n, cost)),
                  "ratio", 1);
  }
  lbb::runtime::shutdown_shared_pools();
}

}  // namespace perfbench
