// The three measured phases (one per workload) and the traced layer probes.
//
// Each phase is set up by its constructor (timed as setup_s) and measured
// in slices: measure() runs one slice and appends its samples, reset()
// drops them.  main() interleaves the phases' slices, so a stretch of
// contention on the machine spreads over every phase's samples instead of
// deciding one phase's median.  Every output is checked against a
// reference outside the timed calls.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "core/ba_hf.hpp"
#include "core/partition.hpp"
#include "core/workspace.hpp"
#include "experiments/tail_study.hpp"
#include "problems/alpha_dist.hpp"
#include "problems/synthetic.hpp"
#include "service/partition_service.hpp"

namespace perfbench {

/// The trials instance family: alpha-hat ~ U[0.01, 0.5].
[[nodiscard]] lbb::problems::AlphaDistribution trials_distribution();

/// The par_call instance (the par_speedup one): alpha-hat ~ U[0.1, 0.5],
/// BA-HF at alpha 0.25, beta 1.
[[nodiscard]] lbb::problems::SyntheticProblem par_call_problem(
    std::uint64_t seed);
inline constexpr lbb::core::BaHfParams kParCallBaHf{0.25, 1.0};

/// `trials`: the paper's Monte-Carlo evaluation through the experiment
/// engine (experiments::run_tail_study, batched lanes, 4 threads).
class TrialsPhase {
 public:
  explicit TrialsPhase(const Options& opt);

  void reset();
  void measure(double seconds, SpanLog* spans, Report& report);
  /// Batched 4-thread statistics must equal a scalar 1-thread run.
  void verify(Report& report) const;
  void report(Report& report) const;
  /// Nanoseconds per HF bisection (for the tracing overhead).
  [[nodiscard]] double headline() const;

 private:
  Options opt_;
  lbb::experiments::TailStudyConfig config_;
  std::vector<std::vector<double>> rates_;  ///< per algo, one per repetition
  std::uint64_t digest_ = 0;
};

/// `par_call`: one application repartitioning a 2^20-processor domain with
/// the work-stealing par:* partitioners on a 4-thread pool.
class ParCallPhase {
 public:
  explicit ParCallPhase(const Options& opt);
  ~ParCallPhase();
  ParCallPhase(const ParCallPhase&) = delete;
  ParCallPhase& operator=(const ParCallPhase&) = delete;

  void reset();
  void measure(double seconds, SpanLog* spans, Report& report);
  void report(Report& report) const;
  /// Median par_ba call in milliseconds (for the tracing overhead).
  [[nodiscard]] double headline() const;

 private:
  using Partition = lbb::core::Partition<lbb::problems::SyntheticProblem>;
  void check(const Partition& got, const Partition& want, const char* what,
             Report& report) const;

  Options opt_;
  std::int32_t n_ = 0;
  lbb::problems::SyntheticProblem problem_;
  Partition ref_ba_;
  Partition ref_ba_hf_;
  lbb::core::TrialWorkspace<lbb::problems::SyntheticProblem> ws_;
  std::vector<double> ba_ms_;
  std::vector<double> ba_hf_ms_;
};

/// `serve`: open-loop Poisson arrivals of Zipf-distributed keys into a
/// 2-worker PartitionService, then a short closed loop for capacity.
class ServePhase {
 public:
  explicit ServePhase(const Options& opt);

  void reset();
  void measure(double seconds, SpanLog* spans, Report& report);
  /// Recomputes every key served with bypass_cache and compares.
  void verify(Report& report);
  void report(Report& report) const;
  /// Median open-loop latency in milliseconds (for the tracing overhead).
  [[nodiscard]] double headline() const;
  /// Per-layer service metrics derived from the spans of the traced
  /// slices (plus the service's own counters).
  void report_layer(const SpanLog& spans, Report& report) const;

 private:
  struct Key {
    const char* algo;
    std::int32_t n;
    std::uint64_t problem_seed;
  };
  /// Latency percentiles of one window of consecutive open-loop requests,
  /// and how much the machine disturbed the load generator meanwhile.
  struct Window {
    double p50 = 0.0;
    double p99 = 0.0;
    double disturbed_ms = 0.0;
  };
  /// Service counters summed over the open-loop slices.
  struct OpenCounters {
    std::int64_t coalesced = 0;
    std::int64_t evictions = 0;
    std::int64_t rejected = 0;
    std::int64_t misses = 0;
    std::int64_t miss_allocs = 0;
  };

  [[nodiscard]] lbb::service::RequestSpec spec(std::int32_t key) const;
  /// Compares `got` with the first result served for `key` (recording it
  /// when it is the first); returns what differs.  Thread-safe.
  [[nodiscard]] std::optional<std::string> check_result(
      std::int32_t key,
      const std::shared_ptr<const lbb::service::PartitionResult>& got);
  void run_open_loop(double seconds, SpanLog* spans, Report& report);
  void run_closed_loop(double seconds, Report& report);
  /// The open-loop p50 and p99: medians over the half of the windows in
  /// which the load generator was disturbed least.  On a shared machine
  /// the host takes CPUs away for milliseconds at a time; a window hit by
  /// that measures the host, and the generator's CPU -- which spins, so
  /// it sees every such gap -- tells which windows were hit.
  [[nodiscard]] std::pair<double, double> open_loop_percentiles() const;

  Options opt_;
  std::vector<Key> keys_;
  std::vector<double> zipf_cdf_;   ///< by popularity rank
  std::vector<std::int32_t> rank_to_key_;
  std::unique_ptr<lbb::service::PartitionService> service_;
  std::mutex first_mu_;
  std::vector<std::shared_ptr<const lbb::service::PartitionResult>> first_;

  std::int64_t slices_ = 0;  ///< selects each slice's arrival stream
  std::vector<double> latency_ms_;  ///< open loop; refused = +inf
  std::vector<double> late_ms_;     ///< the generator's own lateness
  std::vector<double> behind_ms_;   ///< submit time - intended send time
  std::vector<Window> windows_;
  OpenCounters counters_;
  std::vector<double> capacity_per_s_;  ///< one per closed-loop window
  std::int64_t capacity_samples_ = 0;
};

/// Traced per-layer probes of `core`, `experiments` and `runtime` (the
/// `service` layer is measured by ServePhase::report_layer).  Each probe
/// times calls into a module's public functions from outside.
void probe_core(const Options& opt, SpanLog& spans, Report& report);
void probe_experiments(const Options& opt, SpanLog& spans, Report& report);
void probe_runtime(const Options& opt, SpanLog& spans, Report& report);

}  // namespace perfbench
