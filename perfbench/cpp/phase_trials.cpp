#include <cstring>
#include <string>

#include "phases.hpp"

namespace perfbench {
namespace {

using lbb::experiments::TailStudyCell;
using lbb::experiments::TailStudyConfig;
using lbb::experiments::TailStudyResult;

const std::vector<std::string> kAlgos = {"hf", "ba", "ba_hf"};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Every reported statistic of two cells, compared exactly.
bool same_cell(const TailStudyCell& a, const TailStudyCell& b) {
  if (a.algo != b.algo || a.log2_n != b.log2_n || a.trials != b.trials ||
      a.bisections != b.bisections || a.ratio.count() != b.ratio.count() ||
      !same_bits(a.ratio.mean(), b.ratio.mean()) ||
      !same_bits(a.ratio.variance(), b.ratio.variance()) ||
      !same_bits(a.ratio.min(), b.ratio.min()) ||
      !same_bits(a.ratio.max(), b.ratio.max()) ||
      a.tail.count() != b.tail.count() || a.tail.bins() != b.tail.bins()) {
    return false;
  }
  for (std::int32_t i = 0; i < a.tail.bins(); ++i) {
    if (a.tail.bin_count(i) != b.tail.bin_count(i)) return false;
  }
  return true;
}

}  // namespace

lbb::problems::AlphaDistribution trials_distribution() {
  return lbb::problems::AlphaDistribution::uniform(0.01, 0.5);
}

TrialsPhase::TrialsPhase(const Options& opt) : opt_(opt) {
  config_.dist = trials_distribution();
  config_.log2_n = {10, 14};
  config_.algos = kAlgos;
  config_.seed = opt.seed;
  config_.threads = 4;
  config_.batch = 8;
  // A fixed per-cell budget keeps the chunk count, and with it the
  // engine's load balance, identical across runs.
  config_.bisection_budget = std::int64_t{1} << (opt.smoke ? 16 : 23);
  // Warm-up: thread start-up, code and allocator pages, interned
  // distributions.
  TailStudyConfig warm = config_;
  warm.bisection_budget = std::int64_t{1} << (opt.smoke ? 14 : 20);
  (void)lbb::experiments::run_tail_study(warm);
  reset();
}

void TrialsPhase::reset() { rates_.assign(kAlgos.size(), {}); }

void TrialsPhase::measure(double seconds, SpanLog* spans, Report& report) {
  const Clock::time_point start = Clock::now();
  do {
    const bool first = rates_[0].empty();
    TailStudyResult result;
    {
      ScopedSpan span(spans, "experiments.run_tail_study", 4);
      result = lbb::experiments::run_tail_study(config_);
      std::int64_t work = 0;
      for (const TailStudyCell& cell : result.cells) work += cell.bisections;
      span.set_work(work);
    }
    Digest digest;
    for (std::size_t a = 0; a < kAlgos.size(); ++a) {
      std::int64_t bisections = 0;
      double wall = 0.0;
      for (const TailStudyCell& cell : result.cells) {
        if (cell.algo != kAlgos[a]) continue;
        bisections += cell.bisections;
        wall += cell.wall_seconds;
      }
      rates_[a].push_back(static_cast<double>(bisections) / wall);
    }
    for (const TailStudyCell& cell : result.cells) {
      // The paper's bound is unconditional: any trial above it is wrong.
      report.ops(1, 0);
      if (cell.upper_bound > 0.0 && cell.tail.max() > cell.upper_bound) {
        report.mismatch("trials: " + cell.algo + " 2^" +
                        std::to_string(cell.log2_n) + " max ratio " +
                        std::to_string(cell.tail.max()) + " above bound " +
                        std::to_string(cell.upper_bound));
      }
      digest.add(static_cast<std::uint64_t>(cell.trials));
      digest.add(static_cast<std::uint64_t>(cell.bisections));
      digest.add(cell.ratio.mean());
      digest.add(cell.tail.max());
      digest.add(cell.tail.quantile(0.99));
    }
    if (first) digest_ = digest.value();
  } while (seconds_between(start, Clock::now()) < seconds);
}

void TrialsPhase::verify(Report& report) const {
  TailStudyConfig small = config_;
  small.bisection_budget = std::int64_t{1} << (opt_.smoke ? 13 : 18);
  TailStudyResult batched = lbb::experiments::run_tail_study(small);
  small.threads = 1;
  small.batch = 1;
  const TailStudyResult scalar = lbb::experiments::run_tail_study(small);
  if (opt_.corrupt == Corrupt::kTrial) batched.cells[0].ratio.add(1.0);
  report.ops(static_cast<std::int64_t>(scalar.cells.size()), 0);
  if (batched.cells.size() != scalar.cells.size()) {
    report.mismatch("trials: batched and scalar cell counts differ");
    return;
  }
  for (std::size_t i = 0; i < scalar.cells.size(); ++i) {
    if (!same_cell(batched.cells[i], scalar.cells[i])) {
      report.mismatch("trials: batched 4-thread " + scalar.cells[i].algo +
                      " 2^" + std::to_string(scalar.cells[i].log2_n) +
                      " differs from the scalar 1-thread run");
    }
  }
}

void TrialsPhase::report(Report& report) const {
  for (std::size_t a = 0; a < kAlgos.size(); ++a) {
    report.metric(kAlgos[a] + "_bisections_per_s", median(rates_[a]), "1/s",
                  static_cast<std::int64_t>(rates_[a].size()));
  }
  report.digest("trials", digest_);
}

double TrialsPhase::headline() const { return 1e9 / median(rates_[0]); }

}  // namespace perfbench
