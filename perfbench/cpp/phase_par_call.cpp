#include <cmath>
#include <cstring>
#include <string>

#include "core/ba.hpp"
#include "core/ba_hf.hpp"
#include "phases.hpp"
#include "runtime/par_partition.hpp"
#include "runtime/par_partitioners.hpp"
#include "stats/rng.hpp"

namespace perfbench {
namespace {

constexpr std::int32_t kThreads = 4;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

double ms_since(Clock::time_point start) {
  return seconds_between(start, Clock::now()) * 1e3;
}

}  // namespace

lbb::problems::SyntheticProblem par_call_problem(std::uint64_t seed) {
  return lbb::problems::SyntheticProblem(
      lbb::stats::mix64(seed, 0x70617263616c6cULL),
      lbb::problems::AlphaDistribution::uniform(0.1, 0.5));
}

ParCallPhase::ParCallPhase(const Options& opt)
    : opt_(opt),
      n_(std::int32_t{1} << (opt.smoke ? 14 : 20)),
      problem_(par_call_problem(opt.seed)) {
  // A fresh pool per set-up, so set-up time includes starting it.
  lbb::runtime::shutdown_shared_pools();
  auto& pool = lbb::runtime::shared_pool(kThreads);
  ref_ba_ = lbb::core::ba_partition(ws_, problem_, n_);
  {
    lbb::core::TrialWorkspace<lbb::problems::SyntheticProblem> ws;
    ref_ba_hf_ =
        lbb::core::ba_hf_partition(ws, problem_, n_, kParCallBaHf);
  }
  // Warm-up: sizes the caller's staging, the workers' workspaces and ws_.
  ws_.recycle(lbb::runtime::par_ba_partition(pool, ws_, problem_, n_));
  (void)lbb::runtime::par_ba_hf_partition(pool, problem_, n_, kParCallBaHf);
}

ParCallPhase::~ParCallPhase() { lbb::runtime::shutdown_shared_pools(); }


void ParCallPhase::check(const Partition& got, const Partition& want,
                         const char* what, Report& report) const {
  report.ops(1, 0);
  const auto fail = [&](const std::string& field) {
    report.mismatch(std::string("par_call: ") + what + " " + field +
                    " differs from the sequential partition");
  };
  if (got.pieces.size() != want.pieces.size()) return fail("piece count");
  if (!same_bits(got.total_weight, want.total_weight) ||
      got.bisections != want.bisections || got.max_depth != want.max_depth ||
      got.processors != want.processors) {
    return fail("header");
  }
  for (std::size_t i = 0; i < want.pieces.size(); ++i) {
    const auto& a = got.pieces[i];
    const auto& b = want.pieces[i];
    if (a.processor != b.processor || a.depth != b.depth ||
        a.node != b.node || !same_bits(a.weight, b.weight) ||
        a.problem.node_hash() != b.problem.node_hash() ||
        !same_bits(a.problem.weight(), b.problem.weight())) {
      return fail("piece " + std::to_string(i));
    }
  }
}

void ParCallPhase::reset() {
  ba_ms_.clear();
  ba_hf_ms_.clear();
}

void ParCallPhase::measure(double seconds, SpanLog* spans, Report& report) {
  auto& pool = lbb::runtime::shared_pool(kThreads);
  const Clock::time_point start = Clock::now();
  do {
    {
      Partition got;
      const Clock::time_point t = Clock::now();
      {
        ScopedSpan span(spans, "runtime.par_ba_partition", kThreads);
        got = lbb::runtime::par_ba_partition(pool, ws_, problem_, n_);
        span.set_work(got.bisections);
      }
      ba_ms_.push_back(ms_since(t));
      if (opt_.corrupt == Corrupt::kPiece && ba_ms_.size() == 1) {
        got.pieces[got.pieces.size() / 2].weight =
            std::nextafter(got.pieces[got.pieces.size() / 2].weight, 1.0);
      }
      check(got, ref_ba_, "par_ba", report);
      ws_.recycle(std::move(got));
    }
    {
      Partition got;
      const Clock::time_point t = Clock::now();
      {
        ScopedSpan span(spans, "runtime.par_ba_hf_partition", kThreads);
        got = lbb::runtime::par_ba_hf_partition(pool, problem_, n_,
                                                kParCallBaHf);
        span.set_work(got.bisections);
      }
      ba_hf_ms_.push_back(ms_since(t));
      check(got, ref_ba_hf_, "par_ba_hf", report);
    }
  } while (seconds_between(start, Clock::now()) < seconds);
}

void ParCallPhase::report(Report& report) const {
  const auto count = static_cast<std::int64_t>(ba_ms_.size());
  report.metric("par_ba_call_p50_ms", quantile(ba_ms_, 0.5), "ms", count);
  report.metric("par_ba_call_p90_ms", quantile(ba_ms_, 0.9), "ms", count);
  report.metric("par_ba_hf_call_p50_ms", quantile(ba_hf_ms_, 0.5), "ms",
                count);
  report.metric("par_ba_hf_call_p90_ms", quantile(ba_hf_ms_, 0.9), "ms",
                count);
  Digest digest;
  for (const Partition* part : {&ref_ba_, &ref_ba_hf_}) {
    digest.add(static_cast<std::uint64_t>(part->bisections));
    for (const auto& piece : part->pieces) {
      digest.add(piece.weight);
      digest.add(static_cast<std::uint64_t>(piece.processor));
    }
  }
  report.digest("par_call", digest.value());
}

double ParCallPhase::headline() const { return quantile(ba_ms_, 0.5); }

}  // namespace perfbench
