// Shared pieces of the repository benchmark: options, clocks, the span log
// of the traced run, the report every phase writes into, and small sample
// statistics.  See ../README.md for what is measured and why.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] inline std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// The three workloads.  Every run measures all three phases (the report
/// must carry every end-to-end metric); the named workload's phase gets
/// most of the measured time, the other two a fixed smaller share.
enum class Workload { kTrials, kParCall, kServe };

/// Output a --corrupt run deliberately damages before the checker sees it
/// (the benchmark's own tests use this to prove the checkers fire).
enum class Corrupt { kNone, kTrial, kPiece, kServed };

struct Options {
  Workload workload = Workload::kTrials;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;  ///< tiny sizes for the benchmark's own tests
  Corrupt corrupt = Corrupt::kNone;
  std::string trace_out;  ///< span dump path ("" = do not write)

  /// Measured seconds of a phase: the named workload's phase gets
  /// kPrimaryShare of --seconds, the others kSecondaryShare each.
  static constexpr double kPrimaryShare = 0.5;
  static constexpr double kSecondaryShare = 0.25;
  [[nodiscard]] double phase_seconds(Workload phase) const {
    return seconds * (phase == workload ? kPrimaryShare : kSecondaryShare);
  }
};

// ---------------------------------------------------------------------------
// Spans (traced run only)

/// One timed call into a layer.  `name` is "<layer>.<function>" and must be
/// a string literal.  Spans of one service request share `request`.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t id = 0;
  std::int64_t parent = 0;   ///< 0 = root
  std::int64_t request = 0;  ///< 0 = not part of a request
  std::int64_t tag = 0;      ///< call parameter (log2 N, threads, ...)
  std::int64_t work = 0;     ///< work the call did (bisections, ...)
  [[nodiscard]] double ms() const { return (end_ns - start_ns) / 1e6; }
};

/// In-memory span store; written out once, after measuring.  Recording
/// takes a mutex: spans sit at call boundaries, never in inner loops.
class SpanLog {
 public:
  SpanLog() { spans_.reserve(1 << 16); }

  [[nodiscard]] std::int64_t next_id() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++last_id_;
  }
  void record(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }
  /// Copies of the spans named `name` (and tagged `tag`, when >= 0).
  [[nodiscard]] std::vector<Span> find(const std::string& name,
                                       std::int64_t tag = -1) const;
  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }
  /// Writes every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::int64_t last_id_ = 0;
  std::vector<Span> spans_;
};

/// Records the enclosing scope as a span whose parent is the innermost
/// open span of this thread.  A null log makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::int64_t tag = 0,
             std::int64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_work(std::int64_t work) { span_.work = work; }

 private:
  SpanLog* log_;
  Span span_;
};

// ---------------------------------------------------------------------------
// Report

struct Metric {
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 0;
};

/// Everything a run prints: metrics, operation counts, correctness
/// findings and result digests.  Single-threaded (phases report after
/// their worker threads have joined).
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::int64_t samples) {
    metrics_[name] = Metric{value, unit, samples};
  }
  /// Counts `n` operations, `bad` of which failed, were refused or wrong.
  void ops(std::int64_t n, std::int64_t bad) {
    attempted_ += n;
    failed_ += bad;
  }
  /// A wrong output: counted as a failed operation and makes the run
  /// exit nonzero.
  void mismatch(const std::string& what);
  void digest(const std::string& name, std::uint64_t value) {
    digests_[name] = value;
  }
  void note(const std::string& key, const std::string& value) {
    notes_[key] = value;
  }

  [[nodiscard]] bool correct() const { return mismatches_.empty(); }
  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] std::int64_t failed() const { return failed_; }

  /// Prints the human-readable table, the detail line and, last, the
  /// one-line result object.  `names` selects (and orders) the metrics of
  /// the result line; a name without a measurement is a bug and throws.
  void print(const Options& opt, const std::vector<std::string>& names) const;

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::uint64_t> digests_;
  std::map<std::string, std::string> notes_;
  std::vector<std::string> mismatches_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Sample statistics and digests

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 if empty.
[[nodiscard]] double quantile(std::vector<double> sample, double q);
[[nodiscard]] inline double median(std::vector<double> sample) {
  return quantile(std::move(sample), 0.5);
}

/// Order-sensitive 64-bit digest accumulator.
class Digest {
 public:
  void add(std::uint64_t x);
  void add(double x);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x6a09e667f3bcc909ULL;
};

/// Peak resident set size of the process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
