#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "phases.hpp"
#include "stats/rng.hpp"

namespace perfbench {
namespace {

using lbb::service::PartitionRequest;
using lbb::service::PartitionResult;
using lbb::service::PartitionService;
using lbb::service::ServiceStatus;

constexpr std::int32_t kWorkers = 2;
constexpr std::int32_t kClosedLoopClients = 2;
/// Offered open-loop rate.  A fixed constant, far below the 2-worker miss
/// capacity, so the queue stays short and the latencies are the service's.
constexpr double kRatePerSecond = 3000.0;
/// Requests at the start of each open-loop slice that are served and
/// checked but not timed: the workers were idle during the other phases.
constexpr std::size_t kWarmupRequests = 500;
/// Zipf exponent of key popularity.
constexpr double kZipfExponent = 1.0;
/// Request blocks in flight between the sender and the receiver thread.
constexpr std::size_t kRing = 2048;
/// Share of the phase spent in the open loop (the rest is the closed loop).
constexpr double kOpenLoopShare = 0.75;
/// Open-loop latency percentiles are taken per window of this many
/// consecutive requests (p99 then has 10 samples beyond it).
constexpr std::size_t kWindowRequests = 1000;
/// A run whose generator ran later than this at p99 is flagged.
constexpr double kGeneratorLateLimitMs = 1.0;
/// A gap this long between two clock reads of the spinning generator means
/// its CPU was taken away (one spin iteration takes well under 1 us).
constexpr std::int64_t kStallGapNs = 20'000;
/// Closed-loop capacity is counted per window of this length; the median
/// window is reported.
constexpr double kCapacityWindowSeconds = 0.25;
/// Requests each closed-loop client keeps in flight: enough that the
/// workers always find queued work, so capacity measures serving rather
/// than how fast a sleeping worker wakes up.
constexpr std::size_t kInFlightPerClient = 8;

const char* const kAlgos[] = {"ba", "ba_hf", "hf"};

std::int32_t cache_capacity(const Options& opt) {
  return opt.smoke ? 32 : 256;
}

/// Seeds per (algo, N) class: the key universe is 6x the cache capacity.
std::int32_t seeds_per_class(const Options& opt) {
  return cache_capacity(opt);
}

std::optional<std::string> compare(const PartitionResult& got,
                                   const PartitionResult& want) {
  if (got == want) return std::nullopt;
  return std::string("served result differs from the first result for its "
                     "key");
}

/// The load generator gets a CPU of its own, the service workers and the
/// receiver share the rest: a worker woken onto the generator's CPU would
/// otherwise preempt it for a whole miss and make the generator late.
/// Without at least two CPUs nothing is pinned.
struct CpuSplit {
  bool valid = false;
  cpu_set_t generator{};
  cpu_set_t rest{};
};

CpuSplit split_cpus() {
  CpuSplit split;
  cpu_set_t all;
  CPU_ZERO(&all);
  if (sched_getaffinity(0, sizeof all, &all) != 0 || CPU_COUNT(&all) < 2) {
    return split;
  }
  int last = 0;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &all)) last = c;
  }
  CPU_ZERO(&split.generator);
  CPU_SET(last, &split.generator);
  split.rest = all;
  CPU_CLR(last, &split.rest);
  split.valid = true;
  return split;
}

void pin_current_thread(const CpuSplit& split, const cpu_set_t& set) {
  if (split.valid) pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/// Holds the service's CPUs out of the idle state while it lives: one
/// SCHED_IDLE thread per CPU spins, and any woken worker or receiver
/// preempts it at once.  On a virtual machine an idle CPU halts, and waking
/// a thread onto a halted CPU waits for the host to resume it; that wait
/// (tens of us, varying with the host's load from run to run) would
/// otherwise be most of a cache hit's latency.  This is what disabling deep
/// idle states does for a latency benchmark on bare metal.  A thread that
/// cannot lower its policy to SCHED_IDLE exits instead of competing.
class KeepCpusAwake {
 public:
  explicit KeepCpusAwake(const CpuSplit& split) {
    if (!split.valid) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (!CPU_ISSET(c, &split.rest)) continue;
      threads_.emplace_back([this, c] {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(c, &one);
        const sched_param idle{};
        if (pthread_setaffinity_np(pthread_self(), sizeof one, &one) != 0 ||
            pthread_setschedparam(pthread_self(), SCHED_IDLE, &idle) != 0) {
          return;
        }
        // No pause instruction: a pause loop makes the hypervisor
        // deschedule the spinning CPU, which is what this avoids.
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
  }
  KeepCpusAwake(const KeepCpusAwake&) = delete;
  KeepCpusAwake& operator=(const KeepCpusAwake&) = delete;
  ~KeepCpusAwake() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) t.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

std::int32_t draw_rank(const std::vector<double>& cdf,
                       lbb::stats::Xoshiro256& rng) {
  const double u = rng.next_double();
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  return static_cast<std::int32_t>(
      std::min<std::ptrdiff_t>(it - cdf.begin(),
                               static_cast<std::ptrdiff_t>(cdf.size()) - 1));
}

}  // namespace

ServePhase::ServePhase(const Options& opt) : opt_(opt) {
  const std::int32_t per_class = seeds_per_class(opt);
  const std::int32_t universe = 6 * per_class;
  keys_.reserve(static_cast<std::size_t>(universe));
  for (std::int32_t k = 0; k < universe; ++k) {
    keys_.push_back(
        Key{kAlgos[k % 3], (k / 3) % 2 == 0 ? 1 << 10 : 1 << 12,
            lbb::stats::mix64(opt.seed, static_cast<std::uint64_t>(k))});
  }
  double total = 0.0;
  for (std::int32_t r = 1; r <= universe; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r), kZipfExponent);
    zipf_cdf_.push_back(total);
  }
  for (double& c : zipf_cdf_) c /= total;
  rank_to_key_.resize(static_cast<std::size_t>(universe));
  for (std::int32_t k = 0; k < universe; ++k) {
    rank_to_key_[static_cast<std::size_t>(k)] = k;
  }
  lbb::stats::Xoshiro256 rng(lbb::stats::mix64(opt.seed, 0x72616e6b));
  for (std::size_t i = rank_to_key_.size() - 1; i > 0; --i) {
    std::swap(rank_to_key_[i], rank_to_key_[rng.below(i + 1)]);
  }
  first_.assign(static_cast<std::size_t>(universe), nullptr);

  lbb::service::ServiceConfig config;
  config.workers = kWorkers;
  config.cache_capacity = static_cast<std::size_t>(cache_capacity(opt));
  // The workers inherit the creating thread's CPU set.
  const CpuSplit cpus = split_cpus();
  cpu_set_t saved;
  CPU_ZERO(&saved);
  sched_getaffinity(0, sizeof saved, &saved);
  pin_current_thread(cpus, cpus.rest);
  service_ = std::make_unique<PartitionService>(config);
  pin_current_thread(cpus, saved);

  // Warm start: the cache holds the most popular keys before measuring.
  std::vector<PartitionRequest> warm(static_cast<std::size_t>(
      cache_capacity(opt)));
  for (std::size_t r = 0; r < warm.size(); ++r) {
    warm[r].spec = spec(rank_to_key_[r]);
    service_->submit(warm[r]);
  }
  for (std::size_t r = 0; r < warm.size(); ++r) {
    if (warm[r].wait() == ServiceStatus::kOk) {
      first_[static_cast<std::size_t>(rank_to_key_[r])] = warm[r].result();
    }
  }
}

lbb::service::RequestSpec ServePhase::spec(std::int32_t key) const {
  const Key& k = keys_[static_cast<std::size_t>(key)];
  lbb::service::RequestSpec s;
  s.algo = k.algo;
  s.problem_seed = k.problem_seed;
  s.n = k.n;
  s.alpha_lo = 0.1;
  s.alpha_hi = 0.5;
  s.alpha = 0.25;
  s.beta = 1.0;
  return s;
}

std::optional<std::string> ServePhase::check_result(
    std::int32_t key, const std::shared_ptr<const PartitionResult>& got) {
  std::shared_ptr<const PartitionResult> want;
  {
    std::lock_guard<std::mutex> lock(first_mu_);
    auto& slot = first_[static_cast<std::size_t>(key)];
    if (slot == nullptr) {
      slot = got;
      return std::nullopt;
    }
    want = slot;
  }
  if (want == got) return std::nullopt;
  return compare(*got, *want);
}

void ServePhase::reset() {
  slices_ = 0;
  latency_ms_.clear();
  late_ms_.clear();
  behind_ms_.clear();
  windows_.clear();
  counters_ = OpenCounters{};
  capacity_per_s_.clear();
  capacity_samples_ = 0;
}

void ServePhase::measure(double seconds, SpanLog* spans, Report& report) {
  const double open_seconds = seconds * kOpenLoopShare;
  run_open_loop(open_seconds, spans, report);
  run_closed_loop(seconds - open_seconds, report);
  ++slices_;
}

void ServePhase::run_open_loop(double seconds, SpanLog* spans,
                               Report& report) {
  // The schedule is fixed before the clock starts: Poisson arrivals at
  // kRatePerSecond, Zipf keys, one stream per slice.
  const auto count = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(seconds * kRatePerSecond)));
  std::vector<std::int64_t> offset_ns(count);
  std::vector<std::int32_t> key(count);
  {
    lbb::stats::Xoshiro256 rng(
        lbb::stats::mix64(opt_.seed, 0x6f70656e00000000ULL +
                                         static_cast<std::uint64_t>(slices_)));
    double t = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      t += -std::log1p(-rng.next_double()) / kRatePerSecond;
      offset_ns[i] = static_cast<std::int64_t>(t * 1e9);
      key[i] = rank_to_key_[static_cast<std::size_t>(
          draw_rank(zipf_cdf_, rng))];
    }
  }
  std::vector<std::int64_t> submit_start(count, 0);
  std::vector<std::int64_t> submit_end(count, 0);
  std::vector<std::uint8_t> accepted(count, 0);
  std::vector<std::int64_t> stall_ns(count, 0);
  std::vector<double> latency(count, 0.0);
  std::vector<double> late(count, 0.0);
  std::vector<double> behind(count, 0.0);
  std::vector<PartitionRequest> blocks(kRing);
  std::atomic<std::size_t> published{0};
  std::atomic<std::size_t> consumed{0};
  std::int64_t refused = 0;
  std::vector<std::string> errors;
  const std::size_t skip = count > 2 * kWarmupRequests ? kWarmupRequests : 0;

  service_->reset_stats();
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  const std::int64_t t0_ns = to_ns(t0);

  const CpuSplit cpus = split_cpus();
  auto awake = std::make_unique<KeepCpusAwake>(cpus);
  std::thread sender([&] {
    pin_current_thread(cpus, cpus.generator);
    for (std::size_t i = 0; i < count; ++i) {
      for (std::size_t c = consumed.load(); i - c >= kRing;
           c = consumed.load()) {
        consumed.wait(c);
      }
      // Spin rather than sleep: waking a sleeping thread on a virtual CPU
      // can take milliseconds, which would make the generator, not the
      // service, set the tail.
      const Clock::time_point due =
          t0 + std::chrono::nanoseconds(offset_ns[i]);
      std::int64_t stalled = 0;
      for (Clock::time_point prev = Clock::now(), now = prev; now < due;
           prev = now) {
        now = Clock::now();
        const std::int64_t gap = to_ns(now) - to_ns(prev);
        if (gap > kStallGapNs) stalled += gap;
      }
      stall_ns[i] = stalled;
      PartitionRequest& req = blocks[i % kRing];
      req.spec = spec(key[i]);
      submit_start[i] = to_ns(Clock::now());
      accepted[i] = service_->try_submit(req) ? 1 : 0;
      submit_end[i] = to_ns(Clock::now());
      published.store(i + 1);
      published.notify_one();
    }
  });
  std::thread receiver([&] {
    pin_current_thread(cpus, cpus.rest);
    bool corrupt_pending = opt_.corrupt == Corrupt::kServed && slices_ == 0;
    for (std::size_t i = 0; i < count; ++i) {
      for (std::size_t p = published.load(); p <= i; p = published.load()) {
        published.wait(p);
      }
      PartitionRequest& req = blocks[i % kRing];
      const std::int64_t intended = t0_ns + offset_ns[i];
      // Behind schedule = the wait charged to the request, including time
      // the generator spent blocked in the previous try_submit (that is the
      // service's doing).  The generator's own lateness excludes it.
      const std::int64_t free_at =
          i > 0 ? std::max(intended, submit_end[i - 1]) : intended;
      behind[i] = static_cast<double>(submit_start[i] - intended) / 1e6;
      late[i] = static_cast<double>(submit_start[i] - free_at) / 1e6;
      if (accepted[i] == 0 || req.wait() != ServiceStatus::kOk) {
        ++refused;
        latency[i] = std::numeric_limits<double>::infinity();
      } else {
        latency[i] = behind[i] + req.latency_ms();
        std::shared_ptr<const PartitionResult> got = req.result();
        if (corrupt_pending &&
            first_[static_cast<std::size_t>(key[i])] != nullptr) {
          auto bad = std::make_shared<PartitionResult>(*got);
          bad->pieces.front().weight =
              std::nextafter(bad->pieces.front().weight, 2.0);
          got = std::move(bad);
          corrupt_pending = false;
        }
        if (auto err = check_result(key[i], got)) errors.push_back(*err);
      }
      if (spans != nullptr && i >= skip) {
        const auto request = static_cast<std::int64_t>(i + 1) +
                             slices_ * static_cast<std::int64_t>(1 << 24);
        const std::int64_t root = spans->next_id();
        const double total_ms =
            std::isfinite(latency[i]) ? latency[i] : behind[i];
        spans->record(Span{"serve.request", intended,
                           intended + static_cast<std::int64_t>(total_ms * 1e6),
                           root, 0, request, key[i], 1});
        spans->record(Span{"serve.generator_late", free_at, submit_start[i],
                           spans->next_id(), root, request, key[i], 0});
        spans->record(Span{"service.try_submit", submit_start[i],
                           submit_end[i], spans->next_id(), root, request,
                           key[i], 0});
        if (std::isfinite(latency[i])) {
          spans->record(Span{
              req.served_from_cache() ? "service.hit" : "service.miss",
              submit_start[i],
              submit_start[i] +
                  static_cast<std::int64_t>(req.latency_ms() * 1e6),
              spans->next_id(), root, request, key[i], 0});
        }
      }
      consumed.store(i + 1);
      consumed.notify_one();
    }
  });
  sender.join();
  receiver.join();
  awake.reset();

  const lbb::service::ServiceStats stats = service_->snapshot();
  counters_.coalesced += stats.coalesced;
  counters_.evictions += stats.cache_evictions;
  counters_.rejected += stats.rejected;
  counters_.misses += stats.cache_misses;
  counters_.miss_allocs += stats.alloc_count;

  // Windows never straddle slices; a short remainder joins the last one.
  const std::size_t timed = count - skip;
  const std::size_t windows = std::max<std::size_t>(1, timed / kWindowRequests);
  for (std::size_t w = 0; w < windows; ++w) {
    const auto lo = static_cast<std::ptrdiff_t>(skip + w * kWindowRequests);
    const auto hi = w + 1 == windows
                        ? static_cast<std::ptrdiff_t>(count)
                        : lo + static_cast<std::ptrdiff_t>(kWindowRequests);
    const std::vector<double> lat(latency.begin() + lo, latency.begin() + hi);
    double disturbed_ms = 0.0;
    for (auto i = static_cast<std::size_t>(lo);
         i < static_cast<std::size_t>(hi); ++i) {
      disturbed_ms += late[i] + static_cast<double>(stall_ns[i]) / 1e6;
    }
    windows_.push_back(
        Window{quantile(lat, 0.5), quantile(lat, 0.99), disturbed_ms});
  }
  const auto from = static_cast<std::ptrdiff_t>(skip);
  latency_ms_.insert(latency_ms_.end(), latency.begin() + from, latency.end());
  late_ms_.insert(late_ms_.end(), late.begin() + from, late.end());
  behind_ms_.insert(behind_ms_.end(), behind.begin() + from, behind.end());

  report.ops(static_cast<std::int64_t>(count), refused);
  for (const std::string& err : errors) report.mismatch("serve: " + err);

  if (slices_ == 0) {
    // Prefill plus the first slice's schedule: the same keys for a seed.
    Digest digest;
    for (std::size_t k = 0; k < first_.size(); ++k) {
      if (first_[k] == nullptr) continue;
      digest.add(static_cast<std::uint64_t>(k));
      digest.add(first_[k]->ratio);
      for (const auto& piece : first_[k]->pieces) digest.add(piece.weight);
    }
    report.digest("serve", digest.value());
  }
}

void ServePhase::run_closed_loop(double seconds, Report& report) {
  std::vector<std::vector<std::int32_t>> keys(kClosedLoopClients);
  for (std::int32_t c = 0; c < kClosedLoopClients; ++c) {
    lbb::stats::Xoshiro256 rng(lbb::stats::mix64(
        opt_.seed, 0x636c6f7365640000ULL +
                       static_cast<std::uint64_t>(slices_ * 16 + c)));
    for (std::int32_t i = 0; i < (1 << 16); ++i) {
      keys[static_cast<std::size_t>(c)].push_back(rank_to_key_[
          static_cast<std::size_t>(draw_rank(zipf_cdf_, rng))]);
    }
  }
  std::vector<std::vector<std::int64_t>> done_ns(kClosedLoopClients);
  for (auto& d : done_ns) d.reserve(1 << 20);
  std::vector<std::int64_t> bad(kClosedLoopClients, 0);
  std::vector<std::vector<std::string>> errors(kClosedLoopClients);
  const Clock::time_point start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (std::int32_t c = 0; c < kClosedLoopClients; ++c) {
    clients.emplace_back([&, c] {
      const auto& mine = keys[static_cast<std::size_t>(c)];
      std::int64_t& failed = bad[static_cast<std::size_t>(c)];
      std::vector<PartitionRequest> slot(kInFlightPerClient);
      std::vector<std::int32_t> slot_key(kInFlightPerClient, 0);
      std::vector<std::uint8_t> live(kInFlightPerClient, 0);
      std::size_t next = 0;
      const auto submit = [&](std::size_t j) {
        slot_key[j] = mine[next++ % mine.size()];
        slot[j].spec = spec(slot_key[j]);
        live[j] = service_->try_submit(slot[j]) ? 1 : 0;
        if (live[j] == 0) ++failed;
      };
      for (std::size_t j = 0; j < kInFlightPerClient; ++j) submit(j);
      // Each slot waits for its reply and is refilled until the deadline.
      for (std::size_t j = 0, idle = 0; idle < kInFlightPerClient;
           j = (j + 1) % kInFlightPerClient) {
        if (live[j] == 0) {
          ++idle;
          continue;
        }
        idle = 0;
        if (slot[j].wait() != ServiceStatus::kOk) {
          ++failed;
        } else {
          done_ns[static_cast<std::size_t>(c)].push_back(to_ns(Clock::now()));
          if (auto err = check_result(slot_key[j], slot[j].result())) {
            errors[static_cast<std::size_t>(c)].push_back(*err);
          }
        }
        live[j] = 0;
        if (Clock::now() < deadline) submit(j);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  const auto windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(seconds / kCapacityWindowSeconds));
  const double window_s = seconds / static_cast<double>(windows);
  std::vector<double> per_window(windows, 0.0);
  for (std::int32_t c = 0; c < kClosedLoopClients; ++c) {
    const auto& mine = done_ns[static_cast<std::size_t>(c)];
    capacity_samples_ += static_cast<std::int64_t>(mine.size());
    for (const std::int64_t t : mine) {
      const auto w = static_cast<std::size_t>(
          static_cast<double>(t - to_ns(start)) / 1e9 / window_s);
      if (w < windows) per_window[w] += 1.0 / window_s;
    }
    report.ops(static_cast<std::int64_t>(mine.size()) +
                   bad[static_cast<std::size_t>(c)],
               bad[static_cast<std::size_t>(c)]);
    for (const std::string& err : errors[static_cast<std::size_t>(c)]) {
      report.mismatch("serve closed loop: " + err);
    }
  }
  capacity_per_s_.insert(capacity_per_s_.end(), per_window.begin(),
                         per_window.end());
}

void ServePhase::verify(Report& report) {
  std::vector<std::int32_t> seen;
  for (std::size_t k = 0; k < first_.size(); ++k) {
    if (first_[k] != nullptr) seen.push_back(static_cast<std::int32_t>(k));
  }
  constexpr std::size_t kWave = 64;
  std::vector<PartitionRequest> wave(kWave);
  for (std::size_t lo = 0; lo < seen.size(); lo += kWave) {
    const std::size_t hi = std::min(seen.size(), lo + kWave);
    for (std::size_t i = lo; i < hi; ++i) {
      PartitionRequest& req = wave[i - lo];
      req.spec = spec(seen[i]);
      req.bypass_cache = true;
      service_->submit(req);
    }
    for (std::size_t i = lo; i < hi; ++i) {
      PartitionRequest& req = wave[i - lo];
      report.ops(1, 0);
      if (req.wait() != ServiceStatus::kOk) {
        report.mismatch("serve: bypass recompute of key " +
                        std::to_string(seen[i]) + " failed");
        continue;
      }
      if (compare(*req.result(), *first_[static_cast<std::size_t>(seen[i])])) {
        report.mismatch("serve: bypass recompute of key " +
                        std::to_string(seen[i]) +
                        " differs from the served result");
      }
    }
  }
}

std::pair<double, double> ServePhase::open_loop_percentiles() const {
  std::vector<Window> calm = windows_;
  std::sort(calm.begin(), calm.end(), [](const Window& a, const Window& b) {
    return a.disturbed_ms < b.disturbed_ms;
  });
  calm.resize((calm.size() + 1) / 2);
  std::vector<double> p50;
  std::vector<double> p99;
  for (const Window& w : calm) {
    p50.push_back(w.p50);
    p99.push_back(w.p99);
  }
  return {median(p50), median(p99)};
}

void ServePhase::report(Report& report) const {
  const auto count = static_cast<std::int64_t>(latency_ms_.size());
  const auto [p50, p99] = open_loop_percentiles();
  report.metric("serve_p50_ms", p50, "ms", count);
  report.metric("serve_p99_ms", p99, "ms", count);
  report.metric("serve_capacity_per_s", median(capacity_per_s_), "1/s",
                capacity_samples_);
  char buf[128];
  std::snprintf(buf, sizeof buf, "%.4f", quantile(late_ms_, 0.99));
  report.note("serve_generator_late_ms_p99", buf);
  std::snprintf(buf, sizeof buf, "%.4f", quantile(behind_ms_, 0.99));
  report.note("serve_behind_schedule_ms_p99", buf);
  std::snprintf(buf, sizeof buf, "%.4f", quantile(latency_ms_, 0.99));
  report.note("serve_pooled_p99_ms", buf);
  std::vector<double> disturbed;
  for (const Window& w : windows_) disturbed.push_back(w.disturbed_ms);
  std::snprintf(buf, sizeof buf, "%zu windows, disturbed ms p50 %.3f max %.3f",
                windows_.size(), median(disturbed),
                quantile(disturbed, 1.0));
  report.note("serve_windows", buf);
  const double late_p99 = quantile(late_ms_, 0.99);
  if (late_p99 > kGeneratorLateLimitMs) {
    report.note("serve_generator",
                "LATE: open-loop latencies are not trustworthy");
    std::cerr << "perfbench: serve: the generator ran " << late_p99
              << " ms late at p99 (limit " << kGeneratorLateLimitMs
              << " ms); open-loop latencies are not trustworthy\n";
  }
}

double ServePhase::headline() const { return open_loop_percentiles().first; }

void ServePhase::report_layer(const SpanLog& spans, Report& report) const {
  const auto durations = [&](const char* name, double scale) {
    std::vector<double> out;
    for (const Span& s : spans.find(name)) out.push_back(s.ms() * scale);
    return out;
  };
  const std::vector<double> submit_us = durations("service.try_submit", 1e3);
  const std::vector<double> hit = durations("service.hit", 1.0);
  const std::vector<double> miss = durations("service.miss", 1.0);
  const std::vector<double> late = durations("serve.generator_late", 1.0);
  const auto n = [](const std::vector<double>& v) {
    return static_cast<std::int64_t>(v.size());
  };
  report.metric("service.submit_us_p50", quantile(submit_us, 0.5), "us",
                n(submit_us));
  report.metric("service.submit_us_p99", quantile(submit_us, 0.99), "us",
                n(submit_us));
  report.metric("service.hit_ms_p50", quantile(hit, 0.5), "ms", n(hit));
  report.metric("service.hit_ms_p99", quantile(hit, 0.99), "ms", n(hit));
  report.metric("service.miss_ms_p50", quantile(miss, 0.5), "ms", n(miss));
  report.metric("service.miss_ms_p99", quantile(miss, 0.99), "ms", n(miss));
  const std::int64_t served = n(hit) + n(miss);
  report.metric("service.hit_rate",
                served > 0 ? static_cast<double>(n(hit)) /
                                 static_cast<double>(served)
                           : 0.0,
                "fraction", served);
  report.metric("service.coalesced", static_cast<double>(counters_.coalesced),
                "count", served);
  report.metric("service.evictions", static_cast<double>(counters_.evictions),
                "count", served);
  report.metric("service.rejected", static_cast<double>(counters_.rejected),
                "count", served);
  report.metric("service.allocs_per_miss",
                counters_.misses > 0
                    ? static_cast<double>(counters_.miss_allocs) /
                          static_cast<double>(counters_.misses)
                    : 0.0,
                "count", counters_.misses);
  report.metric("service.gen_late_ms_p99", quantile(late, 0.99), "ms",
                n(late));
}

}  // namespace perfbench
