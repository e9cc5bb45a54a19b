#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/simd/dispatch.hpp"
#include "stats/alloc_stats.hpp"
#include "stats/rng.hpp"

namespace perfbench {
namespace {

thread_local std::int64_t t_open_span = 0;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// CPU brand string from cpuid (no file reads), or "unknown".
std::string cpu_model() {
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000U, nullptr);
  if (max_ext < 0x80000004U) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kTrials:
      return "trials";
    case Workload::kParCall:
      return "par_call";
    case Workload::kServe:
      return "serve";
  }
  return "?";
}

}  // namespace

std::vector<Span> SpanLog::find(const std::string& name,
                                std::int64_t tag) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (name == s.name && (tag < 0 || s.tag == tag)) out.push_back(s);
  }
  return out;
}

void SpanLog::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span dump " + path);
  for (const Span& s : spans_) {
    out << "{\"name\":" << json_string(s.name) << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"tag\":" << s.tag << ",\"work\":" << s.work << "}\n";
  }
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, std::int64_t tag,
                       std::int64_t request)
    : log_(log) {
  if (log_ == nullptr) return;
  span_.name = name;
  span_.id = log_->next_id();
  span_.parent = t_open_span;
  span_.request = request;
  span_.tag = tag;
  t_open_span = span_.id;
  span_.start_ns = to_ns(Clock::now());
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.end_ns = to_ns(Clock::now());
  t_open_span = span_.parent;
  log_->record(span_);
}

void Report::mismatch(const std::string& what) {
  std::cerr << "perfbench: WRONG OUTPUT: " << what << "\n";
  mismatches_.push_back(what);
  ops(0, 1);
}

void Report::print(const Options& opt,
                   const std::vector<std::string>& names) const {
  const std::string profile =
      "{\"cpus\":" + std::to_string(std::thread::hardware_concurrency()) +
      ",\"cpu_model\":" + json_string(cpu_model()) + ",\"isa\":" +
      json_string(lbb::core::simd::isa_name(lbb::core::simd::active_isa())) +
      ",\"lbb_simd\":" + std::to_string(PERFBENCH_LBB_SIMD) +
      ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
      ",\"alloc_probe\":" +
      (lbb::stats::alloc_probe_linked() ? "true" : "false") +
      ",\"seed\":" + std::to_string(opt.seed) + "}";

  std::cout << "perfbench workload=" << workload_name(opt.workload)
            << " seed=" << opt.seed << " seconds=" << opt.seconds
            << " trace=" << (opt.trace ? 1 : 0) << "\n";
  std::cout << "profile " << profile << "\n";
  for (const std::string& name : names) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end()) {
      throw std::logic_error("metric not measured: " + name);
    }
    char line[256];
    std::snprintf(line, sizeof line, "  %-44s %16.6g %-8s samples=%lld",
                  name.c_str(), it->second.value, it->second.unit.c_str(),
                  static_cast<long long>(it->second.samples));
    std::cout << line << "\n";
  }
  std::cout << "verdict " << (correct() ? "correct" : "WRONG")
            << " attempted=" << attempted_ << " failed=" << failed_ << "\n";

  std::string detail = "{\"profile\":" + profile + ",\"digests\":{";
  bool first = true;
  for (const auto& [name, value] : digests_) {
    detail += (first ? "" : ",") + json_string(name) + ":" +
              json_string(hex(value));
    first = false;
  }
  detail += "},\"notes\":{";
  first = true;
  for (const auto& [key, value] : notes_) {
    detail += (first ? "" : ",") + json_string(key) + ":" + json_string(value);
    first = false;
  }
  detail += "},\"samples\":{";
  first = true;
  for (const std::string& name : names) {
    detail += (first ? "" : ",") + json_string(name) + ":" +
              std::to_string(metrics_.at(name).samples);
    first = false;
  }
  detail += "},\"mismatches\":[";
  for (std::size_t i = 0; i < mismatches_.size(); ++i) {
    detail += (i ? "," : "") + json_string(mismatches_[i]);
  }
  std::cout << "detail " << detail << "]}\n";

  std::string result = "{\"correct\": ";
  result += correct() ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(attempted_) +
            ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  first = true;
  for (const std::string& name : names) {
    const Metric& m = metrics_.at(name);
    result += (first ? "" : ", ") + json_string(name) +
              ": {\"value\": " + json_number(m.value) +
              ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  }
  std::cout << result << "}}" << std::endl;
}

double quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const auto n = static_cast<double>(sample.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, sample.size());
  return sample[rank - 1];
}

void Digest::add(std::uint64_t x) { h_ = lbb::stats::mix64(h_, x); }

void Digest::add(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  add(bits);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
