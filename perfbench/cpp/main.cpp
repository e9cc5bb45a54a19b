// lbb_perfbench: the repository benchmark.
//
//   lbb_perfbench --workload trials|par_call|serve --seed N --seconds S
//                 --trace 0|1 [--smoke] [--corrupt trial|piece|served]
//                 [--trace-out FILE]
//
// Every run sets up and measures all three phases, so every run reports
// every end-to-end metric; the named workload's phase gets half of the
// measured time, the other two a quarter each, in interleaved rounds.
// --trace 1 replaces the end-to-end report with the per-layer one: spans
// around each call into core, experiments, runtime and service, plus the
// tracing overhead.
// The last line of standard output is the one-line result object; the
// exit code is 0 only when every output was correct (2 = bad arguments).
#include <cstdlib>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "phases.hpp"

namespace perfbench {
namespace {

class UsageError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Interleaved measuring rounds of an untraced run.
constexpr int kRounds = 4;

const std::vector<std::string> kEndToEnd = {
    "setup_s",
    "ok_frac",
    "peak_rss_mb",
    "hf_bisections_per_s",
    "ba_bisections_per_s",
    "ba_hf_bisections_per_s",
    "par_ba_call_p50_ms",
    "par_ba_call_p90_ms",
    "par_ba_hf_call_p50_ms",
    "par_ba_hf_call_p90_ms",
    "serve_p50_ms",
    "serve_p99_ms",
    "serve_capacity_per_s",
};

std::vector<std::string> per_layer_names() {
  std::vector<std::string> names;
  for (const char* algo : {"hf", "ba", "ba_hf"}) {
    for (const char* n : {"n10", "n14"}) {
      names.push_back(std::string("core.") + algo + ".ns_per_bisection." + n);
    }
  }
  names.emplace_back("core.warm_allocs_per_call");
  for (const char* algo : {"hf", "ba", "ba_hf"}) {
    for (const char* m : {"t1.ns_per_bisection", "t1.self_ns_per_bisection",
                          "scaling_t4", "batch_speedup"}) {
      names.push_back(std::string("experiments.") + algo + "." + m);
    }
  }
  for (const char* algo : {"par_ba", "par_ba_hf"}) {
    for (const char* m :
         {"seq_ms", "t1_ms", "t4_ms", "t1_overhead", "speedup_vs_seq",
          "spawns", "steals", "idle_ms", "allocs_per_call",
          "brent_predicted_speedup"}) {
      names.push_back(std::string("runtime.") + algo + "." + m);
    }
  }
  for (const char* m :
       {"submit_us_p50", "submit_us_p99", "hit_ms_p50", "hit_ms_p99",
        "miss_ms_p50", "miss_ms_p99", "hit_rate", "coalesced", "evictions",
        "rejected", "allocs_per_miss", "gen_late_ms_p99"}) {
    names.push_back(std::string("service.") + m);
  }
  names.emplace_back("trace.overhead_frac");
  names.emplace_back("trace.spans");
  return names;
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    const auto take = [&]() -> std::string {
      if (eq != std::string::npos) return value;
      if (i + 1 >= argc) throw UsageError(arg + " needs a value");
      return argv[++i];
    };
    const auto number = [&](const std::string& s) {
      char* end = nullptr;
      const double v = std::strtod(s.c_str(), &end);
      if (s.empty() || *end != '\0') {
        throw UsageError(arg + ": not a number: " + s);
      }
      return v;
    };
    if (arg == "--workload") {
      const std::string w = take();
      if (w == "trials") {
        opt.workload = Workload::kTrials;
      } else if (w == "par_call") {
        opt.workload = Workload::kParCall;
      } else if (w == "serve") {
        opt.workload = Workload::kServe;
      } else {
        throw UsageError("unknown workload '" + w +
                         "' (trials, par_call, serve)");
      }
      have_workload = true;
    } else if (arg == "--seed") {
      const double v = number(take());
      if (v < 0 || v > 9.0e15) throw UsageError("--seed out of range");
      opt.seed = static_cast<std::uint64_t>(v);
    } else if (arg == "--seconds") {
      opt.seconds = number(take());
      if (!(opt.seconds > 0.0 && opt.seconds <= 120.0)) {
        throw UsageError("--seconds must be in (0, 120]");
      }
    } else if (arg == "--trace") {
      const std::string t = take();
      if (t != "0" && t != "1") throw UsageError("--trace must be 0 or 1");
      opt.trace = t == "1";
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--corrupt") {
      const std::string c = take();
      if (c == "trial") {
        opt.corrupt = Corrupt::kTrial;
      } else if (c == "piece") {
        opt.corrupt = Corrupt::kPiece;
      } else if (c == "served") {
        opt.corrupt = Corrupt::kServed;
      } else {
        throw UsageError("unknown --corrupt target '" + c +
                         "' (trial, piece, served)");
      }
    } else if (arg == "--trace-out") {
      opt.trace_out = take();
    } else {
      throw UsageError("unknown argument " + arg);
    }
  }
  if (!have_workload) throw UsageError("--workload is required");
  return opt;
}

int run(const Options& opt) {
  Report report;

  // Set-up is repeated and its median reported, so work moved into
  // set-up shows without one slow start deciding the number.
  const int rounds = opt.smoke ? 1 : 5;
  std::vector<double> setup_seconds;
  std::unique_ptr<TrialsPhase> trials;
  std::unique_ptr<ParCallPhase> par_call;
  std::unique_ptr<ServePhase> serve;
  for (int r = 0; r < rounds; ++r) {
    trials.reset();
    par_call.reset();
    serve.reset();
    const Clock::time_point start = Clock::now();
    trials = std::make_unique<TrialsPhase>(opt);
    par_call = std::make_unique<ParCallPhase>(opt);
    serve = std::make_unique<ServePhase>(opt);
    setup_seconds.push_back(seconds_between(start, Clock::now()));
  }
  report.metric("setup_s", median(setup_seconds), "s", rounds);

  // Slices of the three phases take turns, so a stretch of contention on
  // the machine lands on every phase's samples instead of one phase's.
  const auto measure_all = [&](double scale, int passes, SpanLog* spans) {
    const double slice = scale / passes;
    for (int p = 0; p < passes; ++p) {
      trials->measure(slice * opt.phase_seconds(Workload::kTrials), spans,
                      report);
      par_call->measure(slice * opt.phase_seconds(Workload::kParCall), spans,
                        report);
      serve->measure(slice * opt.phase_seconds(Workload::kServe), spans,
                     report);
    }
  };
  const auto headline = [&] {
    switch (opt.workload) {
      case Workload::kTrials:
        return trials->headline();
      case Workload::kParCall:
        return par_call->headline();
      case Workload::kServe:
        return serve->headline();
    }
    return 0.0;
  };

  SpanLog spans;
  double overhead = 0.0;
  if (!opt.trace) {
    measure_all(1.0, opt.smoke ? 1 : kRounds, nullptr);
  } else {
    // The named workload's phase untraced, then every phase traced: the
    // headline difference is the tracing overhead.
    const double primary = 0.5 * opt.phase_seconds(opt.workload);
    switch (opt.workload) {
      case Workload::kTrials:
        trials->measure(primary, nullptr, report);
        break;
      case Workload::kParCall:
        par_call->measure(primary, nullptr, report);
        break;
      case Workload::kServe:
        serve->measure(primary, nullptr, report);
        break;
    }
    const double untraced = headline();
    trials->reset();
    par_call->reset();
    serve->reset();
    measure_all(0.5, 1, &spans);
    overhead = headline() / untraced - 1.0;
    probe_core(opt, spans, report);
    probe_experiments(opt, spans, report);
    probe_runtime(opt, spans, report);
  }

  trials->verify(report);
  serve->verify(report);
  trials->report(report);
  par_call->report(report);
  serve->report(report);
  if (opt.trace) {
    serve->report_layer(spans, report);
    report.metric("trace.overhead_frac", overhead, "ratio", 2);
    report.metric("trace.spans", static_cast<double>(spans.size()), "count",
                  1);
    if (!opt.trace_out.empty()) spans.write(opt.trace_out);
  }
  serve.reset();
  par_call.reset();
  trials.reset();

  report.metric("ok_frac",
                static_cast<double>(report.attempted() - report.failed()) /
                    static_cast<double>(report.attempted()),
                "fraction", report.attempted());
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB", 1);
  report.print(opt, opt.trace ? per_layer_names() : kEndToEnd);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const perfbench::UsageError& e) {
    std::cerr << "lbb_perfbench: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "lbb_perfbench: error: " << e.what() << "\n";
    return 1;
  }
}
