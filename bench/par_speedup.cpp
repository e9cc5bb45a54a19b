// Measured-vs-predicted parallel speedup of the work-stealing partitioners.
//
// Runs the typed par:* entry points (runtime/par_partition.hpp) on a
// SyntheticProblem at N = 2^logn across a list of thread counts, and puts
// each measured speedup next to the speedup the simulator predicts for the
// same instance.  The prediction is Brent's bound applied to the bisection
// DAG: with W total bisections and critical path D (both from ba_simulate /
// ba_hf_simulate under a pure-computation cost model, t_bisect = 1 and all
// communication free), T workers need at most W/T + D steps, so
//
//   predicted_speedup(T) = W / (W/T + D).
//
// Usage: lbb_bench par_speedup [--logn=17] [--threads=1,2,4,8]
//                              [--algos=par:ba,par:ba_hf] [--trials=3]
//                              [--seed=1] [--alpha=0.25] [--beta=1.0]
//                              [--grain=0] [--out=BENCH_par_speedup.json]
//                              [--verify]
//
// --verify additionally byte-compares the parallel output (pieces and, at a
// reduced N, the recorded bisection tree) against the sequential kernels at
// every requested thread count and fails loudly on any divergence; the
// determinism harness (tools/check_determinism.sh) runs this mode.
//
// The JSON mirrors BENCH_ratio_experiment.json: one experiment per
// algorithm, one inline cell per thread count.  Each cell carries two
// measured speedups: `speedup` against the same runtime at 1 thread, and
// `speedup_vs_seq` against the sequential kernel (seq_wall_seconds /
// wall_seconds), which the summary line prints at the top thread count.
// hardware_concurrency is recorded so readers can tell a 1-CPU CI box
// (speedup ~1 everywhere) from a real multicore run; tools/bench_diff.py
// only compares speedups between reports taken on machines with the same
// concurrency.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_cli.hpp"
#include "bench/experiment_registry.hpp"
#include "core/ba.hpp"
#include "core/ba_hf.hpp"
#include "core/partition.hpp"
#include "core/workspace.hpp"
#include "problems/alpha_dist.hpp"
#include "problems/synthetic.hpp"
#include "runtime/par_partition.hpp"
#include "runtime/par_partitioners.hpp"
#include "sim/cost_model.hpp"
#include "sim/par_ba.hpp"
#include "stats/alloc_stats.hpp"
#include "stats/json.hpp"

namespace lbb::bench {
namespace {

using lbb::core::BaHfParams;
using lbb::core::Partition;
using lbb::core::PartitionOptions;
using lbb::core::TrialWorkspace;
using lbb::problems::AlphaDistribution;
using lbb::problems::SyntheticProblem;

enum class Family { kBa, kBaStar, kBaHf };

struct AlgoSpec {
  std::string name;  ///< registry-style display name ("par:ba")
  Family family;
};

AlgoSpec parse_algo(const std::string& s) {
  if (s == "par:ba" || s == "ba") return {"par:ba", Family::kBa};
  if (s == "par:ba_star" || s == "ba_star") {
    return {"par:ba_star", Family::kBaStar};
  }
  if (s == "par:ba_hf" || s == "ba_hf") return {"par:ba_hf", Family::kBaHf};
  throw CliError("--algos: unknown algorithm '" + s +
                 "' (expected par:ba, par:ba_star, par:ba_hf)");
}

struct Instance {
  std::uint64_t seed;
  double alpha;
  double beta;
  std::int32_t n;
};

SyntheticProblem make_problem(const Instance& inst) {
  return SyntheticProblem(inst.seed, AlphaDistribution::uniform(0.1, 0.5));
}

Partition<SyntheticProblem> run_par(Family family, const Instance& inst,
                                    runtime::WorkStealingPool& pool,
                                    TrialWorkspace<SyntheticProblem>& ws,
                                    const runtime::ParOptions& opt,
                                    runtime::ParStats* stats) {
  switch (family) {
    case Family::kBa:
      return runtime::par_ba_partition(pool, ws, make_problem(inst), inst.n,
                                       opt, stats);
    case Family::kBaStar:
      return runtime::par_ba_star_partition(pool, make_problem(inst), inst.n,
                                            inst.alpha, opt, stats);
    case Family::kBaHf:
      return runtime::par_ba_hf_partition(pool, make_problem(inst), inst.n,
                                          BaHfParams{inst.alpha, inst.beta},
                                          opt, stats);
  }
  throw std::logic_error("run_par: bad family");
}

Partition<SyntheticProblem> run_seq(Family family, const Instance& inst,
                                    TrialWorkspace<SyntheticProblem>& ws,
                                    const PartitionOptions& opt) {
  switch (family) {
    case Family::kBa:
      return core::ba_partition(ws, make_problem(inst), inst.n, opt);
    case Family::kBaStar:
      return core::ba_star_partition(ws, make_problem(inst), inst.n,
                                     inst.alpha, opt);
    case Family::kBaHf:
      return core::ba_hf_partition(ws, make_problem(inst), inst.n,
                                   BaHfParams{inst.alpha, inst.beta}, opt);
  }
  throw std::logic_error("run_seq: bad family");
}

/// Critical path (D) and total work (W) of the instance's bisection DAG, in
/// bisection units: the simulator under a pure-computation cost model.
struct SimBounds {
  double critical_path = 0.0;
  double total_work = 0.0;
};

SimBounds sim_bounds(Family family, const Instance& inst) {
  sim::CostModel cost;
  cost.t_bisect = 1.0;
  cost.t_send = 0.0;
  cost.collective_latency = 0.0;
  SimBounds out;
  switch (family) {
    case Family::kBa: {
      const auto sim = sim::ba_simulate(make_problem(inst), inst.n, cost);
      out.critical_path = sim.metrics.makespan;
      out.total_work = static_cast<double>(sim.partition.bisections);
      return out;
    }
    case Family::kBaStar: {
      const auto sim = sim::ba_star_simulate(make_problem(inst), inst.n,
                                             inst.alpha, cost);
      out.critical_path = sim.metrics.makespan;
      out.total_work = static_cast<double>(sim.partition.bisections);
      return out;
    }
    case Family::kBaHf: {
      const auto sim = sim::ba_hf_simulate(make_problem(inst), inst.n,
                                           inst.alpha, inst.beta, cost);
      out.critical_path = sim.metrics.makespan;
      out.total_work = static_cast<double>(sim.partition.bisections);
      return out;
    }
  }
  throw std::logic_error("sim_bounds: bad family");
}

double brent_speedup(const SimBounds& b, std::int32_t threads) {
  if (b.total_work <= 0.0) return 1.0;
  const double t = b.total_work / static_cast<double>(threads);
  return b.total_work / (t + b.critical_path);
}

/// Exact comparison: a correct parallel run is byte-identical, so any
/// tolerance would only hide bugs.
bool same_partition(const Partition<SyntheticProblem>& a,
                    const Partition<SyntheticProblem>& b,
                    const std::string& what) {
  const auto fail = [&](const char* field) {
    std::cerr << "par_speedup: VERIFY FAILED (" << what << "): " << field
              << " differs from the sequential kernel\n";
    return false;
  };
  if (a.pieces.size() != b.pieces.size()) return fail("piece count");
  if (a.total_weight != b.total_weight) return fail("total_weight");
  if (a.bisections != b.bisections) return fail("bisections");
  if (a.max_depth != b.max_depth) return fail("max_depth");
  for (std::size_t i = 0; i < a.pieces.size(); ++i) {
    const auto& pa = a.pieces[i];
    const auto& pb = b.pieces[i];
    if (pa.processor != pb.processor || pa.weight != pb.weight ||
        pa.depth != pb.depth || pa.node != pb.node) {
      return fail("pieces");
    }
  }
  if (a.tree.size() != b.tree.size()) return fail("tree size");
  for (std::size_t i = 0; i < a.tree.size(); ++i) {
    const auto& na = a.tree.node(static_cast<core::NodeId>(i));
    const auto& nb = b.tree.node(static_cast<core::NodeId>(i));
    if (na.weight != nb.weight || na.parent != nb.parent ||
        na.left != nb.left || na.right != nb.right || na.depth != nb.depth) {
      return fail("tree nodes");
    }
  }
  return true;
}

bool verify_algo(const AlgoSpec& algo, const Instance& inst,
                 const std::vector<std::int32_t>& thread_counts,
                 std::int32_t grain) {
  // Pieces at the full benchmark N; recorded trees at a reduced N (tree
  // comparison is O(N) memory twice over and the stitch logic has no
  // N-dependent branches beyond what 2^12 already exercises).
  Instance small = inst;
  small.n = std::min<std::int32_t>(inst.n, 1 << 12);
  for (const std::int32_t t : thread_counts) {
    auto& pool = runtime::shared_pool(t);
    runtime::ParOptions popt;
    popt.grain = grain;
    TrialWorkspace<SyntheticProblem> seq_ws;
    TrialWorkspace<SyntheticProblem> par_ws;
    {
      const auto par = run_par(algo.family, inst, pool, par_ws, popt, nullptr);
      const auto seq = run_seq(algo.family, inst, seq_ws, {});
      if (!same_partition(par, seq,
                          algo.name + " threads=" + std::to_string(t))) {
        return false;
      }
    }
    popt.partition.record_tree = true;
    const auto par = run_par(algo.family, small, pool, par_ws, popt, nullptr);
    const auto seq = run_seq(algo.family, small, seq_ws, {true});
    if (!same_partition(par, seq,
                        algo.name + " tree threads=" + std::to_string(t))) {
      return false;
    }
  }
  return true;
}

}  // namespace

int run_par_speedup(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto logn = static_cast<std::int32_t>(cli.get_int("logn", 17));
  if (logn < 1 || logn > 24) {
    throw CliError("--logn: expected a value in [1, 24]");
  }
  Instance inst;
  inst.n = std::int32_t{1} << logn;
  inst.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  inst.alpha = cli.get_double("alpha", 0.25);
  inst.beta = cli.get_double("beta", 1.0);
  const auto trials = static_cast<int>(cli.get_int("trials", 3));
  const auto grain = static_cast<std::int32_t>(cli.get_int("grain", 0));
  const std::string out_path =
      cli.get_string("out", "BENCH_par_speedup.json");

  std::vector<std::int32_t> thread_counts;
  for (const std::string& s : cli.get_list("threads")) {
    char* end = nullptr;
    const long t = std::strtol(s.c_str(), &end, 10);
    if (s.empty() || end != s.c_str() + s.size() || t < 1) {
      throw CliError("--threads: expected positive integers, got '" + s + "'");
    }
    thread_counts.push_back(static_cast<std::int32_t>(t));
  }
  if (thread_counts.empty()) thread_counts = {1, 2, 4, 8};
  // Speedup is relative to the 1-thread run of the same runtime, so make
  // sure it exists even when the user asked e.g. --threads=4,8.
  if (std::find(thread_counts.begin(), thread_counts.end(), 1) ==
      thread_counts.end()) {
    thread_counts.insert(thread_counts.begin(), 1);
  }
  std::sort(thread_counts.begin(), thread_counts.end());
  thread_counts.erase(
      std::unique(thread_counts.begin(), thread_counts.end()),
      thread_counts.end());
  const std::int32_t max_threads = thread_counts.back();

  std::vector<AlgoSpec> algos;
  auto algo_names = cli.get_list("algos");
  if (algo_names.empty()) algo_names = {"par:ba", "par:ba_hf"};
  for (const std::string& s : algo_names) algos.push_back(parse_algo(s));

  if (cli.flag("verify")) {
    for (const AlgoSpec& algo : algos) {
      if (!verify_algo(algo, inst, thread_counts, grain)) return 1;
    }
    std::cout << "par_speedup verify OK: " << algos.size()
              << " algorithm(s) x threads {";
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      std::cout << (i ? "," : "") << thread_counts[i];
    }
    std::cout << "} byte-identical to sequential at N=2^" << logn << "\n";
    return 0;
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "par_speedup: cannot open " << out_path << " for writing\n";
    return 1;
  }
  stats::JsonWriter json(out);
  json.begin_object();
  json.member("benchmark", "par_speedup");
  json.member("log2_n", logn);
  json.member("trials", static_cast<std::int64_t>(trials));
  json.member("seed", static_cast<std::int64_t>(inst.seed));
  json.member("alpha", inst.alpha);
  json.member("beta", inst.beta);
  json.member("grain", grain);
  json.member("hardware_concurrency",
              static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  json.member("alloc_probe", stats::alloc_probe_linked());
  json.key("threads");
  json.begin_array(/*inline_mode=*/true);
  for (const std::int32_t t : thread_counts) json.value(t);
  json.end_array();
  json.key("experiments");
  json.begin_array();

  // "par:ba 1.55x, par:ba_hf 1.10x" at the top thread count.
  std::ostringstream vs_seq;
  vs_seq << std::fixed << std::setprecision(2);

  for (const AlgoSpec& algo : algos) {
    const SimBounds bounds = sim_bounds(algo.family, inst);

    // Sequential-kernel reference time: how much the parallel runtime costs
    // at T=1 relative to the plain recursion it must reproduce.
    TrialWorkspace<SyntheticProblem> seq_ws;
    double seq_wall = 0.0;
    for (int t = 0; t < std::max(trials, 1) + 1; ++t) {
      const auto start = std::chrono::steady_clock::now();
      auto part = run_seq(algo.family, inst, seq_ws, {});
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      seq_ws.recycle(std::move(part));
      seq_ws.reset();
      if (t == 0) continue;  // warm-up
      seq_wall = (seq_wall == 0.0) ? wall : std::min(seq_wall, wall);
    }

    json.begin_object();
    json.member("name", algo.name);
    json.member("sim_critical_path", bounds.critical_path);
    json.member("sim_total_work", bounds.total_work);
    json.member("seq_wall_seconds", seq_wall);
    json.key("cells");
    json.begin_array();

    double wall_one = 0.0;
    for (const std::int32_t t : thread_counts) {
      auto& pool = runtime::shared_pool(t);
      runtime::ParOptions popt;
      popt.grain = grain;
      TrialWorkspace<SyntheticProblem> ws;
      runtime::ParStats stats;
      double wall = 0.0;
      for (int trial = 0; trial < std::max(trials, 1) + 1; ++trial) {
        const auto start = std::chrono::steady_clock::now();
        auto part = run_par(algo.family, inst, pool, ws, popt, &stats);
        const double w = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        // Recycled pieces stay alive as the next call's overwrite targets
        // (no reset(): SyntheticProblem never touches the arena).
        if (algo.family == Family::kBa) ws.recycle(std::move(part));
        if (trial == 0) continue;  // warm-up (sizes pools and workspaces)
        wall = (wall == 0.0) ? w : std::min(wall, w);
      }
      if (t == 1) wall_one = wall;
      const double speedup = (wall > 0.0 && wall_one > 0.0)
                                 ? wall_one / wall
                                 : 1.0;
      const double speedup_vs_seq = wall > 0.0 ? seq_wall / wall : 1.0;
      if (t == max_threads) {
        vs_seq << (vs_seq.tellp() > 0 ? ", " : "") << algo.name << ' '
               << speedup_vs_seq << 'x';
      }
      json.begin_object(/*inline_mode=*/true);
      json.member("algo", algo.name);
      json.member("log2_n", logn);
      json.member("threads", t);
      json.member("wall_seconds", wall);
      json.member("speedup", speedup);
      json.member("speedup_vs_seq", speedup_vs_seq);
      json.member("predicted_speedup", brent_speedup(bounds, t));
      json.member("par_grain", stats.grain);
      json.member("par_spawns", stats.spawns);
      json.member("par_steals", stats.steals);
      json.member("par_idle_ns", stats.idle_ns);
      json.member("alloc_count", stats.alloc_count);
      json.member("is_max_threads", t == max_threads);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  json.finish();

  std::cout << "par_speedup report written to " << out_path << " (N=2^"
            << logn << ", threads <= " << max_threads
            << ", hardware_concurrency = "
            << std::thread::hardware_concurrency()
            << "; speedup_vs_seq at T=" << max_threads << ": "
            << vs_seq.str() << ")\n";
  return 0;
}

}  // namespace lbb::bench
