// e2e_bench: the end-to-end benchmark program (README.md). run.sh builds
// it and passes the paths; use run.sh rather than calling this directly.
//
//   e2e_bench --gpustatic BIN --out DIR --expected FILE
//             [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//             [--git-rev REV]
//   e2e_bench --write-expected FILE     (regenerate expected_seed1.txt)
//
// Without --workload every workload runs in turn. The last stdout line is
// one JSON object: correct, attempted, failed, and the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). Exit status 0 means
// every output check passed.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "common/strings.hpp"
#include "e2e.hpp"

namespace {

using namespace e2e;

[[noreturn]] void usage(const std::string& what) {
  std::fprintf(stderr,
               "e2e_bench: %s\n"
               "usage: e2e_bench --gpustatic BIN --out DIR --expected FILE"
               " [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]"
               " [--git-rev REV]\n"
               "       e2e_bench --write-expected FILE\n",
               what.c_str());
  std::exit(2);
}

/// Answers for seed 1 of every request the cold workloads can send,
/// computed by an in-process TuningService with the store off.
int write_expected(const std::string& path) {
  std::ofstream out(path);
  out << "# Answers of the cold_static and hybrid_warp requests for"
         " --seed 1.\n"
         "# <workload> <item> <time_ms> <request>|<best>\n"
         "# Regenerate: build-bench/e2e_bench --write-expected "
         "bench/e2e/expected_seed1.txt\n";
  for (const char* name : {"cold_static", "hybrid_warp"}) {
    const Plan plan = make_plan(name, 1, 0);
    std::vector<Spec> specs;
    while (const auto spec = plan.item(specs.size())) specs.push_back(*spec);
    const auto answers = reference_answers(specs);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (!answers[i]) {
        std::fprintf(stderr, "%s item %zu failed to tune\n", name, i);
        return 1;
      }
      out << name << ' ' << i << ' '
          << gs::str::format("%.17g", answers[i]->time_ms) << ' '
          << describe(specs[i]) << '|' << answers[i]->best << '\n';
    }
  }
  return out ? 0 : 1;
}

std::string final_line(const std::vector<Result>& results, bool trace) {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string metrics;
  for (const Result& r : results) {
    correct = correct && r.correct();
    attempted += r.attempted;
    failed += r.failed;
    // One workload per run names metrics plainly; a run of every
    // workload prefixes each with its workload.
    const std::string prefix =
        results.size() == 1 ? "" : r.workload + ".";
    for (const Metric& m : trace ? r.per_layer : r.end_to_end)
      metrics += gs::str::format(
          "%s\"%s%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
          metrics.empty() ? "" : ",", prefix.c_str(), m.name.c_str(),
          m.value, m.unit.c_str());
  }
  return gs::str::format(
      "{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"metrics\":{%s}}",
      correct ? "true" : "false", std::max<std::size_t>(attempted, 1),
      failed, metrics.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // The in-process replay and probes use the daemon's pool size.
  setenv("GPUSTATIC_THREADS", "4", 1);

  Env env;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--write-expected") return write_expected(value());
    if (arg == "--gpustatic") env.gpustatic = value();
    else if (arg == "--out") env.out_dir = value();
    else if (arg == "--expected") env.expected = value();
    else if (arg == "--git-rev") env.git_rev = value();
    else if (arg == "--workload") workload = value();
    else if (arg == "--seed")
      env.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--seconds")
      env.seconds = std::strtod(value().c_str(), nullptr);
    else if (arg == "--trace") env.trace = value() == "1";
    else usage("unknown flag '" + arg + "'");
  }
  if (env.gpustatic.empty() || env.out_dir.empty() || env.expected.empty())
    usage("--gpustatic, --out and --expected are required");
  if (!(env.seconds > 0)) usage("--seconds must be positive");
  std::vector<std::string> names = workload_names();
  if (!workload.empty()) {
    if (std::find(names.begin(), names.end(), workload) == names.end())
      usage("unknown workload '" + workload + "'");
    names = {workload};
  }
  std::filesystem::create_directories(env.out_dir);

  std::vector<Result> results;
  for (const std::string& name : names) {
    Result result;
    result.workload = name;
    try {
      const Plan plan = make_plan(name, env.seed, env.seconds);
      result.open_loop = plan.open_loop;
      result.connections = plan.connections;
      const Untraced run = run_untraced(plan, env, result);
      check_and_measure(plan, env, run, result);
      if (env.trace) run_traced(plan, env, run, result);
    } catch (const std::exception& e) {
      result.problem(std::string("run aborted: ") + e.what());
    }
    print_table(result);
    results.push_back(std::move(result));
  }
  write_results(env, results);
  std::printf("%s\n", final_line(results, env.trace).c_str());
  for (const Result& r : results)
    if (!r.correct()) return 1;
  return 0;
}
