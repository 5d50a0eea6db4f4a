// The results file (BENCH_e2e.json, one schema for every workload) and
// the table printed for each workload.

#include <cstdio>
#include <fstream>
#include <thread>

#include "common/strings.hpp"
#include "e2e.hpp"

namespace e2e {

namespace {

std::string quoted(const std::string& s) {
  return "\"" + gs::serve::json_escape(s) + "\"";
}

std::string metric_json(const Metric& m) {
  return quoted(m.name) + ":{\"value\":" + gs::str::format("%.17g", m.value) +
         ",\"unit\":" + quoted(m.unit) + ",\"better\":" + quoted(m.better) +
         "}";
}

}  // namespace

void write_results(const Env& env, const std::vector<Result>& results) {
  std::string config = gs::str::format(
      "{\"seed\":%llu,\"seconds\":%g,\"trace\":%s,\"nproc\":%u,"
      "\"workloads\":{",
      static_cast<unsigned long long>(env.seed), env.seconds,
      env.trace ? "true" : "false", std::thread::hardware_concurrency());
  std::string metrics = "{";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    config += gs::str::format(
        "%s%s:{\"loop\":\"%s\",\"connections\":%d,\"generator_threads\":%d,"
        "\"correct\":%s,\"attempted\":%zu,\"failed\":%zu}",
        i ? "," : "", quoted(r.workload).c_str(),
        r.open_loop ? "open" : "closed", r.connections,
        r.open_loop ? 1 : r.connections,
        r.correct() ? "true" : "false", r.attempted, r.failed);
    metrics += (i ? "," : "") + quoted(r.workload) + ":{";
    bool first = true;
    for (const auto* rows : {&r.end_to_end, &r.extra, &r.per_layer})
      for (const Metric& m : *rows) {
        metrics += (first ? "" : ",") + metric_json(m);
        first = false;
      }
    metrics += "}";
  }
  config += "}}";
  metrics += "}";
  std::ofstream out(env.out_dir + "/BENCH_e2e.json");
  out << "{\"bench\":\"e2e\",\"git_rev\":" << quoted(env.git_rev)
      << ",\"config\":" << config << ",\"metrics\":" << metrics << "}\n";
}

void print_table(const Result& result) {
  std::printf("\n== %s ==\n", result.workload.c_str());
  std::printf("  %-30s %16s  %s\n", "metric", "value", "unit");
  const auto rows = [](const char* title, const std::vector<Metric>& ms) {
    if (ms.empty()) return;
    std::printf("  -- %s\n", title);
    for (const Metric& m : ms)
      std::printf("  %-30s %16.6g  %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
  };
  rows("end to end (gated)", result.end_to_end);
  rows("end to end (reported)", result.extra);
  rows("per layer (traced)", result.per_layer);
  std::printf("  correct: %s   attempted: %zu   failed: %zu\n",
              result.correct() ? "yes" : "NO", result.attempted,
              result.failed);
  constexpr std::size_t kShown = 10;
  for (std::size_t i = 0; i < result.problems.size() && i < kShown; ++i)
    std::printf("  problem: %s\n", result.problems[i].c_str());
  if (result.problems.size() > kShown)
    std::printf("  ... and %zu more problems\n",
                result.problems.size() - kShown);
  std::fflush(stdout);
}

}  // namespace e2e
