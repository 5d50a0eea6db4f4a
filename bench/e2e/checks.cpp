// Output checks on the untraced run, and the end-to-end metrics. A run
// with any failed check is reported with correct:false and exits non-zero.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "common/strings.hpp"
#include "core/service.hpp"
#include "e2e.hpp"

namespace e2e {

namespace {

double delta(const Untraced& run, const char* key) {
  return field_number(run.stats_after, key) -
         field_number(run.stats_before, key);
}

/// expected_seed1.txt: "<workload> <item> <time_ms> <request>|<best>".
std::map<std::size_t, std::pair<std::string, Answer>> load_expected(
    const std::string& path, const std::string& workload) {
  std::map<std::size_t, std::pair<std::string, Answer>> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::size_t item = 0;
    double time_ms = 0;
    fields >> name >> item >> time_ms;
    if (name != workload) continue;
    std::string rest;
    std::getline(fields >> std::ws, rest);
    const std::size_t bar = rest.find('|');
    if (bar == std::string::npos) continue;
    out[item] = {rest.substr(0, bar), Answer{rest.substr(bar + 1), time_ms}};
  }
  return out;
}

using FailFn = std::function<void(std::size_t, const std::string&)>;

/// Cold answers: the committed answers for seed 1; otherwise a fresh
/// in-process TuningService for cold_static, and for hybrid_warp the
/// dial's monotonicity (budget 32 never chooses worse than budget 16).
void check_cold_answers(const Plan& plan, const Env& env, const Untraced& run,
                        const std::vector<std::size_t>& cold,
                        const FailFn& fail) {
  const auto spec_of = [&](std::size_t k) {
    return plan.spec_at(run.samples[k].item);
  };
  std::vector<std::size_t> unchecked;
  if (env.seed == 1) {
    const auto expected = load_expected(env.expected, plan.name);
    for (const std::size_t k : cold) {
      const auto it = expected.find(run.samples[k].item);
      if (it == expected.end())
        unchecked.push_back(k);
      else if (it->second.first != describe(spec_of(k)))
        fail(k, "expected_seed1.txt lists '" + it->second.first +
                    "' for this item");
      else if (answer_of(run.responses[k]) != it->second.second)
        fail(k, "answer differs from expected_seed1.txt");
    }
  } else {
    unchecked = cold;
  }
  if (plan.name == "cold_static" && !unchecked.empty()) {
    std::vector<Spec> specs;
    for (const std::size_t k : unchecked) specs.push_back(spec_of(k));
    const auto reference = reference_answers(specs);
    for (std::size_t j = 0; j < unchecked.size(); ++j)
      if (answer_of(run.responses[unchecked[j]]) != reference[j])
        fail(unchecked[j], "answer differs from an in-process service");
  }
  if (plan.name == "hybrid_warp") {
    std::map<Context, std::map<std::size_t, std::size_t>> by_budget;
    for (const std::size_t k : cold)
      by_budget[spec_of(k).ctx][spec_of(k).budget] = k;
    for (const auto& [ctx, ks] : by_budget)
      if (ks.size() == 2 &&
          field_number(run.responses[ks.at(32)], "time_ms") >
              field_number(run.responses[ks.at(16)], "time_ms"))
        fail(ks.at(32), "budget 32 chose a slower variant than budget 16");
  }
}

/// Geometric mean of the cold answers' time_ms over the exhaustive
/// optimum of their context, minus 1, in percent.
double quality_gap_pct(const Plan& plan, const Untraced& run,
                       const std::vector<std::size_t>& cold) {
  std::map<Context, std::size_t> slot;
  std::vector<Spec> optimum_specs;
  for (const std::size_t k : cold) {
    Spec spec = plan.spec_at(run.samples[k].item);
    spec.method = "exhaustive";
    if (slot.emplace(spec.ctx, optimum_specs.size()).second)
      optimum_specs.push_back(spec);
  }
  const auto optimum = reference_answers(optimum_specs);
  double log_sum = 0;
  std::size_t count = 0;
  for (const std::size_t k : cold) {
    const auto& best = optimum[slot.at(plan.spec_at(run.samples[k].item).ctx)];
    const double t = field_number(run.responses[k], "time_ms");
    if (!best || !(t > 0)) continue;
    log_sum += std::log(t / best->time_ms);
    ++count;
  }
  return count == 0
             ? 0
             : (std::exp(log_sum / static_cast<double>(count)) - 1) * 100;
}

}  // namespace

double field_number(const gs::serve::JsonObject& obj, const char* key) {
  const auto it = obj.find(key);
  return it == obj.end() ? NAN : it->second.number;
}

bool field_flag(const gs::serve::JsonObject& obj, const char* key) {
  const auto it = obj.find(key);
  return it != obj.end() && it->second.boolean;
}

std::string field_text(const gs::serve::JsonObject& obj, const char* key) {
  const auto it = obj.find(key);
  return it == obj.end() ? "" : it->second.string;
}

std::optional<Answer> answer_of(const gs::serve::JsonObject& response) {
  if (field_text(response, "status") != "ok" || !response.contains("best") ||
      !response.contains("time_ms"))
    return std::nullopt;
  return Answer{field_text(response, "best"),
                field_number(response, "time_ms")};
}

std::vector<std::optional<Answer>> reference_answers(
    const std::vector<Spec>& specs) {
  gs::core::TuningService service;
  std::vector<std::optional<Answer>> out(specs.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < specs.size(); i = next++) {
        gs::core::TuneRequest request =
            gs::serve::parse_request(render(specs[i], i)).tune;
        request.store.read = false;
        request.store.write = false;
        const gs::core::TuneResponse r = service.tune(request);
        if (r.ok())
          out[i] = Answer{r.outcome.search.best_params.to_string(),
                          r.outcome.search.best_time};
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return out;
}

void check_and_measure(const Plan& plan, const Env& env,
                       const Untraced& run, Result& result) {
  const std::vector<Sample>& samples = run.samples;
  std::vector<bool> failed(samples.size(), false);
  const auto fail = [&](std::size_t k, const std::string& what) {
    failed[k] = true;
    result.problem(describe(plan.spec_at(samples[k].item)) + ": " + what);
  };

  std::size_t tunes = 0;
  std::size_t leaders = 0;
  std::map<int, std::vector<std::size_t>> storms;
  std::vector<std::size_t> cold;
  for (std::size_t k = 0; k < samples.size(); ++k) {
    const Spec spec = plan.spec_at(samples[k].item);
    const gs::serve::JsonObject& r = run.responses[k];
    if (samples[k].end_s < 0) {
      fail(k, "no response");
      continue;
    }
    if (field_text(r, "status") != "ok") {
      fail(k, "response " + samples[k].response);
      continue;
    }
    if (spec.op == "tune") {
      ++tunes;
      if (!field_flag(r, "deduplicated")) ++leaders;
    }
    const auto seeded = run.seeded.find(spec.ctx);
    switch (spec.role) {
      case Role::Warm:
        if (field_number(r, "fresh") != 0)
          fail(k, "warm tune ran fresh evaluations");
        else if (plan.warm_compiles_zero && field_number(r, "compiles") != 0)
          fail(k, "warm tune compiled");
        else if (seeded == run.seeded.end() ||
                 answer_of(r) != seeded->second)
          fail(k, "warm answer differs from the seeding tune's");
        break;
      case Role::Query:
        if (!field_flag(r, "found") || seeded == run.seeded.end() ||
            field_number(r, "time_ms") != seeded->second.time_ms)
          fail(k, "query time_ms differs from the seeding tune's");
        break;
      case Role::Storm:
        storms[spec.storm].push_back(k);
        break;
      case Role::Cold:
        cold.push_back(k);
        break;
      case Role::Seed:
      case Role::Ping:
        break;
    }
  }

  // A storm is four identical tunes: one search pays for the work, the
  // others share it (single-flight) or find it stored, and all agree.
  for (const auto& [storm, ks] : storms) {
    std::size_t paid = 0;
    for (const std::size_t k : ks) {
      const gs::serve::JsonObject& r = run.responses[k];
      if (!field_flag(r, "deduplicated") && field_number(r, "fresh") > 0)
        ++paid;
      if (answer_of(r) != answer_of(run.responses[ks.front()]))
        fail(k, "storm answers disagree");
    }
    if (ks.size() != static_cast<std::size_t>(plan.connections) ||
        paid != 1)
      fail(ks.front(),
           gs::str::format("storm %d: %zu of %zu tunes ran a search (want 1 "
                           "of %d)",
                           storm, paid, ks.size(), plan.connections));
  }

  // The daemon's own counters must agree with what the clients saw.
  if (delta(run, "tunes") != static_cast<double>(tunes))
    result.problem(gs::str::format("stats.tunes rose by %g, sent %zu",
                                   delta(run, "tunes"), tunes));
  if (delta(run, "searches") != static_cast<double>(leaders))
    result.problem(gs::str::format(
        "stats.searches rose by %g, %zu responses were not deduplicated",
        delta(run, "searches"), leaders));
  if (delta(run, "errors") != 0 || delta(run, "shed") != 0)
    result.problem("the daemon counted errors or sheds");

  check_cold_answers(plan, env, run, cold, fail);

  // An open-loop run whose generator fell behind measured the generator.
  std::vector<double> late_ms;
  if (plan.open_loop) {
    for (const Sample& s : samples)
      late_ms.push_back((s.sent_s - s.start_s) * 1e3);
    const auto late = static_cast<std::size_t>(std::count_if(
        late_ms.begin(), late_ms.end(), [](double ms) { return ms > 5; }));
    if (late * 100 > late_ms.size())
      result.problem(gs::str::format(
          "open loop invalid: %zu of %zu sends left over 5 ms late", late,
          late_ms.size()));
  }

  // ---- end-to-end metrics --------------------------------------------
  std::size_t ok = 0;
  std::vector<double> latency_ms;
  for (std::size_t k = 0; k < samples.size(); ++k) {
    if (failed[k] || samples[k].end_s < 0) continue;
    ++ok;
    if (plan.spec_at(samples[k].item).op == plan.timed_op)
      latency_ms.push_back((samples[k].end_s - samples[k].start_s) * 1e3);
  }
  result.attempted = samples.size();
  result.failed = samples.size() - ok;
  result.end_to_end = {
      {"throughput_rps", static_cast<double>(ok) / run.wall_s, "1/s",
       "higher"},
      {"latency_p50_ms", quantile(latency_ms, 0.5), "ms", "lower"},
      {"latency_p90_ms", quantile(latency_ms, 0.90), "ms", "lower"},
      {"setup_s", median(run.setup_s), "s", "lower"},
      {"setup_rss_mb", run.setup_rss_mb, "MiB", "lower"},
  };
  result.extra = {
      {"requests", static_cast<double>(samples.size()), "count", "higher"},
      {"latency_p99_ms", quantile(latency_ms, 0.99), "ms", "lower"},
      {"peak_rss_mb", run.peak_rss_mb, "MiB", "lower"},
      {"fail_frac",
       samples.empty() ? 0
                       : static_cast<double>(result.failed) /
                             static_cast<double>(samples.size()),
       "ratio", "lower"},
  };
  if (plan.open_loop)
    result.extra.push_back(
        {"gen_late_ms_p99", quantile(late_ms, 0.99), "ms", "lower"});
  if (plan.name == "cold_static")
    result.extra.push_back(
        {"quality_gap_pct", quality_gap_pct(plan, run, cold), "pct", "lower"});
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(q * static_cast<double>(xs.size()));
  const std::size_t i =
      rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return xs[std::min(i, xs.size() - 1)];
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

}  // namespace e2e
