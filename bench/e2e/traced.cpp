// The traced run. It replays the untraced run's requests in-process with
// the same concurrency, through the same public calls the daemon makes
// for each line (Server::handle_line), and records a span around each
// call. Spans stay in memory and are written out when the run ends. Then
// it probes single layers and derives the per-layer metrics.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <latch>
#include <set>
#include <thread>

#include "arch/gpu_spec.hpp"
#include "codegen/cache.hpp"
#include "common/rng.hpp"
#include "core/service.hpp"
#include "e2e.hpp"
#include "serve/server.hpp"
#include "sim/context.hpp"
#include "tuner/space.hpp"

namespace e2e {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index in the same thread's buffer
  std::uint64_t request = 0;
};

/// One thread's spans. A request runs on one thread, so parents are
/// indices into the same buffer.
class SpanBuffer {
 public:
  std::int32_t open(const char* name, std::uint64_t request) {
    spans.push_back({name, now_ns(), 0, current_, request});
    current_ = static_cast<std::int32_t>(spans.size() - 1);
    return current_;
  }
  void close(std::int32_t i) {
    spans[static_cast<std::size_t>(i)].end_ns = now_ns();
    current_ = spans[static_cast<std::size_t>(i)].parent;
  }
  /// A finished child of the open span.
  void add(const char* name, std::int64_t start, std::int64_t end,
           std::uint64_t request) {
    spans.push_back({name, start, end, current_, request});
  }

  std::vector<Span> spans;

 private:
  std::int32_t current_ = -1;
};

class Scoped {
 public:
  Scoped(SpanBuffer& buffer, const char* name, std::uint64_t request)
      : buffer_(buffer), index_(buffer.open(name, request)) {}
  ~Scoped() { buffer_.close(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanBuffer& buffer_;
  std::int32_t index_;
};

/// Set by the service's before_search hook on the leader's thread, which
/// is the calling thread: it splits tune() into core.prepare (request
/// key, single-flight, workload load, store snapshot, context cache) and
/// tuner.search (memo replay, compiles, simulation, harvest merge).
thread_local std::int64_t t_search_start_ns = 0;

/// The daemon's moving parts, in-process.
struct Replay {
  explicit Replay(const std::string& store)
      : service([&] {
          gs::core::TuningService::Config config;
          config.store_path = store;
          // handle() persists after every 8 store-writing tunes, which is
          // what the daemon's default --save-every 8 does.
          config.save_every = 0;
          config.before_search = [](const gs::core::TuneRequest&) {
            t_search_start_ns = now_ns();
          };
          return config;
        }()) {}

  gs::core::TuningService service;
  gs::serve::Admission admission{8, 32};  // serve's defaults
  std::atomic<std::size_t> store_writes{0};
};

/// One request line through the calls Server::handle_line makes for it.
/// (Budget caps and deadlines, which no workload triggers, are left out.)
std::string handle(Replay& r, SpanBuffer& spans, const std::string& line,
                   std::uint64_t id) {
  const Scoped root(spans, "request", id);
  gs::serve::WireRequest request;
  {
    const Scoped s(spans, "serve.parse", id);
    request = gs::serve::parse_request(line);
  }
  if (request.op == "ping") {
    const Scoped s(spans, "serve.render", id);
    return gs::serve::render_ping_response(request);
  }
  if (request.op == "query") {
    gs::core::TuningService::QueryResult result;
    {
      const Scoped s(spans, "core.query", id);
      result = r.service.query(request.tune.kernel, request.tune.gpu,
                               request.tune.n);
    }
    const Scoped s(spans, "serve.render", id);
    return gs::serve::render_query_response(request, result);
  }
  bool admitted = false;
  {
    const Scoped s(spans, "serve.admission", id);
    admitted = r.admission.acquire();
  }
  if (!admitted) {
    const Scoped s(spans, "serve.render", id);
    return gs::serve::render_shed_response(request, "server at capacity");
  }
  struct Release {
    gs::serve::Admission& admission;
    ~Release() { admission.release(); }
  } release{r.admission};
  gs::core::TuneResponse response;
  {
    const Scoped s(spans, "core.tune", id);
    const std::int64_t start = now_ns();
    t_search_start_ns = 0;
    response = r.service.tune(request.tune);
    const std::int64_t end = now_ns();
    if (t_search_start_ns != 0) {
      spans.add("core.prepare", start, t_search_start_ns, id);
      spans.add("tuner.search", t_search_start_ns, end, id);
    } else {
      spans.add("core.flight_wait", start, end, id);
    }
  }
  if (!response.deduplicated && response.ok() && request.tune.store.write &&
      ++r.store_writes % 8 == 0) {
    const Scoped s(spans, "core.persist", id);
    r.service.persist();
  }
  const Scoped s(spans, "serve.render", id);
  return gs::serve::render_tune_response(request, response, false);
}

struct Replayed {
  std::vector<std::string> responses;  ///< parallel to the samples
  double wall_s = 0;
};

/// The untraced run's requests again, with its concurrency: closed loops
/// share one cursor over the same list prefix; the open loop keeps each
/// connection's order and due times.
Replayed replay(const Plan& plan, const Untraced& run, Replay& r,
                std::vector<SpanBuffer>& buffers) {
  Replayed out;
  out.responses.resize(run.samples.size());
  buffers.resize(static_cast<std::size_t>(plan.connections));
  std::atomic<std::size_t> cursor{0};
  std::vector<double> done_s(buffers.size(), 0);
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < buffers.size(); ++c) {
    threads.emplace_back([&, c] {
      const auto serve = [&](std::size_t k) {
        const Sample& s = run.samples[k];
        try {
          out.responses[k] =
              handle(r, buffers[c], render(plan.spec_at(s.item), s.item),
                     s.item);
        } catch (const std::exception& e) {
          out.responses[k] = std::string("exception: ") + e.what();
        }
      };
      if (!plan.open_loop) {
        for (std::size_t k = cursor++; k < run.samples.size(); k = cursor++)
          serve(k);
      } else {
        for (std::size_t k = 0; k < run.samples.size(); ++k) {
          if (run.samples[k].conn != static_cast<int>(c)) continue;
          std::this_thread::sleep_until(
              t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           run.samples[k].start_s)));
          serve(k);
        }
      }
      done_s[c] = seconds_since(t0);
    });
  }
  for (std::thread& t : threads) t.join();
  out.wall_s = *std::max_element(done_s.begin(), done_s.end());
  return out;
}

std::vector<double> durations(const std::vector<SpanBuffer>& buffers,
                              std::string_view name, double per_ns) {
  std::vector<double> out;
  for (const SpanBuffer& b : buffers)
    for (const Span& s : b.spans)
      if (name == s.name)
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) * per_ns);
  return out;
}

double sum(const std::vector<double>& xs) {
  double total = 0;
  for (const double x : xs) total += x;
  return total;
}

/// Measurable points of one context for the layer probes.
struct ProbeSet {
  gs::dsl::WorkloadDesc workload;
  const gs::arch::GpuSpec* gpu;
  std::vector<gs::codegen::TuningParams> points;
};

ProbeSet probe_set(const Context& ctx, gs::Rng& rng, std::size_t count) {
  ProbeSet p{gs::core::load_workload(ctx.kernel, ctx.n),
             &gs::arch::gpu(ctx.gpu), {}};
  const gs::tuner::ParamSpace space = gs::tuner::paper_space();
  for (std::size_t i = 0; i < count; ++i)
    p.points.push_back(
        space.to_params(space.point_at(rng.below(space.size()))));
  return p;
}

/// Mean time per measure() on a context whose plans are already built,
/// over the points that launch. Returns {seconds per point, points}.
std::pair<double, std::size_t> time_measure(const ProbeSet& p,
                                            gs::sim::Engine engine,
                                            int passes) {
  gs::sim::RunOptions run;
  run.engine = engine;
  gs::sim::SimContext context(p.workload, *p.gpu, run);
  std::vector<gs::codegen::TuningParams> valid;
  for (const auto& params : p.points) {
    try {
      if (context.measure(params).valid) valid.push_back(params);
    } catch (const std::exception&) {
      // Not a launchable point: left out of the timing.
    }
  }
  const Clock::time_point t0 = Clock::now();
  for (int pass = 0; pass < passes; ++pass)
    for (const auto& params : valid) (void)context.measure(params);
  const std::size_t n = valid.size() * static_cast<std::size_t>(passes);
  return {n == 0 ? 0 : seconds_since(t0) / static_cast<double>(n), n};
}

void write_spans(const std::string& path,
                 const std::vector<SpanBuffer>& buffers) {
  std::ofstream out(path);
  out << "thread,index,parent,request,name,start_ns,end_ns\n";
  for (std::size_t t = 0; t < buffers.size(); ++t)
    for (std::size_t i = 0; i < buffers[t].spans.size(); ++i) {
      const Span& s = buffers[t].spans[i];
      out << t << ',' << i << ',' << s.parent << ',' << s.request << ','
          << s.name << ',' << s.start_ns << ',' << s.end_ns << '\n';
    }
}

/// Distinct tuned contexts of the run (set-up included), all and warp.
/// Workloads that simulate nothing get the probe storms' small contexts
/// as warp contexts, so every workload probes the warp engine.
std::pair<std::vector<Context>, std::vector<Context>> run_contexts(
    const Plan& plan, const Untraced& run) {
  std::vector<Context> all;
  std::vector<Context> warp;
  std::set<std::pair<Context, bool>> seen;
  std::vector<Spec> specs = plan.seeding;
  for (const Sample& s : run.samples) specs.push_back(plan.spec_at(s.item));
  for (const Spec& s : specs) {
    if (s.op != "tune") continue;
    if (seen.insert({s.ctx, false}).second) all.push_back(s.ctx);
    if (s.warp && seen.insert({s.ctx, true}).second) warp.push_back(s.ctx);
  }
  if (warp.empty())
    for (const Spec& s : plan.probe_storms) warp.push_back(s.ctx);
  return {all, warp};
}

/// Single flight: the workload's own storms as replayed, plus the probe
/// storms, each released to four threads at once. Every storm must cost
/// one search; returns the mean number of searches per storm.
double storm_probe(const Plan& plan, const Untraced& run,
                   const Replayed& replayed, Replay& r,
                   std::vector<SpanBuffer>& buffers, Result& result) {
  std::map<int, std::vector<std::string>> storms;
  for (std::size_t k = 0; k < run.samples.size(); ++k) {
    const Spec spec = plan.spec_at(run.samples[k].item);
    if (spec.role == Role::Storm)
      storms[spec.storm].push_back(replayed.responses[k]);
  }
  int id = 1000000;  // above any storm number a workload uses
  for (const Spec& spec : plan.probe_storms) {
    const std::string line = render(spec, 0);
    std::vector<std::string> responses(buffers.size());
    std::latch start(static_cast<std::ptrdiff_t>(buffers.size()));
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < buffers.size(); ++t)
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        responses[t] =
            handle(r, buffers[t], line, static_cast<std::uint64_t>(id));
      });
    for (std::thread& t : threads) t.join();
    storms[id++] = responses;
  }
  double searches = 0;
  for (const auto& [storm, responses] : storms) {
    std::size_t paid = 0;
    for (const std::string& line : responses) {
      const gs::serve::JsonObject obj = gs::serve::parse_json_object(line);
      if (!field_flag(obj, "deduplicated") && field_number(obj, "fresh") > 0)
        ++paid;
    }
    if (paid != 1)
      result.problem("traced storm " + std::to_string(storm) + ": " +
                     std::to_string(paid) + " searches (want 1)");
    searches += static_cast<double>(paid);
  }
  return storms.empty() ? 0 : searches / static_cast<double>(storms.size());
}

/// Codegen and simulation on their own: a fresh compile per point, and
/// measure() on contexts whose compiles are already cached.
struct LayerProbes {
  std::vector<double> compile_us;
  double analytic_us_per_point = 0;
  double warp_ms_per_point = 0;
};

LayerProbes layer_probes(const std::vector<Context>& contexts,
                         const std::vector<Context>& warp_contexts,
                         gs::Rng& rng) {
  LayerProbes out;
  double analytic_s = 0;
  std::size_t analytic_n = 0;
  for (int i = 0; i < 4 && !contexts.empty(); ++i) {
    const ProbeSet p = probe_set(contexts[rng.below(contexts.size())], rng, 8);
    for (const auto& params : p.points) {
      gs::codegen::CompilationCache cache(p.workload, *p.gpu);
      const Clock::time_point t0 = Clock::now();
      try {
        (void)cache.lower(params);
        out.compile_us.push_back(seconds_since(t0) * 1e6);
      } catch (const std::exception&) {
        // An invalid point: nothing compiled, nothing timed.
      }
    }
    const auto [s, n] = time_measure(p, gs::sim::Engine::Analytic, 4);
    analytic_s += s * static_cast<double>(n);
    analytic_n += n;
  }
  double warp_s = 0;
  std::size_t warp_n = 0;
  for (int i = 0; i < 2 && !warp_contexts.empty(); ++i) {
    const ProbeSet p =
        probe_set(warp_contexts[rng.below(warp_contexts.size())], rng, 3);
    const auto [s, n] = time_measure(p, gs::sim::Engine::Warp, 1);
    warp_s += s * static_cast<double>(n);
    warp_n += n;
  }
  if (analytic_n > 0)
    out.analytic_us_per_point =
        analytic_s / static_cast<double>(analytic_n) * 1e6;
  if (warp_n > 0)
    out.warp_ms_per_point = warp_s / static_cast<double>(warp_n) * 1e3;
  return out;
}

/// Per-tune counts from the untraced run's responses.
struct Counts {
  double compiles_per_req = 0;
  double fresh_per_req = 0;
  double warm_hits_per_req = 0;
  /// Share of revisits that compiled nothing. A revisit is a tune sent
  /// after an earlier tune of the same context and engine had finished
  /// (seeded contexts count as finished), so it should find the context
  /// compiled unless the context cache was cleared in between.
  double hit_ratio = 1;
};

Counts untraced_counts(const Plan& plan, const Untraced& run) {
  std::vector<std::size_t> order(run.samples.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return run.samples[a].sent_s < run.samples[b].sent_s;
  });
  std::map<std::pair<Context, bool>, double> first_done;
  for (const auto& [ctx, answer] : run.seeded) first_done[{ctx, false}] = -1;
  double tunes = 0, compiles = 0, fresh = 0, warm = 0;
  double revisits = 0, revisit_hits = 0;
  for (const std::size_t k : order) {
    const Sample& sample = run.samples[k];
    const Spec spec = plan.spec_at(sample.item);
    const gs::serve::JsonObject& obj = run.responses[k];
    if (spec.op != "tune" || !answer_of(obj)) continue;
    tunes += 1;
    compiles += field_number(obj, "compiles");
    fresh += field_number(obj, "fresh");
    warm += field_number(obj, "warm");
    const auto key = std::make_pair(spec.ctx, spec.warp);
    const auto it = first_done.find(key);
    if (it != first_done.end() && it->second < sample.sent_s) {
      revisits += 1;
      if (field_number(obj, "compiles") == 0) revisit_hits += 1;
    }
    if (it == first_done.end() || sample.end_s < it->second)
      first_done[key] = sample.end_s;
  }
  Counts out;
  if (tunes > 0) {
    out.compiles_per_req = compiles / tunes;
    out.fresh_per_req = fresh / tunes;
    out.warm_hits_per_req = warm / tunes;
  }
  if (revisits > 0) out.hit_ratio = revisit_hits / revisits;
  return out;
}

}  // namespace

void run_traced(const Plan& plan, const Env& env, const Untraced& run,
                Result& result) {
  const std::string store = env.out_dir + "/" + plan.name + ".traced.store";
  std::filesystem::remove(store);
  std::filesystem::remove(store + ".lock");
  Replay r(store);

  // Same starting state as the daemon (spans of the set-up are dropped).
  SpanBuffer setup;
  for (std::size_t i = 0; i < plan.seeding.size(); ++i)
    (void)handle(r, setup, render(plan.seeding[i], i), i);

  std::vector<SpanBuffer> buffers;
  const Replayed replayed = replay(plan, run, r, buffers);
  for (std::size_t k = 0; k < run.samples.size(); ++k) {
    gs::serve::JsonObject traced;
    try {
      traced = gs::serve::parse_json_object(replayed.responses[k]);
    } catch (const std::exception&) {
      // Left empty: fails the status check below.
    }
    if (field_text(traced, "status") != "ok" ||
        answer_of(traced) != answer_of(run.responses[k]))
      result.problem("traced replay answered '" + replayed.responses[k] +
                     "' where the daemon answered '" +
                     run.samples[k].response + "'");
  }

  const auto [contexts, warp_contexts] = run_contexts(plan, run);
  std::vector<SpanBuffer> probes(4);
  const double searches_per_storm =
      storm_probe(plan, run, replayed, r, probes, result);
  // Store reads: one query per context of the run, at most 16.
  for (std::size_t i = 0; i < contexts.size() && i < 16; ++i) {
    Spec spec;
    spec.op = "query";
    spec.ctx = contexts[i];
    (void)handle(r, probes[0], render(spec, i), 2000000 + i);
  }
  gs::Rng rng(env.seed * 0x9e3779b97f4a7c15ULL + 29);
  const LayerProbes layers = layer_probes(contexts, warp_contexts, rng);
  const Counts counts = untraced_counts(plan, run);

  std::vector<SpanBuffer> all = buffers;
  all.insert(all.end(), probes.begin(), probes.end());
  write_spans(env.out_dir + "/spans_" + plan.name + ".csv", all);

  // Shares are of the replay's total request time; coverage is the part
  // of it that the top-level spans account for.
  const double request_ns = sum(durations(buffers, "request", 1));
  double top_level_ns = 0;
  for (const SpanBuffer& b : buffers)
    for (const Span& s : b.spans)
      if (s.parent >= 0 &&
          b.spans[static_cast<std::size_t>(s.parent)].parent < 0)
        top_level_ns += static_cast<double>(s.end_ns - s.start_ns);
  const auto share = [&](const char* name) {
    return request_ns > 0 ? sum(durations(buffers, name, 1)) / request_ns : 0;
  };
  const auto p50_us = [&](const std::vector<SpanBuffer>& from,
                          const char* name) {
    return median(durations(from, name, 1e-3));
  };
  result.per_layer = {
      {"serve.parse_us_p50", p50_us(buffers, "serve.parse"), "us", "lower"},
      {"serve.admission_wait_us_p99",
       quantile(durations(buffers, "serve.admission", 1e-3), 0.99), "us",
       "lower"},
      {"serve.render_us_p50", p50_us(buffers, "serve.render"), "us", "lower"},
      {"core.prepare_us_p50", p50_us(buffers, "core.prepare"), "us", "lower"},
      {"tuner.search_us_p50", p50_us(buffers, "tuner.search"), "us", "lower"},
      {"tuner.search_share", share("tuner.search"), "ratio", "lower"},
      {"core.persist_ms_p50", p50_us(buffers, "core.persist") / 1e3, "ms",
       "lower"},
      {"core.persist_share", share("core.persist"), "ratio", "lower"},
      {"core.flight_wait_ms_p50", p50_us(all, "core.flight_wait") / 1e3, "ms",
       "lower"},
      {"core.searches_per_storm", searches_per_storm, "count", "lower"},
      {"core.query_us_p50", p50_us(all, "core.query"), "us", "lower"},
      {"codegen.compiles_per_req", counts.compiles_per_req, "count", "lower"},
      {"codegen.compile_us_p50", median(layers.compile_us), "us", "lower"},
      {"codegen.hit_ratio", counts.hit_ratio, "ratio", "higher"},
      {"sim.analytic_us_per_point", layers.analytic_us_per_point, "us",
       "lower"},
      {"sim.warp_ms_per_point", layers.warp_ms_per_point, "ms", "lower"},
      {"tuner.fresh_per_req", counts.fresh_per_req, "count", "lower"},
      {"tuner.warm_hits_per_req", counts.warm_hits_per_req, "count",
       "higher"},
      {"tuner.store_records_end",
       field_number(run.stats_after, "store_records"), "count", "lower"},
      {"trace.coverage", request_ns > 0 ? top_level_ns / request_ns : 0,
       "ratio", "higher"},
      {"trace.wall_ratio", run.wall_s > 0 ? replayed.wall_s / run.wall_s : 0,
       "ratio", "lower"},
  };
}

}  // namespace e2e
