// The four workloads, generated from --seed. The daemon sees only the
// request lines these specs render to. README.md says why each workload
// exists and which layers it stresses.

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "e2e.hpp"

namespace e2e {

namespace {

// Kernels by the sizes they accept. matvec2d, gemver, jacobi2d and ex14fj
// need powers of two; other sizes fail in-band ("divisor must be a power
// of two").
const std::vector<std::string> kAnyN = {"atax", "bicg", "gesummv", "mvt",
                                        "divergent"};
const std::vector<std::string> kPow2 = {"matvec2d", "gemver", "jacobi2d",
                                        "ex14fj"};
const std::vector<std::string> kGpus = {"M2050", "K20", "M40", "P100"};

bool accepts_any_n(const std::string& kernel) {
  return std::find(kAnyN.begin(), kAnyN.end(), kernel) != kAnyN.end();
}

std::vector<std::string> all_kernels() {
  std::vector<std::string> out = kAnyN;
  out.insert(out.end(), kPow2.begin(), kPow2.end());
  return out;
}

/// Problem sizes for one purpose. The purposes use disjoint sizes, so a
/// storm or probe never lands on a seeded or cold context: the store keys
/// records on (kernel, gpu, n), not on the method or engine, and records
/// from another search would change the answers the checks expect.
struct Sizes {
  std::int64_t any_lo = 0;  ///< any-n kernels: uniform in [any_lo, any_hi]
  std::int64_t any_hi = 0;
  std::vector<std::int64_t> pow2;    ///< matvec2d, gemver, jacobi2d
  std::vector<std::int64_t> ex14fj;  ///< n^3 grid, so much smaller
};

const Sizes kWarmSizes{64, 320, {64, 128, 256}, {16, 32}};
const Sizes kColdSizes{50, 600, {32, 64, 128, 256, 512, 1024, 2048},
                       {16, 32, 64, 128, 256}};

// Storms use any-n sizes in [20, 44] (and the smallest power-of-two
// ones); hybrid_warp uses n from 48 up, per round.
constexpr std::int64_t kStormLo = 20;
constexpr std::int64_t kStormHi = 44;
constexpr std::int64_t kHybridLo = 48;

/// Distinct contexts drawn at random within a Sizes table.
class ContextDraw {
 public:
  ContextDraw(gs::Rng& rng, const Sizes& sizes)
      : rng_(&rng), sizes_(&sizes) {}

  /// A context of `kernel` on `gpu` not drawn before; nullopt when that
  /// pair has no size left.
  std::optional<Context> draw(const std::string& kernel,
                              const std::string& gpu) {
    if (accepts_any_n(kernel)) {
      for (int attempt = 0; attempt < 64; ++attempt) {
        Context c{kernel, gpu, rng_->range(sizes_->any_lo, sizes_->any_hi)};
        if (used_.insert(c).second) return c;
      }
      return std::nullopt;
    }
    const std::vector<std::int64_t>& sizes =
        kernel == "ex14fj" ? sizes_->ex14fj : sizes_->pow2;
    std::vector<Context> free;
    for (const std::int64_t n : sizes) {
      Context c{kernel, gpu, n};
      if (!used_.contains(c)) free.push_back(std::move(c));
    }
    if (free.empty()) return std::nullopt;
    Context c = free[rng_->below(free.size())];
    used_.insert(c);
    return c;
  }

  /// As draw(), on a random GPU that still has a size left.
  std::optional<Context> draw_any_gpu(const std::string& kernel) {
    std::vector<std::string> gpus = kGpus;
    rng_->shuffle(gpus);
    for (const std::string& gpu : gpus)
      if (auto c = draw(kernel, gpu)) return c;
    return std::nullopt;
  }

 private:
  gs::Rng* rng_;
  const Sizes* sizes_;
  std::set<Context> used_;
};

/// Up to `count` distinct contexts in rounds that each visit every kernel
/// once in random order, so any prefix of the list has about the same
/// kernel mix whatever the seed. Kernels whose sizes run out drop out.
std::vector<Context> balanced_contexts(gs::Rng& rng, const Sizes& sizes,
                                       std::size_t count) {
  ContextDraw draw(rng, sizes);
  std::vector<std::string> kernels = all_kernels();
  std::vector<Context> out;
  while (out.size() < count && !kernels.empty()) {
    rng.shuffle(kernels);
    std::vector<std::string> exhausted;
    for (const std::string& k : kernels) {
      if (out.size() == count) break;
      if (auto c = draw.draw_any_gpu(k))
        out.push_back(std::move(*c));
      else
        exhausted.push_back(k);
    }
    std::erase_if(kernels, [&](const std::string& k) {
      return std::find(exhausted.begin(), exhausted.end(), k) !=
             exhausted.end();
    });
  }
  return out;
}

/// The 48 seeded contexts of warm_hit and dashboard_open: on each GPU all
/// nine kernels plus three more any-n ones. Fixing the per-GPU mix keeps
/// the store (whose size sets the persist cost) about the same size for
/// every seed.
std::vector<Context> warm_contexts(std::uint64_t seed) {
  gs::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  ContextDraw draw(rng, kWarmSizes);
  std::vector<Context> out;
  for (const std::string& gpu : kGpus) {
    std::vector<std::string> kernels = all_kernels();
    for (int extra = 0; extra < 3; ++extra)
      kernels.push_back(kAnyN[rng.below(kAnyN.size())]);
    for (const std::string& k : kernels) out.push_back(*draw.draw(k, gpu));
  }
  rng.shuffle(out);
  return out;
}

/// Every storm context, shuffled: sizes no other purpose uses.
std::vector<Context> storm_pool(std::uint64_t seed) {
  std::vector<Context> pool;
  for (const std::string& gpu : kGpus) {
    for (const std::string& k : kAnyN)
      for (std::int64_t n = kStormLo; n <= kStormHi; n += 4)
        pool.push_back({k, gpu, n});
    for (const char* k : {"matvec2d", "gemver", "jacobi2d"})
      pool.push_back({k, gpu, 16});
    for (const std::int64_t n : {4, 8}) pool.push_back({"ex14fj", gpu, n});
  }
  gs::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 13);
  rng.shuffle(pool);
  return pool;
}

constexpr std::size_t kProbeStorms = 3;

Spec tune_spec(Context ctx, std::string method, Role role) {
  Spec s;
  s.ctx = std::move(ctx);
  s.method = std::move(method);
  s.role = role;
  return s;
}

/// A storm member: a cold hybrid tune on the analytic engine, a few ms of
/// compiles and ranking — long enough for the other three to join it.
Spec storm_spec(Context ctx, int storm) {
  Spec s = tune_spec(std::move(ctx), "hybrid", Role::Storm);
  s.storm = storm;
  return s;
}

/// Two visits per context: the first in context order, the second a
/// random [gap_lo, gap_hi] contexts later. Revisits at that distance hit
/// the daemon's context cache unless it was cleared in between.
std::vector<Spec> two_visits(
    const std::vector<std::pair<Spec, Spec>>& visits, gs::Rng& rng,
    std::int64_t gap_lo, std::int64_t gap_hi) {
  struct Slot {
    double at;
    std::size_t order;
    const Spec* spec;
  };
  std::vector<Slot> slots;
  for (std::size_t i = 0; i < visits.size(); ++i) {
    const double first = static_cast<double>(i);
    slots.push_back({first, 2 * i, &visits[i].first});
    slots.push_back(
        {first + static_cast<double>(rng.range(gap_lo, gap_hi)) + 0.5,
         2 * i + 1, &visits[i].second});
  }
  std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
    return a.at != b.at ? a.at < b.at : a.order < b.order;
  });
  std::vector<Spec> out;
  out.reserve(slots.size());
  for (const Slot& s : slots) out.push_back(*s.spec);
  return out;
}

std::function<std::optional<Spec>(std::size_t)> list_items(
    std::vector<Spec> list) {
  return [list = std::move(list)](std::size_t i) -> std::optional<Spec> {
    if (i >= list.size()) return std::nullopt;
    return list[i];
  };
}

std::vector<Spec> seed_tunes(const std::vector<Context>& contexts) {
  std::vector<Spec> out;
  for (const Context& c : contexts)
    out.push_back(tune_spec(c, "rule", Role::Seed));
  return out;
}

// warm_hit: closed loop, 1 connection, rule tunes drawn uniformly from
// the 48 seeded contexts — the store-answered path, one client re-tuning
// its kernels. Every 8th tune rewrites the whole store. A second
// connection would wait on the store lock during each rewrite, which
// makes about a quarter of the requests slow and the throughput swing
// with lock hand-off timing from run to run; dashboard_open covers
// concurrent reads and writes.
Plan warm_hit(std::uint64_t seed) {
  Plan p;
  p.name = "warm_hit";
  p.connections = 1;
  const std::vector<Context> contexts = warm_contexts(seed);
  p.seeding = seed_tunes(contexts);
  p.item = [contexts, seed](std::size_t i) -> std::optional<Spec> {
    gs::SplitMix64 mix(seed * 0x9e3779b97f4a7c15ULL + i);
    return tune_spec(contexts[mix.next() % contexts.size()], "rule",
                     Role::Warm);
  };
  return p;
}

// cold_static: closed loop, 1 connection, two methods per fresh context on
// the analytic engine — the paper's zero-run tuning, one kernel at a time.
Plan cold_static(std::uint64_t seed) {
  Plan p;
  p.name = "cold_static";
  p.connections = 1;
  gs::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  const std::vector<Context> contexts =
      balanced_contexts(rng, kColdSizes, 600);
  static const std::pair<const char*, const char*> kPairs[] = {
      {"rule", "static"}, {"rule", "hybrid"}, {"static", "hybrid"}};
  const std::size_t offset = rng.below(3);
  std::vector<std::pair<Spec, Spec>> visits;
  for (std::size_t i = 0; i < contexts.size(); ++i) {
    auto [a, b] = kPairs[(i + offset) % 3];
    if (rng.chance(0.5)) std::swap(a, b);
    visits.emplace_back(tune_spec(contexts[i], a, Role::Cold),
                        tune_spec(contexts[i], b, Role::Cold));
  }
  p.item = list_items(two_visits(visits, rng, 1, 24));
  return p;
}

// hybrid_warp: closed loop, 4 connections, hybrid tunes on the warp
// engine with budget 16 and then 32 per context — simulation-bound. The
// list comes in rounds: each round tunes every (any-n kernel, GPU) pair
// once, in random order, at n two above the last round's, so
// every seed does the same work per round. The run ends at the first
// round boundary after --seconds. (Power-of-two kernels have too few
// cheap warp sizes to fill the rounds; cold_static covers them.)
Plan hybrid_warp(std::uint64_t seed) {
  constexpr std::int64_t kRounds = 30;
  Plan p;
  p.name = "hybrid_warp";
  p.connections = 4;
  gs::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 19);
  std::vector<Spec> list;
  for (std::int64_t round = 0; round < kRounds; ++round) {
    std::vector<std::pair<Spec, Spec>> visits;
    for (const std::string& kernel : kAnyN) {
      for (const std::string& gpu : kGpus) {
        const std::int64_t n = kHybridLo + 2 * round + rng.range(0, 1);
        Spec first = tune_spec({kernel, gpu, n}, "hybrid", Role::Cold);
        first.warp = true;
        Spec second = first;
        second.budget = 32;
        visits.emplace_back(std::move(first), std::move(second));
      }
    }
    rng.shuffle(visits);
    p.round_starts.push_back(list.size());
    for (Spec& s : two_visits(visits, rng, 2, 12)) list.push_back(std::move(s));
  }
  p.item = list_items(std::move(list));
  return p;
}

// dashboard_open: open loop at 20 events/s over 4 pipelined connections,
// from the warm_hit seed: a dashboard reading the store while tuners
// write to it. Events arrive at a fixed cadence in a fixed 20-event cycle:
// 15 queries, 2 warm tunes, 2 pings and 1 storm (4 identical cold tunes,
// one per connection, due together); the seed picks the contexts, so every
// seed has the same timing. Latency is the queries'. About 3% of them wait
// behind a store rewrite or a storm on their connection; at 30 events/s
// it is 6-7%, close enough to 10% that p90 would jump into the blocked
// mode whenever the machine runs slower.
Plan dashboard_open(std::uint64_t seed, double seconds,
                    std::vector<Context> storms) {
  constexpr double kRate = 20;
  constexpr std::string_view kCycle = "sqqqqtqqqqpqqqqtqqqp";
  Plan p;
  p.name = "dashboard_open";
  p.open_loop = true;
  p.connections = 4;
  p.timed_op = "query";
  p.warm_compiles_zero = false;
  const std::vector<Context> contexts = warm_contexts(seed);
  p.seeding = seed_tunes(contexts);
  gs::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 23);
  std::size_t next_storm = 0;
  int next_conn = 0;
  const auto events = static_cast<std::size_t>(std::llround(kRate * seconds));
  for (std::size_t i = 0; i < events; ++i) {
    const double t = (static_cast<double>(i) + 0.5) / kRate;
    char kind = kCycle[i % kCycle.size()];
    if (kind == 's' && next_storm == storms.size()) kind = 'q';
    if (kind == 's') {
      for (int c = 0; c < p.connections; ++c)
        p.schedule.push_back({t, c,
                              storm_spec(storms[next_storm],
                                         static_cast<int>(next_storm))});
      ++next_storm;
      continue;
    }
    Spec s;
    if (kind == 'p') {
      s.op = "ping";
      s.role = Role::Ping;
    } else {
      s = tune_spec(contexts[rng.below(contexts.size())], "rule",
                    kind == 'q' ? Role::Query : Role::Warm);
      if (kind == 'q') s.op = "query";
    }
    p.schedule.push_back({t, next_conn, std::move(s)});
    next_conn = (next_conn + 1) % p.connections;
  }
  return p;
}

}  // namespace

std::string render(const Spec& spec, std::uint64_t id) {
  gs::serve::WireRequest w;
  w.op = spec.op;
  w.id = id;
  w.has_id = true;
  w.tune.kernel = spec.ctx.kernel;
  w.tune.gpu = spec.ctx.gpu;
  w.tune.n = spec.ctx.n;
  w.tune.method = spec.method;
  w.tune.hybrid.empirical_budget = spec.budget;
  w.tune.run.engine =
      spec.warp ? gs::sim::Engine::Warp : gs::sim::Engine::Analytic;
  return gs::serve::render_request(w);
}

std::string describe(const Spec& s) {
  return gs::str::format("%s %s %s %s n=%lld %s budget=%zu", s.op.c_str(),
                         s.method.c_str(), s.ctx.kernel.c_str(),
                         s.ctx.gpu.c_str(), static_cast<long long>(s.ctx.n),
                         s.warp ? "warp" : "analytic", s.budget);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "warm_hit", "cold_static", "hybrid_warp", "dashboard_open"};
  return names;
}

Plan make_plan(const std::string& name, std::uint64_t seed,
               double seconds) {
  std::vector<Context> storms = storm_pool(seed);
  std::vector<Spec> probes;
  for (std::size_t i = 0; i < kProbeStorms; ++i)
    probes.push_back(storm_spec(storms[i], static_cast<int>(i)));
  storms.erase(storms.begin(), storms.begin() + kProbeStorms);
  Plan p;
  if (name == "warm_hit")
    p = warm_hit(seed);
  else if (name == "cold_static")
    p = cold_static(seed);
  else if (name == "hybrid_warp")
    p = hybrid_warp(seed);
  else if (name == "dashboard_open")
    p = dashboard_open(seed, seconds, std::move(storms));
  else
    throw std::invalid_argument("unknown workload '" + name + "'");
  p.probe_storms = probes;
  return p;
}

}  // namespace e2e
