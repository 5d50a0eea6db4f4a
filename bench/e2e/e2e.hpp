#pragma once

// Shared types of the end-to-end benchmark (README.md): the request specs
// a workload is made of, the plan that orders them, what a measured run
// records, and the metric rows every part reports into.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace e2e {

namespace gs = gpustatic;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One tuning context: the (kernel, gpu, n) the daemon keys its store on.
struct Context {
  std::string kernel;
  std::string gpu;
  std::int64_t n = 0;
  friend auto operator<=>(const Context&, const Context&) = default;
};

/// What a request is for; selects the output check that applies to it.
enum class Role : std::uint8_t {
  Seed,   ///< setup tune that warms a context
  Warm,   ///< tune of a seeded context: must replay the seed's answer
  Query,  ///< store lookup of a seeded context
  Ping,
  Storm,  ///< one of four identical cold tunes due at the same instant
  Cold,   ///< first tune of its request key: checked against a reference
};

struct Spec {
  std::string op = "tune";  ///< tune | query | ping
  Context ctx;
  std::string method = "rule";
  bool warp = false;        ///< warp engine (else analytic)
  std::size_t budget = 16;  ///< hybrid empirical budget
  Role role = Role::Cold;
  int storm = -1;           ///< storm number (Role::Storm only)
};

/// The request line the daemon receives for `spec`, built through
/// serve::render_request so the wire format lives in one place.
[[nodiscard]] std::string render(const Spec& spec, std::uint64_t id);
/// One-line description of a request, as expected_seed1.txt lists it.
[[nodiscard]] std::string describe(const Spec& spec);

/// An open-loop send: `spec` leaves on connection `conn` at `due_s`.
struct Send {
  double due_s = 0;
  int conn = 0;
  Spec spec;
};

struct Plan {
  std::string name;
  bool open_loop = false;
  int connections = 1;
  /// The operation whose latency the workload reports.
  std::string timed_op = "tune";
  /// Warm tunes must also report compiles:0. False when the workload's
  /// working set can outgrow the daemon's 64-entry context cache.
  bool warm_compiles_zero = true;
  std::vector<Spec> seeding;
  /// Closed loop: request i of the list the connections share; nullopt
  /// past its end.
  std::function<std::optional<Spec>(std::size_t)> item;
  /// Closed loop: list indices that start a round. A run ends at the first
  /// round start after --seconds; no rounds = any item ends it.
  std::vector<std::size_t> round_starts;
  /// Open loop: every send, sorted by due time.
  std::vector<Send> schedule;
  /// Storm tunes on contexts no request of this plan touches, for the
  /// traced run's single-flight probe.
  std::vector<Spec> probe_storms;

  /// The spec behind a sample's item index.
  [[nodiscard]] Spec spec_at(std::size_t i) const {
    return open_loop ? schedule.at(i).spec : *item(i);
  }
};

[[nodiscard]] const std::vector<std::string>& workload_names();
/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] Plan make_plan(const std::string& name, std::uint64_t seed,
                             double seconds);

/// One request of a measured run.
struct Sample {
  std::size_t item = 0;  ///< plan list index (closed) or schedule index
  int conn = 0;
  double start_s = 0;    ///< send (closed) or due (open) time since start
  double sent_s = 0;     ///< when the line actually left
  double end_s = -1;     ///< response arrival since start; < 0 = missing
  std::string response;
};

/// A tune's answer as the output checks compare it.
struct Answer {
  std::string best;
  double time_ms = 0;
  friend bool operator==(const Answer&, const Answer&) = default;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string better;  ///< "higher" | "lower"
};

/// Everything the untraced run of one workload produced.
struct Untraced {
  std::vector<Sample> samples;  ///< sorted by item
  std::vector<gs::serve::JsonObject> responses;  ///< parsed, per sample
  double wall_s = 0;
  std::vector<double> setup_s;  ///< one per set-up repetition
  double setup_rss_mb = 0;  ///< daemon resident memory after set-up
  double peak_rss_mb = 0;   ///< daemon peak resident memory, end of run
  gs::serve::JsonObject stats_before;  ///< after seeding
  gs::serve::JsonObject stats_after;
  std::map<Context, Answer> seeded;
};

/// A workload's outcome: output-check failures plus metric rows.
struct Result {
  std::string workload;
  bool open_loop = false;
  int connections = 0;  ///< generator connections (and closed-loop threads)
  std::size_t attempted = 0;
  std::size_t failed = 0;  ///< requests that failed or failed a check
  std::vector<std::string> problems;
  std::vector<Metric> end_to_end;
  std::vector<Metric> extra;      ///< reported, not gated
  std::vector<Metric> per_layer;  ///< traced runs only
  [[nodiscard]] bool correct() const { return problems.empty(); }
  void problem(std::string what) { problems.push_back(std::move(what)); }
};

/// Where the run's files go and what the checks compare against.
struct Env {
  std::string gpustatic;  ///< the CLI binary
  std::string out_dir;
  std::string expected;   ///< expected_seed1.txt
  std::string git_rev = "unknown";
  std::uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
};

// ---- statistics -------------------------------------------------------

/// Nearest-rank quantile (q in [0,1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> xs, double q);
[[nodiscard]] double median(std::vector<double> xs);

// ---- the parts ----------------------------------------------------------

/// Start the daemon, set up, drive the plan over TCP, stop the daemon.
/// Lifecycle and protocol problems land in `result`.
[[nodiscard]] Untraced run_untraced(const Plan& plan, const Env& env,
                                    Result& result);

/// Output checks on the untraced run, then the end-to-end metrics.
void check_and_measure(const Plan& plan, const Env& env,
                       const Untraced& run, Result& result);

/// Per-layer metrics: counts from `run`, spans from an in-process replay
/// of the same requests, and layer probes.
void run_traced(const Plan& plan, const Env& env, const Untraced& run,
                Result& result);

/// The in-process reference answer for each spec (store off, so each
/// answer is computed afresh); nullopt where the tune failed.
[[nodiscard]] std::vector<std::optional<Answer>> reference_answers(
    const std::vector<Spec>& specs);

/// Answer fields of a tune response object.
[[nodiscard]] std::optional<Answer> answer_of(
    const gs::serve::JsonObject& response);
/// One response field; NaN, false or "" when absent.
[[nodiscard]] double field_number(const gs::serve::JsonObject& obj,
                                  const char* key);
[[nodiscard]] bool field_flag(const gs::serve::JsonObject& obj,
                              const char* key);
[[nodiscard]] std::string field_text(const gs::serve::JsonObject& obj,
                                     const char* key);

/// The results file and the table on stdout.
void write_results(const Env& env, const std::vector<Result>& results);
void print_table(const Result& result);

}  // namespace e2e
