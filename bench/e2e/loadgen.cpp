// The untraced run: a real daemon driven over loopback TCP from this one
// process (one thread per closed-loop connection, or one event loop for
// the open loop), with set-up, shutdown and store reload checks.

#include <poll.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "e2e.hpp"
#include "transport.hpp"
#include "tuner/store.hpp"

namespace e2e {

namespace {

gs::serve::JsonObject parse_or_empty(const std::string& line) {
  try {
    return gs::serve::parse_json_object(line);
  } catch (const std::exception&) {
    return {};
  }
}

gs::serve::JsonObject daemon_stats(int port) {
  Connection c(port);
  std::string line;
  if (!c.send_line(R"({"op":"stats"})") || !c.read_line(line))
    throw std::runtime_error("no response to stats");
  return gs::serve::parse_json_object(line);
}

/// The seeding tunes over one connection; each context's answer.
std::map<Context, Answer> seed(const Plan& plan, int port, Result& result) {
  std::map<Context, Answer> seeded;
  if (plan.seeding.empty()) return seeded;
  Connection c(port);
  for (std::size_t i = 0; i < plan.seeding.size(); ++i) {
    const Spec& spec = plan.seeding[i];
    std::string line;
    if (!c.send_line(render(spec, i)) || !c.read_line(line))
      throw std::runtime_error("seeding: daemon stopped answering");
    const gs::serve::JsonObject obj = parse_or_empty(line);
    const std::optional<Answer> answer = answer_of(obj);
    if (!answer) {
      result.problem("seeding tune failed: " + line);
      continue;
    }
    seeded[spec.ctx] = *answer;
  }
  return seeded;
}

/// Closed loop: every connection takes the next request of the shared
/// list as soon as its previous response arrived, until `seconds` pass
/// (and, for a list in rounds, the current round is done). Latency counts
/// from the send.
std::vector<Sample> run_closed(const Plan& plan, int port, double seconds) {
  std::vector<std::unique_ptr<Connection>> conns;
  for (int c = 0; c < plan.connections; ++c)
    conns.push_back(std::make_unique<Connection>(port));
  std::mutex mu;
  std::size_t next = 0;  // guarded by mu
  bool closed = false;   // guarded by mu
  const Clock::time_point t0 = Clock::now();
  const auto take = [&]() -> std::optional<std::pair<std::size_t, Spec>> {
    const std::lock_guard<std::mutex> lock(mu);
    const bool boundary =
        plan.round_starts.empty() ||
        std::binary_search(plan.round_starts.begin(),
                           plan.round_starts.end(), next);
    std::optional<Spec> spec;
    if (!closed && !(boundary && seconds_since(t0) >= seconds))
      spec = plan.item(next);
    if (!spec) {
      closed = true;
      return std::nullopt;
    }
    return std::make_pair(next++, std::move(*spec));
  };
  std::vector<std::vector<Sample>> per_conn(conns.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    threads.emplace_back([&, c] {
      while (const auto job = take()) {
        const std::string line = render(job->second, job->first);
        Sample s;
        s.item = job->first;
        s.conn = static_cast<int>(c);
        s.start_s = s.sent_s = seconds_since(t0);
        const bool answered =
            conns[c]->send_line(line) && conns[c]->read_line(s.response);
        if (answered) s.end_s = seconds_since(t0);
        per_conn[c].push_back(std::move(s));
        if (!answered) break;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<Sample> out;
  for (auto& v : per_conn)
    for (Sample& s : v) out.push_back(std::move(s));
  return out;
}

/// Open loop: one event loop sends each request at its due time on its
/// connection, whatever is still outstanding, and matches responses to
/// requests in order per connection. Latency counts from the due time.
std::vector<Sample> run_open(const Plan& plan, int port) {
  std::vector<std::unique_ptr<Connection>> conns;
  for (int c = 0; c < plan.connections; ++c)
    conns.push_back(std::make_unique<Connection>(port));
  const std::vector<Send>& schedule = plan.schedule;
  std::vector<std::string> lines;
  std::vector<Sample> samples(schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    lines.push_back(render(schedule[i].spec, i));
    samples[i].item = i;
    samples[i].conn = schedule[i].conn;
    samples[i].start_s = schedule[i].due_s;
  }
  const double give_up_s =
      (schedule.empty() ? 0 : schedule.back().due_s) + 60;
  std::vector<std::deque<std::size_t>> inflight(conns.size());
  std::vector<pollfd> fds;
  for (const auto& c : conns) fds.push_back({c->fd(), POLLIN, 0});
  std::size_t next = 0;
  std::size_t pending = 0;
  const Clock::time_point t0 = Clock::now();
  while (next < schedule.size() || pending > 0) {
    const double now = seconds_since(t0);
    if (now > give_up_s) break;
    while (next < schedule.size() && schedule[next].due_s <= now) {
      const auto c = static_cast<std::size_t>(schedule[next].conn);
      samples[next].sent_s = seconds_since(t0);
      if (fds[c].fd >= 0 && conns[c]->send_line(lines[next])) {
        inflight[c].push_back(next);
        ++pending;
      }
      ++next;
    }
    const double wait_s =
        next < schedule.size()
            ? std::max(0.0, schedule[next].due_s - seconds_since(t0))
            : 0.25;
    timespec ts{static_cast<time_t>(wait_s),
                static_cast<long>(std::fmod(wait_s, 1.0) * 1e9)};
    if (ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;
    for (std::size_t c = 0; c < fds.size(); ++c) {
      if (fds[c].fd < 0 || fds[c].revents == 0) continue;
      if (!conns[c]->fill()) {
        fds[c].fd = -1;  // dead connection: its outstanding stay missing
        pending -= inflight[c].size();
        inflight[c].clear();
        continue;
      }
      std::string line;
      while (!inflight[c].empty() && conns[c]->take_line(line)) {
        Sample& s = samples[inflight[c].front()];
        inflight[c].pop_front();
        --pending;
        s.response = std::move(line);
        s.end_s = seconds_since(t0);
      }
    }
  }
  return samples;
}

}  // namespace

Untraced run_untraced(const Plan& plan, const Env& env, Result& result) {
  Untraced run;
  const std::string store = env.out_dir + "/" + plan.name + ".store";
  // Set-up is repeated and its median reported. Seeded workloads pay for
  // 48 tunes per set-up, the others only for the daemon's start.
  const int repetitions = plan.seeding.empty() ? 9 : 3;
  std::unique_ptr<Daemon> daemon;
  for (int r = 0; r < repetitions; ++r) {
    if (daemon) (void)daemon->stop();
    std::filesystem::remove(store);
    std::filesystem::remove(store + ".lock");
    const Clock::time_point t0 = Clock::now();
    daemon = std::make_unique<Daemon>(env.gpustatic, store);
    std::map<Context, Answer> seeded = seed(plan, daemon->port(), result);
    run.setup_s.push_back(seconds_since(t0));
    if (r > 0 && seeded != run.seeded)
      result.problem("seeding answers differ between set-ups");
    run.seeded = std::move(seeded);
  }

  run.setup_rss_mb = daemon->memory_mb("VmRSS");
  run.stats_before = daemon_stats(daemon->port());
  run.samples = plan.open_loop ? run_open(plan, daemon->port())
                               : run_closed(plan, daemon->port(),
                                            env.seconds);
  std::sort(run.samples.begin(), run.samples.end(),
            [](const Sample& a, const Sample& b) { return a.item < b.item; });
  for (const Sample& s : run.samples) {
    run.wall_s = std::max(run.wall_s, s.end_s);
    run.responses.push_back(parse_or_empty(s.response));
  }
  run.stats_after = daemon_stats(daemon->port());
  run.peak_rss_mb = daemon->memory_mb("VmHWM");
  {
    std::ofstream csv(env.out_dir + "/samples_" + plan.name + ".csv");
    csv << "item,conn,op,start_s,sent_s,end_s\n";
    for (const Sample& s : run.samples)
      csv << s.item << ',' << s.conn << ',' << plan.spec_at(s.item).op << ','
          << s.start_s << ',' << s.sent_s << ',' << s.end_s << '\n';
  }

  // Orderly shutdown: SIGTERM must drain, persist and say so, and the
  // persisted store must reload without a warning.
  const Daemon::Exit exit = daemon->stop();
  if (exit.status != 0)
    result.problem("daemon exit status " + std::to_string(exit.status));
  if (exit.log.find("shut down cleanly") == std::string::npos)
    result.problem("daemon log lacks \"shut down cleanly\": " + exit.log);
  try {
    std::vector<std::string> warnings;
    const gs::tuner::TuningStore reloaded =
        gs::tuner::TuningStore::load(store, &warnings);
    for (const std::string& w : warnings)
      result.problem("store reload warning: " + w);
    const auto it = run.stats_after.find("store_records");
    if (it == run.stats_after.end() ||
        static_cast<double>(reloaded.size()) != it->second.number)
      result.problem("reloaded store has " +
                     std::to_string(reloaded.size()) +
                     " records, stats reported a different count");
  } catch (const std::exception& e) {
    result.problem(std::string("store reload failed: ") + e.what());
  }
  return run;
}

}  // namespace e2e
