#include "transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <vector>

extern char** environ;

namespace e2e {

namespace {

constexpr std::string_view kListening = "listening on 127.0.0.1:";

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

Daemon::Daemon(const std::string& exe, const std::string& store) {
  // Everything the child needs is built before fork(): between fork and
  // exec only async-signal-safe calls are allowed.
  std::vector<std::string> args = {exe,   "serve",   "--port",
                                   "0",   "--store", store};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::vector<std::string> env_strings = {"GPUSTATIC_THREADS=4"};
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "GPUSTATIC_", 10) != 0) env_strings.emplace_back(*e);
  std::vector<char*> envp;
  for (std::string& e : env_strings) envp.push_back(e.data());
  envp.push_back(nullptr);

  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) fail("pipe");
  const pid_t parent = getpid();
  pid_ = fork();
  if (pid_ < 0) {
    const int err = errno;
    close(fds[0]);
    close(fds[1]);
    errno = err;
    fail("fork");
  }
  if (pid_ == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(126);
    dup2(fds[1], STDOUT_FILENO);
    dup2(fds[1], STDERR_FILENO);
    execve(exe.c_str(), argv.data(), envp.data());
    _exit(127);
  }
  close(fds[1]);
  out_fd_ = fds[0];

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (port_ == 0) {
    const std::size_t at = log_.find(kListening);
    if (at != std::string::npos &&
        log_.find('\n', at) != std::string::npos) {
      port_ = std::atoi(log_.c_str() + at + kListening.size());
      break;
    }
    if (std::chrono::steady_clock::now() > deadline || !drain(100)) {
      kill_now();
      close(out_fd_);
      throw std::runtime_error("daemon did not start listening: " + log_);
    }
  }
}

Daemon::~Daemon() {
  kill_now();
  if (out_fd_ >= 0) close(out_fd_);
}

void Daemon::kill_now() {
  if (pid_ <= 0) return;
  kill(pid_, SIGKILL);
  waitpid(pid_, nullptr, 0);
  pid_ = -1;
}

bool Daemon::drain(int timeout_ms) {
  pollfd p{out_fd_, POLLIN, 0};
  const int ready = poll(&p, 1, timeout_ms);
  if (ready <= 0) return ready == 0 || errno == EINTR;
  char chunk[4096];
  const ssize_t got = read(out_fd_, chunk, sizeof chunk);
  if (got <= 0) return false;
  log_.append(chunk, static_cast<std::size_t>(got));
  return true;
}

double Daemon::memory_mb(const std::string& field) const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  const std::string prefix = field + ":";
  std::string line;
  while (std::getline(status, line))
    if (line.rfind(prefix, 0) == 0)
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
  return 0;
}

Daemon::Exit Daemon::stop() {
  Exit out;
  if (pid_ <= 0) return out;
  kill(pid_, SIGTERM);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  int status = 0;
  while (true) {
    const pid_t done = waitpid(pid_, &status, WNOHANG);
    if (done == pid_) break;
    if (std::chrono::steady_clock::now() > deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      status = -1;
      break;
    }
    drain(10);
  }
  pid_ = -1;
  while (drain(0)) {
  }
  if (status != -1 && WIFEXITED(status)) out.status = WEXITSTATUS(status);
  out.log = log_;
  return out;
}

Connection::Connection(int port) {
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) fail("socket");
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    close(fd_);
    fd_ = -1;
    fail("connect");
  }
}

Connection::~Connection() {
  if (fd_ >= 0) close(fd_);
}

bool Connection::send_line(std::string_view line) {
  std::string out(line);
  out.push_back('\n');
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t wrote =
        send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote <= 0) return false;
    sent += static_cast<std::size_t>(wrote);
  }
  return true;
}

bool Connection::take_line(std::string& line) {
  const std::size_t nl = buffer_.find('\n');
  if (nl == std::string::npos) return false;
  line.assign(buffer_, 0, nl);
  buffer_.erase(0, nl + 1);
  return true;
}

bool Connection::fill() {
  char chunk[16384];
  ssize_t got;
  do {
    got = recv(fd_, chunk, sizeof chunk, 0);
  } while (got < 0 && errno == EINTR);
  if (got <= 0) return false;
  buffer_.append(chunk, static_cast<std::size_t>(got));
  return true;
}

bool Connection::read_line(std::string& line) {
  while (!take_line(line))
    if (!fill()) return false;
  return true;
}

}  // namespace e2e
