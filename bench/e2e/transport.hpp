#pragma once

// The daemon process and the TCP connections the load generator drives it
// through.

#include <sys/types.h>

#include <string>
#include <string_view>

namespace e2e {

/// A `gpustatic serve --port 0 --store <store>` child process with
/// GPUSTATIC_THREADS=4. The constructor returns once the daemon is
/// listening (or throws). The child dies with this process
/// (PR_SET_PDEATHSIG), and the destructor kills and reaps a daemon that
/// stop() did not.
class Daemon {
 public:
  Daemon(const std::string& exe, const std::string& store);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] int port() const { return port_; }
  /// A memory line of /proc/<pid>/status ("VmRSS", "VmHWM") in MiB; 0
  /// when unreadable.
  [[nodiscard]] double memory_mb(const std::string& field) const;

  struct Exit {
    int status = -1;  ///< exit code; -1 when killed or not exited in time
    std::string log;  ///< everything the daemon printed
  };
  /// SIGTERM, then wait (bounded) for a clean exit.
  Exit stop();

 private:
  /// Append whatever the daemon printed to log_; false at EOF.
  bool drain(int timeout_ms);
  void kill_now();

  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
  std::string log_;
};

/// One persistent loopback connection speaking the line protocol.
class Connection {
 public:
  explicit Connection(int port);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  /// Sends `line` plus a newline; false when the connection failed.
  bool send_line(std::string_view line);
  /// Blocks for the next response line; false on EOF or error.
  bool read_line(std::string& line);
  /// The next buffered line, without reading the socket.
  bool take_line(std::string& line);
  /// One recv into the buffer; false on EOF or error.
  bool fill();

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace e2e
