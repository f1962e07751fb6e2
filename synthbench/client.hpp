#pragma once
// Closed-loop line client for the mapping daemon's Unix socket: one request
// line out, reply lines in until the request's final reply arrives.

#include <string>

namespace synthbench {

class LineClient {
 public:
  /// Connects to the Unix socket at `path`; throws std::runtime_error.
  explicit LineClient(const std::string& path);
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Sends `line` (a newline is appended) and returns the first reply whose
  /// "reply" field is not "queued" — the result, or an error. Throws
  /// std::runtime_error when the connection drops.
  std::string call(const std::string& line);

  long long sent() const { return sent_; }
  long long received() const { return received_; }

 private:
  std::string read_line();

  int fd_ = -1;
  std::string buffer_;
  long long sent_ = 0;
  long long received_ = 0;  // final replies only
};

}  // namespace synthbench
