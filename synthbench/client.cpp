#include "client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace synthbench {

LineClient::LineClient(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) throw std::runtime_error("socket path too long");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("connect " + path + ": " + why);
  }
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::string LineClient::read_line() {
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("connection closed by the server");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string LineClient::call(const std::string& line) {
  const std::string out = line + "\n";
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = ::send(fd_, out.data() + done, out.size() - done, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("send: " + std::string(std::strerror(errno)));
    done += static_cast<std::size_t>(n);
  }
  ++sent_;
  for (;;) {
    std::string reply = read_line();
    if (reply.find("\"reply\":\"queued\"") != std::string::npos) continue;
    ++received_;
    return reply;
  }
}

}  // namespace synthbench
