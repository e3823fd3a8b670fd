#include "server/socket.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "common/crc32.h"

namespace freqdedup::server {

namespace {

[[noreturn]] void throwErrno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

std::string Address::str() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

Address parseAddress(const std::string& s) {
  if (s.empty()) throw std::invalid_argument("address: empty");
  Address a;
  if (s.rfind("unix:", 0) == 0) {
    a.kind = Address::Kind::kUnix;
    a.path = s.substr(5);
    if (a.path.empty()) throw std::invalid_argument("address: empty unix path");
    return a;
  }
  if (s.rfind("tcp:", 0) == 0) {
    const std::string rest = s.substr(4);
    const size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == rest.size())
      throw std::invalid_argument("address: expected tcp:<host>:<port>");
    a.kind = Address::Kind::kTcp;
    a.host = rest.substr(0, colon);
    const std::string portStr = rest.substr(colon + 1);
    char* end = nullptr;
    const unsigned long port = std::strtoul(portStr.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || port > 65535)
      throw std::invalid_argument("address: bad port '" + portStr + "'");
    a.port = static_cast<uint16_t>(port);
    return a;
  }
  // Bare path → unix socket.
  a.kind = Address::Kind::kUnix;
  a.path = s;
  return a;
}

Fd& Fd::operator=(Fd&& o) noexcept {
  if (this != &o) {
    reset();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

namespace {

sockaddr_un unixSockaddr(const std::string& path) {
  sockaddr_un sa{};
  sa.sun_family = AF_UNIX;
  if (path.size() >= sizeof(sa.sun_path))
    throw std::runtime_error("unix socket path too long: " + path);
  std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
  return sa;
}

}  // namespace

Fd listenOn(const Address& addr, int backlog) {
  if (addr.kind == Address::Kind::kUnix) {
    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) throwErrno("socket(AF_UNIX)");
    const sockaddr_un sa = unixSockaddr(addr.path);
    ::unlink(addr.path.c_str());  // stale socket from a previous run
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) !=
        0)
      throwErrno("bind " + addr.str());
    if (::listen(fd.get(), backlog) != 0) throwErrno("listen " + addr.str());
    return fd;
  }

  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  const std::string portStr = std::to_string(addr.port);
  const int rc = ::getaddrinfo(addr.host.c_str(), portStr.c_str(), &hints, &res);
  if (rc != 0)
    throw std::runtime_error("getaddrinfo " + addr.str() + ": " +
                             gai_strerror(rc));
  Fd fd;
  std::string lastErr = "no addresses";
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    Fd candidate(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!candidate.valid()) {
      lastErr = std::strerror(errno);
      continue;
    }
    const int one = 1;
    ::setsockopt(candidate.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(candidate.get(), ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(candidate.get(), backlog) == 0) {
      fd = std::move(candidate);
      break;
    }
    lastErr = std::strerror(errno);
  }
  ::freeaddrinfo(res);
  if (!fd.valid())
    throw std::runtime_error("listen " + addr.str() + ": " + lastErr);
  return fd;
}

Fd connectTo(const Address& addr) {
  if (addr.kind == Address::Kind::kUnix) {
    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) throwErrno("socket(AF_UNIX)");
    const sockaddr_un sa = unixSockaddr(addr.path);
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&sa),
                  sizeof(sa)) != 0)
      throwErrno("connect " + addr.str());
    return fd;
  }

  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string portStr = std::to_string(addr.port);
  const int rc = ::getaddrinfo(addr.host.c_str(), portStr.c_str(), &hints, &res);
  if (rc != 0)
    throw std::runtime_error("getaddrinfo " + addr.str() + ": " +
                             gai_strerror(rc));
  Fd fd;
  std::string lastErr = "no addresses";
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    Fd candidate(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!candidate.valid()) {
      lastErr = std::strerror(errno);
      continue;
    }
    if (::connect(candidate.get(), ai->ai_addr, ai->ai_addrlen) == 0) {
      const int one = 1;
      ::setsockopt(candidate.get(), IPPROTO_TCP, TCP_NODELAY, &one,
                   sizeof(one));
      fd = std::move(candidate);
      break;
    }
    lastErr = std::strerror(errno);
  }
  ::freeaddrinfo(res);
  if (!fd.valid())
    throw std::runtime_error("connect " + addr.str() + ": " + lastErr);
  return fd;
}

bool readFull(int fd, uint8_t* buf, size_t n) {
  size_t done = 0;
  while (done < n) {
    const ssize_t got = ::read(fd, buf + done, n - done);
    if (got < 0) {
      if (errno == EINTR) continue;
      throwErrno("read");
    }
    if (got == 0) {
      if (done == 0) return false;
      throw std::runtime_error("read: unexpected EOF mid-record");
    }
    done += static_cast<size_t>(got);
  }
  return true;
}

void writeFull(int fd, const uint8_t* buf, size_t n) {
  size_t done = 0;
  while (done < n) {
#ifdef MSG_NOSIGNAL
    const ssize_t put = ::send(fd, buf + done, n - done, MSG_NOSIGNAL);
#else
    const ssize_t put = ::write(fd, buf + done, n - done);
#endif
    if (put < 0) {
      if (errno == EINTR) continue;
      throwErrno("write");
    }
    done += static_cast<size_t>(put);
  }
}

bool readFrame(int fd, ByteVec& payload) {
  uint8_t header[kFrameHeaderBytes];
  if (!readFull(fd, header, sizeof(header))) return false;
  const ByteView hv(header, sizeof(header));
  const uint32_t crc = getU32(hv, 0);
  const uint32_t len = getU32(hv, 4);
  if (len > kMaxFrameBytes) throw WireError("frame length exceeds cap");
  payload.resize(len);  // keeps the capacity of earlier, larger frames
  if (len > 0 && !readFull(fd, payload.data(), len))
    throw std::runtime_error("read: EOF inside frame payload");
  if (crc32c(payload) != crc) throw WireError("frame CRC mismatch");
  return true;
}

std::optional<ByteVec> readFrame(int fd) {
  ByteVec payload;
  if (!readFrame(fd, payload)) return std::nullopt;
  return payload;
}

void writeFrame(int fd, ByteView head, ByteView tail) {
  // Header and payload pieces leave in one gather write, so the payload is
  // never copied into a framed buffer.
  const FrameHeader header = encodeFrameHeader(head, tail);
  iovec iov[3];
  int count = 0;
  for (const ByteView piece : {ByteView(header), head, tail})
    if (!piece.empty())
      iov[count++] = {const_cast<uint8_t*>(piece.data()), piece.size()};
  iovec* next = iov;
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = next;
    msg.msg_iovlen = static_cast<size_t>(count);
#ifdef MSG_NOSIGNAL
    ssize_t put = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
#else
    ssize_t put = ::sendmsg(fd, &msg, 0);
#endif
    if (put < 0) {
      if (errno == EINTR) continue;
      throwErrno("write");
    }
    // Skip what went out: whole iovecs first, then into a partial one.
    for (; count > 0 && static_cast<size_t>(put) >= next->iov_len;
         ++next, --count)
      put -= static_cast<ssize_t>(next->iov_len);
    if (count > 0) {
      next->iov_base = static_cast<uint8_t*>(next->iov_base) + put;
      next->iov_len -= static_cast<size_t>(put);
    }
  }
}

}  // namespace freqdedup::server
