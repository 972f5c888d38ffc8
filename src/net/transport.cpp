#include "net/transport.hpp"

#include <cerrno>
#include <cstring>
#include <string>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/stats.hpp"

namespace a3 {

namespace {

NetStatus
systemFailure(const char *what)
{
    return NetStatus::failure(NetError::SystemError,
                              std::string(what) + ": " +
                                  std::strerror(errno));
}

/** Remaining poll timeout in ms for an absolute deadline. */
int
pollTimeoutMs(double deadlineSeconds)
{
    if (deadlineSeconds < 0)
        return -1;
    const double remaining = deadlineSeconds - nowSeconds();
    if (remaining <= 0)
        return 0;
    // Round up so a sub-millisecond remainder still polls once.
    return static_cast<int>(remaining * 1e3) + 1;
}

NetStatus
fillSockaddrUn(const std::string &path, sockaddr_un &addr)
{
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof(addr.sun_path))
        return NetStatus::failure(NetError::SystemError,
                                  "unix socket path \"" + path +
                                      "\" is empty or too long");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return NetStatus::success();
}

}  // namespace

SocketTransport::SocketTransport(int fd) : fd_(fd) {}

SocketTransport::~SocketTransport()
{
    close();
    if (fd_ >= 0)
        ::close(fd_);
}

void
SocketTransport::close()
{
    // shutdown() rather than close(): the fd must stay valid while
    // another thread may still be blocked in recv()/poll() on it —
    // shutdown wakes that thread with EOF, and the destructor
    // releases the descriptor once no caller can touch it.
    if (!closed_.exchange(true))
        ::shutdown(fd_, SHUT_RDWR);
}

NetStatus
SocketTransport::sendAll(const std::uint8_t *data, std::size_t size)
{
    std::size_t sent = 0;
    while (sent < size) {
        const ssize_t n = ::send(fd_, data + sent, size - sent,
                                 MSG_NOSIGNAL);
        if (n > 0) {
            sent += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EPIPE || errno == ECONNRESET))
            return NetStatus::failure(NetError::Closed,
                                      "peer closed during send");
        return systemFailure("send");
    }
    return NetStatus::success();
}

NetStatus
SocketTransport::send(const Frame &frame)
{
    if (closed_.load())
        return NetStatus::failure(NetError::Closed,
                                  "transport is closed");
    const std::vector<std::uint8_t> bytes = encodeFrame(frame);
    return sendAll(bytes.data(), bytes.size());
}

NetStatus
SocketTransport::sendRawBytes(const std::uint8_t *data,
                              std::size_t size)
{
    if (closed_.load())
        return NetStatus::failure(NetError::Closed,
                                  "transport is closed");
    return sendAll(data, size);
}

NetStatus
SocketTransport::recvAll(std::uint8_t *data, std::size_t size,
                         double deadlineSeconds, bool firstByte)
{
    std::size_t received = 0;
    while (received < size) {
        pollfd pfd{fd_, POLLIN, 0};
        const int ready =
            ::poll(&pfd, 1, pollTimeoutMs(deadlineSeconds));
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            return systemFailure("poll");
        }
        if (ready == 0) {
            if (firstByte && received == 0)
                return NetStatus::failure(
                    NetError::Timeout,
                    "timed out waiting for a frame");
            // A frame started but never finished: the stream can
            // no longer be resynchronized, so poison it.
            close();
            return NetStatus::failure(NetError::Timeout,
                                      "timed out mid-frame");
        }
        const ssize_t n =
            ::recv(fd_, data + received, size - received, 0);
        if (n > 0) {
            received += static_cast<std::size_t>(n);
            continue;
        }
        if (n == 0)
            return NetStatus::failure(NetError::Closed,
                                      "peer closed the connection");
        if (errno == EINTR)
            continue;
        if (errno == ECONNRESET)
            return NetStatus::failure(NetError::Closed,
                                      "connection reset");
        return systemFailure("recv");
    }
    return NetStatus::success();
}

NetStatus
SocketTransport::recv(Frame &out, double timeoutSeconds)
{
    if (closed_.load())
        return NetStatus::failure(NetError::Closed,
                                  "transport is closed");
    const double deadline =
        timeoutSeconds < 0 ? -1.0 : nowSeconds() + timeoutSeconds;

    std::uint8_t headerBytes[kFrameHeaderBytes];
    NetStatus status =
        recvAll(headerBytes, kFrameHeaderBytes, deadline, true);
    if (!status.ok())
        return status;

    FrameHeader header;
    status =
        decodeFrameHeader(headerBytes, kFrameHeaderBytes, header);
    if (!status.ok()) {
        // A bad header means the stream position is untrustworthy;
        // strict rejection closes rather than guessing a resync.
        close();
        return status;
    }

    out.type = header.type;
    out.payload.resize(header.payloadLength);
    if (header.payloadLength > 0) {
        status = recvAll(out.payload.data(), header.payloadLength,
                         deadline, false);
        if (!status.ok())
            return status;
    }
    return verifyFramePayload(header, out.payload);
}

UnixServerSocket::~UnixServerSocket() { close(); }

NetStatus
UnixServerSocket::listenOn(const std::string &path)
{
    sockaddr_un addr;
    NetStatus status = fillSockaddrUn(path, addr);
    if (!status.ok())
        return status;

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return systemFailure("socket");
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) < 0) {
        const NetStatus failure = systemFailure("bind");
        ::close(fd);
        return failure;
    }
    if (::listen(fd, 16) < 0) {
        const NetStatus failure = systemFailure("listen");
        ::close(fd);
        return failure;
    }
    close();
    fd_ = fd;
    path_ = path;
    return NetStatus::success();
}

std::shared_ptr<Transport>
UnixServerSocket::accept(double timeoutSeconds, NetStatus &status)
{
    if (fd_ < 0) {
        status = NetStatus::failure(NetError::Closed,
                                    "server socket is closed");
        return nullptr;
    }
    const double deadline =
        timeoutSeconds < 0 ? -1.0 : nowSeconds() + timeoutSeconds;
    for (;;) {
        pollfd pfd{fd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, pollTimeoutMs(deadline));
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            status = systemFailure("poll");
            return nullptr;
        }
        if (ready == 0) {
            status = NetStatus::failure(
                NetError::Timeout, "timed out waiting to accept");
            return nullptr;
        }
        const int client = ::accept(fd_, nullptr, nullptr);
        if (client < 0) {
            if (errno == EINTR)
                continue;
            status = systemFailure("accept");
            return nullptr;
        }
        status = NetStatus::success();
        return std::make_shared<SocketTransport>(client);
    }
}

void
UnixServerSocket::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    if (!path_.empty()) {
        ::unlink(path_.c_str());
        path_.clear();
    }
}

std::shared_ptr<Transport>
connectUnix(const std::string &path, double timeoutSeconds,
            NetStatus &status)
{
    sockaddr_un addr;
    status = fillSockaddrUn(path, addr);
    if (!status.ok())
        return nullptr;

    const double deadline = nowSeconds() + timeoutSeconds;
    for (;;) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) {
            status = systemFailure("socket");
            return nullptr;
        }
        if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) == 0) {
            status = NetStatus::success();
            return std::make_shared<SocketTransport>(fd);
        }
        const int err = errno;
        ::close(fd);
        // A spawned worker may not have bound its listener yet;
        // those two errnos are the not-up-yet signals worth
        // retrying. Anything else is a real failure.
        if (err != ENOENT && err != ECONNREFUSED) {
            errno = err;
            status = systemFailure("connect");
            return nullptr;
        }
        if (nowSeconds() >= deadline) {
            status = NetStatus::failure(
                NetError::Timeout,
                "worker socket \"" + path + "\" never came up");
            return nullptr;
        }
        ::usleep(2000);
    }
}

std::pair<std::shared_ptr<Transport>, std::shared_ptr<Transport>>
transportPair()
{
    int fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) < 0)
        return {nullptr, nullptr};
    return {std::make_shared<SocketTransport>(fds[0]),
            std::make_shared<SocketTransport>(fds[1])};
}

}  // namespace a3
