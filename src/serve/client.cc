#include "serve/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "support/logging.h"

namespace sara::serve {

namespace {

int
connectTo(const std::string &socketPath)
{
    if (socketPath.size() >= sizeof(sockaddr_un{}.sun_path))
        fatal("serve client: socket path too long: ", socketPath);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        fatal("serve client: socket(): ", std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        int err = errno;
        ::close(fd);
        errno = err;
        return -1;
    }
    return fd;
}

} // namespace

Client::Client(const std::string &socketPath)
{
    fd_ = connectTo(socketPath);
    if (fd_ < 0)
        fatal("serve client: connect(", socketPath,
              "): ", std::strerror(errno));
}

Client::~Client()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
Client::send(const Request &req)
{
    sendLine(req.str());
}

void
Client::sendLine(const std::string &line)
{
    if (!writeLine(line))
        fatal("serve client: send(): ", std::strerror(errno));
}

bool
Client::writeLine(const std::string &line)
{
    std::string buf = line + "\n";
    size_t off = 0;
    while (off < buf.size()) {
        ssize_t n = ::send(fd_, buf.data() + off, buf.size() - off,
                           MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        off += static_cast<size_t>(n);
    }
    return true;
}

std::optional<json::Value>
Client::recv()
{
    for (;;) {
        size_t nl = pending_.find('\n');
        if (nl != std::string::npos) {
            std::string line = pending_.substr(0, nl);
            pending_.erase(0, nl + 1);
            if (line.empty())
                continue;
            return json::parse(line);
        }
        char buf[4096];
        ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
        if (n <= 0)
            return std::nullopt;
        pending_.append(buf, static_cast<size_t>(n));
    }
}

json::Value
Client::call(const Request &req)
{
    if (!writeLine(req.str())) {
        // The daemon may have answered and closed before the request
        // went out (one `overloaded` line at its connection cap): the
        // send fails, but the reply is still in the receive buffer.
        int err = errno;
        std::optional<json::Value> early;
        if (err == EPIPE || err == ECONNRESET)
            early = recv();
        if (!early)
            fatal("serve client: send(): ", std::strerror(err));
        return std::move(*early);
    }
    auto resp = recv();
    if (!resp)
        fatal("serve client: daemon closed the connection");
    return std::move(*resp);
}

bool
waitForServer(const std::string &socketPath, int timeoutMs)
{
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeoutMs);
    for (;;) {
        int fd = connectTo(socketPath);
        if (fd >= 0) {
            ::close(fd);
            return true;
        }
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
}

} // namespace sara::serve
