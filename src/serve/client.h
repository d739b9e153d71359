#ifndef SARA_SERVE_CLIENT_H
#define SARA_SERVE_CLIENT_H

/**
 * @file
 * Minimal sarad client: connects to the daemon's Unix-domain socket,
 * writes request lines, reads response lines. Used by the load
 * generator (bench/bench_serve), the serve tests, and the CI smoke
 * job. Supports pipelining: send() any number of requests, then
 * recv() responses and match them by id (the daemon replies in
 * completion order, not submission order).
 */

#include <optional>
#include <string>

#include "serve/protocol.h"
#include "support/json.h"

namespace sara::serve {

class Client
{
  public:
    /** Connect to a listening sarad; fatal()s when the socket cannot
     *  be reached. */
    explicit Client(const std::string &socketPath);
    ~Client();
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Queue one request line on the socket (non-blocking semantics
     *  are the kernel's; a full socket buffer blocks briefly). */
    void send(const Request &req);
    void sendLine(const std::string &line);

    /** Read the next response line; nullopt on EOF (daemon closed). */
    std::optional<json::Value> recv();

    /** send + recv for a single outstanding request. When the daemon
     *  closed the connection before the request could be sent, returns
     *  the reply it left behind; throws when there is none. */
    json::Value call(const Request &req);

    int fd() const { return fd_; }

  private:
    /** Write `line` + '\n'; false (errno set) when the send fails. */
    bool writeLine(const std::string &line);

    int fd_ = -1;
    std::string pending_;
};

/** Poll until `socketPath` accepts a connection (daemon startup
 *  rendezvous); false when `timeoutMs` elapses first. */
bool waitForServer(const std::string &socketPath, int timeoutMs);

} // namespace sara::serve

#endif // SARA_SERVE_CLIENT_H
