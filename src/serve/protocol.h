#ifndef SARA_SERVE_PROTOCOL_H
#define SARA_SERVE_PROTOCOL_H

/**
 * @file
 * Wire protocol of the sarad service: newline-delimited JSON objects
 * over a Unix-domain stream socket, one request or response per line.
 *
 * Request (schema "sara-request/v1"):
 *
 *   {"schema":"sara-request/v1","id":"r1","verb":"run",
 *    "tenant":"team-a","workload":"ms","par":8,"scale":1,
 *    "noc":false,"check":false,"max_cycles":0}
 *
 *   verb      compile | run | stats | shutdown
 *   id        client-chosen correlation token, echoed verbatim in the
 *             response (responses on a pipelined connection may
 *             complete out of order)
 *   tenant    fair-scheduling bucket (default "default")
 *   workload  built-in workload name (compile/run only)
 *
 * Response (schema "sara-response/v1"):
 *
 *   status    ok | error | rejected | overloaded
 *   error     message (status != ok)
 *   retry_after_ms   backpressure hint (rejected/overloaded only)
 *   queue_ms / service_ms   per-request latency split (ok only)
 *   compile/run payload: artifact key, from_cache, deduped, and for
 *   run additionally cycles / gflops / time_us.
 *
 * Parsing is strict: unknown verbs, missing or unknown workloads,
 * non-integral or out-of-range numbers, or malformed JSON produce an
 * `error` response on the offending line; the connection (and the
 * daemon) stay up.
 */

#include <cstdint>
#include <string>

#include "support/json.h"

namespace sara::serve {

inline constexpr const char *kRequestSchema = "sara-request/v1";
inline constexpr const char *kResponseSchema = "sara-response/v1";

enum class Verb : uint8_t { Compile, Run, Stats, Shutdown };

const char *verbName(Verb v);

/** One parsed request line. */
struct Request
{
    std::string id;
    Verb verb = Verb::Stats;
    std::string tenant = "default";
    std::string workload;
    int par = 16;
    int scale = 1;
    bool noc = false;
    bool check = false;
    uint64_t maxCycles = 0; ///< 0 = server default.

    /** Serialize to a single request line (no trailing newline). */
    std::string str() const;
};

/**
 * Parse one request line. Throws FatalError with a client-facing
 * message on malformed JSON, schema mismatch, unknown verbs or
 * workloads, or non-integral or out-of-range numeric fields.
 */
Request parseRequest(const std::string &line);

/** Response assembly helpers (each returns a complete line, no '\n').
 *  `payload` hooks let the caller append verb-specific fields. */
class ResponseBuilder
{
  public:
    explicit ResponseBuilder(const std::string &id,
                             const std::string &status);

    ResponseBuilder &kv(const std::string &key, const std::string &v);
    ResponseBuilder &kv(const std::string &key, const char *v);
    ResponseBuilder &kv(const std::string &key, double v);
    ResponseBuilder &kv(const std::string &key, uint64_t v);
    ResponseBuilder &kv(const std::string &key, int v);
    ResponseBuilder &kv(const std::string &key, bool v);
    /** Append a pre-serialized JSON value under `key` (spliced in at
     *  str() time, after the writer's own fields). */
    ResponseBuilder &raw(const std::string &key, const std::string &json);

    /** Finish and return the response line. */
    std::string str();

  private:
    json::Writer w_;
    std::vector<std::pair<std::string, std::string>> raws_;
    bool closed_ = false;
};

/** Shorthand for an error response. */
std::string errorResponse(const std::string &id, const std::string &msg);

/** Shorthand for an admission reject with a backpressure hint. */
std::string rejectedResponse(const std::string &id, double retryAfterMs);

/** Connection-level shed: the daemon is at its connection bound. Sent
 *  once on the overflowing socket (before any request arrives, hence
 *  no id) and the connection is closed. */
std::string overloadedResponse(double retryAfterMs);

/** Circuit-breaker reject: `workload` has produced repeated poison
 *  failures and its breaker is open for another `retryAfterMs`. */
std::string breakerResponse(const std::string &id,
                            const std::string &workload,
                            double retryAfterMs);

} // namespace sara::serve

#endif // SARA_SERVE_PROTOCOL_H
