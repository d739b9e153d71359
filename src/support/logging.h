#ifndef SARA_SUPPORT_LOGGING_H
#define SARA_SUPPORT_LOGGING_H

/**
 * @file
 * Status-message and error-reporting helpers.
 *
 * Follows the gem5 convention: panic() is for internal invariant
 * violations (a bug in this library), fatal() is for user errors
 * (bad configuration, malformed input programs). debug()/inform()/
 * warn() report status without stopping execution.
 *
 * Output is filtered by a global log level (Warn by default, so
 * debug/info are silent). The SARA_LOG_LEVEL environment variable
 * (debug|info|warn|error) sets the initial level; setLogLevel()
 * overrides it at runtime. Every line carries a monotonic timestamp
 * relative to process start.
 */

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace sara {

/** Raised by panic(): an internal invariant was violated (library bug). */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/** Raised by fatal(): the input or configuration is invalid (user error). */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/**
 * A failure that may succeed on retry (I/O hiccup, injected compile
 * fault) — as opposed to a deterministic one, which would fail the
 * same way again. The jobs runner retries these with bounded backoff;
 * everything else fails the job on the first throw.
 */
class TransientError : public std::runtime_error
{
  public:
    explicit TransientError(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

/** Message severities, least severe first. */
enum class LogLevel : int {
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3, ///< panic/fatal diagnostics; never filtered.
};

/** Messages below `level` are suppressed. */
void setLogLevel(LogLevel level);
LogLevel logLevel();

namespace detail {

void logMessage(LogLevel level, const char *tag, const std::string &msg);

template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/** Report something that should never happen regardless of input. */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    std::string msg = detail::concat(std::forward<Args>(args)...);
    detail::logMessage(LogLevel::Error, "panic", msg);
    throw PanicError(msg);
}

/** Report an unrecoverable user/configuration error. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    std::string msg = detail::concat(std::forward<Args>(args)...);
    detail::logMessage(LogLevel::Error, "fatal", msg);
    throw FatalError(msg);
}

/** Informative status message; no connotation of incorrect behaviour. */
template <typename... Args>
void
inform(Args &&...args)
{
    if (logLevel() > LogLevel::Info)
        return; // Skip the concatenation, not just the print.
    detail::logMessage(LogLevel::Info, "info",
                       detail::concat(std::forward<Args>(args)...));
}

/** Developer-facing detail; hidden unless SARA_LOG_LEVEL=debug. */
template <typename... Args>
void
debug(Args &&...args)
{
    if (logLevel() > LogLevel::Debug)
        return;
    detail::logMessage(LogLevel::Debug, "debug",
                       detail::concat(std::forward<Args>(args)...));
}

/** Possible-problem message; execution continues. */
template <typename... Args>
void
warn(Args &&...args)
{
    if (logLevel() > LogLevel::Warn)
        return;
    detail::logMessage(LogLevel::Warn, "warn",
                       detail::concat(std::forward<Args>(args)...));
}

/** panic() with a condition; message printed only on failure. */
#define SARA_ASSERT(cond, ...)                                               \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::sara::panic("assertion failed: ", #cond, " | ",                \
                          ::sara::detail::concat(__VA_ARGS__), " at ",       \
                          __FILE__, ":", __LINE__);                          \
        }                                                                    \
    } while (0)

} // namespace sara

#endif // SARA_SUPPORT_LOGGING_H
