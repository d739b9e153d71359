#include "support/logging.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>

namespace sara {

namespace {

LogLevel
initialLevel()
{
    const char *env = std::getenv("SARA_LOG_LEVEL");
    if (!env)
        return LogLevel::Warn;
    if (std::strcmp(env, "debug") == 0 || std::strcmp(env, "0") == 0)
        return LogLevel::Debug;
    if (std::strcmp(env, "info") == 0 || std::strcmp(env, "1") == 0)
        return LogLevel::Info;
    if (std::strcmp(env, "warn") == 0 || std::strcmp(env, "2") == 0)
        return LogLevel::Warn;
    if (std::strcmp(env, "error") == 0 || std::strcmp(env, "3") == 0)
        return LogLevel::Error;
    std::fprintf(stderr,
                 "[sara:warn] unknown SARA_LOG_LEVEL '%s' "
                 "(want debug|info|warn|error)\n",
                 env);
    return LogLevel::Warn;
}

LogLevel &
levelRef()
{
    static LogLevel level = initialLevel();
    return level;
}

std::mutex g_logMutex;

/** Monotonic seconds since the first log call (process-start proxy). */
double
elapsedSeconds()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point start = clock::now();
    return std::chrono::duration<double>(clock::now() - start).count();
}

} // namespace

void
setLogLevel(LogLevel level)
{
    levelRef() = level;
}

LogLevel
logLevel()
{
    return levelRef();
}

namespace detail {

void
logMessage(LogLevel level, const char *tag, const std::string &msg)
{
    // Error-severity messages (panic/fatal) always print; the level
    // gate for the rest lives in the inline callers so suppressed
    // messages never pay for concatenation.
    if (level < LogLevel::Error && level < logLevel())
        return;
    std::lock_guard<std::mutex> lock(g_logMutex);
    std::fprintf(stderr, "[sara:%s +%.3fs] %s\n", tag, elapsedSeconds(),
                 msg.c_str());
}

} // namespace detail

} // namespace sara
