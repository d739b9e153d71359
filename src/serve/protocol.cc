#include "serve/protocol.h"

#include <cmath>

#include "support/logging.h"
#include "workloads/workload.h"

namespace sara::serve {

const char *
verbName(Verb v)
{
    switch (v) {
    case Verb::Compile:
        return "compile";
    case Verb::Run:
        return "run";
    case Verb::Stats:
        return "stats";
    case Verb::Shutdown:
        return "shutdown";
    }
    return "?";
}

std::string
Request::str() const
{
    json::Writer w;
    w.beginObject();
    w.kv("schema", kRequestSchema);
    w.kv("id", id);
    w.kv("verb", verbName(verb));
    w.kv("tenant", tenant);
    if (verb == Verb::Compile || verb == Verb::Run) {
        w.kv("workload", workload);
        w.kv("par", par);
        w.kv("scale", scale);
        w.kv("noc", noc);
        w.kv("check", check);
        if (maxCycles)
            w.kv("max_cycles", maxCycles);
    }
    w.endObject();
    return w.str();
}

namespace {

int
intField(const json::Value &v, const std::string &key, int fallback,
         int lo, int hi)
{
    const json::Value *f = v.find(key);
    if (!f)
        return fallback;
    if (!f->isNumber())
        fatal("request field '", key, "' must be a number");
    // Range first: converting a double outside int's range is UB.
    if (!(f->num >= lo && f->num <= hi))
        fatal("request field '", key, "' out of range [", lo, ", ", hi,
              "]");
    if (f->num != std::trunc(f->num))
        fatal("request field '", key, "' must be an integer");
    return static_cast<int>(f->num);
}

bool
boolField(const json::Value &v, const std::string &key, bool fallback)
{
    const json::Value *f = v.find(key);
    if (!f)
        return fallback;
    if (f->kind != json::Value::Kind::Bool)
        fatal("request field '", key, "' must be a boolean");
    return f->boolean;
}

std::string
stringField(const json::Value &v, const std::string &key,
            const std::string &fallback)
{
    const json::Value *f = v.find(key);
    if (!f)
        return fallback;
    if (!f->isString())
        fatal("request field '", key, "' must be a string");
    return f->str;
}

} // namespace

Request
parseRequest(const std::string &line)
{
    json::Value v = json::parse(line);
    if (!v.isObject())
        fatal("request must be a JSON object");
    std::string schema = stringField(v, "schema", "");
    if (schema != kRequestSchema)
        fatal("unsupported request schema '", schema, "' (expected ",
              kRequestSchema, ")");

    Request r;
    r.id = stringField(v, "id", "");
    r.tenant = stringField(v, "tenant", "default");
    if (r.tenant.empty())
        fatal("request field 'tenant' must be non-empty");

    std::string verb = stringField(v, "verb", "");
    if (verb == "compile")
        r.verb = Verb::Compile;
    else if (verb == "run")
        r.verb = Verb::Run;
    else if (verb == "stats")
        r.verb = Verb::Stats;
    else if (verb == "shutdown")
        r.verb = Verb::Shutdown;
    else
        fatal("unknown verb '", verb,
              "' (expected compile|run|stats|shutdown)");

    if (r.verb == Verb::Compile || r.verb == Verb::Run) {
        r.workload = stringField(v, "workload", "");
        if (r.workload.empty())
            fatal("verb '", verb, "' requires a 'workload' field");
        workloads::checkWorkloadName(r.workload);
        using workloads::WorkloadConfig;
        r.par = intField(v, "par", 16, WorkloadConfig::kMinPar,
                         WorkloadConfig::kMaxPar);
        r.scale = intField(v, "scale", 1, WorkloadConfig::kMinScale,
                           WorkloadConfig::kMaxScale);
        r.noc = boolField(v, "noc", false);
        r.check = boolField(v, "check", false);
        const json::Value *mc = v.find("max_cycles");
        if (mc) {
            // 0x1p64 is 2^64, the first double uint64_t cannot hold.
            if (!mc->isNumber() || !(mc->num >= 0 && mc->num < 0x1p64) ||
                mc->num != std::trunc(mc->num))
                fatal("request field 'max_cycles' must be an integer "
                      "in [0, 2^64)");
            r.maxCycles = static_cast<uint64_t>(mc->num);
        }
    }
    return r;
}

ResponseBuilder::ResponseBuilder(const std::string &id,
                                 const std::string &status)
{
    w_.beginObject();
    w_.kv("schema", kResponseSchema);
    w_.kv("id", id);
    w_.kv("status", status);
}

ResponseBuilder &
ResponseBuilder::kv(const std::string &key, const std::string &v)
{
    w_.kv(key, v);
    return *this;
}

ResponseBuilder &
ResponseBuilder::kv(const std::string &key, const char *v)
{
    w_.kv(key, v);
    return *this;
}

ResponseBuilder &
ResponseBuilder::kv(const std::string &key, double v)
{
    w_.kv(key, v);
    return *this;
}

ResponseBuilder &
ResponseBuilder::kv(const std::string &key, uint64_t v)
{
    w_.kv(key, v);
    return *this;
}

ResponseBuilder &
ResponseBuilder::kv(const std::string &key, int v)
{
    w_.kv(key, v);
    return *this;
}

ResponseBuilder &
ResponseBuilder::kv(const std::string &key, bool v)
{
    w_.kv(key, v);
    return *this;
}

ResponseBuilder &
ResponseBuilder::raw(const std::string &key, const std::string &json)
{
    raws_.emplace_back(key, json);
    return *this;
}

std::string
ResponseBuilder::str()
{
    if (!closed_) {
        w_.endObject();
        closed_ = true;
    }
    std::string out = w_.str();
    // Splice pre-serialized payloads before the closing brace. The
    // base object always carries schema/id/status, so the leading
    // comma is always valid.
    for (const auto &[key, json] : raws_) {
        out.pop_back();
        out += ",\"" + json::escape(key) + "\":" + json + "}";
    }
    return out;
}

std::string
errorResponse(const std::string &id, const std::string &msg)
{
    return ResponseBuilder(id, "error").kv("error", msg).str();
}

std::string
rejectedResponse(const std::string &id, double retryAfterMs)
{
    return ResponseBuilder(id, "rejected")
        .kv("error", "queue full")
        .kv("retry_after_ms", retryAfterMs)
        .str();
}

std::string
overloadedResponse(double retryAfterMs)
{
    return ResponseBuilder("", "overloaded")
        .kv("error", "connection limit reached")
        .kv("retry_after_ms", retryAfterMs)
        .str();
}

std::string
breakerResponse(const std::string &id, const std::string &workload,
                double retryAfterMs)
{
    return ResponseBuilder(id, "rejected")
        .kv("error", "circuit breaker open")
        .kv("workload", workload)
        .kv("retry_after_ms", retryAfterMs)
        .str();
}

} // namespace sara::serve
