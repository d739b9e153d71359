#include "artifact/cache.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <vector>

#include "support/logging.h"
#include "support/telemetry.h"

namespace sara::artifact {

namespace fs = std::filesystem;

namespace {

void
count(const char *name)
{
    telemetry::Registry::global().add(name);
}

std::string
resolveDir(std::string dir)
{
    if (!dir.empty())
        return dir;
    if (const char *env = std::getenv("SARA_CACHE_DIR"); env && *env)
        return env;
    if (const char *home = std::getenv("HOME"); home && *home)
        return std::string(home) + "/.sara-cache";
    return ".sara-cache";
}

} // namespace

ArtifactCache::ArtifactCache(std::string dir, uint64_t maxBytes)
    : dir_(resolveDir(std::move(dir))), maxBytes_(maxBytes)
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        warn("artifact cache: cannot create ", dir_, ": ",
             ec.message());
}

std::string
ArtifactCache::pathFor(const std::string &key) const
{
    return dir_ + "/" + key + ".sara";
}

std::string
ArtifactCache::quarantinePathFor(const std::string &key) const
{
    return pathFor(key) + ".quarantine";
}

namespace {

/** A writer's unpublished temp file (`<key>.sara.tmp.<pid>`). */
bool
isStaleTmp(const fs::path &p)
{
    return p.filename().string().find(".sara.tmp.") != std::string::npos;
}

} // namespace

void
ArtifactCache::noteOpen(const std::string &key)
{
    auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(openMu_);
    // Opportunistically drop expired holds so the map stays small.
    for (auto it = recentOpens_.begin(); it != recentOpens_.end();) {
        double ageMs =
            std::chrono::duration<double, std::milli>(now - it->second)
                .count();
        it = ageMs >= trimWindowMs_ ? recentOpens_.erase(it)
                                    : std::next(it);
    }
    recentOpens_[key] = now;
}

bool
ArtifactCache::recentlyOpened(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(openMu_);
    auto it = recentOpens_.find(key);
    if (it == recentOpens_.end())
        return false;
    double ageMs = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - it->second)
                       .count();
    return ageMs < trimWindowMs_;
}

std::optional<compiler::CompileResult>
ArtifactCache::lookup(const std::string &key)
{
    // Claim the key before probing the filesystem: a concurrent trim
    // must hold (skip) this entry for the whole open window, or the
    // exists -> read gap below could dangle on a deleted file.
    noteOpen(key);
    std::string path = pathFor(key);
    std::error_code ec;
    if (!fs::exists(path, ec)) {
        count("artifact.cache.miss");
        return std::nullopt;
    }
    try {
        std::string bytes = readArtifactBytes(path);
        if (inj_ && !bytes.empty() && inj_->artifactFlip(key))
            bytes[inj_->flipOffset(key, bytes.size())] ^= 0x01;
        LoadedArtifact art = unpackArtifact(bytes);
        if (art.key != key)
            throw ArtifactError("artifact: stored key mismatch");
        count("artifact.cache.hit");
        // Touch for LRU eviction ordering.
        fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
        debug("artifact cache hit: ", key);
        return std::move(art.result);
    } catch (const ArtifactError &err) {
        // Quarantine, don't delete: the corrupt bytes are the evidence
        // (disk fault? torn write? format bug?) and must neither be
        // served again nor silently destroyed.
        std::string parked = quarantinePathFor(key);
        warn("artifact cache: quarantining corrupt entry ", path,
             " -> ", parked, " (", err.what(), ")");
        count("artifact.cache.corrupt");
        count("artifact.cache.quarantined");
        count("artifact.cache.miss");
        fs::rename(path, parked, ec);
        if (ec)
            fs::remove(path, ec); // Last resort: never serve it.
        return std::nullopt;
    }
}

void
ArtifactCache::store(const std::string &key,
                     const compiler::CompileResult &r)
{
    if (inj_ && inj_->diskEnospc(key)) {
        // Disk full: the store fails cleanly. The caller still holds
        // the freshly-compiled result, so this is a counted warning,
        // never an error surfaced to the request.
        warn("artifact cache: injected ENOSPC storing ", key);
        count("artifact.cache.fault.enospc");
        count("artifact.cache.store_failed");
        return;
    }
    if (inj_ && inj_->diskShortWrite(key)) {
        // Torn publish: deliberately bypass the atomic writer and drop
        // a truncated container under the *final* name, modeling a
        // filesystem that lied about durability. The entry must be
        // caught by lookup validation or the recovery sweep.
        std::string bytes = packArtifact(key, r);
        bytes.resize(inj_->shortWriteKeep(key, bytes.size()));
        std::FILE *f = std::fopen(pathFor(key).c_str(), "wb");
        if (f) {
            std::fwrite(bytes.data(), 1, bytes.size(), f);
            std::fclose(f);
        }
        warn("artifact cache: injected short write storing ", key);
        count("artifact.cache.fault.short_write");
        return;
    }
    try {
        writeArtifactFile(pathFor(key), key, r);
        count("artifact.cache.store");
        debug("artifact cache store: ", key);
    } catch (const ArtifactError &err) {
        warn("artifact cache: store failed: ", err.what());
        count("artifact.cache.store_failed");
        return;
    }
    if (maxBytes_ > 0)
        trim(maxBytes_);
}

bool
ArtifactCache::contains(const std::string &key) const
{
    std::error_code ec;
    return fs::exists(pathFor(key), ec);
}

int
ArtifactCache::trim(uint64_t maxBytes)
{
    struct Entry
    {
        fs::path path;
        fs::file_time_type mtime;
        uint64_t size;
    };
    std::vector<Entry> entries;
    uint64_t total = 0;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(dir_, ec)) {
        if (!de.is_regular_file(ec) ||
            de.path().extension() != ".sara")
            continue;
        Entry en{de.path(), de.last_write_time(ec),
                 de.file_size(ec)};
        total += en.size;
        entries.push_back(std::move(en));
    }
    if (total <= maxBytes)
        return 0;
    // Oldest first: LRU because hits re-touch their entry.
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.mtime < b.mtime;
              });
    int evicted = 0;
    for (const auto &en : entries) {
        if (total <= maxBytes)
            break;
        // Hold-or-skip: an entry a reader opened inside the window may
        // be mid-read right now — never delete it under their feet.
        if (recentlyOpened(en.path.stem().string()))
            continue;
        if (fs::remove(en.path, ec)) {
            total -= en.size;
            ++evicted;
            count("artifact.cache.evict");
            debug("artifact cache evict: ", en.path.string());
        }
    }
    return evicted;
}

int
ArtifactCache::clear()
{
    // Explicit wipe overrides the trim holds.
    {
        std::lock_guard<std::mutex> lock(openMu_);
        recentOpens_.clear();
    }
    int removed = 0;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(dir_, ec)) {
        auto ext = de.path().extension();
        if (ext != ".sara" && ext != ".quarantine" &&
            !isStaleTmp(de.path()))
            continue;
        if (fs::remove(de.path(), ec))
            ++removed;
    }
    return removed;
}

ArtifactCache::RecoveryStats
ArtifactCache::recover()
{
    RecoveryStats st;
    std::error_code ec;
    std::vector<fs::path> entries, tmps;
    for (const auto &de : fs::directory_iterator(dir_, ec)) {
        if (!de.is_regular_file(ec))
            continue;
        if (isStaleTmp(de.path()))
            tmps.push_back(de.path());
        else if (de.path().extension() == ".sara")
            entries.push_back(de.path());
    }
    // A temp file under the sweep means its writer died before the
    // rename: the entry was never published, so it is garbage (the
    // sweep runs before any worker thread can be mid-store).
    for (const auto &t : tmps) {
        if (fs::remove(t, ec)) {
            ++st.tmpRemoved;
            count("artifact.cache.tmp_removed");
            inform("artifact cache recovery: removed stale temp ",
                 t.string());
        }
    }
    for (const auto &p : entries) {
        ++st.scanned;
        std::string key = p.stem().string();
        try {
            LoadedArtifact art = unpackArtifact(
                readArtifactBytes(p.string()));
            if (art.key != key)
                throw ArtifactError("artifact: stored key mismatch");
            ++st.ok;
        } catch (const ArtifactError &err) {
            std::string parked = p.string() + ".quarantine";
            warn("artifact cache recovery: quarantining ", p.string(),
                 " -> ", parked, " (", err.what(), ")");
            fs::rename(p, parked, ec);
            if (ec)
                fs::remove(p, ec);
            ++st.quarantined;
            count("artifact.cache.quarantined");
        }
    }
    if (st.quarantined > 0 || st.tmpRemoved > 0)
        inform("artifact cache recovery: ", st.scanned, " scanned, ",
             st.ok, " ok, ", st.quarantined, " quarantined, ",
             st.tmpRemoved, " stale temps removed");
    count("artifact.cache.recovered");
    return st;
}

int
ArtifactCache::quarantinedCount() const
{
    int n = 0;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(dir_, ec))
        if (de.path().extension() == ".quarantine")
            ++n;
    return n;
}

// ---------------------------------------------------------------------------
// CachingCompiler
// ---------------------------------------------------------------------------

CachingCompiler::Compiled
CachingCompiler::compile(const ir::Program &input,
                         const compiler::CompilerOptions &options)
{
    Compiled out;
    out.key = contentKey(input, options);
    const std::string &key = out.key;

    if (inj_ && inj_->compileFault(key))
        throw TransientError(
            "injected transient compile fault for key " + key);

    if (cache_) {
        if (auto hit = cache_->lookup(key)) {
            out.result = std::make_shared<const compiler::CompileResult>(
                std::move(*hit));
            out.fromCache = true;
            return out;
        }
    }

    // Claim the key, or join the compile that holds it.
    std::promise<Result> promise;
    std::shared_future<Result> joined;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto [it, claimed] = inflight_.try_emplace(key);
        if (claimed)
            it->second = promise.get_future().share();
        else
            joined = it->second;
    }
    if (joined.valid()) {
        telemetry::Registry::global().add("jobs.compile.deduped");
        out.result = joined.get(); // Rethrows the owner's failure.
        out.deduped = true;
        return out;
    }

    try {
        out.result = std::make_shared<const compiler::CompileResult>(
            compiler::compile(input, options));
        if (cache_)
            cache_->store(key, *out.result);
    } catch (...) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            inflight_.erase(key);
        }
        promise.set_exception(std::current_exception());
        throw;
    }
    promise.set_value(out.result);
    std::lock_guard<std::mutex> lock(mu_);
    inflight_.erase(key);
    return out;
}

} // namespace sara::artifact
