#ifndef SARA_ARTIFACT_CACHE_H
#define SARA_ARTIFACT_CACHE_H

/**
 * @file
 * Content-addressed on-disk compile cache plus the cache-aware compile
 * front-end the runtime, the batch runner and sarad share.
 *
 * Layout: one `<key>.sara` artifact per compiled (workload IR,
 * CompilerOptions, arch config) triple under the cache directory
 * (default `~/.sara-cache`, overridable via SARA_CACHE_DIR or
 * `--cache-dir`). Keys are SHA-256 content hashes, so a changed input
 * or a bumped format version simply misses — no explicit invalidation
 * protocol. Corrupt entries are detected by the artifact checksum,
 * counted, quarantined (renamed to `<key>.sara.quarantine`, preserving
 * the evidence) and treated as misses.
 *
 * Crash safety: stores publish via unique-temp + fsync + atomic rename
 * (see writeArtifactBytes), and recover() sweeps the directory at
 * daemon startup — stale temp files from a crashed writer are removed,
 * torn or corrupt entries are quarantined, intact entries survive. A
 * kill -9 at any point costs at most the in-flight entry.
 *
 * Telemetry (Registry::global(), when enabled):
 *   artifact.cache.hit / .miss / .store / .corrupt / .evict
 *   artifact.cache.quarantined / .recovered / .tmp_removed
 *   artifact.cache.fault.enospc / .fault.short_write (injected)
 *   jobs.compile.deduped (CachingCompiler in-flight dedup)
 *
 * CachingCompiler is thread-safe: concurrent compiles of *different*
 * keys proceed in parallel; concurrent compiles of the *same* key are
 * deduplicated — one thread compiles, the rest block on its result.
 * It keeps no finished result in memory: a caller that repeats a key
 * holds the result itself (sarad's request memo does).
 */

#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "artifact/artifact.h"
#include "fault/fault.h"

namespace sara::artifact {

/** On-disk cache of compiled artifacts keyed by content hash. */
class ArtifactCache
{
  public:
    /**
     * Open (and create if needed) the cache at `dir`. Empty `dir`
     * resolves to $SARA_CACHE_DIR, then $HOME/.sara-cache, then
     * ./.sara-cache. `maxBytes` bounds the directory; exceeding it on
     * store evicts least-recently-used entries (0 = unbounded).
     */
    explicit ArtifactCache(std::string dir = "",
                           uint64_t maxBytes = 4ULL << 30);

    const std::string &dir() const { return dir_; }

    /** Filesystem path an artifact with `key` would live at. */
    std::string pathFor(const std::string &key) const;

    /** Where a corrupt entry for `key` is parked (never served,
     *  never silently deleted — kept for post-mortem). */
    std::string quarantinePathFor(const std::string &key) const;

    /**
     * Look up `key`. Returns the decoded result on a hit; nullopt on
     * miss. Corrupt or version-skewed entries are quarantined and
     * counted as misses — the caller recompiles and re-stores.
     */
    std::optional<compiler::CompileResult>
    lookup(const std::string &key);

    /** Persist a compiled result under `key` (best-effort: failures
     *  warn and are counted, never thrown — the compile already
     *  succeeded and the caller holds the result). */
    void store(const std::string &key, const compiler::CompileResult &r);

    /** Whether `key` is present (no decode, no counters). */
    bool contains(const std::string &key) const;

    /**
     * Evict least-recently-used entries until the directory is under
     * `maxBytes`. Returns the number of entries removed.
     *
     * Entries opened by lookup() within the trim window are held —
     * skipped even when they are the LRU candidates — so a concurrent
     * cache hit can never have its file deleted between the existence
     * probe and the read (which would surface as a spurious corrupt
     * entry). The directory may transiently exceed `maxBytes` by the
     * held entries; they become evictable once the window expires.
     */
    int trim(uint64_t maxBytes);

    /** Trim hold window in milliseconds (default 10s). Tests shrink it
     *  to exercise expiry; 0 disables the hold entirely. */
    void setTrimWindowMs(double ms) { trimWindowMs_ = ms; }

    /** Remove every cache entry, including quarantined entries and
     *  stale temp files. Returns the number removed. */
    int clear();

    /** Outcome of a startup recovery sweep. */
    struct RecoveryStats
    {
        int scanned = 0;     ///< `.sara` entries examined.
        int ok = 0;          ///< Entries that verified clean.
        int quarantined = 0; ///< Torn/corrupt entries parked.
        int tmpRemoved = 0;  ///< Stale writer temp files deleted.
    };

    /**
     * Startup recovery sweep (crash-only discipline: the recovery path
     * IS the startup path). Verifies every `.sara` entry end to end —
     * container magic, version, checksum, stored-key/filename match —
     * quarantines the ones that fail instead of serving or silently
     * deleting them, and removes stale `*.sara.tmp.*` files left by a
     * writer that died before publishing. Assumes no concurrent writer
     * (single daemon instance per cache directory); sarad calls this
     * once before accepting connections.
     */
    RecoveryStats recover();

    /** Number of quarantined entries currently parked in the
     *  directory (surfaceable in the daemon's stats endpoint). */
    int quarantinedCount() const;

    /** Attach a fault injector (may be null). When set:
     *  - lookups with an artifact-flip fault planned for the key read
     *    the container bytes, flip one byte at the injector-chosen
     *    offset, and feed the damaged buffer to the normal unpack
     *    path — exercising the quarantine + recompile fallback;
     *  - stores with a disk-enospc fault fail as a counted store
     *    failure (the compile result is still returned to callers);
     *  - stores with a disk-short-write fault publish a deliberately
     *    truncated file under the final name, bypassing the atomic
     *    writer — the torn entry must be caught by lookup validation
     *    or the recovery sweep, never served.
     *  Not owned; must outlive the cache. */
    void setFaultInjector(const fault::FaultInjector *inj)
    {
        inj_ = inj;
    }

  private:
    void noteOpen(const std::string &key);
    bool recentlyOpened(const std::string &key) const;

    std::string dir_;
    uint64_t maxBytes_;
    const fault::FaultInjector *inj_ = nullptr;

    // Keys lookup() opened recently, held back from trim eviction.
    mutable std::mutex openMu_;
    std::map<std::string, std::chrono::steady_clock::time_point>
        recentOpens_;
    double trimWindowMs_ = 10000.0;
};

/**
 * Cache-aware, deduplicating compile service. Stateless users call
 * compile(); everything else (key derivation, the disk probe,
 * in-flight dedup, store-back) is handled here.
 *
 * compile() decides an injected fault, probes the disk, then joins the
 * compile in flight for the key or claims the key and compiles. A
 * claim lives only while its compile runs. A compile that throws hands
 * its exception to every caller that joined it.
 */
class CachingCompiler
{
  public:
    /** `cache` may be null (no disk). Not owned. */
    explicit CachingCompiler(ArtifactCache *cache) : cache_(cache) {}

    struct Compiled
    {
        /** Shared with every caller that joined the compile. */
        std::shared_ptr<const compiler::CompileResult> result;
        std::string key;
        bool fromCache = false; ///< Served from disk, not compiled.
        bool deduped = false;   ///< Joined an identical compile.
    };

    /** Compile (or fetch) `input` under `options`. Thread-safe. */
    Compiled compile(const ir::Program &input,
                     const compiler::CompilerOptions &options);

    ArtifactCache *cache() const { return cache_; }

    /** Attach a fault injector (may be null). Compile-fault plans make
     *  compile() throw support::TransientError for the first `count`
     *  attempts per key — the hook the jobs runner's retry-with-backoff
     *  is tested against. Not owned; must outlive the compiler. */
    void setFaultInjector(const fault::FaultInjector *inj)
    {
        inj_ = inj;
    }

  private:
    using Result = std::shared_ptr<const compiler::CompileResult>;

    ArtifactCache *cache_;
    const fault::FaultInjector *inj_ = nullptr;
    std::mutex mu_;
    /** Compiles in flight, by key. Guarded by mu_. */
    std::unordered_map<std::string, std::shared_future<Result>> inflight_;
};

} // namespace sara::artifact

#endif // SARA_ARTIFACT_CACHE_H
