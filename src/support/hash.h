#ifndef SARA_SUPPORT_HASH_H
#define SARA_SUPPORT_HASH_H

/**
 * @file
 * Content hashing for the artifact cache. Two primitives:
 *
 *  - Sha256: an incremental SHA-256 implementation (FIPS 180-4) used
 *    to derive content-addressed cache keys and artifact payload
 *    checksums. Self-contained — no OpenSSL dependency. Whole blocks
 *    go through the x86 SHA extensions when the CPU has them and
 *    through portable code otherwise; both give the same digest.
 *  - fnv1a64: a cheap non-cryptographic mix for in-memory hash keys.
 *
 * Cache keys must be stable across processes and machines, which rules
 * out std::hash (implementation-defined) and anything seeded by ASLR.
 */

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace sara::support {

/** The SHA-256 block function, exposed so tests can hold the hardware
 *  path against the portable one. */
namespace sha256 {

using State = std::array<uint32_t, 8>;

/** Fold `n` consecutive 64-byte blocks at `data` into `state`. */
void compressPortable(State &state, const uint8_t *data, size_t n);

/** True when the CPU has the x86 SHA extensions. */
bool hasShaExtensions();

/** compressPortable on the SHA extensions; call only when
 *  hasShaExtensions(). */
void compressShaExtensions(State &state, const uint8_t *data, size_t n);

} // namespace sha256

/** Incremental SHA-256. update() any number of times, then digest(). */
class Sha256
{
  public:
    Sha256();

    void update(const void *data, size_t len);
    void
    update(const std::string &s)
    {
        update(s.data(), s.size());
    }

    /** Finalize and return the 32-byte digest. The object must not be
     *  updated afterwards. */
    std::array<uint8_t, 32> digest();

    /** Finalize and return the digest as 64 lowercase hex chars. */
    std::string hex();

    /** One-shot convenience. */
    static std::string hexOf(const std::string &data);

  private:
    void compress(const uint8_t *blocks, size_t n);

    sha256::State state_;
    uint64_t bitLen_ = 0;
    std::array<uint8_t, 64> buf_;
    size_t bufLen_ = 0;
    bool finalized_ = false;
};

/** FNV-1a 64-bit over a byte range. */
uint64_t fnv1a64(const void *data, size_t len, uint64_t seed = 0xcbf29ce484222325ULL);

/** Render a byte digest as lowercase hex. */
std::string toHex(const uint8_t *data, size_t len);

} // namespace sara::support

#endif // SARA_SUPPORT_HASH_H
