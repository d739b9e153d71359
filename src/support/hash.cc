#include "support/hash.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

#include "support/logging.h"

namespace sara::support {

namespace {

constexpr std::array<uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
    0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
    0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
    0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
    0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
    0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
    0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
    0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t
rotr(uint32_t x, int n)
{
    return (x >> n) | (x << (32 - n));
}

} // namespace

namespace sha256 {

void
compressPortable(State &state, const uint8_t *data, size_t n)
{
    for (; n > 0; --n, data += 64) {
        uint32_t w[64];
        for (int i = 0; i < 16; ++i)
            w[i] = (static_cast<uint32_t>(data[i * 4]) << 24) |
                   (static_cast<uint32_t>(data[i * 4 + 1]) << 16) |
                   (static_cast<uint32_t>(data[i * 4 + 2]) << 8) |
                   static_cast<uint32_t>(data[i * 4 + 3]);
        for (int i = 16; i < 64; ++i) {
            uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^
                          (w[i - 15] >> 3);
            uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^
                          (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
        uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
        for (int i = 0; i < 64; ++i) {
            uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
            uint32_t ch = (e & f) ^ (~e & g);
            uint32_t t1 = h + s1 + ch + kK[i] + w[i];
            uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
            uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            uint32_t t2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + t1;
            d = c;
            c = b;
            b = a;
            a = t1 + t2;
        }
        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

bool
hasShaExtensions()
{
    static const bool has = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("sha") &&
               __builtin_cpu_supports("sse4.1");
    }();
    return has;
}

/**
 * Intel's SHA-NI block loop: the state lives as ABEF/CDGH halves, each
 * sha256rnds2 does two rounds, and sha256msg1/msg2 extend the message
 * schedule four words at a time in a four-register ring.
 */
__attribute__((target("sha,sse4.1"))) void
compressShaExtensions(State &state, const uint8_t *data, size_t n)
{
    const __m128i bswap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
    __m128i tmp = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(&state[0])); // DCBA
    __m128i s1 = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(&state[4])); // HGFE
    tmp = _mm_shuffle_epi32(tmp, 0xB1);                // CDAB
    s1 = _mm_shuffle_epi32(s1, 0x1B);                  // EFGH
    __m128i s0 = _mm_alignr_epi8(tmp, s1, 8);          // ABEF
    s1 = _mm_blend_epi16(s1, tmp, 0xF0);               // CDGH

    for (; n > 0; --n, data += 64) {
        const __m128i abefSave = s0, cdghSave = s1;
        __m128i w[4];
#pragma GCC unroll 16
        for (int q = 0; q < 16; ++q) {
            __m128i &cur = w[q & 3];
            if (q < 4)
                cur = _mm_shuffle_epi8(
                    _mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(data + 16 * q)),
                    bswap);
            __m128i msg = _mm_add_epi32(
                cur, _mm_loadu_si128(
                         reinterpret_cast<const __m128i *>(&kK[4 * q])));
            s1 = _mm_sha256rnds2_epu32(s1, s0, msg);
            if (q >= 3 && q <= 14) {
                __m128i &nxt = w[(q + 1) & 3];
                nxt = _mm_add_epi32(nxt,
                                    _mm_alignr_epi8(cur, w[(q + 3) & 3], 4));
                nxt = _mm_sha256msg2_epu32(nxt, cur);
            }
            s0 = _mm_sha256rnds2_epu32(s0, s1,
                                       _mm_shuffle_epi32(msg, 0x0E));
            if (q >= 1 && q <= 12) {
                __m128i &prv = w[(q + 3) & 3];
                prv = _mm_sha256msg1_epu32(prv, cur);
            }
        }
        s0 = _mm_add_epi32(s0, abefSave);
        s1 = _mm_add_epi32(s1, cdghSave);
    }

    tmp = _mm_shuffle_epi32(s0, 0x1B);   // FEBA
    s1 = _mm_shuffle_epi32(s1, 0xB1);    // DCHG
    s0 = _mm_blend_epi16(tmp, s1, 0xF0); // DCBA
    s1 = _mm_alignr_epi8(s1, tmp, 8);    // HGFE
    _mm_storeu_si128(reinterpret_cast<__m128i *>(&state[0]), s0);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(&state[4]), s1);
}

#else

bool
hasShaExtensions()
{
    return false;
}

void
compressShaExtensions(State &, const uint8_t *, size_t)
{
    ::sara::panic("Sha256: no SHA extensions on this CPU");
}

#endif

} // namespace sha256

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
             0x9b05688c, 0x1f83d9ab, 0x5be0cd19}
{
}

void
Sha256::compress(const uint8_t *blocks, size_t n)
{
    if (sha256::hasShaExtensions())
        sha256::compressShaExtensions(state_, blocks, n);
    else
        sha256::compressPortable(state_, blocks, n);
}

void
Sha256::update(const void *data, size_t len)
{
    SARA_ASSERT(!finalized_, "Sha256: update after digest");
    if (len == 0)
        return;
    const uint8_t *p = static_cast<const uint8_t *>(data);
    bitLen_ += static_cast<uint64_t>(len) * 8;
    if (bufLen_ > 0) {
        size_t take = std::min(len, buf_.size() - bufLen_);
        std::memcpy(buf_.data() + bufLen_, p, take);
        bufLen_ += take;
        p += take;
        len -= take;
        if (bufLen_ < buf_.size())
            return;
        compress(buf_.data(), 1);
        bufLen_ = 0;
    }
    // Whole blocks straight from the input; the tail waits in buf_.
    size_t whole = len / buf_.size();
    if (whole > 0)
        compress(p, whole);
    p += whole * buf_.size();
    len -= whole * buf_.size();
    if (len > 0)
        std::memcpy(buf_.data(), p, len);
    bufLen_ = len;
}

std::array<uint8_t, 32>
Sha256::digest()
{
    SARA_ASSERT(!finalized_, "Sha256: digest called twice");
    finalized_ = true;
    // Pad: 0x80, zeros, 64-bit big-endian length.
    buf_[bufLen_++] = 0x80;
    if (bufLen_ > 56) {
        std::memset(buf_.data() + bufLen_, 0, buf_.size() - bufLen_);
        compress(buf_.data(), 1);
        bufLen_ = 0;
    }
    std::memset(buf_.data() + bufLen_, 0, 56 - bufLen_);
    for (int i = 0; i < 8; ++i)
        buf_[56 + i] = static_cast<uint8_t>(bitLen_ >> (56 - i * 8));
    compress(buf_.data(), 1);

    std::array<uint8_t, 32> out;
    for (int i = 0; i < 8; ++i) {
        out[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
        out[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
        out[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
        out[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
    }
    return out;
}

std::string
Sha256::hex()
{
    auto d = digest();
    return toHex(d.data(), d.size());
}

std::string
Sha256::hexOf(const std::string &data)
{
    Sha256 h;
    h.update(data);
    return h.hex();
}

uint64_t
fnv1a64(const void *data, size_t len, uint64_t seed)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    uint64_t h = seed;
    for (size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
toHex(const uint8_t *data, size_t len)
{
    static const char *digits = "0123456789abcdef";
    std::string out;
    out.reserve(len * 2);
    for (size_t i = 0; i < len; ++i) {
        out += digits[data[i] >> 4];
        out += digits[data[i] & 0xf];
    }
    return out;
}

} // namespace sara::support
