#ifndef SARA_ARTIFACT_SERIALIZE_H
#define SARA_ARTIFACT_SERIALIZE_H

/**
 * @file
 * Low-level binary encoding for compiled-program artifacts: a byte
 * buffer of little-endian fixed-width scalars, length-prefixed strings
 * and vectors. Deliberately boring — a stable wire format matters more
 * than compactness, and artifacts are hashed byte-for-byte so the
 * encoding must be fully deterministic (no padding, no pointers, no
 * iteration-order leaks).
 *
 * The Decoder never trusts its input: every read is bounds-checked and
 * malformed data raises ArtifactError, which cache lookups catch to
 * fall back to a fresh compile.
 */

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace sara::artifact {

/** Raised on truncated, corrupt, or version-mismatched artifacts. */
class ArtifactError : public std::runtime_error
{
  public:
    explicit ArtifactError(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

/** Append-only little-endian byte sink. */
class Encoder
{
  public:
    void
    u8(uint8_t v)
    {
        out_.push_back(static_cast<char>(v));
    }
    void
    u32(uint32_t v)
    {
        put<4>(v);
    }
    void
    u64(uint64_t v)
    {
        put<8>(v);
    }
    void
    i32(int32_t v)
    {
        u32(static_cast<uint32_t>(v));
    }
    void
    i64(int64_t v)
    {
        u64(static_cast<uint64_t>(v));
    }
    void
    f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }
    void
    boolean(bool v)
    {
        u8(v ? 1 : 0);
    }
    void
    str(const std::string &s)
    {
        u32(static_cast<uint32_t>(s.size()));
        out_.append(s);
    }
    void
    bytes(const void *data, size_t len)
    {
        out_.append(static_cast<const char *>(data), len);
    }

    const std::string &buffer() const { return out_; }
    std::string take() { return std::move(out_); }

  private:
    /** The low N bytes of v, least significant first, in one append. */
    template <int N>
    void
    put(uint64_t v)
    {
        char b[N];
        for (int i = 0; i < N; ++i)
            b[i] = static_cast<char>(v >> (i * 8));
        out_.append(b, N);
    }

    std::string out_;
};

/** Bounds-checked reader over an encoded buffer. */
class Decoder
{
  public:
    explicit Decoder(const std::string &data)
        : p_(data.data()), end_(data.data() + data.size())
    {
    }

    uint8_t
    u8()
    {
        need(1);
        return static_cast<uint8_t>(*p_++);
    }
    uint32_t
    u32()
    {
        need(4);
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(static_cast<uint8_t>(*p_++))
                 << (i * 8);
        return v;
    }
    uint64_t
    u64()
    {
        need(8);
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(static_cast<uint8_t>(*p_++))
                 << (i * 8);
        return v;
    }
    int32_t
    i32()
    {
        return static_cast<int32_t>(u32());
    }
    int64_t
    i64()
    {
        return static_cast<int64_t>(u64());
    }
    double
    f64()
    {
        uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }
    bool
    boolean()
    {
        uint8_t v = u8();
        if (v > 1)
            throw ArtifactError("artifact: bad boolean byte");
        return v != 0;
    }
    std::string
    str()
    {
        uint32_t len = u32();
        need(len);
        std::string s(p_, len);
        p_ += len;
        return s;
    }

    /** Read exactly `n` raw bytes. */
    std::string
    raw(size_t n)
    {
        need(n);
        std::string s(p_, n);
        p_ += n;
        return s;
    }

    /** Read a length prefix, sanity-capped to the bytes remaining. */
    size_t
    count(size_t elemMinBytes = 1)
    {
        uint32_t n = u32();
        if (elemMinBytes > 0 &&
            static_cast<size_t>(n) > remaining() / elemMinBytes)
            throw ArtifactError("artifact: implausible element count");
        return n;
    }

    size_t remaining() const { return static_cast<size_t>(end_ - p_); }
    bool atEnd() const { return p_ == end_; }

    /** Fail unless the whole buffer was consumed. */
    void
    expectEnd() const
    {
        if (!atEnd())
            throw ArtifactError("artifact: trailing bytes after payload");
    }

  private:
    void
    need(size_t n) const
    {
        if (remaining() < n)
            throw ArtifactError("artifact: truncated payload");
    }

    const char *p_;
    const char *end_;
};

} // namespace sara::artifact

#endif // SARA_ARTIFACT_SERIALIZE_H
