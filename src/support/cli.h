#ifndef SARA_SUPPORT_CLI_H
#define SARA_SUPPORT_CLI_H

/**
 * @file
 * The command-line contract every SARA binary follows: `--help` or
 * `-h` prints the usage on stdout and exits 0; an unknown flag, a
 * missing value or a malformed value prints the reason and the usage
 * on stderr and exits 2. A parser walks the arguments and pulls values
 * through CliArgs:
 *
 *   CliArgs args(argc, argv, "[--reps N] [--out FILE]");
 *   while (args.next()) {
 *       if (args.is("--reps"))
 *           reps = args.number<int>();
 *       else
 *           args.unknown();
 *   }
 */

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <system_error>
#include <utility>

namespace sara {

class CliArgs
{
  public:
    /** The usage reads "usage: <prog> <flags>"; `prog` defaults to
     *  argv[0], and `flags` may span several lines. */
    CliArgs(int argc, char **argv, const std::string &flags,
            std::string prog = "")
        : argc_(argc), argv_(argv),
          prog_(prog.empty() ? argv[0] : std::move(prog)),
          usage_("usage: " + prog_ + " " + flags)
    {
    }

    /** Advance to the next argument; false once all are consumed. */
    bool
    next()
    {
        if (++i_ >= argc_)
            return false;
        arg_ = argv_[i_];
        if (arg_ == "--help" || arg_ == "-h") {
            std::printf("%s\n", usage_.c_str());
            std::exit(0);
        }
        return true;
    }

    /** The current argument: a flag, or a positional operand. */
    const std::string &arg() const { return arg_; }

    bool is(const char *name) const { return arg_ == name; }

    /** The current flag's value argument. */
    std::string
    value()
    {
        if (i_ + 1 >= argc_)
            fail("missing value for " + arg_);
        return argv_[++i_];
    }

    /** The current flag's value as a T. The whole value must parse:
     *  "2x" fails, and so does "-1" for an unsigned T. */
    template <typename T>
    T
    number()
    {
        return toNumber<T>(value());
    }

    /** As number(); a value outside [lo, hi] fails naming the range. */
    template <typename T>
    T
    number(T lo, T hi)
    {
        return inRange(number<T>(), lo, hi);
    }

    /** `v`, a number of the current flag's value, if it lies inside
     *  [lo, hi] (NaN never does); otherwise fail naming the range. */
    template <typename T>
    T
    inRange(T v, T lo, T hi) const
    {
        if (!(v >= lo && v <= hi))
            fail(arg_ + " " + show(v) + " out of range [" + show(lo) +
                 ", " + show(hi) + "]");
        return v;
    }

    /** One number of the current flag's value (e.g. part of it). */
    template <typename T>
    T
    toNumber(const std::string &text) const
    {
        T v{};
        const char *end = text.data() + text.size();
        auto [ptr, ec] = std::from_chars(text.data(), end, v);
        if (ec != std::errc() || ptr != end)
            fail("bad number '" + text + "' for " + arg_);
        return v;
    }

    /** The current flag's value as one of the named choices; any
     *  other name fails with the list of valid ones. */
    template <typename T>
    T
    choice(std::initializer_list<std::pair<const char *, T>> choices)
    {
        std::string v = value();
        std::string names;
        for (const auto &[name, result] : choices) {
            if (v == name)
                return result;
            names += (names.empty() ? "" : ", ") + std::string(name);
        }
        fail("bad value '" + v + "' for " + arg_ + " (expected " + names +
             ")");
    }

    [[noreturn]] void unknown() const { fail("unknown option " + arg_); }

    /** Usage error: the reason and the usage on stderr, exit 2. */
    [[noreturn]] void
    fail(const std::string &why) const
    {
        std::fprintf(stderr, "%s: %s\n%s\n", prog_.c_str(), why.c_str(),
                     usage_.c_str());
        std::exit(2);
    }

  private:
    /** Shortest text that reads back as `v` ("1e+12", "0.001", "nan"). */
    template <typename T>
    static std::string
    show(T v)
    {
        char buf[64];
        return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    }

    int argc_;
    char **argv_;
    std::string prog_;
    std::string usage_;
    int i_ = 0;
    std::string arg_;
};

} // namespace sara

#endif // SARA_SUPPORT_CLI_H
