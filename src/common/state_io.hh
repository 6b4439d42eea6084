/**
 * @file
 * Key-checked text archives for simulator state snapshots.
 *
 * Every stateful simulator class has one schema,
 * `template <class Ar> void state(Ar &ar)`, that names each field
 * once.  Run with a StateWriter it appends the fields to a payload;
 * run with a StateReader it reads them back in the same order.  Both
 * archives answer the same field calls — u64/i64/b/f64/str(key,
 * field) plus seq() for count-prefixed sequences — so save and load
 * cannot drift apart.  Work that only a load needs (re-resolving
 * pointers, recounting derived members, range checks) goes in an
 * `if constexpr (Ar::kLoading)` block inside the same schema.
 *
 * A payload is a sequence of `key value\n` lines, and every read
 * names the key it expects.  A mismatch — wrong key, malformed
 * number, a value that does not fit the field, truncated payload —
 * throws CacheError immediately, naming the key, so a version-skewed
 * or damaged snapshot fails loudly at the first divergent field
 * instead of silently misassigning state.
 *
 * The format is deliberately textual: snapshots are framed and
 * FNV-checksummed at the wire layer (runner/wire.hh), so this layer
 * optimizes for debuggability (`scsim_cli checkpoint --file F` prints
 * the leading run-cursor lines as-is) over density.  Doubles use
 * %.17g, which round-trips IEEE-754 binary64 exactly.
 */

#ifndef SCSIM_COMMON_STATE_IO_HH
#define SCSIM_COMMON_STATE_IO_HH

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/logging.hh"
#include "common/text_escape.hh"

namespace scsim {

/** The integer a field is archived as: enums travel as their base. */
template <class T>
using StateRepr = typename std::conditional_t<
    std::is_enum_v<T>, std::underlying_type<T>,
    std::type_identity<T>>::type;

/** Appends `key value` lines to a growing payload. */
class StateWriter
{
  public:
    static constexpr bool kLoading = false;

    template <class T>
    void
    u64(const char *key, const T &v)
    {
        static_assert(std::is_unsigned_v<StateRepr<T>>,
                      "u64 fields are unsigned");
        integer(key, static_cast<std::uint64_t>(v));
    }

    template <class T>
    void
    i64(const char *key, const T &v)
    {
        static_assert(std::is_signed_v<StateRepr<T>>,
                      "i64 fields are signed");
        integer(key, static_cast<std::int64_t>(v));
    }

    void b(const char *key, bool v) { line(key, v ? "1" : "0"); }

    void
    f64(const char *key, double v)
    {
        char tmp[64];
        std::snprintf(tmp, sizeof(tmp), "%.17g", v);
        line(key, tmp);
    }

    /** Free text; newlines and backslashes are escaped to one line. */
    void
    str(const char *key, const std::string &v)
    {
        line(key, escapeLine(v));
    }

    /** Count-prefixed sequence: `countKey n`, then @p each per element. */
    template <class Seq, class Fn>
    void
    seq(const char *countKey, Seq &s, Fn &&each)
    {
        u64(countKey, s.size());
        for (auto &elem : s)
            each(elem);
    }

    const std::string &payload() const { return buf_; }
    std::string take() { return std::move(buf_); }

  private:
    template <class W>
    void
    integer(const char *key, W v)
    {
        char tmp[24];
        auto res = std::to_chars(tmp, tmp + sizeof(tmp), v);
        line(key, std::string_view(tmp, res.ptr - tmp));
    }

    void
    line(const char *key, std::string_view value)
    {
        buf_ += key;
        buf_ += ' ';
        buf_ += value;
        buf_ += '\n';
    }

    std::string buf_;
};

/**
 * Sequential reader over a StateWriter payload.  Every field call
 * names the key it expects and throws CacheError when the payload
 * disagrees or the value does not fit the field's type.
 */
class StateReader
{
  public:
    static constexpr bool kLoading = true;

    explicit StateReader(std::string_view payload)
        : data_(payload)
    {
    }

    template <class T>
    void
    u64(const char *key, T &field)
    {
        static_assert(std::is_unsigned_v<StateRepr<T>>,
                      "u64 fields are unsigned");
        field = static_cast<T>(integer<StateRepr<T>>(key, "u64"));
    }

    template <class T>
    void
    i64(const char *key, T &field)
    {
        static_assert(std::is_signed_v<StateRepr<T>>,
                      "i64 fields are signed");
        field = static_cast<T>(integer<StateRepr<T>>(key, "i64"));
    }

    void
    b(const char *key, bool &field)
    {
        std::string_view v = value(key);
        if (v != "0" && v != "1")
            scsim_throw(CacheError,
                        "snapshot field '%s': bad bool value '%.*s'",
                        key, static_cast<int>(v.size()), v.data());
        field = v == "1";
    }

    void
    f64(const char *key, double &field)
    {
        std::string v(value(key));
        char *end = nullptr;
        double r = std::strtod(v.c_str(), &end);
        if (end == v.c_str() || *end != '\0')
            scsim_throw(CacheError,
                        "snapshot field '%s': bad f64 value '%s'", key,
                        v.c_str());
        field = r;
    }

    void
    str(const char *key, std::string &field)
    {
        field = unescapeLine(std::string(value(key)));
    }

    /** Count-prefixed sequence: replaces @p s with the stored elements. */
    template <class Seq, class Fn>
    void
    seq(const char *countKey, Seq &s, Fn &&each)
    {
        std::uint64_t n = 0;
        u64(countKey, n);
        s.clear();
        // Grown one element at a time: a damaged count then fails at
        // the first missing line instead of allocating n elements.
        for (std::uint64_t i = 0; i < n; ++i)
            each(s.emplace_back());
    }

    bool atEnd() const { return pos_ >= data_.size(); }

    /** Whole payload consumed?  Trailing data is corruption. */
    void
    expectEnd() const
    {
        if (!atEnd())
            scsim_throw(CacheError,
                        "snapshot payload has %zu trailing bytes",
                        data_.size() - pos_);
    }

  private:
    /** Next integer value, range-checked against the field type @p R. */
    template <class R>
    R
    integer(const char *key, const char *kind)
    {
        using Wide = std::conditional_t<std::is_signed_v<R>,
                                        std::int64_t, std::uint64_t>;
        std::string_view v = value(key);
        Wide wide = 0;
        auto res = std::from_chars(v.data(), v.data() + v.size(), wide);
        if (res.ec != std::errc{} || res.ptr != v.data() + v.size())
            scsim_throw(CacheError,
                        "snapshot field '%s': bad %s value '%.*s'", key,
                        kind, static_cast<int>(v.size()), v.data());
        if (!std::in_range<R>(wide))
            scsim_throw(CacheError,
                        "snapshot field '%s': value %.*s out of range",
                        key, static_cast<int>(v.size()), v.data());
        return static_cast<R>(wide);
    }

    /** Next line's value, after checking its key is @p key. */
    std::string_view
    value(const char *key)
    {
        if (pos_ >= data_.size())
            scsim_throw(CacheError,
                        "snapshot truncated: expected field '%s'", key);
        std::size_t eol = data_.find('\n', pos_);
        if (eol == std::string_view::npos)
            scsim_throw(CacheError,
                        "snapshot field '%s': unterminated line", key);
        std::string_view line = data_.substr(pos_, eol - pos_);
        pos_ = eol + 1;
        std::size_t sp = line.find(' ');
        if (sp == std::string_view::npos)
            scsim_throw(CacheError,
                        "snapshot field '%s': malformed line '%.*s'",
                        key, static_cast<int>(line.size()),
                        line.data());
        std::string_view gotKey = line.substr(0, sp);
        if (gotKey != key)
            scsim_throw(CacheError,
                        "snapshot field mismatch: expected '%s', found "
                        "'%.*s'",
                        key, static_cast<int>(gotKey.size()),
                        gotKey.data());
        return line.substr(sp + 1);
    }

    std::string_view data_;
    std::size_t pos_ = 0;
};

} // namespace scsim

#endif // SCSIM_COMMON_STATE_IO_HH
