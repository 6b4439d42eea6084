/**
 * @file
 * Key-checked binary archives for simulator state snapshots.
 *
 * Every stateful simulator class has one schema,
 * `template <class Ar> void state(Ar &ar)`, that names each field
 * once.  Run with a StateWriter it appends the fields to a payload;
 * run with a StateReader it reads them back in the same order.  Both
 * archives answer the same field calls — u64/i64/b/f64/str(key,
 * field), index(key, field, n) for fields that index a container of
 * n elements, plus seq() for count-prefixed sequences — so save and
 * load cannot drift apart.  Work that only a load needs (re-resolving
 * pointers, recounting derived members, range checks) goes in an
 * `if constexpr (Ar::kLoading)` block inside the same schema.
 *
 * A payload is a stream of fields, each a varint key id followed by
 * the value.  The first time a key appears, its id is the next unused
 * one and is followed by the key's type tag and length-prefixed name,
 * so a payload describes itself: stateText() turns any payload back
 * into `key value` lines without knowing the schema.  Values are
 * encoded by type:
 *
 *   u  unsigned LEB128 varint (minimal length)
 *   i  zigzag-encoded signed varint
 *   b  one byte, 0 or 1
 *   f  the 8 bytes of the IEEE-754 binary64, little-endian (bit exact)
 *   s  varint byte count, then the bytes
 *
 * Every read names the key it expects.  A mismatch — wrong key or
 * type, a malformed or overlong varint, a value that does not fit the
 * field, an index outside its container, a truncated payload — throws
 * CacheError immediately, naming the key, so a version-skewed or
 * damaged snapshot fails loudly at the first divergent field instead
 * of silently misassigning state.  Snapshots are also framed and
 * FNV-checksummed at the wire layer (runner/wire.hh).
 */

#ifndef SCSIM_COMMON_STATE_IO_HH
#define SCSIM_COMMON_STATE_IO_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace scsim {

/** The integer a field is archived as: enums travel as their base. */
template <class T>
using StateRepr = typename std::conditional_t<
    std::is_enum_v<T>, std::underlying_type<T>,
    std::type_identity<T>>::type;

/** Type tags of the payload's key table. */
enum class StateType : char
{
    U64 = 'u',
    I64 = 'i',
    Bool = 'b',
    F64 = 'f',
    Str = 's',
};

/** Appends fields to a growing binary payload. */
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
        field(key, StateType::U64);
        varint(static_cast<std::uint64_t>(v));
    }

    template <class T>
    void
    i64(const char *key, const T &v)
    {
        static_assert(std::is_signed_v<StateRepr<T>>,
                      "i64 fields are signed");
        auto s = static_cast<std::int64_t>(v);
        field(key, StateType::I64);
        varint((static_cast<std::uint64_t>(s) << 1)
               ^ static_cast<std::uint64_t>(s >> 63));
    }

    void
    b(const char *key, bool v)
    {
        field(key, StateType::Bool);
        buf_ += static_cast<char>(v);
    }

    void
    f64(const char *key, double v)
    {
        field(key, StateType::F64);
        auto bits = std::bit_cast<std::uint64_t>(v);
        for (int i = 0; i < 8; ++i)
            buf_ += static_cast<char>(bits >> (8 * i));
    }

    void
    str(const char *key, const std::string &v)
    {
        field(key, StateType::Str);
        varint(v.size());
        buf_ += v;
    }

    /**
     * A field indexing a container of @p n elements, optionally
     * holding the sentinel @p none instead (checked on load).
     */
    template <class T>
    void
    index(const char *key, const T &v, std::size_t)
    {
        if constexpr (std::is_signed_v<StateRepr<T>>)
            i64(key, v);
        else
            u64(key, v);
    }

    template <class T>
    void
    index(const char *key, const T &v, std::size_t n, T)
    {
        index(key, v, n);
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

    std::string take() { return std::move(buf_); }

  private:
    void
    varint(std::uint64_t v)
    {
        while (v >= 0x80) {
            buf_ += static_cast<char>(v | 0x80);
            v >>= 7;
        }
        buf_ += static_cast<char>(v);
    }

    /** Key id; on a key's first use, also its type tag and name. */
    void
    field(const char *key, StateType type)
    {
        // Schemas pass the same literal for a key every time, so the
        // key's address finds its id without hashing the name.
        auto known = byAddress_.find(key);
        if (known == byAddress_.end()) {
            auto [it, fresh] = byName_.try_emplace(
                key, static_cast<std::uint32_t>(types_.size()));
            known = byAddress_.emplace(key, it->second).first;
            if (fresh) {
                types_.push_back(type);
                varint(it->second);
                buf_ += static_cast<char>(type);
                std::size_t len = std::strlen(key);
                varint(len);
                buf_.append(key, len);
                return;
            }
        }
        scsim_assert(types_[known->second] == type,
                     "snapshot key '%s' written with two types", key);
        varint(known->second);
    }

    std::string buf_;
    std::unordered_map<const char *, std::uint32_t> byAddress_;
    std::unordered_map<std::string_view, std::uint32_t> byName_;
    std::vector<StateType> types_;   //!< by key id
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
        expect(key, StateType::U64);
        field = static_cast<T>(fit<StateRepr<T>>(key, varint(key)));
    }

    template <class T>
    void
    i64(const char *key, T &field)
    {
        static_assert(std::is_signed_v<StateRepr<T>>,
                      "i64 fields are signed");
        expect(key, StateType::I64);
        field = static_cast<T>(fit<StateRepr<T>>(key, signedVarint(key)));
    }

    void
    b(const char *key, bool &field)
    {
        expect(key, StateType::Bool);
        field = boolean(key);
    }

    void
    f64(const char *key, double &field)
    {
        expect(key, StateType::F64);
        field = std::bit_cast<double>(fixed64(key));
    }

    void
    str(const char *key, std::string &field)
    {
        expect(key, StateType::Str);
        field = std::string(bytes(key));
    }

    /** An index field: on load, 0 <= value < @p n, else CacheError. */
    template <class T>
    void
    index(const char *key, T &field, std::size_t n)
    {
        integer(key, field);
        checkIndex(key, field, n);
    }

    /** As index(), but the sentinel @p none is accepted too. */
    template <class T>
    void
    index(const char *key, T &field, std::size_t n, T none)
    {
        integer(key, field);
        if (field != none)
            checkIndex(key, field, n);
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
        // the first missing field instead of allocating n elements.
        for (std::uint64_t i = 0; i < n; ++i)
            each(s.emplace_back());
    }

    /**
     * One field as the schema-less walk in next() sees it; the views
     * point into the payload.
     */
    struct Field
    {
        std::string_view key;
        StateType type = StateType::U64;
        std::size_t at = 0;      //!< offset of the value's first byte
        std::size_t end = 0;     //!< one past the value's last byte
        std::uint64_t u = 0;     //!< u, b; f as its bit pattern
        std::int64_t i = 0;      //!< i
        std::string_view s;      //!< s
    };

    /**
     * Decode the next field whatever its key, for tools that walk a
     * payload without its schema.  False at the end of the payload.
     */
    bool next(Field &f);

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
    struct Key
    {
        std::string_view name;   //!< points into the payload
        StateType type;
        const char *seen = nullptr;   //!< last schema literal that matched
    };

    /** @p v narrowed to the field type @p R, or CacheError. */
    template <class R, class W>
    static R
    fit(const char *key, W v)
    {
        if (!std::in_range<R>(v)) {
            if constexpr (std::is_signed_v<W>)
                scsim_throw(CacheError,
                            "snapshot field '%s': value %lld out of range",
                            key, static_cast<long long>(v));
            else
                scsim_throw(CacheError,
                            "snapshot field '%s': value %llu out of range",
                            key, static_cast<unsigned long long>(v));
        }
        return static_cast<R>(v);
    }

    template <class T>
    void
    integer(const char *key, T &field)
    {
        if constexpr (std::is_signed_v<T>)
            i64(key, field);
        else
            u64(key, field);
    }

    template <class T>
    static void
    checkIndex(const char *key, T v, std::size_t n)
    {
        if (std::cmp_less(v, 0) || std::cmp_greater_equal(v, n))
            scsim_throw(CacheError,
                        "snapshot field '%s': index %s out of range "
                        "(%zu entries)",
                        key, std::to_string(v).c_str(), n);
    }

    unsigned char
    byte(const char *key)
    {
        if (pos_ >= data_.size())
            scsim_throw(CacheError,
                        "snapshot truncated: expected field '%s'", key);
        return static_cast<unsigned char>(data_[pos_++]);
    }

    bool
    boolean(const char *key)
    {
        unsigned char v = byte(key);
        if (v > 1)
            scsim_throw(CacheError,
                        "snapshot field '%s': bad bool value %u", key, v);
        return v == 1;
    }

    /** Eight little-endian bytes. */
    std::uint64_t
    fixed64(const char *key)
    {
        std::uint64_t bits = 0;
        for (int i = 0; i < 8; ++i)
            bits |= std::uint64_t(byte(key)) << (8 * i);
        return bits;
    }

    /** Minimal-length LEB128; overlong or oversized encodings throw. */
    std::uint64_t
    varint(const char *key)
    {
        std::uint64_t v = 0;
        for (int shift = 0;; shift += 7) {
            unsigned char c = byte(key);
            if (shift == 63 && c > 1)
                scsim_throw(CacheError,
                            "snapshot field '%s': varint overflows 64 "
                            "bits", key);
            v |= std::uint64_t(c & 0x7f) << shift;
            if (!(c & 0x80)) {
                if (c == 0 && shift > 0)
                    scsim_throw(CacheError,
                                "snapshot field '%s': overlong varint",
                                key);
                return v;
            }
        }
    }

    std::int64_t
    signedVarint(const char *key)
    {
        std::uint64_t u = varint(key);
        return static_cast<std::int64_t>(u >> 1)
               ^ -static_cast<std::int64_t>(u & 1);
    }

    /** A length-prefixed byte string. */
    std::string_view
    bytes(const char *key)
    {
        std::uint64_t n = varint(key);
        if (n > data_.size() - pos_)
            scsim_throw(CacheError,
                        "snapshot field '%s': %llu-byte value runs past "
                        "the payload",
                        key, static_cast<unsigned long long>(n));
        std::string_view v = data_.substr(pos_, n);
        pos_ += n;
        return v;
    }

    /** Read a key id (defining the key on first use); its entry. */
    Key &header(const char *what);

    /** Next field's header, after checking it is @p key of @p type. */
    void
    expect(const char *key, StateType type)
    {
        Key &k = header(key);
        if (k.seen != key) {
            if (k.name != key)
                scsim_throw(CacheError,
                            "snapshot field mismatch: expected '%s', "
                            "found '%.*s'",
                            key, static_cast<int>(k.name.size()),
                            k.name.data());
            k.seen = key;
        }
        if (k.type != type)
            scsim_throw(CacheError,
                        "snapshot field '%s': stored as type '%c', read "
                        "as '%c'",
                        key, static_cast<char>(k.type),
                        static_cast<char>(type));
    }

    std::string_view data_;
    std::size_t pos_ = 0;
    std::vector<Key> keys_;   //!< by key id
};

/**
 * Every field of @p payload as one `key value` line (strings
 * line-escaped, doubles as %.17g), for inspecting a snapshot without
 * its schema.  Throws CacheError if the field stream is malformed.
 */
std::string stateText(std::string_view payload);

} // namespace scsim

#endif // SCSIM_COMMON_STATE_IO_HH
