#include "common/state_io.hh"

#include <cinttypes>
#include <cstdio>

#include "common/text_escape.hh"

namespace scsim {

StateReader::Key &
StateReader::header(const char *what)
{
    std::uint64_t id = varint(what);
    if (id < keys_.size())
        return keys_[id];
    if (id > keys_.size())
        scsim_throw(CacheError,
                    "snapshot field '%s': undefined key id %llu", what,
                    static_cast<unsigned long long>(id));

    // First use of a key: type tag, then its name.
    auto type = static_cast<StateType>(byte(what));
    switch (type) {
      case StateType::U64:
      case StateType::I64:
      case StateType::Bool:
      case StateType::F64:
      case StateType::Str:
        break;
      default:
        scsim_throw(CacheError,
                    "snapshot field '%s': unknown type tag %u", what,
                    static_cast<unsigned>(type));
    }
    std::string_view name = bytes(what);
    // Names print as the first word of a stateText() line.
    if (name.empty())
        scsim_throw(CacheError, "snapshot field '%s': empty key name",
                    what);
    for (char c : name)
        if (c <= ' ' || c > '~')
            scsim_throw(CacheError,
                        "snapshot field '%s': unprintable key name", what);
    keys_.push_back({ name, type });
    return keys_.back();
}

bool
StateReader::next(Field &f)
{
    if (atEnd())
        return false;
    const Key &k = header("(next)");
    const std::string name(k.name);
    const char *key = name.c_str();
    f.key = k.name;
    f.type = k.type;
    f.at = pos_;
    switch (k.type) {
      case StateType::U64:
        f.u = varint(key);
        break;
      case StateType::I64:
        f.i = signedVarint(key);
        break;
      case StateType::Bool:
        f.u = boolean(key);
        break;
      case StateType::F64:
        f.u = fixed64(key);
        break;
      case StateType::Str:
        f.s = bytes(key);
        break;
    }
    f.end = pos_;
    return true;
}

std::string
stateText(std::string_view payload)
{
    StateReader r(payload);
    StateReader::Field f;
    std::string out;
    char tmp[32];
    while (r.next(f)) {
        out += f.key;
        out += ' ';
        switch (f.type) {
          case StateType::U64:
          case StateType::Bool:
            std::snprintf(tmp, sizeof tmp, "%" PRIu64, f.u);
            out += tmp;
            break;
          case StateType::I64:
            std::snprintf(tmp, sizeof tmp, "%" PRId64, f.i);
            out += tmp;
            break;
          case StateType::F64:
            std::snprintf(tmp, sizeof tmp, "%.17g",
                          std::bit_cast<double>(f.u));
            out += tmp;
            break;
          case StateType::Str:
            out += escapeLine(std::string(f.s));
            break;
        }
        out += '\n';
    }
    return out;
}

} // namespace scsim
