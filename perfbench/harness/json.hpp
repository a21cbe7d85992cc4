/**
 * @file
 * Minimal one-line JSON object writer for the harness's results
 * (numbers at full precision; strings are plain identifiers or error
 * messages and are escaped).
 */

#ifndef LAPSES_PERFBENCH_JSON_HPP
#define LAPSES_PERFBENCH_JSON_HPP

#include <cstdio>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench
{

inline std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/** A double with every significant digit. */
inline std::string
jsonNumber(double v)
{
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
    return os.str();
}

class JsonObject
{
  public:
    JsonObject&
    raw(const std::string& key, const std::string& json)
    {
        if (!body_.empty())
            body_ += ',';
        body_ += jsonString(key);
        body_ += ':';
        body_ += json;
        return *this;
    }
    JsonObject&
    str(const std::string& key, const std::string& v)
    {
        return raw(key, jsonString(v));
    }
    JsonObject&
    num(const std::string& key, double v)
    {
        return raw(key, jsonNumber(v));
    }
    JsonObject&
    numbers(const std::string& key, const std::vector<double>& vs)
    {
        std::string arr = "[";
        for (std::size_t i = 0; i < vs.size(); ++i) {
            if (i > 0)
                arr += ',';
            arr += jsonNumber(vs[i]);
        }
        return raw(key, arr + "]");
    }
    JsonObject&
    integer(const std::string& key, unsigned long long v)
    {
        return raw(key, std::to_string(v));
    }
    JsonObject&
    boolean(const std::string& key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }
    JsonObject&
    strings(const std::string& key, const std::vector<std::string>& vs)
    {
        std::string arr = "[";
        for (std::size_t i = 0; i < vs.size(); ++i) {
            if (i > 0)
                arr += ',';
            arr += jsonString(vs[i]);
        }
        return raw(key, arr + "]");
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

} // namespace perfbench

#endif // LAPSES_PERFBENCH_JSON_HPP
