#pragma once
// dmps_perf's three modes and the one-line JSON writer they report with.
//
//   dmps_perf drive   — the load generator (perf/generator.cpp)
//   dmps_perf serve   — the traced twin of dmps_floord (perf/twin.cpp)
//   dmps_perf session — in-process Presentation runs (perf/session_bench.cpp)
//
// Each mode prints exactly one JSON object on the last line of stdout;
// perf/run.py turns it into metrics and correctness gates.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.hpp"

namespace dmps::perf {

int run_drive(int argc, char** argv);
int run_serve(int argc, char** argv);
int run_session(int argc, char** argv);

/// Builds one flat-or-nested JSON object. Numbers keep all their digits.
class Json {
 public:
  Json& num(const char* key, double v) {
    char buf[32];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return raw(key, buf);
  }
  Json& integer(const char* key, long long v) { return raw(key, std::to_string(v)); }
  Json& boolean(const char* key, bool v) { return raw(key, v ? "true" : "false"); }
  Json& str(const char* key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') {
        quoted += '\\';
        quoted += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        quoted += ' ';
      } else {
        quoted += c;
      }
    }
    return raw(key, quoted + "\"");
  }
  /// `summary` in `scale` units (e.g. 1e-3 for ns -> us).
  Json& summary(const char* key, const Summary& s, double scale) {
    Json inner;
    inner.integer("count", static_cast<long long>(s.count))
        .num("p50", s.p50 * scale)
        .num("p90", s.p90 * scale)
        .num("p99", s.p99 * scale)
        .num("max", s.max * scale)
        .num("mean", s.mean * scale)
        .boolean("p99_supported", s.p99_supported);
    return raw(key, inner.text());
  }
  /// Embed already-serialized JSON.
  Json& raw(const char* key, const std::string& json) {
    body_ += body_.empty() ? "\"" : ",\"";
    body_ += key;
    body_ += "\":";
    body_ += json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

  /// A JSON array of numbers.
  class Array {
   public:
    Array& add(double v) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.17g", body_.empty() ? "" : ",",
                    std::isfinite(v) ? v : 0.0);
      body_ += buf;
      return *this;
    }
    std::string text() const { return "[" + body_ + "]"; }

   private:
    std::string body_;
  };

 private:
  std::string body_;
};

/// `values` as a JSON array of numbers.
template <class T>
std::string json_list(const std::vector<T>& values) {
  Json::Array out;
  for (const T& v : values) out.add(static_cast<double>(v));
  return out.text();
}

}  // namespace dmps::perf
