#include "osu/env.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

extern "C" char** environ;

namespace hmca::osu {

namespace {

constexpr const char* kKnown[] = {
    Env::kAllgatherAlgo, Env::kAllreduceAlgo, Env::kAlltoallAlgo,
    Env::kReduceScatterAlgo, Env::kFaults, Env::kConformanceSeed,
    Env::kSimcoreSeed, Env::kStats, Env::kHierarchy, Env::kGitSha,
};

bool known_name(std::string_view name) {
  for (const char* k : kKnown) {
    if (name == k) return true;
  }
  return false;
}

bool value_means_off(std::string_view v) {
  return v == "0" || v == "off" || v == "no" || v == "false";
}

/// The value of seed variable `var`: an unsigned base-0 integer (`42`,
/// `0x2a`, `052`) that fills the whole value and fits 64 bits.
std::optional<std::uint64_t> seed(const char* var) {
  const auto v = Env::raw(var);
  if (!v) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const std::uint64_t parsed = std::strtoull(v->c_str(), &end, 0);
  // strtoull skips blanks, accepts a sign (wrapping "-1" to 2^64-1), stops
  // at the first non-digit and clamps on overflow: check all four.
  if (std::isdigit(static_cast<unsigned char>(v->front())) == 0 ||
      *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument(std::string(var) + "='" + *v +
                                "' is not an unsigned 64-bit integer");
  }
  return parsed;
}

}  // namespace

StatsFormat parse_stats_format(std::string_view value, const char* what) {
  if (value.empty() || value == "1" || value == "on" || value == "true" ||
      value == "text") {
    return StatsFormat::kText;
  }
  if (value == "json") return StatsFormat::kJson;
  if (value == "csv") return StatsFormat::kCsv;
  throw std::invalid_argument(std::string(what) + ": unknown stats format '" +
                              std::string(value) +
                              "' (expected text, json or csv)");
}

std::optional<std::string> Env::raw(const char* var) {
  const char* v = std::getenv(var);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

std::optional<std::string> Env::allgather_algo() { return raw(kAllgatherAlgo); }
std::optional<std::string> Env::allreduce_algo() { return raw(kAllreduceAlgo); }
std::optional<std::string> Env::alltoall_algo() { return raw(kAlltoallAlgo); }
std::optional<std::string> Env::reduce_scatter_algo() {
  return raw(kReduceScatterAlgo);
}
std::optional<std::string> Env::faults() { return raw(kFaults); }
std::optional<std::string> Env::hierarchy() { return raw(kHierarchy); }

std::optional<std::uint64_t> Env::conformance_seed() {
  return seed(kConformanceSeed);
}

std::optional<std::uint64_t> Env::simcore_seed() { return seed(kSimcoreSeed); }

std::optional<StatsFormat> Env::stats() {
  const auto v = raw(kStats);
  if (!v || value_means_off(*v)) return std::nullopt;
  return parse_stats_format(*v, kStats);
}

std::string Env::git_sha() {
  static const std::string sha = [] {
    if (const auto v = raw(kGitSha)) return *v;
    std::string out;
    if (FILE* pipe =
            ::popen("git rev-parse --short=12 HEAD 2>/dev/null", "r")) {
      char buf[256];
      while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
      ::pclose(pipe);
    }
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
      out.pop_back();
    }
    if (out.empty() || out.find(' ') != std::string::npos) out = "unknown";
    return out;
  }();
  return sha;
}

int Env::warn_unknown(std::ostream& os) {
  int found = 0;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string_view entry(*e);
    if (entry.rfind("HMCA_", 0) != 0) continue;
    const std::string_view name = entry.substr(0, entry.find('='));
    if (known_name(name)) continue;
    os << "hmca: warning: unknown environment variable " << name
       << " (known: ";
    const char* sep = "";
    for (const char* k : kKnown) {
      os << sep << k;
      sep = ", ";
    }
    os << ")\n";
    ++found;
  }
  return found;
}

void Env::warn_unknown_once() {
  static const bool done = [] {
    Env::warn_unknown(std::cerr);
    return true;
  }();
  (void)done;
}

}  // namespace hmca::osu
