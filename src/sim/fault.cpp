#include "sim/fault.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

namespace hmca::sim {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      const std::string piece = trim(s.substr(start, i - start));
      if (!piece.empty()) out.push_back(piece);
      start = i + 1;
    }
  }
  return out;
}

// Value `v` of field `key`: a finite number.
double to_number(const std::string& key, const std::string& v,
                 const std::string& where) {
  double d = 0;
  try {
    std::size_t used = 0;
    d = std::stod(v, &used);
    if (used != v.size()) throw std::invalid_argument(v);
  } catch (const std::exception&) {
    throw FaultPlanError("fault plan: bad number " + key + "='" + v +
                         "' in '" + where + "'");
  }
  if (!std::isfinite(d)) {
    throw FaultPlanError("fault plan: " + key + "='" + v +
                         "' is not a finite number in '" + where + "'");
  }
  return d;
}

// Value `v` of integer field `key`, checked against [lo, hi] before the
// cast (an out-of-range double-to-integer conversion is undefined).
double to_integer(const std::string& key, const std::string& v,
                  const std::string& where, double lo, double hi) {
  const double d = to_number(key, v, where);
  if (d != std::floor(d)) {
    throw FaultPlanError("fault plan: " + key + "='" + v + "' in '" + where +
                         "' must be an integer");
  }
  if (d < lo || d > hi) {
    throw FaultPlanError("fault plan: " + key + "='" + v + "' in '" + where +
                         "' is out of range");
  }
  return d;
}

int to_int(const std::string& key, const std::string& v,
           const std::string& where) {
  return static_cast<int>(
      to_integer(key, v, where, std::numeric_limits<int>::min(),
                 std::numeric_limits<int>::max()));
}

// Node/HCA selector: an integer index, or * for all.
int to_index(const std::string& key, const std::string& v,
             const std::string& where) {
  return v == "*" ? -1 : to_int(key, v, where);
}

using Fields = std::map<std::string, std::string>;

Fields parse_fields(const std::vector<std::string>& parts,
                    const std::string& where) {
  Fields f;
  for (std::size_t i = 1; i < parts.size(); ++i) {
    const auto eq = parts[i].find('=');
    if (eq == std::string::npos) {
      throw FaultPlanError("fault plan: expected key=value, got '" + parts[i] +
                           "' in '" + where + "'");
    }
    f[trim(parts[i].substr(0, eq))] = trim(parts[i].substr(eq + 1));
  }
  return f;
}

void build_entry(FaultPlan& plan, const std::string& kind, const Fields& f,
                 const std::string& where) {
  auto get = [&](const char* key, const char* fallback) -> std::string {
    auto it = f.find(key);
    return it != f.end() ? it->second : std::string(fallback);
  };
  auto number = [&](const char* key, const char* fallback) {
    return to_number(key, get(key, fallback), where);
  };
  if (kind == "kill" || kind == "degrade") {
    FaultEvent e;
    e.kind = kind == "kill" ? FaultKind::kKill : FaultKind::kDegrade;
    e.node = to_index("node", get("node", "*"), where);
    e.hca = to_index("hca", get("hca", "*"), where);
    e.t = number("t", "0");
    if (e.kind == FaultKind::kDegrade) {
      e.bw_factor = number("bw", "1");
      e.lat_factor = number("lat", "1");
    }
    plan.events.push_back(e);
  } else if (kind == "flaky" || kind == "transient") {
    TransientSpec t;
    t.rate = number("rate", "0.05");
    t.max_consecutive = to_int("burst", get("burst", "3"), where);
    t.backoff_base = number("backoff", "2e-6");
    t.backoff_max = number("backoff_max", "64e-6");
    // The largest double below 2^64 is the largest one uint64_t holds.
    t.seed = static_cast<std::uint64_t>(to_integer(
        "seed", get("seed", "24397"), where, 0, std::nextafter(0x1p64, 0.0)));
    plan.transient = t;
  } else {
    throw FaultPlanError("fault plan: unknown kind '" + kind + "' in '" +
                         where + "' (want kill/degrade/flaky)");
  }
}

// ---- Minimal JSON-array-of-flat-objects parser ----
// Accepts: [ {"kind":"kill", "node":0, "t":5e-6}, ... ] with number or
// string values. Anything deeper is rejected with a pointed error.

struct JsonCursor {
  const std::string& s;
  std::size_t i = 0;

  void skip_ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  [[noreturn]] void fail(const std::string& what) const {
    throw FaultPlanError("fault plan (json): " + what + " at offset " +
                         std::to_string(i));
  }
  char peek() {
    skip_ws();
    if (i >= s.size()) fail("unexpected end of input");
    return s[i];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++i;
  }
  std::string string_value() {
    expect('"');
    std::string out;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') fail("escapes are not supported");
      out.push_back(s[i++]);
    }
    if (i >= s.size()) fail("unterminated string");
    ++i;  // closing quote
    return out;
  }
  std::string scalar_value() {
    if (peek() == '"') return string_value();
    std::size_t start = i;
    while (i < s.size() && (std::isalnum(static_cast<unsigned char>(s[i])) ||
                            s[i] == '+' || s[i] == '-' || s[i] == '.' ||
                            s[i] == '*')) {
      ++i;
    }
    if (i == start) fail("expected a value");
    return s.substr(start, i - start);
  }
};

FaultPlan parse_json(const std::string& text) {
  FaultPlan plan;
  JsonCursor c{text};
  c.expect('[');
  if (c.peek() == ']') return plan;
  for (;;) {
    c.expect('{');
    Fields f;
    std::string kind;
    if (c.peek() != '}') {
      for (;;) {
        const std::string key = c.string_value();
        c.expect(':');
        const std::string value = c.scalar_value();
        if (key == "kind") {
          kind = value;
        } else {
          f[key] = value;
        }
        if (c.peek() != ',') break;
        c.expect(',');
      }
    }
    c.expect('}');
    if (kind.empty()) c.fail("object is missing \"kind\"");
    build_entry(plan, kind, f, "json entry");
    if (c.peek() != ',') break;
    c.expect(',');
  }
  c.expect(']');
  return plan;
}

std::string format_double(double d) {
  std::ostringstream os;
  os << d;
  return os.str();
}

std::string format_index(int idx) {
  return idx < 0 ? std::string("*") : std::to_string(idx);
}

}  // namespace

double TransientSpec::backoff(int attempt) const {
  double d = backoff_base;
  for (int i = 1; i < attempt; ++i) {
    d *= 2;
    if (d >= backoff_max) return backoff_max;
  }
  return std::min(d, backoff_max);
}

std::string FaultEvent::describe() const {
  std::ostringstream os;
  os << (kind == FaultKind::kKill ? "kill" : "degrade") << " n"
     << format_index(node) << ".h" << format_index(hca) << " @" << t << "s";
  if (kind == FaultKind::kDegrade) {
    os << " bw=" << bw_factor << " lat=" << lat_factor;
  }
  return os.str();
}

FaultPlan FaultPlan::parse(const std::string& text) {
  const std::string body = trim(text);
  if (body.empty()) return {};
  if (body.front() == '[') return parse_json(body);

  FaultPlan plan;
  for (const std::string& entry : split(body, ';')) {
    // `kind:field,...` — the kind may also be comma-separated from the
    // fields (`kill,node=0`), both read naturally.
    std::string rest = entry;
    const auto colon = entry.find(':');
    std::string kind;
    if (colon != std::string::npos && entry.find('=') > colon) {
      kind = trim(entry.substr(0, colon));
      rest = entry.substr(colon + 1);
    }
    auto parts = split(rest, ',');
    if (kind.empty()) {
      if (parts.empty()) continue;
      kind = parts.front();
    } else {
      parts.insert(parts.begin(), kind);
    }
    build_entry(plan, kind, parse_fields(parts, entry), entry);
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::ostringstream os;
  bool first = true;
  auto sep = [&] {
    if (!first) os << ';';
    first = false;
  };
  for (const auto& e : events) {
    sep();
    os << (e.kind == FaultKind::kKill ? "kill" : "degrade")
       << ":node=" << format_index(e.node) << ",hca=" << format_index(e.hca)
       << ",t=" << format_double(e.t);
    if (e.kind == FaultKind::kDegrade) {
      os << ",bw=" << format_double(e.bw_factor)
         << ",lat=" << format_double(e.lat_factor);
    }
  }
  if (transient) {
    sep();
    os << "flaky:rate=" << format_double(transient->rate)
       << ",burst=" << transient->max_consecutive
       << ",backoff=" << format_double(transient->backoff_base)
       << ",backoff_max=" << format_double(transient->backoff_max)
       << ",seed=" << transient->seed;
  }
  return os.str();
}

void FaultPlan::validate(int nodes, int hcas) const {
  auto require = [](bool ok, const std::string& what) {
    if (!ok) throw FaultPlanError("fault plan: " + what);
  };
  for (const auto& e : events) {
    require(e.node >= -1 && e.node < nodes,
            "node " + std::to_string(e.node) + " out of range in '" +
                e.describe() + "'");
    require(e.hca >= -1 && e.hca < hcas,
            "hca " + std::to_string(e.hca) + " out of range in '" +
                e.describe() + "'");
    require(e.t >= 0, "negative time in '" + e.describe() + "'");
    if (e.kind == FaultKind::kDegrade) {
      require(e.bw_factor >= kMinBwFactor && e.bw_factor <= 1,
              "bw factor must be in [1e-3, 1] in '" + e.describe() + "'");
      require(e.lat_factor >= 1, "lat factor must be >= 1 in '" +
                                     e.describe() + "'");
    }
  }
  // Degrades on one rail compound: the cluster multiplies their factors in
  // firing order (time, then plan order), wildcards included, so the floor
  // applies to each rail's running product as well.
  std::vector<const FaultEvent*> degrades;
  for (const auto& e : events) {
    if (e.kind == FaultKind::kDegrade) degrades.push_back(&e);
  }
  std::stable_sort(degrades.begin(), degrades.end(),
                   [](const FaultEvent* a, const FaultEvent* b) {
                     return a->t < b->t;
                   });
  std::vector<double> bw(static_cast<std::size_t>(nodes) *
                             static_cast<std::size_t>(hcas),
                         1.0);
  for (const FaultEvent* e : degrades) {
    for (int n = 0; n < nodes; ++n) {
      if (e->node >= 0 && e->node != n) continue;
      for (int h = 0; h < hcas; ++h) {
        if (e->hca >= 0 && e->hca != h) continue;
        double& product = bw[static_cast<std::size_t>(n * hcas + h)];
        product *= e->bw_factor;
        require(product >= kMinBwFactor,
                "bw factors on node " + std::to_string(n) + " hca " +
                    std::to_string(h) + " multiply to " +
                    format_double(product) + ", below 1e-3");
      }
    }
  }
  if (transient) {
    require(transient->rate >= 0 && transient->rate < 1,
            "transient rate must be in [0, 1)");
    require(transient->max_consecutive >= 1,
            "transient burst must be >= 1");
    require(transient->backoff_base >= 0 && transient->backoff_max >= 0,
            "transient backoff must be >= 0");
  }
}

const char* FaultPlan::category_name(Category c) {
  switch (c) {
    case Category::kNone: return "none";
    case Category::kKill: return "kill";
    case Category::kDegrade: return "degrade";
    case Category::kTransient: return "transient";
    case Category::kMixed: return "mixed";
  }
  return "?";
}

FaultPlan FaultPlan::random(Rng& rng, int nodes, int hcas, Category cat) {
  FaultPlan plan;
  // Fault times land inside a collective's life on these small clusters.
  auto random_time = [&] { return rng.uniform(0.0, 40e-6); };

  auto add_kills = [&] {
    if (hcas < 2) return;  // killing the only rail would strand the node
    const int protected_rail = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(hcas)));
    const int kills = static_cast<int>(
        1 + rng.next_below(static_cast<std::uint64_t>(hcas - 1)));
    for (int k = 0; k < kills; ++k) {
      FaultEvent e;
      e.kind = FaultKind::kKill;
      // Whole-cluster kill of one rail index, or one node's rail.
      e.node = rng.next_double() < 0.5
                   ? -1
                   : static_cast<int>(
                         rng.next_below(static_cast<std::uint64_t>(nodes)));
      do {
        e.hca = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(hcas)));
      } while (e.hca == protected_rail);
      e.t = random_time();
      plan.events.push_back(e);
    }
  };
  auto add_degrades = [&] {
    const int n = static_cast<int>(
        1 + rng.next_below(static_cast<std::uint64_t>(hcas)));
    for (int k = 0; k < n; ++k) {
      FaultEvent e;
      e.kind = FaultKind::kDegrade;
      e.node = rng.next_double() < 0.5
                   ? -1
                   : static_cast<int>(
                         rng.next_below(static_cast<std::uint64_t>(nodes)));
      e.hca = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(hcas)));
      e.t = random_time();
      e.bw_factor = rng.uniform(0.2, 0.9);
      e.lat_factor = rng.uniform(1.0, 4.0);
      plan.events.push_back(e);
    }
  };
  auto add_transient = [&] {
    TransientSpec t;
    t.rate = rng.uniform(0.02, 0.25);
    t.max_consecutive = static_cast<int>(1 + rng.next_below(3));
    t.seed = rng.next_u64();
    plan.transient = t;
  };

  switch (cat) {
    case Category::kNone: break;
    case Category::kKill: add_kills(); break;
    case Category::kDegrade: add_degrades(); break;
    case Category::kTransient: add_transient(); break;
    case Category::kMixed:
      add_kills();
      add_degrades();
      add_transient();
      break;
  }
  return plan;
}

}  // namespace hmca::sim
