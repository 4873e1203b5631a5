#include "hw/spec.hpp"

#include <cmath>
#include <cstdlib>
#include <utility>

namespace hmca::hw {

namespace {

int positive_int(const std::string& what, const std::string& value) {
  char* end = nullptr;
  const long v = std::strtol(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || v < 1 || v > 1 << 20) {
    throw SpecError(what + ": expected a positive integer, got '" + value +
                    "'");
  }
  return static_cast<int>(v);
}

double bandwidth(const std::string& what, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || !std::isfinite(v) ||
      !(v >= kMinTopoBandwidth)) {
    throw SpecError(
        what + ": expected a finite bandwidth of at least " +
        std::to_string(static_cast<long long>(kMinTopoBandwidth)) +
        " bytes/s, got '" + value + "'");
  }
  return v;
}

}  // namespace

ClusterSpecBuilder::ClusterSpecBuilder(ClusterSpec base)
    : spec_(std::move(base)),
      node_mem_bw_(spec_.mem_bw * spec_.sockets_per_node),
      node_copy_bw_(spec_.copy_engine_bw * spec_.sockets_per_node) {}

ClusterSpecBuilder& ClusterSpecBuilder::nodes(int n) {
  if (n < 1) throw SpecError("ClusterSpecBuilder::nodes: must be >= 1");
  spec_.nodes = n;
  return *this;
}

ClusterSpecBuilder& ClusterSpecBuilder::ppn(int l) {
  if (l < 1) throw SpecError("ClusterSpecBuilder::ppn: must be >= 1");
  spec_.ppn = l;
  return *this;
}

ClusterSpecBuilder& ClusterSpecBuilder::hcas(int h) {
  if (h < 1) throw SpecError("ClusterSpecBuilder::hcas: must be >= 1");
  spec_.hcas_per_node = h;
  return *this;
}

ClusterSpecBuilder& ClusterSpecBuilder::sockets(int s) {
  if (s < 1) throw SpecError("ClusterSpecBuilder::sockets: must be >= 1");
  spec_.sockets_per_node = s;
  return *this;
}

ClusterSpecBuilder& ClusterSpecBuilder::hca_bw(double bytes_per_sec) {
  if (!(bytes_per_sec > 0)) {
    throw SpecError("ClusterSpecBuilder::hca_bw: must be > 0");
  }
  spec_.hca_bw = bytes_per_sec;
  return *this;
}

ClusterSpecBuilder& ClusterSpecBuilder::upi_bw(double bytes_per_sec) {
  if (!(bytes_per_sec > 0)) {
    throw SpecError("ClusterSpecBuilder::upi_bw: must be > 0");
  }
  spec_.upi_bw = bytes_per_sec;
  return *this;
}

ClusterSpecBuilder& ClusterSpecBuilder::carry_data(bool on) {
  spec_.carry_data = on;
  return *this;
}

ClusterSpec ClusterSpecBuilder::build() const {
  ClusterSpec out = spec_;
  // Per-socket capacities from the preserved node totals: sockets(2) on a
  // flat thor spec reproduces ClusterSpec::thor_numa exactly.
  out.mem_bw = node_mem_bw_ / out.sockets_per_node;
  out.copy_engine_bw = node_copy_bw_ / out.sockets_per_node;
  out.validate();
  return out;
}

ClusterSpec apply_topo(ClusterSpec base, const std::string& topo) {
  if (topo.empty()) return base;
  ClusterSpecBuilder b(std::move(base));
  std::size_t pos = 0;
  while (pos < topo.size()) {
    std::size_t end = topo.find(',', pos);
    if (end == std::string::npos) end = topo.size();
    const std::string item = topo.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= item.size()) {
      throw SpecError("--topo: expected key=value, got '" + item + "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "nodes") {
      b.nodes(positive_int("--topo nodes", value));
    } else if (key == "ppn") {
      b.ppn(positive_int("--topo ppn", value));
    } else if (key == "hcas") {
      b.hcas(positive_int("--topo hcas", value));
    } else if (key == "sockets") {
      b.sockets(positive_int("--topo sockets", value));
    } else if (key == "hca_bw") {
      b.hca_bw(bandwidth("--topo hca_bw", value));
    } else if (key == "upi_bw") {
      b.upi_bw(bandwidth("--topo upi_bw", value));
    } else {
      throw SpecError(
          "--topo: unknown key '" + key +
          "' (known: nodes, ppn, hcas, sockets, hca_bw, upi_bw)");
    }
  }
  return b.build();
}

}  // namespace hmca::hw
