// hmca-diff: explain the delta between two runs.
//
//   hmca-diff BASE NEXT [--json FILE] [--html FILE] [--out FILE]
//                       [--top K] [--force]
//
// BASE and NEXT are any two artifacts the repo writes — stats JSON (or a
// stats transcript), BENCH_*.json, or a chrome trace; the family is
// sniffed per file, so cross-family diffs work. The text report goes to
// stdout (or --out FILE); --json / --html write the machine-readable and
// dashboard renderings, all with deterministic bytes.
//
// Exit status: 0 on a clean diff, 2 on usage/load errors *and* on a world
// mismatch — comparing different topologies is a shape change, not a
// regression, and the caller must say --force to mean it.
#include <charconv>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "obs/diff.hpp"
#include "perf/diff_io.hpp"

namespace {

int usage(std::ostream& os, int code) {
  os << "usage: hmca-diff BASE NEXT [--json FILE] [--html FILE]\n"
        "                 [--out FILE] [--top K] [--force]\n"
        "\n"
        "Aligns two stats/bench/trace artifacts and attributes the\n"
        "latency delta per phase, resource class, rail and decision.\n"
        "\n"
        "  --json FILE  write the hmca-diff-1 JSON report\n"
        "  --html FILE  write a self-contained HTML report\n"
        "  --out FILE   write the text report to FILE instead of stdout\n"
        "  --top K      attributions shown per invocation (default 5)\n"
        "  --force      proceed despite a world (topology) mismatch\n";
  return code;
}

/// `--flag VALUE` or `--flag=VALUE`; advances i when the detached form
/// consumed the next argv slot.
bool take_value(int argc, char** argv, int& i, const char* flag,
                std::string* out) {
  const std::string arg = argv[i];
  const std::string f = flag;
  if (arg == f) {
    if (i + 1 >= argc) throw std::invalid_argument(f + " needs a value");
    *out = argv[++i];
    return true;
  }
  if (arg.rfind(f + "=", 0) == 0) {
    *out = arg.substr(f.size() + 1);
    if (out->empty()) throw std::invalid_argument(f + " needs a value");
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string base, next, json_path, html_path, out_path, top;
  bool force = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") return usage(std::cout, 0);
      if (arg == "--force") {
        force = true;
      } else if (take_value(argc, argv, i, "--json", &json_path) ||
                 take_value(argc, argv, i, "--html", &html_path) ||
                 take_value(argc, argv, i, "--out", &out_path) ||
                 take_value(argc, argv, i, "--top", &top)) {
        // handled
      } else if (!arg.empty() && arg[0] == '-') {
        std::cerr << "hmca-diff: unknown flag '" << arg << "'\n";
        return usage(std::cerr, 2);
      } else if (base.empty()) {
        base = arg;
      } else if (next.empty()) {
        next = arg;
      } else {
        std::cerr << "hmca-diff: unexpected argument '" << arg << "'\n";
        return usage(std::cerr, 2);
      }
    }
    if (base.empty() || next.empty()) return usage(std::cerr, 2);

    hmca::obs::DiffOptions opts;
    if (!top.empty()) {
      const char* end = top.data() + top.size();
      const auto [ptr, ec] = std::from_chars(top.data(), end, opts.top_k);
      if (ec != std::errc{} || ptr != end || opts.top_k < 0) {
        std::cerr << "hmca-diff: --top: expected an integer >= 0, got '"
                  << top << "'\n";
        return 2;
      }
    }

    const hmca::obs::DiffReport rep =
        hmca::perf::diff_artifacts(base, next, opts);

    const auto write_file = [](const std::string& path, auto&& emit) {
      std::ofstream os(path);
      if (!os) {
        throw std::invalid_argument("cannot write '" + path + "'");
      }
      emit(os);
    };
    if (!json_path.empty()) {
      write_file(json_path, [&](std::ostream& os) { rep.write_json(os); });
    }
    if (!html_path.empty()) {
      write_file(html_path,
                 [&](std::ostream& os) { rep.write_html(os, opts.top_k); });
    }
    if (!out_path.empty()) {
      write_file(out_path,
                 [&](std::ostream& os) { rep.write_text(os, opts.top_k); });
    } else {
      rep.write_text(std::cout, opts.top_k);
    }

    if (rep.has_world_mismatch() && !force) {
      for (const auto& inv : rep.invocations) {
        if (!inv.world_mismatch.empty()) {
          std::cerr << "hmca-diff: " << inv.world_mismatch << '\n';
          break;
        }
      }
      std::cerr << "hmca-diff: refusing to treat a shape change as a "
                   "regression (pass --force to override)\n";
      return 2;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "hmca-diff: " << e.what() << '\n';
    return 2;
  }
}
