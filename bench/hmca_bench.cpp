// hmca-bench: the performance-regression driver (see DESIGN.md section 10).
//
//   hmca-bench run [--campaign NAME] [--label LABEL] [--out FILE]
//                  [--repeats N] [--no-wallclock] [--quiet]
//       Execute a campaign and write BENCH_<label>.json (or --out FILE).
//
//   hmca-bench list [--campaign NAME]
//       Print the built-in campaigns, or one campaign's scenarios.
//
//   hmca-bench compare BASE.json NEW.json [--bless] [--epsilon REL]
//                  [--wallclock-threshold FRAC] [--report FILE]
//                  [--attribution FILE]
//       Diff two reports. Exit 0 = no unacknowledged drift, 1 = regressions
//       or unblessed drift, 2 = usage / IO errors. Latency drift is
//       auto-attributed (phase/resource/rail/decision margins) in the
//       findings; --attribution writes the full hmca-diff-1 JSON.
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "perf/campaign.hpp"
#include "perf/compare.hpp"
#include "perf/json.hpp"
#include "perf/runner.hpp"

using namespace hmca;

namespace {

int usage(std::ostream& os, int code) {
  os << "usage:\n"
        "  hmca-bench run [--campaign NAME] [--label LABEL] [--out FILE]\n"
        "                 [--repeats N] [--no-wallclock] [--quiet]\n"
        "                 [--topo sockets=2,hcas=4,...]\n"
        "  hmca-bench list [--campaign NAME]\n"
        "  hmca-bench compare BASE.json NEW.json [--bless] [--epsilon REL]\n"
        "                 [--wallclock-threshold FRAC] [--report FILE]\n"
        "                 [--attribution FILE]\n";
  return code;
}

/// Flag value: `--flag value` or `--flag=value`.
bool take_value(const std::vector<std::string>& args, std::size_t& i,
                const std::string& flag, std::string& out) {
  const std::string& arg = args[i];
  if (arg == flag) {
    if (i + 1 >= args.size()) {
      throw std::invalid_argument(flag + " requires a value");
    }
    out = args[++i];
    return true;
  }
  if (arg.rfind(flag + "=", 0) == 0) {
    out = arg.substr(flag.size() + 1);
    if (out.empty()) throw std::invalid_argument(flag + " requires a value");
    return true;
  }
  return false;
}

double parse_double(const std::string& flag, const std::string& value) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument(flag + ": not a number: '" + value + "'");
  }
}

/// A finite value >= 0: NaN or infinity would pass every drift gate.
double parse_tolerance(const std::string& flag, const std::string& value) {
  const double v = parse_double(flag, value);
  if (!std::isfinite(v) || v < 0) {
    throw std::invalid_argument(flag + ": expected a finite value >= 0, got '" +
                                value + "'");
  }
  return v;
}

int cmd_run(const std::vector<std::string>& args) {
  std::string campaign = "default";
  perf::RunOptions opts;
  opts.progress = &std::cerr;
  std::string out_path;
  std::string value;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (take_value(args, i, "--campaign", value)) {
      campaign = value;
    } else if (take_value(args, i, "--label", value)) {
      opts.label = value;
    } else if (take_value(args, i, "--out", value)) {
      out_path = value;
    } else if (take_value(args, i, "--repeats", value)) {
      // Checked before the cast: a fraction would truncate and a huge
      // value is an out-of-range conversion.
      const double n = parse_double("--repeats", value);
      if (!(n >= 1 && n <= std::numeric_limits<int>::max()) ||
          n != std::floor(n)) {
        throw std::invalid_argument(
            "--repeats: expected an integer >= 1, got '" + value + "'");
      }
      opts.wallclock_repeats = static_cast<int>(n);
    } else if (take_value(args, i, "--topo", value)) {
      opts.topo = value;
    } else if (args[i] == "--no-wallclock") {
      opts.wallclock = false;
    } else if (args[i] == "--quiet") {
      opts.progress = nullptr;
    } else {
      throw std::invalid_argument("run: unknown argument '" + args[i] + "'");
    }
  }
  const perf::Campaign* c = perf::find_campaign(campaign);
  if (c == nullptr) {
    std::cerr << "hmca-bench: unknown campaign '" << campaign
              << "' (have:";
    for (const auto& n : perf::campaign_names()) std::cerr << ' ' << n;
    std::cerr << ")\n";
    return 2;
  }
  if (out_path.empty()) out_path = "BENCH_" + opts.label + ".json";

  const perf::Report report = perf::run_campaign(*c, opts);
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "hmca-bench: cannot write '" << out_path << "'\n";
    return 2;
  }
  perf::write_report_json(out, report);
  std::cerr << "wrote " << out_path << " (" << report.scenarios.size()
            << " scenarios, campaign '" << c->name << "')\n";
  return 0;
}

int cmd_list(const std::vector<std::string>& args) {
  std::string campaign;
  std::string value;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (take_value(args, i, "--campaign", value)) {
      campaign = value;
    } else {
      throw std::invalid_argument("list: unknown argument '" + args[i] + "'");
    }
  }
  if (campaign.empty()) {
    for (const auto& name : perf::campaign_names()) {
      const perf::Campaign* c = perf::find_campaign(name);
      std::cout << name << " (" << c->scenarios.size() << " scenarios)\n";
    }
    return 0;
  }
  const perf::Campaign* c = perf::find_campaign(campaign);
  if (c == nullptr) {
    std::cerr << "hmca-bench: unknown campaign '" << campaign << "'\n";
    return 2;
  }
  for (const auto& sc : c->scenarios) {
    std::cout << sc.id << "  " << perf::kind_name(sc.kind);
    if (!sc.subject.empty()) std::cout << ' ' << sc.subject;
    std::cout << "  " << sc.nodes << "x" << sc.ppn;
    if (sc.hcas > 0) std::cout << " (" << sc.hcas << " HCAs)";
    std::cout << "  " << sc.xs.size() << " points";
    if (!sc.faults.empty()) std::cout << "  faults: " << sc.faults;
    std::cout << '\n';
  }
  return 0;
}

int cmd_compare(const std::vector<std::string>& args) {
  perf::CompareOptions opts;
  std::vector<std::string> files;
  std::string report_path;
  std::string attribution_path;
  std::string value;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--bless") {
      opts.bless = true;
    } else if (take_value(args, i, "--epsilon", value)) {
      opts.epsilon_rel = parse_tolerance("--epsilon", value);
    } else if (take_value(args, i, "--wallclock-threshold", value)) {
      opts.wallclock_threshold =
          parse_tolerance("--wallclock-threshold", value);
    } else if (take_value(args, i, "--report", value)) {
      report_path = value;
    } else if (take_value(args, i, "--attribution", value)) {
      attribution_path = value;
    } else if (!args[i].empty() && args[i][0] == '-') {
      throw std::invalid_argument("compare: unknown flag '" + args[i] + "'");
    } else {
      files.push_back(args[i]);
    }
  }
  if (files.size() != 2) {
    std::cerr << "hmca-bench compare: expected exactly two report files\n";
    return 2;
  }
  const perf::Json base = perf::parse_json_file(files[0]);
  const perf::Json next = perf::parse_json_file(files[1]);
  const perf::CompareResult result = perf::compare_reports(base, next, opts);
  perf::write_compare_report(std::cout, result, files[0], files[1]);
  if (!report_path.empty()) {
    std::ofstream rep(report_path);
    if (!rep) {
      std::cerr << "hmca-bench: cannot write '" << report_path << "'\n";
      return 2;
    }
    perf::write_compare_report(rep, result, files[0], files[1]);
  }
  if (!attribution_path.empty() &&
      !result.attribution.invocations.empty()) {
    std::ofstream att(attribution_path);
    if (!att) {
      std::cerr << "hmca-bench: cannot write '" << attribution_path << "'\n";
      return 2;
    }
    result.attribution.write_json(att);
    std::cerr << "attribution written to " << attribution_path << '\n';
  }
  return result.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(std::cerr, 2);
  const std::string cmd = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "run") return cmd_run(args);
    if (cmd == "list") return cmd_list(args);
    if (cmd == "compare") return cmd_compare(args);
    if (cmd == "--help" || cmd == "help") return usage(std::cout, 0);
    std::cerr << "hmca-bench: unknown command '" << cmd << "'\n";
    return usage(std::cerr, 2);
  } catch (const perf::JsonError& e) {
    std::cerr << "hmca-bench: " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "hmca-bench: " << e.what() << '\n';
    return 2;
  }
}
