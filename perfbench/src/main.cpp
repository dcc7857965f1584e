// netmon_perfbench: the repository's end-to-end benchmark program.
//
//   netmon_perfbench --workload <bin_cycle|query_mix|query_repeat|
//                                scale_whatif>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--ops <n>] [--spans <file>]
//
// Prints human-readable progress, then one JSON line prefixed with
// "PERFBENCH_RESULT " carrying the hardware stamp, gates, end-to-end and
// per-layer metrics and the deterministic counts. perfbench/run.py turns
// that line into the benchmark's result. See perfbench/NOTES.md.
#include <sys/prctl.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"
#include "opt/objective.hpp"

namespace {

using namespace perfbench;

void usage() {
  std::fprintf(stderr,
               "usage: netmon_perfbench --workload <bin_cycle|query_mix|"
               "query_repeat|scale_whatif> --seed <n> --seconds <s> "
               "--trace <0|1> [--ops <n>] [--spans <file>]\n");
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0) || args.seconds > 600.0)
        return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--ops") {
      args.ops = std::strtol(value.c_str(), &end, 10);
      if (*end != '\0' || args.ops < 0) return false;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      return false;
    }
  }
  return !args.workload.empty();
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string json_map(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    if (out.size() > 1) out += ',';
    out += '"' + json_escape(name) + "\":" + json_number(value);
  }
  return out + '}';
}

void emit(const Args& args, const Result& result) {
  const unsigned nproc = std::thread::hardware_concurrency();
  const char* simd =
      netmon::opt::simd_level_name(netmon::opt::simd_dispatch_level());
  const std::string hw_class = "nproc=" + std::to_string(nproc) +
                               ";simd=" + simd + ";compiler=" +
                               PERFBENCH_COMPILER +
                               ";build=" + PERFBENCH_BUILD_TYPE;

  for (const std::string& failure : result.gate_failures)
    std::printf("  GATE FAILED  %s\n", failure.c_str());
  for (const auto& [name, text] : result.info)
    std::printf("  %-22s %s\n", name.c_str(), text.c_str());
  for (const auto& [name, value] : result.e2e)
    std::printf("  e2e   %-26s %.6g\n", name.c_str(), value);
  for (const auto& [name, value] : result.layer)
    std::printf("  layer %-26s %.6g\n", name.c_str(), value);

  std::string gates = "[";
  for (const std::string& failure : result.gate_failures) {
    if (gates.size() > 1) gates += ',';
    gates += '"' + json_escape(failure) + '"';
  }
  gates += ']';
  std::string info = "{";
  for (const auto& [name, text] : result.info) {
    if (info.size() > 1) info += ',';
    info += '"' + json_escape(name) + "\":\"" + json_escape(text) + '"';
  }
  info += '}';
  char hash[24];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(result.stream_hash));

  std::printf(
      "PERFBENCH_RESULT {\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
      "\"hardware\":{\"nproc\":%u,\"simd\":\"%s\",\"compiler\":\"%s\","
      "\"build_type\":\"%s\",\"class\":\"%s\"},\"correct\":%s,"
      "\"gate_failures\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"e2e\":%s,\"layer\":%s,\"counts\":%s,\"info\":%s,"
      "\"stream_hash\":\"%s\"}\n",
      json_escape(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0, nproc,
      simd, json_escape(PERFBENCH_COMPILER).c_str(), PERFBENCH_BUILD_TYPE,
      json_escape(hw_class).c_str(), result.correct() ? "true" : "false",
      gates.c_str(), static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed),
      json_map(result.e2e).c_str(), json_map(result.layer).c_str(),
      json_map(result.counts).c_str(), info.c_str(), hash);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    usage();
    return 2;
  }
  // Sub-50us sleeps for the open-loop generator's schedule.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::printf("== netmon_perfbench %s seed=%llu seconds=%g trace=%d ==\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::fflush(stdout);

  Tracer tracer(args.trace);
  Result result;
  try {
    if (args.workload == "bin_cycle") {
      result = run_bin_cycle(args, tracer);
    } else if (args.workload == "query_mix") {
      result = run_query(args, tracer, /*repeat=*/false);
    } else if (args.workload == "query_repeat") {
      result = run_query(args, tracer, /*repeat=*/true);
    } else if (args.workload == "scale_whatif") {
      result = run_scale_whatif(args, tracer);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "netmon_perfbench: %s\n", e.what());
    return 1;
  }

  if (args.trace && !args.spans_path.empty() &&
      !tracer.write_jsonl(args.spans_path))
    result.gate(false, "spans: cannot write " + args.spans_path);
  result.e2e["peak_rss_mb"] = peak_rss_mb();
  emit(args, result);
  return 0;
}
