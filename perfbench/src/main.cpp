// perfbench — one workload of the repo benchmark per process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --tmpdir DIR [--trace-out FILE] [--tiny]
//
// Workloads: plane2d_hpp_4096, guarded_fhp2_1024, plane3d_cubic_256,
// serve_zipf_64 (see perfbench/README.md). --trace 0 measures the
// end-to-end metrics; --trace 1 the per-layer ones. Human-readable
// lines first, then one JSON line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// Exit status 1 when any output check failed, 2 on bad arguments.
// perfbench/run.py builds this binary and is the command to use.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"
#include "lattice/common/thread_pool.hpp"
#include "lattice/lgca/plane_simd.hpp"
#include "lattice/obs/json.hpp"
#include "lattice/obs/metrics.hpp"

namespace {

using perfbench::Options;

constexpr const char* kWorkloads[] = {"plane2d_hpp_4096", "guarded_fhp2_1024",
                                      "plane3d_cubic_256", "serve_zipf_64"};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "--tmpdir DIR [--trace-out FILE] [--tiny]\n",
               argv0);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    const char* a = argv[i];
    if (std::strcmp(a, "--workload") == 0) {
      opt.workload = next();
      for (const char* w : kWorkloads) have_workload |= opt.workload == w;
    } else if (std::strcmp(a, "--seed") == 0) {
      opt.seed = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(a, "--seconds") == 0) {
      opt.seconds = std::strtod(next(), nullptr);
    } else if (std::strcmp(a, "--trace") == 0) {
      opt.trace = std::strcmp(next(), "0") != 0;
    } else if (std::strcmp(a, "--tmpdir") == 0) {
      opt.tmpdir = next();
    } else if (std::strcmp(a, "--trace-out") == 0) {
      opt.trace_out = next();
    } else if (std::strcmp(a, "--tiny") == 0) {
      opt.tiny = true;
    } else {
      usage(argv[0]);
    }
  }
  if (!have_workload || opt.tmpdir.empty() || !(opt.seconds > 0)) {
    usage(argv[0]);
  }
  return opt;
}

/// The top of the rate waterfall: each row's rate and its share of the
/// row above (Theorem 4 ceiling -> bare kernel -> the workload).
void print_waterfall(const perfbench::Result& r, const Options& opt) {
  const auto find = [&](const char* name) {
    for (const perfbench::Metric& m : r.metrics) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  };
  const bool is3d = opt.workload == "plane3d_cubic_256";
  const double ceiling = find("host.ceiling_sites_per_s");
  const double kernel = find(is3d ? "lgca3d.kernel_sites_per_s"
                                  : "lgca.kernel_sites_per_s");
  const double eff = find("core.pass_efficiency");
  std::printf("# waterfall %-28s %14.4g sites/s\n", "ceiling B*tau(2S)",
              ceiling);
  std::printf("# waterfall %-28s %14.4g sites/s  %.4g%% of ceiling\n",
              "bare kernel", kernel,
              ceiling > 0 ? 100.0 * kernel / ceiling : 0.0);
  std::printf("# waterfall %-28s %14.4g sites/s  %.4g%% of kernel\n",
              opt.workload == "serve_zipf_64" ? "served (untraced quarters)"
                                              : "advance (untraced quarters)",
              eff * kernel, 100.0 * eff);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  perfbench::Result r;
  // A traced run records spans everywhere except in the timed phase's
  // untraced quarters.
  perfbench::Spans::get().set_enabled(opt.trace);

  // Spin up the shared pool's workers before anything is timed.
  lattice::common::ThreadPool::shared().run_lanes(
      perfbench::nproc(), [](unsigned) {});

  try {
    if (opt.workload == "serve_zipf_64") {
      perfbench::run_serve_workload(opt, r);
    } else {
      perfbench::run_engine_workload(opt, r);
    }
  } catch (const std::exception& e) {
    r.fail(std::string("uncaught: ") + e.what());
  }

  const auto simd = lattice::lgca::to_string(lattice::lgca::plane_simd_active());
  std::printf("# env workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
              "simd=%s llc_bytes=%lld build_type=%s lattice_obs=%d%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, perfbench::nproc(), simd,
              static_cast<long long>(perfbench::llc_bytes()),
              PERFBENCH_BUILD_TYPE, lattice::obs::kEnabled ? 1 : 0,
              opt.tiny ? " tiny=1" : "");
  for (const std::string& n : r.notes) std::printf("# %s\n", n.c_str());
  for (const std::string& f : r.failures) {
    std::printf("# FAILED CHECK: %s\n", f.c_str());
  }
  if (opt.trace) {
    print_waterfall(r, opt);
    for (const std::string& line : perfbench::Spans::get().waterfall()) {
      std::printf("# spans %s\n", line.c_str());
    }
    if (!opt.trace_out.empty() &&
        !perfbench::Spans::get().write_chrome_trace(opt.trace_out)) {
      r.fail("cannot write " + opt.trace_out);
    }
  }
  std::printf("# error_rate %.6g (failed %lld of %lld operations)\n",
              r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted
                              : 1.0,
              static_cast<long long>(r.failed),
              static_cast<long long>(r.attempted));

  lattice::obs::JsonWriter w;
  w.begin_object();
  w.field("correct", r.failed == 0 && r.attempted > 0);
  w.field("attempted", r.attempted);
  w.field("failed", r.failed);
  w.key("metrics").begin_object();
  for (const perfbench::Metric& m : r.metrics) {
    w.key(m.name.c_str()).begin_object();
    w.field("value", m.value);
    w.field("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return r.failed == 0 && r.attempted > 0 ? 0 : 1;
}
