// E13 — serial vs parallel software execution: wall-clock updates/s of
// the SPA simulator run serially (cycle-exact walk, generic kernel)
// against the thread-parallel wavefront at 2/4/8 workers, plus the
// reference sweep generic vs fused. 512^2 FHP-II, the lattice scale of
// the paper's §6 design points. Shape expectation: the wavefront+LUT
// path clears 3× over the serial cycle-exact machine at 8 workers, and
// every variant stays bit-identical to the golden reference.

#include "bench_util.hpp"

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "lattice/arch/spa.hpp"
#include "lattice/core/engine.hpp"
#include "lattice/lgca/collision_lut.hpp"
#include "lattice/lgca/gas_rule.hpp"
#include "lattice/lgca/init.hpp"
#include "lattice/lgca/plane_kernel.hpp"
#include "lattice/lgca/reference.hpp"
#include "lattice/lgca/temporal_tile.hpp"

namespace {

using namespace lattice;

bool quick_mode() { return std::getenv("LATTICE_BENCH_QUICK") != nullptr; }

// Quick mode (CI gate) shrinks the lattice and pass count but keeps
// the execution-row names identical, so the same baseline matching in
// tools/check_bench_regression.py applies to both shapes.
const std::int64_t kSide = quick_mode() ? 192 : 512;
constexpr int kDepth = 4;
constexpr std::int64_t kSlice = 32;
const int kPasses = quick_mode() ? 1 : 2;  // generations = kDepth * kPasses

lgca::SiteLattice make_input() {
  lgca::SiteLattice lat({kSide, kSide}, lgca::Boundary::Null);
  lgca::fill_random(lat, lgca::GasModel::get(lgca::GasKind::FHP_II), 0.3, 13,
                    0.1);
  return lat;
}

struct Timed {
  lgca::SiteLattice out;
  double seconds;
  double rate;  // site updates per wall-clock second
};

template <typename Fn>
Timed timed_run(const lgca::SiteLattice& in, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  lgca::SiteLattice out = fn(in);
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const double updates =
      static_cast<double>(kSide * kSide) * kDepth * kPasses;
  return Timed{std::move(out), s, updates / s};
}

lgca::SiteLattice spa_run(const lgca::SiteLattice& in, unsigned threads,
                          bool fast) {
  const lgca::GasRule rule(lgca::GasKind::FHP_II);
  lgca::SiteLattice cur = in;
  for (int p = 0; p < kPasses; ++p) {
    arch::SpaMachine spa({kSide, kSide}, rule, kSlice, kDepth,
                         static_cast<std::int64_t>(p) * kDepth, threads, fast);
    cur = spa.run(cur);
  }
  return cur;
}

void print_tables() {
  bench_util::header("E13", "serial vs parallel software execution");

  const lgca::SiteLattice in = make_input();
  const lgca::GasRule rule(lgca::GasKind::FHP_II);
  const lgca::CollisionLut& lut = lgca::CollisionLut::get(lgca::GasKind::FHP_II);

  // The golden answer everything must reproduce bit-for-bit.
  lgca::SiteLattice golden = in;
  lgca::reference_run(golden, rule, kDepth * kPasses);

  std::printf("  %lldx%lld FHP-II, %d generations (SPA: W=%lld, depth=%d)%s\n\n",
              static_cast<long long>(kSide), static_cast<long long>(kSide),
              kDepth * kPasses, static_cast<long long>(kSlice), kDepth,
              quick_mode() ? " (quick mode)" : "");
  std::printf("  %-34s %10s %12s %9s %7s\n", "execution", "seconds",
              "updates/s", "speedup", "exact");

  const Timed base = timed_run(in, [&](const lgca::SiteLattice& l) {
    return spa_run(l, 1, false);
  });
  struct Row {
    std::string name;
    double seconds, rate, speedup;
    bool exact;
  };
  std::vector<Row> rows;
  auto row = [&](const char* name, const Timed& t) {
    rows.push_back(Row{name, t.seconds, t.rate, base.seconds / t.seconds,
                       t.out == golden});
    std::printf("  %-34s %10.3f %12.3e %8.2fx %7s\n", name, t.seconds, t.rate,
                base.seconds / t.seconds, t.out == golden ? "yes" : "NO");
  };
  row("SPA serial cycle-exact (baseline)", base);

  for (const unsigned threads : {2u, 4u, 8u}) {
    char name[64];
    std::snprintf(name, sizeof(name), "SPA wavefront, %u threads", threads);
    const Timed t = timed_run(in, [&](const lgca::SiteLattice& l) {
      return spa_run(l, threads, true);
    });
    row(name, t);
  }

  const Timed ref_generic = timed_run(in, [&](const lgca::SiteLattice& l) {
    lgca::SiteLattice lat = l;
    lgca::reference_run(lat, rule, kDepth * kPasses);
    return lat;
  });
  row("reference generic (Rule::apply)", ref_generic);

  const Timed ref_fused = timed_run(in, [&](const lgca::SiteLattice& l) {
    lgca::SiteLattice lat = l;
    lgca::fused_gas_run(lat, lut, kDepth * kPasses);
    return lat;
  });
  row("reference fused LUT", ref_fused);

  // The bit-plane thread ladder: the fastest software path under the
  // same golden-equality requirement. The band planner may collapse a
  // lattice this small to one band, in which case the rows read flat —
  // the point the regression gate checks is that they never go DOWN
  // with more threads (the pre-band-scheduler shape).
  const lgca::PlaneKernel& kernel = lgca::PlaneKernel::get(lgca::GasKind::FHP_II);
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    char name[64];
    std::snprintf(name, sizeof(name), "bit-plane, %u threads", threads);
    const Timed t = timed_run(in, [&](const lgca::SiteLattice& l) {
      lgca::SiteLattice lat = l;
      lgca::bitplane_gas_run(lat, kernel, kDepth * kPasses, 0, threads);
      return lat;
    });
    row(name, t);
  }

  bench_util::JsonWriter w;
  w.begin_object();
  w.field("bench", "parallel_speedup");
  w.field("quick", quick_mode());
  w.field("side", kSide);
  w.field("generations", std::int64_t{kDepth} * kPasses);
  w.key("rows").begin_array();
  for (const Row& r : rows) {
    w.begin_object();
    w.field("execution", r.name);
    w.field("seconds", r.seconds);
    w.field("sites_per_sec", r.rate);
    w.field("speedup_vs_serial", r.speedup);
    w.field("exact", r.exact);
    w.end_object();
  }
  w.end_array().end_object();
  bench_util::note("");
  bench_util::note(w.write_file("BENCH_parallel_speedup.json")
                       ? "wrote BENCH_parallel_speedup.json"
                       : "(could not write BENCH_parallel_speedup.json)");
  bench_util::note("");
  bench_util::note("what to look for: the wavefront rows replace the tick");
  bench_util::note("walk's per-site ring-buffer traffic and virtual dispatch");
  bench_util::note("with the fused LUT gather, so the 8-thread row should");
  bench_util::note("clear 3x over the serial baseline even on few cores;");
  bench_util::note("the bit-plane ladder must be monotone in threads (flat");
  bench_util::note("when the band planner collapses to one band); 'exact'");
  bench_util::note("must read yes in every row (bit-identical to the golden");
  bench_util::note("reference).");
}

void BM_SpaSerial(benchmark::State& state) {
  const lgca::GasRule rule(lgca::GasKind::FHP_II);
  lgca::SiteLattice in({128, 128}, lgca::Boundary::Null);
  lgca::fill_random(in, rule.model(), 0.3, 13, 0.1);
  for (auto _ : state) {
    arch::SpaMachine spa({128, 128}, rule, 16, 2);
    benchmark::DoNotOptimize(spa.run(in));
  }
  state.SetItemsProcessed(state.iterations() * 128 * 128 * 2);
}
BENCHMARK(BM_SpaSerial)->Unit(benchmark::kMillisecond);

void BM_SpaWavefront(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  const lgca::GasRule rule(lgca::GasKind::FHP_II);
  lgca::SiteLattice in({128, 128}, lgca::Boundary::Null);
  lgca::fill_random(in, rule.model(), 0.3, 13, 0.1);
  for (auto _ : state) {
    arch::SpaMachine spa({128, 128}, rule, 16, 2, 0, threads, true);
    benchmark::DoNotOptimize(spa.run(in));
  }
  state.SetItemsProcessed(state.iterations() * 128 * 128 * 2);
}
BENCHMARK(BM_SpaWavefront)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_ReferenceFused(benchmark::State& state) {
  const lgca::CollisionLut& lut =
      lgca::CollisionLut::get(lgca::GasKind::FHP_II);
  lgca::SiteLattice in({128, 128}, lgca::Boundary::Null);
  lgca::fill_random(in, lut.model(), 0.3, 13, 0.1);
  for (auto _ : state) {
    lgca::SiteLattice lat = in;
    lgca::fused_gas_run(lat, lut, 2);
    benchmark::DoNotOptimize(lat);
  }
  state.SetItemsProcessed(state.iterations() * 128 * 128 * 2);
}
BENCHMARK(BM_ReferenceFused)->Unit(benchmark::kMillisecond);

}  // namespace

LATTICE_BENCH_MAIN(print_tables)
