// serve_zipf_64: the whole serve stack in one process.
//
// SessionManager (max_resident 16, workers 2, default quantum) behind a
// ServeProtocol, reached over nproc socketpair connections, each served
// by SocketServer::serve_connection on its own thread. 256 sessions of
// 64² are created over the wire (gases cycle HPP / FHP-I / FHP-II,
// backends alternate reference / bitplane, priorities cycle). Load is a
// closed loop: one client thread per connection picks a session from a
// seeded Zipf(s = 1) over the session ranks, sends a 128-generation
// `step` with "wait":true and waits for the reply; every 8th request
// is a `query`. Session rank r is session r for every seed, so the hot
// set is the same on every run and only the request sequence and the
// initial fills depend on the seed.
//
// Checks: every reply is ok and names the session asked for; after the
// timed phase every session's generation equals 128 x the steps it was
// sent; sampled sessions match unevicted twin engines bit-exactly and
// conserve mass and momentum.
//
// Steadiness: a served step is a chain of thread hand-offs, and on a
// virtual machine every hand-off to an idle vCPU waits for the
// hypervisor to wake it, a delay set by the other tenants of the host.
// Two things keep that out of the figures. Steps are 128 generations,
// so compute outweighs the hand-offs (at 16 a run-to-run swing in host
// load moved the rates by up to 40 %). And while the stack is set up
// and loaded, one SCHED_IDLE spinner per core keeps every vCPU from
// halting. The kernel gives a SCHED_IDLE thread a core only when no
// other thread wants it (a fraction of a percent otherwise), so the
// workload keeps the CPU it asks for.

#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "lattice/core/engine.hpp"
#include "lattice/lgca/init.hpp"
#include "lattice/lgca/observables.hpp"
#include "lattice/obs/metrics.hpp"
#include "lattice/serve/json_parse.hpp"
#include "lattice/serve/protocol.hpp"
#include "lattice/serve/server.hpp"
#include "lattice/serve/session_manager.hpp"

namespace perfbench {

namespace {

using namespace lattice;

constexpr std::int64_t kStepGenerations = 128;
constexpr int kQueryEvery = 8;
constexpr int kSetupReps = 9;
constexpr double kDensity = 0.3;
constexpr const char* kGases[] = {"hpp", "fhp1", "fhp2"};
constexpr lgca::GasKind kGasKinds[] = {lgca::GasKind::HPP,
                                       lgca::GasKind::FHP_I,
                                       lgca::GasKind::FHP_II};
constexpr const char* kPriorities[] = {"interactive", "normal", "batch"};

struct Shape {
  int sessions = 256;
  std::int64_t side = 64;
};

/// One client end of a socketpair, with a read buffer so a reply costs
/// one read() rather than one per byte.
class Connection {
 public:
  explicit Connection(int fd) : fd_(fd) {}
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() { close(); }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// Send one frame and read one reply line; false on a transport error.
  bool roundtrip(const std::string& request, std::string& reply) {
    std::string frame = request;
    frame.push_back('\n');
    std::size_t off = 0;
    while (off < frame.size()) {
      const ssize_t w =
          ::send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(w);
    }
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        reply.assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char tmp[4096];
      const ssize_t n = ::read(fd_, tmp, sizeof tmp);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf_.append(tmp, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
};

/// SessionManager + ServeProtocol + one serve_connection thread per
/// socketpair. Destruction closes the client ends (the server threads
/// see EOF), joins the threads, then drops protocol and manager.
class Stack {
 public:
  Stack(const std::string& dir, unsigned connections)
      : manager_(manager_config(dir)),
        protocol_(manager_, serve::ProtocolLimits{}, dir + "/ckpt") {
    // Every socket first, so a failure throws before any thread exists.
    std::vector<int> server_fds;
    for (unsigned i = 0; i < connections; ++i) {
      int fds[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        for (const int fd : server_fds) ::close(fd);
        throw std::runtime_error("socketpair failed");
      }
      clients_.push_back(std::make_unique<Connection>(fds[1]));
      server_fds.push_back(fds[0]);
    }
    for (const int fd : server_fds) {
      servers_.emplace_back([this, fd] {
        serve::SocketServer::serve_connection(fd, protocol_, nullptr);
        ::close(fd);
      });
    }
  }
  ~Stack() {
    for (auto& c : clients_) c->close();
    for (std::thread& t : servers_) t.join();
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  Connection& connection(std::size_t i) { return *clients_[i]; }
  serve::SessionManager& manager() { return manager_; }

 private:
  static serve::SessionManager::Config manager_config(const std::string& dir) {
    serve::SessionManager::Config cfg;
    cfg.max_resident = 16;
    cfg.workers = 2;
    cfg.spool_dir = dir + "/spool";
    return cfg;
  }

  serve::SessionManager manager_;
  serve::ServeProtocol protocol_;
  std::vector<std::unique_ptr<Connection>> clients_;
  std::vector<std::thread> servers_;
};

/// One busy-waiting thread per core at SCHED_IDLE priority, from
/// construction to stop(): idle vCPUs spin instead of halting. A thread
/// that cannot lower its own priority exits at once rather than take
/// CPU from the workload.
class IdleSpinners {
 public:
  explicit IdleSpinners(unsigned n) {
    for (unsigned i = 0; i < n; ++i) {
      threads_.emplace_back([this] {
        const sched_param param{};
        if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
          return;
        }
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      });
    }
  }
  ~IdleSpinners() { stop(); }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

  void stop() {
    stop_.store(true);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

std::uint64_t session_seed(std::uint64_t seed, int i) {
  return mix_seed(seed, 1000 + static_cast<std::uint64_t>(i)) >> 2;
}

std::string create_frame(const Shape& shape, std::uint64_t seed, int i) {
  return std::string("{\"op\":\"create\",\"width\":") +
         std::to_string(shape.side) + ",\"height\":" +
         std::to_string(shape.side) + ",\"gas\":\"" + kGases[i % 3] +
         "\",\"backend\":\"" + (i % 2 == 0 ? "reference" : "bitplane") +
         "\",\"boundary\":\"periodic\",\"priority\":\"" + kPriorities[i % 3] +
         "\",\"init\":\"random\",\"density\":0.3,\"seed\":" +
         std::to_string(session_seed(seed, i)) + "}";
}

/// Parse a reply; false unless it is {"ok":true,...} naming `id` (when
/// id >= 0). `generation` receives the reply's generation field.
bool reply_ok(const std::string& reply, std::int64_t id,
              std::int64_t* generation = nullptr) {
  try {
    const serve::JsonValue v = serve::parse_json(reply);
    const serve::JsonValue* ok = v.find("ok");
    if (ok == nullptr || !ok->bool_or(false)) return false;
    if (id >= 0) {
      const serve::JsonValue* got = v.find("id");
      if (got == nullptr || got->int_or(-1) != id) return false;
    }
    if (generation != nullptr) {
      const serve::JsonValue* g = v.find("generation");
      if (g == nullptr) return false;
      *generation = g->int_or(-1);
    }
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

/// Median ping round trip (us) on an idle connection.
double ping_median_us(Connection& c, int n, Result& r) {
  std::vector<double> us;
  for (int i = 0; i < n; ++i) {
    std::string reply;
    ++r.attempted;
    const std::int64_t t0 = now_ns();
    bool ok = false;
    {
      const SpanScope s("serve.ping");
      ok = c.roundtrip("{\"op\":\"ping\"}", reply);
    }
    us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    if (!ok || !reply_ok(reply, -1)) r.fail("ping: bad reply '" + reply + "'");
  }
  return median(us);
}

/// Zipf(s = 1) over ranks [0, n): inverse-CDF sampling.
class Zipf {
 public:
  explicit Zipf(int n) : cdf_(static_cast<std::size_t>(n)) {
    double acc = 0;
    for (int r = 0; r < n; ++r) {
      acc += 1.0 / (r + 1);
      cdf_[static_cast<std::size_t>(r)] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  int operator()(std::uint64_t& state) const {
    state = mix_seed(state, 0);
    const double u = static_cast<double>(state >> 11) * 0x1.0p-53;
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<int>(std::min<std::ptrdiff_t>(
        it - cdf_.begin(), static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
  }

 private:
  std::vector<double> cdf_;
};

constexpr int kRateWindows = 10;
constexpr int kTailParts = 4;

struct ClientStats {
  // Requests sent inside the timed window: step latencies with their
  // completion times, and the completion time of every request (steps
  // flagged).
  std::vector<double> step_ms;
  std::vector<std::int64_t> step_end_ns;
  std::vector<std::pair<std::int64_t, bool>> done;
  std::int64_t mode_steps[2] = {0, 0};  // by trace mode at send time
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // the first few
};

double busy_seconds(serve::SessionManager& m,
                    const std::vector<std::int64_t>& ids) {
  double s = 0;
  for (const std::int64_t id : ids) {
    s += m.query(static_cast<serve::SessionId>(id)).busy_seconds;
  }
  return s;
}

}  // namespace

void probe_ping_rtt(const Options& opt, Result& r) {
  const std::string dir = opt.tmpdir + "/ping";
  std::filesystem::create_directories(dir);
  Stack stack(dir, 1);
  r.add("serve.ping_rtt_us", ping_median_us(stack.connection(0),
                                            opt.tiny ? 20 : 400, r),
        "us");
}

void run_serve_workload(const Options& opt, Result& r) {
  Shape shape;
  if (opt.tiny) {
    shape.sessions = 24;
    shape.side = 32;
  }
  const unsigned clients = nproc();
  Spans& spans = Spans::get();
  IdleSpinners spinners(nproc());

  // ---- set-up: stack + wire creation of every session, median of reps
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  std::vector<std::int64_t> ids;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    ids.clear();
    const std::string dir = opt.tmpdir + "/serve" + std::to_string(rep);
    std::filesystem::create_directories(dir);
    const std::int64_t t0 = now_ns();
    {
      const SpanScope s("serve.setup");
      stack = std::make_unique<Stack>(dir, clients);
      for (int i = 0; i < shape.sessions; ++i) {
        std::string reply;
        ++r.attempted;
        std::int64_t id = -1;
        if (!stack->connection(0).roundtrip(create_frame(shape, opt.seed, i),
                                            reply) ||
            !reply_ok(reply, -1)) {
          r.fail("create: bad reply '" + reply + "'");
        } else {
          id = serve::parse_json(reply).find("id")->int_or(-1);
        }
        ids.push_back(id);
      }
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  if (r.failed > 0) return;
  serve::SessionManager& mgr = stack->manager();

  // ---- closed-loop load: warm-up, then the timed window ----
  const Zipf zipf(shape.sessions);
  std::vector<std::atomic<std::int64_t>> steps_ok(
      static_cast<std::size_t>(shape.sessions));
  std::atomic<bool> stop{false};
  std::atomic<bool> timing{false};
  std::vector<ClientStats> stats(clients);
  std::vector<std::thread> workers;
  // Stops and joins the clients on every path out of this scope.
  struct Joiner {
    std::atomic<bool>& stop;
    std::vector<std::thread>& threads;
    ~Joiner() {
      stop.store(true);
      for (std::thread& t : threads) {
        if (t.joinable()) t.join();
      }
    }
  } joiner{stop, workers};
  for (unsigned c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      ClientStats& st = stats[c];
      Connection& conn = stack->connection(c);
      std::uint64_t rng = mix_seed(opt.seed, 200 + c);
      std::string reply;
      for (std::int64_t n = 1; !stop.load(std::memory_order_relaxed); ++n) {
        const int rank = zipf(rng);
        const std::int64_t id = ids[static_cast<std::size_t>(rank)];
        const bool query = n % kQueryEvery == 0;
        const std::string req =
            query ? "{\"op\":\"query\",\"id\":" + std::to_string(id) + "}"
                  : "{\"op\":\"step\",\"id\":" + std::to_string(id) +
                        ",\"generations\":" +
                        std::to_string(kStepGenerations) + ",\"wait\":true}";
        const bool in_window = timing.load(std::memory_order_relaxed);
        const bool traced = spans.enabled();
        const std::int64_t t0 = now_ns();
        bool sent = false;
        {
          const SpanScope s(query ? "serve.query" : "serve.step",
                            (static_cast<std::int64_t>(c) << 40) | n);
          sent = conn.roundtrip(req, reply);
        }
        const std::int64_t t1 = now_ns();
        ++st.attempted;
        std::int64_t gen = -1;
        // Generations commit in quanta of 8, so any generation a reply
        // reports is a multiple of 8 (and >= kStepGenerations after a
        // waited step).
        const bool ok = sent && reply_ok(reply, id, &gen) && gen % 8 == 0 &&
                        (query || gen >= kStepGenerations);
        if (!ok) {
          ++st.failed;
          if (st.failures.size() < 4) st.failures.push_back(req + " -> " + reply);
          if (!sent) break;
          continue;
        }
        if (!query) steps_ok[static_cast<std::size_t>(rank)].fetch_add(1);
        if (!in_window) continue;
        st.done.emplace_back(t1, !query);
        if (!query) {
          st.step_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
          st.step_end_ns.push_back(t1);
          ++st.mode_steps[traced];
        }
      }
    });
  }

  const auto sleep_s = [](double s) {
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
  };
  sleep_s(opt.tiny ? 0.1 : 0.5);  // warm-up: residency and spool settle
  const serve::ServeStats before = mgr.stats();
  const double busy_before = busy_seconds(mgr, ids);
  if (opt.trace) obs::MetricsRegistry::global().reset();
  // Traced runs alternate untraced and traced quarters.
  double mode_s[2] = {0, 0};
  const std::int64_t t_start = now_ns();
  timing.store(true);
  for (int q = 0; q < 4; ++q) {
    const bool on = opt.trace && q % 2 == 1;
    spans.set_enabled(on);
    const std::int64_t q0 = now_ns();
    sleep_s(opt.seconds / 4);
    mode_s[on] += static_cast<double>(now_ns() - q0) * 1e-9;
  }
  timing.store(false);
  const std::int64_t wall_ns = now_ns() - t_start;
  spans.set_enabled(opt.trace);
  const serve::ServeStats after = mgr.stats();
  const double busy_after = busy_seconds(mgr, ids);
  stop.store(true);
  for (std::thread& t : workers) t.join();  // the Joiner then has nothing left
  spinners.stop();  // the checks and probes below run on a quiet host
  const obs::MetricsSnapshot obs_after =
      obs::MetricsRegistry::global().snapshot();

  std::vector<double> step_ms;
  std::int64_t window_requests = 0;
  std::int64_t mode_steps[2] = {0, 0};
  // Rates are medians over kRateWindows equal windows of the timed
  // phase, so one noisy stretch moves the median, not the figure.
  std::vector<double> window_req(kRateWindows), window_steps(kRateWindows);
  // p99 is the median of the exact p99s of kTailParts equal parts, so
  // one burst of host stalls moves one part, not the figure.
  std::vector<std::vector<double>> part_ms(kTailParts);
  for (ClientStats& st : stats) {
    for (std::size_t i = 0; i < st.step_ms.size(); ++i) {
      const auto p = std::min<std::int64_t>(
          (st.step_end_ns[i] - t_start) * kTailParts / wall_ns,
          kTailParts - 1);
      part_ms[static_cast<std::size_t>(p)].push_back(st.step_ms[i]);
    }
    for (const auto& [t, is_step] : st.done) {
      const auto w = std::min<std::int64_t>(
          (t - t_start) * kRateWindows / wall_ns, kRateWindows - 1);
      window_req[static_cast<std::size_t>(w)] += 1;
      window_steps[static_cast<std::size_t>(w)] += is_step ? 1 : 0;
    }
    r.attempted += st.attempted;
    r.failed += st.failed;
    r.failures.insert(r.failures.end(), st.failures.begin(),
                      st.failures.end());
    step_ms.insert(step_ms.end(), st.step_ms.begin(), st.step_ms.end());
    window_requests += static_cast<std::int64_t>(st.done.size());
    mode_steps[0] += st.mode_steps[0];
    mode_steps[1] += st.mode_steps[1];
  }

  // ---- checks: every session committed exactly what it was sent ----
  mgr.wait_all();
  for (int i = 0; i < shape.sessions; ++i) {
    const std::int64_t id = ids[static_cast<std::size_t>(i)];
    std::string reply;
    std::int64_t gen = -1;
    ++r.attempted;
    const std::int64_t want =
        kStepGenerations * steps_ok[static_cast<std::size_t>(i)].load();
    if (!stack->connection(0).roundtrip(
            "{\"op\":\"query\",\"id\":" + std::to_string(id) + "}", reply) ||
        !reply_ok(reply, id, &gen) || gen != want) {
      r.fail("session rank " + std::to_string(i) + ": generation " +
             std::to_string(gen) + ", expected " + std::to_string(want));
    }
  }
  // Sampled sessions against unevicted twins (one advance() on the
  // bit-plane backend, which every session gas supports) and against
  // conservation of their initial mass and momentum.
  int checked = 0;
  for (const int i : {0, 3, 17, 64, 128, 255}) {
    if (i >= shape.sessions) continue;
    const std::int64_t id = ids[static_cast<std::size_t>(i)];
    core::LatticeEngine::Config cfg;
    cfg.extent = {shape.side, shape.side};
    cfg.gas = kGasKinds[i % 3];
    cfg.boundary = lgca::Boundary::Periodic;
    cfg.backend = core::Backend::BitPlane;
    core::LatticeEngine twin(cfg);
    lgca::fill_random(twin.state(), twin.gas_model(), kDensity,
                      session_seed(opt.seed, i), 0.1);
    const lgca::Invariants inv0 =
        lgca::measure_invariants(twin.state(), twin.gas_model());
    twin.advance(kStepGenerations * steps_ok[static_cast<std::size_t>(i)]);
    const lgca::SiteLattice got = mgr.state(static_cast<serve::SessionId>(id));
    ++checked;
    if (!(got == twin.state())) {
      r.fail("session rank " + std::to_string(i) +
             ": state differs from its unevicted twin");
    } else if (!(lgca::measure_invariants(got, twin.gas_model()) == inv0)) {
      r.fail("session rank " + std::to_string(i) +
             ": mass or momentum not conserved");
    }
  }
  std::string windows = "requests per window:";
  for (const double w : window_req) {
    windows += " " + std::to_string(static_cast<std::int64_t>(w));
  }
  r.note(windows);
  r.note("checked: every session's generation, " + std::to_string(checked) +
         " sampled sessions bit-exact against twins");

  const double wall_s = static_cast<double>(wall_ns) * 1e-9;
  const double window_s = wall_s / kRateWindows;
  const auto steps = static_cast<std::int64_t>(step_ms.size());
  const double session_sites = static_cast<double>(shape.side * shape.side);
  const double sites_per_s = median(window_steps) * kStepGenerations *
                             session_sites / window_s;
  r.note("timed: " + std::to_string(window_requests) + " requests (" +
         std::to_string(steps) + " steps) over " + std::to_string(wall_s) +
         " s from " + std::to_string(clients) +
         " closed-loop clients; rates are medians over " +
         std::to_string(kRateWindows) + " windows");

  if (!opt.trace) {
    r.add("setup_s", median(setup_s), "s");
    r.add("sites_per_s", sites_per_s, "sites/s");
    r.add("req_per_s", median(window_req) / window_s, "1/s");
    r.add("step_p50_ms", quantile(step_ms, 0.50), "ms");
    std::vector<double> part_p99;
    std::size_t part_n = step_ms.size();
    for (const std::vector<double>& part : part_ms) {
      part_p99.push_back(quantile(part, 0.99));
      part_n = std::min(part_n, part.size());
    }
    r.add("step_p99_ms", median(part_p99), "ms");
    r.note("step_p50_ms over n=" + std::to_string(step_ms.size()) +
           " client-side step latencies; step_p99_ms is the median p99 of " +
           std::to_string(kTailParts) + " equal parts of the timed phase, "
           "the smallest of n=" + std::to_string(part_n) +
           " (highest supported percentile p" +
           std::to_string(highest_supported_percentile(part_n)) + ")");
    r.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  // ---- per-layer ----
  const double busy = busy_after - busy_before;
  double latency_s = 0;
  for (const double ms : step_ms) latency_s += ms * 1e-3;
  r.add("serve.restore_frac",
        steps > 0 ? static_cast<double>(after.restored - before.restored) / steps
                  : 0.0,
        "frac");
  r.add("serve.evicted", static_cast<double>(after.evicted - before.evicted),
        "count");
  r.add("serve.restored",
        static_cast<double>(after.restored - before.restored), "count");
  r.add("serve.quanta", static_cast<double>(after.quanta - before.quanta),
        "count");
  r.add("serve.compute_share", latency_s > 0 ? busy / latency_s : 0.0, "frac");
  r.add("serve.quantum_sites_per_s",
        busy > 0 ? static_cast<double>(after.site_updates -
                                       before.site_updates) /
                       busy
                 : 0.0,
        "sites/s");
  obs::HistogramStats depth = after.queue_depth_hist;
  for (int b = 0; b < obs::HistogramStats::kBuckets; ++b) {
    depth.buckets[static_cast<std::size_t>(b)] -=
        before.queue_depth_hist.buckets[static_cast<std::size_t>(b)];
  }
  depth.count -= before.queue_depth_hist.count;
  r.add("serve.queue_depth_p50",
        static_cast<double>(depth.quantile_ceiling(0.5)), "count");
  r.note("serve.queue_depth_p50 is the ceiling of a log2 bucket");
  r.add("serve.ping_rtt_us",
        ping_median_us(stack->connection(0), opt.tiny ? 20 : 400, r), "us");

  const auto quantum_ns =
      static_cast<double>(histogram_sum(obs_after, "serve.quantum_ns"));
  const auto share = [&](const char* h) {
    return quantum_ns > 0
               ? static_cast<double>(histogram_sum(obs_after, h)) / quantum_ns
               : 0.0;
  };
  r.add("core.pack_share", share("bitplane.pack_ns"), "frac");
  r.add("core.update_share", share("bitplane.update_ns"), "frac");
  r.add("core.unpack_share", share("bitplane.unpack_ns"), "frac");
  {
    core::LatticeEngine::Config cfg;
    cfg.extent = {shape.side, shape.side};
    cfg.backend = core::Backend::BitPlane;
    r.add("core.tile_depth",
          static_cast<double>(core::LatticeEngine(cfg).chunk_quantum()),
          "count");
  }
  r.add("common.pool_busy_share",
        static_cast<double>(pool_busy_ns(obs_after)) /
            (static_cast<double>(wall_ns) * clients),
        "frac");
  r.add("core.thread_scaling", 0, "ratio");  // sessions run one thread
  for (const char* name : {"fault.injected", "fault.detected",
                           "fault.rollbacks", "fault.checkpoints"}) {
    r.add(name, 0, "count");  // no fault plan on this path
  }
  r.add("fault.useful_frac", 0, "frac");
  r.add("fault.checkpoint_share", 0, "frac");
  r.add("fault.guard_ratio", 0, "ratio");

  ProbeShape shape_probe;
  shape_probe.side2 = shape.side;
  shape_probe.gas2 = static_cast<int>(lgca::GasKind::FHP_II);
  set_probe_box(shape_probe, shape.side * shape.side);
  const ProbeRates rates = run_layer_probes(opt, shape_probe, r);
  r.add("core.pass_efficiency",
        rates.kernel2_sites_per_s > 0 ? sites_per_s / rates.kernel2_sites_per_s
                                      : 0.0,
        "ratio");
  const double rate_off = mode_s[0] > 0 ? mode_steps[0] / mode_s[0] : 0;
  const double rate_on = mode_s[1] > 0 ? mode_steps[1] / mode_s[1] : 0;
  r.add("obs.trace_overhead_frac", rate_off > 0 ? 1.0 - rate_on / rate_off : 0,
        "frac");
}

}  // namespace perfbench
