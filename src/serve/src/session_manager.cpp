#include "lattice/serve/session_manager.hpp"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "lattice/core/checkpoint_io.hpp"
#include "lattice/lgca/gas_model.hpp"

namespace lattice::serve {

namespace {

// Resolved once; the scheduler's hot path then only touches atomics.
// The two gated histograms mirror the locally-maintained ServeStats
// ones so traces and lattice_profile see the serve family too.
struct ServeObs {
  obs::MetricsRegistry::Id created = obs::counter_id("serve.sessions.created");
  obs::MetricsRegistry::Id destroyed =
      obs::counter_id("serve.sessions.destroyed");
  obs::MetricsRegistry::Id evicted = obs::counter_id("serve.sessions.evicted");
  obs::MetricsRegistry::Id restored =
      obs::counter_id("serve.sessions.restored");
  obs::MetricsRegistry::Id rejected =
      obs::counter_id("serve.sessions.rejected");
  obs::MetricsRegistry::Id quanta = obs::counter_id("serve.quanta");
  obs::MetricsRegistry::Id generations = obs::counter_id("serve.generations");
  obs::MetricsRegistry::Id resident = obs::gauge_id("serve.sessions.resident");
  obs::MetricsRegistry::Id queue_depth = obs::gauge_id("serve.queue.depth");
  obs::MetricsRegistry::Id quantum_ns = obs::histogram_id("serve.quantum_ns");
  obs::MetricsRegistry::Id step_latency_ns =
      obs::histogram_id("serve.step.latency_ns");
  obs::MetricsRegistry::Id queue_depth_hist =
      obs::histogram_id("serve.queue.depth_at_enqueue");
  static const ServeObs& get() {
    static const ServeObs ids;
    return ids;
  }
};

}  // namespace

int priority_weight(Priority p) noexcept {
  switch (p) {
    case Priority::Interactive:
      return 4;
    case Priority::Normal:
      return 2;
    case Priority::Batch:
      return 1;
  }
  return 1;
}

struct SessionManager::Session {
  SessionId id = 0;
  core::LatticeEngine::Config engine_config;
  SessionOptions opts;
  /// Null while evicted; the spool checkpoint holds the state then.
  std::unique_ptr<core::LatticeEngine> engine;
  /// Armed fault plans pin the session resident: reconstructing the
  /// engine would reset the injector's epoch, so an evicted guarded
  /// session would redraw different transients than its unevicted twin.
  bool pinned = false;
  bool running = false;
  bool queued = false;
  std::string error;  // a quantum threw; session is poisoned

  std::int64_t pending = 0;          // requested, not yet committed
  std::int64_t committed = 0;        // engine generation mirror
  std::int64_t total_requested = 0;  // lifetime, for the quota
  /// (target generation, enqueue ns) per outstanding step() call.
  std::deque<std::pair<std::int64_t, std::int64_t>> step_targets;

  std::int64_t evictions = 0;
  std::int64_t restores = 0;
  std::int64_t quanta = 0;
  std::int64_t busy_ns = 0;
  std::uint64_t last_touch = 0;  // LRU clock for eviction
};

SessionManager::SessionManager(Config config) : config_(std::move(config)) {
  LATTICE_REQUIRE(config_.max_resident >= 1, "max_resident must be >= 1");
  LATTICE_REQUIRE(config_.workers >= 1, "workers must be >= 1");
  LATTICE_REQUIRE(config_.quantum >= 1, "quantum must be >= 1");
  LATTICE_REQUIRE(!config_.spool_dir.empty(), "spool_dir must be set");
  std::filesystem::create_directories(config_.spool_dir);
  rr_credit_ = priority_weight(Priority::Interactive);
  workers_.reserve(config_.workers);
  for (unsigned i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SessionManager::~SessionManager() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : workers_) t.join();
  std::error_code ec;
  for (const auto& [id, s] : sessions_) {
    if (s->engine == nullptr) {
      std::filesystem::remove(spool_path(id), ec);
    }
  }
  // Best effort: leaves the directory if another manager shares it.
  std::filesystem::remove(config_.spool_dir, ec);
}

std::string SessionManager::spool_path(SessionId id) const {
  return config_.spool_dir + "/session-" + std::to_string(id) + ".ckpt";
}

SessionManager::Session& SessionManager::session_locked(SessionId id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    throw SessionError("unknown session id " + std::to_string(id));
  }
  return *it->second;
}

const SessionManager::Session& SessionManager::session_locked(
    SessionId id) const {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    throw SessionError("unknown session id " + std::to_string(id));
  }
  return *it->second;
}

SessionId SessionManager::create(core::LatticeEngine::Config engine_config,
                                 SessionOptions options, const InitFn& init) {
  std::lock_guard<std::mutex> lk(mu_);
  if (config_.max_sessions > 0 &&
      static_cast<std::int64_t>(sessions_.size()) >= config_.max_sessions) {
    ++stats_.rejected;
    obs::count(ServeObs::get().rejected, 1);
    throw QuotaError("session admission refused: " +
                     std::to_string(sessions_.size()) + " live sessions at "
                     "the max_sessions cap");
  }
  make_room_locked();
  auto engine = std::make_unique<core::LatticeEngine>(engine_config);
  if (init) init(engine->state(), engine->gas_model());

  auto s = std::make_unique<Session>();
  const SessionId id = next_id_++;
  s->id = id;
  s->engine_config = engine_config;
  s->opts = options;
  s->pinned = engine_config.fault.armed();
  s->engine = std::move(engine);
  s->last_touch = ++touch_clock_;
  sessions_.emplace(id, std::move(s));
  ++resident_;
  ++stats_.created;
  obs::count(ServeObs::get().created, 1);
  obs::gauge_set(ServeObs::get().resident, resident_);
  return id;
}

void SessionManager::step(SessionId id, std::int64_t generations) {
  LATTICE_REQUIRE(generations >= 1, "step generations must be >= 1");
  std::lock_guard<std::mutex> lk(mu_);
  Session& s = session_locked(id);
  if (!s.error.empty()) {
    throw SessionError("session " + std::to_string(id) +
                       " is poisoned: " + s.error);
  }
  const SessionQuota& q = s.opts.quota;
  if (q.max_generations > 0 &&
      s.total_requested + generations > q.max_generations) {
    ++stats_.rejected;
    obs::count(ServeObs::get().rejected, 1);
    throw QuotaError("generation quota exceeded: session " +
                     std::to_string(id) + " requested " +
                     std::to_string(s.total_requested + generations) +
                     " of " + std::to_string(q.max_generations));
  }
  if (s.pending + generations > q.max_pending) {
    ++stats_.rejected;
    obs::count(ServeObs::get().rejected, 1);
    throw QuotaError("pending quota exceeded: session " + std::to_string(id) +
                     " has " + std::to_string(s.pending) +
                     " generations queued (cap " +
                     std::to_string(q.max_pending) + ")");
  }
  s.total_requested += generations;
  s.pending += generations;
  s.step_targets.emplace_back(s.committed + s.pending, obs::now_ns());
  stats_.queue_depth_hist.add(ready_count_);
  obs::record(ServeObs::get().queue_depth_hist, ready_count_);
  if (!s.queued && !s.running) {
    enqueue_locked(s);
    cv_work_.notify_one();
  }
}

void SessionManager::enqueue_locked(Session& s) {
  s.queued = true;
  ready_[static_cast<int>(s.opts.priority)].push_back(s.id);
  ++ready_count_;
  obs::gauge_set(ServeObs::get().queue_depth, ready_count_);
}

// Weighted round-robin across the priority classes: serve up to
// weight(c) grants from class c, then move on; empty classes are
// skipped without consuming their turn. FIFO within a class. Stale ids
// (destroyed sessions) are dropped on the floor here.
SessionManager::Session* SessionManager::pick_next_locked() {
  for (int scanned = 0; scanned < kPriorityClasses + 1;) {
    std::deque<SessionId>& q = ready_[rr_class_];
    if (rr_credit_ <= 0 || q.empty()) {
      rr_class_ = (rr_class_ + 1) % kPriorityClasses;
      rr_credit_ = priority_weight(static_cast<Priority>(rr_class_));
      ++scanned;
      continue;
    }
    const SessionId id = q.front();
    q.pop_front();
    --ready_count_;
    obs::gauge_set(ServeObs::get().queue_depth, ready_count_);
    auto it = sessions_.find(id);
    if (it == sessions_.end() || !it->second->queued) continue;
    --rr_credit_;
    it->second->queued = false;
    return it->second.get();
  }
  return nullptr;
}

// Evict least-recently-run idle residents until the pool has a free
// slot. Sessions that are running or pinned (armed fault plan) are
// never victims; if every resident is one of those the pool overshoots
// by the caller's one engine rather than deadlocking.
void SessionManager::make_room_locked() {
  while (resident_ >= config_.max_resident) {
    Session* victim = nullptr;
    for (auto& [id, s] : sessions_) {
      if (s->engine == nullptr || s->running || s->pinned) continue;
      if (victim == nullptr || s->last_touch < victim->last_touch) {
        victim = s.get();
      }
    }
    if (victim == nullptr) return;
    evict_locked(*victim);
  }
}

void SessionManager::evict_locked(Session& s) {
  core::save_checkpoint(s.engine->checkpoint(), spool_path(s.id));
  s.engine.reset();
  --resident_;
  ++s.evictions;
  ++stats_.evicted;
  obs::count(ServeObs::get().evicted, 1);
  obs::gauge_set(ServeObs::get().resident, resident_);
}

void SessionManager::ensure_resident_locked(Session& s) {
  if (s.engine != nullptr) return;
  make_room_locked();
  const std::string path = spool_path(s.id);
  const core::EngineCheckpoint ckpt = core::load_checkpoint(path);
  auto engine = std::make_unique<core::LatticeEngine>(s.engine_config);
  engine->restore(ckpt);
  s.engine = std::move(engine);
  std::error_code ec;
  std::filesystem::remove(path, ec);
  ++resident_;
  ++s.restores;
  ++stats_.restored;
  obs::count(ServeObs::get().restored, 1);
  obs::gauge_set(ServeObs::get().resident, resident_);
}

void SessionManager::worker_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_work_.wait(lk, [&] { return stop_ || ready_count_ > 0; });
    if (stop_) return;
    Session* s = pick_next_locked();
    if (s == nullptr) continue;  // only stale ids were queued
    try {
      ensure_resident_locked(*s);
    } catch (const std::exception& e) {
      // The spool checkpoint failed validation (CheckpointError) or the
      // engine could not be rebuilt: poison the session rather than
      // taking the worker (and with it the whole server) down.
      s->error = e.what();
      s->pending = 0;
      s->step_targets.clear();
      cv_idle_.notify_all();
      continue;
    }
    // One scheduling quantum, rounded up to the engine's pass quantum
    // so a temporally-tiled session always commits whole tile blocks
    // (the final partial grant is the one place a short block is fine).
    const std::int64_t eq = s->engine->chunk_quantum();
    const std::int64_t grant =
        std::min(s->pending, (config_.quantum + eq - 1) / eq * eq);
    s->running = true;
    ++running_count_;
    s->last_touch = ++touch_clock_;
    core::LatticeEngine* engine = s->engine.get();

    lk.unlock();
    const std::int64_t t0 = obs::now_ns();
    std::string error;
    try {
      engine->advance(grant);
    } catch (const std::exception& e) {
      error = e.what();
    }
    const std::int64_t t1 = obs::now_ns();
    lk.lock();

    s->running = false;
    --running_count_;
    s->busy_ns += t1 - t0;
    if (!error.empty()) {
      // Poisoned: drop the queued work, remember why. step()/wait()
      // report the stored error; destroy() still works.
      s->error = std::move(error);
      s->pending = 0;
      s->step_targets.clear();
      cv_idle_.notify_all();
      continue;
    }
    // destroy() may have zeroed pending while this quantum ran.
    s->pending = std::max<std::int64_t>(0, s->pending - grant);
    s->committed = engine->generation();
    ++s->quanta;
    ++stats_.quanta;
    stats_.generations += grant;
    stats_.site_updates +=
        grant * s->engine_config.extent.area() * s->engine_config.depth;
    obs::count(ServeObs::get().quanta, 1);
    obs::count(ServeObs::get().generations, grant);
    obs::record(ServeObs::get().quantum_ns, t1 - t0);
    while (!s->step_targets.empty() &&
           s->step_targets.front().first <= s->committed) {
      const std::int64_t latency = t1 - s->step_targets.front().second;
      stats_.step_latency.add(latency);
      obs::record(ServeObs::get().step_latency_ns, latency);
      s->step_targets.pop_front();
    }
    if (s->pending > 0) {
      enqueue_locked(*s);
      cv_work_.notify_one();
    } else {
      cv_idle_.notify_all();
    }
  }
}

void SessionManager::wait_idle_locked(std::unique_lock<std::mutex>& lk,
                                      SessionId id) {
  cv_idle_.wait(lk, [&] {
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return true;
    const Session& s = *it->second;
    return (!s.running && s.pending == 0) || !s.error.empty();
  });
  auto it = sessions_.find(id);
  if (it != sessions_.end() && !it->second->error.empty()) {
    throw SessionError("session " + std::to_string(id) +
                       " is poisoned: " + it->second->error);
  }
}

void SessionManager::wait(SessionId id) {
  std::unique_lock<std::mutex> lk(mu_);
  session_locked(id);  // throw on unknown id up front
  wait_idle_locked(lk, id);
}

void SessionManager::wait_all() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_idle_.wait(lk, [&] {
    if (running_count_ > 0 || ready_count_ > 0) return false;
    for (const auto& [id, s] : sessions_) {
      if (s->pending > 0 && s->error.empty()) return false;
    }
    return true;
  });
}

SessionInfo SessionManager::query(SessionId id) const {
  std::lock_guard<std::mutex> lk(mu_);
  const Session& s = session_locked(id);
  SessionInfo info;
  info.id = s.id;
  info.resident = s.engine != nullptr;
  info.running = s.running;
  info.generation = s.committed;
  info.pending_generations = s.pending;
  info.priority = s.opts.priority;
  info.extent = s.engine_config.extent;
  info.depth = s.engine_config.depth;
  info.backend = s.engine_config.backend;
  info.evictions = s.evictions;
  info.restores = s.restores;
  info.quanta = s.quanta;
  info.busy_seconds = static_cast<double>(s.busy_ns) * 1e-9;
  const double updates = static_cast<double>(s.committed) *
                         static_cast<double>(s.engine_config.extent.area()) *
                         static_cast<double>(s.engine_config.depth);
  info.sites_per_sec =
      info.busy_seconds > 0 ? updates / info.busy_seconds : 0.0;
  return info;
}

lgca::SiteLattice SessionManager::state(SessionId id) {
  std::unique_lock<std::mutex> lk(mu_);
  session_locked(id);
  wait_idle_locked(lk, id);
  const Session& s = session_locked(id);
  // Read through a const engine: the mutable state() would mark the
  // bytes authoritative and cost the next step a repack.
  if (s.engine != nullptr) return std::as_const(*s.engine).state();
  return core::load_checkpoint(spool_path(id)).state;
}

void SessionManager::checkpoint(SessionId id, const std::string& path) {
  std::unique_lock<std::mutex> lk(mu_);
  session_locked(id);
  wait_idle_locked(lk, id);
  const Session& s = session_locked(id);
  if (s.engine != nullptr) {
    core::save_checkpoint(s.engine->checkpoint(), path);
  } else {
    core::save_checkpoint(core::load_checkpoint(spool_path(id)), path);
  }
}

void SessionManager::destroy(SessionId id) {
  std::unique_lock<std::mutex> lk(mu_);
  {
    Session& s = session_locked(id);
    s.pending = 0;  // drop queued work; an in-flight quantum finishes
    s.step_targets.clear();
  }
  // Re-resolve through the map on every check: a concurrent destroy()
  // of the same id may erase the session while this one waits.
  cv_idle_.wait(lk, [&] {
    auto it = sessions_.find(id);
    return it == sessions_.end() || !it->second->running;
  });
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return;  // lost the race; already gone
  Session& s = *it->second;
  if (s.engine != nullptr) {
    --resident_;
    obs::gauge_set(ServeObs::get().resident, resident_);
  } else {
    std::error_code ec;
    std::filesystem::remove(spool_path(id), ec);
  }
  s.queued = false;  // any ready-queue entry is now stale
  sessions_.erase(it);
  ++stats_.destroyed;
  obs::count(ServeObs::get().destroyed, 1);
  cv_idle_.notify_all();
}

bool SessionManager::evict(SessionId id) {
  std::lock_guard<std::mutex> lk(mu_);
  Session& s = session_locked(id);
  if (s.engine == nullptr || s.running || s.pinned) return false;
  evict_locked(s);
  return true;
}

std::int64_t SessionManager::session_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<std::int64_t>(sessions_.size());
}

ServeStats SessionManager::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  ServeStats out = stats_;
  out.resident = resident_;
  out.queue_depth = ready_count_;
  return out;
}

}  // namespace lattice::serve
